"""Oligochromatic Ramsey arrows on finite hom-sets.

The arrow ``C -> (B)^A_{k,t}`` holds when every k-coloring of the embedding
set hom(A, C) admits some w in hom(B, C) whose composed copies of A use at
most t colors.  :func:`check_arrow` decides this by a backtracking search
for a *bad* coloring (one defeating every w) that cuts a branch as soon as
some w can no longer exceed t colors; :func:`exhaustive_min_degree` is the
independent brute-force oracle used to cross-check it on small instances.
It evaluates every coloring, many at once as the bits of one int, in pure
Python.

Everything here works on hom-sets (embeddings), never on unordered
"copies"; with nontrivial automorphisms those counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import inf
from operator import or_

from .structures import (
    TAG_LINEAR,
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatchError,
    StructureError,
    enumerate_embeddings,
    hom_nonempty,
    reduct,
)

DEFAULT_BUDGET = 10 ** 8

# the most colorings the exhaustive oracle evaluates at once, as the bits
# ("lanes") of one int
_ORACLE_LANES = 1 << 12


class InternalConsistencyError(RuntimeError):
    """A composed embedding fell outside the coloring's base hom-set."""


class EmptyHomSetError(ValueError):
    """An operation requires a nonempty hom-set."""


@dataclass(frozen=True)
class Coloring:
    """A k-coloring of an enumerated hom-set hom(A, C)."""

    base_hom: tuple[Embedding, ...]
    k: int
    assignment: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.assignment) != len(self.base_hom):
            raise ValueError("assignment not total on base_hom")
        if any(not (0 <= c < self.k) for c in self.assignment):
            raise ValueError("color out of range")
        object.__setattr__(self, "_index",
                           {e.map: i for i, e in enumerate(self.base_hom)})

    def color_of_map(self, m: tuple[int, ...]) -> int:
        try:
            return self.assignment[self._index[m]]
        except KeyError:
            raise InternalConsistencyError(f"map {m} not in base hom-set") from None

    def colors_used(self) -> set[int]:
        return set(self.assignment)


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an arrow check.

    ``holds`` is ``True``/``False`` when decided and ``None`` when the
    search exceeded its node budget; "undecided within budget" is a
    first-class outcome, never a guessed boolean.
    """

    holds: bool | None
    witness: Coloring | None = None
    nodes: int = 0

    @property
    def decided(self) -> bool:
        return self.holds is not None


def _hom_for_pattern(a: FinStructure, x: FinStructure) -> tuple[Embedding, ...]:
    """hom(A, X), allowing A over a named sub-signature of X.

    When A's signature is a subset of X's (matching names, arities and
    tags), embeddings are taken into the corresponding reduct of X.  This
    is what lets a plain 2-chain be colored inside a two-order permutation.
    """
    if a.signature == x.signature:
        return enumerate_embeddings(a, x)
    x_names = set(x.signature.names)
    if all(s.name in x_names and x.signature.spec(s.name) == s
           for s in a.signature.relations):
        return enumerate_embeddings(a, reduct(x, a.signature.names))
    raise SignatureMismatchError(
        f"pattern signature {a.signature.names} not a reduct of {x.signature.names}")


def oligo_count(chi: Coloring, w: Embedding, a: FinStructure) -> int:
    """Number of distinct colors on ``{chi(w . u) : u in hom(A, B)}``."""
    hom_ab = _hom_for_pattern(a, w.source)
    colors = {chi.color_of_map(tuple(w.map[v] for v in u.map)) for u in hom_ab}
    return len(colors)


def oligo_search(chi: Coloring, b: FinStructure, a: FinStructure,
                 c: FinStructure) -> tuple[int, Embedding]:
    """Exact minimum of :func:`oligo_count` over hom(B, C), with argmin.

    Scans every w in canonical order; exits early once the count reaches 1.
    """
    hom_bc = enumerate_embeddings(b, c)
    if not hom_bc:
        raise EmptyHomSetError("hom(B, C) is empty: no witness can exist")
    best: tuple[int, Embedding] | None = None
    for w in hom_bc:
        count = oligo_count(chi, w, a)
        if best is None or count < best[0]:
            best = (count, w)
            if count <= 1:
                break
    assert best is not None
    return best


def _arrow_instance(c: FinStructure, b: FinStructure, a: FinStructure):
    """Base hom-set plus, per w in hom(B, C), the indices it composes onto."""
    hom_ac = _hom_for_pattern(a, c)
    hom_bc = enumerate_embeddings(b, c)
    hom_ab = _hom_for_pattern(a, b)
    index = {e.map: i for i, e in enumerate(hom_ac)}
    groups: list[tuple[int, ...]] = []
    for w in hom_bc:
        idxs = []
        for u in hom_ab:
            m = tuple(w.map[v] for v in u.map)
            if m not in index:
                raise InternalConsistencyError(f"composite {m} missing from hom(A, C)")
            idxs.append(index[m])
        groups.append(tuple(sorted(set(idxs))))
    return hom_ac, hom_bc, groups


def check_arrow(c: FinStructure, b: FinStructure, a: FinStructure,
                k: int, t: int, budget: int = DEFAULT_BUDGET) -> ArrowVerdict:
    """Decide ``C -> (B)^A_{k,t}``.

    Searches for a bad coloring by depth-first assignment over hom(A, C),
    most-constraining element first, colors in canonical restricted-growth
    order (color permutations never change badness, so canonical colorings
    suffice).  The search is a loop over an explicit stack, so no recursion
    limit bounds its depth.

    Each w in hom(B, C) is a *group*: the elements of hom(A, C) it composes
    onto.  A group's *room* is the colors already on it plus its unassigned
    elements, the most colors it can end with.  After the early returns
    below, k > t and every room starts above t.  Giving color c to element
    e lowers the room of each group of e that already has c by one and
    leaves the other rooms alone, so the child is dead (every completion
    is good) exactly when some group of e is *tight*, with room t + 1, and
    already has c.

    Sets of groups are bitmasks, one bit per group.  Each position holds
    the mask of the groups of its element, and each used color the mask of
    the groups that already have it, made when the color is first used, so
    there are at most ``min(k, |hom(A, C)|)`` of them.  ``levels[s]`` holds
    the groups whose room is t + 1 + s, so ``levels[0]`` holds the tight
    ones.  Giving c to e moves the groups of e that have c down one level.
    The colors of e's tight groups are OR-ed into a forbidden mask once per
    position, and each child then costs one bit test.  Backtracking
    restores the color mask and the levels that the position saved.

    Every child tried is one node, dead ones included.  A search that needs
    more than ``budget`` nodes stops at node ``budget + 1`` (node 1 for a
    negative budget) and returns ``holds=None``.  A full assignment is a
    bad coloring, and exhausting the tree proves the arrow.  The witness
    is the first bad coloring in this fixed order, so verdicts, witnesses
    and node counts are deterministic.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be >= 1")
    hom_ac, hom_bc, groups = _arrow_instance(c, b, a)
    n = len(hom_ac)
    if not hom_bc:
        # no witness w can exist, so every coloring is bad (even the empty
        # one when there is nothing to color); report the least
        return ArrowVerdict(holds=False, witness=Coloring(hom_ac, k, (0,) * n),
                            nodes=0)
    if n == 0:
        # nothing to color and a witness exists: the arrow holds vacuously
        return ArrowVerdict(holds=True, nodes=0)
    # a group that can never exceed t colors makes the arrow hold outright
    if any(min(len(g), k) <= t for g in groups):
        return ArrowVerdict(holds=True, nodes=0)

    member = [0] * n                  # by element: the mask of its groups
    # levels[s]: the groups whose room is t + 1 + s
    levels = [0] * (max(map(len, groups)) - t)
    for gi, g in enumerate(groups):
        bit = 1 << gi
        levels[len(g) - t - 1] |= bit
        for e in g:
            member[e] |= bit
    order = sorted(range(n), key=lambda e: (-member[e].bit_count(), e))
    at = [member[e] for e in order]

    # every room on the current path is above t
    has: list[int] = []               # has[c]: the groups that have color c
    colors = [0] * n                  # by element, valid along the path
    chosen = [0] * n                  # by position: the color on the path
    forbid = [0] * n                  # by position: its forbidden mask
    opened = [0] * n                  # by position: colors used before it
    kept = [0] * n                    # by position: has[color] before it
    saved: list[list[int]] = [levels] * n  # by position: levels before it
    budget = max(budget, 0)  # the first node is always tried
    nodes = 0
    pos = col = used = forb = 0
    while True:
        top = used if used < k else k - 1
        live = ((2 << top) - (1 << col)) & ~forb
        if not live:
            # every color left here is dead: count them, then backtrack
            nodes += top - col + 1
            if nodes > budget:
                return ArrowVerdict(holds=None, nodes=budget + 1)
            pos -= 1
            if pos < 0:
                return ArrowVerdict(holds=True, nodes=nodes)
            col, forb, used = chosen[pos], forbid[pos], opened[pos]
            has[col] = kept[pos]
            levels = saved[pos]
            col += 1
            continue
        bit = live & -live
        pick = bit.bit_length() - 1
        nodes += pick - col + 1
        if nodes > budget:
            return ArrowVerdict(holds=None, nodes=budget + 1)
        chosen[pos], forbid[pos], opened[pos] = pick, forb, used
        colors[order[pos]] = pick
        if pick == used:
            used += 1
            if used > len(has):
                has.append(0)
        here = at[pos]
        old = kept[pos] = has[pick]
        has[pick] = old | here
        saved[pos] = levels
        down = here & old
        if down:
            # live, so none of these groups is tight: each drops one level
            levels = levels.copy()
            s = 1
            while down:
                moved = levels[s] & down
                if moved:
                    levels[s] ^= moved
                    levels[s - 1] |= moved
                    down ^= moved
                s += 1
        pos += 1
        if pos == n:
            return ArrowVerdict(holds=False, nodes=nodes,
                                witness=Coloring(hom_ac, k, tuple(colors)))
        forb = col = 0
        tight = at[pos] & levels[0]
        if tight:
            for x in range(used):
                if has[x] & tight:
                    forb |= 1 << x


def is_bad_coloring(chi: Coloring, b: FinStructure, a: FinStructure,
                    c: FinStructure, t: int) -> bool:
    """Direct definition check: every w in hom(B, C) exceeds t colors."""
    hom_bc = enumerate_embeddings(b, c)
    return all(oligo_count(chi, w, a) > t for w in hom_bc)


def exhaustive_min_degree(c: FinStructure, b: FinStructure, a: FinStructure,
                          k: int) -> int | float:
    """Brute-force oracle: max over all k-colorings of the min over w of
    the color count on w's composed copies.

    The arrow ``C -> (B)^A_{k,t}`` holds exactly when ``t >=`` this value.
    Every coloring is evaluated, independently of the pruned search.  The
    last ``tail`` elements of hom(A, C) are colored all at once, one
    coloring per bit ("lane") of an int, ``tail`` being the most with
    ``k ** tail`` lanes within a fixed lane width: lane x gives tail
    element i the i-th base-k digit of x.  The colorings of the other
    (head) elements are counted through in base k, one pass over the lanes
    each.  Stops once the value reaches the least ``min(k, |group|)`` over
    the groups, the most it can be.  Returns 0 when there is nothing to
    color and ``inf`` when no witness w exists.
    """
    hom_ac, hom_bc, groups = _arrow_instance(c, b, a)
    n = len(hom_ac)
    if not hom_bc:
        return inf
    bound = min(min(k, len(g)) for g in groups)
    if n == 0 or bound < 1:
        return 0
    tail = 0
    while tail < n and k ** (tail + 1) <= _ORACLE_LANES:
        tail += 1
    head = n - tail
    full = (1 << k ** tail) - 1
    # digits[i][x]: the lanes where tail element i has color x; digit i
    # repeats in periods of k * k**i lanes, one bit per period in ``every``
    digits = []
    for i in range(tail):
        run = k ** i
        every = full // ((1 << (run * k)) - 1)
        digits.append([(((1 << run) - 1) << (x * run)) * every
                       for x in range(k)])
    # per group: its head elements, and per color the lanes where its tail
    # elements have that color
    parts = []
    for g in groups:
        ends = [digits[e - head] for e in g if e >= head]
        parts.append(([e for e in g if e < head],
                      [(x, reduce(or_, masks))
                       for x, masks in enumerate(zip(*ends))]))
    # head coloring r gives head element i the i-th base-k digit of r
    # (counted, not a product over range(k), which would hold all k colors)
    powers = [k ** i for i in range(head)]
    worst = 0
    for r in range(k ** head):
        row = [r // p % k for p in powers]
        while _lanes_with(parts, row, worst + 1, full):
            worst += 1
            if worst >= bound:
                return worst
    return worst


def _lanes_with(parts: list[tuple[list[int], list[tuple[int, int]]]],
                row: list[int], need: int, full: int) -> int:
    """The lanes where every group has at least ``need`` colors, the head
    elements colored by ``row`` (see :func:`exhaustive_min_degree`)."""
    common = full
    for front, back in parts:
        seen = {row[e] for e in front}
        have = len(seen)
        if have >= need:
            continue
        # at[j]: the lanes where the group has at least j colors
        at = [full] * (have + 1) + [0] * (need - have)
        for x, lane in back:
            if x not in seen:
                for j in range(need, have, -1):
                    at[j] |= at[j - 1] & lane
        common &= at[need]
        if not common:
            break
    return common


def exhaustive_check_arrow(c: FinStructure, b: FinStructure, a: FinStructure,
                           k: int, t: int, budget: int = DEFAULT_BUDGET
                           ) -> bool | None:
    """Oracle form of :func:`check_arrow` by full coloring enumeration.

    Returns None (undecided), without enumerating, when the
    ``k ** |hom(A, C)|`` colorings exceed ``budget``.
    """
    if k ** len(_hom_for_pattern(a, c)) > budget:
        return None
    return t >= exhaustive_min_degree(c, b, a, k)


def min_degree(c: FinStructure, b: FinStructure, a: FinStructure, k: int,
               budget: int = DEFAULT_BUDGET) -> int | None:
    """Least t with ``C -> (B)^A_{k,t}``; ``None`` if undecided in budget.

    Always at most ``min(k, |hom(A,B)|)``, and 1 when hom(A, B) is empty.
    """
    hom_bc = enumerate_embeddings(b, c)
    if not hom_bc:
        raise EmptyHomSetError("hom(B, C) is empty")
    hom_ab = _hom_for_pattern(a, b)
    cap = max(1, min(k, len(hom_ab)))
    for t in range(1, cap + 1):
        verdict = check_arrow(c, b, a, k, t, budget=budget)
        if verdict.holds is None:
            return None
        if verdict.holds:
            return t
    raise AssertionError("arrow must hold at t = min(k, |hom(A,B)|)")


def two_chain_over(name: str) -> FinStructure:
    """The 2-chain whose single order relation is called ``name``."""
    sig = Signature.make((name, 2, TAG_LINEAR))
    return FinStructure.build(sig, 2, {name: [(0, 1)]})


def _two_orders(p: FinStructure) -> list[str]:
    """The names of the two linear orders of a two-order structure."""
    linear = [s.name for s in p.signature.relations if s.tag == TAG_LINEAR]
    if len(linear) != 2:
        raise StructureError("need exactly two linear orders")
    return linear


def sierpinski_coloring(p: FinStructure) -> Coloring:
    """Two-color the 2-chains of a two-order structure by order agreement.

    An embedded pair (x, y) with x below y in the first linear order gets
    color 0 when the second order agrees and color 1 when it reverses.
    Always a 2-coloring, even if only one color occurs.
    """
    first, second = _two_orders(p)
    hom = _hom_for_pattern(two_chain_over(first), p)
    omega = p.rel(second)
    assignment = tuple(0 if (u.map[0], u.map[1]) in omega else 1 for u in hom)
    return Coloring(hom, 2, assignment)


def sierpinski_pattern(p: FinStructure) -> FinStructure:
    """The 2-chain over the first linear order of ``p``, for oligo ops."""
    return two_chain_over(_two_orders(p)[0])


def transfer_check(c: FinStructure, b: FinStructure, a: FinStructure,
                   c2: FinStructure, b2: FinStructure, k: int, t: int,
                   budget: int = DEFAULT_BUDGET) -> bool | None:
    """Verify one transfer implication on a concrete instance.

    Monotonicity: embeddings C -> C2 and B2 -> B and the premise
    C -> (B)^A_{k,t} imply C2 -> (B2)^A_{k,t}.  Pull a colouring of
    hom(A, C2) back along C -> C2, and compose the good w with B2 -> B.
    Transfer (a) grows C with B2 = B; transfer (b) shrinks B with C2 = C.
    Returns True when the implication is confirmed (vacuously or not),
    False on a violation, None if undecided.
    """
    if not hom_nonempty(c, c2):
        raise EmptyHomSetError("transfer: hom(C, C2) is empty")
    if not hom_nonempty(b2, b):
        raise EmptyHomSetError("transfer: hom(B2, B) is empty")
    premise = check_arrow(c, b, a, k, t, budget=budget)
    if premise.holds is None:
        return None
    if not premise.holds:
        return True
    return check_arrow(c2, b2, a, k, t, budget=budget).holds
