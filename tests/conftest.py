"""Shared independent oracles for the test suite.

These deliberately re-derive definitions from scratch (no calls into the
library's search code) so that library results are checked against a
second route.  The one exception, ``every_instance_class_property``, runs
the library's amalgamation search on every instance, to check the
shortcut that the class-property loop takes.  ``seed_check_arrow`` is the
arrow search as first written, the reference for the rewritten search; it
shares only the instance builder ``_arrow_instance`` with the library,
and so does ``seed_exhaustive_min_degree``, the numpy oracle as first
written, the reference for the pure-Python oracle.
``seed_embedding_search`` is the embedding search as first written, the
reference for the bitset search; it shares nothing with the library.
``seed_complete_structures`` and ``seed_forced_quotient`` (with its
numbering ``_seed_least_members``) are the relation completer and the
forced-quotient engine as first written, the references for the rewritten
ones; besides the structure types they share only the status names with
the library.  They take slot options as the callbacks first written,
``options(tag, x, y)``: ``_slot_options``, ``_tournament_options``,
``_order_options`` and ``LOPS_OPTIONS``, kept here; ``seed_options`` names
a built-in class's callback, and ``expand_options`` lists the tuple sets a
library options table gives a slot.
``random_mixed`` draws seeded structures with a unary, a ternary and a
looped binary relation, the less common cases of the embedding search
and of the canonical key.

``revalidate_trusted_builds`` runs for every test: each structure that the
package builds without validation (``_checked=True``) is validated again,
and a test during which one fails validation fails.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from math import inf
from typing import Callable, Iterable, Iterator, Sequence

import pytest

from ramsey_forge import diagrams
from ramsey_forge.arrows import (
    DEFAULT_BUDGET,
    ArrowVerdict,
    Coloring,
    _arrow_instance,
)
from ramsey_forge.diagrams import IMPOSSIBLE, NONE_WITHIN_BOUND
from ramsey_forge.structures import (
    BACKWARD,
    BOTH,
    FORWARD,
    NONE,
    TAG_LINEAR,
    TAG_NONE,
    TAG_ORIENTED,
    TAG_SYMMETRIC,
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatchError,
    StructureError,
)


@pytest.fixture(autouse=True)
def revalidate_trusted_builds(monkeypatch):
    """Validate every structure built with ``_checked=True`` during the
    test; yields the list of failures, each ``(structure, message)``,
    and fails the test when it is not empty at the end."""
    invalid: list[tuple[FinStructure, str]] = []
    trusted_post_init = FinStructure.__post_init__

    def post_init(self) -> None:
        if self._checked:
            try:
                dataclasses.replace(self, _checked=False)
            except StructureError as exc:
                invalid.append((self, str(exc)))
        trusted_post_init(self)

    monkeypatch.setattr(FinStructure, "__post_init__", post_init)
    yield invalid
    assert not invalid, f"trusted builds that fail validation: {invalid}"


def brute_force_embedding_maps(a: FinStructure, b: FinStructure
                               ) -> set[tuple[int, ...]]:
    """All embeddings of ``a`` into ``b`` by direct definition over every
    injection: injective, and every relation preserved and reflected."""
    out = set()
    for image in itertools.permutations(range(b.size), a.size):
        ok = True
        for spec, a_rel, b_rel in zip(a.signature.relations, a.relations,
                                      b.relations):
            for t in itertools.product(range(a.size), repeat=spec.arity):
                if (t in a_rel) != (tuple(image[v] for v in t) in b_rel):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(image))
    return out


def brute_force_isomorphism(a: FinStructure, b: FinStructure) -> bool:
    if a.size != b.size:
        return False
    return bool(brute_force_embedding_maps(a, b))


MIXED_SIG = Signature.make(("P", 1), ("R", 3), ("L", 2))


def random_mixed(rng, n: int, density: tuple[float, float, float] = (0.5, 0.08, 0.3)
                 ) -> FinStructure:
    """A structure with a unary relation, a ternary one, and a binary one
    under tag ``none``, loops included; ``density`` is the chance of each
    tuple, per relation."""
    unary, ternary, binary = density
    return FinStructure.build(MIXED_SIG, n, {
        "P": [(x,) for x in range(n) if rng.random() < unary],
        "R": [t for t in itertools.product(range(n), repeat=3) if rng.random() < ternary],
        "L": [t for t in itertools.product(range(n), repeat=2) if rng.random() < binary],
    })


def brute_force_canonical_key(a: FinStructure):
    """The least encoding over all n! relabelings: equal iff isomorphic."""
    best = None
    for perm in itertools.permutations(range(a.size)):
        enc = tuple(
            tuple(sorted(tuple(perm[v] for v in t) for t in tuples))
            for tuples in a.relations
        )
        if best is None or enc < best:
            best = enc
    return (a.signature, a.size, best)


def brute_force_permutational(p: FinStructure):
    """The first listing of the domain, over all n!, whose order meets
    omega in exactly the partial order; None when no listing does."""
    po, omega = p.rel("po"), p.rel("omega")
    for listing in itertools.permutations(range(p.size)):
        position = {v: i for i, v in enumerate(listing)}
        if all(((x, y) in omega and position[x] < position[y])
               == ((x, y) in po)
               for x in range(p.size) for y in range(p.size) if x != y):
            return listing
    return None


def brute_force_acyclic(d: FinStructure) -> bool:
    """Some listing of the points puts every arc forward."""
    arcs = d.relations[0]
    return any(all(position[x] < position[y] for x, y in arcs)
               for position in itertools.permutations(range(d.size)))


def brute_force_oriented_amalgam(a: FinStructure, b: FinStructure,
                                 c: FinStructure, f: tuple[int, ...],
                                 g: tuple[int, ...], member):
    """An amalgam of the span ``B <-f- A -g-> C`` among all oriented graphs
    on at most ``|B| + |C| - |A|`` points that ``member`` accepts, merges
    of points of B with points of C included: the first ``(D, leg_b,
    leg_c)`` whose embeddings agree on A, or None."""
    name = b.signature.names[0]
    for m in range(max(b.size, c.size), b.size + c.size - a.size + 1):
        pairs = list(itertools.combinations(range(m), 2))
        for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
            arcs = [(x, y) if ch == 1 else (y, x)
                    for (x, y), ch in zip(pairs, choice) if ch]
            d = FinStructure.build(b.signature, m, {name: arcs})
            if not member(d):
                continue
            for leg_b in sorted(brute_force_embedding_maps(b, d)):
                for leg_c in sorted(brute_force_embedding_maps(c, d)):
                    if all(leg_b[f[x]] == leg_c[g[x]] for x in range(a.size)):
                        return d, leg_b, leg_c
    return None


def every_instance_class_property(property_name, klass, max_size,
                                  amalgam_bound=None):
    """AP, SAP or JEP with every instance searched, mirrors and twists
    included.

    The loop of :func:`diagrams.check_class_property` without skipping the
    spans equivalent to an earlier one under the swap of B and C or under
    Aut(A), to check that skipping changes no report.  JEP is amalgamation
    over the empty structure: every ordered member pair is searched and
    reported as ``(xi, yi)``.
    """
    members = klass.members_up_to(max_size)
    jep = property_name == "JEP"
    empty = FinStructure(klass.signature, 0,
                         tuple(frozenset() for _ in klass.signature.relations))
    checked = 0
    undecided = []
    for ai, x in enumerate((empty,) if jep else members):
        for bi, yb in enumerate(members):
            for ci, yc in enumerate(members):
                bound = (amalgam_bound if amalgam_bound is not None
                         else yb.size + yc.size - x.size)
                for f in diagrams._orbit_representatives(x, yb)[0]:
                    for g in diagrams._orbit_representatives(x, yc)[0]:
                        checked += 1
                        instance = ((bi, ci) if jep
                                    else (ai, bi, ci, f.map, g.map))
                        status = diagrams.amalgamate(
                            x, yb, yc, f, g, bound=bound,
                            predicate=klass.predicate).status
                        if status == diagrams.NONE_WITHIN_BOUND:
                            undecided.append(instance)
                        elif status != diagrams.FOUND:
                            return diagrams.ClassPropertyReport(
                                property_name, klass.name, max_size, False,
                                instance, tuple(undecided), checked)
    return diagrams.ClassPropertyReport(property_name, klass.name, max_size,
                                        True, None, tuple(undecided), checked)


@pytest.fixture(scope="session")
def metric_corpus():
    """Deterministic corpus of spanned-amalgamation instances (>= 100).

    Each entry is ``(m, mp, mpp, f, g, l)`` ready for the strong
    amalgamation: the shared space is a two-class fixture, each side adds
    points attached to chosen classes at chosen first-block distances.
    """
    from fractions import Fraction

    from ramsey_forge import metric

    sets = [
        (0, 1, 2, 5, 6),
        (0, 1, 3),
        (0, 1, 3, 7),
        (0, 2, 3, 7, 8),
        (0, 1, 2, 5, 6, 14),
    ]
    corpus = []
    for values in sets:
        s = metric.DistanceSet.make(values)
        assert metric.is_compact(s)[0]
        bp = metric.blocks(s)
        if len(bp.nontrivial) < 2:
            continue
        b1 = bp.nontrivial[0]
        cross_options = [v for blk in bp.nontrivial[1:] for v in blk]
        for cross in cross_options:
            base = metric.FinMetricSpace.make(s, [[0, cross], [cross, 0]])
            l = metric.FinMetricSpace.make(s, [[0, cross], [cross, 0]])

            def extended(attach_class: int, near: Fraction):
                far = cross
                row = [near if i == attach_class else far for i in range(2)]
                d = [
                    [Fraction(0), cross, row[0]],
                    [cross, Fraction(0), row[1]],
                    [row[0], row[1], Fraction(0)],
                ]
                return metric.FinMetricSpace.make(s, d)

            for cls_p, cls_pp in itertools.product((0, 1), repeat=2):
                for near_p, near_pp in itertools.product(b1, repeat=2):
                    corpus.append((base,
                                   extended(cls_p, near_p),
                                   extended(cls_pp, near_pp),
                                   (0, 1), (0, 1), l))
    assert len(corpus) >= 100
    return corpus


# ---------------------------------------------------------------------------
# the Fraction reference for the metric module's integer core: jumps,
# blocks, compactness, the 4-values condition and triple classification as
# plain definitions in Fraction arithmetic, on a sorted tuple of Fractions


def fraction_blocks(values):
    """Jump numbers (last, or less than half the successor) and the blocks
    they close, the first block being ``(0,)``."""
    last = len(values) - 1
    jumps = tuple(v for i, v in enumerate(values)
                  if i == last or 2 * v < values[i + 1])
    out = [(Fraction(0),)]
    prev = Fraction(0)
    for j in jumps[1:]:
        out.append(tuple(v for v in values if prev < v <= j))
        prev = j
    return jumps, tuple(out)


def _fraction_block_index(blocks, x):
    for i, blk in enumerate(blocks):
        if x in blk:
            return i
    raise ValueError(f"{x} is not a member of the distance set")


def fraction_is_compact(values):
    """``|x-y| <= s1`` iff same block, over all positive pairs; the first
    failing pair in ``combinations_with_replacement`` order."""
    _, blocks = fraction_blocks(values)
    s1 = values[1]
    for x, y in itertools.combinations_with_replacement(values[1:], 2):
        same = _fraction_block_index(blocks, x) == _fraction_block_index(blocks, y)
        if (abs(x - y) <= s1) != same:
            return False, (x, y)
    return True, None


def fraction_metric_triple(a, b, c):
    return a + b >= c and b + c >= a and c + a >= b


def fraction_check_4values(values):
    """Every (a, b, c, d) joined by some p is cross-joined by some q; the
    first failure in lexicographic order, with its least p."""
    pos = values[1:]
    m = len(pos)
    joined = [[0] * m for _ in range(m)]
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            for pi, p in enumerate(pos):
                if fraction_metric_triple(a, b, p):
                    joined[i][j] |= 1 << pi
    for i, j, k, l in itertools.product(range(m), repeat=4):
        premise = joined[i][j] & joined[k][l]
        if premise and not (joined[i][k] & joined[j][l]):
            p = pos[(premise & -premise).bit_length() - 1]
            return False, (pos[i], pos[j], pos[k], pos[l], p)
    return True, None


def fraction_classify_triple(values, a, b, c):
    """Block pattern of a triple of members of a compact set."""
    from ramsey_forge.metric import EQUILATERAL, ISOSCELES, NON_METRIC

    _, blocks = fraction_blocks(values)
    ia, ib, ic = (_fraction_block_index(blocks, x) for x in sorted((a, b, c)))
    if ia == ib == ic:
        return EQUILATERAL
    if ia < ib == ic:
        return ISOSCELES
    return NON_METRIC


@functools.cache
def recursive_rational_point(i):
    """The i-th rational of the Calkin-Wilf walk by its recursive
    definition; ask in increasing order to keep the recursion shallow."""
    if i == 0:
        return Fraction(1)
    q = recursive_rational_point(i - 1)
    return 1 / (2 * (q.numerator // q.denominator) - q + 1)


def seed_check_arrow(c: FinStructure, b: FinStructure, a: FinStructure,
                     k: int, t: int, budget: int = DEFAULT_BUDGET) -> ArrowVerdict:
    """The recursive search of ``arrows.check_arrow`` as first written.

    Kept verbatim below the docstring: ``check_arrow`` must return an equal
    ``ArrowVerdict`` (verdict, witness and node count) on every instance.
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

    membership: list[list[int]] = [[] for _ in range(n)]
    for gi, g in enumerate(groups):
        for e in g:
            membership[e].append(gi)
    order = sorted(range(n), key=lambda e: (-len(membership[e]), e))

    unassigned = [len(g) for g in groups]
    distinct = [0] * len(groups)
    color_mask = [0] * len(groups)
    colors = [-1] * n
    nodes = 0
    found: tuple[int, ...] | None = None

    def search(pos: int, max_used: int) -> bool | None:
        """True: bad coloring found; False: subtree exhausted; None: budget."""
        nonlocal nodes, found
        if pos == n:
            found = tuple(colors)
            return True
        e = order[pos]
        limit = min(max_used + 1, k - 1)
        for col in range(limit + 1):
            nodes += 1
            if nodes > budget:
                return None
            bit = 1 << col
            touched: list[tuple[int, bool]] = []
            dead = False
            for gi in membership[e]:
                unassigned[gi] -= 1
                fresh = not (color_mask[gi] & bit)
                if fresh:
                    color_mask[gi] |= bit
                    distinct[gi] += 1
                touched.append((gi, fresh))
                d = distinct[gi]
                if d + min(unassigned[gi], k - d) <= t:
                    dead = True
            result: bool | None = False
            if not dead:
                colors[e] = col
                result = search(pos + 1, max(max_used, col))
                colors[e] = -1
            for gi, fresh in touched:
                unassigned[gi] += 1
                if fresh:
                    color_mask[gi] &= ~bit
                    distinct[gi] -= 1
            if result is not False:
                return result
        return False

    result = search(0, -1)
    if result is None:
        return ArrowVerdict(holds=None, nodes=nodes)
    if result:
        assert found is not None
        return ArrowVerdict(holds=False, witness=Coloring(hom_ac, k, found),
                            nodes=nodes)
    return ArrowVerdict(holds=True, nodes=nodes)


def seed_exhaustive_min_degree(c: FinStructure, b: FinStructure,
                               a: FinStructure, k: int) -> int | float:
    """The numpy oracle ``arrows.exhaustive_min_degree`` as first written.

    Kept verbatim below the numpy import, with its two constants made
    local: ``exhaustive_min_degree`` must return the same value on every
    instance.  Tests that call it are skipped where numpy is missing.
    """
    np = pytest.importorskip("numpy")
    _ORACLE_CHUNK = 1 << 18
    _ORACLE_ROWS = 1 << 63
    hom_ac, hom_bc, groups = _arrow_instance(c, b, a)
    n = len(hom_ac)
    if not hom_bc:
        return inf
    if n == 0 or any(len(g) == 0 for g in groups):
        return 0
    bound = min(min(k, len(g)) for g in groups)
    total = k ** n
    if total > _ORACLE_ROWS:
        raise ValueError(f"{k}**{n} colorings exceed the 2**63 rows the "
                         "oracle can number")
    powers = np.array([k ** i for i in range(n - 1, -1, -1)], dtype=np.int64)
    worst = 0
    for start in range(0, total, _ORACLE_CHUNK):
        stop = min(start + _ORACLE_CHUNK, total)
        rows = np.arange(start, stop, dtype=np.int64)
        digits = ((rows[:, None] // powers[None, :]) % k).astype(np.int8)
        mins: np.ndarray | None = None
        for g in groups:
            cols = digits[:, list(g)]
            cnt = np.zeros(len(rows), dtype=np.int16)
            for col in range(k):
                cnt += (cols == col).any(axis=1)
            mins = cnt if mins is None else np.minimum(mins, cnt)
        assert mins is not None
        worst = max(worst, int(mins.max()))
        if worst >= bound:
            break
    return worst


def _degree_profiles(s: FinStructure) -> list[dict[tuple[int, int], int]]:
    """Per vertex: counts of incident relation tuples by (relation, position)."""
    profiles: list[dict[tuple[int, int], int]] = [dict() for _ in s.domain]
    for ri, tuples in enumerate(s.relations):
        for t in tuples:
            for pos, v in enumerate(t):
                key = (ri, pos)
                profiles[v][key] = profiles[v].get(key, 0) + 1
    return profiles


def seed_embedding_search(a: FinStructure, b: FinStructure
                          ) -> Iterator[tuple[int, ...]]:
    """The backtracking search of ``structures._embedding_search`` as first
    written.

    Kept verbatim below the docstring, with its helper ``_degree_profiles``:
    ``enumerate_embeddings`` and ``first_embedding`` must give the same maps
    in the same order.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("enumerate_embeddings: signatures differ")
    n = a.size
    if n > b.size:
        return
    if n == 0:
        yield ()
        return

    prof_a = _degree_profiles(a)
    prof_b = _degree_profiles(b)
    candidates: list[list[int]] = []
    for v in a.domain:
        need = prof_a[v]
        cands = [w for w in b.domain
                 if all(prof_b[w].get(k, 0) >= c for k, c in need.items())]
        if not cands:
            return
        candidates.append(cands)

    # tuples of a touching vertex v whose other entries are all already
    # assigned once v is placed (vertices assigned in increasing order)
    a_constraints: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in a.domain]
    for ri, tuples in enumerate(a.relations):
        for t in tuples:
            a_constraints[max(t)].append((ri, t))

    b_rels = b.relations
    a_rels = a.relations
    assignment: list[int] = [-1] * n
    used = [False] * b.size
    b_tuples_by_vertex: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in b.domain]
    for ri, tuples in enumerate(b_rels):
        for t in tuples:
            for w in set(t):
                b_tuples_by_vertex[w].append((ri, t))

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for ri, t in a_constraints[v]:
                if tuple(assignment[x] if x != v else w for x in t) not in b_rels[ri]:
                    ok = False
                    break
            if ok:
                # reflection on tuples of b that fall inside the partial image
                inv = {assignment[u]: u for u in range(v)}
                inv[w] = v
                for ri, t in b_tuples_by_vertex[w]:
                    if all(x in inv for x in t):
                        if tuple(inv[x] for x in t) not in a_rels[ri]:
                            ok = False
                            break
            if not ok:
                continue
            assignment[v] = w
            used[w] = True
            if v + 1 == n:
                yield tuple(assignment)
            else:
                yield from extend(v + 1)
            used[w] = False
            assignment[v] = -1

    yield from extend(0)


def _slot_options(tag: str, x: int, y: int) -> list[tuple[tuple[int, ...], ...]]:
    """Candidate tuple sets for one open binary slot, sparsest first."""
    if tag == TAG_SYMMETRIC:
        return [(), ((x, y), (y, x))]
    if tag == TAG_LINEAR:
        return [((x, y),), ((y, x),)]
    if tag == TAG_ORIENTED:
        return [(), ((x, y),), ((y, x),)]
    return [(), ((x, y),), ((y, x),), ((x, y), (y, x))]


def _tournament_options(tag: str, x: int, y: int) -> list[tuple[tuple[int, ...], ...]]:
    """A tournament has an arc on every pair."""
    return _slot_options(tag, x, y)[1:]


def _order_options(tag: str, x: int, y: int) -> list[tuple[tuple[int, ...], ...]]:
    """A strict order has no two-way pair: a ``none``-tagged relation, the
    order of posets and lops, drops it; other tags keep their options."""
    options = _slot_options(tag, x, y)
    return options[:-1] if tag == TAG_NONE else options


# the options linearly ordered posets were once completed with, as a seed
# callback: omega is the natural order and po may only agree with it
LOPS_OPTIONS = (lambda tag, x, y: [((x, y),)] if tag == TAG_LINEAR
                else [(), ((x, y),)])


def seed_options(name: str) -> Callable[[str, int, int], list]:
    """The option callback first written for the built-in class ``name``
    (the default one for any other name)."""
    return {"tournaments": _tournament_options, "posets": _order_options,
            "linearly-ordered-posets": _order_options}.get(name, _slot_options)


def expand_options(table, tag: str, x: int, y: int) -> list[tuple[tuple[int, ...], ...]]:
    """The tuple sets a library options table gives the slot ``x < y`` of
    a ``tag`` relation, in order."""
    sets = {NONE: (), FORWARD: ((x, y),), BACKWARD: ((y, x),),
            BOTH: ((x, y), (y, x))}
    return [sets[shape] for shape in table[tag]]


def seed_complete_structures(signature: Signature, size: int,
                             base: list[set[tuple[int, ...]]], covers: list[int],
                             predicate: Callable[[FinStructure], bool] | None,
                             options: Callable[[str, int, int], list] = _slot_options
                             ) -> Iterator[FinStructure]:
    """``catalog._complete_structures`` as first written: the reference for
    the rewritten completer, which must yield the same candidates in the
    same order.  Kept verbatim below this paragraph.

    All valid structures extending the fixed tuples ``base``.

    ``covers`` holds, per point, a bitmask of the parts (the tops of a
    pushout) whose image contains it; a tuple is open when no part covers
    all of its points (the AND of their masks is 0).  Each open binary
    slot ``x < y`` takes one of ``options(tag, x, y)``, and the slots are
    enumerated as one product, relation by relation and pair by pair, with
    each slot's first option first.

    Candidates are built without validation: the caller guarantees that
    the tuples of ``base`` on the points of one part are a valid structure
    and that they agree wherever two parts meet, and every option is valid
    for its tag on its own, so each pair of points carries valid tuples.
    Transitivity is the one condition on three points.  So when the
    signature has a linear order, each candidate is validated, and an
    intransitive one is skipped.
    """
    slot_axes: list[tuple[int, list[tuple[tuple[int, ...], ...]]]] = []
    for ri, spec in enumerate(signature.relations):
        if spec.arity == 2:
            for x in range(size):
                for y in range(x + 1, size):
                    if not covers[x] & covers[y]:
                        slot_axes.append((ri, options(spec.tag, x, y)))
        else:
            for t in itertools.product(range(size), repeat=spec.arity):
                mask = -1
                for p in t:
                    mask &= covers[p]
                if not mask:
                    slot_axes.append((ri, [(), (t,)]))
    trusted = all(spec.tag != TAG_LINEAR for spec in signature.relations)

    for choice in itertools.product(*(opts for _, opts in slot_axes)):
        rels = [set(b) for b in base]
        for (ri, _), picked in zip(slot_axes, choice):
            rels[ri].update(picked)
        relations = tuple(frozenset(r) for r in rels)
        if trusted:
            candidate = FinStructure(signature, size, relations, _checked=True)
        else:
            try:
                candidate = FinStructure(signature, size, relations)
            except StructureError:
                continue
        if predicate is not None and not predicate(candidate):
            continue
        yield candidate



def _seed_least_members(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """``diagrams._least_members`` as first written, kept verbatim below
    this paragraph.

    Per point of ``range(n)``, the least member of its class under the
    equivalence the pairs generate (union-find with path halving)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]



def seed_forced_quotient(tops: Sequence[FinStructure],
                         glue: Sequence[tuple[int, Sequence[int], int, Sequence[int]]],
                         bound: int | None,
                         predicate: Callable[[FinStructure], bool] | None,
                         options: Callable[[str, int, int], list] = _slot_options
                         ) -> str | Iterator[tuple[FinStructure, tuple[Embedding, ...]]]:
    """``diagrams._forced_quotient`` as first written, with its numbering
    ``_seed_least_members``: the reference for the rewritten engine.

    Kept verbatim below this paragraph, except that it completes with
    ``seed_complete_structures``: ``_forced_quotient`` must return the same
    status, or the same completions and legs in the same order.

    Completions of the quotient of the disjoint union of ``tops`` by the
    glue, each with one certified leg per top, in the completer's order.

    A glue entry ``(i, u, j, v)`` says that point ``u[x]`` of top ``i`` is
    point ``v[x]`` of top ``j``; tip points are numbered in order of first
    appearance, top by top.  Checked in this order, the result is
    :data:`IMPOSSIBLE` when two points of one top merge,
    :data:`NONE_WITHIN_BOUND` when the quotient has more than ``bound``
    points, and :data:`IMPOSSIBLE` when a tuple of one top lands in another
    top's image where that top says it is absent.  A tuple inside one top's
    image is determined by that top; ``covers[p]`` is the bitmask of the
    tops whose image contains tip point ``p``.  Open slots take
    ``options(tag, x, y)``.

    The legs are certified in two steps instead of one embedding test per
    leg.  Once per quotient: the forced tuples agree with every top on its
    image; only a tuple whose points are all glued can lie in two tops'
    images, so only those are looked up.  Once per completion: the tip
    keeps every forced tuple and adds none inside one top's image.  Each
    leg is injective, so it then preserves and reflects every relation,
    and a completion that fails raises :class:`StructureError`.
    """
    offsets = list(itertools.accumulate((s.size for s in tops), initial=0))
    roots = _seed_least_members(offsets[-1], ((offsets[i] + p, offsets[j] + q)
                                              for i, u, j, v in glue
                                              for p, q in zip(u, v)))
    number: dict[int, int] = {}
    legs = []
    for ti, s in enumerate(tops):
        leg = tuple(number.setdefault(roots[offsets[ti] + v], len(number))
                    for v in range(s.size))
        if len(set(leg)) != s.size:
            return IMPOSSIBLE
        legs.append(leg)
    size = len(number)
    if bound is not None and size > bound:
        return NONE_WITHIN_BOUND
    covers = [0] * size
    for ti, leg in enumerate(legs):
        for p in leg:
            covers[p] |= 1 << ti
    inverses = [{p: v for v, p in enumerate(leg)} for leg in legs]
    base: list[set[tuple[int, ...]]] = []
    for ri in range(len(tops[0].relations)):
        forced = {tuple(leg[v] for v in t)
                  for s, leg in zip(tops, legs) for t in s.relations[ri]}
        for image in forced:
            inside = -1
            for p in image:
                inside &= covers[p]
            if inside & (inside - 1):
                for tj, inv in enumerate(inverses):
                    if (inside >> tj & 1 and tuple(inv[p] for p in image)
                            not in tops[tj].relations[ri]):
                        return IMPOSSIBLE
        base.append(forced)
    # the legs commute on the glue, and the points in two tops' images are
    # the glued ones, so every amalgam found is a strong one
    assert all(legs[i][p] == legs[j][q]
               for i, u, j, v in glue for p, q in zip(u, v))
    assert ({p for p, m in enumerate(covers) if m & (m - 1)}
            == {legs[i][p] for i, u, j, _ in glue if i != j for p in u})
    signature = tops[0].signature

    def certified() -> Iterator[tuple[FinStructure, tuple[Embedding, ...]]]:
        for tip in seed_complete_structures(signature, size, base, covers,
                                            predicate, options):
            if tip.signature != signature or tip.size != size:
                raise StructureError(f"completion {tip!r} is not on the quotient")
            for forced, tuples in zip(base, tip.relations):
                if not forced <= tuples:
                    raise StructureError(f"completion {tip!r} drops a forced tuple")
                for t in tuples - forced:
                    inside = -1
                    for p in t:
                        inside &= covers[p]
                    if inside:
                        raise StructureError(
                            f"completion {tip!r} adds {t} inside a top's image")
            yield tip, tuple([Embedding(s, tip, m, _checked=True)
                              for s, m in zip(tops, legs)])

    return certified()

