"""Builders for common finite structures and enumerable structure classes.

A :class:`StructClass` packages a signature, a membership predicate, an
iso-class generator and the shapes its members' open slots can take; the
amalgamation-property checkers and universality audits quantify over these.

This module also holds the one relation completer, which fills every open
slot of a partly fixed structure with each of its options in turn.  Class
members are the completions of the empty structure on n points, one per
isomorphism class, and :mod:`diagrams` completes amalgams and cocone tips
with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .structures import (
    TAG_LINEAR,
    TAG_NONE,
    TAG_ORIENTED,
    TAG_SYMMETRIC,
    FinStructure,
    Signature,
    StructureError,
    canonical_key,
)

CHAIN_SIG = Signature.make(("lt", 2, TAG_LINEAR))
GRAPH_SIG = Signature.make(("E", 2, TAG_SYMMETRIC))
ORIENTED_SIG = Signature.make(("arc", 2, TAG_ORIENTED))
PERM_SIG = Signature.make(("lt", 2, TAG_LINEAR), ("omega", 2, TAG_LINEAR))
LOPOSET_SIG = Signature.make(("po", 2, TAG_NONE), ("omega", 2, TAG_LINEAR))
POSET_SIG = Signature.make(("po", 2, TAG_NONE))


def chain(n: int) -> FinStructure:
    """The n-element chain 0 < 1 < ... < n-1."""
    return FinStructure.build(CHAIN_SIG, n, {"lt": linear_order_pairs(range(n))})


def graph(n: int, edges: Iterable[tuple[int, int]]) -> FinStructure:
    sym = set()
    for x, y in edges:
        sym.add((x, y))
        sym.add((y, x))
    return FinStructure.build(GRAPH_SIG, n, {"E": sym})


def empty_graph(n: int) -> FinStructure:
    return graph(n, [])


def complete_graph(n: int) -> FinStructure:
    return graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> FinStructure:
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> FinStructure:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def oriented_graph(n: int, arcs: Iterable[tuple[int, int]]) -> FinStructure:
    return FinStructure.build(ORIENTED_SIG, n, {"arc": list(arcs)})


def linear_order_pairs(order: Sequence[int]) -> list[tuple[int, int]]:
    """Strict-order pairs of the listing ``order[0] < order[1] < ...``."""
    return [(order[i], order[j])
            for i in range(len(order)) for j in range(i + 1, len(order))]


def permutation_structure(second: Sequence[int]) -> FinStructure:
    """Two linear orders on ``{0..n-1}``: ``lt`` is the natural order and
    ``omega`` lists the points in the order given by ``second``."""
    n = len(second)
    if sorted(second) != list(range(n)):
        raise StructureError("permutation_structure: not a permutation of 0..n-1")
    return FinStructure.build(PERM_SIG, n, {
        "lt": linear_order_pairs(range(n)),
        "omega": linear_order_pairs(second),
    })


def linearly_ordered_poset(n: int, strict: Iterable[tuple[int, int]]
                           ) -> FinStructure:
    """A strict partial order ``po`` on ``{0..n-1}`` together with the
    natural order ``omega``, which must extend it."""
    s = FinStructure.build(LOPOSET_SIG, n, {
        "po": list(strict),
        "omega": linear_order_pairs(range(n)),
    })
    if not is_linearly_ordered_poset(s):
        raise StructureError("not a linearly ordered poset")
    return s


# The three-element obstruction to being permutational: 0 and 2 comparable,
# the middle point incomparable with both, all three linearly ordered.
I_STAR = FinStructure.build(LOPOSET_SIG, 3, {
    "po": [(0, 2)],
    "omega": linear_order_pairs(range(3)),
})


# ---------------------------------------------------------------------------
# class predicates


def always(_: FinStructure) -> bool:
    return True


def is_triangle_free(s: FinStructure) -> bool:
    e = s.rel("E")
    for x, y in e:
        if x < y:
            for z in range(s.size):
                if (x, z) in e and (y, z) in e:
                    return False
    return True


def is_tournament(s: FinStructure) -> bool:
    arc = s.rel("arc")
    return all((x, y) in arc or (y, x) in arc
               for x in range(s.size) for y in range(x + 1, s.size))


def is_strict_partial_order(pairs: frozenset, n: int) -> bool:
    for x, y in pairs:
        if x == y or (y, x) in pairs:
            return False
        for z in range(n):
            if (y, z) in pairs and (x, z) not in pairs:
                return False
    return True


def is_poset(s: FinStructure) -> bool:
    return is_strict_partial_order(s.rel("po"), s.size)


def is_acyclic(s: FinStructure) -> bool:
    """No directed cycle: peeling off points of in-degree 0 (Kahn's
    algorithm) reaches every point."""
    below = [0] * s.size
    above: list[list[int]] = [[] for _ in s.domain]
    for x, y in s.rel("arc"):
        above[x].append(y)
        below[y] += 1
    peeled = [v for v in s.domain if not below[v]]
    for v in peeled:  # grows while it is read
        for y in above[v]:
            below[y] -= 1
            if not below[y]:
                peeled.append(y)
    return len(peeled) == s.size


def is_linearly_ordered_poset(s: FinStructure) -> bool:
    if not is_poset(s):
        return False
    omega = s.rel("omega")
    return all(p in omega for p in s.rel("po"))


# ---------------------------------------------------------------------------
# relation completion: class members, amalgams and cocone tips


# the shapes of an open slot x < y: no tuple, (x, y), (y, x) or both
NONE, FORWARD, BACKWARD, BOTH = range(4)
# per binary tag, the shapes its open slots try, sparsest first
DEFAULT_OPTIONS: Mapping[str, tuple[int, ...]] = MappingProxyType({
    TAG_SYMMETRIC: (NONE, BOTH),
    TAG_LINEAR: (FORWARD, BACKWARD),
    TAG_ORIENTED: (NONE, FORWARD, BACKWARD),
    TAG_NONE: (NONE, FORWARD, BACKWARD, BOTH),
})
# a tournament has an arc on every pair
TOURNAMENT_OPTIONS = MappingProxyType({**DEFAULT_OPTIONS,
                                       TAG_ORIENTED: (FORWARD, BACKWARD)})
# a strict order (the ``none`` tag of posets and lops) has no two-way pair
ORDER_OPTIONS = MappingProxyType({**DEFAULT_OPTIONS,
                                  TAG_NONE: (NONE, FORWARD, BACKWARD)})
# lops members (see ``_gen``); not closed under the swap, so not a class's
_LOPS_MEMBER_OPTIONS = MappingProxyType({TAG_LINEAR: (FORWARD,),
                                         TAG_NONE: (NONE, FORWARD)})


def _complete_structures(signature: Signature, size: int,
                         base: list[set[tuple[int, ...]]], covers: list[int],
                         predicate: Callable[[FinStructure], bool] | None,
                         options: Mapping[str, tuple[int, ...]]
                         ) -> Iterator[FinStructure]:
    """All valid structures extending the fixed tuples ``base``.

    ``covers`` holds, per point, a bitmask of the parts (the tops of a
    pushout) whose image contains it; a tuple is open when no part covers
    all of its points (the AND of their masks is 0).  The open pairs and
    their tuple sets are found once and shared by every binary relation:
    each open binary slot takes the tuple sets of the shapes
    ``options[tag]``, and the slots are enumerated as one product, relation
    by relation and pair by pair, with each slot's first shape first.  Each
    candidate relation is one union of its fixed tuples with the tuple sets
    picked for its slots.

    Candidates are built without validation: the caller guarantees that
    the tuples of ``base`` on the points of one part are a valid structure
    and that they agree wherever two parts meet, and every shape is valid
    for its tag on its own, so each pair of points carries valid tuples.
    Transitivity is the one condition on three points.  So when the
    signature has a linear order, each candidate is validated, and an
    intransitive one is skipped.
    """
    pair_sets = [((), (xy,), (yx,), (xy, yx))
                 for x in range(size) for y in range(x + 1, size)
                 if not covers[x] & covers[y] for xy, yx in [((x, y), (y, x))]]
    slot_axes: list[Sequence[tuple[tuple[int, ...], ...]]] = []
    # per relation, its fixed tuples and its run of slot_axes
    frozen_base: list[tuple[frozenset[tuple[int, ...]], slice]] = []
    for spec, fixed in zip(signature.relations, base, strict=True):
        start = len(slot_axes)
        if spec.arity == 2:
            # each open pair's tuple sets of the tag's shapes, in order; an
            # itemgetter of one index returns the item, not a 1-tuple
            shapes = options[spec.tag]
            slot_axes += (map(itemgetter(*shapes), pair_sets) if len(shapes) > 1
                          else [(sets[shapes[0]],) for sets in pair_sets])
        else:
            for t in itertools.product(range(size), repeat=spec.arity):
                mask = -1
                for p in t:
                    mask &= covers[p]
                if not mask:
                    slot_axes.append([(), (t,)])
        frozen_base.append((frozenset(fixed), slice(start, len(slot_axes))))
    trusted = all(spec.tag != TAG_LINEAR for spec in signature.relations)

    for choice in itertools.product(*slot_axes):
        relations = tuple([b.union(*choice[run]) for b, run in frozen_base])
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


def _completions(signature: Signature, n: int,
                 predicate: Callable[[FinStructure], bool] | None,
                 options: Mapping[str, tuple[int, ...]]
                 ) -> tuple[FinStructure, ...]:
    """Iso-class representatives among the completions of the empty
    structure on ``n`` points: the first completion of each class."""
    out: dict = {}
    for s in _complete_structures(signature, n,
                                  [set() for _ in signature.relations],
                                  [0] * n, predicate, options):
        out.setdefault(canonical_key(s), s)
    return tuple(out.values())


@dataclass(frozen=True)
class StructClass:
    """An enumerable class of finite structures closed under isomorphism."""

    name: str
    signature: Signature
    predicate: Callable[[FinStructure], bool]
    _generate: Callable[[int], tuple[FinStructure, ...]]
    options: Mapping[str, tuple[int, ...]] = field(
        default_factory=partial(MappingProxyType, DEFAULT_OPTIONS))

    def __post_init__(self) -> None:
        # the class-property checks skip mirrored spans, which swap x and y
        if any((FORWARD in s) != (BACKWARD in s) for s in self.options.values()):
            raise ValueError(f"{self.name}: options not closed under the swap")

    def members(self, n: int) -> tuple[FinStructure, ...]:
        """Iso-class representatives with exactly ``n`` elements."""
        return self._generate(n)

    def members_up_to(self, m: int) -> tuple[FinStructure, ...]:
        out: list[FinStructure] = []
        for n in range(1, m + 1):
            out.extend(self.members(n))
        return tuple(out)

    def __contains__(self, s: FinStructure) -> bool:
        return s.signature == self.signature and self.predicate(s)


@lru_cache(maxsize=None)
def _gen(name: str, n: int) -> tuple[FinStructure, ...]:
    klass = CLASSES[name]
    if name == "chains":
        return (chain(n),)
    if name in ("graphs", "oriented-graphs", "tournaments"):
        # the tournaments' table drops NONE, so their members, in order, are
        # the oriented members that are tournaments
        return _completions(klass.signature, n, None, klass.options)
    if name == "triangle-free":
        return tuple(s for s in _gen("graphs", n) if is_triangle_free(s))
    if name == "dags":
        return tuple(s for s in _gen("oriented-graphs", n) if is_acyclic(s))
    if name == "posets":
        return _completions(klass.signature, n, is_poset, klass.options)
    if name == "permutations":
        return tuple(permutation_structure(p)
                     for p in itertools.permutations(range(n)))
    if name == "linearly-ordered-posets":
        # omega is the natural order and po may only agree with it; a
        # linear order makes every structure rigid, so these naturally
        # labelled completions are already one per iso class
        return _completions(LOPOSET_SIG, n, is_linearly_ordered_poset,
                            _LOPS_MEMBER_OPTIONS)
    raise KeyError(name)


CLASSES: dict[str, StructClass] = {
    "chains": StructClass("chains", CHAIN_SIG, always, partial(_gen, "chains")),
    "graphs": StructClass("graphs", GRAPH_SIG, always, partial(_gen, "graphs")),
    "triangle-free": StructClass("triangle-free", GRAPH_SIG, is_triangle_free,
                                 partial(_gen, "triangle-free")),
    "oriented-graphs": StructClass("oriented-graphs", ORIENTED_SIG, always,
                                   partial(_gen, "oriented-graphs")),
    "tournaments": StructClass("tournaments", ORIENTED_SIG, is_tournament,
                               partial(_gen, "tournaments"), TOURNAMENT_OPTIONS),
    "dags": StructClass("dags", ORIENTED_SIG, is_acyclic, partial(_gen, "dags")),
    "posets": StructClass("posets", POSET_SIG, is_poset, partial(_gen, "posets"),
                          ORDER_OPTIONS),
    "permutations": StructClass("permutations", PERM_SIG, always,
                                partial(_gen, "permutations")),
    "linearly-ordered-posets": StructClass(
        "linearly-ordered-posets", LOPOSET_SIG, is_linearly_ordered_poset,
        partial(_gen, "linearly-ordered-posets"), ORDER_OPTIONS),
}
