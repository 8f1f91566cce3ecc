"""Builders for common finite structures and enumerable structure classes.

A :class:`StructClass` packages a signature, a membership predicate and
its open slots' shapes, checked against the tag table of :mod:`structures`;
its members follow from these unless it lists them in closed form.  The
amalgamation-property checkers and universality audits quantify over them.

This module also holds the tests of linearly ordered posets and the one
relation completer, which fills every open slot of a partly fixed structure
with each of its options in turn.  A class's members are the completions of
the empty structure on n points that its predicate accepts, one per
isomorphism class, and :mod:`diagrams` completes amalgams and cocone tips
with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .structures import (
    BACKWARD,
    FORWARD,
    NONE,
    TAG_LINEAR,
    TAG_NONE,
    TAG_ORIENTED,
    TAG_SHAPES,
    TAG_SYMMETRIC,
    FinStructure,
    Signature,
    StructureError,
    canonical_key,
    first_embedding,
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
# linearly ordered posets: the three-point obstruction and permutationality


# The three-element obstruction to being permutational: 0 and 2 comparable,
# the middle point incomparable with both, all three linearly ordered.
I_STAR = FinStructure.build(LOPOSET_SIG, 3, {
    "po": [(0, 2)],
    "omega": linear_order_pairs(range(3)),
})


def _validate_lo_poset(p: FinStructure) -> None:
    if not is_linearly_ordered_poset(p):
        raise StructureError("not a linearly ordered poset "
                             "(po must be a strict partial order extended by omega)")


def embeds_I_star(p: FinStructure) -> bool:
    """Does the three-element obstruction embed into ``p``?"""
    _validate_lo_poset(p)
    return first_embedding(I_STAR, p) is not None


def is_permutational(p: FinStructure) -> tuple[int, ...] | None:
    """A second linear order whose meet with omega is the partial order.

    Returns the witness as a listing of the domain (least first), or None.
    The second order is forced: for x <_omega y it must hold (x, y) when
    x <_po y and (y, x) otherwise.  That tournament is built in O(n^2) and
    is a linear order exactly when it is transitive, that is, when the
    numbers of points it puts below each point are 0, 1, ..., n-1.  A
    witness exists exactly when the three-point obstruction does not embed;
    the checkers are kept independent so that equivalence is testable.
    """
    _validate_lo_poset(p)
    po = p.rel("po")
    below = [0] * p.size
    for x, y in p.rel("omega"):
        below[y if (x, y) in po else x] += 1
    listing = tuple(sorted(p.domain, key=below.__getitem__))
    if [below[v] for v in listing] != list(p.domain):
        return None
    return listing


# ---------------------------------------------------------------------------
# relation completion: class members, amalgams and cocone tips


# a tournament has an arc on every pair
TOURNAMENT_OPTIONS = MappingProxyType({**TAG_SHAPES,
                                       TAG_ORIENTED: (FORWARD, BACKWARD)})
# a strict order (the ``none`` tag of posets and lops) has no two-way pair
ORDER_OPTIONS = MappingProxyType({**TAG_SHAPES,
                                  TAG_NONE: (NONE, FORWARD, BACKWARD)})


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

    The product's first candidate puts every slot at its first shape.  When
    that is :data:`~structures.NONE` for every binary tag (unary and
    ternary slots start absent), it is the fixed tuples alone, the bare
    pushout: it is built and tried before the slots are listed, and the
    product then runs from its second candidate.  The sequence is the same,
    but a caller that stops at its first tip, as every caller does, lists
    no slot when the bare candidate is accepted.

    Candidates are built without validation: the caller guarantees that
    the tuples of ``base`` on the points of one part are a valid structure
    and that they agree wherever two parts meet; ``options`` is the tag
    table or a class's, checked against it, so each pair of points carries
    tuples validation accepts.  Transitivity is the one condition on three
    points.  So when the signature has a linear order, each candidate is
    validated, and an intransitive one is skipped.  A linear order's shapes
    hold no ``NONE``, so a bare candidate is never validated.
    """
    fixed = [frozenset(tuples) for tuples in base]
    bare = all(options[spec.tag][0] == NONE
               for spec in signature.relations if spec.arity == 2)
    if bare:
        candidate = FinStructure(signature, size, tuple(fixed), _checked=True)
        if predicate is None or predicate(candidate):
            yield candidate
    pair_sets = [((), (xy,), (yx,), (xy, yx))
                 for x in range(size) for y in range(x + 1, size)
                 if not covers[x] & covers[y] for xy, yx in [((x, y), (y, x))]]
    slot_axes: list[Sequence[tuple[tuple[int, ...], ...]]] = []
    # per relation, its fixed tuples and its run of slot_axes
    frozen_base: list[tuple[frozenset[tuple[int, ...]], slice]] = []
    for spec, tuples in zip(signature.relations, fixed, strict=True):
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
        frozen_base.append((tuples, slice(start, len(slot_axes))))
    trusted = all(spec.tag != TAG_LINEAR for spec in signature.relations)

    for choice in itertools.islice(itertools.product(*slot_axes), bare, None):
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


@dataclass(frozen=True)
class StructClass:
    """An enumerable class of finite structures closed under isomorphism.

    Without a generator, ``members(n)`` is the first completion on ``n``
    points of each iso class, under ``options``, that the predicate accepts:
    the completer applies the predicate, so only accepted completions are
    keyed, and each instance keeps its members per size.  The predicate must
    be isomorphism-invariant, as the class-property checks assume, so that
    is the class's first completion.

    ``options`` holds per binary tag some shapes of the tag's row, checked
    here.  Slots are pairs x < y, so no generated member carries a loop.
    The predicate must reject every structure with a pair shape the
    options drop, so that completing under ``options`` or under the tag
    table yields the same accepted structures in the same order: members
    are listed from the options but decided by the predicate, and
    :func:`~diagrams.amalgamate` completes with the options of the class
    whose predicate it is given.
    """

    name: str
    signature: Signature
    predicate: Callable[[FinStructure], bool]
    _generate: Callable[[int], tuple[FinStructure, ...]] | None = None
    options: Mapping[str, tuple[int, ...]] = field(
        default_factory=lambda: TAG_SHAPES)
    _members: dict[int, tuple[FinStructure, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for spec in self.signature.relations:
            if spec.arity == 2 and spec.tag not in self.options:
                raise ValueError(f"{self.name}: no options for tag {spec.tag!r}")
        if any(not set(shapes) <= set(TAG_SHAPES.get(tag, ()))
               for tag, shapes in self.options.items()):
            raise ValueError(f"{self.name}: options not valid for their tag")
        # the class-property checks skip mirrored and twisted spans, whose
        # pushouts are relabelled ones; a relabelling may swap x and y
        if any((FORWARD in s) != (BACKWARD in s) for s in self.options.values()):
            raise ValueError(f"{self.name}: options not closed under the swap")

    def members(self, n: int) -> tuple[FinStructure, ...]:
        """Iso-class representatives with exactly ``n`` elements."""
        if self._generate is not None:
            return self._generate(n)
        if n not in self._members:
            first: dict = {}
            for s in _complete_structures(self.signature, n,
                                          [set() for _ in self.signature.relations],
                                          [0] * n, self.predicate, self.options):
                first.setdefault(canonical_key(s), s)
            self._members[n] = tuple(first.values())
        return self._members[n]

    def members_up_to(self, m: int) -> tuple[FinStructure, ...]:
        out: list[FinStructure] = []
        for n in range(1, m + 1):
            out.extend(self.members(n))
        return tuple(out)

    def __contains__(self, s: FinStructure) -> bool:
        return s.signature == self.signature and self.predicate(s)


def _lops(n: int) -> tuple[FinStructure, ...]:
    """The strict orders extended by omega, the natural order, which makes
    each one rigid: its pairs x < y picked in product order, absent first."""
    pairs = linear_order_pairs(range(n))
    orders = ([p for p, pick in zip(pairs, picks) if pick]
              for picks in itertools.product((False, True), repeat=len(pairs)))
    return tuple(linearly_ordered_poset(n, po) for po in orders
                 if is_strict_partial_order(frozenset(po), n))


CLASSES: dict[str, StructClass] = {
    "chains": StructClass("chains", CHAIN_SIG, always, lambda n: (chain(n),)),
    "graphs": StructClass("graphs", GRAPH_SIG, always),
    "triangle-free": StructClass("triangle-free", GRAPH_SIG, is_triangle_free),
    "oriented-graphs": StructClass("oriented-graphs", ORIENTED_SIG, always),
    "tournaments": StructClass("tournaments", ORIENTED_SIG, is_tournament,
                               options=TOURNAMENT_OPTIONS),
    "dags": StructClass("dags", ORIENTED_SIG, is_acyclic),
    "posets": StructClass("posets", POSET_SIG, is_poset, options=ORDER_OPTIONS),
    "permutations": StructClass("permutations", PERM_SIG, always, lambda n: tuple(
        map(permutation_structure, itertools.permutations(range(n))))),
    "linearly-ordered-posets": StructClass(
        "linearly-ordered-posets", LOPOSET_SIG, is_linearly_ordered_poset, _lops,
        ORDER_OPTIONS),
}
