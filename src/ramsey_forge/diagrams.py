"""Binary digraphs, commuting cocones, amalgamation, and class checkers.

A binary digraph is a two-row shape: every bottom vertex sends exactly two
arrows up.  Decorating the rows with structures and the arrows with
embeddings gives a diagram; a commuting cocone is a tip structure with one
leg per top vertex making every bottom span agree.

Cocone tips are generated as the quotient of the disjoint union of the top
objects by the identifications the bottom spans force, then completed by
the relation completer of :mod:`catalog`, which enumerates relation choices
on undetermined tuples.  An amalgam of ``B <-f- A -g-> C`` is the same
construction over a one-span diagram, and joint embedding is amalgamation
over the empty structure, so one pushout routine serves :func:`find_cocone`
and :func:`amalgamate`.  Only forced quotients are tried: merging points
beyond what the spans force is never attempted, so a search that finds
nothing does not prove that no cocone or amalgam exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .catalog import (
    I_STAR,
    StructClass,
    _complete_structures,
    is_linearly_ordered_poset,
)
from .structures import (
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatchError,
    StructureError,
    automorphisms,
    compose,
    enumerate_embeddings,
    first_embedding,
    restriction,
)

FOUND = "found"
IMPOSSIBLE = "impossible"
EXHAUSTED = "exhausted"
NONE_WITHIN_BOUND = "none-within-bound"


@dataclass(frozen=True)
class BinaryDigraph:
    """Two vertex rows with bottom-to-top arrows, out-degree exactly 2."""

    n_top: int
    n_bottom: int
    arrows: tuple[tuple[int, int], ...]  # (bottom source, top target) per arrow

    def __post_init__(self) -> None:
        if self.n_top < 0 or self.n_bottom < 0:
            raise ValueError("vertex counts must be nonnegative")
        degree = [0] * self.n_bottom
        for s, t in self.arrows:
            if not (0 <= s < self.n_bottom and 0 <= t < self.n_top):
                raise ValueError(f"arrow ({s},{t}) out of range")
            degree[s] += 1
        if any(d != 2 for d in degree):
            raise ValueError("every bottom vertex must have out-degree exactly 2")

    def arrows_of(self, bottom: int) -> tuple[int, int]:
        """The two arrow indices leaving ``bottom``."""
        idx = tuple(i for i, (s, _) in enumerate(self.arrows) if s == bottom)
        return idx  # type: ignore[return-value]


def _least_members(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Per point of ``range(n)``, the least member of its class under the
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


def connected_components(shape: BinaryDigraph) -> tuple[tuple[int, ...], ...]:
    """Walk-connected classes of top vertices, ordered by least member."""
    pairs = (tuple(shape.arrows[i][1] for i in shape.arrows_of(b))
             for b in range(shape.n_bottom))
    classes: dict[int, list[int]] = {}
    for v, root in enumerate(_least_members(shape.n_top, pairs)):
        classes.setdefault(root, []).append(v)
    return tuple(tuple(c) for _, c in sorted(classes.items()))


@dataclass(frozen=True)
class StructDiagram:
    """A binary-digraph shape decorated with structures and embeddings."""

    shape: BinaryDigraph
    top_objects: tuple[FinStructure, ...]
    bottom_objects: tuple[FinStructure, ...]
    arrow_maps: tuple[Embedding, ...]

    def __post_init__(self) -> None:
        if len(self.top_objects) != self.shape.n_top:
            raise ValueError("top objects not aligned with shape")
        if len(self.bottom_objects) != self.shape.n_bottom:
            raise ValueError("bottom objects not aligned with shape")
        if len(self.arrow_maps) != len(self.shape.arrows):
            raise ValueError("arrow maps not aligned with shape arrows")
        if len({s.signature for s in self.top_objects + self.bottom_objects}) > 1:
            raise SignatureMismatchError("diagram objects do not share one signature")
        for (s, t), emb in zip(self.shape.arrows, self.arrow_maps):
            if emb.source != self.bottom_objects[s] or emb.target != self.top_objects[t]:
                raise ValueError(f"arrow ({s},{t}) carries a mismatched embedding")


def ab_diagram(a: FinStructure, b: FinStructure,
               spans: Sequence[tuple[Sequence[int], Sequence[int], int, int]],
               n_top: int) -> StructDiagram:
    """Build an (A, B)-diagram from spans ``(u, v, i, j)``: one bottom copy
    of A per span, with u into top copy i and v into top copy j."""
    arrows = []
    maps = []
    for u, v, i, j in spans:
        bottom = len(maps) // 2
        arrows.append((bottom, i))
        maps.append(Embedding(a, b, tuple(u)))
        arrows.append((bottom, j))
        maps.append(Embedding(a, b, tuple(v)))
    shape = BinaryDigraph(n_top, len(spans), tuple(arrows))
    return StructDiagram(shape, (b,) * n_top, (a,) * len(spans), tuple(maps))


@dataclass(frozen=True)
class Cocone:
    tip: FinStructure
    legs: tuple[Embedding, ...]  # one per top vertex, into the tip


def check_commutes(diagram: StructDiagram, cocone: Cocone) -> bool:
    """True iff for every bottom span the two leg-composites agree as maps."""
    if len(cocone.legs) != diagram.shape.n_top:
        raise ValueError("cocone legs not aligned with top row")
    for b in range(diagram.shape.n_bottom):
        a1, a2 = diagram.shape.arrows_of(b)
        t1, t2 = diagram.shape.arrows[a1][1], diagram.shape.arrows[a2][1]
        e1 = compose(cocone.legs[t1], diagram.arrow_maps[a1])
        e2 = compose(cocone.legs[t2], diagram.arrow_maps[a2])
        if e1.map != e2.map:
            return False
    return True


@dataclass(frozen=True)
class CoconeSearch:
    status: str  # found | impossible | exhausted | none-within-bound
    cocone: Cocone | None = None


# ---------------------------------------------------------------------------
# pushout machinery (shared by cocone search and amalgamation)


def _pushout(tops: Sequence[FinStructure],
             glue: Sequence[tuple[int, Sequence[int], int, Sequence[int]]]
             ) -> tuple[int, list[tuple[int, ...]]] | None:
    """Quotient of the disjoint union of ``tops`` by the glue entries.

    Each glue entry ``(i, u, j, v)`` says that point ``u[x]`` of top ``i``
    is point ``v[x]`` of top ``j``.  Tip points are numbered in order of
    first appearance, top by top.  Returns the tip size and one leg map per
    top, or None when two points of one top would merge.
    """
    offsets = list(itertools.accumulate((s.size for s in tops), initial=0))
    roots = _least_members(offsets[-1], ((offsets[i] + p, offsets[j] + q)
                                         for i, u, j, v in glue
                                         for p, q in zip(u, v)))
    number: dict[int, int] = {}
    legs = []
    for ti, s in enumerate(tops):
        leg = tuple(number.setdefault(roots[offsets[ti] + v], len(number))
                    for v in range(s.size))
        if len(set(leg)) != s.size:
            return None
        legs.append(leg)
    return len(number), legs


def _forced_relations(tops: Sequence[FinStructure],
                      legs: Sequence[tuple[int, ...]], size: int
                      ) -> tuple[list[set[tuple[int, ...]]], list[int]] | None:
    """Relation values the legs force on a tip of ``size`` points.

    A tuple whose points all lie in one top's image is determined by that
    top.  Returns the forced positive tuples per relation and, per tip
    point, a bitmask of the tops whose image contains it; None when a tuple
    from one top lands in another top's image where that top says it is
    absent.
    """
    covers = [0] * size
    for ti, leg in enumerate(legs):
        for p in leg:
            covers[p] |= 1 << ti
    inverses = [{p: v for v, p in enumerate(leg)} for leg in legs]
    base: list[set[tuple[int, ...]]] = []
    for ri in range(len(tops[0].relations)):
        forced: set[tuple[int, ...]] = set()
        for ti, (s, leg) in enumerate(zip(tops, legs)):
            for t in s.relations[ri]:
                image = tuple(leg[v] for v in t)
                forced.add(image)
                inside = ~(1 << ti)
                for p in image:
                    inside &= covers[p]
                for tj, inv in enumerate(inverses):
                    if (inside >> tj & 1 and tuple(inv[p] for p in image)
                            not in tops[tj].relations[ri]):
                        return None
        base.append(forced)
    return base, covers


def find_cocone(diagram: StructDiagram, max_tip_size: int,
                class_predicate: Callable[[FinStructure], bool] | None = None
                ) -> CoconeSearch:
    """Search for a commuting cocone on the forced quotient.

    The tip point set is the quotient of the disjoint union of top objects
    by the identifications forced by the bottom spans; candidates differ
    only in the relations chosen on tuples no top object determines.  Only
    this forced quotient is tried: a cocone that identifies further points
    is never found, so ``exhausted`` and ``none-within-bound`` do not prove
    that no cocone exists.  (Two copies of K2 glued at a point, with
    ``max_tip_size`` 2, give ``none-within-bound``, yet identity legs into
    K2 commute.)  Two outcomes are proofs: a forced merge inside one top
    object, or contradictory forced relations, make a cocone impossible
    outright.
    """
    shape = diagram.shape
    tops = diagram.top_objects
    if shape.n_top == 0:
        raise ValueError("diagram has no top objects")

    glue = []
    for b in range(shape.n_bottom):
        a1, a2 = shape.arrows_of(b)
        glue.append((shape.arrows[a1][1], diagram.arrow_maps[a1].map,
                     shape.arrows[a2][1], diagram.arrow_maps[a2].map))
    pushout = _pushout(tops, glue)
    if pushout is None:
        return CoconeSearch(IMPOSSIBLE)
    q, legs_maps = pushout
    if q > max_tip_size:
        return CoconeSearch(NONE_WITHIN_BOUND)
    forced = _forced_relations(tops, legs_maps, q)
    if forced is None:
        return CoconeSearch(IMPOSSIBLE)

    for tip in _complete_structures(tops[0].signature, q, *forced,
                                    class_predicate):
        legs = tuple(Embedding(s, tip, legs_maps[ti])
                     for ti, s in enumerate(tops))
        cocone = Cocone(tip, legs)
        assert check_commutes(diagram, cocone)
        return CoconeSearch(FOUND, cocone)
    return CoconeSearch(EXHAUSTED)


# ---------------------------------------------------------------------------
# amalgamation


@dataclass(frozen=True)
class Amalgam:
    amalgam: FinStructure
    into_b: Embedding  # B -> D
    into_c: Embedding  # C -> D


@dataclass(frozen=True)
class AmalgamSearch:
    status: str  # found | exhausted | none-within-bound
    result: Amalgam | None = None


def enumerate_amalgams(a: FinStructure, b: FinStructure, c: FinStructure,
                       f: Embedding, g: Embedding,
                       predicate: Callable[[FinStructure], bool] | None = None
                       ) -> Iterator[Amalgam]:
    """All pushout-shaped amalgams of the span ``B <-f- A -g-> C``.

    The amalgam's point set is B plus the points of C outside g(A); no
    further identification is attempted, so the shared part of the two
    images is exactly the image of A and every amalgam produced here is a
    strong one.  Relation choices on mixed tuples are enumerated with the
    free superposition (no cross relations) first.  The maps into each
    amalgam are certified embeddings when they are built, so a completion
    that is not an amalgam raises :class:`StructureError`.
    """
    if f.source != a or g.source != a or f.target != b or g.target != c:
        raise StructureError("amalgamate: span embeddings do not match A, B, C")
    # f and g are injective, so no point of B or C merges with another
    size, (b_to_d, c_map) = _pushout((b, c), [(0, f.map, 1, g.map)])
    forced = _forced_relations((b, c), (b_to_d, c_map), size)
    if forced is None:
        return  # f and g disagree on the shared part; no amalgam

    for d in _complete_structures(b.signature, size, *forced, predicate):
        fp, gp = Embedding(b, d, b_to_d), Embedding(c, d, c_map)
        assert tuple(fp.map[v] for v in f.map) == tuple(gp.map[v] for v in g.map)
        overlap = set(fp.map) & set(gp.map)
        shared = {fp.map[f.map[v]] for v in range(a.size)}
        assert overlap == shared  # strong condition holds for every pushout
        yield Amalgam(d, fp, gp)


def amalgamate(a: FinStructure, b: FinStructure, c: FinStructure,
               f: Embedding, g: Embedding, bound: int | None = None,
               predicate: Callable[[FinStructure], bool] | None = None
               ) -> AmalgamSearch:
    """First amalgam of the span, or a status explaining the failure."""
    size = b.size + c.size - a.size
    if bound is not None and size > bound:
        return AmalgamSearch(NONE_WITHIN_BOUND)
    for amalgam in enumerate_amalgams(a, b, c, f, g, predicate):
        return AmalgamSearch(FOUND, amalgam)
    return AmalgamSearch(EXHAUSTED)


# ---------------------------------------------------------------------------
# Fraisse-style class property checks


@dataclass(frozen=True)
class ClassPropertyReport:
    property: str
    class_name: str
    max_size: int
    holds: bool
    counterexample: tuple | None
    undecided: tuple
    instances_checked: int

    def summary(self) -> str:
        state = "holds" if self.holds else "FAILS"
        extra = f", undecided={len(self.undecided)}" if self.undecided else ""
        return (f"{self.property} for {self.class_name} up to size "
                f"{self.max_size}: {state} "
                f"({self.instances_checked} instances{extra})")


def _orbit_representatives(x: FinStructure, y: FinStructure) -> tuple[Embedding, ...]:
    """Embeddings X -> Y up to post-composition with Aut(Y)."""
    homxy = enumerate_embeddings(x, y)
    if not homxy:
        return ()
    auts = automorphisms(y)
    seen: set[tuple[int, ...]] = set()
    reps = []
    for e in homxy:
        if e.map in seen:
            continue
        reps.append(e)
        for alpha in auts:
            seen.add(tuple(alpha.map[v] for v in e.map))
    return tuple(reps)


def _empty_structure(signature: Signature) -> FinStructure:
    return FinStructure(signature, 0,
                        tuple(frozenset() for _ in signature.relations))


def check_class_property(property_name: str, klass: StructClass, max_size: int,
                         amalgam_bound: int | None = None) -> ClassPropertyReport:
    """Exhaustively verify HP / JEP / AP / SAP over a class up to a size.

    Stops at the first counterexample.  AP, like SAP, is decided through
    pushout (strong) amalgams only: a "holds" result is sound, but an AP
    "FAILS" may be spurious when the class needs an amalgam that identifies
    points outside the image of A (graphs on at most two vertices report
    such a counterexample).  When a caller-supplied ``amalgam_bound`` is too
    small to cover a pushout the instance is reported undecided rather than
    failed.

    AP and SAP instances ``(A, B, C, f, g)`` are visited with f and g
    running over Aut(B)- and Aut(C)-orbit representatives.  JEP runs the
    same loop with the empty structure as the only A, so f and g are the
    empty maps and its instances are the member pairs ``(B, C)``, reported
    as ``(bi, ci)``.  Every instance is counted, but one whose mirror
    ``C <-g- A -f-> B`` was visited earlier is not searched again: the loop
    did not stop there, so the mirror amalgamated or was out of bound, and
    both outcomes carry over.  Swapping B and C relabels the pushout and
    its completions, each slot's options are closed under that relabelling,
    class predicates are isomorphism-invariant, and the bound depends only
    on ``|B| + |C| - |A|``.  So the first counterexample, the count and the
    undecided instances are those of searching every instance.
    """
    members = klass.members_up_to(max_size)
    checked = 0
    undecided: list[tuple] = []

    if property_name == "HP":
        for mi, x in enumerate(members):
            for r in range(1, x.size):
                for subset in itertools.combinations(range(x.size), r):
                    checked += 1
                    sub = restriction(x, subset)
                    if sub not in klass:
                        return ClassPropertyReport(property_name, klass.name,
                                                   max_size, False,
                                                   (mi, subset), (), checked)
        return ClassPropertyReport(property_name, klass.name, max_size, True,
                                   None, (), checked)

    if property_name == "JEP":
        bottoms: Sequence[FinStructure] = (_empty_structure(klass.signature),)
    elif property_name in ("AP", "SAP"):
        bottoms = members
    else:
        raise ValueError("property must be one of HP, JEP, AP, SAP")

    for ai, x in enumerate(bottoms):
        reps = [_orbit_representatives(x, y) for y in members]
        for bi, yb in enumerate(members):
            for ci, yc in enumerate(members):
                size = yb.size + yc.size - x.size
                bound = amalgam_bound if amalgam_bound is not None else size
                for i, f in enumerate(reps[bi]):
                    for j, g in enumerate(reps[ci]):
                        checked += 1
                        if (ci, j) < (bi, i):
                            # the mirror C <-g- A -f-> B came first and
                            # did not stop the loop
                            status = NONE_WITHIN_BOUND if size > bound else FOUND
                        else:
                            status = amalgamate(x, yb, yc, f, g, bound=bound,
                                                predicate=klass.predicate).status
                        if status == FOUND:
                            continue
                        instance = ((bi, ci) if property_name == "JEP"
                                    else (ai, bi, ci, f.map, g.map))
                        if status == NONE_WITHIN_BOUND:
                            undecided.append(instance)
                        else:
                            return ClassPropertyReport(
                                property_name, klass.name, max_size, False,
                                instance, tuple(undecided), checked)
    return ClassPropertyReport(property_name, klass.name, max_size, True,
                               None, tuple(undecided), checked)


# ---------------------------------------------------------------------------
# linearly ordered posets: the three-point obstruction and permutationality


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
