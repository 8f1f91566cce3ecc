"""Binary digraphs, commuting cocones, amalgamation, and class checkers.

A binary digraph is a two-row shape: every bottom vertex sends exactly two
arrows up.  Decorating the rows with structures and the arrows with
embeddings gives a diagram; a commuting cocone is a tip structure with one
leg per top vertex making every bottom span agree.

One private engine, ``_forced_quotient``, builds every cocone tip and
amalgam: the quotient of the disjoint union of the top objects by the
identifications the bottom spans force (the pushout), completed by the
relation completer of :mod:`catalog` with a class's slot table or the tag
table.  It returns the leg map of each top, computed once per quotient,
and an iterator of certified tips.  It numbers the quotient's points in
closed form when the glue is one span between two tops (every amalgam and
class-check instance), and by union-find over the disjoint union
otherwise; on a span both give the same numbers, so the same legs,
statuses and tips (``_forced_quotient`` says why).  The completer builds
its candidates without validating them, and the engine certifies the legs
without an embedding test: once per quotient, that the forced tuples
agree with every top, and once per completion, that the tip keeps the
forced tuples and adds none inside one top's image.  :func:`find_cocone` and
:func:`amalgamate` wrap the maps as legs of the one tip they return;
:func:`check_class_property` reads only whether a first tip exists, so it
builds no legs and no result objects.  Joint embedding is amalgamation
over the empty structure.  Only forced quotients are tried: merging points
beyond what the spans force is never attempted, so a search that finds
nothing does not prove that no cocone or amalgam exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .catalog import (
    CLASSES,
    StructClass,
    _complete_structures,
)
from .structures import (
    TAG_SHAPES,
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatchError,
    StructureError,
    automorphisms,
    compose,
    enumerate_embeddings,
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
    _out: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_top < 0 or self.n_bottom < 0:
            raise ValueError("vertex counts must be nonnegative")
        out: list[list[int]] = [[] for _ in range(self.n_bottom)]
        for i, (s, t) in enumerate(self.arrows):
            if not (0 <= s < self.n_bottom and 0 <= t < self.n_top):
                raise ValueError(f"arrow ({s},{t}) out of range")
            out[s].append(i)
        if any(len(idx) != 2 for idx in out):
            raise ValueError("every bottom vertex must have out-degree exactly 2")
        object.__setattr__(self, "_out", tuple(map(tuple, out)))

    def arrows_of(self, bottom: int) -> tuple[int, int]:
        """The two arrow indices leaving ``bottom``, in arrow order."""
        return self._out[bottom]


def _least_members(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Per point of ``range(n)``, the least member of its class under the
    equivalence the pairs generate.

    Union-find with path halving that hangs the larger root under the
    smaller, so every parent is at most its child, and one pass upward,
    each point taking the root of its parent, reads off the least
    members."""
    parent = list(range(n))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


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
# the forced-quotient engine (shared by cocone search and amalgamation)


def _span_numbering(nb: int, nc: int, u: Sequence[int], v: Sequence[int]
                    ) -> str | tuple[list[tuple[int, ...]], list[int], set[int]]:
    """The legs, covers and shared points of the quotient of tops of ``nb``
    and ``nc`` points by the glue ``[(0, u, 1, v)]``, numbered in closed
    form, or :data:`IMPOSSIBLE` when two points of one top merge."""
    glued = dict(zip(v, u))
    shared = set(u)
    n = len(glued)
    # a point with two partners merges them within the other top; there is
    # none when the points of v, of u and the pairs are equally many (a
    # repeat-free u and v give as many pairs as points)
    if n != len(shared) or n != len(u) and n != len(set(zip(u, v))):
        return IMPOSSIBLE
    into_c = []
    fresh = nb
    for y in range(nc):
        if y in glued:
            into_c.append(glued[y])
        else:
            into_c.append(fresh)
            fresh += 1
    covers = [1] * nb + [2] * (nc - n)
    for p in shared:
        covers[p] = 3
    return [tuple(range(nb)), tuple(into_c)], covers, shared


def _union_find_numbering(tops: Sequence[FinStructure],
                          glue: Sequence[tuple[int, Sequence[int], int, Sequence[int]]]
                          ) -> str | tuple[list[tuple[int, ...]], list[int], set[int]]:
    """The legs, covers and shared points of the quotient of the disjoint
    union of ``tops`` by any glue, or :data:`IMPOSSIBLE` when two points
    of one top merge."""
    offsets = list(itertools.accumulate((s.size for s in tops), initial=0))
    number = _least_members(offsets[-1], ((offsets[i] + p, offsets[j] + q)
                                          for i, u, j, v in glue
                                          for p, q in zip(u, v)))
    # each root is below the rest of its class, so it is numbered before
    # them: overwrite roots by tip numbers in one pass upward
    size = 0
    for x, root in enumerate(number):
        if root == x:
            number[x] = size
            size += 1
        else:
            number[x] = number[root]
    legs = []
    for ti, s in enumerate(tops):
        leg = tuple(number[offsets[ti]:offsets[ti + 1]])
        if len(set(leg)) != s.size:
            return IMPOSSIBLE
        legs.append(leg)
    covers = [0] * size
    for ti, leg in enumerate(legs):
        for p in leg:
            covers[p] |= 1 << ti
    return legs, covers, {p for p, m in enumerate(covers) if m & (m - 1)}


def _forced_quotient(tops: Sequence[FinStructure],
                     glue: Sequence[tuple[int, Sequence[int], int, Sequence[int]]],
                     bound: int | None,
                     predicate: Callable[[FinStructure], bool] | None,
                     options: Mapping[str, tuple[int, ...]]
                     ) -> str | tuple[tuple[tuple[int, ...], ...], Iterator[FinStructure]]:
    """The leg maps of the quotient of the disjoint union of ``tops`` by
    the glue, one per top, and an iterator of its certified completions in
    the completer's order; or a status when there are none to try.

    A glue entry ``(i, u, j, v)`` says that point ``u[x]`` of top ``i`` is
    point ``v[x]`` of top ``j``; tip points are numbered in order of first
    appearance, top by top, and the leg maps are the same into every
    completion.  Two numberings give these numbers:

    - One span, the glue ``[(0, u, 1, v)]`` on two tops B and C (every AP,
      SAP and JEP instance, every amalgam and a one-span cocone), in closed
      form (:func:`_span_numbering`): B's leg is the identity, C's leg
      sends ``v[x]`` to ``u[x]`` and numbers C's other points ``|B|``,
      ``|B| + 1``, ... in order, and two points of one top merge exactly
      when some point of u or of v is paired with two different partners.
    - Any other glue, by union-find over the points of the disjoint union
      (:func:`_union_find_numbering`): a root is the least member of its
      class, so it comes first, a point is new exactly when it is its own
      root, and each leg map is a slice of the numbering.

    They agree on one span.  The pairs join only points of B to points of
    C, so a class holds two points of one top exactly when one of its
    points has two partners, and both report the merge.  Otherwise each
    class is one point or one pair, whose least member is its B point, as
    B's points come first; so the roots in order are B's points, then C's
    unglued points in order, which is the closed form's numbering.  The
    covers and shared points are determined by the legs, so every later
    step, the checks and the completer included, sees the same input and
    gives the same status and tips.

    Checked in this order, the status is :data:`IMPOSSIBLE` when two
    points of one top merge, :data:`NONE_WITHIN_BOUND` when the quotient
    has more than ``bound`` points, and :data:`IMPOSSIBLE` when a tuple of
    one top lands in another top's image where that top says it is
    absent.  A tuple inside one top's image is determined by that top;
    ``covers[p]`` is the bitmask of the tops whose image contains tip point
    ``p``.  Open binary slots take the shapes ``options[tag]``.

    The legs are certified in two steps instead of one embedding test per
    leg.  Once per quotient: the forced tuples agree with every top on its
    image; only a tuple whose points are all shared (in two or more tops'
    images, the glued points) can lie in two tops' images, so only those
    are looked up, each in the mapped tuples of every top whose image
    holds it.  Top 0's leg is the identity, so only the other tops' tuples
    are mapped.
    Once per completion: the tip keeps every forced tuple and adds none
    inside one top's image.  Each leg is injective, so it then preserves
    and reflects every relation, and a completion that fails raises
    :class:`StructureError`.  A caller that returns a tip may wrap each map
    as ``Embedding(top, tip, map, _checked=True)``.
    """
    if len(tops) == 2 and len(glue) == 1 and glue[0][0] == 0 and glue[0][2] == 1:
        numbered = _span_numbering(tops[0].size, tops[1].size,
                                   glue[0][1], glue[0][3])
    else:
        numbered = _union_find_numbering(tops, glue)
    if isinstance(numbered, str):
        return numbered
    legs, covers, shared = numbered
    size = len(covers)
    if bound is not None and size > bound:
        return NONE_WITHIN_BOUND
    base: list[frozenset[tuple[int, ...]]] = []
    for ri in range(len(tops[0].relations)):
        # top 0's points are numbered first, in order, so its leg is the
        # identity and its tuples are their own images
        images = [tops[0].relations[ri]] + [
            frozenset([tuple(map(leg.__getitem__, t)) for t in s.relations[ri]])
            for s, leg in zip(tops[1:], legs[1:])]
        forced = images[0].union(*images[1:])
        for image in filter(shared.issuperset, forced):
            inside = -1
            for p in image:
                inside &= covers[p]
            if inside & (inside - 1):
                for tj, tuples in enumerate(images):
                    if inside >> tj & 1 and image not in tuples:
                        return IMPOSSIBLE
        base.append(forced)
    # the legs commute on the glue, and the points in two tops' images are
    # the glued ones, so every amalgam found is a strong one
    assert all(legs[i][p] == legs[j][q]
               for i, u, j, v in glue for p, q in zip(u, v))
    assert shared == {legs[i][p] for i, u, j, _ in glue if i != j for p in u}
    signature = tops[0].signature

    def certified() -> Iterator[FinStructure]:
        for tip in _complete_structures(signature, size, base, covers,
                                        predicate, options):
            if (not (tip.signature is signature or tip.signature == signature)
                    or tip.size != size):
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
            yield tip

    return tuple(legs), certified()


def find_cocone(diagram: StructDiagram, max_tip_size: int,
                klass: StructClass | None = None) -> CoconeSearch:
    """Search for a commuting cocone on the forced quotient.

    A thin adapter onto the engine that :func:`amalgamate` shares, which
    wraps the leg maps of the first tip as embeddings: candidate tips
    differ only in the relations chosen on tuples no top object
    determines.  A cocone that identifies further points is never found, so
    ``exhausted`` and ``none-within-bound`` do not prove that no cocone
    exists.  (Two copies of K2 glued at a point, with ``max_tip_size`` 2,
    give ``none-within-bound``, yet identity legs into K2 commute.)  Two
    outcomes are proofs: a forced merge inside one top object, or
    contradictory forced relations, make a cocone impossible outright.
    Given ``klass``, the tip is a member and open slots take its options.
    """
    shape = diagram.shape
    if shape.n_top == 0:
        raise ValueError("diagram has no top objects")
    if klass is not None and klass.signature != diagram.top_objects[0].signature:
        raise SignatureMismatchError(f"class {klass.name!r} does not share the "
                                     "diagram's signature")
    glue = [(shape.arrows[a1][1], diagram.arrow_maps[a1].map,
             shape.arrows[a2][1], diagram.arrow_maps[a2].map)
            for a1, a2 in map(shape.arrows_of, range(shape.n_bottom))]
    quotient = _forced_quotient(diagram.top_objects, glue, max_tip_size,
                                klass.predicate if klass else None,
                                klass.options if klass else TAG_SHAPES)
    if isinstance(quotient, str):
        return CoconeSearch(quotient)
    maps, tips = quotient
    for tip in tips:
        return CoconeSearch(FOUND, Cocone(tip, tuple([
            Embedding(s, tip, m, _checked=True)
            for s, m in zip(diagram.top_objects, maps)])))
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


def amalgamate(a: FinStructure, b: FinStructure, c: FinStructure,
               f: Embedding, g: Embedding, bound: int | None = None,
               predicate: Callable[[FinStructure], bool] | None = None
               ) -> AmalgamSearch:
    """First pushout-shaped amalgam of the span ``B <-f- A -g-> C`` that
    the engine finds, or why there is none.

    The amalgam's point set is B plus the points of C outside g(A); no
    further identification is attempted, so the shared part of the two
    images is exactly the image of A and every amalgam found is a strong
    one.  A span that does not match A, B and C raises
    :class:`StructureError`.  ``none-within-bound`` means that the
    pushout's ``|B| + |C| - |A|`` points exceed ``bound``; a span of
    embeddings is never ``impossible``.  The amalgam is the first
    completion that ``predicate`` accepts.

    When ``predicate`` is the membership test of a class in
    :data:`~catalog.CLASSES` on B's signature (the first such class, looked
    up at each call), open slots take that class's options; otherwise they
    take every shape of the tag table :data:`~structures.TAG_SHAPES`.  The
    amalgam is the same either way: a class's options list a sub-product
    of the tag table in its order, and its predicate rejects every
    structure with a pair shape the options drop (the contract of
    :class:`~catalog.StructClass`), so the tag table's first accepted
    completion is also the class table's first.
    """
    for x, y in ((f.source, a), (g.source, a), (f.target, b), (g.target, c)):
        if not (x is y or x == y):
            raise StructureError("amalgamate: span embeddings do not match A, B, C")
    options = next((k.options for k in CLASSES.values()
                    if k.predicate is predicate and k.signature == b.signature),
                   TAG_SHAPES)
    quotient = _forced_quotient((b, c), [(0, f.map, 1, g.map)], bound,
                                predicate, options)
    if isinstance(quotient, str):
        return AmalgamSearch(quotient)
    (into_b, into_c), tips = quotient
    for d in tips:
        return AmalgamSearch(FOUND, Amalgam(
            d, Embedding(b, d, into_b, _checked=True),
            Embedding(c, d, into_c, _checked=True)))
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


def _orbit_representatives(x: FinStructure, y: FinStructure
                           ) -> tuple[tuple[Embedding, ...], dict[tuple[int, ...], int]]:
    """Embeddings X -> Y up to post-composition with Aut(Y): the first
    embedding of each orbit, and the index of its orbit per embedding map."""
    homxy = enumerate_embeddings(x, y)
    if not homxy:
        return (), {}
    auts = automorphisms(y)
    orbit: dict[tuple[int, ...], int] = {}
    reps = []
    for e in homxy:
        if e.map in orbit:
            continue
        for alpha in auts:
            orbit[tuple(alpha.map[v] for v in e.map)] = len(reps)
        reps.append(e)
    return tuple(reps), orbit


def _empty_structure(signature: Signature) -> FinStructure:
    return FinStructure(signature, 0,
                        tuple(frozenset() for _ in signature.relations),
                        _checked=True)


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
    running over Aut(B)- and Aut(C)-orbit representatives, the i-th and
    j-th of their lists.  JEP runs the same loop with the empty structure
    as the only A, so f and g are the empty maps and its instances are the
    member pairs ``(B, C)``, reported as ``(bi, ci)``.  A searched instance
    is one engine call on ``(B, C)`` glued along f and g, read only for
    whether a first tip exists; the spans are orbit representatives, so
    they need no check.  Open slots take the class's options.

    Every instance is counted, but one equivalent to an instance visited
    earlier is not searched again: the loop did not stop there, so that
    instance amalgamated or was out of bound, and both outcomes carry over.
    For α in Aut(A), the twist ``(f∘α, g∘α)`` glues f(α(x)) to g(α(x)) for
    every x, the same pairs as ``(f, g)``, so it has the same pushout; its
    maps lie in the orbits of the p-th and q-th representatives, whose
    pushout is that one relabelled by an automorphism of B and one of C.
    The mirror ``C <-g- A -f-> B`` relabels the pushout by swapping B and
    C.  A relabelling carries completions to completions, as each slot's
    options are closed under swapping its points
    (:class:`~catalog.StructClass` checks it); class predicates are
    isomorphism-invariant; and the bound depends only on
    ``|B| + |C| - |A|``.  So equivalent instances have one status.  The
    twist ``(bi, ci, p, q)`` comes earlier when ``(p, q) < (i, j)``, and
    its mirror when ``ci < bi``, or ``ci == bi`` and ``(q, p) < (i, j)``;
    with α the identity that is ``(ci, j) < (bi, i)``, the whole test when
    Aut(A) is trivial.  So the first counterexample, the count and the
    undecided instances are those of searching every instance.
    """
    if property_name not in ("HP", "JEP", "AP", "SAP"):
        raise ValueError("property must be one of HP, JEP, AP, SAP")
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

    bottoms: Sequence[FinStructure] = (
        (_empty_structure(klass.signature),) if property_name == "JEP" else members)

    for ai, x in enumerate(bottoms):
        twists = [alpha.map for alpha in automorphisms(x)
                  if alpha.map != tuple(range(x.size))]
        reps = []
        # per member Y and representative f: X -> Y, the orbit index of
        # f∘alpha for each non-identity alpha in twists
        twisted = []
        for y in members:
            ry, orbit = _orbit_representatives(x, y)
            reps.append(ry)
            twisted.append([[orbit[tuple(f.map[v] for v in alpha)]
                             for alpha in twists] for f in ry])
        for bi, yb in enumerate(members):
            for ci, yc in enumerate(members):
                size = yb.size + yc.size - x.size
                bound = amalgam_bound if amalgam_bound is not None else size
                for i, f in enumerate(reps[bi]):
                    for j, g in enumerate(reps[ci]):
                        checked += 1
                        if (ci, j) < (bi, i) or twists and any(
                                (p, q) < (i, j) or ci == bi and (q, p) < (i, j)
                                for p, q in zip(twisted[bi][i], twisted[ci][j])):
                            # an equivalent span, twisted by Aut(A) or
                            # mirrored, came first and did not stop the loop
                            status = NONE_WITHIN_BOUND if size > bound else FOUND
                        else:
                            quotient = _forced_quotient(
                                (yb, yc), [(0, f.map, 1, g.map)], bound,
                                klass.predicate, klass.options)
                            if isinstance(quotient, str):
                                status = quotient
                            else:
                                status = (FOUND if next(quotient[1], None)
                                          is not None else EXHAUSTED)
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
