"""Deterministic finite initial segments of universal structures.

Every generator is pure and nested: the size-n segment is the restriction
of the size-(n+1) segment to its first n points.  No randomness anywhere;
the BIT graph realizes the random-graph presentation, a greedy request
queue realizes the triangle-free one, and a Calkin-Wilf walk enumerates
the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .catalog import (
    GRAPH_SIG,
    LOPOSET_SIG,
    ORIENTED_SIG,
    PERM_SIG,
    StructClass,
    embeds_I_star,
    linear_order_pairs,
)
from .structures import (
    TAG_LINEAR,
    TAG_SYMMETRIC,
    FinStructure,
    Signature,
    SignatureMismatchError,
    _embedding_search,
    first_embedding,
)

ORDERED_GRAPH_SIG = Signature.make(("E", 2, TAG_SYMMETRIC), ("omega", 2, TAG_LINEAR))


def _bit_edge(i: int, j: int) -> bool:
    """BIT adjacency: for i < j, edge iff bit i of j is set.  The
    definition; the generators list the same pairs with ``_bit_arcs``."""
    lo, hi = (i, j) if i < j else (j, i)
    return bool((hi >> lo) & 1)


def _bit_arcs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs (i, j) with j < n and bit i of j set, which forces i < j:
    the ``_bit_edge`` pairs, read off the set bits of each j in O(n log n)
    instead of testing all n² pairs."""
    for j in range(n):
        rest = j
        while rest:
            low = rest & -rest
            yield low.bit_length() - 1, j
            rest ^= low


def rado(n: int) -> FinStructure:
    edges = frozenset(itertools.chain.from_iterable(
        ((i, j), (j, i)) for i, j in _bit_arcs(n)))
    return FinStructure(GRAPH_SIG, n, (edges,), _checked=True)


def ordered_rado(n: int) -> FinStructure:
    """The BIT graph with its natural order distinguished."""
    return FinStructure(ORDERED_GRAPH_SIG, n, (
        rado(n).rel("E"), frozenset(linear_order_pairs(range(n)))), _checked=True)


def acyclic_universal(n: int) -> FinStructure:
    """Orient the BIT graph's edges upward along the natural order."""
    arcs = frozenset(_bit_arcs(n))
    return FinStructure(ORIENTED_SIG, n, (arcs,), _checked=True)


def _subset_requests():
    """All finite subsets of the naturals, grouped by maximum element and
    ordered lexicographically on the sorted tuple within each group."""
    yield ()
    m = 0
    while True:
        group = sorted(
            rest + (m,)
            for rest in itertools.chain.from_iterable(
                itertools.combinations(range(m), r) for r in range(m + 1)))
        yield from group
        m += 1


def _henson_edges(n: int) -> frozenset[tuple[int, int]]:
    """Edge set of the greedy triangle-free universal segment on n vertices.

    Vertex t realizes the next request U in the canonical stream that is
    still an independent set, becoming adjacent to exactly U among the
    vertices existing at that moment.  Independent requests never create a
    triangle, and edges are only added forward, so segments are nested.
    """
    edges: set[tuple[int, int]] = set()
    adj: list[set[int]] = []
    stream = _subset_requests()
    for t in range(n):
        while True:
            req = next(stream)
            assert not req or max(req) < t, "request stream ran ahead of vertices"
            independent = all(y not in adj[x]
                              for x, y in itertools.combinations(req, 2))
            if independent:
                break
        adj.append(set(req))
        for u in req:
            adj[u].add(t)
            edges.add((u, t))
            edges.add((t, u))
    return frozenset(edges)


def henson3(n: int) -> FinStructure:
    return FinStructure(GRAPH_SIG, n, (_henson_edges(n),), _checked=True)


def acyclic_triangle_free(n: int) -> FinStructure:
    arcs = frozenset((i, j) for i, j in _henson_edges(n) if i < j)
    return FinStructure(ORIENTED_SIG, n, (arcs,), _checked=True)


def _rational_points(n: int) -> list[Fraction]:
    """The first n positive rationals of the Calkin-Wilf walk, which starts
    at 1 and steps from q to 1 / (2 floor(q) - q + 1)."""
    points: list[Fraction] = []
    q = Fraction(1)
    for _ in range(n):
        points.append(q)
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
    return points


def rational_point(i: int) -> Fraction:
    """The i-th positive rational of the Calkin-Wilf walk (starts at 1)."""
    if i < 0:
        raise ValueError("the Calkin-Wilf walk has no negative indices")
    return _rational_points(i + 1)[i]


def rational_chain(n: int) -> FinStructure:
    """A permutation: the rational order against the enumeration order."""
    points = _rational_points(n)
    lt = frozenset((i, j) for i in range(n) for j in range(n)
                   if i != j and points[i] < points[j])
    return FinStructure(PERM_SIG, n, (
        lt, frozenset(linear_order_pairs(range(n)))), _checked=True)


def permutational_poset(n: int) -> FinStructure:
    """Meet of the rational order with the enumeration order, kept alongside
    the enumeration order.  Free of the three-point obstruction by
    construction (certified below)."""
    points = _rational_points(n)
    po = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                   if points[i] < points[j])
    result = FinStructure(LOPOSET_SIG, n, (
        po, frozenset(linear_order_pairs(range(n)))), _checked=True)
    if embeds_I_star(result):
        raise AssertionError("permutational poset segment embeds the obstruction")
    return result


_GENERATORS = {
    "rado": rado,
    "ordered_rado": ordered_rado,
    "acyclic_universal": acyclic_universal,
    "henson3": henson3,
    "acyclic_triangle_free": acyclic_triangle_free,
    "rational_chain": rational_chain,
    "permutational_poset": permutational_poset,
}
KINDS = tuple(_GENERATORS)


def generate(kind: str, n: int) -> FinStructure:
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown universe kind {kind!r}") from None
    if n < 0:
        raise ValueError("segment size must be nonnegative")
    return gen(n)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class ExtensionRequest:
    targets: tuple[int, ...]      # must be adjacent to all of these
    non_targets: tuple[int, ...]  # and to none of these
    witness: int | None
    formula_witness_used: bool


@dataclass(frozen=True)
class ExtensionReport:
    n: int
    radius: int
    prefix: int
    requests: tuple[ExtensionRequest, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.witness is not None for r in self.requests)


def check_extension_property(g: FinStructure, r: int, prefix: int | None = None
                             ) -> ExtensionReport:
    """Point-extension audit on a graph.

    For every pair of disjoint sets U, V with |U|+|V| <= r inside the first
    ``prefix`` vertices, look for a vertex adjacent to all of U and none of
    V.  The BIT witness (the sum of 2^u over U) is tried first and always
    verified against the actual edge relation before being accepted.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    if prefix is not None and prefix < 0:
        raise ValueError("prefix must be >= 0")
    edges = g.rel("E")
    m = g.size if prefix is None else min(prefix, g.size)
    requests = []
    pool = range(m)

    def valid(z: int, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        if z in u or z in v:
            return False
        return (all((z, x) in edges for x in u)
                and all((z, x) not in edges for x in v))

    for total in range(0, r + 1):
        for u_size in range(0, total + 1):
            for u in itertools.combinations(pool, u_size):
                for v in itertools.combinations([x for x in pool if x not in u],
                                                total - u_size):
                    formula = sum(1 << x for x in u)
                    if formula < g.size and valid(formula, u, v):
                        requests.append(ExtensionRequest(u, v, formula, True))
                        continue
                    witness = next((z for z in g.domain if valid(z, u, v)), None)
                    requests.append(ExtensionRequest(u, v, witness, False))
    return ExtensionReport(g.size, r, m, tuple(requests))


@dataclass(frozen=True)
class UniversalityEntry:
    member_index: int
    size: int
    embedded: bool
    minimal_segment: int | None


@dataclass(frozen=True)
class UniversalityReport:
    kind: str
    class_name: str
    max_size: int
    segment: int
    entries: tuple[UniversalityEntry, ...]

    @property
    def all_embedded(self) -> bool:
        return all(e.embedded for e in self.entries)


def check_universal(kind: str, klass: StructClass, max_size: int,
                    segment: int) -> UniversalityReport:
    """Audit: does every class member up to ``max_size`` embed into the
    size-``segment`` initial segment, and how small a segment suffices?

    A member not found within ``segment`` is reported, never escalated: a
    larger segment might still contain it.  A class whose signature is not
    the universe's raises :class:`SignatureMismatchError` before any search.

    Each member is searched in the full segment first.  Every smaller
    segment is an induced substructure of it, so an absent member costs
    that one search.  A member that embeds has its least segment scanned
    upward, no further than one past the largest point of the embedding
    already found.  Each scan step reuses the full segment's pair-type
    masks with the images limited to the points below the step's size: the
    initial segment is its own relabelling, so this finds the embeddings
    into it without building a restricted copy.
    """
    if segment < max_size:
        raise ValueError("segment must be at least the class size bound")
    universe = generate(kind, segment)
    if universe.signature != klass.signature:
        raise SignatureMismatchError(
            f"universe kind {kind!r} (relations {list(universe.signature.names)})"
            f" and class {klass.name!r} (relations {list(klass.signature.names)})"
            " have different signatures")
    entries = []
    for mi, member in enumerate(klass.members_up_to(max_size)):
        minimal: int | None = None
        found = first_embedding(member, universe)
        if found is not None:
            minimal = max(found.map, default=-1) + 1
            for np_ in range(member.size, minimal):
                if next(_embedding_search(member, universe, np_), None) is not None:
                    minimal = np_
                    break
        entries.append(UniversalityEntry(mi, member.size, minimal is not None,
                                         minimal))
    return UniversalityReport(kind, klass.name, max_size, segment, tuple(entries))
