"""Builders for common finite structures and enumerable structure classes.

A :class:`StructClass` packages a signature, a membership predicate and an
iso-class generator; the amalgamation-property checkers and universality
audits quantify over these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

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


def chain(n: int) -> FinStructure:
    """The n-element chain 0 < 1 < ... < n-1."""
    lt = [(i, j) for i in range(n) for j in range(n) if i < j]
    return FinStructure.build(CHAIN_SIG, n, {"lt": lt})


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


def linearly_ordered_poset(n: int, strict: Iterable[tuple[int, int]],
                           order: Sequence[int] | None = None) -> FinStructure:
    """A strict partial order ``po`` together with a linear order ``omega``
    extending it."""
    order = tuple(order if order is not None else range(n))
    s = FinStructure.build(LOPOSET_SIG, n, {
        "po": list(strict),
        "omega": linear_order_pairs(order),
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
    arc = s.rel("arc")
    color = [0] * s.size  # 0 new, 1 active, 2 done

    def visit(v: int) -> bool:
        color[v] = 1
        for x, y in arc:
            if x == v:
                if color[y] == 1 or (color[y] == 0 and not visit(y)):
                    return False
        color[v] = 2
        return True

    return all(color[v] != 0 or visit(v) for v in range(s.size))


def is_linearly_ordered_poset(s: FinStructure) -> bool:
    if not is_poset(s):
        return False
    omega = s.rel("omega")
    return all(p in omega for p in s.rel("po"))


# ---------------------------------------------------------------------------
# iso-class enumeration


def _dedupe(structs: Iterable[FinStructure]) -> tuple[FinStructure, ...]:
    out: dict = {}
    for s in structs:
        key = canonical_key(s)
        if key not in out:
            out[key] = s
    return tuple(out.values())


def _all_graphs(n: int) -> Iterable[FinStructure]:
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield graph(n, [p for p, b in zip(pairs, bits) if b])


def _all_oriented(n: int, choices: Sequence[int] = (0, 1, 2)
                  ) -> Iterable[FinStructure]:
    """Oriented graphs whose pair ``x < y`` takes one of ``choices``: 0 for
    no arc, 1 for the arc ``(x, y)``, 2 for the arc ``(y, x)``."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(choices, repeat=len(pairs)):
        arcs = []
        for (x, y), c in zip(pairs, choice):
            if c == 1:
                arcs.append((x, y))
            elif c == 2:
                arcs.append((y, x))
        yield oriented_graph(n, arcs)


def _all_posets(n: int) -> Iterable[FinStructure]:
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (x, y), c in zip(pairs, choice):
            if c == 1:
                rel.add((x, y))
            elif c == 2:
                rel.add((y, x))
        if is_strict_partial_order(frozenset(rel), n):
            yield FinStructure.build(Signature.make(("po", 2, TAG_NONE)), n, {"po": rel})


def _all_lo_posets(n: int) -> Iterable[FinStructure]:
    # With a linear order in the signature every structure is rigid, so the
    # naturally-labeled representatives (omega = natural order) are exactly
    # the iso classes.
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = frozenset(p for p, b in zip(pairs, bits) if b)
        if is_strict_partial_order(rel, n):
            yield linearly_ordered_poset(n, rel)


@dataclass(frozen=True)
class StructClass:
    """An enumerable class of finite structures closed under isomorphism."""

    name: str
    signature: Signature
    predicate: Callable[[FinStructure], bool]
    _generate: Callable[[int], tuple[FinStructure, ...]]

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
    if name == "chains":
        return (chain(n),)
    if name == "graphs":
        return _dedupe(_all_graphs(n))
    if name == "triangle-free":
        return tuple(s for s in _gen("graphs", n) if is_triangle_free(s))
    if name == "oriented-graphs":
        return _dedupe(_all_oriented(n))
    if name == "tournaments":
        # the orientations with no empty pair come in the order they hold
        # among all oriented graphs, so members and their order are those
        # of the oriented members that are tournaments
        return _dedupe(_all_oriented(n, choices=(1, 2)))
    if name == "dags":
        return tuple(s for s in _gen("oriented-graphs", n) if is_acyclic(s))
    if name == "posets":
        return _dedupe(_all_posets(n))
    if name == "permutations":
        return tuple(permutation_structure(p)
                     for p in itertools.permutations(range(n)))
    if name == "linearly-ordered-posets":
        return tuple(_all_lo_posets(n))
    raise KeyError(name)


def _maker(name: str) -> Callable[[int], tuple[FinStructure, ...]]:
    return lambda n: _gen(name, n)


CLASSES: dict[str, StructClass] = {
    "chains": StructClass("chains", CHAIN_SIG, always, _maker("chains")),
    "graphs": StructClass("graphs", GRAPH_SIG, always, _maker("graphs")),
    "triangle-free": StructClass("triangle-free", GRAPH_SIG, is_triangle_free,
                                 _maker("triangle-free")),
    "oriented-graphs": StructClass("oriented-graphs", ORIENTED_SIG, always,
                                   _maker("oriented-graphs")),
    "tournaments": StructClass("tournaments", ORIENTED_SIG, is_tournament,
                               _maker("tournaments")),
    "dags": StructClass("dags", ORIENTED_SIG, is_acyclic, _maker("dags")),
    "posets": StructClass("posets", Signature.make(("po", 2, TAG_NONE)), is_poset,
                          _maker("posets")),
    "permutations": StructClass("permutations", PERM_SIG, always,
                                _maker("permutations")),
    "linearly-ordered-posets": StructClass(
        "linearly-ordered-posets", LOPOSET_SIG, is_linearly_ordered_poset,
        _maker("linearly-ordered-posets")),
}
