"""Builders for common finite structures and enumerable structure classes.

A :class:`StructClass` packages a signature, a membership predicate and an
iso-class generator; the amalgamation-property checkers and universality
audits quantify over these.

This module also holds the one relation completer, which fills every open
slot of a partly fixed structure with each of its options in turn.  Class
members are the completions of the empty structure on n points, one per
isomorphism class, and :mod:`diagrams` completes amalgams and cocone tips
with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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
# relation completion: class members, amalgams and cocone tips


def _slot_options(tag: str, x: int, y: int) -> list[tuple[tuple[int, ...], ...]]:
    """Candidate tuple sets for one open binary slot, sparsest first."""
    if tag == TAG_SYMMETRIC:
        return [(), ((x, y), (y, x))]
    if tag == TAG_LINEAR:
        return [((x, y),), ((y, x),)]
    if tag == TAG_ORIENTED:
        return [(), ((x, y),), ((y, x),)]
    return [(), ((x, y),), ((y, x),), ((x, y), (y, x))]


def _complete_structures(signature: Signature, size: int,
                         base: list[set[tuple[int, ...]]], covers: list[int],
                         predicate: Callable[[FinStructure], bool] | None,
                         options: Callable[[str, int, int], list] = _slot_options
                         ) -> Iterator[FinStructure]:
    """All valid structures extending the fixed tuples ``base``.

    ``covers`` holds, per point, a bitmask of the parts (the tops of a
    pushout) whose image contains it; a tuple is open when no part covers
    all of its points (the AND of their masks is 0).  Each open binary
    slot ``x < y`` takes one of ``options(tag, x, y)``, and the slots are
    enumerated as one product, relation by relation and pair by pair, with
    each slot's first option first.
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

    for choice in itertools.product(*(opts for _, opts in slot_axes)):
        rels = [set(b) for b in base]
        for (ri, _), picked in zip(slot_axes, choice):
            rels[ri].update(picked)
        try:
            candidate = FinStructure(signature, size,
                                     tuple(frozenset(r) for r in rels))
        except StructureError:
            continue
        if predicate is not None and not predicate(candidate):
            continue
        yield candidate


def _completions(signature: Signature, n: int,
                 predicate: Callable[[FinStructure], bool] | None = None,
                 options: Callable[[str, int, int], list] = _slot_options
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
        return _completions(GRAPH_SIG, n)
    if name == "triangle-free":
        return tuple(s for s in _gen("graphs", n) if is_triangle_free(s))
    if name == "oriented-graphs":
        return _completions(ORIENTED_SIG, n)
    if name == "tournaments":
        # the orientations with no empty pair come in the order they hold
        # among all oriented graphs, so members and their order are those
        # of the oriented members that are tournaments
        return _completions(ORIENTED_SIG, n, options=lambda tag, x, y:
                            _slot_options(tag, x, y)[1:])
    if name == "dags":
        return tuple(s for s in _gen("oriented-graphs", n) if is_acyclic(s))
    if name == "posets":
        return _completions(POSET_SIG, n, is_poset, lambda _, x, y:
                            _slot_options(TAG_ORIENTED, x, y))
    if name == "permutations":
        return tuple(permutation_structure(p)
                     for p in itertools.permutations(range(n)))
    if name == "linearly-ordered-posets":
        # omega is the natural order and po may only agree with it; a
        # linear order makes every structure rigid, so these naturally
        # labelled completions are already one per iso class
        return _completions(LOPOSET_SIG, n, is_linearly_ordered_poset,
                            lambda tag, x, y: [((x, y),)] if tag == TAG_LINEAR
                            else [(), ((x, y),)])
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
    "posets": StructClass("posets", POSET_SIG, is_poset, _maker("posets")),
    "permutations": StructClass("permutations", PERM_SIG, always,
                                _maker("permutations")),
    "linearly-ordered-posets": StructClass(
        "linearly-ordered-posets", LOPOSET_SIG, is_linearly_ordered_poset,
        _maker("linearly-ordered-posets")),
}
