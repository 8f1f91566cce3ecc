"""Shared independent oracles for the test suite.

These deliberately re-derive definitions from scratch (no calls into the
library's search code) so that library results are checked against a
second route.  The one exception, ``every_instance_class_property``, runs
the library's amalgamation search on every instance, to check the
shortcut that the class-property loop takes.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest

from ramsey_forge import diagrams
from ramsey_forge.structures import FinStructure


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


def every_instance_class_property(property_name, klass, max_size,
                                  amalgam_bound=None):
    """AP, SAP or JEP with every instance searched, mirrors included.

    The loop of :func:`diagrams.check_class_property` without its mirror
    skip, to check that skipping changes no report.  JEP is amalgamation
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
                for f in diagrams._orbit_representatives(x, yb):
                    for g in diagrams._orbit_representatives(x, yc):
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
