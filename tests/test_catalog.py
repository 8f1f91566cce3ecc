"""Canonical keys and class enumeration against independent oracles: the
brute-force key over all n! relabelings, and iso-class counts from OEIS."""

import itertools
import random

import pytest

from ramsey_forge import catalog
from ramsey_forge.structures import FinStructure, canonical_key

from conftest import brute_force_canonical_key


def assert_same_partition(structs):
    """Two structures get equal keys exactly when they get equal oracle keys."""
    oracle_of, key_of = {}, {}
    for s in structs:
        key, oracle = canonical_key(s), brute_force_canonical_key(s)
        assert key[:2] == (s.signature, s.size)
        assert oracle_of.setdefault(key, oracle) == oracle, s
        assert key_of.setdefault(oracle, key) == key, s


def orientations(n, choices=(0, 1, 2)):
    """Arc lists on n points, one per choice for each pair x < y in
    lexicographic order: no arc (0), the arc (x, y) (1) or (y, x) (2)."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(choices, repeat=len(pairs)):
        yield [(x, y) if c == 1 else (y, x)
               for (x, y), c in zip(pairs, choice) if c]


# the labelled structures each class's members are drawn from, enumerated
# here rather than by the library's completer
SOURCES = {
    "chains": lambda n: [catalog.chain(n)],
    "graphs": lambda n: [catalog.graph(n, arcs)
                         for arcs in orientations(n, (0, 1))],
    "oriented-graphs": lambda n: [catalog.oriented_graph(n, arcs)
                                  for arcs in orientations(n)],
    "tournaments": lambda n: [catalog.oriented_graph(n, arcs)
                              for arcs in orientations(n, (1, 2))],
    "posets": lambda n: [FinStructure.build(catalog.CLASSES["posets"].signature,
                                            n, {"po": arcs})
                         for arcs in orientations(n)],
    "permutations": lambda n: [catalog.permutation_structure(p)
                               for p in itertools.permutations(range(n))],
    "linearly-ordered-posets": lambda n: [
        FinStructure.build(catalog.LOPOSET_SIG, n, {
            "po": arcs, "omega": catalog.linear_order_pairs(range(n))})
        for arcs in orientations(n, (0, 1))],
}
SOURCES["triangle-free"] = SOURCES["graphs"]
SOURCES["dags"] = SOURCES["oriented-graphs"]


def random_oriented(rng, n):
    arcs = []
    for x, y in itertools.combinations(range(n), 2):
        choice = rng.randrange(3)
        if choice:
            arcs.append((x, y) if choice == 1 else (y, x))
    return arcs


class TestCanonicalKeyOracle:
    @pytest.mark.parametrize("name", ["graphs", "oriented-graphs", "posets"])
    def test_every_labelled_structure_up_to_4(self, name):
        assert_same_partition(s for n in range(5) for s in SOURCES[name](n))

    def test_seeded_oriented_graphs_on_5_and_6_points(self):
        # 50 random oriented graphs per size, each with a random relabeling,
        # so that the sample holds isomorphic pairs as well as distinct ones
        rng = random.Random(20140)
        sample = []
        for n in (5, 6):
            for _ in range(50):
                arcs = random_oriented(rng, n)
                perm = rng.sample(range(n), n)
                sample.append(catalog.oriented_graph(n, arcs))
                sample.append(catalog.oriented_graph(
                    n, [(perm[x], perm[y]) for x, y in arcs]))
        assert len(sample) == 200
        assert_same_partition(sample)


def oracle_members(name, n):
    """The first structure of each iso class, keyed by the brute-force key."""
    klass = catalog.CLASSES[name]
    out = {}
    for s in SOURCES[name](n):
        if klass.predicate(s):
            out.setdefault(brute_force_canonical_key(s), s)
    return tuple(out.values())


@pytest.mark.parametrize("name, n", [(name, n) for name in catalog.CLASSES
                                     for n in range(1, 5)]
                         + [(name, 5) for name in ("graphs", "tournaments",
                                                   "linearly-ordered-posets")])
def test_members_match_oracle_dedupe(name, n):
    assert catalog.CLASSES[name].members(n) == oracle_members(name, n)


# iso classes on n = 1..5 points: OEIS A000088, A001174, A000568, A003087,
# A000112
OEIS_COUNTS = {
    "graphs": (1, 2, 4, 11, 34),
    "oriented-graphs": (1, 2, 7, 42, 582),
    "tournaments": (1, 1, 2, 4, 12),
    "dags": (1, 2, 6, 31, 302),
    "posets": (1, 2, 5, 16, 63),
}


@pytest.mark.parametrize("name", sorted(OEIS_COUNTS))
def test_member_counts_match_oeis(name):
    counts = tuple(len(catalog.CLASSES[name].members(n)) for n in range(1, 6))
    assert counts == OEIS_COUNTS[name]


@pytest.mark.parametrize("n", range(1, 6))
def test_tournaments_are_the_tournament_oriented_members(n):
    oriented = catalog.CLASSES["oriented-graphs"].members(n)
    assert catalog.CLASSES["tournaments"].members(n) == tuple(
        s for s in oriented if catalog.is_tournament(s))
