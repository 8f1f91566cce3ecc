"""Canonical keys and class enumeration against independent oracles: the
brute-force key over all n! relabelings, and iso-class counts from OEIS."""

import dataclasses
import itertools
import random
from types import MappingProxyType

import pytest

from ramsey_forge import catalog, diagrams
from ramsey_forge.structures import (
    BACKWARD,
    BOTH,
    FORWARD,
    NONE,
    TAG_LINEAR,
    TAG_NONE,
    TAG_ORIENTED,
    TAG_SHAPES,
    TAG_SYMMETRIC,
    FinStructure,
    StructureError,
    canonical_key,
)

from conftest import (
    LOPS_OPTIONS,
    MIXED_SIG,
    _order_options,
    _slot_options,
    _tournament_options,
    brute_force_canonical_key,
    expand_options,
    random_mixed,
    seed_complete_structures,
    seed_options,
)


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

# the table linearly ordered posets were once completed with, as the library
# held it: omega is the natural order and po may only agree with it
LOPS_MEMBER_OPTIONS = MappingProxyType({TAG_LINEAR: (FORWARD,),
                                        TAG_NONE: (NONE, FORWARD)})


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

    def test_seeded_mixed_signature_on_0_to_5_points(self):
        # a unary relation, a ternary one and loops under tag none: the
        # arities and bases that a key's bit indices are read in.  Each
        # structure has its own density and comes with a random relabeling,
        # and the small sizes repeat, so the pool holds isomorphic pairs and
        # distinct ones
        rng = random.Random(1309)
        sample = []
        for n in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5):
            for _ in range(12):
                s = random_mixed(rng, n, (rng.random(),) * 3)
                perm = rng.sample(range(n), n)
                sample += [s, FinStructure(s.signature, n, tuple(
                    frozenset(tuple(perm[x] for x in t) for t in tuples)
                    for tuples in s.relations))]
        assert len({canonical_key(s) for s in sample}) > 40
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


@pytest.mark.parametrize("name, count", [("graphs", 156), ("tournaments", 56)])
def test_member_counts_on_6_points_match_oeis(name, count):
    # OEIS A000088 and A000568 at n = 6
    assert len(catalog.CLASSES[name].members(6)) == count


@pytest.mark.parametrize("n", range(1, 6))
def test_tournaments_are_the_tournament_oriented_members(n):
    oriented = catalog.CLASSES["oriented-graphs"].members(n)
    assert catalog.CLASSES["tournaments"].members(n) == tuple(
        s for s in oriented if catalog.is_tournament(s))


@pytest.mark.parametrize("name, whole", [("triangle-free", "graphs"),
                                         ("dags", "oriented-graphs")])
@pytest.mark.parametrize("n", range(1, 6))
def test_subclass_members_are_the_filtered_members(name, whole, n):
    klass = catalog.CLASSES[name]
    assert klass.members(n) == tuple(
        filter(klass.predicate, catalog.CLASSES[whole].members(n)))


# labelled members on n = 1..4 points: OEIS A001035 and A003024, and the
# graphs on n labelled points with no triangle
LABELLED_COUNTS = {
    "posets": (1, 3, 19, 219),
    "dags": (1, 3, 25, 543),
    "triangle-free": (1, 2, 7, 41),
}


@pytest.mark.parametrize("name", sorted(LABELLED_COUNTS))
def test_members_key_only_accepted_completions(name, monkeypatch):
    keyed = []

    def counted(s):
        keyed.append(s)
        return canonical_key(s)

    monkeypatch.setattr(catalog, "canonical_key", counted)
    klass = dataclasses.replace(catalog.CLASSES[name])  # nothing kept yet
    for n, count in enumerate(LABELLED_COUNTS[name], start=1):
        keyed.clear()
        members = klass.members(n)
        assert len(keyed) == count
        assert all(map(klass.predicate, keyed))
        keyed.clear()
        assert klass.members(n) is members and not keyed


COMPLETE_GRAPHS = catalog.StructClass(
    "complete-graphs", catalog.GRAPH_SIG, catalog.always,
    options={TAG_SYMMETRIC: (BOTH,)})


def test_table_class_lists_its_members_from_its_table():
    """No generator: the members come from a one-shape table."""
    for n in range(6):
        assert COMPLETE_GRAPHS.members(n) == (catalog.complete_graph(n),)


@pytest.mark.parametrize("prop", ["HP", "JEP", "AP", "SAP"])
def test_table_class_amalgamates(prop):
    report = diagrams.check_class_property(prop, COMPLETE_GRAPHS, 3)
    assert report.holds and not report.undecided


def _swap(option, x, y):
    relabel = {x: y, y: x}
    return frozenset(tuple(relabel[v] for v in t) for t in option)


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_class_options_are_closed_under_the_swap(name):
    """The amalgamation check skips mirrored and twisted spans, whose
    pushouts are relabelled ones, and a relabelling may swap the points of
    an open slot."""
    klass = catalog.CLASSES[name]
    for spec in klass.signature.relations:
        for x, y in itertools.combinations(range(4), 2):
            options = {frozenset(o)
                       for o in expand_options(klass.options, spec.tag, x, y)}
            assert {_swap(o, x, y) for o in options} == options


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_no_class_option_is_dead_on_two_points(name):
    """Every option of every relation is taken by some valid 2-point
    member of the class."""
    klass = catalog.CLASSES[name]
    offered = [expand_options(klass.options, spec.tag, 0, 1)
               for spec in klass.signature.relations]
    taken = [set() for _ in offered]
    for choice in itertools.product(*offered):
        try:
            s = FinStructure(klass.signature, 2, tuple(map(frozenset, choice)))
        except StructureError:
            continue
        if klass.predicate(s):
            for seen, option in zip(taken, choice):
                seen.add(frozenset(option))
    assert taken == [set(map(frozenset, options)) for options in offered]


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_every_member_slot_takes_a_class_option(name):
    klass = catalog.CLASSES[name]
    for s in klass.members_up_to(4):
        for spec, tuples in zip(s.signature.relations, s.relations):
            for x, y in itertools.combinations(s.domain, 2):
                slot = frozenset(t for t in tuples if set(t) == {x, y})
                assert slot in {frozenset(o) for o in expand_options(
                    klass.options, spec.tag, x, y)}, s


NARROW_TABLE_CLASSES = [name for name, klass in catalog.CLASSES.items()
                        if klass.options != TAG_SHAPES]


def test_narrow_table_classes():
    assert NARROW_TABLE_CLASSES == ["tournaments", "posets",
                                    "linearly-ordered-posets"]


@pytest.mark.parametrize("name", NARROW_TABLE_CLASSES)
def test_class_table_drops_only_rejected_shapes(name):
    """The contract of a class's options: on the empty structure, the
    completions its predicate accepts under the tag table are those under
    its options, in order, so the first accepted completion of any base is
    the same under both.  The completer is called directly, so classes
    with a generator are covered too."""
    klass = catalog.CLASSES[name]
    for n in range(4 if name == "linearly-ordered-posets" else 5):
        def accepted(table):
            return list(catalog._complete_structures(
                klass.signature, n, [set() for _ in klass.signature.relations],
                [0] * n, klass.predicate, table))
        assert accepted(TAG_SHAPES) == accepted(klass.options)


ALL_TAGS = (TAG_NONE, TAG_SYMMETRIC, TAG_LINEAR, TAG_ORIENTED)


@pytest.mark.parametrize("table, callback, tags", [
    (TAG_SHAPES, _slot_options, ALL_TAGS),
    (catalog.TOURNAMENT_OPTIONS, _tournament_options, (TAG_ORIENTED,)),
    (catalog.ORDER_OPTIONS, _order_options, ALL_TAGS),
    (LOPS_MEMBER_OPTIONS, LOPS_OPTIONS, (TAG_NONE, TAG_LINEAR)),
])
def test_options_tables_expand_to_the_seed_callbacks(table, callback, tags):
    """Each table gives every slot of up to 5 points the seed callback's
    tuple sets in the callback's order, on every tag of the signatures it
    serves.  (The tournaments' callback dropped the first option of every
    tag, but only their oriented tag was ever asked.)"""
    for tag in tags:
        for x, y in itertools.combinations(range(5), 2):
            assert expand_options(table, tag, x, y) == callback(tag, x, y)


def test_class_options_must_be_closed_under_the_swap():
    table = {**TAG_SHAPES,
             TAG_ORIENTED: (NONE, FORWARD)}
    with pytest.raises(ValueError, match="not closed under the swap"):
        catalog.StructClass("forward-only", catalog.ORIENTED_SIG, catalog.always,
                            lambda n: (), table)


@pytest.mark.parametrize("shapes", [
    (NONE, FORWARD, BACKWARD, BOTH),
    (FORWARD, BACKWARD, BOTH),
])
def test_class_options_must_be_valid_for_their_tag(shapes):
    # a symmetric relation has no one-way pair
    table = {**TAG_SHAPES, TAG_SYMMETRIC: shapes}
    with pytest.raises(ValueError, match="not valid for their tag"):
        catalog.StructClass("graphs-with-arcs", catalog.GRAPH_SIG, catalog.always,
                            options=table)


def test_class_options_must_cover_every_binary_tag():
    table = {TAG_SYMMETRIC: TAG_SHAPES[TAG_SYMMETRIC]}
    with pytest.raises(ValueError, match="no options for tag"):
        catalog.StructClass("untabled-orientations", catalog.ORIENTED_SIG,
                            catalog.always, options=table)


def test_acyclic_needs_no_recursion():
    # 1,500 points on one directed path, past Python's recursion limit
    n = 1500
    path = [(i, i + 1) for i in range(n - 1)]
    assert catalog.is_acyclic(catalog.oriented_graph(n, path))
    assert not catalog.is_acyclic(catalog.oriented_graph(n, path + [(n - 1, 0)]))


# ---------------------------------------------------------------------------
# the relation completer against the completer as first written

def assert_same_candidates(signature, size, base, covers, predicate, table,
                           callback, limit=None):
    """The completer with the options ``table`` and
    ``seed_complete_structures`` with the matching ``callback`` yield the
    same candidates in the same order (the first ``limit`` of them), which
    it returns."""
    def run(complete, options):
        out = complete(signature, size, [set(b) for b in base], list(covers),
                       predicate, options)
        return [(s.signature, s.size, s.relations)
                for s in itertools.islice(out, limit)]

    candidates = run(catalog._complete_structures, table)
    assert candidates == run(seed_complete_structures, callback)
    return candidates


def random_base(rng, klass, n, parts):
    """Covers of n points by up to ``parts`` parts (a point may lie in
    none) and the fixed tuples of a random structure on those points that
    lie inside one part: one option of the class per pair, and a shuffled
    order for a linear order, so every part carries valid tuples and two
    parts agree where they meet."""
    covers = [rng.randrange(1 << parts) for _ in range(n)]
    base = []
    for spec in klass.signature.relations:
        if spec.tag == TAG_LINEAR:
            tuples = catalog.linear_order_pairs(rng.sample(range(n), n))
        else:
            tuples = [t for x, y in itertools.combinations(range(n), 2)
                      for t in rng.choice(seed_options(klass.name)(spec.tag, x, y))]
        base.append({t for t in tuples if covers[t[0]] & covers[t[1]]})
    return base, covers


def has_linear_order(klass):
    return any(spec.tag == TAG_LINEAR for spec in klass.signature.relations)


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_completer_matches_the_seed_completer_on_members(name):
    """Every completion of the empty structure, with the class's options
    and predicate: on up to 3 points for classes with a linear order (the
    validated path), on up to 4 for the others."""
    klass = catalog.CLASSES[name]
    for n in range(4 if has_linear_order(klass) else 5):
        assert_same_candidates(klass.signature, n,
                               [set() for _ in klass.signature.relations],
                               [0] * n, klass.predicate, klass.options,
                               seed_options(name))


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_completer_matches_the_seed_completer_on_seeded_bases(name):
    """Seeded fixed tuples and covers of up to 5 points (4 with a linear
    order) in 1 to 3 parts, with and without the class predicate: the first
    200 candidates."""
    klass = catalog.CLASSES[name]
    top = 4 if has_linear_order(klass) else 5
    rng = random.Random(name)
    for _ in range(30):
        n, parts = rng.randint(0, top), rng.randint(1, 3)
        base, covers = random_base(rng, klass, n, parts)
        for predicate in (None, klass.predicate):
            assert_same_candidates(klass.signature, n, base, covers,
                                   predicate, klass.options, seed_options(name),
                                   limit=200)


@pytest.mark.parametrize("seed", range(12))
def test_completer_matches_the_seed_completer_on_mixed_signature(seed):
    """Unary and ternary open slots next to a binary relation with loops:
    covers of up to 3 points in 1 to 3 parts, a point in no part opening
    its unary slot; the first 300 candidates."""
    rng = random.Random(seed)
    n, parts = rng.randint(0, 3), rng.randint(1, 3)
    world = random_mixed(rng, n)
    covers = [rng.randrange(1 << parts) for _ in range(n)]

    def inside(t):
        mask = -1
        for p in t:
            mask &= covers[p]
        return mask

    base = [{t for t in tuples if inside(t)} for tuples in world.relations]
    for predicate in (None, lambda s: len(s.relations[1]) % 2 == 0):
        assert_same_candidates(MIXED_SIG, n, base, covers, predicate,
                               TAG_SHAPES, _slot_options, limit=300)


@pytest.mark.parametrize("signature, size, base, covers, predicate, count", [
    # the bare pushout is no tournament: its open pair (0, 2) takes an arc
    (catalog.ORIENTED_SIG, 3, [{(0, 1), (1, 2)}], [1, 3, 2],
     catalog.is_tournament, 2),
    # no open slot: the bare candidate is the only one
    (catalog.GRAPH_SIG, 2, [{(0, 1), (1, 0)}], [1, 1], None, 1),
    (catalog.GRAPH_SIG, 0, [set()], [], None, 1),
    # six open ternary tuples and one open pair, all absent in the bare one
    (MIXED_SIG, 2, [{(0,)}, {(0, 0, 0)}, {(1, 1)}], [1, 2], None, 2 ** 6 * 4),
    # a linear order has no absent shape, so no bare candidate; (2, 0)
    # would close a cycle
    (catalog.CHAIN_SIG, 3, [{(0, 1), (1, 2)}], [1, 3, 2], None, 1),
], ids=["rejected", "no-open-slot", "size-0", "open-ternary", "linear-order"])
def test_completer_tries_the_bare_candidate_first(signature, size, base, covers,
                                                  predicate, count):
    """The bare candidate, each slot at its first shape, comes first and
    only once, or not at all without an absent first shape: every candidate
    is the seed completer's, in its order."""
    assert len(assert_same_candidates(signature, size, base, covers,
                                      predicate, TAG_SHAPES, _slot_options)) == count


def test_completer_matches_the_seed_completer_on_lops_member_options():
    """The options linearly ordered posets were once listed with, on the
    validated path for linear orders: every completion of up to 5 points,
    and seeded bases of up to 4."""
    lops = catalog.CLASSES["linearly-ordered-posets"]
    for n in range(6):
        assert_same_candidates(catalog.LOPOSET_SIG, n, [set(), set()], [0] * n,
                               catalog.is_linearly_ordered_poset,
                               LOPS_MEMBER_OPTIONS, LOPS_OPTIONS)
    rng = random.Random(5)
    for _ in range(20):
        n, parts = rng.randint(0, 4), rng.randint(1, 3)
        base, covers = random_base(rng, lops, n, parts)
        assert_same_candidates(catalog.LOPOSET_SIG, n, base, covers,
                               catalog.is_linearly_ordered_poset,
                               LOPS_MEMBER_OPTIONS, LOPS_OPTIONS,
                               limit=200)
