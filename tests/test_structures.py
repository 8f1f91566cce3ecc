import itertools
import json
import random

import pytest

from ramsey_forge import catalog, universes
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
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatchError,
    StructureError,
    _embedding_search,
    are_isomorphic,
    canonical_key,
    compose,
    enumerate_embeddings,
    first_embedding,
    is_embedding,
    reduct,
    restriction,
    structure_from_json,
    structure_to_dict,
    structure_to_dot,
    structure_to_json,
)

from conftest import (
    brute_force_embedding_maps,
    brute_force_isomorphism,
    random_mixed,
    seed_embedding_search,
)


def permuted_chain(order):
    n = len(order)
    return FinStructure.build(catalog.CHAIN_SIG, n,
                              {"lt": catalog.linear_order_pairs(order)})


class TestIsEmbedding:
    def test_identity(self):
        a = catalog.cycle_graph(4)
        assert is_embedding(tuple(range(4)), a, a)

    def test_monotone_injection_into_chain(self):
        assert is_embedding((0, 2), catalog.chain(2), catalog.chain(3))

    def test_order_reversal_rejected(self):
        assert not is_embedding((2, 0), catalog.chain(2), catalog.chain(3))

    def test_signature_mismatch_is_an_error_not_false(self):
        with pytest.raises(SignatureMismatchError):
            is_embedding((0, 1), catalog.chain(2), catalog.complete_graph(3))

    def test_partial_map_rejected(self):
        with pytest.raises(StructureError):
            is_embedding((0,), catalog.chain(2), catalog.chain(3))

    def test_reflection_required(self):
        # mapping a non-edge pair onto an edge must fail
        e2 = catalog.empty_graph(2)
        k2 = catalog.complete_graph(2)
        assert not is_embedding((0, 1), e2, k2)

    @pytest.mark.parametrize("name", ["graphs", "oriented-graphs", "chains",
                                      "posets", "permutations",
                                      "linearly-ordered-posets"])
    def test_every_map_matches_the_oracle(self, name):
        # every map into {-1, ..., |B|}, so out-of-range and non-injective
        # maps are tried next to the embeddings and the non-embeddings
        members = catalog.CLASSES[name].members_up_to(3)
        maps = 0
        for a in members:
            for b in members:
                oracle = brute_force_embedding_maps(a, b)
                for f in itertools.product(range(-1, b.size + 1),
                                           repeat=a.size):
                    maps += 1
                    assert is_embedding(f, a, b) == (f in oracle), (a, b, f)
        assert maps > 200


class TestEnumerateEmbeddings:
    def test_chain_2_into_5(self):
        got = enumerate_embeddings(catalog.chain(2), catalog.chain(5))
        oracle = brute_force_embedding_maps(catalog.chain(2), catalog.chain(5))
        assert len(got) == 10
        assert {e.map for e in got} == oracle

    def test_k2_into_k3(self):
        got = enumerate_embeddings(catalog.complete_graph(2),
                                   catalog.complete_graph(3))
        assert len(got) == 6
        assert {e.map for e in got} == brute_force_embedding_maps(
            catalog.complete_graph(2), catalog.complete_graph(3))

    def test_triangle_into_pentagon_empty(self):
        assert enumerate_embeddings(catalog.complete_graph(3),
                                    catalog.cycle_graph(5)) == ()

    def test_lexicographic_order(self):
        got = [e.map for e in enumerate_embeddings(catalog.chain(2),
                                                   catalog.chain(4))]
        assert got == sorted(got)

    def test_exhaustive_oracle_small_pool(self):
        pool = [catalog.chain(2), catalog.chain(4),
                catalog.path_graph(3), catalog.cycle_graph(5),
                catalog.complete_graph(3), catalog.empty_graph(4),
                catalog.permutation_structure([1, 0, 2]),
                catalog.permutation_structure([2, 0, 1, 3])]
        for a, b in itertools.product(pool, repeat=2):
            if a.signature != b.signature or b.size > 6:
                continue
            fast = {e.map for e in enumerate_embeddings(a, b)}
            assert fast == brute_force_embedding_maps(a, b)

    def test_every_result_passes_is_embedding(self):
        for a, b in [(catalog.path_graph(3), catalog.cycle_graph(6)),
                     (catalog.chain(3), catalog.chain(6))]:
            for e in enumerate_embeddings(a, b):
                assert is_embedding(e.map, a, b)


def assert_seed_maps(a, b, limit=None):
    """The search gives the seed search's maps in the seed's order (the
    first ``limit`` of them when given), and ``first_embedding`` its first."""
    want = list(itertools.islice(seed_embedding_search(a, b), limit))
    if limit is None:
        assert [e.map for e in enumerate_embeddings(a, b)] == want, (a, b)
    else:
        assert list(itertools.islice(_embedding_search(a, b), limit)) == want, (a, b)
    first = first_embedding(a, b)
    assert (first and first.map) == (want[0] if want else None), (a, b)
    return len(want)


def assert_seed_scan(a, b):
    """Limiting the images to the points below n gives the seed's maps into
    the initial segment of size n, for every n."""
    for n in range(b.size + 1):
        assert list(_embedding_search(a, b, n)) == list(
            seed_embedding_search(a, restriction(b, range(n)))), (a, b, n)


def induced_copy(rng, s, k):
    """The substructure of ``s`` on k random points, listed in random order."""
    points = rng.sample(range(s.size), k)
    position = {x: i for i, x in enumerate(points)}
    return FinStructure(s.signature, k, tuple(
        frozenset(tuple(position[x] for x in t) for t in tuples
                  if all(x in position for x in t))
        for tuples in s.relations))


def ordered_graph(g):
    return FinStructure.build(universes.ORDERED_GRAPH_SIG, g.size, {
        "E": g.rel("E"), "omega": catalog.linear_order_pairs(range(g.size))})


# a class of the universe's signature per universe kind; ordered graphs
# are the graph members with the natural order added
KIND_MEMBERS = {
    "rado": lambda: catalog.CLASSES["graphs"].members_up_to(3),
    "ordered_rado": lambda: [ordered_graph(g) for g in
                             catalog.CLASSES["graphs"].members_up_to(3)],
    "acyclic_universal": lambda: catalog.CLASSES["dags"].members_up_to(3),
    "henson3": lambda: catalog.CLASSES["graphs"].members_up_to(3),
    "acyclic_triangle_free": lambda: catalog.CLASSES["oriented-graphs"].members_up_to(3),
    "rational_chain": lambda: catalog.CLASSES["permutations"].members_up_to(3),
    "permutational_poset":
        lambda: catalog.CLASSES["linearly-ordered-posets"].members_up_to(3),
}


class TestSearchAgainstSeed:
    """The bitset search against the seed's backtracking search: the same
    maps, in the same order."""

    @pytest.mark.parametrize("name", ["graphs", "oriented-graphs", "tournaments",
                                      "posets", "linearly-ordered-posets",
                                      "chains", "permutations"])
    def test_member_pairs_up_to_4(self, name):
        members = catalog.CLASSES[name].members_up_to(4)
        maps = sum(assert_seed_maps(a, b) for a in members for b in members)
        assert maps >= len(members)

    @pytest.mark.parametrize("kind, name, max_size, segment", [
        ("rado", "graphs", 5, 64),
        ("acyclic_universal", "dags", 4, 64),
        ("permutational_poset", "linearly-ordered-posets", 4, 16),
    ])
    def test_first_200_maps_of_audited_members(self, kind, name, max_size, segment):
        universe = universes.generate(kind, segment)
        for member in catalog.CLASSES[name].members_up_to(max_size):
            assert_seed_maps(member, universe, 200)

    @pytest.mark.parametrize("kind", universes.KINDS)
    def test_small_members_into_every_universe_kind(self, kind):
        universe = universes.generate(kind, 12)
        for member in KIND_MEMBERS[kind]():
            assert_seed_maps(member, universe)
            assert_seed_scan(member, universe)

    def test_unary_ternary_and_loops(self):
        rng = random.Random(10)
        targets = [random_mixed(rng, n) for n in (1, 3, 4, 5, 5, 6, 6)]
        sources = [random_mixed(rng, n) for n in (0, 1, 1, 2, 2, 3)]
        sources += [induced_copy(rng, b, k) for b in targets
                    for k in range(1, min(b.size, 4) + 1) for _ in range(2)]
        assert any(b.rel("L") & {(x, x) for x in b.domain} for b in targets)
        nonempty = sum(bool(assert_seed_maps(a, b)) for a in sources for b in targets)
        assert nonempty >= 60
        for a in sources[:12]:
            for b in targets:
                assert_seed_scan(a, b)

    def test_pair_into_a_long_path(self):
        maps = assert_seed_maps(catalog.complete_graph(2), catalog.path_graph(1200))
        assert maps == 2398

    @pytest.mark.parametrize("search", [enumerate_embeddings, first_embedding])
    def test_signature_mismatch_message(self, search):
        with pytest.raises(SignatureMismatchError,
                           match=r"^enumerate_embeddings: signatures differ$"):
            search(catalog.chain(2), catalog.complete_graph(3))


class TestComposition:
    def test_composition_closure(self):
        a, b, c = catalog.chain(2), catalog.chain(3), catalog.chain(5)
        for f in enumerate_embeddings(a, b):
            for g in enumerate_embeddings(b, c):
                gf = compose(g, f)
                assert is_embedding(gf.map, a, c)

    def test_identity_neutral(self):
        a, b = catalog.path_graph(2), catalog.path_graph(4)
        for f in enumerate_embeddings(a, b):
            assert compose(f, Embedding(a, a, tuple(range(a.size)))).map == f.map
            assert compose(Embedding(b, b, tuple(range(b.size))), f).map == f.map


class TestRestriction:
    def test_chain_restriction(self):
        assert restriction(catalog.chain(3), {0, 2}) == catalog.chain(2)

    def test_k3_single_vertex(self):
        got = restriction(catalog.complete_graph(3), {1})
        assert got == catalog.empty_graph(1)

    def test_pentagon_path(self):
        got = restriction(catalog.cycle_graph(5), {0, 1, 2})
        assert got == catalog.path_graph(3)

    def test_out_of_range(self):
        with pytest.raises(StructureError):
            restriction(catalog.chain(3), {0, 7})

    def test_inclusion_is_embedding(self):
        for s in [catalog.cycle_graph(6), catalog.chain(5),
                  catalog.permutation_structure([3, 0, 2, 1])]:
            for r in range(1, s.size):
                for subset in itertools.combinations(range(s.size), r):
                    inc = Embedding(restriction(s, subset), s, tuple(sorted(subset)))
                    assert is_embedding(inc.map, inc.source, s)


class TestIsomorphism:
    def test_relabeled_chain(self):
        ok, witness = are_isomorphic(catalog.chain(3), permuted_chain([2, 0, 1]))
        assert ok and witness is not None
        assert is_embedding(witness.map, catalog.chain(3),
                            permuted_chain([2, 0, 1]))

    def test_k3_vs_path_false(self):
        ok, witness = are_isomorphic(catalog.complete_graph(3),
                                     catalog.path_graph(3))
        assert not ok and witness is None

    def test_dag_pair(self):
        d1 = catalog.oriented_graph(4, [(0, 1), (0, 2), (1, 3)])
        d2 = catalog.oriented_graph(4, [(3, 2), (3, 1), (2, 0)])
        assert brute_force_isomorphism(d1, d2)  # oracle first
        ok, witness = are_isomorphic(d1, d2)
        assert ok
        assert is_embedding(witness.map, d1, d2)

    def test_equivalence_relation_on_pool(self):
        pool = [catalog.path_graph(3), catalog.complete_graph(3),
                restriction(catalog.cycle_graph(5), {0, 1, 2}),
                catalog.empty_graph(3)]
        for s in pool:
            assert are_isomorphic(s, s)[0]
        for x, y in itertools.product(pool, repeat=2):
            assert are_isomorphic(x, y)[0] == are_isomorphic(y, x)[0]
        for x, y, z in itertools.product(pool, repeat=3):
            if are_isomorphic(x, y)[0] and are_isomorphic(y, z)[0]:
                assert are_isomorphic(x, z)[0]

    def test_canonical_key_consistent(self):
        d1 = catalog.oriented_graph(4, [(0, 1), (0, 2), (1, 3)])
        d2 = catalog.oriented_graph(4, [(3, 2), (3, 1), (2, 0)])
        assert canonical_key(d1) == canonical_key(d2)
        assert canonical_key(catalog.path_graph(3)) != canonical_key(
            catalog.complete_graph(3))


class TestValidation:
    @pytest.mark.parametrize("tag, row", [
        (TAG_NONE, (NONE, FORWARD, BACKWARD, BOTH)),
        (TAG_SYMMETRIC, (NONE, BOTH)),
        (TAG_LINEAR, (FORWARD, BACKWARD)),
        (TAG_ORIENTED, (NONE, FORWARD, BACKWARD)),
    ])
    def test_pair_shapes_follow_the_tag_table(self, tag, row):
        """On two points, a relation is accepted exactly when the shape of
        the pair (0, 1) is in its tag's row of the table, and a loop only
        when it is untagged."""
        assert TAG_SHAPES[tag] == row
        sig = Signature.make(("R", 2, tag))
        tuples = {NONE: [], FORWARD: [(0, 1)], BACKWARD: [(1, 0)],
                  BOTH: [(0, 1), (1, 0)]}
        accepted = set()
        for shape, pair in tuples.items():
            try:
                FinStructure.build(sig, 2, {"R": pair})
                accepted.add(shape)
            except StructureError:
                pass
        assert accepted == set(row)
        looped = tuples[row[0]] + [(1, 1)]
        if tag == TAG_NONE:
            FinStructure.build(sig, 2, {"R": looped})
        else:
            with pytest.raises(StructureError, match=r"^R: loop \(1,1\)"):
                FinStructure.build(sig, 2, {"R": looped})

    def test_symmetric_tag_enforced(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.GRAPH_SIG, 2, {"E": [(0, 1)]})

    def test_loop_rejected(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.GRAPH_SIG, 2, {"E": [(0, 0), (0, 0)]})

    def test_linear_order_must_be_total(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.CHAIN_SIG, 3, {"lt": [(0, 1)]})

    @pytest.mark.parametrize("n", range(6))
    def test_linear_order_check_matches_the_definition(self, n):
        """Every orientation of K_n is accepted exactly when it is
        transitive, and a rejected one names a violated triple."""
        pairs = list(itertools.combinations(range(n), 2))
        for flips in itertools.product((False, True), repeat=len(pairs)):
            lt = {(y, x) if flip else (x, y)
                  for (x, y), flip in zip(pairs, flips)}
            transitive = all((x, z) in lt for x, y in lt for z in range(n)
                             if (y, z) in lt)
            try:
                FinStructure.build(catalog.CHAIN_SIG, n, {"lt": lt})
            except StructureError as exc:
                assert not transitive
                u, v, w = map(int, str(exc).rsplit("(", 1)[1].rstrip(")").split(","))
                assert (u, v) in lt and (v, w) in lt and (u, w) not in lt
            else:
                assert transitive

    @pytest.mark.parametrize("lt", [
        [(0, 1), (1, 2), (0, 2), (1, 1)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2), (2, 0)],
    ], ids=["loop", "missing-pair", "both-directions"])
    def test_linear_order_rejects_non_tournaments(self, lt):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.CHAIN_SIG, 3, {"lt": lt})

    def test_oriented_tag_rejects_two_cycles(self):
        with pytest.raises(StructureError):
            catalog.oriented_graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_tuple(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.GRAPH_SIG, 2, {"E": [(0, 5), (5, 0)]})

    def test_embedding_constructor_certifies(self):
        with pytest.raises(StructureError):
            Embedding(catalog.chain(2), catalog.chain(3), (2, 0))


class TestReduct:
    def test_reduct_keeps_named_relations(self):
        p = catalog.permutation_structure([1, 0, 2])
        r = reduct(p, ["lt"])
        assert r.signature.names == ("lt",)
        assert r.rel("lt") == p.rel("lt")

    def test_reduct_unknown_name(self):
        with pytest.raises(StructureError):
            reduct(catalog.chain(2), ["nope"])


class TestSerialization:
    def test_json_round_trip(self):
        for s in [catalog.cycle_graph(5), catalog.chain(4),
                  catalog.permutation_structure([2, 0, 1]),
                  catalog.I_STAR]:
            assert structure_from_json(structure_to_json(s)) == s

    def test_spec_wire_format(self):
        doc = {"signature": [{"name": "E", "arity": 2,
                              "tag": "symmetric-irreflexive"}],
               "size": 4, "relations": {"E": [[0, 1], [1, 0]]}}
        s = structure_from_json(json.dumps(doc))
        assert s == catalog.graph(4, [(0, 1)])
        assert structure_to_dict(s) == {
            "signature": doc["signature"], "size": 4,
            "relations": {"E": [[0, 1], [1, 0]]}}

    def test_dot_graph(self):
        dot = structure_to_dot(catalog.complete_graph(2))
        assert dot.startswith("graph G {")
        assert "0 -- 1" in dot

    def test_dot_digraph(self):
        dot = structure_to_dot(catalog.oriented_graph(2, [(0, 1)]))
        assert dot.startswith("digraph G {")
        assert "0 -> 1" in dot

    def test_json_deterministic(self):
        s = catalog.cycle_graph(5)
        assert structure_to_json(s) == structure_to_json(
            structure_from_json(structure_to_json(s)))
