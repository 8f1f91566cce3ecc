import itertools
import json

import pytest

from ramsey_forge import catalog
from ramsey_forge.structures import (
    Embedding,
    FinStructure,
    SignatureMismatchError,
    StructureError,
    are_isomorphic,
    canonical_key,
    compose,
    enumerate_embeddings,
    identity_embedding,
    inclusion_of_restriction,
    is_embedding,
    reduct,
    restriction,
    structure_from_json,
    structure_to_dict,
    structure_to_dot,
    structure_to_json,
)

from conftest import brute_force_embedding_maps, brute_force_isomorphism


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
            assert compose(f, identity_embedding(a)).map == f.map
            assert compose(identity_embedding(b), f).map == f.map


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
                    inc = inclusion_of_restriction(s, subset)
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
    def test_symmetric_tag_enforced(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.GRAPH_SIG, 2, {"E": [(0, 1)]})

    def test_loop_rejected(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.GRAPH_SIG, 2, {"E": [(0, 0), (0, 0)]})

    def test_linear_order_must_be_total(self):
        with pytest.raises(StructureError):
            FinStructure.build(catalog.CHAIN_SIG, 3, {"lt": [(0, 1)]})

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
