import itertools
import random
from math import inf

import pytest
from conftest import seed_check_arrow, seed_exhaustive_min_degree

from ramsey_forge import catalog, universes
from ramsey_forge.arrows import (
    Coloring,
    EmptyHomSetError,
    InternalConsistencyError,
    check_arrow,
    exhaustive_check_arrow,
    exhaustive_min_degree,
    is_bad_coloring,
    min_degree,
    oligo_count,
    oligo_search,
    sierpinski_coloring,
    sierpinski_pattern,
    transfer_check,
)
from ramsey_forge.structures import (
    Embedding,
    FinStructure,
    enumerate_embeddings,
    restriction,
)


def constant_coloring(base_hom, k=2, color=0):
    return Coloring(tuple(base_hom), k, (color,) * len(base_hom))


class TestOligoCount:
    def test_constant_coloring_gives_one(self):
        a, b, c = catalog.chain(2), catalog.chain(3), catalog.chain(6)
        chi = constant_coloring(enumerate_embeddings(a, c))
        for w in enumerate_embeddings(b, c):
            assert oligo_count(chi, w, a) == 1

    def test_empty_pattern_homset_gives_zero(self):
        a = catalog.complete_graph(3)
        b = catalog.cycle_graph(5)  # triangle-free, so hom(A, B) is empty
        # C: a pentagon and a triangle side by side, so both hom-sets to C
        # are nonempty while hom(A, B) stays empty
        c = catalog.graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 6), (6, 7), (7, 5)])
        chi = constant_coloring(enumerate_embeddings(a, c))
        w = enumerate_embeddings(b, c)[0]
        assert oligo_count(chi, w, a) == 0

    def test_pair_sum_parity_example(self):
        a, b, c = catalog.chain(2), catalog.chain(3), catalog.chain(6)
        hom_ac = enumerate_embeddings(a, c)
        # derived by hand: the three pairs inside {0,1,2} have sums 1, 2, 3
        chi = Coloring(hom_ac, 2,
                       tuple((e.map[0] + e.map[1]) % 2 for e in hom_ac))
        w = Embedding(b, c, (0, 1, 2))
        assert oligo_count(chi, w, a) == 2

    def test_foreign_composite_raises(self):
        a, c = catalog.chain(2), catalog.chain(6)
        hom_ac = enumerate_embeddings(a, c)
        truncated = Coloring(hom_ac[:5], 2, (0,) * 5)
        w = Embedding(catalog.chain(3), c, (3, 4, 5))
        with pytest.raises(InternalConsistencyError):
            oligo_count(truncated, w, a)


class TestOligoSearch:
    def test_constant_coloring(self):
        a, b, c = catalog.chain(2), catalog.chain(3), catalog.chain(6)
        chi = constant_coloring(enumerate_embeddings(a, c))
        count, w = oligo_search(chi, b, a, c)
        assert count == 1
        assert w.map == enumerate_embeddings(b, c)[0].map

    def test_single_color_k1(self):
        a, b, c = catalog.chain(2), catalog.chain(3), catalog.chain(5)
        chi = constant_coloring(enumerate_embeddings(a, c), k=1)
        assert oligo_search(chi, b, a, c)[0] == 1

    def test_empty_witness_homset_raises(self):
        a, b, c = catalog.chain(2), catalog.chain(4), catalog.chain(3)
        chi = constant_coloring(enumerate_embeddings(a, c))
        with pytest.raises(EmptyHomSetError):
            oligo_search(chi, b, a, c)

    def test_mixed_subpermutation_minimum_two(self):
        c = universes.rational_chain(8)
        chi = sierpinski_coloring(c)
        pattern = sierpinski_pattern(c)
        mixed = None
        for points in itertools.combinations(range(8), 4):
            b = restriction(c, points)
            if len(set(sierpinski_coloring(b).assignment)) == 2:
                mixed = b
                break
        assert mixed is not None
        count, _ = oligo_search(chi, mixed, pattern, c)
        assert count == 2


class TestCheckArrow:
    def test_six_chain_holds(self):
        v = check_arrow(catalog.chain(6), catalog.chain(3), catalog.chain(2), 2, 1)
        assert v.holds is True

    def test_five_chain_fails_with_verified_witness(self):
        b, a, c = catalog.chain(3), catalog.chain(2), catalog.chain(5)
        v = check_arrow(c, b, a, 2, 1)
        assert v.holds is False
        assert v.witness is not None
        assert is_bad_coloring(v.witness, b, a, c, 1)

    def test_empty_base_homset_vacuous(self):
        # no embeddings of a 3-chain into a 2-chain: nothing to color, and
        # the 2-chain still receives B, so any w is a witness
        v = check_arrow(catalog.chain(2), catalog.chain(2), catalog.chain(3),
                        2, 1)
        assert v.holds is True

    def test_both_homsets_empty_still_needs_a_witness(self):
        # the arrow definition demands some w even for the empty coloring;
        # with B not embedding in C the arrow fails (this is exactly what
        # keeps the transfer implications violation-free)
        v = check_arrow(catalog.chain(1), catalog.chain(3), catalog.chain(2),
                        2, 1)
        assert v.holds is False
        assert v.witness is not None and v.witness.assignment == ()

    def test_no_witness_embedding_fails(self):
        # copies of A exist but B does not embed at all
        v = check_arrow(catalog.chain(2), catalog.chain(4), catalog.chain(2),
                        2, 1)
        assert v.holds is False
        assert is_bad_coloring(v.witness, catalog.chain(4), catalog.chain(2),
                               catalog.chain(2), 1)

    def test_budget_exhaustion_is_undecided(self):
        v = check_arrow(catalog.chain(6), catalog.chain(3), catalog.chain(2),
                        2, 1, budget=5)
        assert v.holds is None
        assert not v.decided

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            check_arrow(catalog.chain(3), catalog.chain(2), catalog.chain(1),
                        0, 1)
        with pytest.raises(ValueError):
            check_arrow(catalog.chain(3), catalog.chain(2), catalog.chain(1),
                        2, 0)

    def test_monotone_in_t(self):
        a, b = catalog.chain(2), catalog.chain(3)
        for nc in range(3, 7):
            c = catalog.chain(nc)
            for k in (2, 3):
                prev = False
                for t in (1, 2, 3):
                    holds = check_arrow(c, b, a, k, t).holds
                    assert not (prev and not holds)
                    prev = holds

    def test_antimonotone_in_k(self):
        # fewer colors keep an arrow: C -> (B)^A_{k',t} gives C -> (B)^A_{k,t}
        # for every k < k'
        a, b = catalog.chain(2), catalog.chain(3)
        implied = 0
        for nc in range(3, 7):
            c = catalog.chain(nc)
            for t in (1, 2):
                holds = {k: check_arrow(c, b, a, k, t).holds for k in (2, 3, 4)}
                for k, wider in itertools.combinations((2, 3, 4), 2):
                    if holds[wider]:
                        assert holds[k] is True
                        implied += 1
        assert implied >= 6  # chain5 and chain6 hold at t = 2 for every k

    @pytest.mark.parametrize("t", [1, 2])
    def test_huge_k_searches_as_k_equal_to_the_hom_set(self, t):
        # restricted growth never opens more colors than there are elements
        c, b, a = catalog.chain(5), catalog.chain(3), catalog.chain(2)
        n = len(enumerate_embeddings(a, c))
        huge = check_arrow(c, b, a, 10 ** 9, t)
        same = check_arrow(c, b, a, n, t)
        assert (huge.holds, huge.nodes) == (same.holds, same.nodes)
        assert huge.witness.assignment == same.witness.assignment

    @pytest.mark.parametrize("t", [1, 2])
    def test_huge_k_past_maxsize_searches_as_k_equal_to_the_hom_set(self, t):
        # k does not fit a machine word: nothing may be sized by k
        c, b, a = catalog.chain(5), catalog.chain(3), catalog.chain(2)
        n = len(enumerate_embeddings(a, c))
        huge = check_arrow(c, b, a, 10 ** 30, t)
        same = check_arrow(c, b, a, n, t)
        assert (huge.holds, huge.nodes) == (same.holds, same.nodes)
        assert huge.witness.assignment == same.witness.assignment

    def test_deep_instance_needs_no_recursion(self):
        # 1200 positions on one branch, past Python's recursion limit
        c = catalog.path_graph(1200)
        b, a = catalog.complete_graph(2), catalog.empty_graph(1)
        v = check_arrow(c, b, a, 2, 1, budget=10 ** 5)
        assert v.holds is False and v.nodes == 1800
        colors = v.witness.assignment
        assert all(colors[x] != colors[x + 1] for x in range(1199))
        assert is_bad_coloring(v.witness, b, a, c, 1)

    def test_oracle_equivalence_small_mixed_pool(self):
        for c, b, a in MIXED_POOL:
            n = len(enumerate_embeddings(a, c))
            if n > 16:
                continue
            for k in (2, 3):
                # the oracle's threshold, once per k: the arrow holds at t
                # exactly when t reaches it
                degree = exhaustive_min_degree(c, b, a, k)
                for t in (1, 2):
                    assert check_arrow(c, b, a, k, t).holds == (t >= degree)


# (C, B, A) triples of mixed kinds, checked against the oracle
MIXED_POOL = (
    (catalog.chain(5), catalog.chain(3), catalog.chain(2)),
    (catalog.chain(6), catalog.chain(3), catalog.chain(2)),
    (catalog.complete_graph(4), catalog.complete_graph(3),
     catalog.complete_graph(2)),
    (catalog.cycle_graph(5), catalog.path_graph(3),
     catalog.complete_graph(2)),
    (catalog.empty_graph(4), catalog.empty_graph(2),
     catalog.empty_graph(1)),
)


def random_structure(kind, n, rng):
    """A seeded random member of ``kind`` on ``n`` points."""
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "graphs":
        return catalog.graph(n, [p for p in pairs if rng.random() < 0.5])
    if kind == "oriented-graphs":
        arcs = [p if rng.random() < 0.5 else p[::-1]
                for p in pairs if rng.random() < 2 / 3]
        return catalog.oriented_graph(n, arcs)
    if kind == "tournaments":
        return catalog.oriented_graph(
            n, [p if rng.random() < 0.5 else p[::-1] for p in pairs])
    # posets: the transitive closure of random pairs along a random order
    order = list(range(n))
    rng.shuffle(order)
    below = {(order[i], order[j]) for i, j in pairs if rng.random() < 0.4}
    for mid in order:
        below |= {(x, z) for x, y in below if y == mid
                  for y2, z in below if y2 == mid}
    return FinStructure.build(catalog.POSET_SIG, n, {"po": sorted(below)})


# (n, b, a, k): chain(n) -> (chain b)^(chain a)_{k,1}, the rungs of the
# arrow-ladder benchmark; the capped ones stay undecided within 10^5 nodes
DECIDED_RUNGS = ((5, 3, 2, 2), (6, 3, 2, 2), (5, 3, 2, 3), (6, 3, 2, 3),
                 (6, 4, 2, 2), (7, 4, 2, 2), (6, 4, 3, 2))
CAPPED_RUNGS = ((10, 4, 2, 2), (10, 3, 2, 3), (12, 4, 3, 2))
# (n, b, a, k, t) with t > 1: groups of up to 10 elements, so a room can
# start six levels above tight
WIDE_ROOM_CHAINS = ((5, 3, 2, 3, 2), (6, 4, 2, 3, 2), (7, 4, 2, 3, 2),
                    (6, 4, 3, 3, 2), (7, 5, 3, 3, 2), (6, 4, 2, 4, 2),
                    (6, 4, 2, 4, 3), (7, 4, 2, 4, 3), (7, 5, 2, 4, 3))


def relabelled_chain(n, rng):
    """chain(n) with its points listed in a seeded random order."""
    order = list(range(n))
    rng.shuffle(order)
    return FinStructure.build(catalog.CHAIN_SIG, n,
                              {"lt": catalog.linear_order_pairs(order)})


class TestSearchAgainstSeed:
    """``check_arrow`` returns the seed search's verdict, witness and node
    count: same element order, color order and node counting."""

    def test_decided_rungs_relabelled(self):
        rng = random.Random(9)
        for n, b, a, k in DECIDED_RUNGS:
            for _ in range(3):
                c = relabelled_chain(n, rng)
                for budget in (50, 500, 10 ** 5):
                    args = (c, catalog.chain(b), catalog.chain(a), k, 1, budget)
                    assert check_arrow(*args) == seed_check_arrow(*args)

    def test_capped_rungs_spend_the_budget(self):
        for n, b, a, k in CAPPED_RUNGS:
            args = (catalog.chain(n), catalog.chain(b), catalog.chain(a), k, 1,
                    2 * 10 ** 4)
            v = check_arrow(*args)
            assert v.holds is None and v.nodes == 20001
            assert v == seed_check_arrow(*args)

    def test_capped_rungs_relabelled_cut_mid_search(self):
        # 120 to 495 groups, so the group masks span several machine words
        rng = random.Random(17)
        for n, b, a, k in CAPPED_RUNGS:
            for _ in range(2):
                args = (relabelled_chain(n, rng), catalog.chain(b),
                        catalog.chain(a), k, 1, rng.randint(1, 2 * 10 ** 4))
                v = check_arrow(*args)
                assert v.holds is None and v == seed_check_arrow(*args)

    def test_wide_rooms_at_t_above_one(self):
        rng = random.Random(23)
        decided = 0
        for n, b, a, k, t in WIDE_ROOM_CHAINS:
            c = relabelled_chain(n, rng)
            for budget in (rng.randint(1, 100), 2 * 10 ** 4):
                args = (c, catalog.chain(b), catalog.chain(a), k, t, budget)
                v = check_arrow(*args)
                assert v == seed_check_arrow(*args)
                decided += v.decided
        # most short budgets cut the search, most long ones decide it
        assert 8 <= decided <= 12

    @pytest.mark.parametrize("n,b,a,k", [(6, 3, 2, 2), (9, 4, 2, 2),
                                         (7, 4, 3, 2)])
    def test_budget_at_the_node_count(self, n, b, a, k):
        args = (catalog.chain(n), catalog.chain(b), catalog.chain(a), k, 1)
        full = seed_check_arrow(*args)
        assert full.decided
        exact = check_arrow(*args, budget=full.nodes)
        assert exact == full
        short = check_arrow(*args, budget=full.nodes - 1)
        assert short == seed_check_arrow(*args, budget=full.nodes - 1)
        assert short.holds is None and short.nodes == full.nodes

    @pytest.mark.parametrize("kind", ["graphs", "oriented-graphs",
                                      "tournaments", "posets"])
    def test_random_instances(self, kind):
        rng = random.Random(kind)
        klass = catalog.CLASSES[kind]
        searched = 0
        for _ in range(120):
            c = random_structure(kind, rng.randint(4, 8), rng)
            b = rng.choice(klass.members(rng.choice((2, 3))))
            a = rng.choice(klass.members(rng.choice((1, 2))))
            k, t = rng.randint(2, 4), rng.randint(1, 2)
            budget = rng.choice((rng.randint(10, 200), rng.randint(200, 20000)))
            v = check_arrow(c, b, a, k, t, budget)
            assert v == seed_check_arrow(c, b, a, k, t, budget)
            searched += v.nodes > 0
        assert searched >= 30

    def test_negative_budget_tries_one_node(self):
        args = (catalog.chain(6), catalog.chain(3), catalog.chain(2), 2, 1, -3)
        v = check_arrow(*args)
        assert v == seed_check_arrow(*args) and v.nodes == 1


class TestArrowLadder:
    """Node counts in the natural labelling, pinned so that a change to
    the search order or the pruning must update them on purpose."""

    @pytest.mark.parametrize("n,b,a,k,holds,nodes", [
        (6, 3, 2, 2, True, 987),
        (9, 4, 2, 2, False, 12474),
        (8, 3, 2, 3, False, 87726),
        (7, 4, 3, 2, False, 22647),
    ])
    def test_pinned_node_counts(self, n, b, a, k, holds, nodes):
        c, bb, aa = catalog.chain(n), catalog.chain(b), catalog.chain(a)
        v = check_arrow(c, bb, aa, k, 1, budget=10 ** 6)
        assert (v.holds, v.nodes) == (holds, nodes)
        if not holds:
            assert is_bad_coloring(v.witness, bb, aa, c, 1)


class TestExhaustiveOracle:
    def test_min_degree_values(self):
        a, b = catalog.chain(2), catalog.chain(3)
        assert exhaustive_min_degree(catalog.chain(6), b, a, 2) == 1
        assert exhaustive_min_degree(catalog.chain(5), b, a, 2) == 2

    def test_no_witness_is_infinite(self):
        assert exhaustive_min_degree(catalog.chain(2), catalog.chain(4),
                                     catalog.chain(2), 2) == inf

    def test_nothing_to_color_is_zero(self):
        assert exhaustive_min_degree(catalog.chain(2), catalog.chain(2),
                                     catalog.chain(3), 2) == 0

    def test_past_int64_rows_is_undecided(self):
        # 3^45 colorings of hom(chain2, chain10), one past the budget
        assert exhaustive_check_arrow(catalog.chain(10), catalog.chain(3),
                                      catalog.chain(2), 3, 1,
                                      budget=3 ** 45 - 1) is None

    def test_past_int64_rows_settled_by_the_bound(self):
        # 2^66 colorings of hom(chain2, chain3); each group has one
        # element, so the first coloring reaches the bound
        assert exhaustive_min_degree(catalog.chain(3), catalog.chain(2),
                                     catalog.chain(2), 2 ** 22) == 1

    def test_matches_the_seed_oracle(self):
        # criterion 1's chain range, the mixed pool and 60 seeded random
        # graph triples, at every k up to 4 with at most 10^6 colorings
        rng = random.Random(21)
        graphs = []
        for _ in range(60):
            c = random_structure("graphs", rng.randint(3, 6), rng)
            b = random_structure("graphs", rng.randint(2, 3), rng)
            a = restriction(b, rng.sample(range(b.size), rng.randint(1, 2)))
            graphs.append((c, b, a))
        chains = [(catalog.chain(nc), catalog.chain(nb), catalog.chain(na))
                  for nc, nb, na in itertools.product(range(7), range(4),
                                                      range(3))]
        for c, b, a in chains + list(MIXED_POOL) + graphs:
            n = len(enumerate_embeddings(a, c))
            for k in (1, 2, 3, 4):
                if k ** n <= 10 ** 6:
                    got = exhaustive_min_degree(c, b, a, k)
                    want = seed_exhaustive_min_degree(c, b, a, k)
                    assert got == want, (c, b, a, k)


class TestMinDegree:
    def test_classic_values(self):
        a, b = catalog.chain(2), catalog.chain(3)
        assert min_degree(catalog.chain(6), b, a, 2) == 1
        assert min_degree(catalog.chain(5), b, a, 2) == 2

    def test_bounded_by_pattern_homset(self):
        # C = B: the degree can never exceed |hom(A, B)| or k
        a = catalog.chain(2)
        b = catalog.chain(3)
        hom_ab = len(enumerate_embeddings(a, b))
        for k in (2, 3, 5):
            d = min_degree(b, b, a, k)
            assert d is not None and d <= min(k, hom_ab)

    def test_empty_witness_raises(self):
        with pytest.raises(EmptyHomSetError):
            min_degree(catalog.chain(2), catalog.chain(4), catalog.chain(2), 2)


class TestSierpinski:
    def test_identity_all_agree(self):
        chi = sierpinski_coloring(catalog.permutation_structure([0, 1, 2]))
        assert set(chi.assignment) == {0}
        assert chi.k == 2

    def test_reversal_all_disagree(self):
        chi = sierpinski_coloring(catalog.permutation_structure([2, 1, 0]))
        assert set(chi.assignment) == {1}

    def test_rational_segment_uses_both_colors(self):
        chi = sierpinski_coloring(universes.rational_chain(8))
        assert set(chi.assignment) == {0, 1}

    def test_missing_second_order_rejected(self):
        from ramsey_forge.structures import StructureError
        with pytest.raises(StructureError):
            sierpinski_coloring(catalog.chain(3))


class TestTransfer:
    """C -> (B)^A, C -> C2 and B2 -> B give C2 -> (B2)^A."""

    def test_direction_a_chains(self):
        # transfer (a): a larger C2, the same B
        b = catalog.chain(3)
        assert transfer_check(catalog.chain(6), b, catalog.chain(2),
                              catalog.chain(7), b, 2, 1) is True

    def test_direction_b_identity(self):
        c, b = catalog.chain(6), catalog.chain(3)
        assert transfer_check(c, b, catalog.chain(2), c, b, 2, 1) is True

    def test_direction_b_smaller_target(self):
        # transfer (b): the same C, a smaller B2
        c = catalog.chain(6)
        assert transfer_check(c, catalog.chain(3), catalog.chain(2),
                              c, catalog.chain(2), 2, 1) is True

    def test_both_embeddings_proper(self):
        assert transfer_check(catalog.chain(6), catalog.chain(3),
                              catalog.chain(2), catalog.chain(7),
                              catalog.chain(2), 2, 1) is True

    def test_false_premise_is_vacuous(self):
        # chain(5) -> (3)^2_2 fails, as R(3, 3) = 6
        c = catalog.chain(5)
        b, a = catalog.chain(3), catalog.chain(2)
        assert check_arrow(c, b, a, 2, 1).holds is False
        assert transfer_check(c, b, a, catalog.chain(6), b, 2, 1) is True

    def test_undecided_premise(self):
        assert transfer_check(catalog.chain(6), catalog.chain(3),
                              catalog.chain(2), catalog.chain(7),
                              catalog.chain(3), 2, 1, budget=1) is None

    def test_empty_homset_precondition(self):
        c, b, a = catalog.chain(6), catalog.chain(3), catalog.chain(2)
        with pytest.raises(EmptyHomSetError):
            transfer_check(c, b, a, c, catalog.chain(5), 2, 1)
        with pytest.raises(EmptyHomSetError):
            transfer_check(c, b, a, catalog.chain(5), b, 2, 1)


class TestColoringValidation:
    def test_color_out_of_range(self):
        hom = enumerate_embeddings(catalog.chain(2), catalog.chain(3))
        with pytest.raises(ValueError):
            Coloring(hom, 2, (0, 1, 2))

    def test_partial_assignment(self):
        hom = enumerate_embeddings(catalog.chain(2), catalog.chain(3))
        with pytest.raises(ValueError):
            Coloring(hom, 2, (0,))

    def test_index_is_not_an_argument(self):
        hom = enumerate_embeddings(catalog.chain(2), catalog.chain(3))
        with pytest.raises(TypeError):
            Coloring(hom, 2, (0, 0, 0), _index={})
