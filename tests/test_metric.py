import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from ramsey_forge.metric import (
    EQUILATERAL,
    ISOSCELES,
    NON_METRIC,
    DistanceSet,
    FinMetricSpace,
    IntegrityError,
    MetricError,
    approx,
    are_isometric,
    blocks,
    check_4values,
    choose_sigma,
    classify_triple,
    enumerate_isometric_embeddings,
    is_compact,
    is_metric_triple,
    is_ultrametric,
    jump_numbers,
    ll,
    metric_from_json,
    metric_to_json,
    metric_to_kgraph,
    recover_quotient_space,
    rescale,
    sap_amalgamate_metL,
    sim_partition,
    spans,
    star_embed,
    star_transform,
)
from ramsey_forge.structures import enumerate_embeddings

from conftest import (
    fraction_blocks,
    fraction_check_4values,
    fraction_classify_triple,
    fraction_is_compact,
    fraction_metric_triple,
)

S = DistanceSet.make([0, 1, 2, 5, 6])


def fixture_space():
    """Two tight pairs far apart: classes {0,1} and {2,3}."""
    return FinMetricSpace.make([0, 1, 2, 5, 6], [
        [0, 1, 5, 5],
        [1, 0, 5, 5],
        [5, 5, 0, 2],
        [5, 5, 2, 0],
    ])


class TestBlocks:
    def test_jumps_and_blocks(self):
        assert jump_numbers(S) == (Fraction(0), Fraction(2), Fraction(6))
        bp = blocks(S)
        assert bp.blocks == ((Fraction(0),), (Fraction(1), Fraction(2)),
                             (Fraction(5), Fraction(6)))

    def test_two_point_set(self):
        s = DistanceSet.make([0, 1])
        assert jump_numbers(s) == (Fraction(0), Fraction(1))
        assert blocks(s).blocks == ((Fraction(0),), (Fraction(1),))

    def test_no_internal_jumps(self):
        s = DistanceSet.make([0, 1, 2, 3])
        assert jump_numbers(s) == (Fraction(0), Fraction(3))
        assert blocks(s).blocks == ((Fraction(0),),
                                    (Fraction(1), Fraction(2), Fraction(3)))

    def test_validation(self):
        with pytest.raises(MetricError):
            DistanceSet.make([1, 2])
        with pytest.raises(MetricError):
            DistanceSet.make([0, 2, 2])


class TestApproxAndBelow:
    def test_same_block(self):
        assert approx(S, 1, 2)

    def test_different_blocks(self):
        assert not approx(S, 2, 5)
        assert ll(S, 2, 5)

    def test_never_below_itself(self):
        for x in S.positive:
            assert not ll(S, x, x)

    def test_zero_rejected(self):
        with pytest.raises(MetricError, match="approx is defined on positive"):
            approx(S, 0, 1)
        with pytest.raises(MetricError, match="ll is defined on positive"):
            ll(S, 1, 0)

    def test_non_member_rejected(self):
        with pytest.raises(MetricError, match="3 is not a member"):
            approx(S, 3, 1)


class TestMetricTriple:
    def test_examples(self):
        assert is_metric_triple(1, 5, 6)
        assert not is_metric_triple(1, 1, 5)
        for x in (1, 2, 7):
            assert is_metric_triple(x, x, x)

    def test_nonpositive_rejected(self):
        with pytest.raises(MetricError):
            is_metric_triple(0, 1, 1)


class TestCompact:
    def test_fixture_compact(self):
        assert is_compact(S) == (True, None)

    def test_arithmetic_progression_not_compact(self):
        ok, ce = is_compact(DistanceSet.make([0, 1, 2, 3]))
        assert not ok and ce == (Fraction(1), Fraction(3))

    def test_two_values_trivially_compact(self):
        assert is_compact(DistanceSet.make([0, 7]))[0]

    def test_one_sided_lemma_every_set(self):
        # close values always share a block, compact or not
        for r in range(1, 5):
            for combo in itertools.combinations(range(1, 13), r):
                s = DistanceSet.make((0,) + combo)
                bp = blocks(s)
                for x, y in itertools.combinations(s.positive, 2):
                    if abs(x - y) <= s.s1:
                        assert bp.block_index(x) == bp.block_index(y)

    def test_singleton_set_rejected(self):
        with pytest.raises(MetricError):
            is_compact(DistanceSet.make([0]))

    def test_block_index_reads_exact_values(self):
        bp = blocks(S)
        assert bp.block_index("5/1") == bp.block_index(5) == bp.block_index(Fraction(5))
        with pytest.raises(MetricError, match="not an exact rational"):
            bp.block_index(5.0)


class TestClassify:
    def test_equilateral(self):
        assert classify_triple(S, 1, 2, 2) == EQUILATERAL

    def test_isosceles(self):
        assert classify_triple(S, 1, 5, 6) == ISOSCELES

    def test_non_metric(self):
        assert classify_triple(S, 1, 1, 5) == NON_METRIC

    def test_agrees_with_triangle_inequalities(self):
        for a, b, c in itertools.combinations_with_replacement(S.positive, 3):
            metric_by_blocks = classify_triple(S, a, b, c) != NON_METRIC
            assert metric_by_blocks == is_metric_triple(a, b, c)

    def test_requires_compact(self):
        with pytest.raises(MetricError):
            classify_triple(DistanceSet.make([0, 1, 2, 3]), 1, 2, 3)

    @pytest.mark.parametrize("triple", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (5, 6, 0),
                                        ("0", "1/1", 2), (-1, 1, 1)])
    def test_nonpositive_rejected(self, triple):
        with pytest.raises(MetricError, match="positive values only"):
            classify_triple(S, *triple)


class TestFourValues:
    def test_fixture(self):
        assert check_4values(S) == (True, None)

    def test_single_positive_value(self):
        assert check_4values(DistanceSet.make([0, 3]))[0]

    def test_compact_sets_always_pass(self):
        for r in range(1, 5):
            for combo in itertools.combinations(range(1, 13), r):
                s = DistanceSet.make((0,) + combo)
                if is_compact(s)[0]:
                    assert check_4values(s)[0]

    def test_counterexample_reported_when_failing(self):
        # {0, 1, 3, 4}: (3,4) joined by p=4? find any failure honestly
        for combo in [(1, 3, 4), (2, 3, 8), (1, 2, 3, 10)]:
            s = DistanceSet.make((0,) + combo)
            ok, ce = check_4values(s)
            if not ok:
                a, b, c, d, p = ce
                assert is_metric_triple(a, b, p) and is_metric_triple(c, d, p)
                assert not any(
                    is_metric_triple(a, c, q) and is_metric_triple(b, d, q)
                    for q in s.positive)


def _integer_sets():
    """Every {0} + S with S a nonempty subset of {1..12} of at most 5."""
    return [(Fraction(0),) + tuple(map(Fraction, combo))
            for r in range(1, 6) for combo in itertools.combinations(range(1, 13), r)]


def _rational_sets():
    """500 seeded sets of 1-5 positive values p/q, q in 2..60, mostly with
    a least common denominator above the largest one."""
    rng = random.Random(6)
    out = []
    while len(out) < 500:
        size = rng.randint(1, 5)
        values: set[Fraction] = set()
        while len(values) < size:
            den = rng.randint(2, 60)
            values.add(Fraction(rng.randint(1, 4 * den), den))
        out.append((Fraction(0),) + tuple(sorted(values)))
    return out


class TestIntegerCoreAgainstFractionOracle:
    """The integer core answers as the Fraction definitions in conftest do,
    counterexamples included, and hands out Fractions."""

    @pytest.mark.parametrize("corpus", [_integer_sets, _rational_sets],
                             ids=["integer", "rational"])
    def test_agrees_with_fraction_oracle(self, corpus):
        sets = corpus()
        compact_sets = 0
        for values in sets:
            s = DistanceSet(values)
            jumps, want_blocks = fraction_blocks(values)
            bp = blocks(s)
            assert (jump_numbers(s), bp.jumps, bp.blocks) == (jumps, jumps, want_blocks)
            got = {"is_compact": is_compact(s), "check_4values": check_4values(s)}
            want = {"is_compact": fraction_is_compact(values),
                    "check_4values": fraction_check_4values(values)}
            assert got == want, values
            returned = [*jump_numbers(s), *bp.jumps, *itertools.chain(*bp.blocks),
                        *(v for _, ce in got.values() if ce for v in ce)]
            assert all(type(v) is Fraction for v in returned), values
            if got["is_compact"][0]:
                compact_sets += 1
                for t in itertools.combinations_with_replacement(values[1:], 3):
                    assert classify_triple(s, *t) == fraction_classify_triple(values, *t)
                    assert is_metric_triple(*t) == fraction_metric_triple(*t)
        assert compact_sets >= 300

    def test_scaled_values_stay_private(self):
        a = DistanceSet.make([0, "1/2", "5/3"])
        b = DistanceSet((Fraction(0), Fraction(1, 2), Fraction(5, 3)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == ("DistanceSet(values=(Fraction(0, 1), Fraction(1, 2), "
                           "Fraction(5, 3)))")
        assert a != DistanceSet.make([0, "1/2", 2])

    @pytest.mark.parametrize("value", [True, 1.5, "x", "1/0", None],
                             ids=["bool", "float", "malformed", "zero-den", "none"])
    def test_inexact_or_malformed_value_rejected(self, value):
        with pytest.raises(MetricError):
            DistanceSet.make([0, value])
        with pytest.raises(MetricError):
            is_metric_triple(1, 1, value)

    def test_values_must_be_fractions(self):
        with pytest.raises(MetricError):
            DistanceSet((0, 1))


class TestFinMetricSpace:
    def test_triangle_violation_rejected(self):
        with pytest.raises(MetricError):
            FinMetricSpace.make([0, 1, 5], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(MetricError):
            FinMetricSpace.make([0, 1, 2], [[0, 1], [2, 0]])

    def test_spectrum_must_be_declared(self):
        with pytest.raises(MetricError):
            FinMetricSpace.make([0, 1], [[0, 2], [2, 0]])

    def test_json_round_trip(self):
        m = fixture_space()
        assert metric_from_json(metric_to_json(m)) == m
        half = FinMetricSpace.make([0, "1/2", 2],
                                   [[0, "1/2"], ["1/2", 0]])
        assert metric_from_json(metric_to_json(half)) == half


class TestSimPartition:
    def test_one_point(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6], [[0]])
        assert sim_partition(m) == ((0,),)

    def test_fixture_classes(self):
        assert sim_partition(fixture_space()) == ((0, 1), (2, 3))

    def test_far_distances_give_singletons(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6],
                                [[0, 5, 5], [5, 0, 6], [5, 6, 0]])
        assert sim_partition(m) == ((0,), (1,), (2,))


class TestSpans:
    def test_identity_transversal_for_singleton_classes(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6],
                                [[0, 5, 5], [5, 0, 6], [5, 6, 0]])
        assert spans(m, m) == (0, 1, 2)

    def test_fixture_transversal(self):
        l = FinMetricSpace.make([0, 5, 6], [[0, 5], [5, 0]])
        assert spans(l, fixture_space()) == (0, 2)

    def test_wrong_size_gives_none(self):
        l = FinMetricSpace.make([0, 5, 6], [[0, 5, 5], [5, 0, 5], [5, 5, 0]])
        assert spans(l, fixture_space()) is None

    def test_first_block_spectrum_rejected(self):
        bad = FinMetricSpace.make([0, 1, 2, 5, 6], [[0, 1], [1, 0]])
        with pytest.raises(MetricError):
            spans(bad, fixture_space())


class TestSapAmalgamate:
    def test_trivial_no_new_points(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6], [[0, 5], [5, 0]])
        l = FinMetricSpace.make([0, 5, 6], [[0, 5], [5, 0]])
        amalgam, _, _ = sap_amalgamate_metL(m, m, m, (0, 1), (0, 1), l)
        assert amalgam.d == m.d

    def test_cross_class_case(self):
        s = [0, 1, 2, 5, 6]
        m = FinMetricSpace.make(s, [[0, 5], [5, 0]])
        mp = FinMetricSpace.make(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        mpp = FinMetricSpace.make(s, [[0, 5, 6], [5, 0, 2], [6, 2, 0]])
        l = FinMetricSpace.make([0, 5, 6], [[0, 5], [5, 0]])
        amalgam, ip, ipp = sap_amalgamate_metL(m, mp, mpp, (0, 1), (0, 1), l)
        assert amalgam.d[ip[2]][ipp[2]] == Fraction(5)

    def test_same_class_case(self):
        s = [0, 1, 2, 5, 6]
        m = FinMetricSpace.make(s, [[0, 5], [5, 0]])
        mp = FinMetricSpace.make(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        mpp = FinMetricSpace.make(s, [[0, 5, 2], [5, 0, 5], [2, 5, 0]])
        l = FinMetricSpace.make([0, 5, 6], [[0, 5], [5, 0]])
        amalgam, ip, ipp = sap_amalgamate_metL(m, mp, mpp, (0, 1), (0, 1), l)
        assert amalgam.d[ip[2]][ipp[2]] == Fraction(1)

    def test_corpus_all_postconditions(self, metric_corpus):
        # validity, isometric inclusions, exact overlap and span are all
        # asserted inside the operation; here we just drive the corpus
        for m, mp, mpp, f, g, l in metric_corpus:
            amalgam, ip, ipp = sap_amalgamate_metL(m, mp, mpp, f, g, l)
            assert amalgam.size == mp.size + mpp.size - m.size

    def test_span_precondition_enforced(self):
        s = [0, 1, 2, 5, 6]
        m = FinMetricSpace.make(s, [[0, 5], [5, 0]])
        l_wrong = FinMetricSpace.make([0, 5, 6], [[0, 6], [6, 0]])
        with pytest.raises(MetricError):
            sap_amalgamate_metL(m, m, m, (0, 1), (0, 1), l_wrong)

    @pytest.mark.parametrize("f", [(-3, 1), (0, 3), (1, 1), (0, "1")],
                             ids=["negative", "past-the-end", "not-injective",
                                  "not-an-int"])
    def test_bad_map_is_usage_not_integrity_error(self, f):
        s = [0, 1, 2, 5, 6]
        m = FinMetricSpace.make(s, [[0, 5], [5, 0]])
        mp = FinMetricSpace.make(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        mpp = FinMetricSpace.make(s, [[0, 5, 6], [5, 0, 2], [6, 2, 0]])
        with pytest.raises(MetricError) as caught:
            sap_amalgamate_metL(m, mp, mpp, f, (0, 1), m)
        assert not isinstance(caught.value, IntegrityError)

    def test_non_compact_rejected(self):
        s = DistanceSet.make([0, 1, 2, 3, 7])
        assert not is_compact(s)[0]
        m = FinMetricSpace.make(s, [[0, 7], [7, 0]])
        l = FinMetricSpace.make([0, 3, 7], [[0, 7], [7, 0]])
        with pytest.raises(MetricError):
            sap_amalgamate_metL(m, m, m, (0, 1), (0, 1), l)


class TestChooseSigma:
    def test_fixture_values(self):
        choice = choose_sigma(S)
        assert choice.sigma.values == (
            Fraction(0), Fraction(13, 12), Fraction(14, 12), Fraction(15, 12),
            Fraction(16, 12), Fraction(17, 12), Fraction(18, 12))
        assert choice.eps == Fraction(17, 12)
        assert choice.zeta == Fraction(18, 12)

    def test_one_nontrivial_block(self):
        for values in [(0, 1, 2, 5, 6), (0, 1, 3), (0, 2, 3, 7, 8, 20)]:
            choice = choose_sigma(DistanceSet.make(values))
            assert len(blocks(choice.sigma).nontrivial) == 1
            assert is_compact(choice.sigma)[0]

    def test_order_isomorphism(self):
        choice = choose_sigma(S)
        lower = [b for _, b in choice.xi]
        assert lower == sorted(lower)
        assert len(choice.xi) == len(S)
        assert choice.backward(choice.forward(Fraction(5))) == Fraction(5)

    def test_lookups_agree_with_the_listing(self):
        choice = choose_sigma(S)
        image = dict(choice.xi)
        preimage = {b: a for a, b in choice.xi}
        for v in S.values:
            assert choice.forward(v) == image[v]
        for v in choice.sigma.values:
            if v in preimage:
                assert choice.backward(v) == preimage[v]
        with pytest.raises(MetricError):
            choice.forward(3)
        # the two extra levels, and a base value that sigma lacks
        for v in (choice.eps, choice.zeta, Fraction(5)):
            with pytest.raises(MetricError):
                choice.backward(v)


class TestStarTransform:
    def test_one_point_space(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6], [[0]])
        star = star_transform(m)
        assert star.space.size == 2
        assert star.space.d[0][1] == star.choice.eps

    def test_fixture_star(self):
        star = star_transform(fixture_space())
        assert star.space.size == 6
        choice = star.choice
        # class points of {0,1} and {2,3} sit at the image of the least
        # value of the far block
        assert star.space.d[4][5] == choice.forward(Fraction(5))
        for x in range(4):
            own = 4 if x < 2 else 5
            other = 9 - own
            assert star.space.d[x][own] == choice.eps
            assert star.space.d[x][other] == choice.zeta

    def test_output_spectrum_one_block(self):
        star = star_transform(fixture_space())
        assert len(blocks(star.space.dset).nontrivial) == 1

    def test_identity_lift(self):
        star = star_transform(fixture_space())
        lifted = star_embed(tuple(range(4)), star, star)
        assert lifted == tuple(range(6))

    @pytest.mark.parametrize("f", [(0, 1, 2, 4), (0, 1, 2, -1)],
                             ids=["past-the-end", "negative"])
    def test_out_of_range_lift_rejected(self, f):
        star = star_transform(fixture_space())
        with pytest.raises(MetricError):
            star_embed(f, star, star)

    def test_functorial_on_composable_chain(self):
        s = [0, 1, 2, 5, 6]
        small = FinMetricSpace.make(s, [[0, 5], [5, 0]])
        mid = FinMetricSpace.make(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        big = FinMetricSpace.make(s, [
            [0, 5, 1, 2], [5, 0, 5, 5], [1, 5, 0, 2], [2, 5, 2, 0]])
        f = (0, 1)        # small -> mid
        g = (0, 1, 2)     # mid -> big
        gf = tuple(g[v] for v in f)
        choice = choose_sigma(small.dset)
        st_small = star_transform(small, choice)
        st_mid = star_transform(mid, choice)
        st_big = star_transform(big, choice)
        lift_f = star_embed(f, st_small, st_mid)
        lift_g = star_embed(g, st_mid, st_big)
        lift_gf = star_embed(gf, st_small, st_big)
        assert lift_gf == tuple(lift_g[v] for v in lift_f)

    def test_single_block_set_rejected(self):
        m = FinMetricSpace.make([0, 1, 2], [[0, 1], [1, 0]])
        with pytest.raises(MetricError):
            star_transform(m)


class TestRecovery:
    def test_round_trip_exact_on_fixture(self):
        m = fixture_space()
        star = star_transform(m)
        recovered, kept = recover_quotient_space(star.space,
                                                 star.class_points,
                                                 star.choice)
        assert kept == tuple(range(4))
        assert recovered.d == m.d

    def test_round_trip_quotient_data(self, metric_corpus):
        seen = 0
        for _, mp, _, _, _, _ in metric_corpus[:40]:
            star = star_transform(mp)
            recovered, _ = recover_quotient_space(star.space,
                                                  star.class_points,
                                                  star.choice)
            cls_m = sim_partition(mp)
            cls_r = sim_partition(recovered)
            assert tuple(len(c) for c in cls_m) == tuple(len(c) for c in cls_r)
            for (c1, c2), (r1, r2) in zip(
                    itertools.combinations(cls_m, 2),
                    itertools.combinations(cls_r, 2)):
                assert mp.d[c1[0]][c2[0]] == recovered.d[r1[0]][r2[0]]
            seen += 1
        assert seen == 40

    def test_round_trip_over_a_wider_declared_set(self):
        star = star_transform(fixture_space())
        wider = DistanceSet.make([*star.choice.sigma.values, 2])
        w = FinMetricSpace(wider, star.space.d)
        recovered, kept = recover_quotient_space(w, star.class_points, star.choice)
        assert kept == tuple(range(4))
        assert recovered.d == fixture_space().d

    def test_single_base_point(self):
        m = FinMetricSpace.make([0, 1, 2, 5, 6], [[0]])
        star = star_transform(m)
        recovered, kept = recover_quotient_space(star.space,
                                                 star.class_points,
                                                 star.choice)
        assert recovered.size == 1 and kept == (0,)

    def test_double_link_is_integrity_error(self):
        choice = choose_sigma(S)
        eps, zeta = choice.eps, choice.zeta
        sigma1 = choice.forward(Fraction(5))
        # one base point at the eps level from BOTH designated points
        w = FinMetricSpace.make(choice.sigma, [
            [0, eps, eps],
            [eps, 0, sigma1],
            [eps, sigma1, 0],
        ])
        with pytest.raises(IntegrityError):
            recover_quotient_space(w, (1, 2), choice)


class TestRescale:
    def test_identity(self):
        m = FinMetricSpace.make([0, 1, 2], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        out = rescale(m, [(0, 0), (1, 1), (2, 2)], m.dset)
        assert out == m

    def test_spec_example(self):
        m = FinMetricSpace.make([0, 1, 2], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert is_ultrametric(m)
        target = DistanceSet.make([0, 3, 7])
        out = rescale(m, [(0, 0), (1, 3), (2, 7)], target)
        assert out.d == ((Fraction(0), Fraction(3), Fraction(7)),
                         (Fraction(3), Fraction(0), Fraction(7)),
                         (Fraction(7), Fraction(7), Fraction(0)))
        assert is_ultrametric(out)

    def test_equilateral(self):
        m = FinMetricSpace.make([0, 4], [[0, 4, 4], [4, 0, 4], [4, 4, 0]])
        out = rescale(m, [(0, 0), (4, 9)], DistanceSet.make([0, 9]))
        assert set(out.spectre()) == {Fraction(0), Fraction(9)}

    def test_target_of_another_size_rejected(self):
        m = FinMetricSpace.make([0, 1, 2], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        with pytest.raises(MetricError):
            rescale(m, [(0, 0), (1, 3), (2, 7)], DistanceSet.make([0, 3, 7, 9]))

    def test_non_ultrametric_rejected(self):
        m = FinMetricSpace.make([0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not is_ultrametric(m)
        with pytest.raises(MetricError):
            rescale(m, [(0, 0), (1, 1), (2, 5)], DistanceSet.make([0, 1, 5]))


class TestKGraphEncoding:
    def test_equilateral_is_monochromatic(self):
        m = FinMetricSpace.make([0, 3, 4], [[0, 3, 3], [3, 0, 3], [3, 3, 0]])
        g = metric_to_kgraph(m)
        assert len(g.rel("E1")) == 6 and not g.rel("E2")

    def test_spec_labeling(self):
        m = FinMetricSpace.make([0, 3, 4], [[0, 3, 3], [3, 0, 4], [3, 4, 0]])
        g = metric_to_kgraph(m)
        assert g.rel("E1") == frozenset({(0, 1), (1, 0), (0, 2), (2, 0)})
        assert g.rel("E2") == frozenset({(1, 2), (2, 1)})

    def test_multi_block_rejected(self):
        with pytest.raises(MetricError):
            metric_to_kgraph(fixture_space())

    def test_homsets_literally_coincide(self):
        values = [Fraction(3), Fraction(4)]
        spaces = []
        for n in range(1, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for combo in itertools.product(values, repeat=len(pairs)):
                d = [[Fraction(0)] * n for _ in range(n)]
                for (x, y), v in zip(pairs, combo):
                    d[x][y] = d[y][x] = v
                spaces.append(FinMetricSpace.make([0, 3, 4], d))
        for m1, m2 in itertools.product(spaces, repeat=2):
            iso_maps = set(enumerate_isometric_embeddings(m1, m2))
            graph_maps = {e.map for e in enumerate_embeddings(
                metric_to_kgraph(m1), metric_to_kgraph(m2))}
            assert iso_maps == graph_maps


class TestIsometryHelpers:
    def test_are_isometric_witness(self):
        m1 = FinMetricSpace.make([0, 3, 4], [[0, 3, 4], [3, 0, 3], [4, 3, 0]])
        m2 = FinMetricSpace.make([0, 3, 4], [[0, 3, 3], [3, 0, 4], [3, 4, 0]])
        ok, f = are_isometric(m1, m2)
        assert ok
        for x in range(3):
            for y in range(3):
                assert m1.d[x][y] == m2.d[f[x]][f[y]]


class TestRationalValuedSets:
    def test_rational_compact_set_classification(self):
        s = DistanceSet.make(["0", "1/2", "1", "5/2", "3"])
        assert is_compact(s)[0]
        bp = blocks(s)
        assert bp.blocks == ((Fraction(0),),
                             (Fraction(1, 2), Fraction(1)),
                             (Fraction(5, 2), Fraction(3)))
        for a, b, c in itertools.combinations_with_replacement(s.positive, 3):
            assert (classify_triple(s, a, b, c) != NON_METRIC) \
                == is_metric_triple(a, b, c)
        assert check_4values(s)[0]

    def test_rational_star_round_trip(self):
        s = ["0", "1/2", "1", "5/2", "3"]
        m = FinMetricSpace.make(s, [
            [0, "1/2", "5/2"],
            ["1/2", 0, "5/2"],
            ["5/2", "5/2", 0],
        ])
        star = star_transform(m)
        recovered, _ = recover_quotient_space(star.space, star.class_points,
                                              star.choice)
        assert recovered.d == m.d


class TestNoModuleStateKeepsSets:
    """The metric operations leave nothing behind that holds a distance set."""

    @staticmethod
    def exercise() -> list:
        # in sevenths, which no other test uses, so that no equal set made
        # earlier in the session can stand in for these in a cache
        def sevenths(values):
            return DistanceSet.make([Fraction(v, 7) for v in values])

        def space(dset, rows):
            return FinMetricSpace.make(dset, [[Fraction(v, 7) for v in row]
                                              for row in rows])

        s = sevenths([0, 1, 2, 5, 6])
        loose, one_block = sevenths([0, 1, 2, 3]), sevenths([0, 3, 4])
        m = space(s, [[0, 5], [5, 0]])
        mp = space(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        mpp = space(s, [[0, 5, 6], [5, 0, 2], [6, 2, 0]])
        assert is_compact(s)[0] and not is_compact(loose)[0]
        assert check_4values(s)[0] and jump_numbers(s) == s.values[::2]
        assert classify_triple(s, *s.values[2:]) == ISOSCELES
        amalgam, _, _ = sap_amalgamate_metL(m, mp, mpp, (0, 1), (0, 1), m)
        star = star_transform(amalgam)
        recovered, _ = recover_quotient_space(star.space, star.class_points,
                                              star.choice)
        assert recovered.d == amalgam.d
        metric_to_kgraph(space(one_block, [[0, 3], [3, 0]]))
        return [weakref.ref(x) for x in (s, loose, one_block, star.choice.sigma)]

    def test_distance_sets_are_released(self):
        refs = self.exercise()
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
