import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ramsey_forge import catalog, universes
from ramsey_forge.structures import (
    SignatureMismatchError,
    first_embedding,
    restriction,
)
from ramsey_forge.universes import (
    KINDS,
    UniversalityEntry,
    acyclic_triangle_free,
    acyclic_universal,
    check_extension_property,
    check_universal,
    generate,
    henson3,
    ordered_rado,
    permutational_poset,
    rado,
    rational_chain,
    rational_point,
)

from conftest import recursive_rational_point

ROOT = Path(__file__).resolve().parent.parent


class TestRado:
    def test_rado_4_edges(self):
        # bits of 1, 2, 3 read off directly
        got = {t for t in rado(4).rel("E") if t[0] < t[1]}
        assert got == {(0, 1), (0, 3), (1, 2), (1, 3)}

    def test_single_vertex(self):
        assert rado(1).size == 1 and not rado(1).rel("E")

    def test_two_vertices_single_edge(self):
        assert {t for t in rado(2).rel("E")} == {(0, 1), (1, 0)}

    def test_ordered_variant_carries_natural_order(self):
        s = ordered_rado(5)
        assert s.rel("E") == rado(5).rel("E")
        assert s.rel("omega") == frozenset(
            (i, j) for i in range(5) for j in range(5) if i < j)

    def test_bit_segments_match_the_pairwise_definition(self):
        # segment n adds the pairs of point n - 1 with the points below it,
        # each ordered pair tested with _bit_edge.  ordered_rado's edges are
        # rado's; its order costs O(n²) to revalidate, so it is built at
        # fewer sizes
        e: set = set()
        for n in range(301):
            if n:
                j = n - 1
                e.update(p for i in range(j) if universes._bit_edge(i, j)
                         for p in ((i, j), (j, i)))
            assert rado(n).size == acyclic_universal(n).size == n
            assert rado(n).rel("E") == e
            if n <= 64 or n == 300:
                assert ordered_rado(n).rel("E") == e
            assert acyclic_universal(n).rel("arc") == {(i, j) for i, j in e if i < j}


class TestAcyclicUniversal:
    def test_orientation_of_rado_4(self):
        assert acyclic_universal(4).rel("arc") == frozenset(
            {(0, 1), (0, 3), (1, 2), (1, 3)})

    def test_two_vertices(self):
        assert acyclic_universal(2).rel("arc") == frozenset({(0, 1)})

    def test_identity_is_a_topological_order(self):
        for n in (5, 16, 33):
            assert all(i < j for i, j in acyclic_universal(n).rel("arc"))

    def test_acyclic(self):
        assert catalog.is_acyclic(acyclic_universal(20))


class TestHenson:
    @pytest.mark.parametrize("n", [0, 1, 8, 32, 64])
    def test_triangle_free(self, n):
        assert catalog.is_triangle_free(henson3(n))

    def test_small_triangle_free_graphs_embed(self):
        segment = henson3(32)
        for member in catalog.CLASSES["triangle-free"].members_up_to(3):
            assert first_embedding(member, segment) is not None

    def test_oriented_variant_avoids_transitive_triangle(self):
        pattern = catalog.oriented_graph(3, [(0, 1), (0, 2), (1, 2)])
        for n in (8, 16, 33):
            assert first_embedding(pattern, acyclic_triangle_free(n)) is None

    def test_oriented_variant_follows_natural_order(self):
        assert all(i < j for i, j in acyclic_triangle_free(24).rel("arc"))


class TestRationalChain:
    def test_single_point(self):
        s = rational_chain(1)
        assert s.size == 1 and not s.rel("lt") and not s.rel("omega")

    def test_walk_visits_distinct_rationals(self):
        points = [rational_point(i) for i in range(100)]
        assert len(set(points)) == 100
        assert all(p > 0 for p in points)

    def test_walk_prefix(self):
        # 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ...
        want = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3),
                Fraction(3, 2), Fraction(2, 3), Fraction(3)]
        assert [rational_point(i) for i in range(7)] == want

    def test_first_500_match_recursive_definition(self):
        want = [recursive_rational_point(i) for i in range(500)]
        assert universes._rational_points(500) == want
        assert [rational_point(i) for i in (0, 1, 250, 499)] == [
            want[0], want[1], want[250], want[499]]

    def test_cold_far_point_in_fresh_process(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "from ramsey_forge.universes import rational_point;"
             " print(rational_point(3000))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        want = [recursive_rational_point(i) for i in range(3001)][-1]
        assert proc.stdout == f"{want}\n"

    def test_orders_are_total_up_to_100(self):
        # construction validates the linear-order tags; sizes confirm totality
        for n in (10, 50, 100):
            s = rational_chain(n)
            assert len(s.rel("lt")) == n * (n - 1) // 2
            assert len(s.rel("omega")) == n * (n - 1) // 2

    def test_small_permutations_embed(self):
        segment = rational_chain(40)
        for member in catalog.CLASSES["permutations"].members_up_to(3):
            assert first_embedding(member, segment) is not None


class TestPermutationalPoset:
    @pytest.mark.parametrize("n", [1, 8, 16, 30])
    def test_obstruction_free(self, n):
        assert not catalog.embeds_I_star(permutational_poset(n))

    def test_omega_extends_po(self):
        p = permutational_poset(20)
        omega = p.rel("omega")
        assert all(pair in omega for pair in p.rel("po"))

    def test_witness_exists(self):
        listing = catalog.is_permutational(permutational_poset(8))
        assert listing is not None
        # the witness sorts the points by their rational values
        points = [rational_point(i) for i in range(8)]
        assert listing == tuple(sorted(range(8), key=lambda i: points[i]))


class TestNestedness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_segments_nest(self, kind):
        for n in range(0, 33):
            assert restriction(generate(kind, n + 1), range(n)) == generate(kind, n)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deep_nestedness(self, kind):
        assert restriction(generate(kind, 64), range(63)) == generate(kind, 63)

    def test_monotone_universality(self):
        segment = henson3(16)
        p3 = catalog.path_graph(3)
        hits = [first_embedding(p3, restriction(segment, range(n))) is not None
                for n in range(3, 17)]
        # once embedded, embedded in every larger segment
        assert hits == sorted(hits)

    def test_spec_wrapper(self):
        assert generate("rado", 4) == rado(4)
        with pytest.raises(ValueError):
            generate("nope", 4)
        with pytest.raises(ValueError):
            generate("rado", -3)


class TestExtensionProperty:
    def test_rado_64_radius_3(self):
        report = check_extension_property(rado(64), 3, prefix=5)
        assert report.all_satisfied
        # the BIT witness is used whenever it is a valid fresh vertex
        formula_hits = [r for r in report.requests if r.formula_witness_used]
        assert formula_hits

    def test_scan_fallback_when_formula_lands_in_v(self):
        report = check_extension_property(rado(64), 2, prefix=2)
        entry = next(r for r in report.requests
                     if r.targets == (0,) and r.non_targets == (1,))
        assert entry.witness == 5 and not entry.formula_witness_used

    def test_empty_request_trivially_satisfied(self):
        report = check_extension_property(rado(4), 1, prefix=2)
        entry = next(r for r in report.requests
                     if r.targets == () and r.non_targets == ())
        assert entry.witness is not None

    def test_witnesses_verified_against_edges(self):
        report = check_extension_property(rado(32), 3, prefix=4)
        edges = rado(32).rel("E")
        for r in report.requests:
            if r.witness is None:
                continue
            assert all((r.witness, u) in edges for u in r.targets)
            assert all((r.witness, v) not in edges for v in r.non_targets)
            assert r.witness not in r.targets + r.non_targets

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix must be >= 0"):
            check_extension_property(rado(8), 2, prefix=-3)
        assert check_extension_property(rado(8), 2, prefix=0).prefix == 0


class OneCycle:
    name = "one-cycle"
    signature = catalog.GRAPH_SIG

    @staticmethod
    def members_up_to(m):
        return (catalog.cycle_graph(5),)


def reference_entries(kind, klass, max_size, segment):
    """Search every segment from the member's size upward until one holds
    the member."""
    universe = generate(kind, segment)
    entries = []
    for mi, member in enumerate(klass.members_up_to(max_size)):
        minimal = next((n for n in range(member.size, segment + 1)
                        if first_embedding(member, restriction(universe, range(n)))
                        is not None), None)
        entries.append(UniversalityEntry(mi, member.size, minimal is not None,
                                         minimal))
    return tuple(entries)


class TestUniversality:
    def test_graphs_in_rado_16(self):
        report = check_universal("rado", catalog.CLASSES["graphs"], 3, 16)
        assert report.all_embedded

    def test_dags_in_acyclic_32(self):
        report = check_universal("acyclic_universal", catalog.CLASSES["dags"],
                                 3, 32)
        assert report.all_embedded

    def test_single_vertex_any_kind(self):
        for kind in ("rado", "henson3", "acyclic_universal"):
            klass = (catalog.CLASSES["graphs"] if kind != "acyclic_universal"
                     else catalog.CLASSES["dags"])
            report = check_universal(kind, klass, 1, 1)
            assert report.all_embedded
            assert report.entries[0].minimal_segment == 1

    def test_minimal_segments_are_minimal(self):
        report = check_universal("rado", catalog.CLASSES["graphs"], 3, 16)
        members = catalog.CLASSES["graphs"].members_up_to(3)
        universe = rado(16)
        for entry in report.entries:
            n = entry.minimal_segment
            assert first_embedding(members[entry.member_index],
                                   restriction(universe, range(n))) is not None
            if n > members[entry.member_index].size:
                assert first_embedding(
                    members[entry.member_index],
                    restriction(universe, range(n - 1))) is None

    @pytest.mark.parametrize("max_size", [0, 2])
    def test_class_of_another_signature_rejected(self, max_size):
        with pytest.raises(SignatureMismatchError,
                           match="'rado'.*'chains'.*different signatures"):
            check_universal("rado", catalog.CLASSES["chains"], max_size, 4)

    def test_not_found_reported_not_raised(self):
        # a 5-cycle cannot appear in the first 5 BIT vertices
        report = check_universal("rado", OneCycle, 5, 5)
        assert not report.all_embedded
        assert report.entries[0].minimal_segment is None

    @pytest.mark.parametrize("kind, klass, max_size, segment, absent", [
        ("permutational_poset", catalog.CLASSES["linearly-ordered-posets"],
         4, 16, 17),
        ("rado", catalog.CLASSES["graphs"], 4, 8, 1),
        ("rado", OneCycle, 5, 5, 1),
    ])
    def test_entries_match_per_segment_scan(self, kind, klass, max_size,
                                            segment, absent):
        report = check_universal(kind, klass, max_size, segment)
        assert report.entries == reference_entries(kind, klass, max_size, segment)
        assert sum(not e.embedded for e in report.entries) == absent
