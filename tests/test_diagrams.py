import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ramsey_forge import catalog, diagrams
from ramsey_forge.diagrams import (
    EXHAUSTED,
    FOUND,
    IMPOSSIBLE,
    NONE_WITHIN_BOUND,
    BinaryDigraph,
    Cocone,
    StructDiagram,
    ab_diagram,
    amalgamate,
    check_class_property,
    check_commutes,
    connected_components,
    embeds_I_star,
    enumerate_amalgams,
    find_cocone,
    is_permutational,
)
from ramsey_forge.structures import (
    Embedding,
    FinStructure,
    SignatureMismatchError,
    StructureError,
    are_isomorphic,
    enumerate_embeddings,
    is_embedding,
)

from conftest import brute_force_permutational, every_instance_class_property

ROOT = Path(__file__).resolve().parent.parent


class TestBinaryDigraph:
    def test_out_degree_enforced(self):
        with pytest.raises(ValueError):
            BinaryDigraph(2, 1, ((0, 0),))
        with pytest.raises(ValueError):
            BinaryDigraph(2, 1, ((0, 0), (0, 1), (0, 1)))

    def test_components_of_five_top_three_bottom_shape(self):
        # five tops, three bottoms: spans {0,1}, {1,2} and {3,4} leave two
        # walk-connected classes
        shape = BinaryDigraph(5, 3, ((0, 0), (0, 1), (1, 1), (1, 2),
                                     (2, 3), (2, 4)))
        assert connected_components(shape) == ((0, 1, 2), (3, 4))

    def test_no_bottoms_gives_singletons(self):
        shape = BinaryDigraph(3, 0, ())
        assert connected_components(shape) == ((0,), (1,), (2,))

    def test_double_arrow_to_same_top(self):
        shape = BinaryDigraph(2, 1, ((0, 0), (0, 0)))
        assert connected_components(shape) == ((0,), (1,))


def chain_span_diagram():
    """Two 2-chains over a shared bottom point (an amalgamation span)."""
    return ab_diagram(catalog.chain(1), catalog.chain(2),
                      [((0,), (0,), 0, 1)], n_top=2)


class TestCheckCommutes:
    def test_single_top_identity_leg(self):
        b = catalog.chain(2)
        d = ab_diagram(catalog.chain(1), b, [], n_top=1)
        cocone = Cocone(b, (Embedding(b, b, (0, 1)),))
        assert check_commutes(d, cocone)

    def test_two_copies_glued_by_equal_embeddings(self):
        b = catalog.chain(2)
        d = ab_diagram(catalog.chain(1), b, [((0,), (0,), 0, 1)], n_top=2)
        ident = Embedding(b, b, (0, 1))
        assert check_commutes(d, Cocone(b, (ident, ident)))

    def test_disagreeing_legs_fail(self):
        a, b = catalog.chain(1), catalog.chain(1)
        d = ab_diagram(a, b, [((0,), (0,), 0, 1)], n_top=2)
        tip = catalog.chain(2)
        legs = (Embedding(b, tip, (0,)), Embedding(b, tip, (1,)))
        assert not check_commutes(d, Cocone(tip, legs))


class TestFindCocone:
    def test_single_top_returns_the_object_itself(self):
        b = catalog.chain(2)
        r = find_cocone(ab_diagram(catalog.chain(1), b, [], n_top=1), 4)
        assert r.status == FOUND
        assert r.cocone.tip == b
        assert r.cocone.legs[0].map == (0, 1)

    def test_chain_amalgamation_span(self):
        r = find_cocone(chain_span_diagram(), 4)
        assert r.status == FOUND
        assert r.cocone.tip.size <= 3
        assert check_commutes(chain_span_diagram(), r.cocone)

    def test_triangle_free_tip_is_a_path(self):
        k2 = catalog.complete_graph(2)
        d = ab_diagram(catalog.complete_graph(1), k2,
                       [((0,), (0,), 0, 1)], n_top=2)
        r = find_cocone(d, 8, catalog.is_triangle_free)
        assert r.status == FOUND
        assert are_isomorphic(r.cocone.tip, catalog.path_graph(3))[0]

    def test_forced_merge_within_one_top_is_impossible(self):
        # one bottom point sent to both endpoints of the same 2-chain
        b = catalog.chain(2)
        shape = BinaryDigraph(1, 1, ((0, 0), (0, 0)))
        d = StructDiagram(shape, (b,), (catalog.chain(1),),
                          (Embedding(catalog.chain(1), b, (0,)),
                           Embedding(catalog.chain(1), b, (1,))))
        assert find_cocone(d, 8).status == IMPOSSIBLE

    def test_bound_too_small(self):
        assert find_cocone(chain_span_diagram(), 2).status == NONE_WITHIN_BOUND

    def test_objects_of_two_signatures_are_rejected(self):
        with pytest.raises(SignatureMismatchError):
            StructDiagram(BinaryDigraph(2, 0, ()),
                          (catalog.complete_graph(2), catalog.chain(2)), (), ())

    def test_predicate_can_exhaust(self):
        # a single edge can never satisfy "empty graph" on its image
        k2 = catalog.complete_graph(2)
        d = ab_diagram(catalog.complete_graph(1), k2, [], n_top=1)
        r = find_cocone(d, 4, lambda s: not s.rel("E"))
        assert r.status == EXHAUSTED

    def test_found_cocones_always_commute(self):
        diagrams = [
            chain_span_diagram(),
            ab_diagram(catalog.complete_graph(2), catalog.path_graph(3),
                       [((0, 1), (1, 2), 0, 1), ((1, 2), (0, 1), 0, 1)],
                       n_top=2),
        ]
        for d in diagrams:
            r = find_cocone(d, 8)
            if r.status == FOUND:
                assert check_commutes(d, r.cocone)
                for leg in r.cocone.legs:
                    assert is_embedding(leg.map, leg.source, r.cocone.tip)


@pytest.mark.parametrize("name", ["chains", "graphs", "oriented-graphs"])
def test_one_span_cocone_is_the_amalgam(name):
    """A one-span (A, B)-diagram and the span B <- A -> B share one pushout:
    same status, tip and legs, for every pair of embeddings up to size 3."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(3)
    spans = 0
    for a in members:
        for b in members:
            homab = enumerate_embeddings(a, b)
            for f, g in itertools.product(homab, repeat=2):
                spans += 1
                search = amalgamate(a, b, b, f, g, predicate=klass.predicate)
                diagram = ab_diagram(a, b, [(f.map, g.map, 0, 1)], n_top=2)
                cocone = find_cocone(diagram, 2 * b.size, klass.predicate)
                assert cocone.status == search.status
                if search.status == FOUND:
                    assert cocone.cocone.tip == search.result.amalgam
                    assert [leg.map for leg in cocone.cocone.legs] == [
                        search.result.into_b.map, search.result.into_c.map]
    assert spans > 20


def exhaustive_amalgams(a, b, c, f, g, predicate=None):
    """Oracle: all relation interpretations on the pushout point set that
    amalgamate the span, found by raw enumeration (independent of the
    library's completion search)."""
    size = b.size + c.size - a.size
    g_image = {g.map[v]: v for v in range(a.size)}
    c_map = {}
    fresh = b.size
    for w in range(c.size):
        if w in g_image:
            c_map[w] = f.map[g_image[w]]
        else:
            c_map[w] = fresh
            fresh += 1
    sig = b.signature
    axes = []
    for spec in sig.relations:
        axes.append(list(itertools.product(range(size), repeat=spec.arity)))
    results = []
    pools = [itertools.chain.from_iterable(
        itertools.combinations(axis, r) for r in range(len(axis) + 1))
        for axis in axes]
    for combo in itertools.product(*pools):
        try:
            d = FinStructure(sig, size, tuple(frozenset(rel) for rel in combo))
        except StructureError:
            continue
        if predicate is not None and not predicate(d):
            continue
        fmap = tuple(range(b.size))
        gmap = tuple(c_map[w] for w in range(c.size))
        try:
            if is_embedding(fmap, b, d) and is_embedding(gmap, c, d):
                results.append(d)
        except StructureError:
            continue
    return results


class TestAmalgamate:
    def test_empty_base_disjoint_union(self):
        empty = FinStructure(catalog.GRAPH_SIG, 0, (frozenset(),))
        nomap_b = Embedding(empty, catalog.path_graph(2), ())
        nomap_c = Embedding(empty, catalog.complete_graph(3), ())
        search = amalgamate(empty, catalog.path_graph(2),
                            catalog.complete_graph(3), nomap_b, nomap_c)
        assert search.status == FOUND
        assert search.result.amalgam.size == 5
        # the first candidate has no cross edges: a true disjoint union
        assert len(search.result.amalgam.rel("E")) == len(
            catalog.path_graph(2).rel("E")) + len(catalog.complete_graph(3).rel("E"))

    def test_chain_interleavings(self):
        a, b = catalog.chain(1), catalog.chain(2)
        f = Embedding(a, b, (0,))
        g = Embedding(a, b, (0,))
        found = [am.amalgam for am in enumerate_amalgams(a, b, b, f, g)]
        assert all(d.size == 3 for d in found)
        orders = {d.rel("lt") for d in found}
        assert orders == {
            frozenset({(0, 1), (0, 2), (1, 2)}),  # shared < first < second
            frozenset({(0, 1), (0, 2), (2, 1)}),  # shared < second < first
        }

    def test_strong_graph_amalgam_edge_choices_free(self):
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        f = Embedding(k1, k2, (0,))
        found = list(enumerate_amalgams(k1, k2, k2, f, f))
        assert len(found) == 2  # with and without the cross edge
        assert all(am.amalgam.size == 3 for am in found)
        for am in found:
            overlap = set(am.into_b.map) & set(am.into_c.map)
            assert overlap == {am.into_b.map[0]}

    def test_matches_exhaustive_oracle(self):
        cases = [
            (catalog.complete_graph(1), catalog.complete_graph(2),
             catalog.complete_graph(2), catalog.is_triangle_free),
            (catalog.complete_graph(1), catalog.complete_graph(2),
             catalog.complete_graph(2), None),
            (catalog.chain(1), catalog.chain(2), catalog.chain(2), None),
        ]
        for a, b, c, predicate in cases:
            f = Embedding(a, b, (0,))
            g = Embedding(a, c, (0,))
            mine = {am.amalgam for am in
                    enumerate_amalgams(a, b, c, f, g, predicate=predicate)}
            oracle = set(exhaustive_amalgams(a, b, c, f, g, predicate))
            assert mine == oracle

    def test_bound_respected(self):
        a, b = catalog.chain(1), catalog.chain(3)
        f = Embedding(a, b, (0,))
        search = amalgamate(a, b, b, f, f, bound=3)
        assert search.status == NONE_WITHIN_BOUND

    def test_strong_intersection_exact(self):
        a = catalog.path_graph(2)
        b = catalog.path_graph(3)
        for f in enumerate_embeddings(a, b):
            for g in enumerate_embeddings(a, b):
                search = amalgamate(a, b, b, f, g)
                assert search.status == FOUND
                am = search.result
                shared = {am.into_b.map[f.map[v]] for v in range(a.size)}
                assert set(am.into_b.map) & set(am.into_c.map) == shared


class TestClassProperties:
    def test_chains_ap(self):
        report = check_class_property("AP", catalog.CLASSES["chains"], 4)
        assert report.holds and not report.undecided

    def test_graphs_sap(self):
        report = check_class_property("SAP", catalog.CLASSES["graphs"], 3)
        assert report.holds

    def test_lo_posets_hp(self):
        report = check_class_property(
            "HP", catalog.CLASSES["linearly-ordered-posets"], 3)
        assert report.holds

    def test_graphs_jep(self):
        report = check_class_property("JEP", catalog.CLASSES["graphs"], 3)
        assert report.holds

    def test_chains_jep_needs_completion(self):
        # the disjoint union of two chains is not a chain, so the checker
        # must find an interleaving instead
        report = check_class_property("JEP", catalog.CLASSES["chains"], 3)
        assert report.holds

    def test_small_bound_reports_undecided(self):
        report = check_class_property("AP", catalog.CLASSES["chains"], 3,
                                      amalgam_bound=2)
        assert report.holds  # nothing failed...
        assert report.undecided  # ...but some instances were out of reach

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            check_class_property("XX", catalog.CLASSES["chains"], 2)

    def test_triangle_free_checker_searches_cross_edges(self):
        # compare against the raw oracle on a span where cross edges exist
        # as options: the checker must consider them, not only the free
        # superposition
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        f = Embedding(k1, k2, (0,))
        mine = {am.amalgam for am in enumerate_amalgams(
            k1, k2, k2, f, f, predicate=catalog.is_triangle_free)}
        oracle = set(exhaustive_amalgams(k1, k2, k2, f, f,
                                         catalog.is_triangle_free))
        assert mine == oracle
        # the cross edge would close a triangle, so exactly the path remains
        assert len(mine) == 1
        unconstrained = {am.amalgam
                         for am in enumerate_amalgams(k1, k2, k2, f, f)}
        assert len(unconstrained) == 2

    def test_triangle_free_ap(self):
        report = check_class_property("AP", catalog.CLASSES["triangle-free"], 3)
        assert report.holds


GRAPHS_LE_2 = catalog.StructClass(
    "graphs-le-2", catalog.GRAPH_SIG, lambda s: s.size <= 2,
    lambda n: catalog.CLASSES["graphs"].members(n) if n <= 2 else ())

MIRROR_CASES = (
    [(prop, catalog.CLASSES[name], 3, None)
     for name in catalog.CLASSES for prop in ("AP", "SAP")]
    + [("AP", catalog.CLASSES[name], 4, None) for name in ("graphs", "dags")]
    + [("AP", catalog.CLASSES[name], 3, bound)
       for name in ("chains", "graphs") for bound in range(2, 6)]
    + [("AP", GRAPHS_LE_2, 2, None)]
    + [("JEP", catalog.CLASSES[name], 3, bound)
       for name in catalog.CLASSES for bound in (None, 1, 2, 3, 4)]
    + [("JEP", catalog.CLASSES[name], 4, None)
       for name in ("chains", "graphs", "oriented-graphs", "triangle-free",
                    "dags", "posets")]
    + [("JEP", GRAPHS_LE_2, 2, None)])


@pytest.mark.parametrize(
    "prop, klass, max_size, bound", MIRROR_CASES,
    ids=[f"{p}-{k.name}-{m}-{b}" for p, k, m, b in MIRROR_CASES])
def test_mirror_skip_changes_no_report(prop, klass, max_size, bound):
    assert check_class_property(prop, klass, max_size, amalgam_bound=bound) \
        == every_instance_class_property(prop, klass, max_size, bound)


def test_jep_searches_each_unordered_pair_once(monkeypatch):
    calls = []
    original = diagrams.amalgamate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagrams, "amalgamate", counting)
    report = check_class_property("JEP", catalog.CLASSES["graphs"], 4)
    members = len(catalog.CLASSES["graphs"].members_up_to(4))
    assert report.holds
    assert report.instances_checked == members * members == 324
    assert len(calls) == members * (members + 1) // 2 == 171


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "no-asserts"])
def test_forged_completion_is_rejected(flags):
    """A completion that is not an amalgam or cocone tip raises
    StructureError, also when asserts are compiled out."""
    script = textwrap.dedent("""
        from ramsey_forge import catalog, diagrams
        from ramsey_forge.structures import Embedding, StructureError
        # every completion is edgeless, so no leg embeds K2
        diagrams._complete_structures = (
            lambda signature, size, *rest: iter([catalog.graph(size, [])]))
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        f = Embedding(k1, k2, (0,))
        for search in (lambda: diagrams.amalgamate(k1, k2, k2, f, f),
                       lambda: diagrams.find_cocone(diagrams.ab_diagram(
                           k1, k2, [((0,), (0,), 0, 1)], 2), 3)):
            try:
                search()
            except StructureError:
                print("rejected")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\nrejected\n"


@pytest.mark.parametrize("name", ["graphs", "oriented-graphs", "tournaments",
                                  "dags", "triangle-free"])
def test_mirrored_span_has_the_same_status(name):
    """B <-f- A -g-> C amalgamates exactly when C <-g- A -f-> B does."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(3)
    statuses = []
    for a, b, c in itertools.product(members, repeat=3):
        for f in enumerate_embeddings(a, b):
            for g in enumerate_embeddings(a, c):
                status = amalgamate(a, b, c, f, g,
                                    predicate=klass.predicate).status
                assert status == amalgamate(a, c, b, g, f,
                                            predicate=klass.predicate).status
                statuses.append(status)
    assert len(statuses) > 20
    assert (EXHAUSTED in statuses) == (name == "dags")


class TestIStar:
    def test_istar_embeds_itself(self):
        assert embeds_I_star(catalog.I_STAR)

    def test_chain_has_no_incomparabilities(self):
        full = catalog.linearly_ordered_poset(
            4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert not embeds_I_star(full)

    def test_antichain_needs_a_strict_pair(self):
        anti = catalog.linearly_ordered_poset(3, [])
        assert not embeds_I_star(anti)

    def test_validation_error_when_omega_does_not_extend(self):
        bad = FinStructure.build(catalog.LOPOSET_SIG, 2, {
            "po": [(1, 0)],
            "omega": [(0, 1)],
        })
        with pytest.raises(StructureError):
            embeds_I_star(bad)


class TestIsPermutational:
    def test_chain_witness_is_the_same_order(self):
        full = catalog.linearly_ordered_poset(
            3, [(i, j) for i in range(3) for j in range(i + 1, 3)])
        assert is_permutational(full) == (0, 1, 2)

    def test_istar_has_no_witness(self):
        assert is_permutational(catalog.I_STAR) is None

    def test_two_antichain_witness_reversed(self):
        anti = catalog.linearly_ordered_poset(2, [])
        assert is_permutational(anti) == (1, 0)

    def test_witness_actually_works(self):
        for n in range(1, 5):
            for p in catalog.CLASSES["linearly-ordered-posets"].members(n):
                listing = is_permutational(p)
                if listing is None:
                    continue
                position = {v: i for i, v in enumerate(listing)}
                po, omega = p.rel("po"), p.rel("omega")
                for x in range(n):
                    for y in range(n):
                        if x == y:
                            continue
                        meet = (x, y) in omega and position[x] < position[y]
                        assert meet == ((x, y) in po)

    def test_witness_matches_the_listing_oracle_up_to_five_points(self):
        members = catalog.CLASSES["linearly-ordered-posets"].members_up_to(5)
        assert len(members) == 1 + 2 + 7 + 40 + 357
        for p in members:
            assert is_permutational(p) == brute_force_permutational(p)

    def test_characterization_up_to_four_points(self):
        for n in range(1, 5):
            for p in catalog.CLASSES["linearly-ordered-posets"].members(n):
                assert (is_permutational(p) is not None) == (
                    not embeds_I_star(p))
