import dataclasses
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ramsey_forge import catalog, diagrams
from ramsey_forge.catalog import embeds_I_star, is_permutational
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
    find_cocone,
)
from ramsey_forge.structures import (
    BOTH,
    TAG_ORIENTED,
    TAG_SHAPES,
    Embedding,
    FinStructure,
    SignatureMismatchError,
    StructureError,
    are_isomorphic,
    enumerate_embeddings,
    is_embedding,
    restriction,
)

from conftest import (
    MIXED_SIG,
    brute_force_acyclic,
    brute_force_embedding_maps,
    brute_force_oriented_amalgam,
    brute_force_permutational,
    every_instance_class_property,
    random_mixed,
    seed_forced_quotient,
    seed_options,
)

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

    @pytest.mark.parametrize("seed", range(20))
    def test_arrows_of_matches_the_scan(self, seed):
        rng = random.Random(seed)
        n_top, n_bottom = rng.randint(1, 6), rng.randint(0, 8)
        arrows = [(b, rng.randrange(n_top)) for b in range(n_bottom)
                  for _ in range(2)]
        rng.shuffle(arrows)
        shape = BinaryDigraph(n_top, n_bottom, tuple(arrows))
        for b in range(n_bottom):
            assert shape.arrows_of(b) == tuple(
                i for i, (s, _) in enumerate(arrows) if s == b)
        assert shape == BinaryDigraph(n_top, n_bottom, tuple(arrows))
        assert "_out" not in repr(shape)


def brute_force_least_members(n, pairs):
    """Per point, the least member of its connected component in the graph
    the pairs span, by breadth-first search from each point in turn."""
    near = [set() for _ in range(n)]
    for x, y in pairs:
        near[x].add(y)
        near[y].add(x)
    least = [None] * n
    for start in range(n):
        if least[start] is None:
            least[start] = start
            queue = [start]
            for x in queue:  # grows while it is read
                for y in near[x]:
                    if least[y] is None:
                        least[y] = start
                        queue.append(y)
    return least


@pytest.mark.parametrize("seed", range(40))
def test_least_members_match_the_closure(seed):
    """Seeded pair lists with repeats, self-pairs and, for every fourth
    seed, a long chain through all points in shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(0, 60)
    pairs = []
    for _ in range(rng.randint(0, n)):
        kind = rng.random()
        if kind < 0.2:
            x = rng.randrange(n)
            pairs.append((x, x))
        elif kind < 0.4 and pairs:
            pairs.append(rng.choice(pairs)[::rng.choice((1, -1))])
        else:
            pairs.append((rng.randrange(n), rng.randrange(n)))
    if seed % 4 == 0:
        order = rng.sample(range(n), n)
        pairs += zip(order, order[1:])
        rng.shuffle(pairs)
    assert diagrams._least_members(n, iter(pairs)) \
        == brute_force_least_members(n, pairs)


@pytest.mark.parametrize("step", [1, -1])
def test_least_members_of_a_long_chain(step):
    n = 3000
    points = list(range(n))[::step]
    assert diagrams._least_members(n, zip(points, points[1:])) == [0] * n
    assert diagrams._least_members(n, zip(points[1:], points)) == [0] * n


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
        r = find_cocone(d, 8, catalog.CLASSES["triangle-free"])
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

    def test_contradictory_forced_relations_are_impossible(self):
        # points 0 and 1 of one P3 are glued to the non-adjacent 0 and 2 of
        # the other, so the glue carries an edge onto a non-edge
        d = ab_diagram(catalog.complete_graph(1), catalog.path_graph(3),
                       [((0,), (0,), 0, 1), ((1,), (2,), 0, 1)], 2)
        assert find_cocone(d, 8).status == IMPOSSIBLE
        # the quotient has 4 points: the bound is checked before relations
        assert find_cocone(d, 3).status == NONE_WITHIN_BOUND

    def test_objects_of_two_signatures_are_rejected(self):
        with pytest.raises(SignatureMismatchError):
            StructDiagram(BinaryDigraph(2, 0, ()),
                          (catalog.complete_graph(2), catalog.chain(2)), (), ())

    def test_diagram_without_tops_is_rejected(self):
        empty = StructDiagram(BinaryDigraph(0, 0, ()), (), (), ())
        with pytest.raises(ValueError, match="no top objects"):
            find_cocone(empty, 4)

    def test_class_of_another_signature_is_rejected(self):
        # the chains table has a row for every tag, so without the check
        # a graph tip would be returned as a member of chains
        d = ab_diagram(catalog.complete_graph(1), catalog.complete_graph(2),
                       [((0,), (0,), 0, 1)], n_top=2)
        with pytest.raises(SignatureMismatchError, match="'chains' does not share"):
            find_cocone(d, 4, catalog.CLASSES["chains"])

    def test_predicate_can_exhaust(self):
        # a single edge can never satisfy "empty graph" on its image
        k2 = catalog.complete_graph(2)
        d = ab_diagram(catalog.complete_graph(1), k2, [], n_top=1)
        edgeless = catalog.StructClass("edgeless", catalog.GRAPH_SIG,
                                       lambda s: not s.rel("E"))
        r = find_cocone(d, 4, edgeless)
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
                cocone = find_cocone(diagram, 2 * b.size, klass)
                assert cocone.status == search.status
                if search.status == FOUND:
                    assert cocone.cocone.tip == search.result.amalgam
                    assert [leg.map for leg in cocone.cocone.legs] == [
                        search.result.into_b.map, search.result.into_c.map]
    assert spans > 20


def engine_amalgams(b, c, f, g, predicate=None):
    """The engine's leg maps into B and C and every tip it finds on the
    span ``B <-f- A -g-> C``, with the default slot options."""
    legs, tips = diagrams._forced_quotient(
        (b, c), [(0, f.map, 1, g.map)], None, predicate, TAG_SHAPES)
    return legs, list(tips)


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
        _, found = engine_amalgams(b, b, f, g)
        assert all(d.size == 3 for d in found)
        orders = {d.rel("lt") for d in found}
        assert orders == {
            frozenset({(0, 1), (0, 2), (1, 2)}),  # shared < first < second
            frozenset({(0, 1), (0, 2), (2, 1)}),  # shared < second < first
        }

    def test_strong_graph_amalgam_edge_choices_free(self):
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        f = Embedding(k1, k2, (0,))
        (into_b, into_c), found = engine_amalgams(k2, k2, f, f)
        assert len(found) == 2  # with and without the cross edge
        assert all(d.size == 3 for d in found)
        # one pair of leg maps serves every tip
        assert set(into_b) & set(into_c) == {into_b[0]}

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
            mine = set(engine_amalgams(b, c, f, g, predicate)[1])
            oracle = set(exhaustive_amalgams(a, b, c, f, g, predicate))
            assert mine == oracle

    def test_span_that_misses_b_is_rejected(self):
        a, b = catalog.chain(1), catalog.chain(2)
        f = Embedding(a, catalog.chain(3), (0,))
        g = Embedding(a, b, (0,))
        with pytest.raises(StructureError, match="do not match A, B, C"):
            amalgamate(a, b, b, f, g)

    def test_no_caller_table(self):
        """Slot tables reach the engine only through a class, so a table
        that would let an oriented pair hold both arcs, which no valid
        amalgam has, cannot be passed."""
        a = catalog.oriented_graph(1, [])
        b = catalog.oriented_graph(2, [])
        f = Embedding(a, b, (0,))
        with pytest.raises(TypeError):
            amalgamate(a, b, b, f, f, options={TAG_ORIENTED: (BOTH,)})
        with pytest.raises(TypeError):
            find_cocone(ab_diagram(a, b, [((0,), (0,), 0, 1)], 2), 3,
                        options={TAG_ORIENTED: (BOTH,)})

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


def tag_table_amalgam(b, c, f, g, bound, predicate):
    """The engine's status on the span ``B <-f- A -g-> C`` completed with
    the tag table, or its first tip and leg maps."""
    result = diagrams._forced_quotient(
        (b, c), [(0, f.map, 1, g.map)], bound, predicate, TAG_SHAPES)
    if isinstance(result, str):
        return result
    legs, tips = result
    tip = next(tips, None)
    return EXHAUSTED if tip is None else (FOUND, tip, legs)


def amalgamate_result(a, b, c, f, g, bound, predicate):
    search = amalgamate(a, b, c, f, g, bound=bound, predicate=predicate)
    if search.result is None:
        return search.status
    am = search.result
    return search.status, am.amalgam, (am.into_b.map, am.into_c.map)


def test_tournament_amalgam_completes_with_the_class_table(monkeypatch):
    """A catalogued class's predicate makes ``amalgamate`` fill the open
    slots with the class's options: the 9 open pairs of this 7-point span
    take an arc each, so the first candidate is a tournament, where the
    tag table lists 9,842 candidates up to it.  The amalgam and its legs
    are the tag table's first."""
    klass = catalog.CLASSES["tournaments"]
    calls = []

    def counting(s):
        calls.append(s)
        return catalog.is_tournament(s)

    monkeypatch.setitem(catalog.CLASSES, "tournaments",
                        dataclasses.replace(klass, predicate=counting))
    a = catalog.oriented_graph(1, [])
    b = catalog.oriented_graph(4, catalog.linear_order_pairs(range(4)))
    f = Embedding(a, b, (0,))
    result = amalgamate_result(a, b, b, f, f, None, counting)
    assert len(calls) == 1
    assert result == tag_table_amalgam(b, b, f, f, None, catalog.is_tournament)
    assert result[0] == FOUND and result[1].size == 7


@pytest.mark.parametrize("name", ["tournaments", "posets",
                                  "linearly-ordered-posets"])
def test_class_table_amalgam_is_the_tag_table_amalgam(name):
    """Every span of up to 3 points, A empty included, at every bound
    tried: ``amalgamate`` with the class's predicate, which completes with
    the class's options, gives the status, amalgam and legs of the tag
    table."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(3)
    statuses = set()
    for a in (diagrams._empty_structure(klass.signature),) + members:
        for b, c in itertools.product(members, repeat=2):
            for f, g in itertools.product(enumerate_embeddings(a, b),
                                          enumerate_embeddings(a, c)):
                for bound in (None, 3, 4):
                    result = amalgamate_result(a, b, c, f, g, bound,
                                               klass.predicate)
                    assert result == tag_table_amalgam(b, c, f, g, bound,
                                                       klass.predicate)
                    statuses.add(result if isinstance(result, str)
                                 else result[0])
    assert statuses == {FOUND, NONE_WITHIN_BOUND}


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

    def test_unknown_property_builds_no_members(self, monkeypatch):
        def refuse(klass, max_size):
            raise AssertionError("members built for an unknown property")
        monkeypatch.setattr(catalog.StructClass, "members_up_to", refuse)
        with pytest.raises(ValueError):
            check_class_property("XP", catalog.CLASSES["posets"], 5)

    def test_hp_counterexample(self):
        # not hereditary: an edgeless pair sits inside every 3-point member
        klass = catalog.StructClass(
            "graphs-with-an-edge", catalog.GRAPH_SIG,
            lambda s: s.size < 2 or bool(s.relations[0]))

        def first_failure(max_size):
            checked = 0
            for mi, x in enumerate(klass.members_up_to(max_size)):
                for r in range(1, x.size):
                    for subset in itertools.combinations(range(x.size), r):
                        checked += 1
                        if restriction(x, subset) not in klass:
                            return (mi, subset), checked
            return None, checked

        assert first_failure(2) == (None, 2)
        assert first_failure(3) == ((2, (0, 1)), 6)
        for max_size in (2, 3):
            failure, checked = first_failure(max_size)
            report = check_class_property("HP", klass, max_size)
            assert report.holds is (failure is None)
            assert report.counterexample == failure
            assert report.instances_checked == checked

    def test_triangle_free_checker_searches_cross_edges(self):
        # compare against the raw oracle on a span where cross edges exist
        # as options: the checker must consider them, not only the free
        # superposition
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        f = Embedding(k1, k2, (0,))
        mine = set(engine_amalgams(k2, k2, f, f, catalog.is_triangle_free)[1])
        oracle = set(exhaustive_amalgams(k1, k2, k2, f, f,
                                         catalog.is_triangle_free))
        assert mine == oracle
        # the cross edge would close a triangle, so exactly the path remains
        assert len(mine) == 1
        unconstrained = set(engine_amalgams(k2, k2, f, f)[1])
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
    + [("JEP", GRAPHS_LE_2, 2, None)]
    # spans twisted by a nontrivial Aut(A): bounds 5 and 6 leave skipped
    # twisted instances undecided, tournaments included; unbounded, the
    # oracle's amalgamate completes tournament spans with the tournaments'
    # options, as the check does, so the 7-point pushouts are cheap
    + [("AP", catalog.CLASSES["graphs"], 4, bound) for bound in (5, 6)]
    + [("SAP", catalog.CLASSES["graphs"], 4, None),
       ("AP", catalog.CLASSES["triangle-free"], 4, None),
       ("AP", catalog.CLASSES["tournaments"], 4, 6),
       ("AP", catalog.CLASSES["tournaments"], 4, None)])


@pytest.mark.parametrize(
    "prop, klass, max_size, bound", MIRROR_CASES,
    ids=[f"{p}-{k.name}-{m}-{b}" for p, k, m, b in MIRROR_CASES])
def test_mirror_skip_changes_no_report(prop, klass, max_size, bound):
    """Skipping spans equivalent to an earlier one, mirrored or twisted
    by Aut(A), changes no report."""
    assert check_class_property(prop, klass, max_size, amalgam_bound=bound) \
        == every_instance_class_property(prop, klass, max_size, bound)


def engine_calls(monkeypatch):
    """The argument tuples of every later call of the forced-quotient
    engine."""
    calls = []
    original = diagrams._forced_quotient

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagrams, "_forced_quotient", counting)
    return calls


def test_jep_searches_each_unordered_pair_once(monkeypatch):
    calls = engine_calls(monkeypatch)
    report = check_class_property("JEP", catalog.CLASSES["graphs"], 4)
    members = len(catalog.CLASSES["graphs"].members_up_to(4))
    assert report.holds
    assert report.instances_checked == members * members == 324
    assert len(calls) == members * (members + 1) // 2 == 171


def span_classes(members, a):
    """The AP instances over A = ``a`` and their classes, counted from the
    maps of every embedding: an instance is ``(bi, ci, f, g)`` with f and g
    the least maps of their orbits under Aut(B) and Aut(C), and its class
    holds its twists ``(bi, ci, f∘α, g∘α)``, α in Aut(A), taken to their
    orbits' least maps, and their mirrors ``(ci, bi, g∘α, f∘α)``."""
    least = []
    for y in members:
        auts = brute_force_embedding_maps(y, y)
        least.append({f: min(tuple(beta[v] for v in f) for beta in auts)
                      for f in brute_force_embedding_maps(a, y)})
    twists = brute_force_embedding_maps(a, a)
    instances = 0
    classes = set()
    for bi, ci in itertools.product(range(len(members)), repeat=2):
        for f, g in itertools.product(set(least[bi].values()),
                                      set(least[ci].values())):
            instances += 1
            twisted = [(bi, ci, least[bi][tuple(f[v] for v in alpha)],
                        least[ci][tuple(g[v] for v in alpha)])
                       for alpha in twists]
            classes.add(frozenset(twisted + [(c, b, q, p)
                                             for b, c, p, q in twisted]))
    return instances, len(classes)


@pytest.mark.parametrize("name, max_size, searched, instances", [
    ("graphs", 3, 71, 135),
    ("oriented-graphs", 3, 286, 568),
    ("graphs", 4, 942, 2426),
], ids=["graphs", "oriented-graphs", "graphs-4"])
def test_ap_searches_each_instance_not_mirrored_earlier(
        name, max_size, searched, instances, monkeypatch):
    """AP searches one span per class under Aut(A), Aut(B) x Aut(C) and
    the swap of B and C: every other instance is a twist or a mirror of
    one searched before."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(max_size)
    counts = [span_classes(members, a) for a in members]
    assert tuple(map(sum, zip(*counts))) == (instances, searched)
    calls = engine_calls(monkeypatch)
    report = check_class_property("AP", klass, max_size)
    assert report.holds
    assert report.instances_checked == instances
    assert len(calls) == searched


@pytest.mark.parametrize("prop, name", [("AP", "graphs"), ("SAP", "graphs"),
                                        ("JEP", "chains")])
def test_class_check_builds_no_amalgam(prop, name, monkeypatch):
    """A class check asks the engine only whether a first tip exists: with
    ``amalgamate``, ``Amalgam``, ``AmalgamSearch`` and the module's
    ``Embedding`` replaced by stand-ins that raise, the report is the
    same."""
    klass = catalog.CLASSES[name]
    expected = check_class_property(prop, klass, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a class check built an amalgam or a leg")

    for attr in ("amalgamate", "Amalgam", "AmalgamSearch", "Embedding"):
        monkeypatch.setattr(diagrams, attr, refuse)
    assert check_class_property(prop, klass, 3) == expected


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "no-asserts"])
def test_forged_completion_is_rejected(flags):
    """A completion that is not an amalgam or cocone tip raises
    StructureError, also when asserts are compiled out."""
    script = textwrap.dedent("""
        from ramsey_forge import catalog, diagrams
        from ramsey_forge.structures import Embedding, StructureError
        k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
        # an edgeless completion drops the edge of K2; the edge 0-1 lies
        # inside the image of the edgeless B, whose points 0 and 1 it joins
        for b, edges in ((k2, []), (catalog.empty_graph(2), [(0, 1)])):
            diagrams._complete_structures = (
                lambda signature, size, *rest: iter([catalog.graph(size, edges)]))
            f = Embedding(k1, b, (0,))
            for search in (lambda: diagrams.amalgamate(k1, b, b, f, f),
                           lambda: diagrams.find_cocone(diagrams.ab_diagram(
                               k1, b, [((0,), (0,), 0, 1)], 2), 3)):
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
    assert proc.stdout == "rejected\n" * 4


# ---------------------------------------------------------------------------
# the forced-quotient engine against the engine as first written


def engine_results(tops, glue, bound, predicate, options):
    """The engine's status, or its first three tips, each with the source,
    target and map of every leg."""
    result = diagrams._forced_quotient(tops, glue, bound, predicate, options)
    if isinstance(result, str):
        return result
    legs, tips = result
    return [(tip, [(top, tip, leg) for top, leg in zip(tops, legs)])
            for tip in itertools.islice(tips, 3)]


def seed_engine_results(tops, glue, bound, predicate, options):
    """The same for ``seed_forced_quotient``, which yields certified
    embeddings with each tip."""
    result = seed_forced_quotient(tops, glue, bound, predicate, options)
    if isinstance(result, str):
        return result
    return [(tip, [(leg.source, leg.target, leg.map) for leg in legs])
            for tip, legs in itertools.islice(result, 3)]


def assert_same_engine_results(tops, glue, bound, predicate, table, callback):
    """The engine with the options ``table`` and ``seed_forced_quotient``
    with the matching ``callback`` give the same results."""
    args = tops, glue, bound, predicate
    expected = seed_engine_results(*args, callback)
    assert engine_results(*args, table) == expected
    return expected


@pytest.mark.parametrize("name", sorted(catalog.CLASSES))
def test_engine_matches_the_seed_engine_on_every_small_span(name):
    """Every AP and JEP span of members of up to 3 points, with the class's
    predicate and options, bounded by the pushout's size and by one less."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(3)
    statuses = set()
    for a in (diagrams._empty_structure(klass.signature),) + members:
        for b, c in itertools.product(members, repeat=2):
            size = b.size + c.size - a.size
            for f, g in itertools.product(enumerate_embeddings(a, b),
                                          enumerate_embeddings(a, c)):
                for bound in (size, size - 1):
                    result = assert_same_engine_results(
                        (b, c), [(0, f.map, 1, g.map)], bound,
                        klass.predicate, klass.options, seed_options(name))
                    statuses.add(result if isinstance(result, str)
                                 else FOUND if result else EXHAUSTED)
    assert statuses == ({FOUND, EXHAUSTED, NONE_WITHIN_BOUND} if name == "dags"
                        else {FOUND, NONE_WITHIN_BOUND})


def random_world(rng, name, n):
    """A random structure on n points whose restrictions are valid tops for
    the class ``name`` (or for ``MIXED_SIG``, as ``"mixed"``)."""
    if name == "mixed":
        return random_mixed(rng, n)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[j])
             for i, j in itertools.combinations(range(n), 2)]
    if name in ("graphs", "triangle-free"):
        return catalog.graph(n, [p for p in pairs if rng.random() < 0.5])
    if name == "tournaments":
        return catalog.oriented_graph(
            n, [p[::rng.choice((1, -1))] for p in pairs])
    if name == "oriented-graphs":
        return catalog.oriented_graph(
            n, [p[::rng.choice((1, -1))] for p in pairs if rng.random() < 0.6])
    arcs = {p for p in pairs if rng.random() < 0.5}  # forward in the listing
    if name == "dags":
        return catalog.oriented_graph(n, arcs)
    for z in range(n):  # posets: the transitive closure
        arcs |= {(x, y) for x, w in arcs if w == z for v, y in arcs if v == z}
    return FinStructure.build(catalog.POSET_SIG, n, {"po": arcs})


def seeded_diagram(rng, world):
    """3 or 4 tops cut from the world and glue that the world backs, except
    that some glue entries have their second half rotated."""
    n = world.size
    subsets = [sorted(rng.sample(range(n), rng.randint(1, min(4, n))))
               for _ in range(rng.randint(3, 4))]
    glue = []
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(len(subsets)), rng.randrange(len(subsets))
        common = sorted(set(subsets[i]) & set(subsets[j]))
        if not common:
            continue
        points = rng.sample(common, rng.randint(1, len(common)))
        u = tuple(subsets[i].index(w) for w in points)
        v = tuple(subsets[j].index(w) for w in points)
        if rng.random() < 0.5:
            v = v[1:] + v[:1]
        glue.append((i, u, j, v))
    return [restriction(world, sub) for sub in subsets], glue


@pytest.mark.parametrize("name", ["dags", "graphs", "mixed", "oriented-graphs",
                                  "posets", "tournaments", "triangle-free"])
def test_engine_matches_the_seed_engine_on_seeded_diagrams(name):
    """Seeded diagrams of 3 or 4 tops: glue chained across tops, bottoms
    glued twice into one top, merges inside one top and contradictory
    tuples (both impossible), and bounds of the quotient's size, one less
    and none.  The class predicate is used on quotients of up to 4 points,
    so that a search that rejects every candidate stays small."""
    klass = catalog.CLASSES.get(name)
    table = klass.options if klass else TAG_SHAPES
    rng = random.Random(name)
    seen = set()
    for _ in range(150):
        world = random_world(rng, name, rng.randint(3, 6))
        tops, glue = seeded_diagram(rng, world)
        offsets = list(itertools.accumulate((t.size for t in tops), initial=0))
        least = brute_force_least_members(offsets[-1], [
            (offsets[i] + p, offsets[j] + q)
            for i, u, j, v in glue for p, q in zip(u, v)])
        size = sum(x == r for x, r in enumerate(least))
        merged = any(len(set(least[offsets[i]:offsets[i + 1]])) < t.size
                     for i, t in enumerate(tops))
        predicate = klass.predicate if klass and size <= 4 else None
        glued_tops = brute_force_least_members(
            len(tops), [(i, j) for i, _, j, _ in glue])
        if any(glued_tops.count(r) >= 3 for r in glued_tops):
            seen.add("chained")
        if any(i == j for i, _, j, _ in glue):
            seen.add("twice into one top")
        for bound in (None, size, size - 1):
            result = assert_same_engine_results(tops, glue, bound, predicate,
                                                table, seed_options(name))
            if result == IMPOSSIBLE:
                seen.add("merge" if merged else "contradiction")
            elif isinstance(result, str):
                seen.add(result)
            else:
                seen.add(FOUND if result else EXHAUSTED)
    assert {"chained", "twice into one top", "merge", "contradiction",
            NONE_WITHIN_BOUND, FOUND} <= seen


def counted_least_members(monkeypatch):
    """The sizes that ``diagrams._least_members`` is called with, from now
    on in the test."""
    calls = []
    original = diagrams._least_members

    def counting(n, pairs):
        calls.append(n)
        return original(n, pairs)

    monkeypatch.setattr(diagrams, "_least_members", counting)
    return calls


# glue (u, v) from point u[x] of B to point v[x] of C, for the oriented
# graphs B with arcs 0->1->2 and C with arcs 0->1, 2->3 on 4 points each
ONE_SPAN_GLUE = {
    "one-point": ((0,), (0,)),
    "arc-onto-arc": ((0, 1), (0, 1)),
    "arc-onto-reversed-arc": ((0, 1), (1, 0)),
    "every-point": ((0, 1, 2, 3), (3, 2, 1, 0)),
    "one-b-point-to-two-c-points": ((2, 2), (0, 3)),
    "two-b-points-to-one-c-point": ((1, 3), (2, 2)),
    "duplicate-pairs": ((0, 3, 0), (2, 1, 2)),
    "duplicate-pairs-and-a-merge": ((0, 3, 0), (2, 1, 1)),
    "empty": ((), ()),
}


@pytest.mark.parametrize("case", sorted(ONE_SPAN_GLUE))
def test_one_span_glue_matches_the_seed_engine(case, monkeypatch):
    """The closed-form numbering of ``(0, u, 1, v)`` against the engine as
    first written, at bounds of the quotient's size, one less and none;
    ``(1, v, 0, u)`` and ``(0, u, 0, v)``, a span into one top, go through
    union-find and are compared too."""
    klass = catalog.CLASSES["oriented-graphs"]
    tops = (catalog.oriented_graph(4, [(0, 1), (1, 2)]),
            catalog.oriented_graph(4, [(0, 1), (2, 3)]))
    u, v = ONE_SPAN_GLUE[case]
    calls = counted_least_members(monkeypatch)
    statuses = []
    for glue, union_find in (((0, u, 1, v), False), ((1, v, 0, u), True),
                             ((0, u, 0, v), True)):
        i, _, j, _ = glue
        least = brute_force_least_members(8, [(4 * i + p, 4 * j + q)
                                              for p, q in zip(u, v)])
        size = sum(x == r for x, r in enumerate(least))
        for bound in (size, size - 1, None):
            calls.clear()
            result = assert_same_engine_results(
                tops, [glue], bound, klass.predicate, klass.options,
                seed_options("oriented-graphs"))
            assert len(calls) == union_find
            if not union_find:
                statuses.append(result if isinstance(result, str)
                                else FOUND if result else EXHAUSTED)
    # a merge is found before the bound is read, a contradiction after
    merge, contradiction = [IMPOSSIBLE] * 3, [IMPOSSIBLE, NONE_WITHIN_BOUND,
                                              IMPOSSIBLE]
    assert statuses == {
        "arc-onto-reversed-arc": contradiction,
        "every-point": contradiction,
        "one-b-point-to-two-c-points": merge,
        "two-b-points-to-one-c-point": merge,
        "duplicate-pairs-and-a-merge": merge,
    }.get(case, [FOUND, NONE_WITHIN_BOUND, FOUND])


def test_one_span_quotients_skip_the_union_find(monkeypatch):
    """Class checks, amalgams and one-span cocones number the quotient in
    closed form; a cocone over two spans goes through union-find."""
    calls = counted_least_members(monkeypatch)
    oriented = catalog.CLASSES["oriented-graphs"]
    assert check_class_property("AP", oriented, 3).holds
    k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
    f = Embedding(k1, k2, (0,))
    assert amalgamate(k1, k2, k2, f, f).status == FOUND
    assert find_cocone(chain_span_diagram(), 3).status == FOUND
    assert calls == []
    two_spans = ab_diagram(k1, k2, [((0,), (0,), 0, 1), ((0,), (0,), 1, 2)], 3)
    assert find_cocone(two_spans, 4).status == FOUND
    assert calls == [6]


def test_dags_are_not_a_fraisse_age():
    """The abstract's claim up to 4 points: HP and JEP hold, and AP and
    SAP fail at a span that no oriented graph amalgamates, merges
    included, as the brute-force oracle confirms."""
    dags = catalog.CLASSES["dags"]
    assert check_class_property("HP", dags, 4) == diagrams.ClassPropertyReport(
        "HP", "dags", 4, True, None, (), 474)
    assert check_class_property("JEP", dags, 4) == diagrams.ClassPropertyReport(
        "JEP", "dags", 4, True, None, (), 1600)
    span = (1, 6, 6, (0, 1), (1, 0))
    for prop in ("AP", "SAP"):
        assert check_class_property(prop, dags, 4) == diagrams.ClassPropertyReport(
            prop, "dags", 4, False, span, (), 15726)
    members = dags.members_up_to(4)
    a, b, c = members[1], members[6], members[6]
    assert brute_force_oriented_amalgam(a, b, c, (0, 1), (1, 0),
                                        brute_force_acyclic) is None
    # the oracle does find amalgams: gluing both copies along A works
    assert brute_force_oriented_amalgam(a, b, c, (0, 1), (0, 1),
                                        brute_force_acyclic) is not None


def test_jep_on_tournaments_up_to_4():
    """Slots of a tournament amalgam are never empty; skipping the empty
    option keeps the first tournament within the first few candidates."""
    tournaments = catalog.CLASSES["tournaments"]
    report = check_class_property("JEP", tournaments, 4)
    assert report.holds and not report.undecided
    assert report.instances_checked == len(tournaments.members_up_to(4)) ** 2


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


@pytest.mark.parametrize("name", ["graphs", "oriented-graphs", "tournaments",
                                  "dags", "triangle-free"])
def test_twisted_span_has_the_same_status(name):
    """B <-f- A -g-> C amalgamates exactly when B <-f∘α- A -g∘α-> C does,
    relabelled by β and γ: for every α, β and γ in Aut(A), Aut(B) and
    Aut(C), (β∘f∘α, γ∘g∘α) has the status of (f, g)."""
    klass = catalog.CLASSES[name]
    members = klass.members_up_to(3)
    auts = {m: brute_force_embedding_maps(m, m) for m in members}
    twisted = 0
    statuses = set()
    for a, b, c in itertools.product(members, repeat=3):
        for f in brute_force_embedding_maps(a, b):
            for g in brute_force_embedding_maps(a, c):
                status = amalgamate(a, b, c, Embedding(a, b, f), Embedding(a, c, g),
                                    predicate=klass.predicate).status
                statuses.add(status)
                for alpha, beta, gamma in itertools.product(auts[a], auts[b],
                                                            auts[c]):
                    fa = tuple(beta[f[v]] for v in alpha)
                    ga = tuple(gamma[g[v]] for v in alpha)
                    twisted += any(alpha[v] != v for v in a.domain)
                    assert amalgamate(a, b, c, Embedding(a, b, fa),
                                      Embedding(a, c, ga),
                                      predicate=klass.predicate).status == status
    assert twisted > 0
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
