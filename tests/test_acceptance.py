"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and asserts the criterion exactly, including its stated
runtime ceiling.
"""

import itertools
import json
import time

from ramsey_forge import arrows, catalog, diagrams, metric, structures, universes
from ramsey_forge.cli import dispatch


def report(number: str, detail: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS ({detail}; {elapsed:.1f}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_arrow_oracle_equivalence():
    """Pruned search agrees with exhaustive coloring enumeration on every
    chain triple with |C| <= 6, |B| <= 3, |A| <= 2, k in {2,3}, t in {1,2}."""
    started = time.perf_counter()
    checked = 0
    for nc, nb, na in itertools.product(range(0, 7), range(0, 4), range(0, 3)):
        c, b, a = catalog.chain(nc), catalog.chain(nb), catalog.chain(na)
        for k in (2, 3):
            threshold = arrows.exhaustive_min_degree(c, b, a, k)
            for t in (1, 2):
                verdict = arrows.check_arrow(c, b, a, k, t)
                assert verdict.holds is not None
                assert verdict.holds == (t >= threshold), (nc, nb, na, k, t)
                checked += 1
    report("1", f"{checked} instances agree with the exhaustive oracle",
           started, 60.0)


def test_criterion_2_classical_thresholds():
    """The 3-subchain arrow at t=1 flips between the 6-chain and 5-chain."""
    started = time.perf_counter()
    a, b = catalog.chain(2), catalog.chain(3)
    six = arrows.check_arrow(catalog.chain(6), b, a, 2, 1)
    five = arrows.check_arrow(catalog.chain(5), b, a, 2, 1)
    assert six.holds is True
    assert five.holds is False
    assert five.witness is not None
    assert arrows.is_bad_coloring(five.witness, b, a, catalog.chain(5), 1)
    report("2", "6-chain holds, 5-chain fails with a verified bad coloring",
           started, 5.0)


def test_criterion_3_two_color_floor_on_rational_segment():
    """Every sub-permutation mixing agreeing and disagreeing pairs is
    exactly 2-oligochromatic under the order-agreement coloring."""
    started = time.perf_counter()
    c = universes.rational_chain(8)
    chi = arrows.sierpinski_coloring(c)
    pattern = arrows.sierpinski_pattern(c)
    mixed = 0
    for size in range(3, 9):
        for points in itertools.combinations(range(8), size):
            b = structures.restriction(c, points)
            if len(set(arrows.sierpinski_coloring(b).assignment)) != 2:
                continue
            mixed += 1
            minimum, _ = arrows.oligo_search(chi, b, pattern, c)
            assert minimum == 2, points
    assert mixed > 0
    report("3", f"{mixed} mixed sub-permutations all have minimum 2",
           started, 10.0)


def _transfer_fuzz(pool, a_pool, b_pool, k):
    verdicts: dict = {}

    def arrow(c, b, a, t):
        key = (c, b, a, t)
        if key not in verdicts:
            result = arrows.check_arrow(c, b, a, k, t)
            assert result.holds is not None
            verdicts[key] = result.holds
        return verdicts[key]

    violations = 0
    instances = 0
    for c, d in itertools.product(pool, repeat=2):
        if structures.first_embedding(c, d) is None:
            continue
        for b in b_pool:
            for a in a_pool:
                for t in (1, 2):
                    instances += 1
                    if arrow(c, b, a, t) and not arrow(d, b, a, t):
                        violations += 1
    for c in pool:
        for b in b_pool:
            for a in a_pool:
                for t in (1, 2):
                    if not arrow(c, b, a, t):
                        continue
                    for d in b_pool:
                        if structures.first_embedding(d, b) is None:
                            continue
                        instances += 1
                        if not arrow(c, d, a, t):
                            violations += 1
    return instances, violations


def test_criterion_4_transfer_implication_fuzz():
    """Zero violations of either transfer implication over the chain and
    graph pools with at most 5 vertices (source/target slots range over the
    full pools; pattern slots use the criterion-1 sizes)."""
    started = time.perf_counter()
    chains = [catalog.chain(n) for n in range(1, 6)]
    i1, v1 = _transfer_fuzz(chains,
                            [catalog.chain(n) for n in (1, 2)],
                            [catalog.chain(n) for n in (1, 2, 3)], 2)
    graphs = list(catalog.CLASSES["graphs"].members_up_to(5))
    a_pool = [g for g in graphs if g.size <= 2]
    b_pool = [g for g in graphs if g.size <= 3]
    i2, v2 = _transfer_fuzz(graphs, a_pool, b_pool, 2)
    assert v1 == 0 and v2 == 0
    report("4", f"{i1 + i2} implication instances, zero violations",
           started, 600.0)


def test_criterion_5_amalgamation_properties():
    """AP holds for chains, graphs, oriented graphs and tournaments up to
    size 4; SAP holds for graphs up to size 3."""
    started = time.perf_counter()
    outcomes = []
    for name in ("chains", "graphs", "oriented-graphs", "tournaments"):
        rep = diagrams.check_class_property("AP", catalog.CLASSES[name], 4)
        assert rep.holds and not rep.undecided, rep.summary()
        outcomes.append(f"AP/{name}:{rep.instances_checked}")
    rep = diagrams.check_class_property("SAP", catalog.CLASSES["graphs"], 3)
    assert rep.holds and not rep.undecided, rep.summary()
    outcomes.append(f"SAP/graphs:{rep.instances_checked}")
    report("5", ", ".join(outcomes) + " with zero counterexamples",
           started, 300.0)


def test_criterion_6_permutational_characterization():
    """Over every linearly ordered poset with at most 5 points, a second
    order witnessing permutationality exists exactly when the three-point
    obstruction does not embed."""
    started = time.perf_counter()
    total = 0
    for n in range(1, 6):
        for p in catalog.CLASSES["linearly-ordered-posets"].members(n):
            total += 1
            witness = catalog.is_permutational(p)
            assert (witness is not None) == (not catalog.embeds_I_star(p)), p
    report("6", f"{total} linearly ordered posets match the characterization",
           started, 120.0)


# Golden fixtures: minimal segment sizes per class member, recorded from the
# deterministic generators (member order is the canonical enumeration).
MINIMAL_SEGMENTS = {
    ("rado", "graphs"): (1, 3, 2, 6, 4, 3, 4),
    ("acyclic_universal", "dags"): (1, 3, 2, 6, 4, 6, 3, 4, 4),
    ("henson3", "triangle-free"): (1, 3, 2, 5, 5, 3),
}


def test_criterion_7_universality_audits():
    """Every graph / DAG / triangle-free graph on at most 3 vertices embeds
    into the stated segment, with frozen minimal segment sizes."""
    started = time.perf_counter()
    plans = [("rado", "graphs", 16), ("acyclic_universal", "dags", 32),
             ("henson3", "triangle-free", 32)]
    for kind, cls, segment in plans:
        rep = universes.check_universal(kind, catalog.CLASSES[cls], 3, segment)
        assert rep.all_embedded, (kind, cls)
        got = tuple(e.minimal_segment for e in rep.entries)
        assert got == MINIMAL_SEGMENTS[(kind, cls)], (kind, got)
    report("7", "all members embedded; minimal segments match the fixtures",
           started, 120.0)


def test_criterion_8_metric_suite(metric_corpus):
    """The complete distance-set and metric-space machinery."""
    started = time.perf_counter()

    # (a) compactness fixtures
    assert metric.is_compact(metric.DistanceSet.make([0, 1, 2, 5, 6]))[0]
    ok, ce = metric.is_compact(metric.DistanceSet.make([0, 1, 2, 3]))
    assert not ok and ce == (1, 3)

    # (b) + (c): every compact set over the integer grid up to 20 with at
    # most 7 values: triple classification matches the triangle
    # inequalities and the 4-values condition holds
    compact_sets = []
    for r in range(1, 7):
        for combo in itertools.combinations(range(1, 21), r):
            s = metric.DistanceSet.make((0,) + combo)
            if metric.is_compact(s)[0]:
                compact_sets.append(s)
    triples = 0
    for s in compact_sets:
        for a, b, c in itertools.combinations_with_replacement(s.positive, 3):
            triples += 1
            by_blocks = metric.classify_triple(s, a, b, c) != metric.NON_METRIC
            assert by_blocks == metric.is_metric_triple(a, b, c), (s, a, b, c)
    for s in compact_sets:
        assert metric.check_4values(s)[0], s

    # (d) the strong amalgamation corpus: validity, isometric inclusions,
    # exact overlap and span are asserted inside the operation
    amalgams = []
    for m, mp, mpp, f, g, l in metric_corpus:
        amalgam, ip, ipp = metric.sap_amalgamate_metL(m, mp, mpp, f, g, l)
        amalgams.append(amalgam)
    assert len(amalgams) >= 100

    # (e) star round trip preserves class count, class sizes and
    # cross-class distances on the same corpus
    for space in amalgams:
        star = metric.star_transform(space)
        recovered, _ = metric.recover_quotient_space(
            star.space, star.class_points, star.choice)
        cls_in = metric.sim_partition(space)
        cls_out = metric.sim_partition(recovered)
        assert tuple(len(c) for c in cls_in) == tuple(len(c) for c in cls_out)
        for ci, cj in itertools.combinations(range(len(cls_in)), 2):
            assert (space.d[cls_in[ci][0]][cls_in[cj][0]]
                    == recovered.d[cls_out[ci][0]][cls_out[cj][0]])

    # (f) the one-block graph encoding is a literal hom-set bijection on
    # every space with at most 4 points over a two-value block
    values = [2, 3]
    spaces = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for combo in itertools.product(values, repeat=len(pairs)):
            d = [[0] * n for _ in range(n)]
            for (x, y), v in zip(pairs, combo):
                d[x][y] = d[y][x] = v
            spaces.append(metric.FinMetricSpace.make([0, 2, 3], d))
    pairs_checked = 0
    for m1, m2 in itertools.product(spaces, repeat=2):
        iso = set(metric.enumerate_isometric_embeddings(m1, m2))
        graph_maps = {e.map for e in structures.enumerate_embeddings(
            metric.metric_to_kgraph(m1), metric.metric_to_kgraph(m2))}
        assert iso == graph_maps
        pairs_checked += 1
    report("8", f"{len(compact_sets)} compact sets, {triples} triples, "
           f"{len(amalgams)} amalgams round-tripped, "
           f"{pairs_checked} encoding pairs", started, 600.0)


def test_criterion_9_selftest_determinism(capsys):
    """Two full selftest runs emit byte-identical reports."""
    started = time.perf_counter()
    code1 = dispatch(["selftest"])
    first = capsys.readouterr().out
    code2 = dispatch(["selftest"])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert json.loads(first)["all_passed"] is True
    with capsys.disabled():
        pass
    report("9", "repeated selftest reports are byte-identical", started, 120.0)
