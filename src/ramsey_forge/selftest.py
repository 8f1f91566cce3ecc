"""Built-in invariant suite behind ``ramsey-forge selftest``.

Each check returns ``(passed, detail)``; details are deterministic strings
so that repeated runs produce byte-identical reports.  The suite is a fast
cross-section of the full test suite, not a replacement for it.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable

from . import arrows, catalog, diagrams, metric, structures, universes

Check = tuple[str, Callable[[], tuple[bool, str]]]


def _check_embedding_counts() -> tuple[bool, str]:
    cases = [
        (catalog.chain(2), catalog.chain(5), 10),
        (catalog.complete_graph(2), catalog.complete_graph(3), 6),
        (catalog.complete_graph(3), catalog.cycle_graph(5), 0),
    ]
    got = [len(structures.enumerate_embeddings(a, b)) for a, b, _ in cases]
    want = [w for _, _, w in cases]
    return got == want, f"hom-set sizes {got}, expected {want}"


def _check_embedding_oracle() -> tuple[bool, str]:
    pool = [catalog.chain(3), catalog.path_graph(3), catalog.cycle_graph(4),
            catalog.complete_graph(3)]
    bad = 0
    for a, b in itertools.product(pool, repeat=2):
        if a.signature != b.signature:
            continue
        fast = {e.map for e in structures.enumerate_embeddings(a, b)}
        slow = set()
        for image in itertools.permutations(range(b.size), a.size):
            if structures.is_embedding(image, a, b):
                slow.add(image)
        if fast != slow:
            bad += 1
    return bad == 0, f"{bad} mismatches against brute-force injections"


def _check_arrow_classic() -> tuple[bool, str]:
    a, b = catalog.chain(2), catalog.chain(3)
    six = arrows.check_arrow(catalog.chain(6), b, a, 2, 1)
    five = arrows.check_arrow(catalog.chain(5), b, a, 2, 1)
    witness_bad = (five.witness is not None
                   and arrows.is_bad_coloring(five.witness, b, a,
                                              catalog.chain(5), 1))
    ok = six.holds is True and five.holds is False and witness_bad
    return ok, (f"6-chain arrow {six.holds}, 5-chain arrow {five.holds}, "
                f"witness verified bad: {witness_bad}")


def _check_arrow_oracle_equivalence() -> tuple[bool, str]:
    mism = 0
    total = 0
    a = catalog.chain(2)
    b = catalog.chain(3)
    for nc in range(3, 6):
        c = catalog.chain(nc)
        for t in (1, 2):
            total += 1
            pruned = arrows.check_arrow(c, b, a, 2, t).holds
            oracle = arrows.exhaustive_check_arrow(c, b, a, 2, t)
            if pruned != oracle:
                mism += 1
    return mism == 0, f"{total} instances, {mism} oracle disagreements"


def _check_sierpinski() -> tuple[bool, str]:
    ident = arrows.sierpinski_coloring(catalog.permutation_structure([0, 1, 2]))
    rev = arrows.sierpinski_coloring(catalog.permutation_structure([2, 1, 0]))
    c = universes.rational_chain(8)
    chi = arrows.sierpinski_coloring(c)
    both = sorted(chi.colors_used())
    # pick the first 4-subset carrying both an agreeing and a disagreeing pair
    pattern = arrows.sierpinski_pattern(c)
    sub = None
    for points in itertools.combinations(range(8), 4):
        b = structures.restriction(c, points)
        sub_chi = arrows.sierpinski_coloring(b)
        if len(sub_chi.colors_used()) == 2:
            sub = b
            break
    minimum, _ = arrows.oligo_search(chi, sub, pattern, c)
    ok = (set(ident.assignment) == {0} and set(rev.assignment) == {1}
          and both == [0, 1] and minimum == 2)
    return ok, (f"identity colors {sorted(set(ident.assignment))}, reversal "
                f"{sorted(set(rev.assignment))}, segment uses {both}, "
                f"mixed 4-subset minimum {minimum}")


def _check_transfer() -> tuple[bool, str]:
    a, b = catalog.chain(2), catalog.chain(3)
    c = catalog.chain(6)
    ra = arrows.transfer_check(c, b, a, catalog.chain(7), b, 2, 1)
    rb = arrows.transfer_check(c, b, a, c, catalog.chain(2), 2, 1)
    return ra is True and rb is True, f"direction a: {ra}, direction b: {rb}"


def _check_cocones() -> tuple[bool, str]:
    b = catalog.chain(2)
    single = diagrams.ab_diagram(catalog.chain(1), b, [], n_top=1)
    r1 = diagrams.find_cocone(single, 4)
    span = diagrams.ab_diagram(catalog.chain(1), b,
                               [((0,), (0,), 0, 1)], n_top=2)
    r2 = diagrams.find_cocone(span, 4)
    k2 = catalog.complete_graph(2)
    gspan = diagrams.ab_diagram(catalog.complete_graph(1), k2,
                                [((0,), (0,), 0, 1)], n_top=2)
    r3 = diagrams.find_cocone(gspan, 4, catalog.CLASSES["triangle-free"])
    path3 = catalog.path_graph(3)
    ok = (r1.status == diagrams.FOUND and r1.cocone.tip == b
          and r2.status == diagrams.FOUND and r2.cocone.tip.size == 3
          and r3.status == diagrams.FOUND
          and structures.are_isomorphic(r3.cocone.tip, path3)[0])
    return ok, (f"single-top tip n={r1.cocone.tip.size}, chain-span tip "
                f"n={r2.cocone.tip.size}, triangle-free tip is a 3-path: "
                f"{structures.are_isomorphic(r3.cocone.tip, path3)[0]}")


def _check_class_properties() -> tuple[bool, str]:
    ap = diagrams.check_class_property("AP", catalog.CLASSES["chains"], 3)
    sap = diagrams.check_class_property("SAP", catalog.CLASSES["graphs"], 2)
    hp = diagrams.check_class_property("HP",
                                       catalog.CLASSES["linearly-ordered-posets"], 3)
    ok = ap.holds and sap.holds and hp.holds
    return ok, "; ".join(r.summary() for r in (ap, sap, hp))


def _check_istar() -> tuple[bool, str]:
    mismatches = 0
    total = 0
    for n in range(1, 5):
        for p in catalog.CLASSES["linearly-ordered-posets"].members(n):
            total += 1
            has_witness = catalog.is_permutational(p) is not None
            if has_witness == catalog.embeds_I_star(p):
                mismatches += 1
    return mismatches == 0, (f"{total} linearly ordered posets; "
                             f"{mismatches} violate the characterization")


def _check_nestedness() -> tuple[bool, str]:
    bad = []
    for kind in universes.KINDS:
        big = universes.generate(kind, 13)
        small = universes.generate(kind, 12)
        if structures.restriction(big, range(12)) != small:
            bad.append(kind)
    return not bad, f"non-nested kinds: {bad or 'none'}"


def _check_universe_fixtures() -> tuple[bool, str]:
    r4 = universes.rado(4)
    want_edges = {(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)}
    d4 = universes.acyclic_universal(4)
    want_arcs = {(0, 1), (0, 3), (1, 2), (1, 3)}
    pp = universes.permutational_poset(16)
    ok = (r4.rel("E") == frozenset(want_edges)
          and d4.rel("arc") == frozenset(want_arcs)
          and not catalog.embeds_I_star(pp))
    return ok, (f"rado(4) edges ok: {r4.rel('E') == frozenset(want_edges)}, "
                f"oriented arcs ok: {d4.rel('arc') == frozenset(want_arcs)}, "
                f"16-point poset obstruction-free: {not catalog.embeds_I_star(pp)}")


def _check_universality() -> tuple[bool, str]:
    reports = [
        universes.check_universal("rado", catalog.CLASSES["graphs"], 2, 8),
        universes.check_universal("acyclic_universal", catalog.CLASSES["dags"], 2, 8),
        universes.check_universal("henson3", catalog.CLASSES["triangle-free"], 2, 8),
    ]
    ok = all(r.all_embedded for r in reports)
    return ok, "; ".join(
        f"{r.kind}: {'all' if r.all_embedded else 'NOT all'} embedded"
        for r in reports)


def _check_extension() -> tuple[bool, str]:
    report = universes.check_extension_property(universes.rado(64), 2, prefix=4)
    return report.all_satisfied, (
        f"{len(report.requests)} requests, all satisfied: {report.all_satisfied}")


def _check_metric_blocks_real() -> tuple[bool, str]:
    s = metric.DistanceSet.make([0, 1, 2, 5, 6])
    bp = metric.blocks(s)
    jumps_ok = bp.jumps == (Fraction(0), Fraction(2), Fraction(6))
    blocks_ok = bp.blocks == ((Fraction(0),), (Fraction(1), Fraction(2)),
                              (Fraction(5), Fraction(6)))
    compact_ok, _ = metric.is_compact(s)
    bad = metric.DistanceSet.make([0, 1, 2, 3])
    bad_compact, ce = metric.is_compact(bad)
    ok = (jumps_ok and blocks_ok and compact_ok
          and not bad_compact and ce == (Fraction(1), Fraction(3)))
    return ok, (f"jumps {jumps_ok}, blocks {blocks_ok}, compact {compact_ok}, "
                f"counterexample {tuple(map(str, ce))}")


def _compact_pool(limit: int, max_positive: int) -> list[metric.DistanceSet]:
    pool = []
    for r in range(1, max_positive + 1):
        for combo in itertools.combinations(range(1, limit + 1), r):
            s = metric.DistanceSet.make((0,) + combo)
            if metric.is_compact(s)[0]:
                pool.append(s)
    return pool


def _check_triple_classification() -> tuple[bool, str]:
    bad = 0
    total = 0
    for s in _compact_pool(12, 4):
        for a, b, c in itertools.combinations_with_replacement(s.positive, 3):
            total += 1
            verdict = metric.classify_triple(s, a, b, c)
            if (verdict != metric.NON_METRIC) != metric.is_metric_triple(a, b, c):
                bad += 1
    return bad == 0, f"{total} triples over compact sets, {bad} disagreements"


def _check_four_values() -> tuple[bool, str]:
    failing = [tuple(map(str, s.values)) for s in _compact_pool(12, 4)
               if not metric.check_4values(s)[0]]
    return not failing, f"compact sets failing: {failing or 'none'}"


def _fixture_m() -> metric.FinMetricSpace:
    return metric.FinMetricSpace.make([0, 1, 2, 5, 6], [
        [0, 1, 5, 5],
        [1, 0, 5, 5],
        [5, 5, 0, 2],
        [5, 5, 2, 0],
    ])


def _check_metric_amalgam() -> tuple[bool, str]:
    s = [0, 1, 2, 5, 6]
    m = metric.FinMetricSpace.make(s, [[0, 5], [5, 0]])
    mp = metric.FinMetricSpace.make(s, [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
    mpp = metric.FinMetricSpace.make(s, [[0, 5, 6], [5, 0, 2], [6, 2, 0]])
    l = metric.FinMetricSpace.make([0, 5, 6], [[0, 5], [5, 0]])
    amalgam, into_p, into_pp = metric.sap_amalgamate_metL(
        m, mp, mpp, (0, 1), (0, 1), l)
    cross = amalgam.d[into_p[2]][into_pp[2]]
    case3_ok = cross == Fraction(5)
    mpp_same = metric.FinMetricSpace.make(s, [[0, 5, 2], [5, 0, 5], [2, 5, 0]])
    amalgam2, ip2, ipp2 = metric.sap_amalgamate_metL(
        m, mp, mpp_same, (0, 1), (0, 1), l)
    case4_ok = amalgam2.d[ip2[2]][ipp2[2]] == Fraction(1)
    return case3_ok and case4_ok, (
        f"cross-class new distance {cross} (want 5), same-class new "
        f"distance {amalgam2.d[ip2[2]][ipp2[2]]} (want 1)")


def _check_star_round_trip() -> tuple[bool, str]:
    m = _fixture_m()
    star = metric.star_transform(m)
    recovered, kept = metric.recover_quotient_space(
        star.space, star.class_points, star.choice)
    same = recovered.d == m.d
    classes_ok = metric.sim_partition(recovered) == metric.sim_partition(m)
    return same and classes_ok, (
        f"star on 4 points gives {star.space.size} points; recovery exact: "
        f"{same}, classes preserved: {classes_ok}")


def _check_kgraph() -> tuple[bool, str]:
    m1 = metric.FinMetricSpace.make([0, 3, 4], [[0, 3, 3], [3, 0, 4], [3, 4, 0]])
    g1 = metric.metric_to_kgraph(m1)
    colors = (len(g1.rel("E1")) // 2, len(g1.rel("E2")) // 2)
    m2 = metric.FinMetricSpace.make([0, 3, 4], [[0, 3], [3, 0]])
    g2 = metric.metric_to_kgraph(m2)
    maps_metric = set(metric.enumerate_isometric_embeddings(m2, m1))
    maps_graph = {e.map for e in structures.enumerate_embeddings(g2, g1)}
    ok = colors == (2, 1) and maps_metric == maps_graph
    return ok, (f"edge colors {colors} (want (2, 1)); hom-sets literally "
                f"equal: {maps_metric == maps_graph}")


def _check_determinism() -> tuple[bool, str]:
    def run_once() -> str:
        out = []
        for name, fn in _DETERMINISM_SAMPLE:
            passed, detail = fn()
            out.append({"name": name, "passed": passed, "detail": detail})
        return json.dumps(out, sort_keys=True)

    first, second = run_once(), run_once()
    return first == second, f"repeated sample runs identical: {first == second}"


_DETERMINISM_SAMPLE: list[Check] = [
    ("embedding-enumeration-counts", _check_embedding_counts),
    ("arrow-classic-thresholds", _check_arrow_classic),
    ("distance-set-blocks", _check_metric_blocks_real),
]


def all_checks() -> list[Check]:
    return [
        ("embedding-enumeration-counts", _check_embedding_counts),
        ("embedding-oracle-agreement", _check_embedding_oracle),
        ("arrow-classic-thresholds", _check_arrow_classic),
        ("arrow-oracle-equivalence", _check_arrow_oracle_equivalence),
        ("order-agreement-coloring", _check_sierpinski),
        ("arrow-transfer-implications", _check_transfer),
        ("cocone-search-fixtures", _check_cocones),
        ("class-property-checkers", _check_class_properties),
        ("obstruction-permutational-equivalence", _check_istar),
        ("universe-nestedness", _check_nestedness),
        ("universe-defining-fixtures", _check_universe_fixtures),
        ("universality-audits", _check_universality),
        ("point-extension-audit", _check_extension),
        ("distance-set-blocks", _check_metric_blocks_real),
        ("metric-triple-classification", _check_triple_classification),
        ("four-values-condition", _check_four_values),
        ("spanned-amalgamation", _check_metric_amalgam),
        ("star-round-trip", _check_star_round_trip),
        ("one-block-graph-encoding", _check_kgraph),
        ("report-determinism", _check_determinism),
    ]
