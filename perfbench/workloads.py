"""The four workloads: inputs drawn from a seed, and a known-answer check
for every item.

A workload is a list of :class:`Task`.  ``call`` is the timed request and
goes through the module attribute it names at call time (``cli.dispatch``,
``diagrams.amalgamate``, ...), so a tracer that rebinds those attributes
sees it.  ``check`` runs after the timed region and returns ``None`` or what
was wrong; ``data`` gives the JSON-able result that enters the library
digest.  ``unit`` marks the requests whose latency is the workload's item
latency.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ramsey_forge import catalog, cli, diagrams, metric, structures, universes

import known

ARROW_BUDGET = 100_000


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    data: Callable[[object], object] | None = None  # None: a CLI request
    unit: bool = True
    decided: Callable[[object], bool] = lambda result: True
    defect: str | None = None  # key of known.KNOWN_DEFECTS


@dataclass
class Workload:
    tasks: list[Task]
    counters: dict[str, int] = field(default_factory=dict)
    classes: list = field(default_factory=list)  # StructClass objects whose predicate is traced


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BY_NAME[name](seed, workdir)


def _structure_data(s) -> list:
    return [s.size, [sorted(list(t) for t in r) for r in s.relations]]


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------------------
# amalgamation


FRAISSE_CHECKS = (("chains", "AP", 4), ("graphs", "AP", 4),
                  ("oriented-graphs", "AP", 4), ("dags", "AP", 4),
                  ("graphs", "SAP", 3))

# tournament spans are sampled per size triple (|A|, |B|, |C|).  The
# completion tries (3^s - 1)/2 + 1 candidates on a span with
# s = (|B|-|A|)(|C|-|A|) open cross pairs, so a fixed count per triple fixes
# the work while the seed picks the spans; the costly s >= 6 triples get one.
def tournament_sample_size(a: int, b: int, c: int) -> int:
    return 1 if (b - a) * (c - a) >= 6 else 32

CLASS_CHECK = {
    "dags": (known.is_acyclic, known.ORIENTED_OPTIONS),
    "graphs-le-2": (lambda s: s[0] <= 2 and known.is_graph(s), known.GRAPH_OPTIONS),
}


def _counterexample_error(klass, max_size: int, ce) -> str | None:
    """None when the reported span truly has no amalgam in the class."""
    if ce is None:
        return "no counterexample reported"
    ai, bi, ci, fmap, gmap = ce
    members = klass.members_up_to(max_size)
    a, b, c = (known.raw(members[i]) for i in (ai, bi, ci))
    if not (known.is_embedding_raw(fmap, a, b) and known.is_embedding_raw(gmap, a, c)):
        return f"counterexample {ce} is not a span"
    member, options = CLASS_CHECK[klass.name]
    if known.amalgam_exists(a, b, c, fmap, gmap, member, options):
        return f"counterexample {ce} has an amalgam in {klass.name}"
    return None


def _fraisse_task(cls: str, prop: str, max_size: int) -> Task:
    holds = known.AMALGAMATION_TRUTH[(prop, cls)]
    argv = ["fraisse", "check", "--class", cls, "--property", prop,
            "--max-size", str(max_size)]

    def check(result) -> str | None:
        code, out = result
        doc = json.loads(out)
        if code != (0 if holds else 1) or doc["holds"] is not holds or doc["undecided"]:
            return f"exit {code}, holds {doc['holds']}; known {holds}"
        if holds:
            return None
        return _counterexample_error(catalog.CLASSES[cls], max_size, doc["counterexample"])

    return Task(f"fraisse-{prop}-{cls}-{max_size}", lambda: run_cli(argv), check)


def _tournaments(n: int) -> list[tuple[int, list[frozenset]]]:
    """Tournaments on n points up to isomorphism, by brute force."""
    pairs = list(itertools.combinations(range(n), 2))
    found = {}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        s = (n, [frozenset((x, y) if b else (y, x) for (x, y), b in zip(pairs, bits))])
        found.setdefault(known.canonical_raw(s), s)
    return [found[k] for k in sorted(found)]


def _tournament_spans(seed: int):
    tours = [t for n in range(1, 5) for t in _tournaments(n)]
    strata: dict[int, list] = {}
    for a, b, c in itertools.product(tours, repeat=3):
        if a[0] > min(b[0], c[0]):
            continue
        fs = [f for f in itertools.permutations(range(b[0]), a[0]) if known.is_embedding_raw(f, a, b)]
        gs = [g for g in itertools.permutations(range(c[0]), a[0]) if known.is_embedding_raw(g, a, c)]
        for f, g in itertools.product(fs, gs):
            strata.setdefault((a[0], b[0], c[0]), []).append((a, b, c, f, g))
    rng = random.Random(seed)
    return [span for sizes, spans in sorted(strata.items())
            for span in rng.sample(spans, min(len(spans), tournament_sample_size(*sizes)))]


def _tournament_task(i: int, span) -> Task:
    a, b, c, f, g = span
    build = lambda s: structures.FinStructure.build(
        catalog.ORIENTED_SIG, s[0], {"arc": sorted(s[1][0])})
    sa, sb, sc = build(a), build(b), build(c)
    ef, eg = structures.Embedding(sa, sb, f), structures.Embedding(sa, sc, g)

    def call():
        return diagrams.amalgamate(sa, sb, sc, ef, eg,
                                   predicate=catalog.CLASSES["tournaments"].predicate)

    def check(result) -> str | None:
        if result.status != diagrams.FOUND:
            return f"status {result.status}; tournaments amalgamate"
        d = known.raw(result.result.amalgam)
        into_b, into_c = result.result.into_b.map, result.result.into_c.map
        return _expect(known.is_tournament(d)
                       and known.is_embedding_raw(into_b, b, d)
                       and known.is_embedding_raw(into_c, c, d)
                       and tuple(into_b[v] for v in f) == tuple(into_c[v] for v in g),
                       "amalgam is not a commuting tournament amalgam")

    def data(result):
        if result.result is None:
            return [result.status]
        return [result.status, _structure_data(result.result.amalgam),
                result.result.into_b.map, result.result.into_c.map]

    return Task(f"tournament-span-{i}", call, check, data)


def _regression_task() -> Task:
    graphs = catalog.CLASSES["graphs"]
    klass = catalog.StructClass(
        "graphs-le-2", catalog.GRAPH_SIG, lambda s: s.size <= 2,
        lambda n: graphs.members(n) if n <= 2 else ())
    holds = known.AMALGAMATION_TRUTH[("AP", "graphs-le-2")]

    def check(report) -> str | None:
        if report.holds is not holds:
            return f"holds {report.holds}; known {holds}"
        return _counterexample_error(klass, 2, report.counterexample)

    def data(report):
        return [report.holds, report.counterexample, report.instances_checked]

    task = Task("ap-graphs-le-2",
                lambda: diagrams.check_class_property("AP", klass, 2), check, data,
                defect="ap-graphs-le-2")
    return task, klass


def build_amalgamation(seed: int, workdir: Path) -> Workload:
    tasks = [_fraisse_task(*spec) for spec in FRAISSE_CHECKS]
    regression, klass = _regression_task()
    tasks.append(regression)
    tasks += [_tournament_task(i, span) for i, span in enumerate(_tournament_spans(seed))]
    return Workload(tasks, classes=[klass])


# ---------------------------------------------------------------------------
# arrow-ladder

# (n, b, a, k): chain(n) -> (chain b)^(chain a)_{k,1}.  Decided rungs stay
# small under every relabelling of C; each runs on RELABELLINGS seeded
# relabellings, because their node counts swing with the labelling and one
# draw per rung would make item latency measure the seed.  Capped rungs are
# false-side instances the search cannot settle within ARROW_BUDGET in the
# natural labelling, so they spend exactly the budget; oracle rungs
# enumerate every colouring.
DECIDED_RUNGS = ((5, 3, 2, 2), (6, 3, 2, 2), (5, 3, 2, 3), (6, 3, 2, 3),
                 (6, 4, 2, 2), (7, 4, 2, 2), (6, 4, 3, 2))
RELABELLINGS = 18
CAPPED_RUNGS = ((10, 4, 2, 2), (10, 3, 2, 3), (12, 4, 3, 2))
ORACLE_RUNGS = ((5, 3, 2, 2), (6, 3, 2, 2), (5, 3, 2, 3))


def _chain_file(path: Path, order: list[int]) -> str:
    """Write the chain listing ``order`` (least first) as a structure file."""
    doc = {"signature": [{"name": "lt", "arity": 2, "tag": "linear-order"}],
           "size": len(order),
           "relations": {"lt": [[x, y] for x, y in itertools.combinations(order, 2)]}}
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _arrow_task(kind: str, rung, order: list[int], workdir: Path, copy: int = 0) -> Task:
    n, b, a, k = rung
    holds = known.chain_arrow_holds(n, b, a, k)
    name = f"{kind}-{n}-{b}-{a}-{k}-{copy}"
    paths = [_chain_file(workdir / f"{name}-{role}.json", o)
             for role, o in (("C", order), ("B", list(range(b))), ("A", list(range(a))))]
    argv = ["--budget", str(ARROW_BUDGET), "arrow", "check", "--C", paths[0],
            "--B", paths[1], "--A", paths[2], "-k", str(k), "-t", "1"]
    if kind == "oracle":
        argv.append("--oracle")

    def check(result) -> str | None:
        code, out = result
        doc = json.loads(out)
        if code == 2 and doc["holds"] is None:
            return None  # undecided within the budget is never a wrong answer
        if code != (0 if holds else 1) or doc["holds"] is not holds:
            return f"exit {code}, holds {doc['holds']}; known {holds}"
        if holds or kind == "oracle":
            return None
        w = doc.get("witness")
        return _expect(w is not None and known.is_bad_colouring(
            w["assignment"], w["base_hom"], b, a, order, 1),
            "witness is not a bad colouring")

    return Task(name, lambda: run_cli(argv), check,
                decided=lambda result: result[0] in (0, 1))


def build_arrow_ladder(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)

    def relabelled(n: int) -> list[int]:
        order = list(range(n))
        rng.shuffle(order)
        return order

    tasks = [_arrow_task("decided", r, relabelled(r[0]), workdir, copy)
             for r in DECIDED_RUNGS for copy in range(RELABELLINGS)]
    tasks += [_arrow_task("capped", r, list(range(r[0])), workdir) for r in CAPPED_RUNGS]
    tasks += [_arrow_task("oracle", r, relabelled(r[0]), workdir) for r in ORACLE_RUNGS]
    rows = sum(known.oracle_rows(n, a, k) for n, _, a, k in ORACLE_RUNGS)
    return Workload(tasks, counters={"arrows.oracle.rows_bound": rows})


# ---------------------------------------------------------------------------
# metric-grid

# distinct sets per (grid, number of positive values); the cost of one
# analysis depends mostly on the number of values, so fixed strata keep the
# work per pass the same for every seed
INTEGER_GRID = list(range(1, 17))
RATIONAL_GRID = [Fraction(j, 6) for j in range(1, 49)]
METRIC_STRATA = {2: 100, 3: 250, 4: 250, 5: 250}
CORPUS_SETS = ((0, 1, 2, 5, 6), (0, 1, 3), (0, 1, 3, 7), (0, 2, 3, 7, 8),
               (0, 1, 2, 5, 6, 14))


def _draw_sets(seed: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    out = []
    for grid, integral in ((INTEGER_GRID, True), (RATIONAL_GRID, False)):
        for r, count in METRIC_STRATA.items():
            seen: set = set()
            while len(seen) < count:
                values = tuple(sorted(rng.sample(grid, r)))
                if integral or any(v.denominator != 1 for v in values):
                    seen.add(values)
            out += [(Fraction(0),) + tuple(map(Fraction, v)) for v in sorted(seen)]
    return out


def _analysis_task(values) -> Task:
    s = metric.DistanceSet.make(values)

    def call():
        return metric.blocks(s), metric.is_compact(s), metric.check_4values(s)

    def check(result) -> str | None:
        bp, (compact, compact_ce), (four, four_ce) = result
        blk = known.block_of(values)
        if (bp.jumps != known.jumps(values)
                or [v for block in bp.blocks for v in block] != list(values)
                or any(blk[v] != i for i, block in enumerate(bp.blocks) for v in block)):
            return "blocks differ from the definition"
        if compact != known.is_compact(values):
            return f"compact {compact}; definition says otherwise"
        if compact_ce is not None:
            x, y = compact_ce
            if (abs(x - y) <= values[1]) == (blk[x] == blk[y]):
                return "compactness counterexample does not fail"
        if four != known.four_values(values):
            return f"4-values {four}; definition says otherwise"
        if four_ce is not None and not known.four_values_counterexample_ok(values, four_ce):
            return "4-values counterexample does not fail"
        return None

    def data(result):
        bp, (compact, cce), (four, fce) = result
        return [[[_frac(v) for v in block] for block in bp.blocks], compact,
                cce and [_frac(v) for v in cce],
                four, fce and [_frac(v) for v in fce]]

    return Task("analyze-" + ",".join(map(_frac, values)), call, check, data)


def _classify_task(values) -> Task:
    s = metric.DistanceSet.make(values)
    triples = list(itertools.combinations_with_replacement(values[1:], 3))

    def call():
        return [metric.classify_triple(s, *t) for t in triples]

    def check(result) -> str | None:
        bad = [t for t, cls in zip(triples, result)
               if (cls != metric.NON_METRIC) != known.metric_triple(*t)]
        return _expect(not bad, f"{len(bad)} triples misclassified")

    return Task("classify-" + ",".join(map(_frac, values)), call, check,
                lambda result: result, unit=False)


def _corpus():
    """The spanned-amalgamation corpus of the metric acceptance criterion:
    a two-class shared space, each side adding one point near a class."""
    out = []
    for values in CORPUS_SETS:
        s = metric.DistanceSet.make(values)
        block = known.block_of(s.values)
        first = [v for v in s.values if block[v] == 1]
        cross_options = [v for v in s.values if block[v] > 1]
        for cross in cross_options:
            base = metric.FinMetricSpace.make(s, [[0, cross], [cross, 0]])

            def extended(cls: int, near):
                row = [near if i == cls else cross for i in range(2)]
                return metric.FinMetricSpace.make(
                    s, [[0, cross, row[0]], [cross, 0, row[1]], [row[0], row[1], 0]])

            for cls_p, cls_pp in itertools.product((0, 1), repeat=2):
                for near_p, near_pp in itertools.product(first, repeat=2):
                    out.append((base, extended(cls_p, near_p),
                                extended(cls_pp, near_pp), base))
    return out


def _corpus_task(i: int, entry) -> Task:
    m, mp, mpp, l = entry

    def call():
        amalgam, into_p, into_pp = metric.sap_amalgamate_metL(m, mp, mpp, (0, 1), (0, 1), l)
        star = metric.star_transform(amalgam)
        recovered, _ = metric.recover_quotient_space(star.space, star.class_points, star.choice)
        return amalgam, into_p, into_pp, recovered

    def check(result) -> str | None:
        amalgam, into_p, into_pp, recovered = result
        values = m.dset.values
        d = amalgam.d
        if not (known.is_metric_matrix(d, values)
                and known.is_isometric_map(mp.d, d, into_p)
                and known.is_isometric_map(mpp.d, d, into_pp)
                and set(into_p) & set(into_pp) == {into_p[v] for v in (0, 1)}):
            return "amalgam is not a strong amalgam of the span"
        before = known.similarity_classes(d, values)
        after = known.similarity_classes(recovered.d, values)
        if [len(c) for c in before] != [len(c) for c in after]:
            return "star round trip changed the similarity classes"
        for ci, cj in itertools.combinations(range(len(before)), 2):
            if d[before[ci][0]][before[cj][0]] != recovered.d[after[ci][0]][after[cj][0]]:
                return "star round trip changed a cross-class distance"
        return None

    def data(result):
        amalgam, into_p, into_pp, recovered = result
        return [[[_frac(v) for v in row] for row in amalgam.d], into_p, into_pp,
                [[_frac(v) for v in row] for row in recovered.d]]

    return Task(f"corpus-{i}", call, check, data, unit=False)


def build_metric_grid(seed: int, workdir: Path) -> Workload:
    sets = _draw_sets(seed)
    tasks = [_analysis_task(v) for v in sets]
    # requests arrive in a seeded order, not stratum by stratum, so a drift
    # of the host's speed within a pass reaches every stratum alike
    random.Random(f"order-{seed}").shuffle(tasks)
    tasks += [_classify_task(v) for v in sets if known.is_compact(v)]
    tasks += [_corpus_task(i, e) for i, e in enumerate(_corpus())]
    return Workload(tasks)


# ---------------------------------------------------------------------------
# universality-audit

# (kind, class, max size, segment): the segments are large enough that every
# member that can embed does, except K5 in the BIT graph, whose least
# embedding needs a segment of over two thousand points
AUDITS = (("rado", "graphs", 5, 64),
          ("acyclic-universal", "dags", 4, 64),
          ("permutational-poset", "linearly-ordered-posets", 4, 16))
UNIVERSES = {"rado": known.bit_graph, "acyclic-universal": known.bit_dag,
             "permutational-poset": known.permutational_poset}
CLASS_MEMBER = {"graphs": known.is_graph, "dags": known.is_acyclic,
                "linearly-ordered-posets": known.is_lo_poset}
# (segment, radius, prefix): every request is met once segment >= 2^(prefix+1).
# Two extension audits make five requests a pass, an odd count, so the median
# request latency falls on one request instead of between two kinds of request
EXTENSIONS = ((128, 3, 6), (256, 3, 7))


def _audit_task(kind: str, cls: str, max_size: int, segment: int) -> Task:
    argv = ["universe", "audit", "--kind", kind, "--class", cls,
            "--max-size", str(max_size), "-N", str(segment)]

    def check(result) -> str | None:
        code, out = result
        universe = UNIVERSES[kind](segment)
        doc = json.loads(out)
        counts = known.MEMBER_COUNTS[cls][:max_size]
        members = [known.raw(s) for s in catalog.CLASSES[cls].members_up_to(max_size)]
        if [sum(1 for s in members if s[0] == n) for n in range(1, max_size + 1)] != list(counts):
            return "member counts differ from OEIS"
        if not all(map(CLASS_MEMBER[cls], members)) or len(
                {known.canonical_raw(s) for s in members}) != len(members):
            return "members are not distinct members of the class"
        if len(doc["entries"]) != len(members):
            return "one audit entry per member expected"
        for e in doc["entries"]:
            s = members[e["member"]]
            m = e["minimal_segment"]
            if e["embedded"] != (m is not None):
                return f"entry {e['member']}: embedded and minimal segment disagree"
            if m is None:
                if known.find_embedding_raw(s, universe) is not None:
                    return f"member {e['member']} embeds but is reported absent"
            elif (known.find_embedding_raw(s, known.restrict_raw(universe, m)) is None
                  or (m > s[0] and known.find_embedding_raw(
                      s, known.restrict_raw(universe, m - 1)) is not None)):
                return f"member {e['member']}: minimal segment {m} is wrong"
            if cls == "linearly-ordered-posets" and e["embedded"] == known.embeds_obstruction(s):
                return f"member {e['member']}: embeds exactly when permutational"
        all_in = all(e["embedded"] for e in doc["entries"])
        return _expect(doc["all_embedded"] is all_in and code == (0 if all_in else 1),
                       f"exit {code} disagrees with the entries")

    return Task(f"audit-{kind}-{cls}", lambda: run_cli(argv), check)


def _extension_task(n: int, radius: int, prefix: int) -> Task:
    def call():
        return universes.check_extension_property(universes.generate("rado", n), radius, prefix)

    def check(report) -> str | None:
        expected = {(u, v) for total in range(radius + 1) for k in range(total + 1)
                    for u in itertools.combinations(range(prefix), k)
                    for v in itertools.combinations([x for x in range(prefix) if x not in u],
                                                    total - k)}
        got = {(r.targets, r.non_targets) for r in report.requests}
        if got != expected or len(report.requests) != len(expected):
            return "requests differ from all disjoint pairs within the radius"
        edges = known.bit_graph(n)[1][0]
        for r in report.requests:
            z = r.witness
            if z is None or z in r.targets or z in r.non_targets or not (
                    all((z, x) in edges for x in r.targets)
                    and all((z, x) not in edges for x in r.non_targets)):
                return f"request {r.targets}/{r.non_targets}: witness {z} is wrong"
        return None

    def data(report):
        return [[r.targets, r.non_targets, r.witness, r.formula_witness_used]
                for r in report.requests]

    return Task(f"extension-rado-{n}", call, check, data)


def build_universality_audit(seed: int, workdir: Path) -> Workload:
    return Workload([_audit_task(*audit) for audit in AUDITS]
                    + [_extension_task(*e) for e in EXTENSIONS])


BY_NAME = {
    "amalgamation": build_amalgamation,
    "arrow-ladder": build_arrow_ladder,
    "metric-grid": build_metric_grid,
    "universality-audit": build_universality_audit,
}
