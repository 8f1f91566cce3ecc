"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from ramsey_forge import catalog, diagrams, metric, structures  # noqa: E402

import child  # noqa: E402
import known  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _namespaces() -> dict:
    """Every binding a tracer may replace."""
    owners = [m for name, m in sys.modules.items() if name.startswith("ramsey_forge")]
    owners += [structures.FinStructure, catalog.StructClass, *catalog.CLASSES.values()]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def _sample_calls():
    c4, c2 = catalog.chain(4), catalog.chain(2)
    g = catalog.CLASSES["graphs"]
    a, b = catalog.graph(1, []), catalog.complete_graph(2)
    f = structures.Embedding(a, b, (0,))
    amalgam = diagrams.amalgamate(a, b, b, f, f, predicate=g.predicate)
    s = metric.DistanceSet.make([0, 1, 2, 5, 6])
    return [
        [e.map for e in structures.enumerate_embeddings(c2, c4)],
        [structures.structure_to_json(m) for m in g.members(3)],
        structures.structure_to_json(amalgam.result.amalgam),
        metric.is_compact(s), metric.check_4values(s),
        workloads.run_cli(["fraisse", "check", "--class", "graphs",
                           "--property", "SAP", "--max-size", "2"]),
    ]


def test_tracing_returns_identical_values_and_is_removed():
    before = _namespaces()
    plain = _sample_calls()
    tracer = Tracer()
    layers.install(tracer, [])
    try:
        traced = _sample_calls()
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.summary()["structures.construct"]["calls"] > 0
    assert tracer.summary()["cli.dispatch"]["calls"] == 1
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert _sample_calls() == plain


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert summary["inner"]["calls"] == 3
    assert abs(summary["outer"]["self_s"] - (dur[0] - sum(dur[1:]))) < 1e-9


def test_reference_clock_leaves_samples_out_and_is_removed():
    clock = speed.Clock().start()
    t0 = perf_counter()
    while perf_counter() - t0 < 10 * speed.INTERVAL_S:
        sum(range(1000))
    t1 = perf_counter()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    for s0, s1 in clock.samples:  # a sample adds no reference time
        assert clock.seconds(s0, s1) == 0.0
    sampled = sum(s1 - s0 for s0, s1 in clock.samples if t0 <= s0 and s1 <= t1)
    rates = [clock.rate(i) for i in range(len(clock.samples))]
    assert (min(rates) * (t1 - t0 - sampled) * 0.99 <= clock.seconds(t0, t1)
            <= max(rates) * (t1 - t0) * 1.01)


def test_known_arrows_smallest_cases():
    assert not known.chain_arrow_holds(5, 3, 2, 2)
    assert known.chain_arrow_holds(6, 3, 2, 2)
    order = [0, 1, 2, 3, 4]
    homs = known.chain_embeddings(2, order)
    # the pentagon and pentagram: no monochromatic triangle on 5 points
    pentagon = [0 if (y - x) in (1, 4) else 1 for x, y in homs]
    assert known.is_bad_colouring(pentagon, homs, 3, 2, order, 1)
    assert not known.is_bad_colouring([0] * len(homs), homs, 3, 2, order, 1)
    relabelled = [3, 0, 4, 1, 2]
    assert known.is_bad_colouring(
        pentagon, [(relabelled[x], relabelled[y]) for x, y in homs], 3, 2, relabelled, 1)
    assert known.oracle_rows(5, 2, 2) == 2 ** 10


def test_known_member_counts_smallest_cases():
    def count(n, member):
        pairs = list(itertools.combinations(range(n), 2))
        found = set()
        for choice in itertools.product(range(3), repeat=len(pairs)):
            rel = set()
            for (x, y), c in zip(pairs, choice):
                rel |= [set(), {(x, y)}, {(y, x)}][c]
            s = (n, [frozenset(rel)])
            if member(s):
                found.add(known.canonical_raw(s))
        return len(found)

    for n in (1, 2, 3):
        assert count(n, known.is_acyclic) == known.MEMBER_COUNTS["dags"][n - 1]
        assert count(n, known.is_tournament) == known.MEMBER_COUNTS["tournaments"][n - 1]
        assert len(workloads._tournaments(n)) == known.MEMBER_COUNTS["tournaments"][n - 1]


def test_known_amalgamation_smallest_cases():
    point = (1, [frozenset()])
    edgeless = (2, [frozenset()])
    edge = (2, [frozenset({(0, 1), (1, 0)})])
    small_graph, options = workloads.CLASS_CHECK["graphs-le-2"]
    assert known.amalgam_exists(point, edgeless, edgeless, (0,), (0,), small_graph, options)
    assert known.amalgam_exists(point, edge, edge, (0,), (0,), small_graph, options)
    assert not known.amalgam_exists(point, edgeless, edge, (0,), (0,), small_graph, options)
    assert known.amalgam_exists(point, edgeless, edge, (0,), (0,), known.is_graph, options)
    arc = (2, [frozenset({(0, 1)})])
    back = (2, [frozenset({(1, 0)})])
    two = (2, [frozenset()])
    dag, dag_options = workloads.CLASS_CHECK["dags"]
    assert not known.amalgam_exists(two, arc, back, (0, 1), (0, 1), dag, dag_options)
    assert known.amalgam_exists(two, arc, arc, (0, 1), (0, 1), dag, dag_options)
    assert not known.AMALGAMATION_TRUTH[("AP", "graphs-le-2")]


def test_known_metric_smallest_cases():
    f = [Fraction(v) for v in (0, 1, 2, 5, 6)]
    assert known.jumps(f) == (0, 2, 6)
    assert known.is_compact(f) and known.four_values(f)
    assert not known.is_compact([Fraction(v) for v in (0, 1, 2, 3)])
    assert known.metric_triple(1, 1, 2) and not known.metric_triple(1, 1, 3)
    assert known.similarity_classes([[0, 1, 5], [1, 0, 5], [5, 5, 0]], f) == [[0, 1], [2]]


def _arrow_outcomes(workdir):
    wl = workloads.build("arrow-ladder", 0, workdir)
    kept = [t for t in wl.tasks if not t.name.startswith("capped")]
    wl.tasks = kept
    return wl, [(t.call(), 0.001, None) for t in kept]


def test_error_rate_counts_a_wrong_answer(tmp_path):
    wl, outcomes = _arrow_outcomes(tmp_path)
    _, problems, _, _ = child.evaluate(wl, outcomes)
    assert problems == []
    i = next(i for i, t in enumerate(wl.tasks) if t.name == "decided-6-3-2-2-0")
    code, out = outcomes[i][0]
    doc = json.loads(out)
    doc["holds"] = False
    outcomes[i] = ((1, json.dumps(doc)), 0.001, None)
    latencies, problems, digests, counters = child.evaluate(wl, outcomes)
    assert [p["task"] for p in problems] == ["decided-6-3-2-2-0"]
    pass_doc = {"setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 40.0, "latencies": latencies,
                "attempted": len(wl.tasks), "problems": problems, "digests": digests,
                "counters": counters}
    result, _ = run.summarize([pass_doc], [], [0.2], [])
    assert result["failed"] == 1 and result["correct"] is False
    assert result["metrics"]["error_rate"]["value"] == 1 / len(wl.tasks)


def test_known_defect_counts_but_keeps_the_run_correct():
    problem = {"task": "ap-graphs-le-2", "error": "wrong witness", "defect": "ap-graphs-le-2"}
    pass_doc = {"setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 40.0, "latencies": [0.1],
                "attempted": 4, "problems": [problem], "digests": {},
                "counters": {"decided": 4}}
    result, _ = run.summarize([pass_doc], [], [0.2], [])
    assert result["correct"] is True and result["failed"] == 1
    assert result["metrics"]["error_rate"]["value"] == 0.25
    assert problem["defect"] in known.KNOWN_DEFECTS


def test_benchmark_json_names_the_runner_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.BY_NAME) == set(run.WORKLOADS)
