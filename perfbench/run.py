"""Benchmark runner for ramsey-forge.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Every pass runs in a fresh interpreter (``child.py``), one at a time, so the
program's module-level caches start cold as they do for a command-line user.
Passes repeat until the next one would end after ``--seconds``.  With
``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` traced and untraced passes alternate and the last line holds
the per-layer metrics.  ``--workload all`` runs every workload both ways
and ends with one object holding every metric, named ``workload/metric``.

The run fails (``correct`` false) when any item disagrees with its known
answer, except the recorded program defects in ``known.KNOWN_DEFECTS``, or
when two passes of the same code and seed differ in a report digest or a
deterministic counter.  ``.perfbench/record.json`` in the checkout keeps the
digests and counters of earlier runs, keyed by a hash of the source, so
that check also spans runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("amalgamation", "arrow-ladder", "metric-grid", "universality-audit")
DEFAULT_SEED = 1
# name, unit; BENCHMARK.json lists the same metrics in the same order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
    ("decided_ratio", "ratio"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
)
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not measure: a pass crashed or timed out."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(started), mode],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} pass of {workload} ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["duration"] = time.monotonic() - started
    return doc


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def layer_counts(doc: dict) -> dict:
    import layers

    units = dict(layers.PER_LAYER)
    return {k: v for k, v in doc["layers"].items() if units[k] in ("count", "bytes")}


def determinism_problems(workload: str, seed: int, plain: list, traced: list) -> list[str]:
    """Every pass must repeat the first pass's digests and counters, traced
    or not, and so must earlier runs of the same source in this checkout."""
    problems = []
    ref = plain[0]
    for i, p in enumerate(plain[1:] + traced, start=1):
        for key in ("digests", "counters"):
            if p[key] != ref[key]:
                problems.append(f"pass {i} {key} differ from pass 0")
    for p in traced[1:]:
        if layer_counts(p) != layer_counts(traced[0]):
            problems.append("traced passes differ in a layer count")
    current = {"digests": ref["digests"], "counters": ref["counters"]}
    if traced:
        current["layer_counts"] = layer_counts(traced[0])
    path = OUT / "record.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    previous = record.setdefault(f"{source_hash()}/{workload}/{seed}", {})
    for key, value in current.items():
        if previous.setdefault(key, value) != value:
            problems.append(f"{key} differ from an earlier run of this source")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run passes for about ``seconds``; return the result object and the
    lines of the human-readable table."""
    start = time.monotonic()
    # an unreported first set-up fills the file cache and prices one set-up
    setup_cost = spawn(workload, seed, "setup")["duration"]
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        plain.append(spawn(workload, seed, "plain" if plain else "checked"))
        if trace:
            traced.append(spawn(workload, seed, "traced"))
        now = time.monotonic()
        missing = max(0, MIN_SETUPS - len(plain) - len(traced))
        if now - start + (now - round_start) + missing * setup_cost > seconds:
            break
    setups = [p["setup_s"] for p in plain + traced]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup")["setup_s"])
    gate = determinism_problems(workload, seed, plain, traced)
    lines = [f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} "
             f"traced passes, {len(setups)} set-ups",
             f"  digests: cli {plain[0]['digests']['cli'][:16]}  lib {plain[0]['digests']['lib'][:16]}",
             f"  untraced wall {statistics.median(p['raw_wall_s'] for p in plain):.4g} s raw "
             f"(calibration samples included); times below are reference seconds (speed.py)"]
    result, table = summarize(plain, traced, setups, gate)
    return result, lines + table


def summarize(plain: list[dict], traced: list[dict], setups: list[float],
              gate: list[str]) -> tuple[dict, list[str]]:
    """The result object of a run from its passes, and its table lines.

    Only the first pass is checked against the known answers; the gate shows
    every other pass reported the same bytes, so it has the same wrong items.
    """
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    problems = plain[0]["problems"] * len(passes)
    unexpected = [q for q in problems if q["defect"] is None]
    wall = statistics.median(p["wall_s"] for p in plain)
    per_item = [statistics.median(item) for item in zip(*(p["latencies"] for p in plain))]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "error_rate": len(problems) / attempted,
        "decided_ratio": sum(p["counters"]["decided"] for p in passes) / attempted,
        # percentiles over requests of each request's median over passes
        "item_p50_ms": percentile(per_item, 0.5) * 1000,
        "item_p99_ms": percentile(per_item, 0.99) * 1000,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    table = dict(metrics)
    lines = [f"  {attempted} items; item latency over {len(per_item)} requests, "
             f"each the median of {len(plain)} passes"]
    if traced:
        import layers

        first = traced[0]["layers"]
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics = {}
        for name, unit in layers.PER_LAYER:
            if name == "trace.wall_s":
                value = traced_wall
            elif name == "trace.overhead_ratio":
                value = traced_wall / wall
            elif unit in ("count", "bytes"):
                value = first[name]
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        table.update(metrics)
    lines += [f"  {name:<40} {m['value']:>14.6g} {m['unit']}" for name, m in table.items()]
    for q in plain[0]["problems"]:
        note = f" [known defect: {q['defect']}]" if q["defect"] else ""
        lines.append(f"  wrong: {q['task']}: {q['error']}{note}")
    lines += [f"  determinism: {g}" for g in gate]
    result = {"correct": not unexpected and not gate, "attempted": attempted,
              "failed": len(problems), "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ramsey_forge" / "__init__.py").is_file():
        print(f"error: no ramsey_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    results = {}
    try:
        for workload, trace in runs:
            result, lines = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            results[(workload, trace)] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(result))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
