"""One pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED_AT MODE

MODE is ``checked`` (a timed pass whose results are then checked against
the known answers), ``plain`` (the same without the checks), ``traced`` (a
plain pass with the layer wrappers installed) or ``setup`` (set up, then
stop).  The runner checks one pass a run; the determinism gate shows that
every other pass reported the same bytes.  SPAWNED_AT is the
parent's ``time.monotonic()`` just before the spawn, so set-up time counts
from interpreter start.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, seed: int, spawned_at: float, mode: str) -> dict:
    clock = speed.Clock().start()
    import ramsey_forge

    if not Path(ramsey_forge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ramsey_forge imported from {ramsey_forge.__file__}, "
                         f"not from {ROOT / 'src'}")
    import layers
    import workloads
    from spans import Tracer

    workdir = ROOT / ".perfbench" / "inputs" / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, workdir)
    if mode == "setup":
        setup_end = perf_counter()
        clock.stop()
        return {"setup_s": clock.since_spawn(spawned_at, setup_end)}

    tracer = Tracer(timebase=clock.reference) if mode == "traced" else None
    if tracer is not None:
        layers.install(tracer, wl.classes)
    caches_before = layers.cache_stats()
    stamps, results = [], []
    start = perf_counter()
    for task in wl.tasks:
        t0 = perf_counter()
        try:
            results.append((task.call(), None))
        except Exception as exc:  # a request that raises is a failed item
            results.append((None, f"raised {exc!r}"))
        stamps.append((t0, perf_counter()))
    end = perf_counter()
    caches = {k: [after - before for after, before in zip(v, caches_before[k])]
              for k, v in layers.cache_stats().items()}
    if tracer is not None:
        tracer.remove()
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every time is in reference seconds (speed.py), samples excluded
    ref = clock.reference(stamps)
    outcomes = [(result, seconds, error)
                for (result, error), seconds in zip(results, ref[:, 1] - ref[:, 0])]
    latencies, problems, digests, counters = evaluate(wl, outcomes, mode == "checked")
    counters.update({f"cache.{k}": v for k, v in caches.items()})
    doc = {
        "setup_s": clock.since_spawn(spawned_at, start),
        "wall_s": clock.seconds(start, end),
        "raw_wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "attempted": len(wl.tasks),
        "problems": problems,
        "digests": digests,
        "counters": counters,
    }
    if tracer is not None:
        doc["layers"] = layers.metrics(tracer, caches, counters)
        tracer.write(ROOT / ".perfbench" / f"spans-{workload}-{seed}.npz")
    return doc


def evaluate(wl, outcomes, check: bool = True) -> tuple[list[float], list[dict], dict, dict]:
    """Digest every outcome ``(result, seconds, error)`` and, with ``check``,
    check it against its task.

    Returns the unit latencies, the wrong items (those that raised, when not
    checking), the report digests and the deterministic counters.
    """
    cli_digest, lib_digest = hashlib.sha256(), hashlib.sha256()
    counters = dict(wl.counters, **{"cli.report_bytes": 0, "decided": 0})
    latencies, problems = [], []
    for task, (result, seconds, error) in zip(wl.tasks, outcomes, strict=True):
        if task.unit:
            latencies.append(seconds)
        if error is None:
            if task.data is None:
                code, out = result
                counters["cli.report_bytes"] += len(out.encode())
                cli_digest.update(json.dumps([task.name, code, out]).encode())
            else:
                lib_digest.update(json.dumps([task.name, task.data(result)],
                                             sort_keys=True).encode())
            try:
                error = task.check(result) if check else None
            except Exception as exc:  # a malformed answer is a wrong answer
                error = f"check raised {exc!r}"
            counters["decided"] += task.decided(result)
        if error is not None:
            problems.append({"task": task.name, "error": error, "defect": task.defect})
    digests = {"cli": cli_digest.hexdigest(), "lib": lib_digest.hexdigest()}
    return latencies, problems, digests, counters


if __name__ == "__main__":
    name, seed, spawned_at, mode = sys.argv[1:]
    print(json.dumps(main(name, int(seed), float(spawned_at), mode)))
