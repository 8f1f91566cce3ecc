"""Command-line entry point wiring all modules together.

One executable, six subcommands: ``arrow``, ``fraisse``, ``diagram``,
``universe``, ``metric``, ``selftest``.  Reports are deterministic: the
same inputs and configuration produce byte-identical output, so there are
no timestamps, no timing fields, and no randomness anywhere.

Exit codes: 0 success / property holds; 1 property fails (witness in the
report); 2 undecided within budget; 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import arrows, catalog, diagrams, metric, structures, universes

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

BUDGET_ENV = "RAMSEY_FORGE_BUDGET"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 64
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by all subcommands."""

    budget: int = arrows.DEFAULT_BUDGET
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise UsageError("budget must be >= 1")
        if self.fmt not in ("json", "text"):
            raise UsageError(f"unknown output format {self.fmt!r}")


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_budget(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{source}: budget must be an integer, "
                         f"got {text!r}") from None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    budget = arrows.DEFAULT_BUDGET
    fmt = "json"
    if getattr(args, "config", None):
        doc = _load_config_file(args.config)
        if "budget" in doc:
            budget = _parse_budget(doc["budget"], args.config)
        fmt = doc.get("format", fmt)
    if os.environ.get(BUDGET_ENV):
        budget = _parse_budget(os.environ[BUDGET_ENV], BUDGET_ENV)
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    if getattr(args, "format", None) is not None:
        fmt = args.format
    return RunConfig(budget, fmt)


def _render(doc: dict, config: RunConfig) -> str:
    """A report in the configured format, one trailing newline."""
    if config.fmt == "text":
        return "".join(f"{key}: {json.dumps(doc[key], sort_keys=True)}\n"
                       for key in sorted(doc))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc: dict, config: RunConfig) -> None:
    sys.stdout.write(_render(doc, config))


def _read_structure(path: str) -> structures.FinStructure:
    try:
        return structures.structure_from_json(Path(path).read_text())
    except (OSError, json.JSONDecodeError, structures.StructureError) as exc:
        raise UsageError(f"cannot read structure {path}: {exc}") from exc


def _read_metric(path: str) -> metric.FinMetricSpace:
    try:
        return metric.metric_from_json(Path(path).read_text())
    except (OSError, json.JSONDecodeError, metric.MetricError) as exc:
        raise UsageError(f"cannot read metric space {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _parse_set(text: str) -> metric.DistanceSet:
    try:
        return metric.DistanceSet.make(text.split(","))
    except metric.MetricError as exc:
        raise UsageError(f"bad distance set {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_arrow(args: argparse.Namespace, config: RunConfig) -> int:
    if args.k < 1 or args.t < 1:
        raise UsageError("-k and -t must be >= 1")
    c = _read_structure(args.C)
    b = _read_structure(args.B)
    a = _read_structure(args.A)
    try:
        if args.oracle:
            holds = arrows.exhaustive_check_arrow(c, b, a, args.k, args.t,
                                                  budget=config.budget)
            verdict = arrows.ArrowVerdict(holds=holds)
        else:
            verdict = arrows.check_arrow(c, b, a, args.k, args.t,
                                         budget=config.budget)
    except structures.SignatureMismatchError as exc:
        raise UsageError(f"structures do not fit together: {exc}") from exc
    doc: dict = {
        "check": "arrow",
        "k": args.k,
        "t": args.t,
        "holds": verdict.holds,
        "mode": "oracle" if args.oracle else "pruned",
    }
    if verdict.holds is False and verdict.witness is not None:
        witness = {
            "k": verdict.witness.k,
            "assignment": list(verdict.witness.assignment),
            "base_hom": [list(e.map) for e in verdict.witness.base_hom],
        }
        doc["witness"] = witness
        if args.witness_out:
            _write_file(args.witness_out,
                        json.dumps(witness, sort_keys=True, indent=2) + "\n")
    _emit(doc, config)
    if verdict.holds is None:
        return EXIT_UNDECIDED
    return EXIT_OK if verdict.holds else EXIT_FAIL


def _check_max_size(args: argparse.Namespace) -> None:
    if args.max_size < 0:
        raise UsageError("--max-size must be >= 0")


def _cmd_fraisse(args: argparse.Namespace, config: RunConfig) -> int:
    klass = catalog.CLASSES.get(args.klass)
    if klass is None:
        raise UsageError(f"unknown class {args.klass!r}; "
                         f"known: {', '.join(sorted(catalog.CLASSES))}")
    _check_max_size(args)
    if args.amalgam_bound is not None and args.amalgam_bound < 1:
        raise UsageError("--amalgam-bound must be >= 1")
    report = diagrams.check_class_property(args.property, klass, args.max_size,
                                           amalgam_bound=args.amalgam_bound)
    doc = {
        "check": "class-property",
        "property": report.property,
        "class": report.class_name,
        "max_size": report.max_size,
        "holds": report.holds,
        "instances_checked": report.instances_checked,
        "counterexample": (None if report.counterexample is None
                           else json.loads(json.dumps(report.counterexample))),
        "undecided": len(report.undecided),
    }
    _emit(doc, config)
    if report.undecided and report.holds:
        return EXIT_UNDECIDED
    return EXIT_OK if report.holds else EXIT_FAIL


def _diagram_from_doc(doc: dict) -> diagrams.StructDiagram:
    """The diagram a JSON document describes, its shape checked before use."""
    raw = doc.get("shape") if isinstance(doc, dict) else None
    if not (isinstance(raw, dict) and type(raw.get("top")) is int
            and type(raw.get("bottom")) is int
            and structures._int_rows(raw.get("arrows"))
            and all(len(arrow) == 2 for arrow in raw["arrows"])
            and isinstance(doc.get("top_objects"), list)
            and isinstance(doc.get("bottom_objects"), list)
            and len(doc["top_objects"]) == raw["top"]
            and len(doc["bottom_objects"]) == raw["bottom"]
            and structures._int_rows(doc.get("arrow_maps"))):
        raise structures.StructureError(
            'a diagram is an object with a "shape" (integers "top" and "bottom", '
            '"arrows" as pairs of integers), that many "top_objects" and '
            '"bottom_objects", and "arrow_maps" as lists of integers')
    shape = diagrams.BinaryDigraph(raw["top"], raw["bottom"],
                                   tuple(map(tuple, raw["arrows"])))
    tops = tuple(structures.structure_from_dict(d) for d in doc["top_objects"])
    bottoms = tuple(structures.structure_from_dict(d) for d in doc["bottom_objects"])
    maps = []
    for (s, t), m in zip(shape.arrows, doc["arrow_maps"]):
        maps.append(structures.Embedding(bottoms[s], tops[t], tuple(m)))
    return diagrams.StructDiagram(shape, tops, bottoms, tuple(maps))


def _cmd_diagram(args: argparse.Namespace, config: RunConfig) -> int:
    if args.max_tip < 0:
        raise UsageError("--max-tip must be >= 0")
    try:
        doc = json.loads(Path(args.infile).read_text())
        diagram = _diagram_from_doc(doc)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"cannot read diagram {args.infile}: {exc}") from exc
    if not diagram.top_objects:
        raise UsageError(f"diagram {args.infile} has no top objects")
    predicate = None
    if args.klass:
        klass = catalog.CLASSES.get(args.klass)
        if klass is None:
            raise UsageError(f"unknown class {args.klass!r}")
        if klass.signature != diagram.top_objects[0].signature:
            raise UsageError(f"class {args.klass!r} does not share the "
                             "diagram's signature")
        predicate = klass.predicate
    search = diagrams.find_cocone(diagram, args.max_tip, predicate)
    out: dict = {"check": "cocone", "status": search.status}
    if search.cocone is not None:
        out["tip"] = structures.structure_to_dict(search.cocone.tip)
        out["legs"] = [list(leg.map) for leg in search.cocone.legs]
    _emit(out, config)
    if search.status == diagrams.FOUND:
        return EXIT_OK
    if search.status == diagrams.IMPOSSIBLE:
        return EXIT_FAIL
    return EXIT_UNDECIDED


def _cmd_universe_gen(args: argparse.Namespace, config: RunConfig) -> int:
    kind = args.kind.replace("-", "_")
    if kind not in universes.KINDS:
        raise UsageError(f"unknown kind {args.kind!r}; "
                         f"known: {', '.join(k.replace('_', '-') for k in universes.KINDS)}")
    try:
        segment = universes.generate(kind, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = (structures.structure_to_dot(segment) if args.dot
            else _render(structures.structure_to_dict(segment), config))
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_universe_audit(args: argparse.Namespace, config: RunConfig) -> int:
    kind = args.kind.replace("-", "_")
    if kind not in universes.KINDS:
        raise UsageError(f"unknown kind {args.kind!r}")
    klass = catalog.CLASSES.get(args.klass)
    if klass is None:
        raise UsageError(f"unknown class {args.klass!r}")
    _check_max_size(args)
    try:
        report = universes.check_universal(kind, klass, args.max_size, args.N)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "check": "universality",
        "kind": args.kind,
        "class": args.klass,
        "max_size": args.max_size,
        "segment": args.N,
        "all_embedded": report.all_embedded,
        "entries": [
            {"member": e.member_index, "size": e.size, "embedded": e.embedded,
             "minimal_segment": e.minimal_segment}
            for e in report.entries
        ],
    }
    _emit(doc, config)
    return EXIT_OK if report.all_embedded else EXIT_FAIL


def _cmd_metric_analyze(args: argparse.Namespace, config: RunConfig) -> int:
    dset = _parse_set(args.set)
    bp = metric.blocks(dset)
    try:
        compact, compact_ce = metric.is_compact(dset)
    except metric.MetricError as exc:
        raise UsageError(f"bad distance set {args.set!r}: {exc}") from exc
    four, four_ce = metric.check_4values(dset)
    doc = {
        "check": "distance-set",
        "set": [metric.frac_str(v) for v in dset.values],
        "jumps": [metric.frac_str(v) for v in bp.jumps],
        "blocks": [[metric.frac_str(v) for v in blk] for blk in bp.blocks],
        "compact": compact,
        "compact_counterexample": (None if compact_ce is None
                                   else [metric.frac_str(v) for v in compact_ce]),
        "four_values": four,
        "four_values_counterexample": (None if four_ce is None
                                       else [metric.frac_str(v) for v in four_ce]),
    }
    _emit(doc, config)
    return EXIT_OK if compact and four else EXIT_FAIL


def _cmd_metric_amalgamate(args: argparse.Namespace, config: RunConfig) -> int:
    m = _read_metric(args.M)
    mp = _read_metric(args.Mp)
    mpp = _read_metric(args.Mpp)
    l = _read_metric(args.L)
    # convention: the shared space is the initial segment of both sides
    f = tuple(range(m.size))
    g = tuple(range(m.size))
    try:
        amalgam, into_p, into_pp = metric.sap_amalgamate_metL(m, mp, mpp, f, g, l)
    except metric.MetricError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "check": "metric-amalgam",
        "amalgam": metric.metric_to_dict(amalgam),
        "into_first": list(into_p),
        "into_second": list(into_pp),
    }
    _emit(doc, config)
    return EXIT_OK


def _cmd_metric_star(args: argparse.Namespace, config: RunConfig) -> int:
    m = _read_metric(args.infile)
    try:
        star = metric.star_transform(m)
    except metric.MetricError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "check": "star-transform",
        "space": metric.metric_to_dict(star.space),
        "base_size": star.base_size,
        "classes": [list(c) for c in star.classes],
        "class_points": list(star.class_points),
        "eps": metric.frac_str(star.choice.eps),
        "zeta": metric.frac_str(star.choice.zeta),
    }
    _emit(doc, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    from .selftest import all_checks

    return all_checks()


def _cmd_selftest(args: argparse.Namespace, config: RunConfig) -> int:
    checks = _selftest_checks()
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc}"
        results.append({"name": name, "passed": passed, "detail": detail})
    doc = {
        "check": "selftest",
        "all_passed": all(r["passed"] for r in results),
        "results": results,
    }
    if config.fmt == "text":
        width = max(len(r["name"]) for r in results)
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"{r['name']:<{width}}  {mark}  {r['detail']}")
        print(f"selftest: {'all passed' if doc['all_passed'] else 'FAILURES'}")
    else:
        _emit(doc, config)
    return EXIT_OK if doc["all_passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="ramsey-forge",
                     description="finite-structure workbench")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--budget", type=int, help="search-node budget")
    parser.add_argument("--format", choices=["json", "text"],
                        help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    arrow = sub.add_parser("arrow", help="Ramsey arrow checks")
    arrow_sub = arrow.add_subparsers(dest="subcommand", required=True)
    ac = arrow_sub.add_parser("check", help="decide C -> (B)^A_{k,t}")
    ac.add_argument("--C", required=True)
    ac.add_argument("--B", required=True)
    ac.add_argument("--A", required=True)
    ac.add_argument("-k", type=int, required=True)
    ac.add_argument("-t", type=int, required=True)
    ac.add_argument("--oracle", action="store_true",
                    help="exhaustive coloring enumeration instead of pruned search")
    ac.add_argument("--witness-out", help="write a failing coloring here")
    ac.set_defaults(func=_cmd_arrow)

    fraisse = sub.add_parser("fraisse", help="class property checks")
    fraisse_sub = fraisse.add_subparsers(dest="subcommand", required=True)
    fc = fraisse_sub.add_parser("check")
    fc.add_argument("--class", dest="klass", required=True)
    fc.add_argument("--property", required=True,
                    choices=["HP", "JEP", "AP", "SAP"])
    fc.add_argument("--max-size", type=int, required=True)
    fc.add_argument("--amalgam-bound", type=int, default=None)
    fc.set_defaults(func=_cmd_fraisse)

    diagram = sub.add_parser("diagram", help="diagram operations")
    diagram_sub = diagram.add_subparsers(dest="subcommand", required=True)
    dc = diagram_sub.add_parser("cocone")
    dc.add_argument("--in", dest="infile", required=True)
    dc.add_argument("--max-tip", type=int, required=True)
    dc.add_argument("--class", dest="klass", default=None)
    dc.set_defaults(func=_cmd_diagram)

    universe = sub.add_parser("universe", help="universal-structure segments")
    universe_sub = universe.add_subparsers(dest="subcommand", required=True)
    ug = universe_sub.add_parser("gen")
    ug.add_argument("--kind", required=True)
    ug.add_argument("-n", type=int, required=True)
    ug.add_argument("--out")
    ug.add_argument("--dot", action="store_true")
    ug.set_defaults(func=_cmd_universe_gen)
    ua = universe_sub.add_parser("audit")
    ua.add_argument("--kind", required=True)
    ua.add_argument("--class", dest="klass", required=True)
    ua.add_argument("--max-size", type=int, required=True)
    ua.add_argument("-N", type=int, required=True)
    ua.set_defaults(func=_cmd_universe_audit)

    met = sub.add_parser("metric", help="distance sets and metric spaces")
    met_sub = met.add_subparsers(dest="subcommand", required=True)
    ma = met_sub.add_parser("analyze")
    ma.add_argument("--set", required=True)
    ma.set_defaults(func=_cmd_metric_analyze)
    mam = met_sub.add_parser("amalgamate")
    mam.add_argument("--M", required=True)
    mam.add_argument("--Mp", required=True)
    mam.add_argument("--Mpp", required=True)
    mam.add_argument("--L", required=True)
    mam.set_defaults(func=_cmd_metric_amalgamate)
    ms = met_sub.add_parser("star")
    ms.add_argument("--in", dest="infile", required=True)
    ms.set_defaults(func=_cmd_metric_star)

    st = sub.add_parser("selftest", help="run the invariant suite")
    st.set_defaults(func=_cmd_selftest)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve_config(args)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
