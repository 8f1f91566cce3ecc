"""Which public functions of ``ramsey_forge`` the traced pass wraps, and the
per-layer metrics computed from their spans and counters."""

from __future__ import annotations

from ramsey_forge import arrows, catalog, cli, diagrams, metric, structures, universes

from spans import Tracer

# name, unit; BENCHMARK.json lists the same metrics in the same order
PER_LAYER = (
    ("structures.construct.calls", "count"),
    ("structures.construct.rejected", "count"),
    ("structures.construct.self_s", "s"),
    ("structures.embed.calls", "count"),
    ("structures.embed.maps", "count"),
    ("structures.embed.self_s", "s"),
    ("structures.embed.cache_hit_ratio", "ratio"),
    ("structures.is_embedding.calls", "count"),
    ("structures.is_embedding.self_s", "s"),
    ("structures.canonical_key.calls", "count"),
    ("structures.canonical_key.self_s", "s"),
    ("catalog.members.calls", "count"),
    ("catalog.members.self_s", "s"),
    ("catalog.predicate.calls", "count"),
    ("catalog.predicate.accept_ratio", "ratio"),
    ("diagrams.check_class_property.self_s", "s"),
    ("diagrams.amalgamate.calls", "count"),
    ("diagrams.amalgamate.self_s", "s"),
    ("diagrams.completion.candidates", "count"),
    ("diagrams.completion.useful_ratio", "ratio"),
    ("arrows.check_arrow.calls", "count"),
    ("arrows.check_arrow.self_s", "s"),
    ("arrows.nodes", "count"),
    ("arrows.nodes_per_s", "1/s"),
    ("arrows.oracle.calls", "count"),
    ("arrows.oracle.self_s", "s"),
    ("arrows.oracle.rows_bound", "count"),
    ("universes.generate.self_s", "s"),
    ("universes.check_universal.self_s", "s"),
    ("universes.check_extension.self_s", "s"),
    ("universes.segments_tried", "count"),
    ("metric.is_compact.calls", "count"),
    ("metric.is_compact.self_s", "s"),
    ("metric.check_4values.calls", "count"),
    ("metric.check_4values.self_s", "s"),
    ("metric.classify_triple.calls", "count"),
    ("metric.classify_triple.self_s", "s"),
    ("metric.sap_amalgamate.calls", "count"),
    ("metric.sap_amalgamate.self_s", "s"),
    ("metric.star.calls", "count"),
    ("metric.star.self_s", "s"),
    ("metric.blocks.cache_hit_ratio", "ratio"),
    ("cli.dispatch.calls", "count"),
    ("cli.dispatch.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# lru caches whose hit counts are reported; each pass starts them cold
CACHES = {"embed": structures.enumerate_embeddings, "blocks": metric.blocks}

METRIC_FUNCTIONS = (
    ("is_compact", "metric.is_compact"),
    ("check_4values", "metric.check_4values"),
    ("classify_triple", "metric.classify_triple"),
    ("sap_amalgamate_metL", "metric.sap_amalgamate"),
    ("star_transform", "metric.star"),
    ("recover_quotient_space", "metric.star"),
)


def cache_stats() -> dict[str, list[int]]:
    return {k: [f.cache_info().hits, f.cache_info().misses] for k, f in CACHES.items()}


def install(tracer: Tracer, classes) -> None:
    """Wrap every traced function; ``classes`` are extra StructClass objects
    whose predicates are traced alongside the catalog's."""
    c = tracer.counts

    def rejected(exc):
        if isinstance(exc, structures.StructureError):
            c["structures.construct.rejected"] += 1

    tracer.patch_attribute(structures.FinStructure, "__init__",
                           "structures.construct", on_error=rejected)

    searched: set[int] = set()  # cache hits return the same tuple again

    def maps(result):
        if id(result) not in searched:
            searched.add(id(result))
            c["structures.embed.maps"] += len(result)

    def first(result):
        c["structures.embed.maps"] += result is not None

    tracer.patch_function(structures, "enumerate_embeddings", "structures.embed", on_result=maps)
    tracer.patch_function(structures, "first_embedding", "structures.embed", on_result=first)
    tracer.patch_function(structures, "is_embedding", "structures.is_embedding")
    tracer.patch_function(structures, "canonical_key", "structures.canonical_key")
    tracer.patch_attribute(catalog.StructClass, "members", "catalog.members")

    def accepted(result):
        c["catalog.predicate.accepted"] += bool(result)

    for klass in [*catalog.CLASSES.values(), *classes]:
        tracer.patch_attribute(klass, "predicate", "catalog.predicate", on_result=accepted)

    def found(result):
        c["diagrams.amalgams_found"] += result.status == diagrams.FOUND

    tracer.patch_function(diagrams, "check_class_property", "diagrams.check_class_property")
    tracer.patch_function(diagrams, "amalgamate", "diagrams.amalgamate", on_result=found)

    def nodes(verdict):
        c["arrows.nodes"] += verdict.nodes

    tracer.patch_function(arrows, "check_arrow", "arrows.check_arrow", on_result=nodes)
    tracer.patch_function(arrows, "exhaustive_min_degree", "arrows.oracle")
    tracer.patch_function(universes, "generate", "universes.generate")
    tracer.patch_function(universes, "check_universal", "universes.check_universal")
    tracer.patch_function(universes, "check_extension_property", "universes.check_extension")
    for attr, name in METRIC_FUNCTIONS:
        tracer.patch_function(metric, attr, name)
    tracer.patch_function(cli, "dispatch", "cli.dispatch")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, caches: dict[str, list[int]],
            counters: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced pass, except the wall and overhead
    figures that need the untraced passes too.  ``caches`` holds the cache
    hits and misses of the timed region."""
    summary = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    candidates = tracer.calls_under("structures.construct", "diagrams.amalgamate")
    out = {
        "structures.construct.calls": calls("structures.construct"),
        "structures.construct.rejected": c["structures.construct.rejected"],
        "structures.construct.self_s": self_s("structures.construct"),
        "structures.embed.calls": calls("structures.embed"),
        "structures.embed.maps": c["structures.embed.maps"],
        "structures.embed.self_s": self_s("structures.embed"),
        "structures.embed.cache_hit_ratio": _ratio(caches["embed"][0], sum(caches["embed"])),
        "catalog.predicate.calls": calls("catalog.predicate"),
        "catalog.predicate.accept_ratio": _ratio(c["catalog.predicate.accepted"],
                                                 calls("catalog.predicate")),
        "diagrams.completion.candidates": candidates,
        "diagrams.completion.useful_ratio": _ratio(c["diagrams.amalgams_found"], candidates),
        "arrows.nodes": c["arrows.nodes"],
        "arrows.nodes_per_s": _ratio(c["arrows.nodes"], self_s("arrows.check_arrow")),
        "arrows.oracle.rows_bound": counters.get("arrows.oracle.rows_bound", 0),
        "universes.segments_tried": tracer.calls_under("structures.embed",
                                                       "universes.check_universal"),
        "metric.blocks.cache_hit_ratio": _ratio(caches["blocks"][0], sum(caches["blocks"])),
        "cli.report_bytes": counters.get("cli.report_bytes", 0),
        "trace.spans": len(tracer.start),
    }
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name not in out and field in ("calls", "self_s") and not span.startswith("trace"):
            out[name] = calls(span) if field == "calls" else self_s(span)
    return out
