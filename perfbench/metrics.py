"""Turning a run's outcomes into metrics, properties and a digest."""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, List, Tuple

from oracle import has_order_by, normalise

Metric = Tuple[float, str]

#: Layers reported with a ``.calls`` count and a ``.self_s`` time.
COUNTED_LAYERS = (
    "parser", "sms", "indexer", "peer", "database", "access_control",
    "pricing", "network", "memtable", "resilience", "loader", "fingerprint",
    "publish", "backup", "load", "facade", "adaptive",
)
TIMED_LAYERS = COUNTED_LAYERS + ("bloom", "mapreduce", "serving")
ENGINES = ("basic", "parallel", "mapreduce", "adaptive")


def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile, interpolated between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        round(fraction * 100) - 1
    ]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# The simulated-output digest
# ----------------------------------------------------------------------
def _canonical_rows(rows, ordered: bool) -> str:
    def canon(value):
        return f"{value:.9g}" if isinstance(value, float) else repr(value)

    return ";".join(
        ",".join(canon(value) for value in row)
        for row in normalise(rows or [], ordered)
    )


def pass_digest(outcomes) -> str:
    """Hash of every simulated output of one pass, in request order.

    Covers each query's strategy, simulated latency and queue wait, bytes,
    dollar cost, spills, error and normalised rows, and each refresh's
    delta size.  A change that only makes the program faster leaves it
    unchanged.
    """
    hasher = hashlib.sha256()
    for outcome in outcomes:
        request = outcome.request
        if request.kind == "refresh":
            fields = [
                "refresh", request.peer_id, request.table,
                str(outcome.delta[0]), str(outcome.delta[1]),
            ]
        else:
            fields = [
                request.label,
                request.engine,
                outcome.strategy,
                repr(outcome.sim_latency_s),
                repr(outcome.queue_wait_s),
                str(outcome.bytes_transferred),
                repr(outcome.dollar_cost),
                str(outcome.spills),
                str(outcome.error),
                _canonical_rows(outcome.rows, has_order_by(request.sql)),
            ]
        hasher.update("|".join(fields).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def combined_digest(pass_digests: List[str]) -> str:
    return hashlib.sha256("".join(pass_digests).encode()).hexdigest()


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(run, setups, calibrator, min_passes) -> Tuple[Dict[str, Metric], dict]:
    """The end-to-end metrics (reference seconds) and the raw report."""
    outcomes = run.outcomes
    queries = [o for o in outcomes if o.request.kind == "query" and o.error is None]
    refreshes = [o for o in outcomes if o.request.kind == "refresh"]
    first = [
        o for o in outcomes[: run.requests_in_first(min_passes)]
        if o.request.kind == "query" and o.error is None
    ]

    def reference(outcome) -> float:
        return calibrator.reference_s(
            outcome.started_at, outcome.started_at + outcome.wall_s
        )

    query_walls = [reference(o) for o in queries]
    refresh_walls = [reference(o) for o in refreshes]
    pass_wall = sum(calibrator.reference_s(*span) for span in run.pass_spans)
    raw_pass_wall = sum(calibrator.raw_s(*span) for span in run.pass_spans)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_query_s.p50": (statistics.median(query_walls), "s"),
        "wall_query_s.p90": (percentile(query_walls, 0.9), "s"),
        "wall_qps": (len(outcomes) / pass_wall, "1/s"),
        "sim_latency_s.mean": (
            statistics.fmean(o.sim_latency_s for o in first), "s"
        ),
        "sim_latency_s.p90": (
            percentile([o.sim_latency_s for o in first], 0.9), "s"
        ),
        "sim_bytes.mean": (
            statistics.fmean(o.bytes_transferred for o in first), "B"
        ),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    raw_walls = [o.wall_s for o in queries]
    report = {
        "raw_seconds": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "wall_query_s.p50": statistics.median(raw_walls),
            "wall_query_s.p90": percentile(raw_walls, 0.9),
            "wall_qps": len(outcomes) / raw_pass_wall,
            "wall_refresh_s.p50": (
                statistics.median(o.wall_s for o in refreshes)
                if refreshes else None
            ),
        },
        "wall_refresh_s.p50": (
            statistics.median(refresh_walls) if refresh_walls else None
        ),
        "samples": {
            "setup_s": len(setups),
            "wall_query_s": len(query_walls),
            "wall_query_s.beyond_p90": sum(
                1 for w in query_walls if w > metrics["wall_query_s.p90"][0]
            ),
            "wall_refresh_s": len(refresh_walls),
            "sim_latency_s": len(first),
            "sim_latency_s.beyond_p90": sum(
                1 for o in first
                if o.sim_latency_s > metrics["sim_latency_s.p90"][0]
            ),
            "passes": len(run.pass_spans),
            "kernel": len(calibrator.samples),
        },
        "error_rate": ratio(run.failed, len(outcomes)),
        "kernel_median_s": statistics.median(calibrator.samples),
    }
    return metrics, report


# ----------------------------------------------------------------------
# Properties of the workload
# ----------------------------------------------------------------------
def properties(outcomes, shed: int, tracer=None) -> dict:
    """Shares later changes cite when a gain depends on a property."""
    queries = [o for o in outcomes if o.request.kind == "query"]
    refreshes = [o for o in outcomes if o.request.kind == "refresh"]

    def shares(values) -> Dict[str, float]:
        tally: Dict[str, int] = {}
        for value in values:
            tally[value] = tally.get(value, 0) + 1
        return {key: count / len(queries) for key, count in sorted(tally.items())}

    report = {
        "share_by_strategy": shares(o.strategy for o in queries),
        "share_by_engine": shares(o.request.engine for o in queries),
        "share_by_query": shares(o.request.label for o in queries),
        "refresh_delta_rows": (
            statistics.fmean(sum(o.delta) for o in refreshes) if refreshes else 0.0
        ),
        "shed": shed,
    }
    if tracer is not None:
        counts = tracer.counts
        report["plan_cache_hit_share"] = ratio(
            counts["database.plan_cache_hits"],
            counts["database.plan_cache_lookups"],
        )
        report["index_cache_hit_share"] = ratio(
            counts["indexer.cache_hits"], tracer.calls["indexer"]
        )
        report["rows_staged_per_query"] = ratio(
            counts["memtable.rows_staged"], len(queries)
        )
    return report


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def per_layer(tracer, outcomes, props, overhead) -> Dict[str, Metric]:
    """The traced run's per-layer metrics and the tracing overhead."""
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    queries = [o for o in outcomes if o.request.kind == "query"]
    metrics: Dict[str, Metric] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    for layer in COUNTED_LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
    for layer in TIMED_LAYERS:
        put(f"{layer}.self_s", self_s[layer], "s")
    for engine in ENGINES:
        put(f"engine.{engine}.self_s", self_s[f"engine.{engine}"], "s")
    put("indexer.hops", counts["indexer.hops"], "count")
    put(
        "indexer.cache_hit_ratio",
        ratio(counts["indexer.cache_hits"], calls["indexer"]), "ratio",
    )
    put("peer.rows_out", counts["peer.rows_out"], "count")
    put("database.rows_out", counts["database.rows_out"], "count")
    put(
        "database.plan_cache_hit_ratio",
        ratio(
            counts["database.plan_cache_hits"],
            counts["database.plan_cache_lookups"],
        ),
        "ratio",
    )
    put("access_control.rows", counts["access_control.rows"], "count")
    put("pricing.rows_sized", counts["pricing.rows_sized"], "count")
    put(
        "pricing.sized_per_row_shipped",
        ratio(counts["pricing.rows_sized"], counts["peer.rows_out"]), "ratio",
    )
    put("network.bytes", counts["network.bytes"], "B")
    put("bloom.probes", counts["bloom.probes"], "count")
    put(
        "bloom.pass_ratio",
        ratio(counts["bloom.passed"], counts["bloom.probes"]), "ratio",
    )
    put("memtable.rows_staged", counts["memtable.rows_staged"], "count")
    put(
        "memtable.coerce_per_row",
        ratio(counts["memtable.coerce_calls"], counts["memtable.rows_staged"]),
        "ratio",
    )
    put("mapreduce.jobs", calls["mapreduce"], "count")
    put("mapreduce.records", counts["mapreduce.records"], "count")
    put(
        "adaptive.mr_share",
        ratio(counts["adaptive.chose_mapreduce"], calls["adaptive"]), "ratio",
    )
    put("adaptive.regret", _regret(queries), "ratio")
    put("resilience.retries", counts["resilience.retries"], "count")
    waits = [o.queue_wait_s for o in queries if o.request.tenant]
    put("serving.queue_wait_s.p90", percentile(waits, 0.9) if waits else 0.0, "s")
    put("serving.shed", props["shed"], "count")
    put(
        "loader.changes_per_row_hashed",
        ratio(counts["loader.changes"], calls["fingerprint"]), "ratio",
    )
    put("trace.overhead", overhead, "ratio")
    put("trace.total_s", tracer.total_s, "s")
    put("trace.unattributed_s", self_s["unattributed"], "s")
    return metrics


def _regret(queries) -> float:
    """Mean adaptive latency over the cheaper of basic and MapReduce.

    Each drawn analytic query runs under every engine back to back, so a
    run of consecutive outcomes with one SQL text is one drawn query.
    """
    ratios = []
    group: Dict[str, float] = {}
    previous = None
    for outcome in list(queries) + [None]:
        sql = outcome.request.sql if outcome is not None else None
        if sql != previous:
            if {"adaptive", "basic", "mapreduce"} <= group.keys():
                ratios.append(
                    group["adaptive"] / min(group["basic"], group["mapreduce"])
                )
            group = {}
            previous = sql
        if outcome is not None:
            group[outcome.request.engine] = outcome.sim_latency_s
    return statistics.fmean(ratios) if ratios else 0.0
