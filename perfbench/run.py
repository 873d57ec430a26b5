"""End-to-end benchmark of the BestPeer++ platform.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytic-join --seed 1 \
        --seconds 12 --trace 0

A run generates the workload's inputs from ``--seed``, builds the
deployment several times (``setup_s`` is the median build), then runs
the request stream pass by pass until ``--seconds`` of measured time have
passed, and at least ``MIN_PASSES`` passes, so that every run has at least
100 queries.  Every answer is checked against a ``sqlite3`` oracle.

Standard output carries a readable summary, one JSON line with the full
report (raw seconds, sample counts, properties, the simulated digest) and,
last, the result line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the same passes then run again on a fresh deployment with
every layer boundary wrapped (``tracing.py``), and the metrics are the
per-layer ones, the workload properties and the tracing overhead.

Wall-clock metrics are in reference seconds (``calibration.py``); the
report line keeps the raw seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import metrics as measures
from calibration import Calibrator
from oracle import SqliteOracle, has_order_by, same_answer

ROOT = Path(__file__).resolve().parent.parent
#: Kernel runs on each side of a set-up.
MIN_SAMPLES = 5
# Builds per run: 5 to 9 s of set-up on every workload.
SETUPS = {"analytic-join": 7, "supply-chain": 13, "refresh-mix": 7}
MIN_PASSES = {"analytic-join": 9, "supply-chain": 10, "refresh-mix": 12}
MAX_PASSES = 1000


class Run:
    """The outcomes and timings of one sequence of passes."""

    def __init__(self) -> None:
        self.outcomes = []
        self.pass_spans = []  # (start, end) of each pass
        self.pass_sizes = []
        self.pass_digests = []
        self.failed = 0
        self.peak_rss_mb = 0.0

    def requests_in_first(self, passes: int) -> int:
        return sum(self.pass_sizes[:passes])


class Session:
    """One workload instance: its inputs, oracle and generated passes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.oracle = SqliteOracle(
            self.workload.schemas, self.workload.oracle_tables()
        )
        self.passes = []
        self.mismatches = []

    def requests(self, index: int):
        while len(self.passes) <= index:
            self.passes.append(self.workload.next_pass(len(self.passes)))
        return self.passes[index]

    def check(self, outcomes) -> int:
        """Compare every answer with the oracle; returns the failures.

        Refreshes are replayed into the oracle in request order, so each
        read is checked against the data it should have seen.
        """
        failed = 0
        for outcome in outcomes:
            request = outcome.request
            problem = outcome.error
            if problem is None and request.kind == "refresh":
                self.oracle.apply_changes(
                    request.peer_id, request.table, request.changed
                )
                if sum(outcome.delta) != 2 * len(request.changed):
                    problem = (
                        f"delta of {sum(outcome.delta)} rows for "
                        f"{len(request.changed)} changed rows"
                    )
            elif problem is None:
                problem = same_answer(
                    outcome.rows,
                    self.oracle.answer(request.sql),
                    has_order_by(request.sql),
                )
            if problem is not None:
                failed += 1
                self.mismatches.append(
                    f"{request.label}/{request.engine}: {problem}"
                )
        return failed


def run_passes(session, deployment, calibrator, seconds=None, count=None,
               tracer=None, check=True) -> Run:
    """Run passes until ``seconds`` are measured (or ``count`` passes).

    After each pass, and outside its timing, the answers are checked and
    hashed and the result rows dropped, so memory does not grow with the
    number of passes.
    """
    run = Run()
    measured = 0.0
    minimum = MIN_PASSES[session.workload.name]
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if count is None and (
            index >= MAX_PASSES or (index >= minimum and measured >= seconds)
        ):
            break
        requests = session.requests(index)

        def one_pass():
            return session.workload.run_pass(deployment, requests, calibrator)

        started = time.perf_counter()
        outcomes = tracer.root(one_pass) if tracer is not None else one_pass()
        ended = time.perf_counter()
        measured += calibrator.raw_s(started, ended)
        run.pass_spans.append((started, ended))
        run.pass_sizes.append(len(outcomes))
        if check:
            run.failed += session.check(outcomes)
        else:
            run.failed += sum(1 for o in outcomes if o.error is not None)
        run.pass_digests.append(measures.pass_digest(outcomes))
        for outcome in outcomes:
            outcome.rows = None
        run.outcomes.extend(outcomes)
        index += 1
        if index == minimum:
            # The high-water mark after the minimum passes, so that it does
            # not grow with the number of passes a faster host fits in.
            usage = resource.getrusage(resource.RUSAGE_SELF)
            run.peak_rss_mb = usage.ru_maxrss / 1024.0
    return run


def build(session, calibrator):
    """Build one deployment; returns it with its raw and reference seconds."""
    gc.collect()
    calibrator.sample(MIN_SAMPLES)
    started = time.perf_counter()
    deployment = session.workload.build(calibrator)
    ended = time.perf_counter()
    calibrator.sample(MIN_SAMPLES)
    return deployment, (
        calibrator.raw_s(started, ended), calibrator.reference_s(started, ended)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="BestPeer++ end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run it from "
            "the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(sorted(WORKLOADS))}",
            file=sys.stderr,
        )
        return 2

    session = Session(WORKLOADS[args.workload](args.seed))
    min_passes = MIN_PASSES[args.workload]
    calibrator = Calibrator()
    setups = []
    deployment = None
    for _ in range(1 if args.trace else SETUPS[args.workload]):
        deployment = None
        deployment, seconds = build(session, calibrator)
        setups.append(seconds)
    run = run_passes(session, deployment, calibrator, seconds=args.seconds)
    values, report = measures.end_to_end(run, setups, calibrator, min_passes)
    report["digest"] = measures.combined_digest(run.pass_digests[:min_passes])
    report["properties"] = measures.properties(run.outcomes, deployment.shed)
    # Failed requests, shed requests and answers the oracle rejects.
    checks = {"no_failures": run.failed == 0}
    session.oracle.close()

    if args.trace:
        deployment = None
        values = trace(session, run, calibrator, report, checks)

    report["checks"] = checks
    report["mismatches"] = session.mismatches[:10]
    print_summary(args, values, report)
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": len(run.outcomes),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


def trace(session, run, calibrator, report, checks):
    """Re-run the same passes traced; returns the per-layer metrics."""
    import tracing

    gc.collect()
    tracer = tracing.Tracer()
    # Kernel runs happen inside the root spans; a span of their own keeps
    # them out of every layer's self time, and they are then dropped.
    calibrator.sample = tracer.wrap("calibration", calibrator.sample)
    tracing.install(tracer)
    try:
        deployment = tracer.root(lambda: session.workload.build(calibrator))
        traced = run_passes(
            session, deployment, calibrator, count=len(run.pass_spans),
            tracer=tracer, check=False,
        )
    finally:
        tracer.uninstall()
        del calibrator.sample
    tracer.total_s -= tracer.self_s.pop("calibration", 0.0)
    tracer.counts["resilience.retries"] = deployment.network.metrics.faults.retries
    untraced_wall = sum(calibrator.reference_s(*span) for span in run.pass_spans)
    traced_wall = sum(calibrator.reference_s(*span) for span in traced.pass_spans)
    attributed = sum(tracer.self_s.values())
    report["traced_digest"] = measures.combined_digest(traced.pass_digests)
    checks["traced_digest_matches"] = report["traced_digest"] == (
        measures.combined_digest(run.pass_digests)
    )
    checks["self_times_add_up"] = abs(attributed - tracer.total_s) <= (
        1e-6 * max(1.0, tracer.total_s)
    )
    checks["no_retries"] = tracer.counts["resilience.retries"] == 0
    props = measures.properties(traced.outcomes, deployment.shed, tracer)
    report["properties"] = props
    report["tracing"] = {
        "untraced_reference_s": untraced_wall,
        "traced_reference_s": traced_wall,
        "overhead": traced_wall / untraced_wall,
        "traced_total_s": tracer.total_s,
        "attributed_s": attributed,
        "self_s": dict(sorted(tracer.self_s.items())),
    }
    return measures.per_layer(
        tracer, traced.outcomes, props, traced_wall / untraced_wall
    )


def print_summary(args, values, report) -> None:
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={report['samples']['passes']}"
    )
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, ok in report["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for line in report["mismatches"]:
        print(f"  mismatch: {line}")


if __name__ == "__main__":
    sys.exit(main())
