"""Benchmark of eqidx: per-case latency under a deadline, on three workloads.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  One client runs one case at a time (a closed loop).  Every
answer is checked.  With ``--trace 0`` the run reports the end-to-end
metrics, set-up (a fresh import of eqidx and preparing the workload's cases)
as the median of several set-ups spread over the run; with ``--trace 1`` it runs each case twice, once untraced and once
with every layer of ``eqidx`` wrapped, and reports the per-layer metrics of
the traced runs and the tracing overhead (traced over untraced time of the
cases that completed both times, minus one).  The last line of standard
output is one JSON object; the lines before it give each metric with its
unit, the sample and case counts, the tail percentile, the failed fraction,
and every failed case by workload and case id.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from harness import (
    Outcome,
    cases_per_s,
    closed_loop,
    failed_frac,
    failures,
    import_eqidx,
    latency_summary,
    peak_rss_mb,
    run_case,
)
from tracing import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
# Set-up is repeated and its median reported, so a slow first import (which
# also compiles bytecode) does not set the figure alone.  The repeats are
# spread over the run, because the speed of a shared host drifts over
# seconds: repeats made back to back all land in the same phase.
SETUP_REPEATS = 11
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(workload_cls, seed: int):
    """Import eqidx afresh and prepare the workload; return it with the time taken."""
    start = time.perf_counter()
    workload = workload_cls(import_eqidx(ROOT), seed, WORK_DIR)
    return workload, time.perf_counter() - start


def report_failures(workload, outcomes) -> None:
    for o in failures(outcomes):
        print(
            f"failed: {workload.name} {o.case_id} (index {o.index}) {o.status} "
            f"after {o.seconds:.3f} s {o.detail}".rstrip()
        )


def untraced_run(workload, seconds: float, setup_s: float) -> dict:
    # The set-up repeats run between cases.  Each re-imports eqidx into
    # sys.modules and is discarded; the workload keeps the modules it was
    # given.
    setup_times = [setup_s]
    start = time.perf_counter()

    def step(index: int):
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup_times.append(set_up(type(workload), workload.seed)[1])
        return run_case(workload.case(index), workload.deadline_s, index)

    outcomes = closed_loop(step, seconds, workload.pass_len)
    while len(setup_times) < SETUP_REPEATS:  # a run of a few long cases
        setup_times.append(set_up(type(workload), workload.seed)[1])
    latency = latency_summary(outcomes)
    values = {
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "cases_per_s": cases_per_s(outcomes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    report_failures(workload, outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"samples {latency['samples']} cases {latency['cases']}")
    print(f"tail_percentile {latency['tail_percentile']:.4g}")
    print(f"failed_frac {failed_frac(outcomes):.6g} ratio")
    return result(outcomes, outcomes, metrics)


def traced_run(workload, seconds: float) -> dict:
    tracer = Tracer()

    def plain_case(index: int) -> Outcome:
        return run_case(workload.case(index), workload.deadline_s, index)

    def traced_case(index: int) -> Outcome:
        case = workload.case(index)
        tracer.install()
        try:
            tracer.begin_case()
            return run_case(case, workload.deadline_s, index)
        finally:
            tracer.uninstall()

    def pair(index: int) -> tuple[Outcome, Outcome]:
        # Each case runs once untraced and once traced, back to back, which
        # side first alternating, so drifts in machine speed and warm-up
        # effects cancel out of the overhead.
        if index % 2:
            traced = traced_case(index)
            return plain_case(index), traced
        plain = plain_case(index)
        return plain, traced_case(index)

    pairs = closed_loop(pair, seconds, workload.pass_len)
    untraced = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    both = [(p.seconds, t.seconds) for p, t in pairs if p.status == t.status == "ok"]
    plain_s = sum(p for p, _ in both)
    values = tracer.metrics(len(traced))
    values["trace.overhead_frac"] = sum(t for _, t in both) / plain_s - 1 if plain_s else 0.0
    values["trace.cases"] = len(traced)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    report_failures(workload, traced)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return result(untraced + traced, traced, metrics)


def result(checked, counted, metrics) -> dict:
    """The final JSON document; answers of every pass are checked."""
    return {
        "correct": all(o.status not in ("wrong", "error") for o in checked),
        "attempted": len(counted),
        "failed": len(failures(counted)),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eqidx" / "__init__.py").is_file():
        print(f"error: no eqidx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    print(
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"deadline {workload.deadline_s:g} s trace {args.trace}"
    )
    if args.trace:
        document = traced_run(workload, args.seconds)
    else:
        document = untraced_run(workload, args.seconds, setup_s)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
