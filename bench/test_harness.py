"""Tests of the benchmark itself.

Run with ``python -m pytest bench``.  A case with a wrong expected answer and
a case past its deadline must each count as failed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from harness import Outcome, failed_frac, import_eqidx, latency_summary, run_case
from run import END_TO_END_UNITS
from tracing import PER_LAYER_UNITS, Tracer
from workloads import HARD_IDEALS, WORKLOADS, FixedCases, HardIdeal, HardIdeals

ROOT = Path(__file__).resolve().parent.parent

# z1^3 dz1 under Z_2 with weight 1: hom = 1 + 2s, a case that takes milliseconds.
CUBIC = HardIdeal(
    name="cubic",
    source="README example",
    problem={"group": {"order": 2}, "weights": [1], "form": ["z1^3"]},
    mu=3,
    hom=(1, 2),
)


@pytest.fixture(scope="module")
def ns():
    return import_eqidx(ROOT)


def _outcomes(ns, tmp_path, ideals, deadline_s):
    workload = HardIdeals(ns, 0, tmp_path, ideals)
    return [run_case(case, deadline_s, i) for i, case in enumerate(workload.cases)]


def test_right_answers_do_not_fail(ns, tmp_path):
    outcomes = _outcomes(ns, tmp_path, (CUBIC,), 5.0)
    assert [o.status for o in outcomes] == ["ok"]
    assert failed_frac(outcomes) == 0


def test_wrong_expected_answer_raises_failed_frac(ns, tmp_path):
    wrong = replace(CUBIC, name="cubic-wrong", hom=(2, 1))
    outcomes = _outcomes(ns, tmp_path, (CUBIC, wrong), 5.0)
    assert [o.status for o in outcomes] == ["ok", "wrong"]
    assert failed_frac(outcomes) == 0.5


def test_case_past_deadline_raises_failed_frac(ns, tmp_path):
    # The mu=93 ideal takes about a second; cli.main catches EqidxError, so
    # this also shows that the deadline exception is not swallowed.
    outcomes = _outcomes(ns, tmp_path, (CUBIC, HARD_IDEALS[0]), 0.05)
    assert [o.status for o in outcomes] == ["ok", "deadline"]
    assert outcomes[1].case_id == "mu93-deep-corner"
    assert outcomes[1].seconds < 0.5
    assert failed_frac(outcomes) == 0.5


def test_tracer_rebinds_every_import_and_restores(ns, tmp_path):
    original = ns.standard_basis.mora_local
    assert ns.equiv_index.mora_local is original
    tracer = Tracer()
    tracer.install()
    try:
        assert ns.standard_basis.mora_local is not original
        assert ns.equiv_index.mora_local is ns.standard_basis.mora_local
        assert sys.modules["eqidx"].mora_local is ns.standard_basis.mora_local
        assert ns.cli.index_report is ns.equiv_index.index_report
        tracer.begin_case()
        outcomes = _outcomes(ns, tmp_path, (CUBIC,), 5.0)
    finally:
        tracer.uninstall()
    assert ns.equiv_index.mora_local is original
    assert outcomes[0].status == "ok"
    metrics = tracer.metrics(1)
    assert metrics["standard_basis.mora_local.calls"] == 1  # strata reuse the full form
    assert metrics["standard_basis.quotient_basis.monomials"] == 3  # 1, z1, z1^2
    assert metrics["cli.self_s"] > 0
    assert set(metrics) | {"trace.overhead_frac", "trace.cases"} == set(PER_LAYER_UNITS)


def test_each_pass_runs_every_case_once_in_a_seeded_order():
    cases = [f"case-{i}" for i in range(7)]
    a, b = FixedCases(1, cases), FixedCases(2, cases)
    first = [a.case(i) for i in range(21)]
    for p in range(3):
        assert sorted(first[7 * p : 7 * p + 7]) == cases
    assert first == [FixedCases(1, cases).case(i) for i in range(21)]
    assert first != [b.case(i) for i in range(21)]


def test_latency_counts_each_case_once_at_its_median():
    runs = [("a", 1.0), ("a", 3.0), ("a", 2.0)] + [(f"b{i}", 0.010) for i in range(11)]
    summary = latency_summary([Outcome(c, 0, "ok", s) for c, s in runs])
    assert summary["cases"] == 12 and summary["samples"] == 14
    assert summary["p50_ms"] == pytest.approx(10.0)
    assert summary["tail_ms"] == pytest.approx(10.0)  # 11th slowest of 12 cases
    assert summary["tail_percentile"] == pytest.approx(100 * 2 / 12)
    assert latency_summary([Outcome(c, 0, "ok", s) for c, s in runs[:3]])["tail_ms"] == 2000


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
