"""Closed-loop case runner with a per-case deadline, and the metrics it reports.

One client runs one case at a time; the next case starts when the previous
one has finished or been abandoned.  A case that passes its deadline is
interrupted by ``SIGALRM``, named in the output and counted as failed, so
every run stays bounded while the tail stays visible.
"""

from __future__ import annotations

import importlib
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class DeadlineExceeded(BaseException):
    """Raised when a case passes its deadline.

    It derives from BaseException so that no ``except EqidxError`` or
    ``except PreconditionError`` inside ``eqidx`` can swallow it.
    """


class WrongAnswer(Exception):
    """A case computed a result that its check rejects."""


@dataclass(frozen=True)
class Case:
    """One operation: ``run`` computes the answer and raises WrongAnswer if it is wrong."""

    case_id: str
    run: Callable[[], None]


@dataclass(frozen=True)
class Outcome:
    case_id: str
    index: int
    status: str  # "ok", "wrong", "error" or "deadline"
    seconds: float
    detail: str = ""


class _Alarm:
    """SIGALRM handler that raises only while a case is running."""

    armed = False

    @classmethod
    def handler(cls, signum, frame) -> None:
        if cls.armed:
            cls.armed = False
            raise DeadlineExceeded


def run_case(case: Case, deadline_s: float, index: int = 0) -> Outcome:
    """Run one case under a deadline and classify how it ended."""
    previous = signal.signal(signal.SIGALRM, _Alarm.handler)
    detail = ""
    start = time.perf_counter()
    try:
        try:
            _Alarm.armed = True
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            case.run()
        finally:
            _Alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except DeadlineExceeded:
        status = "deadline"
    except WrongAnswer as e:
        status, detail = "wrong", str(e)
    except Exception as e:  # an unexpected error is a failed case, not a crash
        status, detail = "error", f"{type(e).__name__}: {e}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(case.case_id, index, status, time.perf_counter() - start, detail)


def closed_loop(step: Callable[[int], T], seconds: float, pass_len: int = 1) -> list[T]:
    """Call ``step`` on case indices 0, 1, 2, ... for about ``seconds``.

    Cases run in whole passes of ``pass_len`` cases, so a workload made of a
    fixed set of cases samples each of them equally often.  A new pass starts
    only if one more pass as long as the previous one still fits in the
    time; the first pass always runs.
    """
    results: list[T] = []
    start = pass_start = time.perf_counter()
    index = 0
    while True:
        if index and index % pass_len == 0:
            now = time.perf_counter()
            last_pass_s, pass_start = now - pass_start, now
            if now - start + last_pass_s > seconds:
                break
        results.append(step(index))
        index += 1
    return results


def import_eqidx(root: Path) -> SimpleNamespace:
    """Import ``eqidx`` afresh from ``root/src`` and return its modules.

    Modules imported earlier are dropped first, so repeated calls measure a
    full import each time.
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "eqidx" or n.startswith("eqidx.")]:
        del sys.modules[name]
    modules = {
        short: importlib.import_module(f"eqidx.{short}")
        for short in ("cli", "generator", "equiv_index", "standard_basis",
                      "rep_rings", "poly", "errors")
    }
    package = importlib.import_module("eqidx")
    if Path(package.__file__).resolve().parent != (root / "src" / "eqidx").resolve():
        raise ImportError(f"eqidx was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**modules)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failures(outcomes: Sequence[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if o.status != "ok"]


def failed_frac(outcomes: Sequence[Outcome]) -> float:
    """(wrong answers + unexpected errors + deadline misses) / cases attempted."""
    return len(failures(outcomes)) / len(outcomes)


def latency_summary(outcomes: Sequence[Outcome]) -> dict[str, float]:
    """Median and tail latency in milliseconds, over the cases of a run.

    A case that ran more than once (a run makes whole passes over a fixed
    set of cases) counts once, at the median of its times, so the figures do
    not depend on how many passes fitted in the run.  Failed cases stay in
    at their elapsed time, so a deadline miss counts as missing any latency
    limit below the deadline.  The tail is the highest percentile with at
    least ten cases beyond it; with ten cases or fewer no such percentile
    exists and the slowest case is reported (as percentile 100).
    """
    times: dict[str, list[float]] = {}
    for o in outcomes:
        times.setdefault(o.case_id, []).append(o.seconds * 1000)
    latencies = sorted(statistics.median(t) for t in times.values())
    n = len(latencies)
    if n > 10:
        tail, percentile = latencies[n - 11], 100 * (n - 10) / n
    else:
        tail, percentile = latencies[-1], 100.0
    return {
        "p50_ms": statistics.median(latencies),
        "tail_ms": tail,
        "tail_percentile": percentile,
        "cases": n,
        "samples": len(outcomes),
    }


def cases_per_s(outcomes: Sequence[Outcome]) -> float:
    """Cases completed per second spent running cases, abandoned ones included."""
    busy = sum(o.seconds for o in outcomes)
    return sum(o.status == "ok" for o in outcomes) / busy
