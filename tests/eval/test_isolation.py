"""Fault-isolated evaluation: failed cells become data, not crashes."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.baselines import FunSeekerDetector
from repro.baselines.base import FunctionDetector
from repro.errors import (
    CellTimeoutError,
    EvaluationAborted,
    MalformedELFError,
    PermanentFaultError,
    TransientFaultError,
)
from repro.eval import failure_summary, run_evaluation
from repro.eval.isolation import (
    PHASE_DETECT,
    PHASE_PARSE,
    deadline,
    run_cell,
)
from repro.eval.parallel import run_evaluation_parallel


class ExplodingDetector(FunctionDetector):
    name = "exploder"

    def _detect(self, elf):
        raise RuntimeError("synthetic detector crash")


class SleepyDetector(FunctionDetector):
    name = "sleeper"

    def _detect(self, elf):
        # A pure-Python spin, the realistic hang mode SIGALRM can
        # interrupt (time.sleep would also be interrupted, but a busy
        # loop is the harder case).
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            pass
        return set()


def _corrupt(entry):
    return dataclasses.replace(
        entry, stripped=entry.stripped[:96] + b"\xff" * 32)


# ---------------------------------------------------------------------------
# run_cell
# ---------------------------------------------------------------------------


def test_run_cell_success():
    result, error, attempts, elapsed = run_cell(lambda: 41 + 1)
    assert (result, error, attempts) == (42, None, 1)
    assert elapsed >= 0


def test_run_cell_bounded_retry():
    calls = []

    def body():
        calls.append(1)
        raise ValueError("nope")

    result, error, attempts, _ = run_cell(body, retries=2)
    assert result is None
    assert isinstance(error, ValueError)
    assert attempts == 3
    assert len(calls) == 3


def test_run_cell_permanent_failure_not_retried():
    # A parse rejection is structural: re-reading the same bytes cannot
    # succeed, so the retry budget must not be burned on it.
    calls = []

    def body():
        calls.append(1)
        raise MalformedELFError("structurally bad input")

    result, error, attempts, _ = run_cell(body, retries=5)
    assert result is None
    assert isinstance(error, MalformedELFError)
    assert attempts == 1
    assert len(calls) == 1


def test_run_cell_memory_error_not_retried():
    def body():
        raise MemoryError("rss ceiling")

    _result, error, attempts, _ = run_cell(body, retries=3)
    assert isinstance(error, MemoryError)
    assert attempts == 1


def test_run_cell_injected_fault_taxonomy():
    transient = run_cell(lambda: (_ for _ in ()).throw(
        TransientFaultError("flaky")), retries=2)
    assert transient[2] == 3              # retried to exhaustion
    permanent = run_cell(lambda: (_ for _ in ()).throw(
        PermanentFaultError("broken")), retries=2)
    assert permanent[2] == 1              # failed fast


def test_run_cell_timeout_not_retried():
    calls = []

    def body():
        calls.append(1)
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass

    result, error, attempts, elapsed = run_cell(
        body, timeout=0.1, retries=3)
    assert result is None
    assert isinstance(error, CellTimeoutError)
    assert attempts == 1          # deterministic: would time out again
    assert len(calls) == 1
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# deadline composition
# ---------------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_deadline_inner_budget_enforced():
    with deadline(10.0):
        with pytest.raises(CellTimeoutError):
            with deadline(0.1):
                _spin(5.0)


def test_nested_deadline_rearms_outer_remainder():
    # The outer budget must keep ticking across an inner scope: after a
    # fast inner cell, the outer watchdog still fires on time.
    started = time.perf_counter()
    with pytest.raises(CellTimeoutError):
        with deadline(0.4):
            with deadline(5.0):
                _spin(0.05)           # inner finishes well under budget
            _spin(5.0)                # outer must interrupt this
    assert time.perf_counter() - started < 3.0


def test_nested_deadline_outer_blown_inside_inner_fires_on_exit():
    # The inner scope outlives the outer budget; the outer alarm fires
    # as soon as its handler is re-armed rather than being lost.
    with pytest.raises(CellTimeoutError):
        with deadline(0.1):
            with deadline(10.0):
                _spin(0.3)
            _spin(10.0)               # unreachable without the re-arm


def test_nested_deadline_success_leaves_no_pending_alarm():
    with deadline(0.5):
        with deadline(0.5):
            pass
    _spin(0.6)                        # no stale alarm may fire here


# ---------------------------------------------------------------------------
# serial sweep isolation
# ---------------------------------------------------------------------------


def test_corrupted_binary_isolated_from_sweep(tiny_corpus):
    entries = list(tiny_corpus)[:3]
    detectors = {"funseeker": FunSeekerDetector()}
    clean = run_evaluation(entries, detectors)

    mixed = run_evaluation(
        [entries[0], _corrupt(entries[1]), entries[2]], detectors)

    assert len(mixed.failures) == 1
    failure = mixed.failures[0]
    assert failure.phase == PHASE_PARSE
    assert failure.program == entries[1].program
    assert failure.tool == "funseeker"
    # The surviving cells are bit-identical to the clean sweep (the
    # corpus is one record per entry, in order; entry 1 dropped out).
    def _key(r):
        return (r.program, r.compiler, r.bits, r.opt,
                r.confusion.tp, r.confusion.fp, r.confusion.fn)

    assert [_key(r) for r in mixed.records] == [
        _key(clean.records[0]), _key(clean.records[2])]
    assert 0 < mixed.success_rate() < 1


def test_detector_crash_recorded_with_attempts(tiny_corpus):
    entry = next(iter(tiny_corpus))
    report = run_evaluation(
        [entry],
        {"exploder": ExplodingDetector(), "funseeker": FunSeekerDetector()},
        retries=2,
    )
    assert len(report.records) == 1      # funseeker still ran
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.phase == PHASE_DETECT
    assert failure.error_type == "RuntimeError"
    assert failure.attempts == 3


def test_hanging_detector_times_out(tiny_corpus):
    entry = next(iter(tiny_corpus))
    started = time.perf_counter()
    report = run_evaluation(
        [entry], {"sleeper": SleepyDetector()}, timeout=0.2)
    assert time.perf_counter() - started < 10.0
    assert len(report.failures) == 1
    assert report.failures[0].is_timeout
    assert report.failures[0].attempts == 1


def test_fail_fast_aborts(tiny_corpus):
    entries = list(tiny_corpus)[:2]
    with pytest.raises(EvaluationAborted, match="RuntimeError"):
        run_evaluation(entries, {"exploder": ExplodingDetector()},
                       keep_going=False)


def test_failure_summary_rendering(tiny_corpus):
    entry = next(iter(tiny_corpus))
    report = run_evaluation([entry], {"exploder": ExplodingDetector()})
    text = failure_summary(report)
    assert "FAILED CELLS: 1" in text
    assert "RuntimeError" in text
    assert failure_summary(run_evaluation([], {})) == ""


def test_filtered_carries_failures(tiny_corpus):
    entry = next(iter(tiny_corpus))
    report = run_evaluation(
        [entry],
        {"exploder": ExplodingDetector(), "funseeker": FunSeekerDetector()},
    )
    sub = report.filtered(tool="exploder")
    assert not sub.records
    assert len(sub.failures) == 1
    assert report.tools() == ["exploder", "funseeker"]


# ---------------------------------------------------------------------------
# parallel sweep isolation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_survives_corrupted_binary(tiny_corpus, workers):
    entries = list(tiny_corpus)[:3]
    mixed = [entries[0], _corrupt(entries[1]), entries[2]]
    report = run_evaluation_parallel(
        mixed, ["funseeker"], workers=workers, timeout=30.0)
    assert len(report.records) == 2
    assert len(report.failures) == 1
    assert report.failures[0].phase == PHASE_PARSE


def test_parallel_fail_fast(tiny_corpus):
    entries = [_corrupt(next(iter(tiny_corpus)))]
    with pytest.raises(EvaluationAborted):
        run_evaluation_parallel(entries, ["funseeker"], workers=1,
                                keep_going=False)
