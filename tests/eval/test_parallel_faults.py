"""Fault-path tests for the parallel runner: lost workers, retries,
worker traces and the fail-fast abort.

The detectors injected here are registered into ``ALL_DETECTORS``
before the pool spawns, so forked workers inherit them; they opt out of
the disk cache because their behavior is driven by side effects, not
the binary image.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.baselines import ALL_DETECTORS
from repro.baselines.base import FunctionDetector
from repro.elf.parser import ELFFile
from repro.eval.isolation import PHASE_DETECT, PHASE_WORKER
from repro.eval.parallel import run_evaluation_parallel

#: Trailing bytes appended to a corpus entry's image to mark it for the
#: fault detectors. Appended junk is invisible to the section-table
#: driven ELF parse, so the binary still analyzes normally.
_WEDGE_MARKER = b"\xdeWEDGE\xad"

_FLAKY_DIR_ENV = "REPRO_TEST_FLAKY_DIR"


class _VanishingDetector(FunctionDetector):
    """Kills its whole worker process on marked binaries."""

    name = "vanisher"
    cacheable = False

    def _detect(self, elf: ELFFile) -> set[int]:
        if _WEDGE_MARKER in elf.data:
            os._exit(13)  # simulate a hard native crash: no cleanup
        return set()


class _FlakyDetector(FunctionDetector):
    """Raises on the first attempt per binary, succeeds afterwards."""

    name = "flaky"
    cacheable = False

    def _detect(self, elf: ELFFile) -> set[int]:
        root = Path(os.environ[_FLAKY_DIR_ENV])
        marker = root / hashlib.sha256(elf.data).hexdigest()[:16]
        if not marker.exists():
            marker.write_text("")
            raise RuntimeError("transient flake")
        return set()


def _mark_for_wedge(entry):
    return dataclasses.replace(
        entry, stripped=entry.stripped + _WEDGE_MARKER)


@pytest.fixture()
def register_detectors(monkeypatch):
    monkeypatch.setitem(ALL_DETECTORS, "vanisher", _VanishingDetector)
    monkeypatch.setitem(ALL_DETECTORS, "flaky", _FlakyDetector)


class TestLostWorker:
    def test_one_backstop_not_one_per_job(
            self, tiny_corpus, register_detectors):
        """A worker that dies costs only its own job, and at once.

        Five jobs, one marked: the marked job's worker exits without
        reporting back and every other job completes normally. At the
        default 30 s grace the sweep still finishes in seconds: the
        dead worker is seen through its closed pipe, not by waiting
        out the job's budget plus grace (~31.5 s here).
        """
        subset = list(tiny_corpus[:5])
        subset[2] = _mark_for_wedge(subset[2])
        tools = ["funseeker", "vanisher"]
        started = time.monotonic()
        report = run_evaluation_parallel(
            subset, tools, workers=2, timeout=0.5)
        assert time.monotonic() - started < 5.0

        # Only the marked job is lost — both of its cells, as worker
        # failures — and every other (binary, tool) cell has a record.
        assert len(report.failures) == len(tools)
        for failure in report.failures:
            assert failure.phase == PHASE_WORKER
            assert failure.error_type == "WorkerLost"
            assert failure.program == subset[2].program
        assert len(report.records) == (len(subset) - 1) * len(tools)

    def test_lost_worker_does_not_block_other_results(
            self, tiny_corpus, register_detectors):
        """Results finishing after the wedge are still absorbed."""
        subset = list(tiny_corpus[:4])
        subset[0] = _mark_for_wedge(subset[0])  # first job wedges
        report = run_evaluation_parallel(
            subset, ["vanisher"], workers=2, timeout=0.5,
            backstop_grace=2.0)
        assert len(report.records) == 3
        assert [f.program for f in report.failures] == [subset[0].program]


class TestRetries:
    def test_flaky_cell_recovers_with_retry(
            self, tiny_corpus, register_detectors, monkeypatch, tmp_path):
        monkeypatch.setenv(_FLAKY_DIR_ENV, str(tmp_path))
        report = run_evaluation_parallel(
            tiny_corpus[:3], ["flaky"], workers=2, retries=1)
        assert report.failures == []
        assert len(report.records) == 3

    def test_flaky_cell_fails_without_retry(
            self, tiny_corpus, register_detectors, monkeypatch, tmp_path):
        monkeypatch.setenv(_FLAKY_DIR_ENV, str(tmp_path))
        report = run_evaluation_parallel(
            tiny_corpus[:3], ["flaky"], workers=2, retries=0)
        assert report.records == []
        assert len(report.failures) == 3
        for failure in report.failures:
            assert failure.phase == PHASE_DETECT
            assert failure.error_type == "RuntimeError"
            assert failure.attempts == 1


class TestWorkerTraces:
    def test_counters_aggregate_across_worker_processes(
            self, tiny_corpus, tmp_path):
        from repro import obs

        trace_dir = tmp_path / "parts"
        trace_dir.mkdir()
        report = run_evaluation_parallel(
            tiny_corpus[:4], ["funseeker"], workers=2,
            trace_dir=trace_dir)
        assert len(report.records) == 4

        parts = sorted(trace_dir.glob("worker-*.jsonl"))
        assert parts
        merged = obs.merge_traces(tmp_path / "merged.jsonl", parts)
        # Counter sums span the worker processes that shared the jobs.
        assert merged.counters.get("detect.runs") == 4
        assert len([s for s in merged.spans if s["name"] == "entry"]) == 4
        # The parent process's recorder stays the no-op default.
        assert not obs.enabled()


class TestAbort:
    def test_fail_fast_abort_leaves_no_worker(
            self, tiny_corpus, register_detectors, monkeypatch, tmp_path):
        from repro.errors import EvaluationAborted

        monkeypatch.setenv(_FLAKY_DIR_ENV, str(tmp_path))
        with pytest.raises(EvaluationAborted):
            run_evaluation_parallel(
                tiny_corpus[:3], ["flaky"], workers=2, keep_going=False)
        assert multiprocessing.active_children() == []
