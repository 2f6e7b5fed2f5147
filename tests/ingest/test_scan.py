"""Scan pipeline: exactly-once journaling and resume convergence.

The ``ingest_smoke`` tier-1 slice scans a hostile fixture tree with an
injected ``ingest.analyze`` fault and asserts a resume converges to the
fault-free fleet report — the acceptance property of the subsystem.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.errors import JournalWriteError, ManifestMismatchError
from repro.eval.breaker import CircuitBreaker
from repro.eval.journal import read_journal_lines
from repro.faults.chaos import CHAOS_BACKSTOP_GRACE
from repro.ingest.fixtures import build_fixture_tree
from repro.ingest.journal import ScanJournal
from repro.ingest.pipeline import run_scan
from repro.ingest.report import build_fleet_report, normalize_fleet_report

TOOLS = ["funseeker", "naive-endbr"]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    build_fixture_tree(root)
    return root


@pytest.fixture(scope="module")
def baseline_doc(tree, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("baseline") / "run"
    result = run_scan(run_dir, roots=[str(tree)], tools=TOOLS, workers=1)
    assert not result.state.failures
    return normalize_fleet_report(build_fleet_report(result.state))


def _scan(run_dir, tree=None, **kw):
    kw.setdefault("tools", TOOLS)
    roots = [str(tree)] if tree is not None else None
    return run_scan(run_dir, roots=roots, **kw)


def test_every_candidate_journaled_exactly_once(tree, tmp_path):
    result = _scan(tmp_path / "run", tree, workers=1)
    payloads, corrupt, torn = read_journal_lines(
        tmp_path / "run" / "journal.jsonl")
    assert corrupt == 0 and not torn
    paths = [doc["path"] for doc in payloads]
    assert len(paths) == len(set(paths)), "a path was decided twice"
    assert len(paths) == result.stats.walked


def test_parallel_scan_matches_serial(tree, tmp_path, baseline_doc):
    result = _scan(tmp_path / "run", tree, workers=2, timeout=30.0)
    assert not result.state.failures
    doc = normalize_fleet_report(build_fleet_report(result.state))
    assert doc == baseline_doc


def test_resume_noop_after_complete_scan(tree, tmp_path, baseline_doc):
    run_dir = tmp_path / "run"
    _scan(run_dir, tree, workers=1)
    resumed = run_scan(run_dir, resume=True, workers=1)
    assert resumed.stats.dispatched == 0
    assert resumed.stats.resumed == resumed.stats.walked
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


def test_resume_refuses_different_roots(tree, tmp_path):
    run_dir = tmp_path / "run"
    _scan(run_dir, tree, workers=1, limit=1)
    with pytest.raises(ManifestMismatchError):
        run_scan(run_dir, roots=[str(tmp_path / "other")], resume=True)


@pytest.mark.parametrize("limit", [0, 2])
def test_limit_bounds_admitted_binaries(tree, tmp_path, limit):
    result = _scan(tmp_path / "run", tree, workers=1, limit=limit)
    assert len(result.state.analyses) == limit
    assert result.stats.dispatched == limit


def test_transient_triage_fault_heals_on_resume(tree, tmp_path,
                                                baseline_doc):
    run_dir = tmp_path / "run"
    faults.install(f"io@{faults.SITE_INGEST_ADMIT}#2")
    try:
        faulted = _scan(run_dir, tree, workers=1)
    finally:
        faults.clear()
    assert faulted.state.failures, "fault did not surface as retryable"
    resumed = run_scan(run_dir, resume=True, workers=1)
    assert not resumed.state.failures
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


def test_relative_root_scan_resumes_to_baseline(tree, tmp_path,
                                                monkeypatch, baseline_doc):
    # The manifest records roots made absolute; the fresh scan must
    # journal the same path strings the resume walks, or every path is
    # decided twice and the faulted one never heals.
    monkeypatch.chdir(tree.parent)
    run_dir = tmp_path / "run"
    faults.install(f"io@{faults.SITE_INGEST_ADMIT}#2")
    try:
        _scan(run_dir, Path(tree.name), workers=1)
    finally:
        faults.clear()
    resumed = run_scan(run_dir, resume=True, workers=1)
    payloads, _, _ = read_journal_lines(run_dir / "journal.jsonl")
    assert len({doc["path"] for doc in payloads}) == \
        len(resumed.state.completed) == 16
    assert not resumed.state.failures
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


def test_directory_breaker_skips_are_retryable(tree, tmp_path,
                                               baseline_doc):
    run_dir = tmp_path / "run"
    # Every analyze read fails -> consecutive losses open the circuit
    # for the binaries' directory; the skipped candidates must land as
    # retryable failures, not vanish.
    faults.install(f"io@{faults.SITE_INGEST_ANALYZE}#*")
    try:
        faulted = _scan(run_dir, tree, workers=1,
                        breaker=CircuitBreaker(threshold=2, cooldown=100))
    finally:
        faults.clear()
    assert len(faulted.state.failures) == faulted.stats.dispatched \
        + faulted.stats.breaker_skips
    assert faulted.stats.breaker_skips > 0
    resumed = run_scan(run_dir, resume=True, workers=1)
    assert not resumed.state.failures
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


def test_journal_write_failure_aborts_resumably(tree, tmp_path):
    run_dir = tmp_path / "run"
    faults.install(f"enospc@{faults.SITE_JOURNAL_APPEND}#3")
    try:
        with pytest.raises(JournalWriteError):
            _scan(run_dir, tree, workers=1)
    finally:
        faults.clear()
    state = ScanJournal(run_dir).fold()
    assert state.decided >= 1  # the pre-fault appends survived


@pytest.mark.ingest_smoke
def test_injected_worker_kill_resumes_to_baseline(tree, tmp_path,
                                                  baseline_doc):
    """Tier-1 acceptance: kill a pool worker mid-ladder, then converge."""
    run_dir = tmp_path / "run"
    faults.install(f"kill@{faults.SITE_INGEST_ANALYZE}#2")
    try:
        faulted = _scan(run_dir, tree, workers=2, timeout=1.0,
                        backstop_grace=CHAOS_BACKSTOP_GRACE)
    finally:
        faults.clear()
    assert faulted.stats.lost_workers >= 1
    assert faulted.state.failures, "lost worker left no retryable record"

    resumed = run_scan(run_dir, resume=True, workers=1)
    assert not resumed.state.failures
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


@pytest.mark.ingest_smoke
def test_sigkill_mid_scan_resumes_to_baseline(tree, tmp_path,
                                              baseline_doc):
    """Kill the whole scan process mid-run; resume must converge.

    The SIGKILL lands at an arbitrary point (including possibly after
    completion — timing is best-effort), so the assertion is purely
    about the recovered report, which must be baseline-identical no
    matter where the scan died.
    """
    run_dir = tmp_path / "run"
    code = (
        "import sys; sys.path.insert(0, %r); "
        "from repro.ingest.pipeline import run_scan; "
        "run_scan(%r, roots=[%r], tools=%r, workers=1)"
        % (str(Path(__file__).resolve().parents[2] / "src"),
           str(run_dir), str(tree), TOOLS)
    )
    proc = subprocess.Popen([sys.executable, "-c", code])
    # Let it journal a few decisions, then kill it outright.
    deadline = time.monotonic() + 30.0
    journal = run_dir / "journal.jsonl"
    while time.monotonic() < deadline and proc.poll() is None:
        if journal.exists() and journal.stat().st_size > 0:
            break
        time.sleep(0.02)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    resumed = run_scan(run_dir, resume=True, workers=1)
    assert not resumed.state.failures
    doc = normalize_fleet_report(build_fleet_report(resumed.state))
    assert doc == baseline_doc


def test_fleet_report_sections(tree, tmp_path):
    result = _scan(tmp_path / "run", tree, workers=1)
    report = build_fleet_report(result.state, result.manifest)
    assert report["schema"] == "fleet-report/v1"
    assert report["totals"]["analyzed"] == len(result.state.analyses)
    assert report["cet"]["probed"] >= report["cet"]["any"]
    assert report["triage"]["reasons"]["reject"]["wrong-arch"] == 1
    assert "funseeker|naive-endbr" in report["agreement"]
    assert report["scan"]["tools"] == TOOLS
    # The renderer must mention the load-bearing numbers.
    from repro.ingest.report import render_fleet_table

    table = render_fleet_table(report)
    assert "cet adoption" in table and "triage reasons" in table


def test_report_is_json_serializable(tree, tmp_path):
    result = _scan(tmp_path / "run2", tree, workers=1)
    report = build_fleet_report(result.state)
    json.dumps(report)
