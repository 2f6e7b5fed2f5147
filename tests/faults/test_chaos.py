"""The chaos runner: one report, one divergence finder, one fault guard."""

from __future__ import annotations

import pytest

from repro import faults
from repro.cache import default_cache
from repro.errors import JournalWriteError, MalformedELFError
from repro.eval import chaos as eval_chaos
from repro.faults.chaos import (
    ChaosReport,
    ChaosScenario,
    ScenarioResult,
    claim_work_dir,
    first_divergence,
    injected,
    run_scenarios,
)
from repro.ingest.chaos import ScanDriver


def test_first_divergence_names_the_deepest_differing_path():
    base = {"records": [{"tool": "a", "n": 1}, {"tool": "b", "n": 2}]}
    got = {"records": [{"tool": "a", "n": 1}, {"tool": "b", "n": 3}]}
    detail = first_divergence(base, got)
    assert detail.startswith("$.records[1].n diverged")
    assert "baseline 2 != recovered 3" in detail
    assert "items, recovered 1" in first_divergence(
        base, {"records": base["records"][:1]})


def test_report_is_not_ok_without_scenarios():
    report = ChaosReport("chaos", "cells")
    assert not report.ok
    assert "no scenario ran" in report.render()
    report.results.append(ScenarioResult("x", "kill@cell.execute#1",
                                         ok=True, counts={"resumed": 2}))
    assert report.ok
    assert "[ok  ] x plan=kill@cell.execute#1 resumed=2" in report.render()


def test_injected_records_expected_crash_and_always_clears():
    result = ScenarioResult("x", "enospc@journal.append#1")
    with injected(result.plan, result, (JournalWriteError,)):
        assert faults.active_plan() is not None
        raise JournalWriteError("disk full")
    assert result.crash == "JournalWriteError: disk full"
    assert faults.active_plan() is None

    with pytest.raises(RuntimeError):
        with injected(result.plan, result, (JournalWriteError,)):
            raise RuntimeError("not a crash shape")
    assert faults.active_plan() is None


def test_claim_work_dir_refuses_files_but_accepts_empty_dir(tmp_path):
    assert claim_work_dir(tmp_path / "new").is_dir()
    assert claim_work_dir(tmp_path / "new").is_dir()     # still empty
    (tmp_path / "new" / "keep.txt").write_text("user data")
    with pytest.raises(FileExistsError, match="not empty"):
        claim_work_dir(tmp_path / "new")
    assert (tmp_path / "new" / "keep.txt").read_text() == "user data"


def test_cache_scenario_restores_default_cache_when_warmup_raises(
        tmp_path, tiny_corpus, monkeypatch):
    real = eval_chaos.run_evaluation_parallel
    calls = []

    def flaky(*args, **kwargs):
        calls.append(default_cache())
        if len(calls) == 2:          # the cache scenario's warm-up
            raise RuntimeError("warm-up blew up")
        return real(*args, **kwargs)

    monkeypatch.setattr(eval_chaos, "run_evaluation_parallel", flaky)
    before = default_cache()
    scenario = ChaosScenario("corrupted-cache", "corrupt@cache.get#*",
                             use_cache=True)
    with pytest.raises(RuntimeError, match="warm-up"):
        eval_chaos.run_chaos(tiny_corpus[:1], ["funseeker"], tmp_path,
                             scenarios=[scenario])
    assert calls[1] is not before        # the scenario's cache was set
    assert default_cache() is before


def test_evaluate_run_aborts_when_an_unexpected_error_escapes(
        tmp_path, tiny_corpus, monkeypatch):
    # Only EvaluationError and OSError are crash shapes of a sweep; any
    # other ReproError out of the faulted run is a bug, not a recovery.
    real = eval_chaos.run_evaluation_parallel
    calls = []

    def escaping(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:          # the faulted run
            raise MalformedELFError("escaped the cell loop")
        return real(*args, **kwargs)

    monkeypatch.setattr(eval_chaos, "run_evaluation_parallel", escaping)
    scenario = ChaosScenario("torn-journal", "truncate@journal.append#1")
    with pytest.raises(MalformedELFError, match="escaped"):
        eval_chaos.run_chaos(tiny_corpus[:1], ["funseeker"], tmp_path,
                             scenarios=[scenario])
    assert faults.active_plan() is None


def test_evaluate_scenario_fails_when_its_fault_never_fires(
        tmp_path, tiny_corpus):
    scenario = ChaosScenario("late-hang", "hang@cell.execute#99")
    report = eval_chaos.run_chaos(tiny_corpus[:1], ["funseeker"], tmp_path,
                                  scenarios=[scenario])
    assert not report.ok
    assert "the fault never fired" in report.results[0].detail


@pytest.mark.parametrize("plan", ["kill@ingest.analyze#999",
                                  "io@ingest.admit#999"])
def test_scan_scenario_fails_when_its_fault_never_fires(tmp_path, plan):
    scenario = ChaosScenario("never", plan, workers=2, timeout=1.0)
    report = run_scenarios(ScanDriver(2022), tmp_path, [scenario])
    assert not report.ok
    assert "the fault never fired" in report.results[0].detail


def test_default_evaluate_scenarios_fire_on_a_one_binary_corpus(
        tmp_path, tiny_corpus):
    report = eval_chaos.run_chaos(tiny_corpus[:1], ["funseeker"], tmp_path)
    assert report.ok, report.render()
    assert [r.name for r in report.results] == [
        "worker-kill", "torn-journal", "corrupted-cache", "journal-enospc",
        "cell-hang"]
    for r in report.results:
        if r.name != "corrupted-cache":
            assert r.crash or r.counts["resumed"], r
