"""Chaos harness: prove crash-safety end to end against injected faults.

Each :class:`ChaosScenario` runs the full evaluation stack twice over
the same corpus:

1. a **faulted run** with a deterministic fault plan installed — a
   worker SIGKILL, a torn journal append, corrupted cache entries,
   disk-full on the journal, an injected cell hang — journaling into a
   fresh run directory; the run may finish with failure records or
   abort outright, both are legitimate crash shapes;
2. a **resume run** with the plan cleared, continuing from the journal.

The recovered report must then match the fault-free baseline *exactly*
once timing fields are normalized away — the chaos property the
``funseeker chaos`` CLI (and the ``chaos_smoke`` tier-1 tests) assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.cache import DiskCache, default_cache, set_default_cache
from repro.errors import EvaluationError
from repro.eval.export import report_to_json
from repro.eval.journal import (
    JOURNAL_NAME,
    RunJournal,
    build_manifest,
    check_manifest,
    merge_resumed_report,
    read_journal,
)
from repro.eval.parallel import run_evaluation_parallel

#: Supervisor backstop grace used by chaos runs (the default 30 s
#: would dominate a smoke run's wall clock if a worker wedged).
CHAOS_BACKSTOP_GRACE = 2.0


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault plan plus the run shape that exercises it."""

    name: str
    plan: str
    workers: int = 1
    timeout: float | None = 2.0
    retries: int = 0
    use_cache: bool = False
    tear_tail_bytes: int = 0   # extra raw truncation of the journal tail


def default_scenarios(seed: int = 2022) -> list[ChaosScenario]:
    """The acceptance matrix, with seed-derived (but bounded) ordinals."""
    import random

    rng = random.Random(f"chaos:{seed}")
    early = rng.randrange(2, 4)       # fires within the first entry or two
    mid = rng.randrange(4, 7)
    return [
        ChaosScenario(
            name="worker-kill",
            plan=f"kill@cell.execute#{mid}",
            workers=2,
        ),
        ChaosScenario(
            name="torn-journal",
            plan=f"truncate@journal.append#{early}",
        ),
        ChaosScenario(
            name="corrupted-cache",
            plan="corrupt@cache.get#*",
            use_cache=True,
        ),
        ChaosScenario(
            name="journal-enospc",
            plan=f"enospc@journal.append#{early}",
        ),
        ChaosScenario(
            name="cell-hang",
            plan=f"hang@cell.execute#{mid}",
            timeout=1.0,
        ),
    ]


@dataclass
class ScenarioResult:
    name: str
    plan: str
    ok: bool
    detail: str
    faulted_run_error: str | None = None
    resumed_cells: int = 0
    journaled_cells: int = 0


@dataclass
class ChaosReport:
    baseline_cells: int = 0
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"chaos: {len(self.results)} scenarios over "
            f"{self.baseline_cells} baseline cells"
        ]
        for r in self.results:
            status = "ok  " if r.ok else "FAIL"
            crash = (f" crash={r.faulted_run_error}"
                     if r.faulted_run_error else "")
            lines.append(
                f"  [{status}] {r.name:<16s} plan={r.plan} "
                f"journaled={r.journaled_cells} resumed={r.resumed_cells}"
                f"{crash}")
            if not r.ok:
                lines.append(f"         {r.detail}")
        verdict = ("all scenarios recovered to the fault-free report"
                   if self.ok else "UNRECOVERED failures — see above")
        lines.append(verdict)
        return "\n".join(lines)


def normalize_report_doc(doc: dict) -> dict:
    """Strip timing (and only timing) from an exported report document.

    The chaos property is byte-identity *modulo timing fields*: wall
    clock legitimately differs between a faulted-and-resumed run and an
    uninterrupted one, nothing else may.
    """
    doc = json.loads(json.dumps(doc))  # deep copy
    for row in doc.get("records", ()):
        row["elapsed_seconds"] = 0.0
        row.pop("phases", None)
    for row in doc.get("failures", ()):
        row["elapsed_seconds"] = 0.0
        row["attempts"] = 0
    for summary in (doc.get("summary") or {}).values():
        summary["mean_seconds"] = 0.0
        summary.pop("phase_seconds", None)
    doc.pop("phase_seconds", None)
    return doc


def _normalized(report) -> dict:
    return normalize_report_doc(json.loads(report_to_json(report)))


def run_chaos(
    corpus,
    tools: list[str],
    work_dir: str | Path,
    *,
    seed: int = 2022,
    scenarios: list[ChaosScenario] | None = None,
) -> ChaosReport:
    """Run every scenario and compare each recovery to the baseline.

    ``work_dir`` receives one run directory per scenario (useful for a
    post-mortem when a scenario fails). The fault registry is always
    left clean, even on exceptions.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    corpus = list(corpus)
    report = ChaosReport()

    faults.clear()
    baseline = run_evaluation_parallel(
        corpus, tools, workers=1, timeout=None)
    baseline_doc = _normalized(baseline)
    report.baseline_cells = len(baseline.records)

    for scenario in (scenarios if scenarios is not None
                     else default_scenarios(seed)):
        report.results.append(
            _run_scenario(scenario, corpus, tools, baseline_doc,
                          work_dir / scenario.name))
    return report


def _run_scenario(
    scenario: ChaosScenario,
    corpus,
    tools: list[str],
    baseline_doc: dict,
    run_dir: Path,
) -> ScenarioResult:
    result = ScenarioResult(name=scenario.name, plan=scenario.plan,
                            ok=False, detail="")
    previous_cache = None
    if scenario.use_cache:
        previous_cache = default_cache()
        cache = DiskCache(run_dir / "cache")
        set_default_cache(cache)
        # Warm the cache fault-free so the faulted run actually reads
        # (and recovers from) corrupted entries.
        run_evaluation_parallel(corpus, tools, workers=1, timeout=None)

    journal = RunJournal.create(
        run_dir,
        build_manifest(corpus, tools, seed=None, scale=None,
                       timeout=scenario.timeout,
                       retries=scenario.retries))
    # -- faulted run --------------------------------------------------------
    faults.install(scenario.plan)
    try:
        run_evaluation_parallel(
            corpus, tools,
            workers=scenario.workers,
            timeout=scenario.timeout,
            retries=scenario.retries,
            journal=journal,
            backstop_grace=CHAOS_BACKSTOP_GRACE,
        )
    except (EvaluationError, OSError) as exc:
        result.faulted_run_error = f"{type(exc).__name__}: {exc}"
    finally:
        faults.clear()
        journal.close()

    if scenario.tear_tail_bytes:
        _tear_tail(run_dir / JOURNAL_NAME, scenario.tear_tail_bytes)

    # -- resume run ---------------------------------------------------------
    try:
        state = read_journal(run_dir)
        result.journaled_cells = len(state.records)
        resume_journal = RunJournal.resume(run_dir)
        check_manifest(resume_journal.manifest(), corpus, tools)
        try:
            fresh = run_evaluation_parallel(
                corpus, tools, workers=1, timeout=scenario.timeout,
                retries=scenario.retries, journal=resume_journal,
                completed=state.completed,
            )
        finally:
            resume_journal.close()
        result.resumed_cells = len(fresh.records) + len(fresh.failures)
        final = merge_resumed_report(corpus, tools, state, fresh)
    except (EvaluationError, OSError) as exc:
        result.detail = (f"resume itself failed: "
                         f"{type(exc).__name__}: {exc}")
        _restore_cache(scenario, previous_cache)
        return result
    _restore_cache(scenario, previous_cache)

    if final.failures:
        first = final.failures[0]
        result.detail = (
            f"{len(final.failures)} unrecovered failures, first: "
            f"{first.tool}/{first.phase} {first.error_type}: "
            f"{first.message}")
        return result
    final_doc = _normalized(final)
    if final_doc != baseline_doc:
        result.detail = _first_divergence(baseline_doc, final_doc)
        return result
    result.ok = True
    result.detail = "recovered report identical to fault-free baseline"
    return result


def _restore_cache(scenario: ChaosScenario, previous) -> None:
    if scenario.use_cache:
        set_default_cache(previous)


def _tear_tail(path: Path, n_bytes: int) -> None:
    """Chop raw bytes off the journal tail (simulated torn last write)."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(data[: max(0, len(data) - n_bytes)])


def _first_divergence(expected: dict, got: dict) -> str:
    exp_rows = expected.get("records", [])
    got_rows = got.get("records", [])
    if len(exp_rows) != len(got_rows):
        return (f"record count diverged: baseline {len(exp_rows)}, "
                f"recovered {len(got_rows)}")
    for i, (a, b) in enumerate(zip(exp_rows, got_rows)):
        if a != b:
            return f"record {i} diverged: baseline {a} != recovered {b}"
    return "summary/metadata diverged"
