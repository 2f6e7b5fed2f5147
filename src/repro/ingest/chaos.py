"""Ingest chaos: prove fleet-scan crash-safety against injected faults.

Mirrors :mod:`repro.faults.chaos` for the scan pipeline: each scenario
runs a full scan over a hostile fixture tree with a deterministic fault
plan installed (a worker SIGKILL mid-ladder, an I/O error during
admission triage), then resumes the same run directory fault-free. The
resumed fleet report must match the fault-free baseline exactly once
timing noise is normalized away, with **zero** unresolved failures —
i.e. every crash-shaped record healed on resume.

The two scenarios exercise the two ingest fault surfaces the walk
itself cannot reach: ``ingest.analyze`` (inside supervised workers,
whose loss the parent sees at once) and ``ingest.admit`` (in the parent, on the
transient-triage path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.errors import ReproError
from repro.faults.chaos import CHAOS_BACKSTOP_GRACE
from repro.ingest.fixtures import build_fixture_tree
from repro.ingest.pipeline import run_scan
from repro.ingest.report import build_fleet_report, normalize_fleet_report


@dataclass(frozen=True)
class IngestScenario:
    """One named fault plan plus the scan shape that exercises it."""

    name: str
    plan: str
    workers: int = 1
    timeout: float | None = 5.0


def default_ingest_scenarios(seed: int = 2022) -> list[IngestScenario]:
    import random

    rng = random.Random(f"ingest-chaos:{seed}")
    early = rng.randrange(2, 4)
    return [
        IngestScenario(
            name="ingest-analyze-kill",
            plan=f"kill@ingest.analyze#{early}",
            workers=2,
            timeout=1.0,
        ),
        IngestScenario(
            name="ingest-admit-io",
            plan=f"io@ingest.admit#{early}",
            workers=1,
        ),
    ]


@dataclass
class IngestScenarioResult:
    name: str
    plan: str
    ok: bool
    detail: str
    faulted_run_error: str | None = None
    journaled_paths: int = 0
    unresolved_failures: int = 0


@dataclass
class IngestChaosReport:
    baseline_paths: int = 0
    results: list[IngestScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"ingest chaos: {len(self.results)} scenarios over "
            f"{self.baseline_paths} baseline paths"
        ]
        for r in self.results:
            status = "ok  " if r.ok else "FAIL"
            crash = (f" crash={r.faulted_run_error}"
                     if r.faulted_run_error else "")
            lines.append(
                f"  [{status}] {r.name:<20s} plan={r.plan} "
                f"journaled={r.journaled_paths}"
                f" unresolved={r.unresolved_failures}{crash}")
            if not r.ok:
                lines.append(f"         {r.detail}")
        lines.append("all scenarios recovered to the fault-free fleet report"
                     if self.ok else "UNRECOVERED scan divergence — see above")
        return "\n".join(lines)


def run_ingest_chaos(
    work_dir: str | Path,
    *,
    seed: int = 2022,
    tools: list[str] | None = None,
    scenarios: list[IngestScenario] | None = None,
) -> IngestChaosReport:
    """Run every ingest scenario against one hostile fixture tree."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tree = work_dir / "tree"
    build_fixture_tree(tree, seed=seed)
    report = IngestChaosReport()

    faults.clear()
    baseline = run_scan(work_dir / "baseline", roots=[str(tree)],
                        tools=tools, workers=1)
    baseline_doc = normalize_fleet_report(
        build_fleet_report(baseline.state))
    report.baseline_paths = len(baseline.state.completed)

    for scenario in (scenarios if scenarios is not None
                     else default_ingest_scenarios(seed)):
        report.results.append(_run_scenario(
            scenario, tree, tools, baseline_doc, work_dir / scenario.name))
    return report


def _run_scenario(
    scenario: IngestScenario,
    tree: Path,
    tools: list[str] | None,
    baseline_doc: dict,
    run_dir: Path,
) -> IngestScenarioResult:
    result = IngestScenarioResult(name=scenario.name, plan=scenario.plan,
                                  ok=False, detail="")

    # -- faulted run --------------------------------------------------------
    faults.install(scenario.plan)
    try:
        run_scan(run_dir, roots=[str(tree)], tools=tools,
                 workers=scenario.workers, timeout=scenario.timeout,
                 backstop_grace=CHAOS_BACKSTOP_GRACE)
    except (ReproError, OSError) as exc:
        result.faulted_run_error = f"{type(exc).__name__}: {exc}"
    finally:
        faults.clear()

    # -- resume run ---------------------------------------------------------
    try:
        resumed = run_scan(run_dir, resume=True, workers=1,
                           timeout=scenario.timeout,
                           backstop_grace=CHAOS_BACKSTOP_GRACE)
    except (ReproError, OSError) as exc:
        result.detail = f"resume itself failed: {type(exc).__name__}: {exc}"
        return result
    result.journaled_paths = len(resumed.state.completed)
    result.unresolved_failures = len(resumed.state.failures)

    if resumed.state.failures:
        first = next(iter(resumed.state.failures.values()))
        result.detail = (
            f"{len(resumed.state.failures)} unrecovered failures, first: "
            f"{first.get('path')}: {first.get('error_type')}: "
            f"{first.get('message')}")
        return result
    final_doc = normalize_fleet_report(build_fleet_report(resumed.state))
    if final_doc != baseline_doc:
        result.detail = _first_divergence(baseline_doc, final_doc)
        return result
    result.ok = True
    result.detail = "recovered fleet report identical to baseline"
    return result


def _first_divergence(expected: dict, got: dict) -> str:
    for key in sorted(set(expected) | set(got)):
        a, b = expected.get(key), got.get(key)
        if a != b:
            return (f"section {key!r} diverged: baseline "
                    f"{json.dumps(a, sort_keys=True)[:200]} != recovered "
                    f"{json.dumps(b, sort_keys=True)[:200]}")
    return "reports diverged in an unknown section"
