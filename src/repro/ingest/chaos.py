"""Scan driver for the chaos runner (:mod:`repro.faults.chaos`).

Each scenario scans a hostile fixture tree with a fault plan installed
(a worker SIGKILL mid-ladder, an I/O error during admission triage),
then resumes the same run directory fault-free. The resumed fleet
report must match the fault-free baseline exactly once timing noise is
normalized away, with **zero** unresolved failures — every
crash-shaped record healed on resume.

The two scenarios exercise the two ingest fault surfaces the walk
itself cannot reach: ``ingest.analyze`` (inside supervised workers,
whose loss the parent sees at once) and ``ingest.admit`` (in the
parent, on the transient-triage path).
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.faults.chaos import (
    CHAOS_BACKSTOP_GRACE,
    ChaosDriver,
    ChaosScenario,
    ScenarioFailed,
)
from repro.ingest.fixtures import build_fixture_tree
from repro.ingest.journal import ScanState
from repro.ingest.pipeline import run_scan
from repro.ingest.report import build_fleet_report, normalize_fleet_report


class ScanDriver(ChaosDriver):
    title = "ingest chaos"
    unit = "paths"

    def __init__(self, seed: int = 2022,
                 tools: list[str] | None = None) -> None:
        self.seed = seed
        self.tools = tools
        self.tree: Path | None = None

    def default_scenarios(self) -> list[ChaosScenario]:
        rng = random.Random(f"ingest-chaos:{self.seed}")
        early = rng.randrange(2, 4)
        return [
            ChaosScenario(
                name="ingest-analyze-kill",
                plan=f"kill@ingest.analyze#{early}",
                workers=2,
                timeout=1.0,
            ),
            ChaosScenario(
                name="ingest-admit-io",
                plan=f"io@ingest.admit#{early}",
                workers=1,
                timeout=5.0,
            ),
        ]

    def baseline(self, work_dir: Path) -> tuple[dict, int]:
        self.tree = work_dir / "tree"
        build_fixture_tree(self.tree, seed=self.seed)
        result = run_scan(work_dir / "baseline", roots=[str(self.tree)],
                          tools=self.tools, workers=1)
        return (normalize_fleet_report(build_fleet_report(result.state)),
                len(result.state.completed))

    def faulted(self, scenario, run_dir, result) -> ScanState:
        return run_scan(run_dir, roots=[str(self.tree)], tools=self.tools,
                        workers=scenario.workers, timeout=scenario.timeout,
                        backstop_grace=CHAOS_BACKSTOP_GRACE).state

    def resume(self, scenario, run_dir, result, state) -> dict:
        if not (result.crash or state.failures):
            raise ScenarioFailed("the fault never fired: no crash and "
                                 "nothing left to resume")
        resumed = run_scan(run_dir, resume=True, workers=1,
                           timeout=scenario.timeout,
                           backstop_grace=CHAOS_BACKSTOP_GRACE).state
        failures = resumed.failures
        result.counts["journaled"] = len(resumed.completed)
        result.counts["unresolved"] = len(failures)
        if failures:
            first = next(iter(failures.values()))
            raise ScenarioFailed(
                f"{len(failures)} unrecovered failures, first: "
                f"{first.get('path')}: {first.get('error_type')}: "
                f"{first.get('message')}")
        return normalize_fleet_report(build_fleet_report(resumed))
