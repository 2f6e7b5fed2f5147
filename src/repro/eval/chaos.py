"""Evaluate driver for the chaos runner (:mod:`repro.faults.chaos`).

Each scenario journals a faulted evaluation sweep into a fresh run
directory, resumes it fault-free, and must reproduce the fault-free
report exactly once timing fields are normalized away.
"""

from __future__ import annotations

import contextlib
import json
import random
from pathlib import Path

from repro.cache import DiskCache, default_cache, set_default_cache
from repro.errors import EvaluationError
from repro.eval.export import report_to_json
from repro.eval.journal import (
    RunJournal,
    build_manifest,
    check_manifest,
    merge_resumed_report,
)
from repro.eval.parallel import run_evaluation_parallel
from repro.faults.chaos import (
    CHAOS_BACKSTOP_GRACE,
    ChaosDriver,
    ChaosReport,
    ChaosScenario,
    ScenarioFailed,
    run_scenarios,
)


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


class EvaluateDriver(ChaosDriver):
    crashes = failures = (EvaluationError, OSError)

    def __init__(self, corpus, tools: list[str], seed: int = 2022) -> None:
        self.corpus = list(corpus)
        self.tools = tools
        self.seed = seed

    def default_scenarios(self) -> list[ChaosScenario]:
        """The acceptance matrix, with seed-derived (but bounded) ordinals.

        Each ordinal is capped so its fault fires on any corpus: a clean
        run journals one record per (entry, tool) and executes a parse
        cell plus one cell per tool for each entry, and of two workers
        one runs at least half the entries.
        """
        rng = random.Random(f"chaos:{self.seed}")
        n, cells = len(self.corpus), len(self.tools) + 1
        early = min(rng.randrange(2, 4), n * len(self.tools))
        mid = rng.randrange(4, 7)
        kill, hang = min(mid, -(-n // 2) * cells), min(mid, n * cells)
        return [
            ChaosScenario(
                name="worker-kill",
                plan=f"kill@cell.execute#{kill}",
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
                plan=f"hang@cell.execute#{hang}",
                timeout=1.0,
            ),
        ]

    def baseline(self, work_dir: Path) -> tuple[dict, int]:
        report = run_evaluation_parallel(self.corpus, self.tools,
                                         workers=1, timeout=None)
        return _normalized(report), len(report.records)

    @contextlib.contextmanager
    def scope(self, scenario: ChaosScenario, run_dir: Path):
        if not scenario.use_cache:
            yield
            return
        previous = default_cache()
        set_default_cache(DiskCache(run_dir / "cache"))
        try:
            # Warm the cache fault-free so the faulted run actually reads
            # (and recovers from) corrupted entries.
            run_evaluation_parallel(self.corpus, self.tools, workers=1,
                                    timeout=None)
            yield
        finally:
            set_default_cache(previous)

    def faulted(self, scenario, run_dir, result) -> None:
        with RunJournal.create(
                run_dir, build_manifest(self.corpus, self.tools,
                                        timeout=scenario.timeout)) as journal:
            run_evaluation_parallel(
                self.corpus, self.tools, workers=scenario.workers,
                timeout=scenario.timeout, journal=journal,
                backstop_grace=CHAOS_BACKSTOP_GRACE)

    def resume(self, scenario, run_dir, result, state) -> dict:
        with RunJournal.resume(run_dir) as journal:
            check_manifest(journal.manifest(), self.corpus, self.tools)
            prior = journal.fold()
            result.counts["journaled"] = len(prior.records)
            fresh = run_evaluation_parallel(
                self.corpus, self.tools, workers=1,
                timeout=scenario.timeout, journal=journal,
                completed=prior.completed)
        result.counts["resumed"] = len(fresh.records) + len(fresh.failures)
        # A corrupted cache entry heals inside the faulted run itself.
        if not (result.crash or result.counts["resumed"] or scenario.use_cache):
            raise ScenarioFailed("the fault never fired: no crash and "
                                 "nothing left to resume")
        final = merge_resumed_report(self.corpus, self.tools, prior, fresh)
        if final.failures:
            first = final.failures[0]
            raise ScenarioFailed(
                f"{len(final.failures)} unrecovered failures, first: "
                f"{first.tool}/{first.phase} {first.error_type}: "
                f"{first.message}")
        return _normalized(final)


def run_chaos(
    corpus,
    tools: list[str],
    work_dir: str | Path,
    *,
    seed: int = 2022,
    scenarios: list[ChaosScenario] | None = None,
) -> ChaosReport:
    """Run the evaluate scenarios over ``corpus`` x ``tools``."""
    return run_scenarios(EvaluateDriver(corpus, tools, seed), work_dir,
                         scenarios)
