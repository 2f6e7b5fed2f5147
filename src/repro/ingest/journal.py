"""The fleet-scan journal: every candidate decided exactly once.

Reuses the evaluation journal's byte substrate
(:class:`repro.eval.journal.JournalFile`: checksummed JSONL, fsync per
line, torn-tail tolerant loading, the ``journal.append`` fault point)
with scan-shaped records keyed by **path** instead of corpus cell:

- ``triage`` — a final admission call (``skip``/``reject``) or a walk
  skip; never re-decided on resume.
- ``analysis`` — a finished ladder outcome (``ok`` /
  ``degraded:<diag>`` / ``quarantined``); never re-run on resume.
- ``failure`` — a *retryable* loss: a crashed or backstopped worker, a
  transient admission error, a directory-breaker skip. Resume
  re-discovers the path and decides it again, so a crash-induced
  failure heals and the recovered fleet report matches an
  uninterrupted run.

Layout (``scan-journal/v1``)::

    RUN_DIR/
      manifest.json       # scan-manifest/v1: roots + filters + tools
      journal.jsonl       # one checksummed line per decided path
      quarantine/         # captured hostile inputs (QuarantineStore)

The manifest pins everything identity-relevant — roots, include and
exclude filters, tool list, admission policy — so ``--resume`` both
refuses a mismatched scan and needs no re-typed flags: the run
directory is the single source of truth.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ManifestMismatchError
from repro.eval.journal import (
    JOURNAL_NAME,
    RunDirectory,
    read_journal_lines,
)
from repro.ingest.admit import AdmissionPolicy

SCAN_JOURNAL_SCHEMA = "scan-journal/v1"
SCAN_MANIFEST_SCHEMA = "scan-manifest/v1"

KIND_TRIAGE = "triage"
KIND_ANALYSIS = "analysis"
KIND_FAILURE = "failure"


def build_scan_manifest(
    roots: list[str],
    tools: list[str],
    *,
    include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
    policy: AdmissionPolicy | None = None,
    follow_symlinks: bool = True,
    timeout: float | None = None,
) -> dict:
    return {
        "schema": SCAN_MANIFEST_SCHEMA,
        "journal_schema": SCAN_JOURNAL_SCHEMA,
        "roots": [str(Path(r).absolute()) for r in roots],
        "tools": list(tools),
        "include": list(include),
        "exclude": list(exclude),
        "policy": (policy or AdmissionPolicy()).to_dict(),
        "follow_symlinks": follow_symlinks,
        "config": {"timeout": timeout},
        "created": time.time(),
    }


def check_scan_manifest(manifest: dict, roots: list[str] | None) -> None:
    """Refuse to resume a journal recorded for a *different* scan."""
    if manifest.get("schema") != SCAN_MANIFEST_SCHEMA:
        raise ManifestMismatchError(
            f"unsupported manifest schema {manifest.get('schema')!r} "
            f"(expected {SCAN_MANIFEST_SCHEMA})")
    if roots:
        recorded = manifest.get("roots") or []
        given = [str(Path(r).absolute()) for r in roots]
        if recorded != given:
            raise ManifestMismatchError(
                f"scan roots changed since the journal was created: "
                f"recorded {recorded}, resuming with {given}")


class ScanJournal(RunDirectory):
    """Single-writer append handle on a scan run directory."""

    # -- appends: each returns the payload it journaled ----------------------

    def append_triage(
        self, path: str | os.PathLike, decision: str, reason: str,
        detail: str = "", size: int | None = None,
    ) -> dict:
        doc = {"kind": KIND_TRIAGE, "path": str(path),
               "decision": decision, "reason": reason}
        if detail:
            doc["detail"] = detail
        if size is not None:
            doc["size"] = size
        return self.append(doc)

    def append_analysis(self, outcome_doc: dict) -> dict:
        return self.append({"kind": KIND_ANALYSIS, **outcome_doc})

    def append_failure(
        self, path: str | os.PathLike, error_type: str, message: str,
    ) -> dict:
        return self.append({
            "kind": KIND_FAILURE, "path": str(path),
            "error_type": error_type, "message": message,
        })


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass
class ScanState:
    """Everything a resume (or a fleet report) needs from a journal.

    Later lines win per path, and a final record (triage or analysis)
    for a path supersedes any journaled retryable failure for it.
    """

    triage: dict[str, dict] = field(default_factory=dict)
    analyses: dict[str, dict] = field(default_factory=dict)
    failures: dict[str, dict] = field(default_factory=dict)
    corrupt_lines: int = 0
    torn_tail: bool = False

    @property
    def completed(self) -> set[str]:
        """Paths needing no re-decision: final triage or analysis."""
        return set(self.triage) | set(self.analyses)

    @property
    def decided(self) -> int:
        return len(self.triage) + len(self.analyses) + len(self.failures)

    def absorb(self, doc: dict) -> None:
        """Apply one journal payload (also used live, record by record)."""
        path = doc.get("path")
        if not isinstance(path, str):
            raise KeyError("path")
        kind = doc.get("kind")
        if kind == KIND_TRIAGE:
            if doc.get("decision") not in ("skip", "reject"):
                raise KeyError("decision")
            self.triage[path] = doc
            self.failures.pop(path, None)
        elif kind == KIND_ANALYSIS:
            if not isinstance(doc.get("status"), str):
                raise KeyError("status")
            self.analyses[path] = doc
            self.failures.pop(path, None)
        elif kind == KIND_FAILURE:
            self.failures[path] = doc
        else:
            raise KeyError("kind")


def read_scan_journal(run_dir: str | os.PathLike) -> ScanState:
    """Load a scan journal, tolerating torn tails and corrupt lines."""
    state = ScanState()
    payloads, state.corrupt_lines, state.torn_tail = read_journal_lines(
        Path(run_dir) / JOURNAL_NAME)
    for doc in payloads:
        try:
            state.absorb(doc)
        except (KeyError, TypeError):
            state.corrupt_lines += 1
    return state
