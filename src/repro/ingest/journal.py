"""The fleet-scan journal: every candidate decided exactly once.

A :class:`repro.eval.journal.RunDirectory` (checksummed JSONL, fsync
per line, the ``journal.append`` fault point, the shared
:class:`~repro.eval.journal.JournalFold`) with scan-shaped records
keyed by **path** instead of corpus cell:

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
from pathlib import Path

from repro.errors import ManifestMismatchError
from repro.eval.journal import JournalFold, RunDirectory
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
    timeout: float | None = None,
) -> dict:
    """A fresh scan's manifest: the default admission policy, following
    symlinks (a resume honours whatever an older manifest recorded)."""
    return {
        "schema": SCAN_MANIFEST_SCHEMA,
        "journal_schema": SCAN_JOURNAL_SCHEMA,
        "roots": [str(Path(r).absolute()) for r in roots],
        "tools": list(tools),
        "include": list(include),
        "exclude": list(exclude),
        "policy": AdmissionPolicy().to_dict(),
        "follow_symlinks": True,
        "config": {"timeout": timeout},
        "created": time.time(),
    }


def check_scan_manifest(
    manifest: dict,
    roots: list[str] | None,
    *,
    tools: list[str] | None = None,
    include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
) -> None:
    """Refuse to resume a journal recorded for a *different* scan
    (:meth:`ScanJournal.manifest` has checked the schema).

    Only what the caller gives is compared; an empty value means "as
    journaled".
    """
    given = {
        "roots": [str(Path(r).absolute()) for r in roots or ()],
        "tools": list(tools or ()),
        "include": list(include),
        "exclude": list(exclude),
    }
    for name, value in given.items():
        recorded = manifest.get(name) or []
        if value and value != recorded:
            raise ManifestMismatchError(
                f"scan {name} changed since the journal was created: "
                f"recorded {recorded}, resuming with {value}")


class ScanState(JournalFold):
    """The scan journal folded per path; a ``failure`` is retried."""

    final_kinds = frozenset({KIND_TRIAGE, KIND_ANALYSIS})
    retryable_kinds = frozenset({KIND_FAILURE})

    def key(self, doc: dict) -> str:
        path = doc["path"]
        if not isinstance(path, str):
            raise TypeError(f"journaled path {path!r} is not a string")
        return path

    def decode(self, doc: dict) -> dict:
        kind = doc["kind"]
        if kind == KIND_TRIAGE and doc.get("decision") not in ("skip",
                                                               "reject"):
            raise ValueError(f"bad triage decision {doc.get('decision')!r}")
        if kind == KIND_ANALYSIS and not isinstance(doc.get("status"), str):
            raise ValueError(f"bad analysis status {doc.get('status')!r}")
        return doc

    def _finals_of(self, kind: str) -> dict[str, dict]:
        return {path: doc for path, doc in self.finals().items()
                if doc["kind"] == kind}

    @property
    def triage(self) -> dict[str, dict]:
        return self._finals_of(KIND_TRIAGE)

    @property
    def analyses(self) -> dict[str, dict]:
        return self._finals_of(KIND_ANALYSIS)

    @property
    def failures(self) -> dict[str, dict]:
        return self.pending()

    @property
    def decided(self) -> int:
        """Paths with any usable line, each counted once."""
        return len(self.entries)


class ScanJournal(RunDirectory):
    """Single-writer append handle on a scan run directory."""

    manifest_schema = SCAN_MANIFEST_SCHEMA
    fold_type = ScanState

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
