"""Crash-safe run journal: append-only, fsync'd, checksummed, resumable.

A paper-scale sweep (8,136 binaries x 5 tools) must survive worker
SIGKILLs, disk faults, and operator interrupts without losing completed
work. The journal is the substrate: every decided cell — a
:class:`~repro.eval.runner.RunRecord` or a
:class:`~repro.eval.isolation.FailureRecord` — is appended to
``journal.jsonl`` in the run directory *as soon as the parent learns of
it*, flushed and ``fsync``'d before the sweep moves on.

Layout (``run-journal/v1``)::

    RUN_DIR/
      manifest.json       # run-manifest/v1: corpus + config fingerprint
      journal.jsonl       # one checksummed line per decided cell
      quarantine/         # optional: captured crashing inputs

Each journal line is ``{"crc": <crc32 hex>, "data": {...}}`` where the
checksum covers the canonical (sorted-key, tight-separator) JSON dump
of ``data``. Loading tolerates a torn tail — a process killed
mid-append leaves at most one partial line, which is dropped and
counted, never fatal — and skips (while counting) any corrupt interior
line.

Resume semantics: a cell with a journaled *success* record is skipped
by the next run; journaled *failures* are retried (so a crash-induced
failure heals on resume, and the recovered report matches a fault-free
run). ``--resume`` refuses a journal whose manifest fingerprint does
not match the rebuilt corpus (:class:`ManifestMismatchError`) — the
journal describes a different run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro import faults, obs
from repro.errors import (
    JournalError,
    JournalWriteError,
    ManifestCorruptError,
    ManifestMismatchError,
)
from repro.eval.isolation import FailureRecord
from repro.eval.metrics import Confusion
from repro.eval.runner import EvalReport, RunRecord
from repro.synth.corpus import CorpusEntry

if TYPE_CHECKING:
    from typing import Self

JOURNAL_SCHEMA = "run-journal/v1"
MANIFEST_SCHEMA = "run-manifest/v1"

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Provenance fields identifying one evaluation cell across runs.
_KEY_FIELDS = ("suite", "program", "compiler", "bits", "pie", "opt", "tool")

#: One evaluation cell's identity across runs.
CellKey = tuple


def cell_key(record) -> CellKey:
    """The (suite, program, compiler, bits, pie, opt, tool) identity."""
    return tuple(getattr(record, f) for f in _KEY_FIELDS)


def entry_cell_key(entry: CorpusEntry, tool: str) -> CellKey:
    profile = entry.profile
    return (entry.suite, entry.program, profile.compiler, profile.bits,
            profile.pie, profile.opt, tool)


def corpus_fingerprint(corpus: Iterable[CorpusEntry]) -> str:
    """Content hash over the corpus's stripped images, in order.

    Cell results are a pure function of the stripped bytes, so two
    corpora with the same fingerprint produce interchangeable journals
    regardless of how they were (re)generated.
    """
    h = hashlib.sha256()
    for entry in corpus:
        h.update(entry.label.encode())
        h.update(b"\x00")
        h.update(hashlib.sha256(entry.stripped).digest())
    return h.hexdigest()


def _entry_digest(entry: CorpusEntry) -> str:
    return hashlib.sha256(entry.stripped).hexdigest()


def build_manifest(
    corpus: Sequence[CorpusEntry],
    tools: Sequence[str],
    *,
    scale: str | None = None,
    seed: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "journal_schema": JOURNAL_SCHEMA,
        "scale": scale,
        "seed": seed,
        "tools": list(tools),
        "corpus": {
            "count": len(corpus),
            "fingerprint": corpus_fingerprint(corpus),
            # Per-entry hashes let a fingerprint mismatch name the first
            # divergent entry instead of just dumping two digests.
            "entries": [
                {"label": e.label, "sha256": _entry_digest(e)}
                for e in corpus
            ],
        },
        "config": {"timeout": timeout, "retries": retries},
        "created": time.time(),
    }


def check_manifest(
    manifest: dict,
    corpus: Sequence[CorpusEntry],
    tools: Sequence[str],
) -> None:
    """Refuse to resume a journal recorded for a *different* run."""
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ManifestMismatchError(
            f"unsupported manifest schema {manifest.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA})")
    recorded = manifest.get("tools")
    if recorded != list(tools):
        raise ManifestMismatchError(
            f"tool set changed since the journal was created: "
            f"recorded {recorded}, resuming with {list(tools)}")
    corpus_doc = manifest.get("corpus") or {}
    recorded_fp = corpus_doc.get("fingerprint")
    fingerprint = corpus_fingerprint(corpus)
    if recorded_fp != fingerprint:
        detail = _divergence_detail(corpus_doc.get("entries"), corpus)
        raise ManifestMismatchError(
            f"corpus changed since the journal was created: journal was "
            f"recorded for {recorded_fp}, resuming corpus hashes to "
            f"{fingerprint}{detail}")


def _divergence_detail(
    recorded: object, corpus: Sequence[CorpusEntry],
) -> str:
    """Name the first entry where the resumed corpus diverges.

    ``recorded`` is the manifest's per-entry list when present; older
    manifests (pre per-entry hashes) fall back to the bare-fingerprint
    message.
    """
    if not isinstance(recorded, list) or not all(
            isinstance(d, dict) for d in recorded):
        return ""
    for i, entry in enumerate(corpus):
        if i >= len(recorded):
            return (f"; resuming corpus has {len(corpus)} entries, journal "
                    f"recorded {len(recorded)} — first extra entry is "
                    f"#{i} {entry.label}")
        old_label = recorded[i].get("label")
        old_sha = recorded[i].get("sha256")
        if old_label != entry.label:
            return (f"; first divergent entry is #{i}: journal recorded "
                    f"{old_label}, resuming corpus has {entry.label}")
        if old_sha != _entry_digest(entry):
            return (f"; first divergent entry is #{i} {entry.label}: "
                    f"its stripped image hash changed "
                    f"({old_sha} -> {_entry_digest(entry)})")
    if len(recorded) > len(corpus):
        missing = recorded[len(corpus)].get("label")
        return (f"; resuming corpus has {len(corpus)} entries, journal "
                f"recorded {len(recorded)} — first missing entry is "
                f"#{len(corpus)} {missing}")
    return ""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _checksum(payload: str) -> str:
    return f"{zlib.crc32(payload.encode()) & 0xFFFFFFFF:08x}"


class JournalFile:
    """Checksummed JSONL appender: one fsync'd line per payload.

    The byte-level substrate shared by the evaluation run journal and
    the fleet-scan journal (:mod:`repro.ingest.journal`): callers hand
    over one ``dict`` per decided unit of work, this class handles the
    checksum envelope, the flush-and-fsync durability contract, and the
    ``journal.append`` fault point (including the simulated torn write
    of the ``truncate`` data kind).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._file = None

    def append(self, data: dict) -> None:
        canonical = _canonical(data)
        line = json.dumps(
            {"crc": _checksum(canonical), "data": data},
            sort_keys=True, separators=(",", ":"),
        )
        try:
            fault_kind = faults.hit(faults.SITE_JOURNAL_APPEND)
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            if fault_kind == faults.KIND_TRUNCATE:
                # Simulated torn write: half the line reaches the disk,
                # then the "crash".
                self._file.write(line[: len(line) // 2])
                self._file.flush()
                os.fsync(self._file.fileno())
                raise OSError("injected crash mid-append (torn line)")
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError as exc:
            obs.add("journal.append_errors", 1)
            raise JournalWriteError(
                f"journal append to {self.path} failed: {exc}") from exc
        obs.add("journal.appends", 1)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None


def read_journal_lines(
    path: str | os.PathLike,
) -> tuple[list[dict], int, bool]:
    """Load every valid payload from a checksummed JSONL journal.

    Returns ``(payloads, corrupt_lines, torn_tail)``. A torn final line
    (a process killed mid-append) is dropped and flagged, never fatal;
    corrupt interior lines are skipped and counted. A missing file is
    an empty journal.
    """
    payloads: list[dict] = []
    corrupt = 0
    torn_tail = False
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except FileNotFoundError:
        return payloads, corrupt, torn_tail
    except OSError as exc:
        raise JournalError(f"unreadable journal {path}: {exc}") from exc
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        data = _decode_line(line)
        if data is None:
            if index == len(lines) - 1:
                torn_tail = True
                obs.add("journal.torn_tail", 1)
            else:
                corrupt += 1
                obs.add("journal.corrupt_lines", 1)
            continue
        payloads.append(data)
    return payloads, corrupt, torn_tail


class RunDirectory:
    """Lifecycle of a run directory: a manifest plus one append journal.

    Shared by the evaluation and scan journals: ``create`` refuses a
    directory that already holds a manifest, ``resume`` requires one,
    and ``manifest`` raises :class:`ManifestCorruptError` for anything
    but a readable JSON object.
    """

    def __init__(self, run_dir: str | os.PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / JOURNAL_NAME
        self._journal = JournalFile(self.path)

    @classmethod
    def create(cls, run_dir: str | os.PathLike, manifest: dict) -> Self:
        """Initialize a fresh run directory (manifest + empty journal)."""
        journal = cls(run_dir)
        journal.run_dir.mkdir(parents=True, exist_ok=True)
        if (journal.run_dir / MANIFEST_NAME).exists():
            raise JournalError(
                f"run directory {journal.run_dir} already holds a "
                "manifest; use resume() or pick a fresh directory")
        _write_atomic(journal.run_dir / MANIFEST_NAME,
                      json.dumps(manifest, indent=1, sort_keys=True))
        journal.path.touch()
        return journal

    @classmethod
    def resume(cls, run_dir: str | os.PathLike) -> Self:
        """Open an existing run directory for appending."""
        journal = cls(run_dir)
        if not (journal.run_dir / MANIFEST_NAME).is_file():
            raise JournalError(
                f"{journal.run_dir} is not a run directory "
                f"(no {MANIFEST_NAME})")
        return journal

    def manifest(self) -> dict:
        try:
            with open(self.run_dir / MANIFEST_NAME, encoding="utf-8") as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            raise ManifestCorruptError(
                f"manifest in {self.run_dir} is unreadable or corrupt: "
                f"{exc}") from exc
        return doc

    def append(self, doc: dict) -> dict:
        """Journal one line; returns ``doc``."""
        self._journal.append(doc)
        return doc

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunJournal(RunDirectory):
    """Single-writer append handle on a run directory's journal.

    Only the sweep *parent* writes: pool workers report results up and
    the parent journals them, so there is exactly one writer per run
    and lines never interleave. Every append is flushed and fsync'd —
    a SIGKILL between cells loses nothing, a SIGKILL mid-append tears
    at most the final line, which loading tolerates.
    """

    # -- appends ------------------------------------------------------------

    def append_record(self, record: RunRecord) -> None:
        self.append({"kind": "record", **_record_to_dict(record)})

    def append_failure(self, failure: FailureRecord) -> None:
        self.append({"kind": "failure", **_failure_to_dict(failure)})


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _record_to_dict(record: RunRecord) -> dict:
    doc = {
        **{f: getattr(record, f) for f in _KEY_FIELDS},
        "tp": record.confusion.tp,
        "fp": record.confusion.fp,
        "fn": record.confusion.fn,
        "elapsed_seconds": record.elapsed_seconds,
    }
    if record.phase_seconds:
        doc["phase_seconds"] = record.phase_seconds
    return doc


def _record_from_dict(doc: dict) -> RunRecord:
    return RunRecord(
        **{f: doc[f] for f in _KEY_FIELDS},
        confusion=Confusion(tp=doc["tp"], fp=doc["fp"], fn=doc["fn"]),
        elapsed_seconds=doc["elapsed_seconds"],
        phase_seconds=doc.get("phase_seconds"),
    )


def _failure_to_dict(failure: FailureRecord) -> dict:
    return {
        **{f: getattr(failure, f) for f in _KEY_FIELDS},
        "phase": failure.phase,
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": failure.attempts,
        "elapsed_seconds": failure.elapsed_seconds,
        "enforced": failure.enforced,
    }


def _failure_from_dict(doc: dict) -> FailureRecord:
    return FailureRecord(
        **{f: doc[f] for f in _KEY_FIELDS},
        phase=doc["phase"],
        error_type=doc["error_type"],
        message=doc["message"],
        attempts=doc.get("attempts", 1),
        elapsed_seconds=doc.get("elapsed_seconds", 0.0),
        enforced=doc.get("enforced", True),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass
class JournalState:
    """Everything a resume needs from a prior run's journal."""

    records: list[RunRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    corrupt_lines: int = 0
    torn_tail: bool = False

    @property
    def completed(self) -> set[CellKey]:
        """Cells that need no re-run: those with a *success* record.

        Failures are deliberately absent — a journaled failure is
        retried on resume so crash-induced failures heal rather than
        persist into the recovered report.
        """
        return {cell_key(r) for r in self.records}


def read_journal(run_dir: str | os.PathLike) -> JournalState:
    """Load a journal, tolerating a torn tail and corrupt lines.

    Later lines win when a cell appears more than once (a resumed run
    appends its fresh outcome after the original one), and a success
    record for a cell supersedes any journaled failure for it.
    """
    path = Path(run_dir) / JOURNAL_NAME
    state = JournalState()
    payloads, state.corrupt_lines, state.torn_tail = read_journal_lines(
        path)

    records: dict[CellKey, RunRecord] = {}
    failures: dict[CellKey, FailureRecord] = {}
    order: list[CellKey] = []
    seen: set[CellKey] = set()
    for data in payloads:
        kind = data.get("kind")
        try:
            if kind == "record":
                record = _record_from_dict(data)
                key = cell_key(record)
                records[key] = record
                failures.pop(key, None)
            elif kind == "failure":
                failure = _failure_from_dict(data)
                key = cell_key(failure)
                failures[key] = failure
            else:
                state.corrupt_lines += 1
                continue
        except (KeyError, TypeError):
            state.corrupt_lines += 1
            continue
        if key not in seen:
            seen.add(key)
            order.append(key)
    state.records = [records[k] for k in order if k in records]
    state.failures = [failures[k] for k in order
                      if k in failures and k not in records]
    return state


def _decode_line(line: str) -> dict | None:
    """One journal line's ``data``, or ``None`` if torn/corrupt."""
    line = line.strip()
    if not line:
        return None
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    data = doc.get("data")
    if not isinstance(data, dict):
        return None
    if doc.get("crc") != _checksum(_canonical(data)):
        return None
    return data


# ---------------------------------------------------------------------------
# Resume assembly
# ---------------------------------------------------------------------------


def merge_resumed_report(
    corpus: Sequence[CorpusEntry],
    tools: Sequence[str],
    prior: JournalState,
    fresh: EvalReport,
) -> EvalReport:
    """Combine journaled results with a resume run's fresh results.

    Records are emitted in canonical corpus x tool order — the order a
    fault-free serial sweep produces — so a recovered report is
    byte-identical (modulo timing fields) to an uninterrupted one. A
    fresh outcome supersedes a journaled one for the same cell, and
    only failures that *survived* the resume run (fresh failures, plus
    journaled failures for cells the resume did not re-decide) remain.
    """
    records: dict[CellKey, RunRecord] = {cell_key(r): r
                                         for r in prior.records}
    failures: dict[CellKey, FailureRecord] = {cell_key(f): f
                                              for f in prior.failures}
    for record in fresh.records:
        key = cell_key(record)
        records[key] = record
        failures.pop(key, None)
    for failure in fresh.failures:
        key = cell_key(failure)
        failures[key] = failure
        records.pop(key, None)

    merged = EvalReport()
    for entry in corpus:
        for tool in tools:
            key = entry_cell_key(entry, tool)
            if key in records:
                merged.records.append(records[key])
            elif key in failures:
                merged.failures.append(failures[key])
    return merged
