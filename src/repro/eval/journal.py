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

Resume semantics (:class:`JournalFold`, shared by scan and serve): a
cell with a journaled *success* record is skipped by the next run;
journaled *failures* are retried, so a crash-induced failure heals and
the recovered report matches a fault-free run. ``--resume`` refuses a
journal whose manifest does not match the rebuilt corpus
(:class:`ManifestMismatchError`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from collections.abc import Hashable, Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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
    """Refuse to resume a journal recorded for a *different* run
    (:meth:`RunDirectory.manifest` has checked the schema)."""
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

    The byte-level substrate of every run directory (evaluation, scan
    and serve): callers hand over one ``dict`` per decided unit of
    work, this class handles the checksum envelope, the
    flush-and-fsync durability contract, and the ``journal.append``
    fault point (including the simulated torn write of the
    ``truncate`` data kind).
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


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


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


class FoldEntry(NamedTuple):
    """One key's latest final value and latest retryable value."""

    final: object = None
    retryable: object = None


class JournalFold:
    """A journal's lines folded to one outcome per key.

    Evaluate, scan and serve each subclass it with a key function, a
    table of *final* kinds (decided for good) and *retryable* kinds (a
    loss the next run retries), and a line decoder. The rule: later
    lines win per key; a final line supersedes any retryable line, in
    either order; keys keep the order they were first seen; a torn
    tail, a corrupt or undecodable line, an unknown kind and an orphan
    line (see ``opened``) are counted as corrupt, never fatal.
    """

    final_kinds: frozenset[str] = frozenset()
    retryable_kinds: frozenset[str] = frozenset()
    #: Whether only a retryable line opens a key: a final line for a
    #: key that no retryable line names is then an orphan.
    opened = False

    def __init__(self) -> None:
        self.entries: dict[Hashable, FoldEntry] = {}
        self.corrupt_lines = 0
        self.torn_tail = False

    @classmethod
    def read(cls, path: str | os.PathLike) -> Self:
        """Fold every line of the journal at ``path`` (missing = empty)."""
        fold = cls()
        payloads, fold.corrupt_lines, fold.torn_tail = read_journal_lines(
            path)
        for doc in payloads:
            try:
                fold.absorb(doc)
            except (KeyError, TypeError, ValueError):
                fold.corrupt_lines += 1
        if cls.opened:
            opened = {key: entry for key, entry in fold.entries.items()
                      if entry.retryable is not None}
            fold.corrupt_lines += len(fold.entries) - len(opened)
            fold.entries = opened
        return fold

    def key(self, doc: dict) -> Hashable:
        raise NotImplementedError

    def decode(self, doc: dict) -> object:
        """The value one line stands for; raises for an unusable line."""
        raise NotImplementedError

    def absorb(self, doc: dict) -> None:
        """Fold one journal payload (also used live, line by line).

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` for a line
        this journal cannot use.
        """
        kind = doc.get("kind")
        final = kind in self.final_kinds
        if not final and kind not in self.retryable_kinds:
            raise ValueError(f"unknown journal kind {kind!r}")
        self.put(self.key(doc), self.decode(doc), final=final)

    def put(self, key: Hashable, value: object, *, final: bool) -> None:
        entry = self.entries.get(key, FoldEntry())
        self.entries[key] = (entry._replace(final=value) if final
                             else entry._replace(retryable=value))

    def finals(self) -> dict:
        """Each decided key's final value."""
        return {key: entry.final for key, entry in self.entries.items()
                if entry.final is not None}

    def pending(self) -> dict:
        """Each undecided key's retryable value: what a resume retries."""
        return {key: entry.retryable for key, entry in self.entries.items()
                if entry.final is None}

    @property
    def completed(self) -> set:
        """Keys that need no re-run: those with a final line."""
        return set(self.finals())


class RunDirectory:
    """Lifecycle of a run directory: a manifest plus one append journal.

    Shared by evaluate, scan and serve: ``create`` refuses a directory
    that already holds a manifest, ``resume`` requires one, and
    ``manifest`` raises :class:`ManifestCorruptError` for anything but
    a JSON object, :class:`ManifestMismatchError` for another schema.
    """

    manifest_schema: str
    fold_type: type[JournalFold]

    def __init__(self, run_dir: str | os.PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / JOURNAL_NAME
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self._journal = JournalFile(self.path)

    @classmethod
    def create(cls, run_dir: str | os.PathLike, manifest: dict) -> Self:
        """Initialize a fresh run directory (manifest + empty journal)."""
        journal = cls(run_dir)
        journal.run_dir.mkdir(parents=True, exist_ok=True)
        if journal.manifest_path.exists():
            raise JournalError(
                f"run directory {journal.run_dir} already holds a "
                "manifest; use resume() or pick a fresh directory")
        write_atomic(journal.manifest_path,
                     json.dumps(manifest, indent=1, sort_keys=True).encode())
        journal.path.touch()
        return journal

    @classmethod
    def resume(cls, run_dir: str | os.PathLike) -> Self:
        """Open an existing run directory for appending."""
        journal = cls(run_dir)
        if not journal.manifest_path.is_file():
            raise JournalError(
                f"{journal.run_dir} is not a run directory "
                f"(no {MANIFEST_NAME})")
        return journal

    def manifest(self) -> dict:
        try:
            with open(self.manifest_path, encoding="utf-8") as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            raise ManifestCorruptError(
                f"manifest in {self.run_dir} is unreadable or corrupt: "
                f"{exc}") from exc
        if doc.get("schema") != self.manifest_schema:
            raise ManifestMismatchError(
                f"unsupported manifest schema {doc.get('schema')!r} in "
                f"{self.run_dir} (expected {self.manifest_schema})")
        return doc

    def fold(self) -> JournalFold:
        """The journal folded to one outcome per key."""
        return self.fold_type.read(self.path)

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


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` durably: fsync'd, then renamed in."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# The evaluation journal
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


class RunState(JournalFold):
    """The run journal folded per cell; a ``failure`` is retried."""

    final_kinds = frozenset({"record"})
    retryable_kinds = frozenset({"failure"})

    def key(self, doc: dict) -> CellKey:
        return tuple(doc[f] for f in _KEY_FIELDS)

    def decode(self, doc: dict) -> RunRecord | FailureRecord:
        if doc["kind"] == "record":
            return _record_from_dict(doc)
        return _failure_from_dict(doc)

    def add(self, outcome: RunRecord | FailureRecord) -> None:
        """Fold one live outcome as its journal line would be folded."""
        self.put(cell_key(outcome), outcome,
                 final=isinstance(outcome, RunRecord))

    @property
    def records(self) -> list[RunRecord]:
        return list(self.finals().values())

    @property
    def failures(self) -> list[FailureRecord]:
        return list(self.pending().values())


class RunJournal(RunDirectory):
    """Single-writer append handle on a run directory's journal.

    Only the sweep *parent* writes: pool workers report results up and
    the parent journals them, so there is exactly one writer per run
    and lines never interleave. Every append is flushed and fsync'd —
    a SIGKILL between cells loses nothing, a SIGKILL mid-append tears
    at most the final line, which loading tolerates.
    """

    manifest_schema = MANIFEST_SCHEMA
    fold_type = RunState

    def append_record(self, record: RunRecord) -> None:
        self.append({"kind": "record", **_record_to_dict(record)})

    def append_failure(self, failure: FailureRecord) -> None:
        self.append({"kind": "failure", **_failure_to_dict(failure)})


def merge_resumed_report(
    corpus: Sequence[CorpusEntry],
    tools: Sequence[str],
    prior: RunState,
    fresh: EvalReport,
) -> EvalReport:
    """Fold a resume run's fresh outcomes over ``prior``; emit the report.

    The fresh outcomes go through the journal fold like their journal
    lines would, on a copy: ``prior`` stays as journaled. The report
    lists cells in canonical corpus x tool order — the order a
    fault-free serial sweep produces — so a recovered report is
    byte-identical (modulo timing fields) to an uninterrupted one.
    """
    state = RunState()
    state.entries = dict(prior.entries)
    for outcome in (*fresh.records, *fresh.failures):
        state.add(outcome)
    merged = EvalReport()
    for entry in corpus:
        for tool in tools:
            found = state.entries.get(entry_cell_key(entry, tool))
            if found is None:
                continue
            if found.final is not None:
                merged.records.append(found.final)
            else:
                merged.failures.append(found.retryable)
    return merged
