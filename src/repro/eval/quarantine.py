"""Quarantine store: crashing/hanging inputs captured for offline replay.

When an evaluation cell fails — a parse rejection, a detector crash, a
blown watchdog, a lost worker — the input binary that caused it is the
single most valuable debugging artifact, and at corpus scale it is also
the easiest thing to lose. The quarantine store captures it at failure
time: the stripped image plus the structured failure metadata, keyed by
content hash so the same pathological binary failing many cells is
stored once.

Layout::

    QUARANTINE_DIR/
      <sha256-prefix>/
        input.bin          # the stripped image handed to the cell
        meta.json          # {"sha256", "size", "failures": [...]}

``funseeker quarantine list`` renders the store;
``funseeker quarantine replay`` re-runs each captured failure's
(parse, detect) cells against the stored bytes under a fresh watchdog —
the offline reproduction loop for anything the sweep flagged.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.eval.isolation import FailureRecord

META_NAME = "meta.json"
INPUT_NAME = "input.bin"

#: Directory-name length (hex chars of the content sha256).
_NAME_LEN = 16


@dataclass
class QuarantineEntry:
    """One captured input plus every failure observed against it."""

    sha256: str
    path: Path
    size: int
    failures: list[dict]

    @property
    def short(self) -> str:
        return self.sha256[:_NAME_LEN]

    def read_input(self) -> bytes:
        return (self.path / INPUT_NAME).read_bytes()


class QuarantineStore:
    """Content-addressed capture of failing evaluation inputs."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def capture(self, stripped: bytes, failure: FailureRecord) -> Path | None:
        """Store (or extend) the quarantine entry for one failed cell.

        Best-effort: quarantine is forensics, never a point of failure
        — any filesystem error degrades to "not captured".
        """
        sha = hashlib.sha256(stripped).hexdigest()
        entry_dir = self.root / sha[:_NAME_LEN]
        meta_path = entry_dir / META_NAME
        try:
            entry_dir.mkdir(parents=True, exist_ok=True)
            input_path = entry_dir / INPUT_NAME
            if not input_path.exists():
                input_path.write_bytes(stripped)
            meta = self._read_meta(meta_path) or {
                "sha256": sha,
                "size": len(stripped),
                "failures": [],
            }
            record = _failure_meta(failure)
            if record not in meta["failures"]:
                meta["failures"].append(record)
            tmp = meta_path.with_name(META_NAME + ".tmp")
            tmp.write_text(json.dumps(meta, indent=1, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, meta_path)
        except OSError:
            return None
        obs.add("quarantine.captured", 1)
        return entry_dir

    def capture_job(
        self,
        data: bytes,
        *,
        job_id: str,
        tenant: str,
        tools: tuple[str, ...] | list[str],
        error: BaseException | str,
        phase: str = "worker",
        attempts: int = 1,
    ) -> Path | None:
        """Capture a poisoned *service job*'s bytes.

        Service jobs carry no corpus provenance, so the corpus-shaped
        :class:`FailureRecord` fields are repurposed by convention:
        ``suite="service"``, ``program=<job id>``, ``compiler=<tenant>``
        and ``tool`` is the comma-joined requested tool set. Replay
        (``funseeker quarantine replay``) still works — a joined tool
        name matches no detector, so the replay degrades to a
        parse-only reproduction, which is exactly what a worker-killing
        input needs.
        """
        failure = FailureRecord(
            suite="service",
            program=job_id,
            compiler=tenant,
            bits=0,
            pie=False,
            opt="-",
            tool=",".join(tools),
            phase=phase,
            error_type=(type(error).__name__
                        if isinstance(error, BaseException)
                        else str(error)),
            message=str(error),
            attempts=attempts,
        )
        return self.capture(data, failure)

    @staticmethod
    def _read_meta(path: Path) -> dict | None:
        try:
            with open(path, encoding="utf-8") as f:
                meta = json.load(f)
        except (OSError, ValueError):
            return None
        if (not isinstance(meta, dict)
                or not isinstance(meta.get("failures"), list)):
            return None
        return meta

    def entries(self) -> list[QuarantineEntry]:
        if not self.root.is_dir():
            return []
        out = []
        for entry_dir in sorted(self.root.iterdir()):
            if not entry_dir.is_dir():
                continue
            meta = self._read_meta(entry_dir / META_NAME)
            if meta is None or not (entry_dir / INPUT_NAME).is_file():
                continue
            out.append(QuarantineEntry(
                sha256=meta.get("sha256", entry_dir.name),
                path=entry_dir,
                size=meta.get("size", 0),
                failures=meta["failures"],
            ))
        return out


def _failure_meta(failure: FailureRecord) -> dict:
    return {
        "suite": failure.suite,
        "program": failure.program,
        "compiler": failure.compiler,
        "bits": failure.bits,
        "pie": failure.pie,
        "opt": failure.opt,
        "tool": failure.tool,
        "phase": failure.phase,
        "error_type": failure.error_type,
        "message": failure.message,
    }


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """Result of re-running one captured failure's cells."""

    sha256: str
    tool: str
    original_error: str
    reproduced: bool
    error_type: str | None
    message: str
    elapsed_seconds: float


def replay_entry(
    entry: QuarantineEntry, *, timeout: float | None = 30.0
) -> list[ReplayOutcome]:
    """Re-run every captured failure of one entry under a watchdog.

    The stored bytes go through the same cell loop as an evaluation
    (:func:`~repro.eval.analyze.image_cells`, no disk cache): one
    parse, then one detect cell per distinct failing tool. A tool name
    that is no detector (a service job's joined tool set) replays as
    the parse alone. ``reproduced`` means the replay failed again (in
    any phase) — the quarantined input still triggers *a* failure,
    though possibly a different one after a code change.
    """
    from repro.baselines import ALL_DETECTORS
    from repro.eval.analyze import image_cells

    original: dict[str, str] = {}
    for meta in entry.failures:
        original.setdefault(meta.get("tool", "?"), meta.get("error_type", "?"))
    cells = image_cells(
        entry.read_input(),
        {tool: ALL_DETECTORS[tool]() for tool in original
         if tool in ALL_DETECTORS},
        cache=None, timeout=timeout)
    parsed = next(cells)
    decided = {cell.tool: cell for cell in cells}
    outcomes = []
    for tool, error_type in original.items():
        cell = decided.get(tool, parsed)
        outcomes.append(ReplayOutcome(
            sha256=entry.sha256,
            tool=tool,
            original_error=error_type,
            reproduced=not cell.ok,
            error_type=cell.error_type,
            message=cell.message if not cell.ok else "ok",
            elapsed_seconds=cell.elapsed_seconds,
        ))
    return outcomes
