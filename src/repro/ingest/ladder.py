"""The per-binary degradation ladder: partial results, never fleet loss.

An admitted real-world binary runs down a fixed ladder of rungs, each
guarded by the same watchdog/retry machinery the evaluation harness
uses (:func:`repro.eval.isolation.run_cell`):

1. **read** — load the image (the ``ingest.analyze`` fault point fires
   here, inside the watchdog, so an injected hang is caught by the
   cell deadline and an injected kill is seen by the parent's
   supervisor as a lost worker);
2. **parse** — degraded-mode :class:`~repro.elf.parser.ELFFile`: every
   tolerated anomaly lands on the shared diagnostics collector;
3. **cet** — the ``.note.gnu.property`` feature probe;
4. **detect** — each requested detector, independently guarded, with
   pairwise entry-set agreement computed over the tools that survived.

The parse and detect rungs are the cells of
:func:`repro.eval.analyze.image_cells`, the loop every analysis path
shares, so they pass through the ``cell.execute`` fault point. The
ladder gives the image's analysis context no disk cache.

A rung that fails *downgrades* the outcome instead of failing the
binary: the result is a :class:`BinaryOutcome` whose ``status`` is
``ok``, ``degraded:<diagnostic>``, or ``quarantined``, with an
explicit ``confidence`` annotation — the fleet report's unit of
account. Only a failed **read** rung raises (as
:class:`LadderReadError`), because without bytes there is nothing to
degrade to; the pipeline journals that as a retryable failure so a
resume heals transient I/O.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, obs
from repro.baselines import ALL_DETECTORS
from repro.elf.parser import ELFFile
from repro.errors import ReproError, Severity

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"        # rendered as "degraded:<diagnostic>"
STATUS_QUARANTINED = "quarantined"

CONFIDENCE_HIGH = "high"
CONFIDENCE_MEDIUM = "medium"
CONFIDENCE_LOW = "low"


class LadderReadError(ReproError):
    """The read rung failed: no bytes, nothing to degrade to."""


@dataclass
class ToolOutcome:
    """One detector's rung on one binary."""

    functions: int | None = None
    elapsed_seconds: float = 0.0
    error_type: str | None = None
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.error_type is None

    def to_dict(self) -> dict:
        doc: dict = {"elapsed_seconds": round(self.elapsed_seconds, 6)}
        if self.ok:
            doc["functions"] = self.functions
        else:
            doc["error_type"] = self.error_type
            doc["message"] = self.message
        return doc


@dataclass
class BinaryOutcome:
    """The ladder's account of one admitted binary."""

    path: str
    size: int
    sha256: str
    status: str                    # "ok" | "degraded:<diag>" | "quarantined"
    confidence: str                # high | medium | low
    cet: dict = field(default_factory=dict)
    tools: dict = field(default_factory=dict)      # name -> ToolOutcome
    agreement: dict = field(default_factory=dict)  # "a|b" -> jaccard
    diagnostics: int = 0
    worst_severity: str | None = None
    error_type: str | None = None  # primary failure, when degraded
    error_message: str | None = None
    elapsed_seconds: float = 0.0

    @property
    def status_class(self) -> str:
        """The coarse bucket: ``ok``/``degraded``/``quarantined``."""
        return self.status.split(":", 1)[0]

    def to_dict(self) -> dict:
        doc = {
            "path": self.path,
            "size": self.size,
            "sha256": self.sha256,
            "status": self.status,
            "confidence": self.confidence,
            "cet": self.cet,
            "tools": {name: t.to_dict() for name, t in self.tools.items()},
            "agreement": {k: round(v, 6)
                          for k, v in sorted(self.agreement.items())},
            "diagnostics": self.diagnostics,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if self.worst_severity:
            doc["worst_severity"] = self.worst_severity
        if self.error_type:
            doc["error_type"] = self.error_type
            doc["error_message"] = self.error_message
        return doc


def analyze_binary(
    path: str | Path,
    tool_names: list[str],
    *,
    timeout: float | None = None,
    max_size: int | None = None,
) -> BinaryOutcome:
    """Run one admitted binary down the ladder. Runs in a pool worker.

    Raises :class:`LadderReadError` only when the image cannot be read
    at all; every later rung degrades instead of raising.
    """
    from repro.eval.analyze import image_cells
    from repro.eval.isolation import run_cell

    started = time.perf_counter()
    with obs.span("ingest.analyze", path=str(path)):
        data, error, _attempts, _elapsed = run_cell(
            lambda: _read_image(path, max_size), timeout=timeout)
        if error is not None:
            raise LadderReadError(
                f"{type(error).__name__}: {error}") from (
                    error if isinstance(error, Exception) else None)
        outcome = BinaryOutcome(
            path=str(path),
            size=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
            status=STATUS_QUARANTINED,
            confidence=CONFIDENCE_LOW,
        )

        # -- parse rung ---------------------------------------------------
        cells = image_cells(
            data, {name: ALL_DETECTORS[name]() for name in tool_names},
            cache=None, parse=ELFFile.degraded, timeout=timeout)
        parsed = next(cells)
        if not parsed.ok:
            # Degraded parse never raises by contract; reaching here
            # means a watchdog or memory ceiling fired — the binary is
            # hostile enough to quarantine.
            outcome.status = STATUS_QUARANTINED
            outcome.error_type = parsed.error_type
            outcome.error_message = parsed.message
            outcome.elapsed_seconds = time.perf_counter() - started
            obs.add("ingest.analyze.quarantined", 1)
            return outcome
        elf = parsed.value

        # -- cet rung -----------------------------------------------------
        cet_error = None
        try:
            from repro.elf.gnuproperty import parse_cet_features

            features = parse_cet_features(elf)
            outcome.cet = {"ibt": features.ibt, "shstk": features.shstk}
        except Exception as exc:  # the probe must not sink the ladder
            cet_error = exc
            elf.diagnostics.record(
                "gnu_property", f"CET probe failed: {exc}",
                severity=Severity.WARNING, error=exc)

        # -- detect rung --------------------------------------------------
        entry_sets: dict[str, frozenset[int]] = {}
        for cell in cells:
            outcome.tools[cell.tool] = ToolOutcome(
                elapsed_seconds=cell.elapsed_seconds,
                error_type=cell.error_type, message=cell.message)
            if cell.ok:
                functions = cell.value.functions
                outcome.tools[cell.tool].functions = len(functions)
                entry_sets[cell.tool] = frozenset(functions)
        outcome.agreement = pairwise_agreement(entry_sets)
        outcome.diagnostics = len(elf.diagnostics)
        outcome.worst_severity = _worst_severity(elf.diagnostics)
        _classify(outcome, cet_error)
        outcome.elapsed_seconds = time.perf_counter() - started
        obs.add(f"ingest.analyze.{outcome.status_class}", 1)
    return outcome


def _read_image(path: str | Path, max_size: int | None) -> bytes:
    faults.hit(faults.SITE_INGEST_ANALYZE)
    with open(path, "rb") as f:
        # +1 so a file that grew past the ceiling is still bounded.
        return f.read(max_size + 1 if max_size else None)


def pairwise_agreement(
    entry_sets: dict[str, frozenset[int]],
) -> dict[str, float]:
    """Jaccard agreement between every pair of successful tools.

    Keys are ``"a|b"`` with the names sorted, so the same pair maps to
    the same key run over run. Two empty entry sets agree perfectly
    (both found nothing, and said so).
    """
    out: dict[str, float] = {}
    for a, b in itertools.combinations(sorted(entry_sets), 2):
        union = entry_sets[a] | entry_sets[b]
        if not union:
            out[f"{a}|{b}"] = 1.0
        else:
            out[f"{a}|{b}"] = len(entry_sets[a] & entry_sets[b]) / len(union)
    return out


def _worst_severity(diagnostics) -> str | None:
    worst = None
    rank = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}
    for diag in diagnostics:
        if worst is None or rank[diag.severity] > rank[worst]:
            worst = diag.severity
    return worst.value if worst else None


def _classify(outcome: BinaryOutcome, cet_error) -> None:
    """Derive status/confidence from what the rungs reported."""
    failed = [n for n, t in outcome.tools.items() if not t.ok]
    succeeded = [n for n, t in outcome.tools.items() if t.ok]
    has_errors = outcome.worst_severity == Severity.ERROR.value
    if outcome.tools and not succeeded:
        # Every detector died on this input: nothing usable came out.
        first = outcome.tools[failed[0]]
        outcome.status = STATUS_QUARANTINED
        outcome.confidence = CONFIDENCE_LOW
        outcome.error_type = first.error_type
        outcome.error_message = first.message
        return
    if failed:
        outcome.status = f"{STATUS_DEGRADED}:detect-failures({len(failed)})"
        first = outcome.tools[failed[0]]
        outcome.error_type = first.error_type
        outcome.error_message = first.message
        outcome.confidence = (CONFIDENCE_MEDIUM
                              if len(succeeded) >= len(failed)
                              else CONFIDENCE_LOW)
        return
    if cet_error is not None:
        outcome.status = f"{STATUS_DEGRADED}:cet-probe-failed"
        outcome.confidence = CONFIDENCE_MEDIUM
        return
    if has_errors:
        outcome.status = f"{STATUS_DEGRADED}:parse-errors"
        outcome.confidence = CONFIDENCE_MEDIUM
        return
    if outcome.diagnostics:
        outcome.status = f"{STATUS_DEGRADED}:parse-anomalies"
        # Anomalies were tolerated without losing a stage: results are
        # partial but the entry evidence itself decoded.
        outcome.confidence = CONFIDENCE_MEDIUM
        return
    outcome.status = STATUS_OK
    outcome.confidence = CONFIDENCE_HIGH
