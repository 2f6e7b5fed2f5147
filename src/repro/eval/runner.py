"""Experiment driver: run detectors over a corpus and aggregate results.

Used by every table/figure regeneration benchmark. Detection always
runs on *stripped* images (the paper strips all binaries before
evaluation, §III-A) while ground truth comes from the synthesis-time
metadata.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import faults, obs
from repro.baselines.base import FunctionDetector
from repro.cache.disk import default_cache
from repro.elf.parser import ELFFile
from repro.errors import EvaluationAborted
from repro.eval.breaker import CIRCUIT_OPEN, PHASE_BREAKER, CircuitBreaker
from repro.eval.isolation import (
    PHASE_DETECT,
    PHASE_PARSE,
    FailureRecord,
    run_cell,
    watchdog_armable,
)
from repro.eval.metrics import Confusion, score
from repro.synth.corpus import CorpusEntry

#: Sentinel distinguishing "attribute absent" from "attribute is None"
#: in :meth:`EvalReport.filtered`.
_MISSING = object()


@dataclass(frozen=True)
class RunRecord:
    """One (binary, tool) evaluation outcome."""

    suite: str
    program: str
    compiler: str
    bits: int
    pie: bool
    opt: str
    tool: str
    confusion: Confusion
    #: The detector's own seconds (:attr:`DetectionResult.own_seconds`):
    #: shared artifacts are not charged to whichever tool runs first.
    elapsed_seconds: float
    #: Per-phase span totals (seconds) for this cell, keyed by span
    #: name (``detect``/``sweep``/``filter``/...). Populated only when
    #: an observability recorder is active; ``None`` otherwise.
    phase_seconds: dict | None = None


@dataclass
class EvalReport:
    """All run records (and failed cells) of one evaluation sweep."""

    records: list[RunRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)

    def filtered(self, **criteria) -> "EvalReport":
        """Records matching all given attribute=value criteria.

        Failures share the provenance fields, so they are filtered by
        the same criteria (a criterion naming a field failures lack,
        e.g. ``confusion``, simply excludes all failures). A missing
        attribute never matches — not even a criterion whose value is
        ``None`` — hence the sentinel rather than a ``None`` default.
        """
        out = [r for r in self.records
               if all(getattr(r, k, _MISSING) == v
                      for k, v in criteria.items())]
        fails = [f for f in self.failures
                 if all(getattr(f, k, _MISSING) == v
                        for k, v in criteria.items())]
        return EvalReport(records=out, failures=fails)

    def pooled(self) -> Confusion:
        """Pooled confusion counts over all records."""
        total = Confusion()
        for rec in self.records:
            total.add(rec.confusion)
        return total

    def mean_time(self) -> float:
        if not self.records:
            return 0.0
        return (sum(r.elapsed_seconds for r in self.records)
                / len(self.records))

    def tools(self) -> list[str]:
        return sorted({r.tool for r in self.records}
                      | {f.tool for f in self.failures})

    def suites(self) -> list[str]:
        return sorted({r.suite for r in self.records}
                      | {f.suite for f in self.failures})

    def success_rate(self) -> float:
        """Fraction of attempted cells that produced a record."""
        attempted = len(self.records) + len(self.failures)
        if attempted == 0:
            return 1.0
        return len(self.records) / attempted


def _provenance(entry: CorpusEntry) -> dict:
    profile = entry.profile
    return {
        "suite": entry.suite,
        "program": entry.program,
        "compiler": profile.compiler,
        "bits": profile.bits,
        "pie": profile.pie,
        "opt": profile.opt,
    }


def _failure(
    prov: dict, tool: str, phase: str, error: BaseException,
    attempts: int, elapsed: float, enforced: bool = True,
) -> FailureRecord:
    return FailureRecord(
        **prov,
        tool=tool,
        phase=phase,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
        elapsed_seconds=elapsed,
        enforced=enforced,
    )


def _breaker_failure(prov: dict, tool: str) -> FailureRecord:
    return FailureRecord(
        **prov,
        tool=tool,
        phase=PHASE_BREAKER,
        error_type=CIRCUIT_OPEN,
        message=f"circuit open for tool {tool!r}: cell skipped",
        attempts=0,
    )


def run_evaluation(
    corpus: Iterable[CorpusEntry],
    detectors: dict[str, FunctionDetector],
    *,
    timeout: float | None = None,
    retries: int = 0,
    keep_going: bool = True,
    backoff: float = 0.0,
    journal=None,
    completed: set | None = None,
    breaker: CircuitBreaker | None = None,
    quarantine=None,
) -> EvalReport:
    """Run every detector on every (stripped) corpus binary.

    Each entry is parsed once and the same ``ELFFile`` is handed to
    every detector, so its analysis context (:mod:`repro.cache`) is
    shared: the sweep, exception metadata, and PLT map are computed by
    whichever tool needs them first and reused by the rest.

    Each (binary, tool) cell runs in isolation: an exception or a
    blown ``timeout`` (seconds of wall clock, enforced via ``SIGALRM``
    on the main thread) becomes a :class:`FailureRecord` on
    ``report.failures`` and the sweep continues. ``retries`` re-runs a
    raising cell up to that many extra times (transient failures only
    — the :mod:`repro.errors` taxonomy fails fast on permanent kinds —
    sleeping ``backoff``-based exponential delays between attempts).
    With ``keep_going=False`` the first failure aborts the sweep by
    raising :class:`~repro.errors.EvaluationAborted`.

    Crash-safety hooks (all optional):

    - ``journal``: a :class:`~repro.eval.journal.RunJournal`; every
      decided cell is appended (and fsync'd) before the sweep moves on.
    - ``completed``: cell keys (see
      :func:`~repro.eval.journal.cell_key`) to skip — the resume path.
      An entry whose cells are all complete is not even parsed.
    - ``breaker``: a :class:`~repro.eval.breaker.CircuitBreaker`;
      detect cells of an open tool are skipped as ``CircuitOpen``
      failures instead of burning their timeout budget.
    - ``quarantine``: a
      :class:`~repro.eval.quarantine.QuarantineStore`; failing inputs
      are captured for offline replay.
    """
    report = EvalReport()
    completed = completed or set()
    # A timeout requested off the main thread cannot be armed; record
    # that on every failure of this sweep instead of claiming a
    # deadline that never existed.
    enforced = timeout is None or timeout <= 0 or watchdog_armable()

    def _record_failure(failure: FailureRecord,
                        entry: CorpusEntry | None = None) -> None:
        report.failures.append(failure)
        if journal is not None:
            journal.append_failure(failure)
        if (quarantine is not None and entry is not None
                and failure.phase != PHASE_BREAKER):
            quarantine.capture(entry.stripped, failure)
        if not keep_going:
            raise EvaluationAborted(
                f"[{failure.suite}/{failure.program}/{failure.tool}] "
                f"{failure.phase}: {failure.error_type}: {failure.message}"
            )

    def _record_success(record: RunRecord) -> None:
        report.records.append(record)
        if journal is not None:
            journal.append_record(record)

    for entry in corpus:
        prov = _provenance(entry)
        key_prefix = tuple(prov[f] for f in
                           ("suite", "program", "compiler", "bits", "pie",
                            "opt"))
        todo = [name for name in detectors
                if key_prefix + (name,) not in completed]
        if skipped := len(detectors) - len(todo):
            obs.add("eval.cells_skipped", skipped)
        if not todo:
            continue
        with obs.span("entry", suite=entry.suite, program=entry.program):
            elf, error, attempts, elapsed = run_cell(
                faults.guarded(faults.SITE_CELL_EXECUTE,
                               lambda: ELFFile(entry.stripped)),
                timeout=timeout, retries=retries, backoff=backoff,
            )
            if error is not None:
                # The parse serves every tool of this entry: fail each
                # cell.
                for tool_name in todo:
                    _record_failure(_failure(
                        prov, tool_name, PHASE_PARSE, error, attempts,
                        elapsed, enforced), entry)
                continue
            gt = entry.binary.ground_truth.function_starts
            # One store batch per binary: every artifact the tools
            # produce for this entry lands in a single flush + one
            # eviction check instead of a disk walk per store.
            cache = default_cache()
            with cache.batch() if cache is not None else nullcontext():
                for tool_name in todo:
                    detector = detectors[tool_name]
                    if breaker is not None and not breaker.allow(tool_name):
                        _record_failure(_breaker_failure(prov, tool_name))
                        continue
                    cell_mark = obs.mark()
                    result, error, attempts, elapsed = run_cell(
                        faults.guarded(faults.SITE_CELL_EXECUTE,
                                       lambda d=detector: d.detect(elf)),
                        timeout=timeout, retries=retries, backoff=backoff,
                    )
                    if error is not None:
                        if breaker is not None:
                            breaker.record_failure(tool_name)
                        _record_failure(_failure(
                            prov, tool_name, PHASE_DETECT, error, attempts,
                            elapsed, enforced), entry)
                        continue
                    if breaker is not None:
                        breaker.record_success(tool_name)
                    with obs.span("score", tool=tool_name):
                        confusion = score(gt, result.functions)
                    phases = obs.phase_totals(cell_mark) or None
                    _record_success(RunRecord(
                        **prov,
                        tool=tool_name,
                        confusion=confusion,
                        elapsed_seconds=result.own_seconds,
                        phase_seconds=phases,
                    ))
    return report


# ---------------------------------------------------------------------------
# Error analysis (paper §V-C: FN/FP breakdowns)
# ---------------------------------------------------------------------------


@dataclass
class ErrorBreakdown:
    """Categorized false negatives and false positives."""

    fn_dead: int = 0
    fn_tail_target: int = 0
    fn_other: int = 0
    fp_fragment: int = 0
    fp_other: int = 0

    @property
    def fn_total(self) -> int:
        return self.fn_dead + self.fn_tail_target + self.fn_other

    @property
    def fp_total(self) -> int:
        return self.fp_fragment + self.fp_other

    def merge(self, other: "ErrorBreakdown") -> None:
        self.fn_dead += other.fn_dead
        self.fn_tail_target += other.fn_tail_target
        self.fn_other += other.fn_other
        self.fp_fragment += other.fp_fragment
        self.fp_other += other.fp_other


def analyze_errors(
    entry: CorpusEntry, detected: set[int]
) -> ErrorBreakdown:
    """Attribute one binary's FPs/FNs to the paper's categories.

    False negatives are classified as dead functions or missed
    tail-call targets (paper: 93.3% / 6.7%); false positives as
    ``.part``/``.cold`` fragment references or other (paper: 100%
    fragments).
    """
    gt = entry.binary.ground_truth
    out = ErrorBreakdown()
    dead = {e.address for e in gt.entries if e.is_function and e.is_dead}
    fragments = gt.fragment_starts
    for addr in gt.function_starts - detected:
        if addr in dead:
            out.fn_dead += 1
        else:
            out.fn_tail_target += 1
    for addr in detected - gt.function_starts:
        if addr in fragments:
            out.fp_fragment += 1
        else:
            out.fp_other += 1
    return out
