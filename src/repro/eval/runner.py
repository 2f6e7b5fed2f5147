"""Experiment driver: run detectors over a corpus and aggregate results.

Used by every table/figure regeneration benchmark. Detection always
runs on *stripped* images (the paper strips all binaries before
evaluation, §III-A) while ground truth comes from the synthesis-time
metadata.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro import obs
from repro.baselines.base import FunctionDetector
from repro.cache.disk import default_cache
from repro.errors import EvaluationAborted
from repro.eval.analyze import image_cells
from repro.eval.breaker import PHASE_BREAKER, CircuitBreaker
from repro.eval.isolation import PHASE_DETECT, FailureRecord
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


def entry_provenance(entry: CorpusEntry) -> dict:
    profile = entry.profile
    return {
        "suite": entry.suite,
        "program": entry.program,
        "compiler": profile.compiler,
        "bits": profile.bits,
        "pie": profile.pie,
        "opt": profile.opt,
    }


def entry_outcomes(
    data,
    ground_truth: set[int] | frozenset[int],
    provenance: dict,
    detectors: dict,
    **cell_options,
) -> Iterator[RunRecord | FailureRecord]:
    """One corpus entry's cells as run and failure records, in order.

    A scoring adapter over :func:`~repro.eval.analyze.image_cells`
    (``cell_options`` are its keyword arguments), shared by the serial
    runner and the parallel workers.
    """
    with obs.span("entry", suite=provenance["suite"],
                  program=provenance["program"]):
        for cell in image_cells(data, detectors, **cell_options):
            if cell.tool is None:
                continue
            if not cell.ok:
                yield cell.failure(provenance)
                continue
            result = cell.value
            with obs.span("score", tool=cell.tool):
                confusion = score(ground_truth, result.functions)
            yield RunRecord(
                **provenance,
                tool=cell.tool,
                confusion=confusion,
                elapsed_seconds=result.own_seconds,
                phase_seconds=obs.phase_totals(cell.mark) or None,
            )


def absorber(
    report: EvalReport,
    *,
    keep_going: bool = True,
    journal=None,
    breaker: CircuitBreaker | None = None,
    quarantine=None,
) -> Callable[[RunRecord | FailureRecord, Callable[[], bytes]], None]:
    """The sweep-side sink for cell outcomes, one at a time.

    Each outcome lands on ``report``, drives the ``breaker`` (detect
    cells only), is journaled, and — for a failure that ran — captures
    the input (``image()``) into ``quarantine``. Under fail-fast
    (``keep_going=False``) the first failure raises
    :class:`~repro.errors.EvaluationAborted`.
    """
    def absorb(item: RunRecord | FailureRecord,
               image: Callable[[], bytes]) -> None:
        if isinstance(item, RunRecord):
            if breaker is not None:
                breaker.record_success(item.tool)
            report.records.append(item)
            if journal is not None:
                journal.append_record(item)
            return
        if breaker is not None and item.phase == PHASE_DETECT:
            breaker.record_failure(item.tool)
        report.failures.append(item)
        if journal is not None:
            journal.append_failure(item)
        if quarantine is not None and item.phase != PHASE_BREAKER:
            quarantine.capture(image(), item)
        if not keep_going:
            raise EvaluationAborted(
                f"[{item.suite}/{item.program}/{item.tool}] "
                f"{item.phase}: {item.error_type}: {item.message}"
            )

    return absorb


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
    whichever tool needs them first and reused by the rest. The context
    reads and writes the process default disk cache.

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
    from repro.eval.journal import entry_cell_key

    report = EvalReport()
    completed = completed or set()
    absorb = absorber(report, keep_going=keep_going, journal=journal,
                      breaker=breaker, quarantine=quarantine)
    for entry in corpus:
        todo = {name: detector for name, detector in detectors.items()
                if entry_cell_key(entry, name) not in completed}
        if skipped := len(detectors) - len(todo):
            obs.add("eval.cells_skipped", skipped)
        if not todo:
            continue
        for item in entry_outcomes(
                entry.stripped, entry.binary.ground_truth.function_starts,
                entry_provenance(entry), todo, cache=default_cache(),
                timeout=timeout, retries=retries, backoff=backoff,
                allow=None if breaker is None else breaker.allow):
            absorb(item, lambda: entry.stripped)
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
