"""Multi-process corpus evaluation.

The paper's full matrix is thousands of binaries; evaluation is
embarrassingly parallel across them. This runner fans corpus entries
out over a process pool and reassembles an :class:`EvalReport`
identical (up to timing jitter) to the serial one.

Detectors are addressed by registry name (``repro.baselines``), not by
instance — worker processes construct their own, so nothing stateful
crosses the fork boundary. Each job carries its binary's bytes; the
worker parses them once and runs every tool against that one
``ELFFile``, so the per-binary analysis context (:mod:`repro.cache`)
is built once per job and shared across the job's tools; the opt-in
disk cache crosses the fork boundary through the inherited
``REPRO_CACHE_DIR`` environment (and the fault plan through
``REPRO_FAULT_PLAN``).

Fault isolation mirrors the serial runner: each (binary, tool) cell is
guarded in the worker (exceptions and ``timeout`` become
:class:`~repro.eval.isolation.FailureRecord` entries), and the parent
additionally guards against the worker itself dying — a crashed or
wedged worker costs its own job a failure record, not the sweep. Jobs
run on the :class:`~repro.eval.supervisor.SupervisedExecutor`, which
sees a dead worker at once, kills one that outlives its job's budget
plus ``backstop_grace`` or stops heartbeating, and respawns it, so the
remaining jobs still run. ``max_rss_mb`` arms an address-space rlimit
in every worker, so a cell that balloons is killed by its own
``MemoryError`` (a permanent, non-retried failure record) instead of
taking the host down.

Jobs are dispatched **lazily** through a bounded window and collected
**out of order** (:meth:`SupervisedExecutor.imap_unordered`), so one
lost worker never stalls the collection of already-finished later
results. Lazy dispatch is also what gives the per-tool circuit
``breaker`` its teeth: cells of a tool whose circuit opened mid-sweep
are skipped at dispatch time, before they can burn a worker's budget.

Crash-safety hooks run in the **parent**, which is the single writer:
every absorbed cell outcome is appended (fsync'd) to the optional
``journal`` the moment it is learned, ``completed`` cell keys from a
prior journal are never dispatched at all, and failing inputs are
captured into the optional ``quarantine`` store.

When ``trace_dir`` is given, each worker installs its own
observability recorder (:mod:`repro.obs`) and appends its spans and
counters to a per-worker JSONL part file after every job; the parent
(or CLI) merges the parts into one trace with
:func:`repro.obs.merge_traces`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path

from repro import faults, obs
from repro.baselines import ALL_DETECTORS
from repro.cache.disk import default_cache
from repro.errors import WorkerLostError
from repro.eval.analyze import circuit_open
from repro.eval.breaker import CircuitBreaker
from repro.eval.isolation import PHASE_WORKER, FailureRecord
from repro.eval.journal import entry_cell_key
from repro.eval.runner import (
    EvalReport,
    RunRecord,
    entry_provenance,
    absorber,
    entry_outcomes,
)
from repro.eval.supervisor import DEFAULT_BACKSTOP, SupervisedExecutor
from repro.synth.corpus import CorpusEntry


def run_evaluation_parallel(
    corpus: Iterable[CorpusEntry],
    tool_names: list[str],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    keep_going: bool = True,
    trace_dir: str | os.PathLike | None = None,
    journal=None,
    completed: set | None = None,
    breaker: CircuitBreaker | None = None,
    quarantine=None,
    max_rss_mb: int | None = None,
    backstop_grace: float = DEFAULT_BACKSTOP,
) -> EvalReport:
    """Evaluate ``tool_names`` over ``corpus`` on supervised workers.

    ``tool_names`` must be keys of
    :data:`repro.baselines.ALL_DETECTORS`. ``workers`` defaults to the
    CPU count; ``workers=1`` degrades to in-process execution (useful
    under debuggers).

    ``timeout`` bounds each (binary, tool) cell in wall-clock seconds
    (enforced inside the worker, with a parent-side backstop for
    workers that wedge); ``retries`` re-runs transiently
    failing cells. With
    ``keep_going=False`` the first failed cell aborts the sweep via
    :class:`~repro.errors.EvaluationAborted`. ``trace_dir`` (optional)
    enables per-worker observability traces, written as JSONL part
    files into that directory.

    ``journal``/``completed``/``breaker``/``quarantine``/``max_rss_mb``
    are the crash-safety hooks described in the module docstring; all
    default to off. ``backstop_grace`` is the seconds a worker may run
    past its job's budget before it is killed (tests and the chaos
    harness shrink it); without a ``timeout`` there is no budget and no
    backstop, only the heartbeat.
    """
    unknown = [t for t in tool_names if t not in ALL_DETECTORS]
    if unknown:
        raise ValueError(f"unknown detectors: {unknown}")
    completed = completed or set()
    jobs = []
    skipped_cells = 0
    for entry in corpus:
        todo = [t for t in tool_names
                if entry_cell_key(entry, t) not in completed]
        skipped_cells += len(tool_names) - len(todo)
        if todo:
            jobs.append(_job_payload(entry, todo))
    if skipped_cells:
        obs.add("eval.cells_skipped", skipped_cells)
    report = EvalReport()
    absorb = absorber(report, keep_going=keep_going, journal=journal,
                      breaker=breaker, quarantine=quarantine)

    def _absorb(items: list[RunRecord | FailureRecord], job: tuple) -> None:
        for item in items:
            absorb(item, lambda: job[0])

    def _dispatch(jobs):
        """Strip open-circuit tools from each job as it is sent."""
        for job in jobs:
            if breaker is not None:
                allowed, denied = [], []
                for name in job[-1]:
                    (allowed if breaker.allow(name) else denied).append(name)
                _absorb([circuit_open(name).failure(job[2])
                         for name in denied], job)
                if not allowed:
                    continue
                job = job[:-1] + (tuple(allowed),)
            faults.hit(faults.SITE_WORKER_DISPATCH)
            yield job

    if workers == 1:
        for job in _dispatch(jobs):
            _absorb(_evaluate_job(job, timeout, retries, trace_dir), job)
        return report

    # A worker enforces its own per-cell deadline; the supervisor's
    # backstop only has to catch workers that never report back.
    budget = None
    if timeout is not None:
        per_job_cells = len(tool_names) + 1  # + the shared parse
        budget = timeout * (retries + 1) * per_job_cells

    with SupervisedExecutor(
            workers or os.cpu_count() or 1,
            backstop=None if budget is None else backstop_grace,
            max_rss_mb=max_rss_mb) as pool:
        for job, future in pool.imap_unordered(
                _supervised_job, _dispatch(jobs),
                timeout, retries,
                None if trace_dir is None else str(trace_dir),
                budget=budget):
            try:
                result = future.result()
            except WorkerLostError as exc:
                obs.add("eval.workers_lost", 1)
                result = _lost_worker_failures(job, str(exc))
            _absorb(result, job)
    return report


def _supervised_job(job: tuple, timeout, retries, trace_dir):
    """:func:`_evaluate_job` in a supervised worker, which starts with a
    counters-only recorder: a tracing run records spans there too."""
    if trace_dir is not None and not obs.enabled():
        obs.set_recorder(obs.TraceRecorder())
    return _evaluate_job(job, timeout, retries, trace_dir)


def flush_trace_part(trace_dir: str) -> None:
    """Append this process's accumulated spans/counters to its part file."""
    recorder = obs.recorder()
    if not recorder.enabled:
        return
    path = Path(trace_dir) / f"worker-{os.getpid()}.jsonl"
    try:
        obs.append_payload(path, recorder.drain())
    except OSError:
        pass  # tracing is an accelerant, never a point of failure


def _job_payload(entry: CorpusEntry, tool_names: list[str]) -> tuple:
    return (
        entry.stripped,
        frozenset(entry.binary.ground_truth.function_starts),
        entry_provenance(entry),
        tuple(tool_names),
    )


def _lost_worker_failures(job: tuple, message: str) -> list[FailureRecord]:
    """Failure records for every cell of a job whose worker was lost."""
    return [
        FailureRecord(
            **job[2],
            tool=name,
            phase=PHASE_WORKER,
            error_type="WorkerLost",
            message=message,
        )
        for name in job[-1]
    ]


def _evaluate_job(
    job: tuple,
    timeout: float | None = None,
    retries: int = 0,
    trace_dir: str | None = None,
) -> list[RunRecord | FailureRecord]:
    """Evaluate one corpus entry; never raises.

    Runs in a pool worker (or in-process for ``workers=1``). Every
    cell outcome is returned as data, in cell order, so nothing
    propagates across the process boundary as an exception.
    """
    stripped, ground_truth, provenance, tool_names = job
    try:
        return list(entry_outcomes(
            stripped, ground_truth, provenance,
            {name: ALL_DETECTORS[name]() for name in tool_names},
            cache=default_cache(), timeout=timeout, retries=retries))
    finally:
        if trace_dir is not None:
            flush_trace_part(trace_dir)
