"""The fleet-scan pipeline: walk, triage, analyze, journal — resumably.

This is the orchestration layer of :mod:`repro.ingest`: it connects the
streaming discoverer, the admission triage, and the per-binary
degradation ladder into one crash-safe scan over directory trees of
untrusted binaries.

Division of labor:

- The **parent** walks and triages (cheap: a ``stat`` plus at most 64
  bytes per file) and is the journal's single writer. Every decision —
  a walk skip, a final triage call, a finished analysis, a retryable
  failure — is fsync'd to the scan journal the moment it is learned.
- **Supervised workers** (:class:`repro.eval.supervisor.SupervisedExecutor`)
  run the degradation ladder (parse, CET probe, detector sweep) under
  the shared watchdog/RSS machinery from :mod:`repro.eval`.
- The discover generator *is* the executor's lazily pulled job
  iterator, so the walk only advances as in-flight slots free up:
  backpressure for free, and parent memory bounded by the dispatch
  window instead of the fleet size.

A per-**directory** circuit breaker guards dispatch: a directory whose
binaries keep killing workers (a hostile corpus dump, an NFS mount
going bad) stops burning worker time after ``threshold`` consecutive
losses; its remaining candidates are journaled as retryable
``CircuitOpen`` failures, so a later ``--resume`` gives them a fresh
chance rather than losing them.

Resume semantics: paths with a journaled *final* record (triage call or
analysis) are never re-decided; journaled *failures* — lost workers,
transient I/O during triage, breaker skips — are retried. The walk is
deterministic (sorted), triage is a pure function of bytes and policy
(pinned by the manifest), and the fleet report is built from journal
state, so an interrupted scan plus a resume converges to a report
identical to an uninterrupted run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import WorkerLostError
from repro.eval import shm
from repro.eval.breaker import CIRCUIT_OPEN, CircuitBreaker
from repro.eval.isolation import FailureRecord
from repro.eval.supervisor import DEFAULT_BACKSTOP, SupervisedExecutor
from repro.ingest.admit import AdmissionPolicy, triage
from repro.ingest.discover import Candidate, discover
from repro.ingest.journal import (
    ScanJournal,
    ScanState,
    build_scan_manifest,
    check_scan_manifest,
)
from repro.ingest.ladder import LadderReadError, analyze_binary

#: Subdirectory of the run dir holding captured quarantined inputs.
QUARANTINE_DIR = "quarantine"

#: Default tool set for fleet scans (static detectors only — the
#: disassembler baselines assume well-formed inputs and are exactly the
#: tools a hostile binary would wedge).
DEFAULT_SCAN_TOOLS = ("funseeker", "naive-endbr")


@dataclass
class ScanStats:
    """Parent-side accounting for one ``run_scan`` invocation."""

    walked: int = 0            # discovery events seen this run
    walk_skips: int = 0        # WalkSkip events journaled this run
    triaged: int = 0           # fresh triage calls this run
    dispatched: int = 0        # candidates handed to the ladder
    resumed: int = 0           # paths skipped as already decided
    breaker_skips: int = 0     # candidates refused by an open circuit
    lost_workers: int = 0


@dataclass
class ScanResult:
    """What ``run_scan`` hands back: journal state plus run accounting."""

    run_dir: Path
    manifest: dict
    state: ScanState
    stats: ScanStats = field(default_factory=ScanStats)


def run_scan(
    run_dir: str | os.PathLike,
    *,
    roots: list[str] | None = None,
    tools: list[str] | None = None,
    resume: bool = False,
    include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
    workers: int | None = None,
    timeout: float | None = None,
    max_rss_mb: int | None = None,
    limit: int | None = None,
    breaker: CircuitBreaker | None = None,
    backstop_grace: float = DEFAULT_BACKSTOP,
) -> ScanResult:
    """Scan ``roots`` for binaries and journal every decision.

    A fresh scan (``resume=False``) requires ``roots`` and creates
    ``run_dir`` with the default admission policy, following symlinks;
    a resume takes everything identity-relevant — roots, filters,
    tools, admission policy — from the journaled manifest, and refuses
    via :class:`~repro.errors.ManifestMismatchError` when explicit
    ``roots``, ``tools``, ``include`` or ``exclude`` disagree with it.
    ``limit`` bounds the number of *admitted* binaries; because the
    walk is deterministic it counts previously-analyzed paths too, so
    a resumed limited scan converges to the same fleet. Scans never
    raise for anything a binary does — only for operator errors (bad
    run dir, manifest mismatch) and journal write failures.
    """
    run_dir = Path(run_dir)
    if resume:
        journal = ScanJournal.resume(run_dir)
        manifest = journal.manifest()
        check_scan_manifest(manifest, roots, tools=tools, include=include,
                            exclude=exclude)
        roots = manifest.get("roots") or []
        tools = list(manifest.get("tools") or DEFAULT_SCAN_TOOLS)
        include = tuple(manifest.get("include") or ())
        exclude = tuple(manifest.get("exclude") or ())
        policy = AdmissionPolicy.from_dict(manifest.get("policy") or {})
        follow_symlinks = bool(manifest.get("follow_symlinks", True))
        if timeout is None:
            timeout = (manifest.get("config") or {}).get("timeout")
        prior = journal.fold()
    else:
        if not roots:
            raise ValueError("a fresh scan needs at least one root")
        tools = list(tools or DEFAULT_SCAN_TOOLS)
        policy, follow_symlinks = AdmissionPolicy(), True
        manifest = build_scan_manifest(
            list(roots), tools, include=include, exclude=exclude,
            timeout=timeout)
        # Walk the manifest's absolute roots, as a resume will, so both
        # runs journal the same path strings.
        roots = manifest["roots"]
        journal = ScanJournal.create(run_dir, manifest)
        prior = ScanState()

    with journal:
        result = ScanResult(run_dir=run_dir, manifest=manifest, state=prior)
        with obs.span("ingest.scan", roots=",".join(map(str, roots))):
            _drive_scan(
                journal, result,
                roots=roots, tools=tools, include=include, exclude=exclude,
                policy=policy, follow_symlinks=follow_symlinks,
                workers=workers, timeout=timeout, max_rss_mb=max_rss_mb,
                limit=limit, breaker=breaker,
                backstop_grace=backstop_grace,
            )
    return result


def _drive_scan(
    journal: ScanJournal,
    result: ScanResult,
    *,
    roots, tools, include, exclude, policy, follow_symlinks,
    workers, timeout, max_rss_mb, limit, breaker, backstop_grace,
) -> None:
    state = result.state
    stats = result.stats
    completed = state.completed  # snapshot: this run's appends don't count
    prior_admitted = {p for p in state.analyses if p in completed}
    if breaker is None:
        breaker = CircuitBreaker()
    from repro.eval.quarantine import QuarantineStore

    store = QuarantineStore(result.run_dir / QUARANTINE_DIR)

    admitted = 0

    def _jobs():
        """Walk + triage, journaling inline; yields only ladder work.

        Pulled lazily by the executor, so the walk advances only as
        in-flight slots free up.
        """
        nonlocal admitted
        for event in discover(roots, include=include, exclude=exclude,
                              follow_symlinks=follow_symlinks):
            stats.walked += 1
            path = str(event.path)
            if not isinstance(event, Candidate):
                if path in completed:
                    stats.resumed += 1
                    continue
                stats.walk_skips += 1
                state.absorb(journal.append_triage(
                    path, "skip", event.reason, detail=event.detail))
                continue
            if path in completed:
                stats.resumed += 1
                if path in prior_admitted:
                    admitted += 1
                    if limit is not None and admitted >= limit:
                        return
                continue
            admission = triage(event, policy)
            if admission.transient:
                # An I/O hiccup while sampling: journaled as retryable,
                # not as a final triage call, so a resume re-triages.
                stats.triaged += 1
                state.absorb(journal.append_failure(
                    path, "TriageTransient",
                    f"{admission.reason}: {admission.detail}"))
                continue
            if not admission.analyze:
                stats.triaged += 1
                state.absorb(journal.append_triage(
                    path, admission.decision, admission.reason,
                    detail=admission.detail, size=event.size))
                continue
            admitted += 1
            yield event
            if limit is not None and admitted >= limit:
                return

    def _record_analysis(candidate: Candidate, doc: dict) -> None:
        state.absorb(journal.append_analysis(doc))
        breaker.record_success(str(candidate.directory))
        if doc.get("status") == "quarantined":
            _capture_quarantined(store, candidate, doc, policy)

    def _record_failure(candidate: Candidate, error_type: str,
                        message: str) -> None:
        state.absorb(journal.append_failure(candidate.path, error_type,
                                            message))
        breaker.record_failure(str(candidate.directory))

    def _dispatch(preload):
        """Breaker check and image preload, as each candidate is sent."""
        for candidate in _jobs():
            if not _breaker_gate(candidate, breaker, stats,
                                 _record_failure):
                continue
            stats.dispatched += 1
            yield candidate, preload(candidate)

    if workers == 1:
        for job in _dispatch(lambda candidate: None):
            _absorb_payload(job[0],
                            _scan_job(job, tools, timeout, policy.max_size),
                            _record_analysis, _record_failure)
        return

    # Per-candidate shared-memory preload: the parent reads the image
    # once and ships a small ref, so the job queue never carries whole
    # binaries. A preload failure ships no ref and the worker reads the
    # path itself — the pre-shm behavior, byte for byte.
    segments: dict[str, shm.Arena] = {}

    def _preload(candidate: Candidate):
        if not shm.available():
            return None
        try:
            with open(candidate.path, "rb") as f:
                # Mirrors the ladder's own read bound (+1 so a file
                # that grew past the ceiling is still detected).
                data = f.read(policy.max_size + 1 if policy.max_size
                              else None)
        except OSError:
            return None
        arena, (ref,) = shm.share_images([data])
        segments[str(candidate.path)] = arena
        return ref

    # read + parse + one cell per tool. Without a timeout there is no
    # budget and no backstop, only the heartbeat.
    budget = None if timeout is None else timeout * (len(tools) + 2)
    try:
        with SupervisedExecutor(
                workers or os.cpu_count() or 1,
                backstop=None if budget is None else backstop_grace,
                max_rss_mb=max_rss_mb) as pool:
            for (candidate, _ref), future in pool.imap_unordered(
                    _scan_job, _dispatch(_preload), tools, timeout,
                    policy.max_size, budget=budget):
                arena = segments.pop(str(candidate.path), None)
                if arena is not None:
                    arena.destroy()
                try:
                    payload = future.result()
                except WorkerLostError as exc:
                    stats.lost_workers += 1
                    obs.add("eval.workers_lost", 1)
                    _record_failure(candidate, "WorkerLost", str(exc))
                else:
                    _absorb_payload(candidate, payload,
                                    _record_analysis, _record_failure)
    finally:
        for arena in segments.values():
            arena.destroy()
        segments.clear()


def _breaker_gate(candidate: Candidate, breaker: CircuitBreaker,
                  stats: ScanStats, record_failure) -> bool:
    """Whether ``candidate`` may be dispatched; one whose directory
    circuit is open is refused and recorded as a failure."""
    directory = str(candidate.directory)
    if breaker.allow(directory):
        return True
    stats.breaker_skips += 1
    record_failure(candidate, CIRCUIT_OPEN,
                   f"directory circuit open: {directory}")
    return False


def _absorb_payload(candidate: Candidate, payload: dict,
                    record_analysis, record_failure) -> None:
    failure = payload.get("failure")
    if failure is not None:
        record_failure(candidate, failure["error_type"],
                       failure["message"])
    else:
        record_analysis(candidate, payload["outcome"])


def _scan_job(job: tuple, tool_names: list[str],
              timeout: float | None = None,
              max_size: int | None = None) -> dict:
    """Run one admitted binary down the ladder; never raises.

    ``job`` is ``(candidate, image_ref)``. Runs in a supervised worker (or
    in-process for ``workers=1``); everything comes back as data, so
    nothing crosses the process boundary as an exception — except a
    worker killed outright, which the parent turns into a retryable
    ``WorkerLost`` record.

    ``image_ref`` (a :class:`repro.eval.shm.ImageRef`) carries the
    parent's preloaded image; when absent or unreadable, the worker
    falls back to reading the candidate's path itself.
    """
    candidate, image_ref = job
    path = str(candidate.path)
    data = None
    if image_ref is not None:
        try:
            data = image_ref.fetch()
        except Exception:
            data = None
    try:
        outcome = analyze_binary(path, list(tool_names),
                                 timeout=timeout, max_size=max_size,
                                 data=data)
    except LadderReadError as exc:
        return {"failure": {"error_type": "LadderReadError",
                            "message": str(exc)}}
    except Exception as exc:  # pragma: no cover — ladder contract backstop
        return {"failure": {"error_type": type(exc).__name__,
                            "message": str(exc)}}
    return {"outcome": outcome.to_dict()}


def _capture_quarantined(store, candidate: Candidate, doc: dict,
                         policy: AdmissionPolicy) -> None:
    """Best-effort capture of a quarantined binary's bytes."""
    try:
        with open(candidate.path, "rb") as f:
            data = f.read(policy.max_size + 1)
    except OSError:
        return
    store.capture(data, FailureRecord(
        suite="scan",
        program=str(candidate.path),
        compiler="-",
        bits=0,
        pie=False,
        opt="-",
        tool="ladder",
        phase="analyze",
        error_type=doc.get("error_type") or "Quarantined",
        message=doc.get("error_message") or doc.get("status", ""),
    ))
