"""Job lifecycle for the analysis service: dedup, queue, journal, resume.

The manager composes three existing substrates rather than inventing
new ones:

- **identity** — submissions are content-addressed: the job id is a
  digest of ``(tenant, image sha256, tool set)``, so resubmitting the
  same binary returns the same job (and performs zero additional
  analysis), and a restarted server recomputes identical ids from its
  journal.
- **durability** — the run directory is a
  :class:`~repro.eval.journal.RunDirectory`, like evaluate's and
  scan's. Every accepted submission writes the image to a
  content-addressed blob file and appends a ``job-submitted`` line;
  completion appends ``job-completed`` with the full analysis and
  receipt. A SIGKILL at any point loses at most a torn tail: completed
  work is served from the journal after restart, accepted but
  unfinished work is re-enqueued.
- **analysis** — jobs execute through
  :func:`repro.eval.analyze.analyze_image` on an injected
  ``concurrent.futures`` executor, reading per-tenant
  :func:`~repro.cache.disk.namespaced_cache` namespaces. Warm
  submissions (all requested artifacts cached) complete synchronously
  at submit time without touching the executor.

Batches additionally stage their images in one shared-memory arena
(:mod:`repro.eval.shm`) so executor workers slice a mapped segment
instead of re-reading blobs; the arena is destroyed when the batch
drains (and by the creator-side atexit guard on abnormal exit).

Execution isolation (``isolation="process"``) swaps the thread pool
for a :class:`~repro.eval.supervisor.SupervisedExecutor`: jobs run
in supervised child processes where the ``SIGALRM`` deadline and
``RLIMIT_AS`` ceiling actually arm, and a job that kills or wedges its
worker is retried on a fresh worker until ``poison_threshold`` losses,
at which point it is failed permanently, its bytes quarantined, and a
``job-poisoned`` journal record written so a restart does not
re-enqueue it. The manager also runs a health state machine
(healthy / degraded / draining): ENOSPC from the blob store or journal
flips it into *degraded* read-only mode — reads keep working, write
admission raises :class:`~repro.errors.ServiceUnavailableError`
(HTTP 503 + Retry-After), and the first POST after ``probe_interval``
acts as the recovery probe.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import hashlib
import os
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro import faults, obs
from repro.baselines import ALL_DETECTORS
from repro.cache.disk import (
    DiskCache,
    default_cache,
    namespaced_cache,
    valid_namespace,
)
from repro.errors import (
    JournalWriteError,
    QueueFullError,
    ServiceUnavailableError,
    WorkerLostError,
    is_permanent_failure,
)
from repro.eval import shm
from repro.eval.analyze import (
    ImageAnalysis,
    analyze_image,
    content_digest,
    warm_lookup,
)
from repro.eval.journal import JournalFold, RunDirectory, write_atomic
from repro.eval.quarantine import QuarantineStore
from repro.eval.supervisor import (
    DEFAULT_BACKSTOP,
    REASON_SHUTDOWN,
    SupervisedExecutor,
)
from repro.obs import log
from repro.service.receipts import build_receipt

SERVICE_MANIFEST_SCHEMA = "service-manifest/v1"
BLOBS_DIR = "blobs"
QUARANTINE_DIR = "quarantine"

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Manager health states surfaced through ``/v1/healthz``.
HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded"
HEALTH_DRAINING = "draining"

DEFAULT_TENANT = "default"

#: Worker losses before a job is failed permanently and quarantined.
DEFAULT_POISON_THRESHOLD = 3

#: Seconds between degraded-mode recovery probes (the first write
#: admitted after this interval attempts real durable writes).
DEFAULT_PROBE_INTERVAL = 30.0


def execute_payload(payload: dict) -> ImageAnalysis:
    """Run one job body from a plain-data payload.

    Module-level and pickle-clean on purpose: this is the function a
    :class:`~repro.eval.supervisor.SupervisedExecutor` ships to its
    worker subprocesses (thread executors call it too, so both
    isolation modes execute identical code). The payload carries either
    a shared-memory ``ref`` or a blob ``path``, plus the job's cache —
    ``cache`` (a live :class:`DiskCache`, thread mode only) or the
    ``cache_root`` directory, attached once per worker process. Without
    either the job runs uncached.
    """
    faults.hit(faults.SITE_BLOB_READ)
    ref = payload.get("ref")
    if ref is not None:
        data = ref.fetch()
    else:
        data = Path(payload["blob"]).read_bytes()
    cache = payload.get("cache")
    cache_root = payload.get("cache_root")
    if cache is None and cache_root is not None:
        cache = _process_cache(cache_root)
    return analyze_image(
        data,
        payload["tools"],
        cache=cache,
        timeout=payload.get("timeout"),
        retries=payload.get("retries", 0),
    )


@functools.lru_cache(maxsize=256)
def _process_cache(root: str) -> DiskCache:
    """This process's handle on one cache root: a worker pays the
    eviction census (stale-tmp sweep + namespace glob) once per tenant,
    not once per job."""
    return DiskCache(Path(root))


def _is_enospc(error: BaseException) -> bool:
    """Whether an exception (or its cause chain) is a disk-full OSError."""
    seen = 0
    exc: BaseException | None = error
    while exc is not None and seen < 5:
        if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
            return True
        exc = exc.__cause__ or exc.__context__
        seen += 1
    return False


def job_identity(tenant: str, sha256: str, tools: tuple[str, ...]) -> str:
    """Deterministic job id: same submission, same id — across restarts."""
    h = hashlib.sha256()
    h.update(tenant.encode())
    h.update(b"\x00")
    h.update(sha256.encode())
    h.update(b"\x00")
    h.update(",".join(tools).encode())
    return h.hexdigest()[:32]


@dataclass
class Job:
    """One submission's full lifecycle state."""

    job_id: str
    tenant: str
    sha256: str
    size_bytes: int
    tools: tuple[str, ...]
    submitted_at: float
    status: str = JOB_QUEUED
    analysis: ImageAnalysis | None = None
    receipt: dict | None = None
    completed_at: float | None = None
    #: Re-enqueued (or about to be) by a restarted server.
    resumed: bool = False
    error: str | None = None
    batch_id: str | None = None
    #: Times this job's supervised worker was lost (killed/wedged).
    crashes: int = 0
    #: Permanently failed after ``poison_threshold`` worker losses.
    poisoned: bool = False
    #: Quarantine entry directory holding the poisoned input, if any.
    quarantined: str | None = None

    def doc(self) -> dict:
        """The status document served by ``GET /v1/jobs/{id}``."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "tenant": self.tenant,
            "sha256": self.sha256,
            "size_bytes": self.size_bytes,
            "tools": list(self.tools),
            "submitted_at": self.submitted_at,
            "completed_at": self.completed_at,
            "resumed": self.resumed,
            "batch_id": self.batch_id,
            "error": self.error,
            "crashes": self.crashes,
            "poisoned": self.poisoned,
            "quarantined": self.quarantined,
        }


@dataclass
class Batch:
    """A ``POST /v1/batch`` fan-out: job ids plus the staging arena."""

    batch_id: str
    job_ids: list[str]
    created_at: float
    pending: int = 0
    arena: object | None = None

    def doc(self) -> dict:
        return {
            "batch_id": self.batch_id,
            "jobs": list(self.job_ids),
            "created_at": self.created_at,
            "pending": self.pending,
        }


class JobFold(JournalFold):
    """The serve journal folded per job id.

    A ``job-submitted`` line opens a job, which stays pending (and is
    re-enqueued by a restart) until a terminal line decides it. A
    terminal line decodes to the :class:`Job` fields it sets.
    """

    final_kinds = frozenset({"job-completed", "job-failed", "job-poisoned"})
    retryable_kinds = frozenset({"job-submitted"})
    opened = True

    def key(self, doc: dict) -> str:
        return doc["job"]

    def decode(self, doc: dict) -> Job | dict:
        kind = doc["kind"]
        if kind == "job-submitted":
            return Job(
                job_id=doc["job"],
                tenant=doc["tenant"],
                sha256=doc["sha256"],
                size_bytes=doc["size"],
                tools=tuple(doc["tools"]),
                submitted_at=doc["at"],
            )
        if kind == "job-completed":
            return {"status": JOB_DONE,
                    "analysis": ImageAnalysis.from_doc(doc["analysis"]),
                    "receipt": doc["receipt"],
                    "completed_at": doc["at"]}
        # Terminal failures: a restart must NOT re-enqueue these — that
        # is the whole point of journaling them (poison jobs would
        # otherwise kill workers forever).
        fields = {"status": JOB_FAILED, "error": doc.get("error"),
                  "completed_at": doc["at"]}
        if kind == "job-poisoned":
            fields.update(poisoned=True, crashes=doc.get("crashes", 0),
                          quarantined=doc.get("quarantine"))
        return fields


class JobJournal(RunDirectory):
    """Serve's run directory: manifest, job journal, blobs, quarantine."""

    manifest_schema = SERVICE_MANIFEST_SCHEMA
    fold_type = JobFold


class JobManager:
    """Owns the job table, the bounded queue, and the run directory.

    Created (and driven) on one event loop; analysis bodies run on the
    injected executor. ``executor`` accepts any
    ``concurrent.futures.Executor`` — the default is a small thread
    pool, tests inject deterministic single-thread executors.
    """

    def __init__(
        self,
        run_dir: str | os.PathLike,
        *,
        tools: list[str] | tuple[str, ...] | None = None,
        cache_root: str | os.PathLike | None = None,
        queue_size: int = 64,
        executor: Executor | None = None,
        executor_workers: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        isolation: str = "thread",
        backstop: float | None = DEFAULT_BACKSTOP,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        max_rss_mb: int | None = None,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        clock=time.time,
    ) -> None:
        if tools is None:
            tools = list(ALL_DETECTORS)
        unknown = [t for t in tools if t not in ALL_DETECTORS]
        if unknown:
            raise ValueError(
                f"unknown tools {unknown} "
                f"(known: {sorted(ALL_DETECTORS)})")
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"unknown isolation {isolation!r} "
                f"(pick 'thread' or 'process')")
        self.tools = tuple(tools)
        self.run_dir = Path(run_dir)
        self.cache_root = Path(cache_root) if cache_root else None
        self.queue_size = queue_size
        self.timeout = timeout
        self.retries = retries
        self.poison_threshold = max(1, poison_threshold)
        self.probe_interval = max(0.0, probe_interval)
        self.clock = clock
        self.started_at = clock()
        #: Health state machine: healthy → degraded (read-only, on
        #: ENOSPC) → healthy again after a successful probe; draining
        #: once :meth:`stop` begins.
        self.health = HEALTH_HEALTHY
        self.health_reason: str | None = None
        self._next_probe = 0.0

        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.blobs_dir = self.run_dir / BLOBS_DIR
        self.blobs_dir.mkdir(exist_ok=True)
        self.quarantine_dir = self.run_dir / QUARANTINE_DIR
        self._quarantine = QuarantineStore(self.quarantine_dir)
        self._journal = JobJournal(self.run_dir)
        #: Whether this manager resumed an existing run directory.
        self.resumed = self._journal.manifest_path.exists()
        if self.resumed:
            # Refuses a corrupt manifest or another run's.
            self._journal.manifest()
        else:
            from repro import __version__

            self._journal = JobJournal.create(self.run_dir, {
                "schema": SERVICE_MANIFEST_SCHEMA,
                "version": __version__,
                "created": clock(),
            })

        self._jobs: dict[str, Job] = {}
        self._batches: dict[str, Batch] = {}
        self._refs: dict[str, shm.ImageRef] = {}
        self._caches: dict[str, DiskCache] = {}
        self._queue: asyncio.Queue[str] = asyncio.Queue(maxsize=queue_size)
        self._own_executor = executor is None
        if executor is None:
            if isolation == "process":
                executor = SupervisedExecutor(
                    max_workers=max(1, executor_workers),
                    backstop=backstop,
                    max_rss_mb=max_rss_mb,
                )
            else:
                executor = ThreadPoolExecutor(
                    max_workers=executor_workers,
                    thread_name_prefix="repro-analyze",
                )
        #: The effective isolation mode (injected executors advertise
        #: process isolation via a ``process_isolated`` attribute).
        self.isolation = ("process"
                          if getattr(executor, "process_isolated", False)
                          else "thread")
        self._executor = executor
        self._worker_count = max(1, executor_workers)
        self._workers: list[asyncio.Task] = []
        self._pending_resume: list[str] = []
        self.stats = {
            "submitted": 0, "deduped": 0, "warm_served": 0,
            "completed": 0, "failed": 0, "restored": 0,
            "resumed_jobs": 0, "rejected_queue_full": 0,
            "poisoned": 0, "crash_retries": 0, "rejected_degraded": 0,
        }
        self._restore()

    # -- crash recovery ------------------------------------------------------

    def _restore(self) -> None:
        """Rebuild the job table from the journal (crash recovery)."""
        fold = self._journal.fold()
        if fold.corrupt_lines:
            obs.add("service.journal_corrupt_lines", fold.corrupt_lines)
        if fold.torn_tail:
            obs.add("service.journal_torn_tail", 1)
        for job_id, entry in fold.entries.items():
            job = self._jobs[job_id] = replace(entry.retryable,
                                               **(entry.final or {}))
            if entry.final is not None:
                self.stats["restored"] += 1
                continue
            job.resumed = True
            if not self._blob_path(job.sha256).is_file():
                job.status = JOB_FAILED
                job.error = ("image blob lost before the crash; "
                             "resubmit the binary")
                continue
            self._pending_resume.append(job.job_id)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks and re-enqueue journaled pending jobs."""
        for _ in range(self._worker_count):
            self._workers.append(asyncio.create_task(self._worker()))
        for job_id in self._pending_resume:
            self.stats["resumed_jobs"] += 1
            obs.add("service.jobs_resumed", 1)
            await self._queue.put(job_id)
        self._pending_resume = []

    async def stop(self) -> None:
        """Graceful shutdown: stop workers, keep the journal consistent.

        Running analyses are abandoned (their futures cancelled where
        possible) — by design their ``job-completed`` line was never
        written, so the next server on this run directory re-runs them.
        A supervised executor is shut down *first* so in-flight futures
        resolve (as shutdown losses) instead of leaving worker
        coroutines awaiting a child process that nobody will reap.
        """
        self.health = HEALTH_DRAINING
        self.health_reason = "shutting down"
        if self._own_executor and self.isolation == "process":
            self._executor.shutdown(wait=False, cancel_futures=True)
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        if self._own_executor:
            self._executor.shutdown(wait=False, cancel_futures=True)
        for batch in self._batches.values():
            if batch.arena is not None:
                batch.arena.destroy()
                batch.arena = None
        self._journal.close()

    # -- accessors -----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def get_batch(self, batch_id: str) -> Batch | None:
        return self._batches.get(batch_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def status_counts(self) -> dict[str, int]:
        counts = {JOB_QUEUED: 0, JOB_RUNNING: 0, JOB_DONE: 0, JOB_FAILED: 0}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def supervisor_stats(self) -> dict | None:
        """The executor's supervision counters, when it has any."""
        stats = getattr(self._executor, "stats", None)
        if not callable(stats):
            return None
        try:
            doc = stats()
        except Exception:
            return None
        return doc if isinstance(doc, dict) else None

    def quarantine_entries(self) -> list:
        """Captured poison inputs (see :mod:`repro.eval.quarantine`)."""
        return self._quarantine.entries()

    def cache_for(self, tenant: str) -> DiskCache | None:
        """The tenant's cache namespace; the process default cache
        (``$REPRO_CACHE_DIR``, if set) when there is no cache root."""
        if self.cache_root is None:
            return default_cache()
        cache = self._caches.get(tenant)
        if cache is None:
            cache = namespaced_cache(self.cache_root, tenant)
            self._caches[tenant] = cache
        return cache

    # -- submission ----------------------------------------------------------

    def _normalize_tools(
        self, tools: list[str] | tuple[str, ...] | None,
    ) -> tuple[str, ...]:
        if not tools:
            return self.tools
        unknown = [t for t in tools if t not in ALL_DETECTORS]
        if unknown:
            raise ValueError(
                f"unknown tools {unknown} "
                f"(known: {sorted(ALL_DETECTORS)})")
        return tuple(tools)

    def submit(
        self,
        data: bytes,
        *,
        tenant: str = DEFAULT_TENANT,
        tools: list[str] | tuple[str, ...] | None = None,
        batch_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Accept one binary; returns ``(job, created)``.

        Dedup happens before anything else: a job id already known —
        whatever its state — is returned as-is (``created=False``) and
        no bytes are written, no analysis scheduled. A novel submission
        is answered from the disk cache when warm (the job completes
        here, synchronously, without a parse); otherwise it is
        journaled, blobbed, and enqueued. A full queue raises
        :class:`~repro.errors.QueueFullError` *before* any durable
        side effect, and a degraded (read-only) manager raises
        :class:`~repro.errors.ServiceUnavailableError` the same way —
        dedup of already-known jobs keeps working in both cases.
        """
        if not valid_namespace(tenant):
            raise ValueError(f"invalid tenant {tenant!r}")
        tools = self._normalize_tools(tools)
        sha256 = content_digest(data)
        job_id = job_identity(tenant, sha256, tools)
        existing = self._jobs.get(job_id)
        if existing is not None:
            self.stats["deduped"] += 1
            obs.add("service.dedup_hits", 1)
            return existing, False
        self._admit_write()

        self.stats["submitted"] += 1
        obs.add("service.jobs_submitted", 1)
        job = Job(
            job_id=job_id, tenant=tenant, sha256=sha256,
            size_bytes=len(data), tools=tools,
            submitted_at=self.clock(), batch_id=batch_id,
        )

        cache = self.cache_for(tenant)
        warm = warm_lookup(sha256, len(data), tools, cache)
        if warm is not None:
            self.stats["warm_served"] += 1
            obs.add("service.warm_served", 1)
            self._durable_submit(job)
            self._jobs[job_id] = job
            self._finish(job, warm)
            return job, True

        if self._queue.full():
            self.stats["rejected_queue_full"] += 1
            obs.add("service.queue_rejections", 1)
            raise QueueFullError(
                f"job queue full ({self.queue_size} pending)",
                retry_after=max(1.0, (self.timeout or 1.0)))
        self._durable_submit(job, data=data)
        self._jobs[job_id] = job
        self._queue.put_nowait(job_id)
        return job, True

    def _admit_write(self) -> None:
        """Gate write traffic on manager health (read paths never gate).

        Draining always rejects. Degraded rejects until
        ``probe_interval`` has elapsed since degradation (or the last
        failed probe) — then the *next* write is admitted as the
        recovery probe: if its durable writes succeed the manager heals
        itself, if they fail the probe clock rearms.
        """
        if self.health == HEALTH_DRAINING:
            raise ServiceUnavailableError(
                "service is draining; submissions are closed",
                retry_after=5.0)
        if self.health != HEALTH_DEGRADED:
            return
        now = self.clock()
        if now < self._next_probe:
            self.stats["rejected_degraded"] += 1
            obs.add("service.degraded_rejections", 1)
            raise ServiceUnavailableError(
                f"service degraded ({self.health_reason}); read-only "
                f"until storage recovers",
                retry_after=max(1.0, self._next_probe - now))
        # This submission is the probe; push the next probe window out
        # so a failing probe does not open the floodgates.
        self._next_probe = now + max(1.0, self.probe_interval)

    def _durable_submit(self, job: Job, data: bytes | None = None) -> None:
        """Blob + journal a fresh submission; track storage health.

        Any failure of the durable writes fails the submission (the
        caller never sees a job it cannot trust to survive a restart);
        an ENOSPC flips the manager into degraded read-only mode, and a
        success while degraded recovers it.
        """
        try:
            if data is not None:
                self._write_blob(job.sha256, data)
            self._journal_submitted(job)
        except (OSError, JournalWriteError) as exc:
            self.stats["submitted"] -= 1
            if _is_enospc(exc):
                self._enter_degraded(f"storage full: {exc}")
                raise ServiceUnavailableError(
                    "storage full; service is read-only",
                    retry_after=max(1.0, self.probe_interval)) from exc
            raise
        if self.health == HEALTH_DEGRADED:
            self._exit_degraded()

    def _enter_degraded(self, reason: str) -> None:
        if self.health != HEALTH_HEALTHY:
            self.health_reason = reason
            return
        self.health = HEALTH_DEGRADED
        self.health_reason = reason
        self._next_probe = self.clock() + max(1.0, self.probe_interval)
        obs.add("service.degraded_entries", 1)
        log.warn("service.degraded_log",
                 f"service degraded to read-only: {reason}")

    def _exit_degraded(self) -> None:
        self.health = HEALTH_HEALTHY
        reason, self.health_reason = self.health_reason, None
        obs.add("service.degraded_recoveries", 1)
        log.warn("service.recovered_log",
                 f"service recovered from degraded state ({reason})")

    def submit_batch(
        self,
        items: list[bytes],
        *,
        tenant: str = DEFAULT_TENANT,
        tools: list[str] | tuple[str, ...] | None = None,
    ) -> tuple[Batch, list[Job]]:
        """Fan a list of binaries into the job machinery as one batch.

        Capacity is checked up front (all-or-nothing): a batch that
        would overflow the queue is rejected whole, so callers never
        see half-accepted batches. Freshly-queued images are staged in
        one shared-memory arena for zero-copy executor reads; the arena
        dies with the batch.
        """
        tools = self._normalize_tools(tools)
        if len(items) > self.queue_size - self._queue.qsize():
            self.stats["rejected_queue_full"] += 1
            obs.add("service.queue_rejections", 1)
            raise QueueFullError(
                f"batch of {len(items)} exceeds remaining queue "
                f"capacity", retry_after=max(1.0, (self.timeout or 1.0)))
        batch_id = hashlib.sha256(
            b"\x00".join(content_digest(d).encode() for d in items)
            + f"\x00{tenant}\x00{','.join(tools)}".encode()
        ).hexdigest()[:16]
        batch = Batch(batch_id=batch_id, job_ids=[],
                      created_at=self.clock())
        jobs: list[Job] = []
        fresh: list[Job] = []
        fresh_images: list[bytes] = []
        for data in items:
            job, created = self.submit(
                data, tenant=tenant, tools=tools, batch_id=batch_id)
            jobs.append(job)
            batch.job_ids.append(job.job_id)
            if created and job.status == JOB_QUEUED:
                fresh.append(job)
                fresh_images.append(data)
        if fresh and shm.available():
            arena, refs = shm.share_images(fresh_images)
            batch.arena = arena
            batch.pending = len(fresh)
            for job, ref in zip(fresh, refs):
                self._refs[job.job_id] = ref
        self._batches[batch_id] = batch
        obs.add("service.batches", 1)
        return batch, jobs

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job_id = await self._queue.get()
            job = self._jobs.get(job_id)
            if job is None or job.status not in (JOB_QUEUED,):
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        """Drive one job to a terminal state, surviving worker losses.

        A lost worker (crash, blown deadline, wedge) is retried
        *inline* on the freshly respawned worker — re-enqueueing would
        deadlock this very consumer on a full queue — until the job
        accumulates ``poison_threshold`` losses and is poisoned.
        """
        job.status = JOB_RUNNING
        while True:
            try:
                analysis = await self._dispatch(job)
            except asyncio.CancelledError:
                # Graceful shutdown mid-job: back to queued so the
                # status endpoint tells the truth; the journal already
                # guarantees a restart re-runs it.
                job.status = JOB_QUEUED
                raise
            except WorkerLostError as exc:
                if (exc.reason == REASON_SHUTDOWN
                        or self.health == HEALTH_DRAINING):
                    job.status = JOB_QUEUED
                    return
                job.crashes += 1
                if job.crashes >= self.poison_threshold:
                    self._poison(job, exc)
                    return
                self.stats["crash_retries"] += 1
                obs.add("service.crash_retries", 1)
                log.warn(
                    "service.crash_retry_log",
                    f"job {job.job_id} lost its worker "
                    f"({exc.reason}, loss {job.crashes}/"
                    f"{self.poison_threshold}); retrying on a fresh "
                    f"worker")
                continue
            except Exception as exc:
                self._fail(job, exc)
                return
            else:
                self._finish(job, analysis)
                return

    def _budget(self, job: Job) -> float | None:
        """Worst-case wall clock for one job, for the supervisor.

        Each of the parse cell and per-tool detect cells may burn the
        full per-cell timeout across all retry attempts; the supervisor
        adds its own ``backstop`` grace on top of this.
        """
        if self.timeout is None or self.timeout <= 0:
            return None
        cells = len(job.tools) + 1
        return self.timeout * (self.retries + 1) * cells

    async def _dispatch(self, job: Job) -> ImageAnalysis:
        """Ship one job body to the executor and await the result."""
        payload: dict = {
            "tools": job.tools,
            "timeout": self.timeout,
            "retries": self.retries,
        }
        ref = self._refs.get(job.job_id)
        if ref is not None:
            payload["ref"] = ref
        else:
            payload["blob"] = str(self._blob_path(job.sha256))
        cache = self.cache_for(job.tenant)
        if self.isolation == "process":
            # Workers attach the tenant's cache directory in their own
            # process; a live DiskCache handle is not shipped.
            if cache is not None:
                payload["cache_root"] = str(cache.root)
            future = self._executor.submit_task(
                execute_payload, payload, budget=self._budget(job))
        else:
            payload["cache"] = cache
            future = self._executor.submit(execute_payload, payload)
        return await asyncio.wrap_future(future)

    def _finish(self, job: Job, analysis: ImageAnalysis) -> None:
        job.analysis = analysis
        job.receipt = build_receipt(job, analysis, resumed=job.resumed,
                                    clock=self.clock)
        job.completed_at = self.clock()
        job.status = JOB_DONE
        job.error = None
        self.stats["completed"] += 1
        obs.add("service.jobs_completed", 1)
        self._journal_terminal("job-completed", job,
                               analysis=analysis.to_doc(),
                               receipt=job.receipt)
        self._release_batch(job)

    def _fail(self, job: Job, error: BaseException) -> None:
        job.status = JOB_FAILED
        job.error = f"{type(error).__name__}: {error}"
        job.completed_at = self.clock()
        self.stats["failed"] += 1
        obs.add("service.jobs_failed", 1)
        # Permanent taxonomy kinds are journaled terminal so a restart
        # does not re-run a job that can only fail the same way again;
        # transient failures stay un-journaled (retry on resume).
        if is_permanent_failure(error):
            self._journal_terminal("job-failed", job, error=job.error,
                                   error_type=type(error).__name__)
        self._release_batch(job)

    def _poison(self, job: Job, error: BaseException) -> None:
        """Permanently fail a job that kept killing its workers.

        The input bytes are quarantined for offline replay and a
        ``job-poisoned`` journal line makes the verdict durable — a
        restarted server must never feed this input to a worker again.
        """
        job.status = JOB_FAILED
        job.poisoned = True
        job.error = (f"poisoned after {job.crashes} worker losses "
                     f"({type(error).__name__}: {error})")
        job.completed_at = self.clock()
        self.stats["poisoned"] += 1
        self.stats["failed"] += 1
        obs.add("service.jobs_poisoned", 1)
        obs.add("service.jobs_failed", 1)
        data: bytes | None = None
        ref = self._refs.get(job.job_id)
        try:
            if ref is not None:
                data = ref.fetch()
            else:
                data = self._blob_path(job.sha256).read_bytes()
        except OSError:
            data = None
        if data is not None:
            entry = self._quarantine.capture_job(
                data, job_id=job.job_id, tenant=job.tenant,
                tools=job.tools, error=error, attempts=job.crashes)
            if entry is not None:
                job.quarantined = str(entry)
        self._journal_terminal(
            "job-poisoned", job, error=job.error,
            error_type=type(error).__name__, crashes=job.crashes,
            quarantine=job.quarantined)
        log.warn("service.poisoned_log",
                 f"job {job.job_id} poisoned after {job.crashes} worker "
                 f"losses; input quarantined at "
                 f"{job.quarantined or '<not captured>'}")
        self._release_batch(job)

    def _journal_terminal(self, kind: str, job: Job, **fields) -> None:
        """Journal a job's terminal line.

        A failed write leaves the result standing in memory: only
        restart durability is degraded, so it is surfaced, not raised.
        """
        try:
            self._journal.append({"kind": kind, "job": job.job_id,
                                  **fields, "at": job.completed_at})
        except JournalWriteError as exc:
            log.warn("service.journal_write_errors",
                     f"job {job.job_id} terminal {kind!r} record not "
                     f"journaled: {exc}")
            if _is_enospc(exc):
                self._enter_degraded(f"storage full: {exc}")

    def _release_batch(self, job: Job) -> None:
        self._refs.pop(job.job_id, None)
        if job.batch_id is None:
            return
        batch = self._batches.get(job.batch_id)
        if batch is None or batch.arena is None:
            return
        batch.pending -= 1
        if batch.pending <= 0:
            batch.arena.destroy()
            batch.arena = None

    # -- durability ----------------------------------------------------------

    def _blob_path(self, sha256: str) -> Path:
        return self.blobs_dir / f"{sha256}.bin"

    def _write_blob(self, sha256: str, data: bytes) -> None:
        path = self._blob_path(sha256)
        if not path.is_file():
            write_atomic(path, data)

    def _journal_submitted(self, job: Job) -> None:
        self._journal.append({
            "kind": "job-submitted",
            "job": job.job_id,
            "tenant": job.tenant,
            "sha256": job.sha256,
            "size": job.size_bytes,
            "tools": list(job.tools),
            "at": job.submitted_at,
        })
