"""Supervised worker-subprocess pool: the one process pool.

``evaluate --workers N``, ``scan`` and the analysis service's job
bodies all run untrusted binaries through the analysis pipeline on
this executor. It makes the isolation guarantees real:

- each worker is a **child process**; tasks run on the child's *main*
  thread, so :func:`repro.eval.isolation.deadline` arms for real, and
  an optional ``RLIMIT_AS`` ceiling turns runaway allocations into an
  in-band :class:`MemoryError`;
- each worker slot is driven by a **supervisor thread** in the parent
  that sees a dead child at once (pipe EOF or ``is_alive()``) and
  enforces a wall-clock **backstop** per task (budget + grace) and a
  **heartbeat** (a frozen or SIGSTOPped child stops beating), killing
  and respawning the worker when either trips;
- a lost worker fails the in-flight task with
  :class:`~repro.errors.WorkerLostError` — *transient* by taxonomy:
  the service retries the job on the fresh worker and escalates to
  poison-quarantine after repeated losses, the batch pipelines turn it
  into a retryable ``WorkerLost`` record;
- respawns after consecutive crashes back off exponentially
  (**crash-loop backoff**), so a poisoned queue cannot turn the parent
  into a fork bomb.

The pool is a ``concurrent.futures.Executor``: it drops into
``JobManager(executor=...)`` unchanged. :meth:`SupervisedExecutor.submit_task`
carries a per-task wall-clock *budget* so the backstop tracks the job's
real deadline instead of a single global worst case, and
:meth:`SupervisedExecutor.imap_unordered` streams a lazily pulled job
iterator through a bounded window — the batch pipelines' driver.

Task callables and their arguments must be picklable (module-level
functions, plain-data payloads) — the same contract as any
``multiprocessing`` pool.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import queue
import stat
import threading
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from dataclasses import dataclass

from repro import faults, obs
from repro.errors import WorkerLostError
from repro.obs.log import warn

#: ``WorkerLostError.reason`` values this pool produces.
REASON_CRASH = "crash"
REASON_DEADLINE = "deadline"
REASON_UNRESPONSIVE = "unresponsive"
REASON_SHUTDOWN = "shutdown"

#: Default grace (seconds) beyond a task's declared budget before the
#: supervisor declares the worker wedged and SIGKILLs it. For tasks
#: with no budget the backstop alone is the ceiling.
DEFAULT_BACKSTOP = 30.0

#: Child → parent heartbeat cadence and the silence that counts as a
#: frozen worker. Heartbeats come from a daemon thread in the child, so
#: they keep flowing while the main thread computes (the GIL switches);
#: only a truly stopped process — SIGSTOP, a C-level hang holding the
#: GIL, scheduler starvation — goes silent.
DEFAULT_HEARTBEAT_INTERVAL = 1.0
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

#: Crash-loop backoff: ``base * 2**(consecutive-1)`` capped at ``max``.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_MAX = 30.0

#: Supervisor poll tick (seconds) while waiting on a worker reply.
_POLL_TICK = 0.05

#: Seconds to wait for a SIGKILLed child to be reaped.
_REAP_TIMEOUT = 5.0

_STOP = object()


@dataclass
class _Task:
    fn: object
    args: tuple
    kwargs: dict
    future: Future
    #: Wall-clock seconds the task is *expected* to need (the job's
    #: timeout budget); ``None`` means unknown.
    budget: float | None = None


def _drain_counters() -> dict[str, float]:
    recorder = obs.recorder()
    drain = getattr(recorder, "drain", None)
    if drain is None:
        return {}
    try:
        return dict(drain().get("counters", {}))
    except Exception:  # noqa: BLE001 — counters are never fatal
        return {}


def _apply_rss_limit(max_rss_mb: int) -> None:
    """Best-effort address-space ceiling for the current process."""
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX
        return
    limit = int(max_rss_mb) * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover — platform quirk
        pass


def _release_inherited_sockets(keep: int) -> None:
    """Drop every socket a forked worker inherited except ``keep``: a
    client connection held open here would never reach EOF. Each one
    is pointed at ``/dev/null`` rather than closed, so a copied socket
    object can never close an unrelated file that reused its number."""
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # no per-process descriptor listing on this host
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if fd not in (keep, devnull) \
                    and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:  # the listing's own descriptor, closed since
            pass
    os.close(devnull)


def _worker_main(conn, max_rss_mb: int | None,
                 heartbeat_interval: float) -> None:
    """Child-process loop: recv task, run it on the main thread, reply.

    Replies are ``(kind, payload, counters)`` tuples: ``"hb"`` for a
    heartbeat, ``"ok"`` with the result, ``"err"`` with the exception.
    ``counters`` ships the child's obs counters back to the parent so
    ``/v1/metrics`` aggregates pipeline counters across workers.
    """
    _release_inherited_sockets(conn.fileno())
    obs.set_recorder(obs.CounterRecorder())
    # Fault-plan ordinals are counted per process; a fresh worker
    # starts at zero so plans stay reproducible across respawns.
    faults.reset_counts()
    if max_rss_mb is not None:
        _apply_rss_limit(max_rss_mb)

    # ``Connection.send`` is not thread-safe; the heartbeat thread and
    # the task loop share one lock.
    send_lock = threading.Lock()
    stop = threading.Event()

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("hb", None, None))
            except (OSError, ValueError, BrokenPipeError):
                return

    if heartbeat_interval and heartbeat_interval > 0:
        threading.Thread(target=_heartbeat, daemon=True,
                         name="repro-heartbeat").start()

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            fn, args, kwargs = msg
            try:
                result = fn(*args, **kwargs)
                reply = ("ok", result, _drain_counters())
            except BaseException as exc:  # noqa: BLE001 — shipped back
                reply = ("err", exc, _drain_counters())
            try:
                with send_lock:
                    conn.send(reply)
            except (OSError, BrokenPipeError):
                break
            except (ValueError, TypeError, AttributeError) as exc:
                # The result/exception did not pickle; degrade to a
                # string error so the parent still gets an answer.
                fallback = ("err",
                            RuntimeError(f"unpicklable worker reply: "
                                         f"{type(exc).__name__}: {exc}"),
                            {})
                try:
                    with send_lock:
                        conn.send(fallback)
                except (OSError, ValueError, BrokenPipeError):
                    break
    finally:
        stop.set()


class _WorkerSlot:
    """One supervised worker: a child process plus its parent-side thread."""

    def __init__(self, pool: "SupervisedExecutor", index: int) -> None:
        self._pool = pool
        self.index = index
        self._proc = None
        self._conn = None
        self.consecutive_losses = 0
        self.thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"repro-supervisor-{index}")
        self.thread.start()

    # -- supervisor loop -----------------------------------------------------

    def _run(self) -> None:
        while True:
            task = self._pool._tasks.get()
            if task is _STOP:
                break
            if not task.future.set_running_or_notify_cancel():
                continue
            try:
                self._run_task(task)
            except BaseException as exc:  # noqa: BLE001 — never die silent
                if not task.future.done():
                    task.future.set_exception(exc)
        self._kill_worker()

    def _run_task(self, task: _Task) -> None:
        try:
            self._ensure_worker()
        except Exception as exc:  # noqa: BLE001 — spawn failed
            if self._pool._shutdown.is_set():
                task.future.set_exception(WorkerLostError(
                    f"worker {self.index} not spawned: pool shutdown",
                    reason=REASON_SHUTDOWN))
                return
            self._record_loss(REASON_CRASH)
            task.future.set_exception(WorkerLostError(
                f"worker {self.index} could not be spawned: {exc}",
                reason=REASON_CRASH))
            return
        try:
            self._conn.send((task.fn, task.args, task.kwargs))
        except (OSError, ValueError, BrokenPipeError) as exc:
            self._kill_worker()
            self._record_loss(REASON_CRASH)
            task.future.set_exception(WorkerLostError(
                f"dispatch to worker {self.index} failed: {exc}",
                reason=REASON_CRASH))
            return

        pool = self._pool
        started = time.monotonic()
        deadline = None
        if pool.backstop is not None:
            deadline = started + (task.budget or 0.0) + pool.backstop
        last_beat = started

        while True:
            try:
                ready = self._conn.poll(_POLL_TICK)
            except (OSError, ValueError):
                self._lose_task(task, REASON_CRASH, started)
                return
            if ready:
                try:
                    kind, payload, counters = self._conn.recv()
                except (EOFError, OSError):
                    self._lose_task(task, REASON_CRASH, started)
                    return
                last_beat = time.monotonic()
                if kind == "hb":
                    continue
                if counters:
                    for name, value in counters.items():
                        obs.add(name, value)
                self.consecutive_losses = 0
                if kind == "ok":
                    pool._bump("tasks_completed")
                    task.future.set_result(payload)
                else:
                    pool._bump("tasks_raised")
                    error = (payload if isinstance(payload, BaseException)
                             else RuntimeError(str(payload)))
                    task.future.set_exception(error)
                return

            now = time.monotonic()
            if pool._shutdown.is_set():
                self._kill_worker()
                task.future.set_exception(WorkerLostError(
                    f"worker {self.index} torn down mid-task "
                    f"(pool shutdown)", reason=REASON_SHUTDOWN))
                return
            if self._proc is not None and not self._proc.is_alive():
                # Child died without an EOF reaching us yet.
                self._lose_task(task, REASON_CRASH, started)
                return
            if deadline is not None and now > deadline:
                pool._bump("backstop_kills")
                self._lose_task(task, REASON_DEADLINE, started)
                return
            if (pool.heartbeat_timeout is not None
                    and now - last_beat > pool.heartbeat_timeout):
                pool._bump("unresponsive_kills")
                self._lose_task(task, REASON_UNRESPONSIVE, started)
                return

    def _lose_task(self, task: _Task, reason: str, started: float) -> None:
        proc = self._proc
        exitcode = None
        if proc is not None:
            # A freshly-dead child has no exitcode until it is reaped.
            proc.join(timeout=0.2)
            exitcode = proc.exitcode
        self._kill_worker()
        self._record_loss(reason)
        elapsed = time.monotonic() - started
        task.future.set_exception(WorkerLostError(
            f"worker {self.index} lost after {elapsed:.1f}s "
            f"(reason: {reason}, exitcode: {exitcode})",
            reason=reason, exitcode=exitcode))

    # -- worker lifecycle ----------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._kill_worker()
        pool = self._pool
        if self.consecutive_losses > 0:
            delay = min(
                pool.backoff_base * 2.0 ** (self.consecutive_losses - 1),
                pool.backoff_max)
            if delay > 0:
                pool._bump("backoff_seconds", delay)
                obs.add("supervisor.backoff_seconds", delay)
                # Interruptible: shutdown must not wait out the backoff.
                pool._shutdown.wait(delay)
        if pool._shutdown.is_set():
            raise RuntimeError("pool is shut down")
        parent_conn, child_conn = pool._ctx.Pipe(duplex=True)
        proc = pool._ctx.Process(
            target=_worker_main,
            args=(child_conn, pool.max_rss_mb, pool.heartbeat_interval),
            daemon=True,
            name=f"repro-worker-{self.index}",
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn
        pool._bump("spawns")
        if self.consecutive_losses > 0:
            pool._bump("respawns")
        obs.add("supervisor.worker_spawns", 1)

    def _kill_worker(self) -> None:
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(_REAP_TIMEOUT)

    def _record_loss(self, reason: str) -> None:
        self.consecutive_losses += 1
        self._pool._bump("losses")
        obs.add("supervisor.worker_losses", 1)
        obs.add(f"supervisor.worker_losses.{reason}", 1)
        warn("supervisor.worker_lost_log",
             f"supervised worker {self.index} lost (reason: {reason}, "
             f"consecutive: {self.consecutive_losses}); respawning with "
             f"backoff")


class SupervisedExecutor(Executor):
    """A ``concurrent.futures`` pool of supervised worker subprocesses.

    Parameters
    ----------
    max_workers:
        Worker slots (child processes), each driven by one parent-side
        supervisor thread.
    backstop:
        Grace seconds beyond a task's declared budget before the worker
        is declared wedged and killed; the whole ceiling for tasks with
        no budget. ``None`` disables deadline enforcement entirely.
    heartbeat_interval / heartbeat_timeout:
        Child heartbeat cadence, and the silence that counts as a
        frozen worker (``None`` or a non-positive interval disables
        heartbeat supervision).
    backoff_base / backoff_max:
        Crash-loop respawn backoff: ``base * 2**(n-1)`` seconds after
        the *n*-th consecutive loss, capped at ``max``.
    max_rss_mb:
        Per-worker ``RLIMIT_AS`` ceiling (runaway allocations become
        ``MemoryError`` inside the worker — a *permanent* failure).
    mp_context:
        ``multiprocessing`` context; defaults to ``fork`` where
        available (workers inherit the loaded pipeline for free).
    """

    #: Duck-typing marker the job manager checks instead of isinstance.
    process_isolated = True

    def __init__(
        self,
        max_workers: int = 2,
        *,
        backstop: float | None = DEFAULT_BACKSTOP,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        max_rss_mb: int | None = None,
        mp_context=None,
    ) -> None:
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        self._ctx = mp_context
        self.backstop = backstop
        self.heartbeat_interval = heartbeat_interval
        if heartbeat_interval is None or heartbeat_interval <= 0:
            heartbeat_timeout = None
        self.heartbeat_timeout = heartbeat_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_rss_mb = max_rss_mb
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._shutdown = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats: dict[str, float] = collections.defaultdict(float)
        self._slots = [
            _WorkerSlot(self, i) for i in range(max(1, max_workers))
        ]

    # -- submission ----------------------------------------------------------

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self.submit_task(fn, *args, **kwargs)

    def submit_task(self, fn, /, *args,
                    budget: float | None = None, **kwargs) -> Future:
        """Like :meth:`submit`, with a per-task wall-clock budget.

        The supervisor's kill deadline for this task is
        ``budget + backstop`` (just ``backstop`` when no budget is
        declared).
        """
        if self._shutdown.is_set():
            raise RuntimeError("cannot submit to a shut-down "
                               "SupervisedExecutor")
        future: Future = Future()
        self._tasks.put(_Task(fn, args, kwargs, future, budget))
        return future

    def imap_unordered(self, fn, jobs: Iterable, /, *args,
                       budget: float | None = None
                       ) -> Iterator[tuple[object, Future]]:
        """Run ``fn(job, *args)`` for each job; yield ``(job, future)``
        in completion order.

        ``jobs`` is pulled lazily and at most ``2 * slots + 2`` tasks
        are outstanding, so a streaming job source (a directory walk)
        only advances as workers free up and parent memory stays
        bounded by the window. Every task carries the same ``budget``.
        A yielded future is done: its ``result()`` returns the task's
        value or raises (``WorkerLostError`` for a lost worker). Tasks
        not yet started when the caller stops iterating are cancelled.
        """
        window = 2 * len(self._slots) + 2
        job_iter = iter(jobs)
        pending: dict[Future, object] = {}
        try:
            while True:
                for job in itertools.islice(job_iter,
                                            window - len(pending)):
                    future = self.submit_task(fn, job, *args, budget=budget)
                    pending[future] = job
                if not pending:
                    return
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield pending.pop(future), future
        finally:
            for future in pending:
                future.cancel()

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        """Idempotent teardown: kill children, stop supervisor threads.

        In-flight tasks fail with ``WorkerLostError(reason="shutdown")``
        (the service journals its jobs at submit, so the next server on
        the run directory re-runs them).
        """
        self._shutdown.set()
        if cancel_futures:
            while True:
                try:
                    task = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if task is not _STOP:
                    task.future.cancel()
        for _ in self._slots:
            self._tasks.put(_STOP)
        if wait:
            for slot in self._slots:
                slot.thread.join(timeout=_REAP_TIMEOUT + 5.0)
        for slot in self._slots:
            slot._kill_worker()

    # -- introspection -------------------------------------------------------

    def _bump(self, name: str, value: float = 1) -> None:
        with self._stats_lock:
            self._stats[name] += value

    def stats(self) -> dict:
        """Pool counters plus live worker census (for ``/v1/metrics``)."""
        with self._stats_lock:
            doc = {
                "workers": len(self._slots),
                "workers_alive": sum(
                    1 for s in self._slots
                    if s._proc is not None and s._proc.is_alive()),
                "spawns": 0, "respawns": 0, "losses": 0,
                "backstop_kills": 0, "unresponsive_kills": 0,
                "tasks_completed": 0, "tasks_raised": 0,
                "backoff_seconds": 0.0,
            }
            doc.update(self._stats)
        return doc
