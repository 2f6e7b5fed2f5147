"""Per-cell fault isolation for evaluation sweeps.

One evaluation *cell* is a single (binary, tool) run. At corpus scale
(the paper's 8,136 binaries, or a production sweep over untrusted
inputs) a cell must be allowed to fail — crash, raise, or hang —
without taking the sweep down with it. This module provides the three
pieces the serial and parallel runners share:

- :class:`FailureRecord` — the structured account of one failed cell.
- :func:`deadline` — a wall-clock watchdog around one cell.
- :func:`run_cell` — bounded-retry execution of one cell body.

The watchdog uses ``SIGALRM``, which interrupts pure-Python loops (the
realistic hang mode for this code base). It only arms on the main
thread of a process; elsewhere it degrades to unenforced execution —
worker processes run cells on their main thread, so both the serial
runner and pool workers get real enforcement.
"""

from __future__ import annotations

import signal
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import CellTimeoutError, is_permanent_failure

#: Evaluation phases a cell can fail in.
PHASE_PARSE = "parse"
PHASE_DETECT = "detect"
PHASE_WORKER = "worker"


@dataclass(frozen=True)
class FailureRecord:
    """One failed (binary, tool) evaluation cell.

    Carries the same provenance fields as
    :class:`~repro.eval.runner.RunRecord` so ``EvalReport.filtered``
    treats successes and failures uniformly.
    """

    suite: str
    program: str
    compiler: str
    bits: int
    pie: bool
    opt: str
    tool: str
    phase: str               # PHASE_PARSE / PHASE_DETECT / PHASE_WORKER
    error_type: str
    message: str
    attempts: int = 1
    elapsed_seconds: float = 0.0
    #: Whether the requested wall-clock deadline was actually armed
    #: while this cell ran. ``False`` means the caller asked for a
    #: timeout from a context where ``SIGALRM`` cannot fire (off the
    #: main thread) — the cell ran unbounded.
    enforced: bool = True

    @property
    def is_timeout(self) -> bool:
        return self.error_type == CellTimeoutError.__name__


def watchdog_armable() -> bool:
    """Whether :func:`deadline` can arm ``SIGALRM`` *here*.

    True only on the main thread of a process on a platform with
    ``SIGALRM``. Callers that request timeouts from worker threads can
    check this to record ``enforced=False`` on their failure artifacts
    instead of silently running unbounded.
    """
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


_alarm_usable = watchdog_armable


@contextmanager
def deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CellTimeoutError` if the body outlives ``seconds``.

    ``None`` (or a non-positive value) disables enforcement. Running
    off the main thread, where ``SIGALRM`` cannot be armed, also
    disables it — but *loudly*: the ``isolation.watchdog_unarmed``
    counter is bumped on every such call and a warn-once line names
    the problem, so an operator who configured ``--timeout`` learns it
    is not being enforced.

    Deadlines compose: arming a nested deadline suspends any outer
    ``ITIMER_REAL`` budget and, on exit, re-arms the outer timer with
    its *remaining* time (the inner body's elapsed wall clock is
    charged against it). An outer budget that expired while the inner
    one was armed fires immediately after the inner scope exits.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if not watchdog_armable():
        from repro.obs.log import warn_once

        warn_once(
            "isolation.watchdog_unarmed",
            f"a {seconds:g}s cell deadline was requested off the main "
            f"thread, where SIGALRM cannot be armed — the timeout is "
            f"NOT enforced (run analyses in a supervised worker "
            f"process to enforce it)")
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeoutError(
            f"evaluation cell exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, _outer_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay > 0.0:
            # Restore the outer watchdog's remainder; an already-blown
            # outer budget is re-armed with an epsilon so it fires as
            # soon as the outer handler is back in place.
            remaining = outer_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6))


def run_cell(
    body: Callable[[], object],
    *,
    timeout: float | None = None,
    retries: int = 0,
) -> tuple[object | None, BaseException | None, int, float]:
    """Execute one cell body with watchdog and taxonomy-aware retry.

    Returns ``(result, error, attempts, elapsed_seconds)``. ``error``
    is ``None`` on success; otherwise it is the exception of the final
    attempt. Retry is gated by the :mod:`repro.errors` taxonomy:

    - **Timeouts** are never retried — a deterministic pipeline that
      blew its budget once will blow it again.
    - **Permanent** failures (:func:`~repro.errors.is_permanent_failure`:
      structural input corruption such as
      :class:`~repro.errors.MalformedELFError`, or an RSS-ceiling
      ``MemoryError``) fail fast on the first attempt instead of
      burning the retry budget on a deterministic rejection.
    - **Transient** failures (I/O errors, injected transient faults,
      and — conservatively — any undocumented exception) are retried
      up to ``retries`` extra times.
    """
    started = time.perf_counter()
    error: BaseException | None = None
    attempts = 0
    for _ in range(max(0, retries) + 1):
        attempts += 1
        try:
            with deadline(timeout):
                result = body()
            return result, None, attempts, time.perf_counter() - started
        except CellTimeoutError as exc:
            error = exc
            break
        except Exception as exc:
            error = exc
            if is_permanent_failure(exc):
                break
    return None, error, attempts, time.perf_counter() - started
