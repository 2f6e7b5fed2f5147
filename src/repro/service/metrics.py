"""Introspection documents: ``/v1/healthz`` and ``/v1/metrics``.

The metrics endpoint is backed by :mod:`repro.obs` — the serve CLI
installs a :class:`~repro.obs.recorder.CounterRecorder`, so every
counter the analysis pipeline already emits (cache hits, decode stats,
``service.*`` events) shows up here without any dedicated
plumbing, and without the unbounded span growth a ``TraceRecorder``
would suffer on a long-lived process. Gauges that are cheap to read
live (queue depth, job states) come straight from the manager.
"""

from __future__ import annotations

import time

from repro import __version__, obs
from repro.service.jobs import JobManager


def health_doc(manager: JobManager, started_at: float) -> dict:
    """The liveness document: identity plus a coarse job census.

    ``status`` stays ``"ok"`` whenever the process is serving at all
    (liveness); the manager's health state machine is surfaced
    separately as ``health``/``health_reason`` so probes can
    distinguish "up but read-only" from "up and writable".
    """
    return {
        "status": "ok",
        "health": manager.health,
        "health_reason": manager.health_reason,
        "isolation": manager.isolation,
        "version": __version__,
        "run_dir": str(manager.run_dir),
        "resumed": manager.resumed,
        "uptime_seconds": time.time() - started_at,
        "queue_depth": manager.queue_depth(),
        "jobs": manager.status_counts(),
    }


def metrics_doc(manager: JobManager, started_at: float) -> dict:
    """Counters (from the active obs recorder) plus service gauges."""
    recorder = obs.recorder()
    counters = dict(getattr(recorder, "counters", {}))
    doc = {
        "counters": counters,
        "service": {
            **manager.stats,
            "health": manager.health,
            "isolation": manager.isolation,
            "queue_depth": manager.queue_depth(),
            "jobs": manager.status_counts(),
            "uptime_seconds": time.time() - started_at,
        },
    }
    supervisor = manager.supervisor_stats()
    if supervisor is not None:
        doc["supervisor"] = supervisor
    return doc
