"""Deterministic, seeded fault injection for the analysis pipeline.

The evaluation stack claims to survive worker deaths, torn journal
writes, corrupted cache entries, and disk-full errors. This package
makes those claims *testable*: named fault points at the I/O and
process boundaries (:data:`~repro.faults.plan.ALL_SITES`), fault plans
addressing them by ``(kind, site, ordinal)``, and the chaos runner
(:mod:`repro.faults.chaos`, with evaluate, scan and serve drivers)
asserting that a faulted-then-resumed run reproduces the fault-free
report exactly.

Usage::

    from repro import faults

    faults.install("enospc@journal.append#2")   # or $REPRO_FAULT_PLAN
    ...run evaluation; second journal append raises ENOSPC...
    faults.clear()

Instrumentation is one call at each boundary::

    kind = faults.hit(faults.SITE_CACHE_GET)
    if kind == faults.KIND_CORRUPT:
        ...scribble over the artifact before reading it...

See docs/robustness.md for the fault-point catalog.
"""

from repro.faults.plan import (
    ALL_KINDS,
    ALL_SITES,
    BEHAVIORAL_KINDS,
    DATA_KINDS,
    EVERY,
    KIND_CORRUPT,
    KIND_ENOSPC,
    KIND_HANG,
    KIND_IO,
    KIND_KILL,
    KIND_PERMANENT,
    KIND_TRANSIENT,
    KIND_TRUNCATE,
    SITE_BLOB_READ,
    SITE_CACHE_GET,
    SITE_CACHE_PUT,
    SITE_CELL_EXECUTE,
    SITE_ELF_READ,
    SITE_INGEST_ADMIT,
    SITE_INGEST_ANALYZE,
    SITE_INGEST_WALK,
    SITE_JOURNAL_APPEND,
    SITE_WORKER_DISPATCH,
    FaultPlan,
    FaultSpec,
)
from repro.faults.registry import (
    ENV_FAULT_PLAN,
    HANG_SECONDS,
    active_plan,
    clear,
    guarded,
    hit,
    install,
    reset_counts,
)

__all__ = [
    "ALL_KINDS",
    "ALL_SITES",
    "BEHAVIORAL_KINDS",
    "DATA_KINDS",
    "ENV_FAULT_PLAN",
    "EVERY",
    "FaultPlan",
    "FaultSpec",
    "HANG_SECONDS",
    "KIND_CORRUPT",
    "KIND_ENOSPC",
    "KIND_HANG",
    "KIND_IO",
    "KIND_KILL",
    "KIND_PERMANENT",
    "KIND_TRANSIENT",
    "KIND_TRUNCATE",
    "SITE_BLOB_READ",
    "SITE_CACHE_GET",
    "SITE_CACHE_PUT",
    "SITE_CELL_EXECUTE",
    "SITE_ELF_READ",
    "SITE_INGEST_ADMIT",
    "SITE_INGEST_ANALYZE",
    "SITE_INGEST_WALK",
    "SITE_JOURNAL_APPEND",
    "SITE_WORKER_DISPATCH",
    "active_plan",
    "clear",
    "guarded",
    "hit",
    "install",
    "reset_counts",
]
