"""Analysis-as-a-service: an asyncio job API over the cache + journal.

The batch pipelines answer "reproduce Table III"; this package answers
"serve millions of lookups": ``POST`` a binary, poll the job, fetch the
per-tool entry report with a provenance receipt. Submissions are
deduplicated by content hash before any analysis runs, warm results
come straight from the content-addressed disk cache, tenants are
isolated by cache namespace and token-bucket rate limits, and every
accepted job is journaled so a killed server resumes exactly where it
died (``funseeker serve``, ``funseeker chaos --service``).

Layering:

- :mod:`repro.service.app` — the stdlib HTTP/1.1 front end.
- :mod:`repro.service.jobs` — dedup, bounded queue, executor dispatch,
  poison-job quarantine, health state machine, journal-backed restart
  recovery.
- :class:`SupervisedExecutor` (from :mod:`repro.eval.supervisor`, the
  repo's one process pool) — the process-isolated executor: supervised
  worker subprocesses with armed deadlines and RSS caps.
- :mod:`repro.service.receipts` — ``job-receipt/v1`` provenance.
- :mod:`repro.service.ratelimit` — per-tenant token buckets.
- :mod:`repro.service.metrics` — ``/v1/healthz`` + ``/v1/metrics``.
- :mod:`repro.service.chaos` — kill/hang/poison/disk-full acceptance
  scenarios.
"""

from repro.service.app import AnalysisService, DEFAULT_MAX_BODY
from repro.service.jobs import (
    DEFAULT_TENANT,
    HEALTH_DEGRADED,
    HEALTH_DRAINING,
    HEALTH_HEALTHY,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Batch,
    Job,
    JobManager,
    execute_payload,
    job_identity,
)
from repro.service.ratelimit import TenantRateLimiter, TokenBucket
from repro.service.receipts import RECEIPT_SCHEMA, build_receipt
from repro.eval.supervisor import SupervisedExecutor, WorkerLostError

__all__ = [
    "AnalysisService",
    "Batch",
    "DEFAULT_MAX_BODY",
    "DEFAULT_TENANT",
    "HEALTH_DEGRADED",
    "HEALTH_DRAINING",
    "HEALTH_HEALTHY",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "Job",
    "JobManager",
    "RECEIPT_SCHEMA",
    "SupervisedExecutor",
    "TenantRateLimiter",
    "TokenBucket",
    "WorkerLostError",
    "build_receipt",
    "execute_payload",
    "job_identity",
]
