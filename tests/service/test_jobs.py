"""JobManager unit tests: dedup, warm serving, crash resume, manifests."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.errors import (
    ManifestCorruptError,
    ManifestMismatchError,
    QueueFullError,
)
from repro.eval.journal import JournalFile
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JobManager,
    job_identity,
)

from .conftest import StallExecutor

TOOLS = ["funseeker", "fetch"]


def _run(coro):
    return asyncio.run(coro)


async def _await_done(manager: JobManager, job_id: str,
                      timeout: float = 90.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        job = manager.get(job_id)
        if job.status in (JOB_DONE, JOB_FAILED):
            return job
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def test_job_identity_is_deterministic():
    a = job_identity("acme", "ab" * 32, ("funseeker", "fetch"))
    assert a == job_identity("acme", "ab" * 32, ("funseeker", "fetch"))
    assert a != job_identity("other", "ab" * 32, ("funseeker", "fetch"))
    assert a != job_identity("acme", "cd" * 32, ("funseeker", "fetch"))
    assert a != job_identity("acme", "ab" * 32, ("funseeker",))


def test_duplicate_submission_is_one_job_and_one_analysis(
        tmp_path, sample_image):
    async def main():
        manager = JobManager(tmp_path / "run", tools=TOOLS,
                             cache_root=tmp_path / "cache")
        await manager.start()
        try:
            job, created = manager.submit(sample_image)
            assert created
            dup, dup_created = manager.submit(sample_image)
            assert dup is job
            assert not dup_created
            done = await _await_done(manager, job.job_id)
            assert done.status == JOB_DONE
            # Resubmitting after completion still dedups to the done job.
            again, again_created = manager.submit(sample_image)
            assert again is job and not again_created
            assert manager.stats["submitted"] == 1
            assert manager.stats["deduped"] == 2
            assert manager.stats["completed"] == 1
        finally:
            await manager.stop()

    _run(main())


def test_warm_submission_completes_at_submit_time(tmp_path, sample_image):
    async def first():
        manager = JobManager(tmp_path / "run1", tools=TOOLS,
                             cache_root=tmp_path / "cache")
        await manager.start()
        try:
            job, _ = manager.submit(sample_image)
            done = await _await_done(manager, job.job_id)
            assert done.status == JOB_DONE
            return done.analysis
        finally:
            await manager.stop()

    async def second():
        # Fresh run dir (no dedup possible), same cache root: the
        # submission must complete synchronously from disk, no parse.
        manager = JobManager(tmp_path / "run2", tools=TOOLS,
                             cache_root=tmp_path / "cache")
        try:
            job, created = manager.submit(sample_image)
            assert created
            assert job.status == JOB_DONE  # before any worker ran
            assert job.analysis.warm
            assert all(r.cache == "hit"
                       for r in job.analysis.tools.values())
            assert manager.stats["warm_served"] == 1
            return job.analysis
        finally:
            await manager.stop()

    cold = _run(first())
    warm = _run(second())
    for name in TOOLS:
        assert warm.tools[name].functions == cold.tools[name].functions


def test_queue_full_raises_before_side_effects(tmp_path):
    async def main():
        manager = JobManager(tmp_path / "run", tools=["fetch"],
                             queue_size=1, executor=StallExecutor())
        await manager.start()
        try:
            first, _ = manager.submit(b"first-image")
            # Wait for the worker to take it off the queue.
            deadline = asyncio.get_running_loop().time() + 10
            while manager.get(first.job_id).status == JOB_QUEUED:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            manager.submit(b"second-image")  # fills the queue
            blobs_before = sorted(p.name
                                  for p in manager.blobs_dir.iterdir())
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(b"third-image")
            assert excinfo.value.retry_after >= 1.0
            assert manager.stats["rejected_queue_full"] == 1
            # The rejected submission left nothing behind: no job
            # registered, no blob written.
            assert len(manager.jobs()) == 2
            assert sorted(p.name for p in
                          manager.blobs_dir.iterdir()) == blobs_before
        finally:
            await manager.stop()

    _run(main())


def test_batch_pending_counts_deduplicated_jobs(tmp_path):
    # A batch job that deduplicates onto an earlier submission is as
    # unfinished as a fresh one: pending counts every job not yet done
    # or failed.
    async def main():
        manager = JobManager(tmp_path / "run", tools=["fetch"],
                             executor=StallExecutor())
        try:
            earlier, _ = manager.submit(b"image-0")
            batch, jobs = manager.submit_batch([b"image-0", b"image-1"])
            assert jobs[0] is earlier
            assert [job.status for job in jobs] == [JOB_QUEUED] * 2
            assert batch.doc()["pending"] == 2
        finally:
            await manager.stop()

    _run(main())


def test_restart_resumes_inflight_and_restores_done(
        tmp_path, sample_image):
    run_dir = tmp_path / "run"

    async def crash():
        # Never started, never stopped: simulate the process dying with
        # the job accepted but unfinished. The journal line is already
        # fsync'd by submit().
        manager = JobManager(run_dir, tools=TOOLS,
                             cache_root=tmp_path / "cache",
                             executor=StallExecutor())
        job, _ = manager.submit(sample_image)
        assert job.status == JOB_QUEUED
        return job.job_id

    job_id = _run(crash())

    async def resume():
        manager = JobManager(run_dir, tools=TOOLS,
                             cache_root=tmp_path / "cache")
        assert manager.resumed
        job = manager.get(job_id)
        assert job is not None
        assert job.resumed
        await manager.start()
        try:
            assert manager.stats["resumed_jobs"] == 1
            done = await _await_done(manager, job_id)
            assert done.status == JOB_DONE
            assert done.receipt["resumed"] is True
            return done.receipt
        finally:
            await manager.stop()

    receipt = _run(resume())

    async def restore():
        # Third manager on the same dir: the completed job replays from
        # the journal — done immediately, original receipt, no re-run.
        manager = JobManager(run_dir, tools=TOOLS,
                             cache_root=tmp_path / "cache")
        try:
            job = manager.get(job_id)
            assert job.status == JOB_DONE
            assert manager.stats["restored"] == 1
            assert manager.stats["resumed_jobs"] == 0
            assert job.receipt == receipt
        finally:
            await manager.stop()

    _run(restore())


def test_lost_blob_fails_the_resumed_job(tmp_path, sample_image):
    run_dir = tmp_path / "run"

    async def crash():
        manager = JobManager(run_dir, tools=TOOLS,
                             executor=StallExecutor())
        job, _ = manager.submit(sample_image)
        return job.job_id

    job_id = _run(crash())
    for blob in (run_dir / "blobs").iterdir():
        blob.unlink()

    async def resume():
        manager = JobManager(run_dir, tools=TOOLS)
        try:
            job = manager.get(job_id)
            assert job.status == JOB_FAILED
            assert "blob lost" in job.error
        finally:
            await manager.stop()

    _run(resume())


def test_corrupt_manifest_is_distinguished(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("{definitely not json",
                                           encoding="utf-8")
    with pytest.raises(ManifestCorruptError):
        JobManager(run_dir)

    other = tmp_path / "other"
    other.mkdir()
    (other / "manifest.json").write_text(
        json.dumps({"schema": "journal-manifest/v1"}), encoding="utf-8")
    with pytest.raises(ManifestMismatchError):
        JobManager(other)


def test_non_object_manifest_is_corrupt(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("[]", encoding="utf-8")
    with pytest.raises(ManifestCorruptError):
        JobManager(run_dir)


def test_restore_counts_every_unusable_journal_line(tmp_path):
    run_dir = tmp_path / "run"
    _run(JobManager(run_dir, tools=TOOLS).stop())
    journal = JournalFile(run_dir / "journal.jsonl")
    # An unknown kind, a well-formed terminal line for a job no
    # job-submitted line opened (an orphan), and a field-less submit.
    journal.append({"kind": "job-bogus", "job": "a" * 32, "at": 1.0})
    journal.append({"kind": "job-completed", "job": "b" * 32,
                    "analysis": {"sha256": "0" * 64, "size_bytes": 1},
                    "receipt": {}, "at": 1.0})
    journal.append({"kind": "job-submitted"})
    journal.close()

    recorder = obs.set_recorder(obs.CounterRecorder())
    try:
        manager = JobManager(run_dir, tools=TOOLS)
    finally:
        obs.set_recorder(None)
    try:
        assert recorder.counters.get("service.journal_corrupt_lines") == 3
        assert manager.jobs() == []
    finally:
        _run(manager.stop())


def test_invalid_tenant_and_tools_rejected(tmp_path):
    async def main():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        try:
            with pytest.raises(ValueError):
                manager.submit(b"x", tenant="../evil")
            with pytest.raises(ValueError):
                manager.submit(b"x", tools=["no-such-detector"])
        finally:
            await manager.stop()

    _run(main())
