"""Supervised process isolation: executor unit tests + manager flows.

The executor tests exercise the supervisor loop directly — respawn
after crash, backstop kill of a wedged worker, crash-loop backoff
accounting. The manager tests drive the full poison path (worker
losses → quarantine → durable ``job-poisoned`` record) and the
terminal-failure journaling satellite through a real ``JobManager``.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro import faults
from repro.errors import (
    ServiceUnavailableError,
    WorkerLostError,
    is_permanent_failure,
)
from repro.service.jobs import JOB_DONE, JOB_FAILED, JobManager
from repro.eval.supervisor import (
    REASON_CRASH,
    REASON_DEADLINE,
    SupervisedExecutor,
)

pytestmark = pytest.mark.supervise_smoke

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


# Task bodies must be module-level: they cross the pipe by pickle.

def _echo(value):
    return value


def _pid():
    return os.getpid()


def _boom():
    raise ValueError("synthetic task failure")


def _die():
    os._exit(17)


def _hang():
    time.sleep(600)


def _echo_or_die(value):
    if value == 0:
        os._exit(17)
    return value


# ---------------------------------------------------------------------------
# SupervisedExecutor
# ---------------------------------------------------------------------------


@pytest.fixture
def pool():
    executor = SupervisedExecutor(
        max_workers=1, backstop=10.0, backoff_base=0.01)
    yield executor
    executor.shutdown()


def test_roundtrip_and_worker_reuse(pool):
    assert pool.submit_task(_echo, 42).result(timeout=30) == 42
    pids = {pool.submit_task(_pid).result(timeout=30) for _ in range(3)}
    assert len(pids) == 1
    assert pids.pop() != os.getpid()
    stats = pool.stats()
    assert stats["spawns"] == 1
    assert stats["tasks_completed"] == 4
    assert stats["losses"] == 0


def test_task_exception_propagates_without_worker_loss(pool):
    with pytest.raises(ValueError, match="synthetic task failure"):
        pool.submit_task(_boom).result(timeout=30)
    assert pool.submit_task(_echo, "ok").result(timeout=30) == "ok"
    stats = pool.stats()
    assert stats["tasks_raised"] == 1
    assert stats["losses"] == 0
    assert stats["spawns"] == 1


def test_worker_crash_is_transient_worker_lost_and_respawns(pool):
    with pytest.raises(WorkerLostError) as info:
        pool.submit_task(_die).result(timeout=30)
    assert info.value.reason == REASON_CRASH
    assert info.value.exitcode == 17
    assert not is_permanent_failure(info.value)
    # The next task lands on a respawned worker.
    assert pool.submit_task(_echo, 1).result(timeout=30) == 1
    stats = pool.stats()
    assert stats["losses"] == 1
    assert stats["respawns"] == 1


def test_backstop_kills_wedged_worker():
    executor = SupervisedExecutor(
        max_workers=1, backstop=1.0, backoff_base=0.01)
    try:
        started = time.monotonic()
        with pytest.raises(WorkerLostError) as info:
            executor.submit_task(_hang, budget=0.2).result(timeout=60)
        assert info.value.reason == REASON_DEADLINE
        # budget + backstop = 1.2s; generous slack for a loaded box.
        assert time.monotonic() - started < 30.0
        assert executor.stats()["backstop_kills"] == 1
        assert executor.submit_task(_echo, "ok").result(timeout=30) == "ok"
    finally:
        executor.shutdown()


def test_crash_loop_backoff_accounting():
    executor = SupervisedExecutor(
        max_workers=1, backstop=10.0,
        backoff_base=0.01, backoff_max=0.04)
    try:
        for _ in range(3):
            with pytest.raises(WorkerLostError):
                executor.submit_task(_die).result(timeout=30)
        stats = executor.stats()
        assert stats["losses"] == 3
        # Respawns 2 and 3 backed off 0.01 and 0.02 seconds.
        assert stats["backoff_seconds"] >= 0.03
        # A successful reply resets the crash streak.
        assert executor.submit_task(_echo, 9).result(timeout=30) == 9
        assert executor._slots[0].consecutive_losses == 0
    finally:
        executor.shutdown()


def test_imap_unordered_pulls_jobs_lazily(pool):
    """With one slot the window is 2 * 1 + 2 = 4: the job source has
    yielded no more than that when the first result comes back."""
    pulled = []

    def jobs():
        for i in range(50):
            pulled.append(i)
            yield i

    results = pool.imap_unordered(_echo, jobs())
    job, future = next(results)
    assert len(pulled) <= 4
    assert future.result() == job
    rest = {job: future.result() for job, future in results}
    assert rest == {i: i for i in range(50) if i != job}
    assert len(pulled) == 50


def test_imap_unordered_reports_a_lost_worker_per_job(pool):
    outcomes = {}
    for job, future in pool.imap_unordered(_echo_or_die, [1, 0, 2]):
        try:
            outcomes[job] = future.result()
        except WorkerLostError:
            outcomes[job] = "lost"
    assert outcomes == {1: 1, 0: "lost", 2: 2}


def test_submit_after_shutdown_is_rejected():
    executor = SupervisedExecutor(max_workers=1)
    executor.shutdown()
    with pytest.raises(RuntimeError, match="shut-down"):
        executor.submit_task(_echo, 1)


# ---------------------------------------------------------------------------
# JobManager on the supervised executor
# ---------------------------------------------------------------------------


def test_process_isolated_job_completes(tmp_path, sample_image):
    async def main():
        manager = JobManager(
            tmp_path / "run", tools=TOOLS,
            isolation="process", executor_workers=1, backstop=60.0)
        assert manager.isolation == "process"
        await manager.start()
        try:
            job, created = manager.submit(sample_image)
            assert created
            done = await _await_done(manager, job.job_id)
            assert done.status == JOB_DONE
            assert done.analysis.ok
            supervisor = manager.supervisor_stats()
            assert supervisor["tasks_completed"] == 1
            assert supervisor["losses"] == 0
        finally:
            await manager.stop()

    _run(main())


def test_poison_job_quarantined_and_durable(tmp_path, sample_image):
    faults.install("kill@cell.execute#1")
    try:
        async def main():
            manager = JobManager(
                tmp_path / "run", tools=TOOLS,
                isolation="process", executor_workers=1,
                poison_threshold=2, backstop=60.0)
            # Shrink the crash-loop backoff for test speed.
            manager._executor.backoff_base = 0.01
            await manager.start()
            try:
                job, created = manager.submit(sample_image)
                assert created
                done = await _await_done(manager, job.job_id)
                assert done.status == JOB_FAILED
                assert done.poisoned
                assert done.crashes == 2
                assert "poisoned after 2 worker losses" in done.error
                assert done.quarantined is not None
                entries = manager.quarantine_entries()
                assert len(entries) == 1
                assert entries[0].read_input() == sample_image
                meta = entries[0].failures[0]
                assert meta["suite"] == "service"
                assert meta["program"] == job.job_id
                assert manager.stats["poisoned"] == 1
                assert manager.stats["crash_retries"] == 1
            finally:
                await manager.stop()
            return job.job_id

        job_id = _run(main())
    finally:
        faults.clear()

    # A restarted server must NOT re-enqueue the poisoned job.
    async def restart():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        await manager.start()
        try:
            job = manager.get(job_id)
            assert job is not None
            assert job.status == JOB_FAILED
            assert job.poisoned
            assert job.crashes == 2
            assert job.quarantined is not None
            assert manager.stats["resumed_jobs"] == 0
            assert manager.stats["restored"] == 1
        finally:
            await manager.stop()

    _run(restart())


# ---------------------------------------------------------------------------
# Terminal-failure journaling (thread isolation is enough)
# ---------------------------------------------------------------------------


def test_permanent_failure_is_journaled_terminal(tmp_path, sample_image):
    faults.install("permanent@blob.read#1")
    try:
        async def main():
            manager = JobManager(tmp_path / "run", tools=TOOLS)
            await manager.start()
            try:
                job, _created = manager.submit(sample_image)
                done = await _await_done(manager, job.job_id)
                assert done.status == JOB_FAILED
                assert "PermanentFaultError" in done.error
                assert done.completed_at is not None
            finally:
                await manager.stop()
            return job.job_id

        job_id = _run(main())
    finally:
        faults.clear()

    async def restart():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        await manager.start()
        try:
            job = manager.get(job_id)
            assert job.status == JOB_FAILED
            assert "PermanentFaultError" in job.error
            assert manager.stats["resumed_jobs"] == 0
            assert manager.stats["restored"] == 1
        finally:
            await manager.stop()

    _run(restart())


def test_transient_failure_not_journaled_reruns_on_resume(
        tmp_path, sample_image):
    faults.install("transient@blob.read#1")
    try:
        async def main():
            manager = JobManager(tmp_path / "run", tools=TOOLS)
            await manager.start()
            try:
                job, _created = manager.submit(sample_image)
                done = await _await_done(manager, job.job_id)
                assert done.status == JOB_FAILED
                assert "TransientFaultError" in done.error
            finally:
                await manager.stop()
            return job.job_id

        job_id = _run(main())
    finally:
        faults.clear()

    # Transient verdicts are not durable: the restart retries the job
    # and, with the fault gone, it completes.
    async def restart():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        await manager.start()
        try:
            assert manager.stats["resumed_jobs"] == 1
            done = await _await_done(manager, job_id)
            assert done.status == JOB_DONE
        finally:
            await manager.stop()

    _run(restart())


# ---------------------------------------------------------------------------
# Degraded read-only mode (ENOSPC)
# ---------------------------------------------------------------------------


def test_enospc_degrades_writes_then_probe_recovers(tmp_path, sample_image):
    now = [1000.0]
    faults.install("enospc@journal.append#1")
    try:
        async def main():
            manager = JobManager(
                tmp_path / "run", tools=TOOLS,
                probe_interval=30.0, clock=lambda: now[0])
            await manager.start()
            try:
                with pytest.raises(ServiceUnavailableError) as info:
                    manager.submit(sample_image)
                assert manager.health == "degraded"
                assert manager.health_reason is not None
                assert info.value.retry_after >= 1.0
                # The failed submission left no trace: no job, no stat.
                assert manager.jobs() == []
                assert manager.stats["submitted"] == 0

                # Inside the probe window writes stay rejected...
                with pytest.raises(ServiceUnavailableError):
                    manager.submit(sample_image)
                assert manager.stats["rejected_degraded"] == 1

                # ...after it, the next write is the probe and heals.
                now[0] += 31.0
                job, created = manager.submit(sample_image)
                assert created
                assert manager.health == "healthy"
                assert manager.health_reason is None
                done = await _await_done(manager, job.job_id)
                assert done.status == JOB_DONE
            finally:
                await manager.stop()

        _run(main())
    finally:
        faults.clear()


def test_draining_manager_rejects_writes(tmp_path, sample_image):
    async def main():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        await manager.start()
        await manager.stop()
        assert manager.health == "draining"
        with pytest.raises(ServiceUnavailableError):
            manager.submit(sample_image)

    _run(main())


# ---------------------------------------------------------------------------
# Loopback-server regressions
# ---------------------------------------------------------------------------


def test_hang_faulted_job_times_out_and_server_stays_responsive(
        tmp_path, loopback, sample_image):
    """The historical failure mode: a hang in a job body outlived any
    configured ``--timeout`` because ``SIGALRM`` cannot arm on an
    executor thread. Under process isolation the deadline is real: the
    hang-faulted job fails with a timeout record well inside the fault's
    30s self-release, the server answers throughout, and the next job
    on the same worker completes cleanly."""
    faults.install("hang@cell.execute#1")
    try:
        server = loopback(
            tmp_path / "run",
            manager_kwargs=dict(
                tools=["funseeker"], isolation="process",
                executor_workers=1, timeout=1.0, backstop=60.0))
        status, _, doc = server.request("POST", "/v1/jobs",
                                        body=sample_image)
        assert status == 202
        hang_id = doc["job"]["job_id"]
        # Responsive while the faulted job is in flight.
        status, _, health = server.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["isolation"] == "process"

        started = time.monotonic()
        result = server.wait_result(hang_id, timeout=25.0)
        assert time.monotonic() - started < 25.0
        report = result["analysis"]["tools"]["funseeker"]
        assert report["error_type"] == "CellTimeoutError"
        assert report["enforced"] is True

        # The worker survives (the alarm fired in-band, no kill) and
        # serves the next job cleanly.
        tweaked = sample_image + b"\x00"
        status, _, doc = server.request("POST", "/v1/jobs", body=tweaked)
        assert status in (200, 202)
        result = server.wait_result(doc["job"]["job_id"], timeout=60.0)
        assert result["analysis"]["tools"]["funseeker"]["error_type"] is None
    finally:
        faults.clear()


def test_http_degraded_returns_503_and_recovers(
        tmp_path, loopback, sample_image):
    faults.install("enospc@journal.append#1")
    try:
        server = loopback(
            tmp_path / "run",
            manager_kwargs=dict(tools=TOOLS, probe_interval=1.0))
        status, headers, doc = server.request("POST", "/v1/jobs",
                                              body=sample_image)
        assert status == 503
        assert "retry-after" in headers
        assert "read-only" in doc["error"]

        # GETs keep serving; health names the degradation.
        status, _, health = server.request("GET", "/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["health"] == "degraded"
        assert health["health_reason"]

        # After the probe interval the next POST heals the service
        # (the injected fault was one-shot).
        time.sleep(1.1)
        status, _, doc = server.request("POST", "/v1/jobs",
                                        body=sample_image)
        assert status == 202
        server.wait_result(doc["job"]["job_id"], timeout=60.0)
        _, _, health = server.request("GET", "/v1/healthz")
        assert health["health"] == "healthy"
        _, _, metrics = server.request("GET", "/v1/metrics")
        assert metrics["service"]["rejected_degraded"] == 0
        assert metrics["service"]["health"] == "healthy"
    finally:
        faults.clear()
