"""Service chaos: the job API under kills, hangs, poison, and full disks.

The evaluation and ingest chaos harnesses exercise in-process resume
paths; the service scenarios have to be harsher, because the claims
are about *processes*. Four acceptance scenarios run against real
``funseeker serve`` subprocesses:

- **service-kill-mid-job** — a thread-isolation server is SIGKILLed by
  an injected ``kill@cell.execute`` fault mid-analysis; a restart on
  the same run directory must reproduce the fault-free baseline
  results exactly (journal replay + re-execution). The kill fires on
  the run's last cell, so every submission was accepted first and one
  job is still unfinished.
- **service-hang-backstop** — under process isolation with *no*
  per-cell timeout, an injected hang wedges a worker; the supervisor's
  ``--backstop`` must kill and respawn it, the job must complete on
  the fresh worker, and the server must never die.
- **service-poison-quarantine** — a ``kill@cell.execute#1`` fault
  murders every worker that touches the job; after
  ``--poison-threshold`` losses the job must fail permanently, its
  bytes must land in quarantine, and a restarted server must *not*
  re-enqueue it.
- **service-enospc-degrade** — an injected disk-full fault on the
  journal flips the server into degraded read-only mode (503 +
  Retry-After on writes, GETs keep serving); after ``--probe-interval``
  the next write heals it and completes normally.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.service.receipts import RECEIPT_SCHEMA
from repro.synth.corpus import build_corpus

#: Seconds to wait for a serve subprocess to print its address.
START_TIMEOUT = 30.0
#: Seconds to wait for all submitted jobs to reach a terminal state.
COMPLETE_TIMEOUT = 120.0
#: Seconds between result polls.
POLL_INTERVAL = 0.1

_CHAOS_TOOLS = ("funseeker", "fetch")


class ServerCrashed(RuntimeError):
    """The serve subprocess died while the harness still needed it."""


@dataclass
class ServerHandle:
    """One ``funseeker serve`` subprocess plus its bound address."""

    proc: subprocess.Popen
    host: str = ""
    port: int = 0

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
        timeout: float = 15.0,
    ) -> tuple[int, dict, dict]:
        """One round trip; returns (status, response headers, doc)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                json.loads(payload.decode("utf-8")))

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()
        self.proc.wait()

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM (graceful shutdown) and reap; returns the exit code."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait()


def start_server(
    run_dir: Path,
    cache_dir: Path,
    *,
    tools: tuple[str, ...] = _CHAOS_TOOLS,
    fault_plan: str | None = None,
    start_timeout: float = START_TIMEOUT,
    extra_args: tuple[str, ...] = (),
) -> ServerHandle:
    """Spawn ``python -m repro serve`` and wait for its address line."""
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_CACHE_DIR", None)
    if fault_plan:
        env["REPRO_FAULT_PLAN"] = fault_plan
    src_root = Path(repro.__file__).resolve().parents[1]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(src_root) + (os.pathsep + existing
                                          if existing else ""))
    log = open(run_dir / "server.log", "ab")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--run-dir", str(run_dir),
             "--cache-dir", str(cache_dir),
             "--tools", ",".join(tools),
             "--port", "0", "--workers", "1",
             *extra_args],
            stdout=subprocess.PIPE, stderr=log, env=env,
        )
    finally:
        log.close()
    handle = ServerHandle(proc=proc)
    handle.host, handle.port = _await_address(proc, start_timeout)
    return handle


def _await_address(proc: subprocess.Popen,
                   timeout: float) -> tuple[str, int]:
    """Parse the ``serving on http://host:port`` line, without blocking."""
    deadline = time.monotonic() + timeout
    buffered = b""
    stream = proc.stdout
    assert stream is not None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ServerCrashed(
                f"serve subprocess exited with {proc.returncode} before "
                f"printing its address (see server.log in the run dir)")
        ready, _, _ = select.select([stream], [], [], 0.2)
        if not ready:
            continue
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            continue
        buffered += chunk
        for line in buffered.decode("utf-8", "replace").splitlines():
            if line.startswith("serving on http://"):
                addr = line.removeprefix("serving on http://").strip()
                host, _, port = addr.rpartition(":")
                return host, int(port)
    proc.kill()
    raise ServerCrashed(
        f"serve subprocess printed no address within {timeout:.0f}s")


def _submit(handle: ServerHandle, image: bytes,
            tools: tuple[str, ...]) -> str:
    status, _headers, doc = handle.request(
        "POST", f"/v1/jobs?tools={','.join(tools)}", body=image)
    if status not in (200, 202):
        raise ServerCrashed(f"submit answered {status}: {doc}")
    return doc["job"]["job_id"]


def _await_results(
    handle: ServerHandle,
    job_ids: list[str],
    timeout: float = COMPLETE_TIMEOUT,
) -> dict[str, dict]:
    """Poll ``/result`` until every job is terminal; returns the docs."""
    deadline = time.monotonic() + timeout
    results: dict[str, dict] = {}
    while time.monotonic() < deadline:
        for job_id in job_ids:
            if job_id in results:
                continue
            status, _headers, doc = handle.request(
                "GET", f"/v1/jobs/{job_id}/result")
            if status == 200:
                results[job_id] = doc
        if len(results) == len(job_ids):
            return results
        time.sleep(POLL_INTERVAL)
    missing = [j for j in job_ids if j not in results]
    raise ServerCrashed(
        f"{len(missing)} job(s) not terminal after {timeout:.0f}s: "
        f"{missing}")


def normalize_results(results: dict[str, dict]) -> dict:
    """Strip timing/attribution noise down to the identity-bearing core."""
    doc: dict[str, dict] = {}
    for job_id, result in sorted(results.items()):
        if result.get("status") != "done":
            doc[job_id] = {"status": result.get("status"),
                           "error": result.get("error")}
            continue
        analysis = result["analysis"]
        doc[job_id] = {
            "status": "done",
            "sha256": analysis["sha256"],
            "tools": {
                name: report["functions"]
                for name, report in analysis["tools"].items()
            },
        }
    return doc


@dataclass
class ServiceScenarioResult:
    name: str
    plan: str
    ok: bool
    detail: str
    server_exit: int | None = None
    resumed_jobs: int = 0


@dataclass
class ServiceChaosReport:
    baseline_jobs: int = 0
    results: list[ServiceScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"service chaos: {len(self.results)} scenario(s) over "
            f"{self.baseline_jobs} baseline jobs"
        ]
        for r in self.results:
            status = "ok  " if r.ok else "FAIL"
            exit_note = (f" server-exit={r.server_exit}"
                         if r.server_exit is not None else "")
            lines.append(
                f"  [{status}] {r.name:<22s} plan={r.plan} "
                f"resumed={r.resumed_jobs}{exit_note}")
            if not r.ok:
                lines.append(f"         {r.detail}")
        lines.append(
            "killed server resumed to the fault-free results"
            if self.ok else "UNRECOVERED service divergence — see above")
        return "\n".join(lines)


def run_service_chaos(
    work_dir: str | Path,
    *,
    seed: int = 2022,
    tools: tuple[str, ...] = _CHAOS_TOOLS,
    binaries: int = 3,
) -> ServiceChaosReport:
    """Baseline server vs killed-and-restarted server, same submissions."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    corpus = build_corpus("tiny", seed=seed)[:binaries]
    images = [entry.stripped for entry in corpus]
    report = ServiceChaosReport()

    # -- fault-free baseline -------------------------------------------------
    handle = start_server(work_dir / "baseline" / "run",
                          work_dir / "baseline" / "cache", tools=tools)
    try:
        job_ids = [_submit(handle, image, tools) for image in images]
        baseline = normalize_results(_await_results(handle, job_ids))
    finally:
        handle.terminate()
    report.baseline_jobs = len(baseline)

    # Fire on the last of the run's cells (one parse + len(tools)
    # detects per binary): it can only execute once every submission
    # was accepted, and its job is still unfinished when the server
    # dies. Thread isolation on purpose: the kill must take the
    # *server* down.
    ordinal = len(images) * (len(tools) + 1)
    plan = f"kill@cell.execute#{ordinal}"
    report.results.append(_run_kill_scenario(
        work_dir / "kill", images, tools, plan, baseline))
    report.results.append(_run_hang_scenario(
        work_dir / "hang", images, tools, baseline))
    report.results.append(_run_poison_scenario(
        work_dir / "poison", images[0], tools))
    report.results.append(_run_enospc_scenario(
        work_dir / "enospc", images[0], tools))
    return report


def _run_kill_scenario(
    scenario_dir: Path,
    images: list[bytes],
    tools: tuple[str, ...],
    plan: str,
    baseline: dict,
) -> ServiceScenarioResult:
    result = ServiceScenarioResult(
        name="service-kill-mid-job", plan=plan, ok=False, detail="")
    run_dir = scenario_dir / "run"
    cache_dir = scenario_dir / "cache"

    # -- faulted server: submit everything, let the fault kill it -----------
    try:
        handle = start_server(run_dir, cache_dir, tools=tools,
                              fault_plan=plan,
                              extra_args=("--isolation", "thread"))
    except ServerCrashed as exc:
        result.detail = f"faulted server never came up: {exc}"
        return result
    try:
        job_ids = [_submit(handle, image, tools) for image in images]
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        handle.kill()
        result.detail = (f"server died before all submissions were "
                         f"accepted: {type(exc).__name__}: {exc}")
        return result
    try:
        result.server_exit = handle.proc.wait(timeout=COMPLETE_TIMEOUT)
    except subprocess.TimeoutExpired:
        handle.kill()
        result.detail = "injected kill never fired; server stayed alive"
        return result
    if result.server_exit != -signal.SIGKILL:
        result.detail = (f"expected the server to die of SIGKILL, got "
                         f"exit {result.server_exit}")
        return result

    # -- restarted server: same run dir, no fault ---------------------------
    try:
        handle = start_server(run_dir, cache_dir, tools=tools,
                              extra_args=("--isolation", "thread"))
    except ServerCrashed as exc:
        result.detail = f"restart on the crashed run dir failed: {exc}"
        return result
    try:
        _, _, health = handle.request("GET", "/v1/healthz")
        if not health.get("resumed"):
            result.detail = ("restarted server does not report the run "
                            "dir as resumed")
            return result
        _, _, metrics = handle.request("GET", "/v1/metrics")
        result.resumed_jobs = metrics["service"].get("resumed_jobs", 0)
        raw = _await_results(handle, job_ids)
        resumed = normalize_results(raw)
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        result.detail = (f"resumed run failed: "
                         f"{type(exc).__name__}: {exc}")
        return result
    finally:
        handle.terminate()

    if result.resumed_jobs == 0:
        result.detail = ("restart re-enqueued no jobs — the kill landed "
                         "after all work finished; raise the ordinal")
        return result
    not_done = [j for j, doc in resumed.items()
                if doc.get("status") != "done"]
    if not_done:
        first = resumed[not_done[0]]
        result.detail = (f"{len(not_done)} job(s) unrecovered, first: "
                         f"{not_done[0]}: {first.get('error')}")
        return result
    if resumed != baseline:
        result.detail = _first_divergence(baseline, resumed)
        return result
    bad_receipt = _check_receipts(raw)
    if bad_receipt:
        result.detail = bad_receipt
        return result
    result.ok = True
    result.detail = "resumed results identical to the baseline"
    return result


def _run_hang_scenario(
    scenario_dir: Path,
    images: list[bytes],
    tools: tuple[str, ...],
    baseline: dict,
) -> ServiceScenarioResult:
    """A wedged worker is backstop-killed; the job completes on respawn.

    Deliberately run with *no* per-cell ``--timeout``: the injected
    hang cannot be broken by ``SIGALRM``, so only the supervisor's
    backstop stands between the job and the fault's 30s self-release.
    The server process must survive the whole episode.
    """
    ordinal = len(tools) + 2
    plan = f"hang@cell.execute#{ordinal}"
    result = ServiceScenarioResult(
        name="service-hang-backstop", plan=plan, ok=False, detail="")
    try:
        handle = start_server(
            scenario_dir / "run", scenario_dir / "cache", tools=tools,
            fault_plan=plan,
            extra_args=("--isolation", "process", "--backstop", "4"))
    except ServerCrashed as exc:
        result.detail = f"server never came up: {exc}"
        return result
    try:
        job_ids = [_submit(handle, image, tools) for image in images]
        raw = _await_results(handle, job_ids)
        if not handle.alive():
            result.detail = "server died while supervising the hang"
            return result
        resumed = normalize_results(raw)
        if resumed != baseline:
            result.detail = _first_divergence(baseline, resumed)
            return result
        _, _, metrics = handle.request("GET", "/v1/metrics")
        supervisor = metrics.get("supervisor") or {}
        if supervisor.get("backstop_kills", 0) < 1:
            result.detail = ("the backstop never fired — the hang was "
                             "not supervised away")
            return result
        if metrics["service"].get("crash_retries", 0) < 1:
            result.detail = ("no crash retry recorded — the hung job "
                             "did not complete on a respawned worker")
            return result
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        result.detail = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        result.server_exit = handle.terminate()
    result.ok = True
    result.detail = ("backstop killed the wedged worker; results match "
                     "the baseline")
    return result


def _run_poison_scenario(
    scenario_dir: Path,
    image: bytes,
    tools: tuple[str, ...],
) -> ServiceScenarioResult:
    """A worker-killing input is poisoned, quarantined, and stays dead."""
    plan = "kill@cell.execute#1"
    result = ServiceScenarioResult(
        name="service-poison-quarantine", plan=plan, ok=False, detail="")
    run_dir = scenario_dir / "run"
    cache_dir = scenario_dir / "cache"
    try:
        handle = start_server(
            run_dir, cache_dir, tools=tools, fault_plan=plan,
            extra_args=("--isolation", "process",
                        "--poison-threshold", "2"))
    except ServerCrashed as exc:
        result.detail = f"server never came up: {exc}"
        return result
    try:
        job_id = _submit(handle, image, tools)
        raw = _await_results(handle, [job_id])
        doc = raw[job_id]
        if doc.get("status") != "failed":
            result.detail = (f"expected the job to fail poisoned, got "
                             f"{doc.get('status')}")
            return result
        if "poisoned" not in (doc.get("error") or ""):
            result.detail = (f"job failed but not as poisoned: "
                             f"{doc.get('error')}")
            return result
        _, _, metrics = handle.request("GET", "/v1/metrics")
        if metrics["service"].get("poisoned", 0) != 1:
            result.detail = "metrics do not count the poisoned job"
            return result
        quarantined = [p for p in (run_dir / "quarantine").glob("*/input.bin")]
        if not quarantined:
            result.detail = "no quarantine entry captured the input"
            return result
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        result.detail = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        handle.terminate()

    # The verdict must be durable: a restarted (fault-free) server
    # must serve the job as failed without re-enqueueing it.
    try:
        handle = start_server(run_dir, cache_dir, tools=tools,
                              extra_args=("--isolation", "process"))
    except ServerCrashed as exc:
        result.detail = f"restart on the poisoned run dir failed: {exc}"
        return result
    try:
        _, _, metrics = handle.request("GET", "/v1/metrics")
        if metrics["service"].get("resumed_jobs", 0) != 0:
            result.detail = ("restart re-enqueued the poisoned job "
                             "despite its journaled verdict")
            return result
        status, _, doc = handle.request("GET", f"/v1/jobs/{job_id}")
        if status != 200 or doc["job"]["status"] != "failed" \
                or not doc["job"].get("poisoned"):
            result.detail = (f"restarted server lost the poison "
                             f"verdict: {doc}")
            return result
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        result.detail = f"restarted run failed: {type(exc).__name__}: {exc}"
        return result
    finally:
        result.server_exit = handle.terminate()
    result.ok = True
    result.detail = ("job poisoned after 2 worker losses; quarantined "
                     "and durable across restart")
    return result


def _run_enospc_scenario(
    scenario_dir: Path,
    image: bytes,
    tools: tuple[str, ...],
) -> ServiceScenarioResult:
    """Disk-full degrades the service to read-only; a probe heals it."""
    plan = "enospc@journal.append#1"
    result = ServiceScenarioResult(
        name="service-enospc-degrade", plan=plan, ok=False, detail="")
    try:
        handle = start_server(
            scenario_dir / "run", scenario_dir / "cache", tools=tools,
            fault_plan=plan,
            extra_args=("--isolation", "thread",
                        "--probe-interval", "1"))
    except ServerCrashed as exc:
        result.detail = f"server never came up: {exc}"
        return result
    try:
        path = f"/v1/jobs?tools={','.join(tools)}"
        status, headers, doc = handle.request("POST", path, body=image)
        if status != 503:
            result.detail = (f"expected 503 on the faulted write, got "
                             f"{status}: {doc}")
            return result
        if "retry-after" not in headers:
            result.detail = "503 carried no Retry-After header"
            return result
        status, _, health = handle.request("GET", "/v1/healthz")
        if status != 200 or health.get("health") != "degraded":
            result.detail = (f"degradation not visible on /healthz: "
                             f"{status} {health.get('health')}")
            return result
        # Past the probe interval, the next write heals the service.
        time.sleep(1.2)
        status, _, doc = handle.request("POST", path, body=image)
        if status not in (200, 202):
            result.detail = (f"probe write did not recover the "
                             f"service: {status}: {doc}")
            return result
        job_id = doc["job"]["job_id"]
        raw = _await_results(handle, [job_id])
        if raw[job_id].get("status") != "done":
            result.detail = (f"post-recovery job did not complete: "
                             f"{raw[job_id]}")
            return result
        _, _, health = handle.request("GET", "/v1/healthz")
        if health.get("health") != "healthy":
            result.detail = (f"service stayed {health.get('health')} "
                             f"after a successful probe")
            return result
    except (ServerCrashed, OSError, http.client.HTTPException) as exc:
        result.detail = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        result.server_exit = handle.terminate()
    result.ok = True
    result.detail = "degraded to read-only on ENOSPC, recovered on probe"
    return result


def _first_divergence(expected: dict, got: dict) -> str:
    for job_id in sorted(set(expected) | set(got)):
        a, b = expected.get(job_id), got.get(job_id)
        if a != b:
            return (f"job {job_id} diverged: baseline "
                    f"{json.dumps(a, sort_keys=True)[:200]} != resumed "
                    f"{json.dumps(b, sort_keys=True)[:200]}")
    return "results diverged in an unknown job"


def _check_receipts(raw: dict[str, dict]) -> str:
    """Every completed job must carry a ``job-receipt/v1`` receipt."""
    for job_id, doc in sorted(raw.items()):
        receipt = doc.get("receipt")
        if not receipt or receipt.get("schema") != RECEIPT_SCHEMA:
            return (f"job {job_id} completed without a "
                    f"{RECEIPT_SCHEMA} receipt")
    return ""
