"""Serve driver for the chaos runner (:mod:`repro.faults.chaos`).

The evaluate and scan drivers exercise in-process resume paths; the
serve scenarios have to be harsher, because the claims are about
*processes*. Four scenarios run against real ``funseeker serve``
subprocesses:

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

import contextlib
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.faults.chaos import (
    ChaosDriver,
    ChaosScenario,
    ScenarioFailed,
)
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
    handle.host, handle.port = _await_address(proc, START_TIMEOUT)
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


class ServeDriver(ChaosDriver):
    title = "service chaos"
    unit = "jobs"
    crashes = ()
    failures = (ServerCrashed, OSError, http.client.HTTPException)

    def __init__(self, seed: int = 2022,
                 tools: list[str] | tuple[str, ...] | None = None,
                 binaries: int = 3) -> None:
        tools = self.tools = tuple(tools or _CHAOS_TOOLS)
        corpus = build_corpus("tiny", seed=seed)[:binaries]
        self.images = [entry.stripped for entry in corpus]
        # The kill fires on the last of the run's cells (one parse +
        # len(tools) detects per binary): it can only execute once every
        # submission was accepted, and its job is still unfinished when
        # the server dies. A scenario without a restart step compares
        # what its faulted step returned.
        last_cell = len(self.images) * (len(tools) + 1)
        self._table = {entry[0].name: entry for entry in [
            (ChaosScenario("service-kill-mid-job",
                           f"kill@cell.execute#{last_cell}"),
             self._kill, self._restart_killed),
            (ChaosScenario("service-hang-backstop",
                           f"hang@cell.execute#{len(tools) + 2}"),
             self._hang, None),
            (ChaosScenario("service-poison-quarantine",
                           "kill@cell.execute#1"),
             self._poison, self._restart_poisoned),
            (ChaosScenario("service-enospc-degrade",
                           "enospc@journal.append#1"),
             self._enospc, None),
        ]}

    def default_scenarios(self) -> list[ChaosScenario]:
        return [scenario for scenario, _, _ in self._table.values()]

    def baseline(self, work_dir: Path) -> tuple[dict, int]:
        with self._serving(work_dir / "baseline") as handle:
            raw = _await_results(handle, self._submit_all(handle))
        return normalize_results(raw), len(raw)

    def faulted(self, scenario, run_dir, result):
        if scenario.name not in self._table:
            raise ScenarioFailed(f"no serve scenario is named "
                                 f"{scenario.name!r}")
        return self._table[scenario.name][1](run_dir, scenario.plan, result)

    def resume(self, scenario, run_dir, result, state):
        step = self._table[scenario.name][2]
        return step(run_dir, result, state) if step else state

    @contextlib.contextmanager
    def _serving(self, scenario_dir: Path, result=None, plan=None,
                 *args: str):
        """A server on ``scenario_dir``; its exit code goes to ``result``."""
        handle = start_server(scenario_dir / "run", scenario_dir / "cache",
                              tools=self.tools, fault_plan=plan,
                              extra_args=args)
        try:
            yield handle
        finally:
            code = handle.terminate()
            if result is not None:
                result.counts["server-exit"] = code

    def _submit_all(self, handle: ServerHandle) -> list[str]:
        return [_submit(handle, image, self.tools) for image in self.images]

    # -- service-kill-mid-job ------------------------------------------------

    def _kill(self, run_dir, plan, result) -> list[str]:
        # Thread isolation on purpose: the kill must take the *server*
        # down, not a supervised worker.
        with self._serving(run_dir, result, plan,
                           "--isolation", "thread") as handle:
            job_ids = self._submit_all(handle)
            try:
                handle.proc.wait(timeout=COMPLETE_TIMEOUT)
            except subprocess.TimeoutExpired:
                raise ScenarioFailed(
                    "injected kill never fired; server stayed alive") from None
        if result.counts["server-exit"] != -signal.SIGKILL:
            raise ScenarioFailed(
                f"expected the server to die of SIGKILL, got exit "
                f"{result.counts['server-exit']}")
        return job_ids

    def _restart_killed(self, run_dir, result, job_ids) -> dict:
        with self._serving(run_dir, result, None,
                           "--isolation", "thread") as handle:
            _, _, health = handle.request("GET", "/v1/healthz")
            _, _, metrics = handle.request("GET", "/v1/metrics")
            raw = _await_results(handle, job_ids)
        if not health.get("resumed"):
            raise ScenarioFailed(
                "restarted server does not report the run dir as resumed")
        result.counts["resumed"] = metrics["service"].get("resumed_jobs", 0)
        if result.counts["resumed"] == 0:
            raise ScenarioFailed(
                "restart re-enqueued no jobs — the kill landed after all "
                "work finished; raise the ordinal")
        resumed = normalize_results(raw)
        not_done = [j for j, doc in resumed.items()
                    if doc.get("status") != "done"]
        if not_done:
            raise ScenarioFailed(
                f"{len(not_done)} job(s) unrecovered, first: "
                f"{not_done[0]}: {resumed[not_done[0]].get('error')}")
        for job_id, doc in sorted(raw.items()):
            receipt = doc.get("receipt")
            if not receipt or receipt.get("schema") != RECEIPT_SCHEMA:
                raise ScenarioFailed(f"job {job_id} completed without a "
                                     f"{RECEIPT_SCHEMA} receipt")
        return resumed

    # -- service-hang-backstop -----------------------------------------------

    def _hang(self, run_dir, plan, result) -> dict:
        """A wedged worker is backstop-killed; the job completes on respawn.

        Deliberately run with *no* per-cell ``--timeout``: the injected
        hang cannot be broken by ``SIGALRM``, so only the supervisor's
        backstop stands between the job and the fault's 30s
        self-release. The server process must survive the whole episode.
        """
        with self._serving(run_dir, result, plan, "--isolation", "process",
                           "--backstop", "4") as handle:
            raw = _await_results(handle, self._submit_all(handle))
            if not handle.alive():
                raise ScenarioFailed("server died while supervising the hang")
            _, _, metrics = handle.request("GET", "/v1/metrics")
        if (metrics.get("supervisor") or {}).get("backstop_kills", 0) < 1:
            raise ScenarioFailed("the backstop never fired — the hang was "
                                 "not supervised away")
        if metrics["service"].get("crash_retries", 0) < 1:
            raise ScenarioFailed(
                "no crash retry recorded — the hung job did not complete "
                "on a respawned worker")
        return normalize_results(raw)

    # -- service-poison-quarantine -------------------------------------------

    def _poison(self, run_dir, plan, result) -> str:
        """A worker-killing input is poisoned, quarantined, and stays dead."""
        with self._serving(run_dir, result, plan, "--isolation", "process",
                           "--poison-threshold", "2") as handle:
            job_id = _submit(handle, self.images[0], self.tools)
            doc = _await_results(handle, [job_id])[job_id]
            _, _, metrics = handle.request("GET", "/v1/metrics")
        if doc.get("status") != "failed":
            raise ScenarioFailed(f"expected the job to fail poisoned, got "
                                 f"{doc.get('status')}")
        if "poisoned" not in (doc.get("error") or ""):
            raise ScenarioFailed(
                f"job failed but not as poisoned: {doc.get('error')}")
        if metrics["service"].get("poisoned", 0) != 1:
            raise ScenarioFailed("metrics do not count the poisoned job")
        if not any((run_dir / "run" / "quarantine").glob("*/input.bin")):
            raise ScenarioFailed("no quarantine entry captured the input")
        return job_id

    def _restart_poisoned(self, run_dir, result, job_id) -> None:
        # The verdict must be durable: a restarted (fault-free) server
        # must serve the job as failed without re-enqueueing it.
        with self._serving(run_dir, result, None,
                           "--isolation", "process") as handle:
            _, _, metrics = handle.request("GET", "/v1/metrics")
            status, _, doc = handle.request("GET", f"/v1/jobs/{job_id}")
        if metrics["service"].get("resumed_jobs", 0) != 0:
            raise ScenarioFailed("restart re-enqueued the poisoned job "
                                 "despite its journaled verdict")
        if status != 200 or doc["job"]["status"] != "failed" \
                or not doc["job"].get("poisoned"):
            raise ScenarioFailed(
                f"restarted server lost the poison verdict: {doc}")

    # -- service-enospc-degrade ----------------------------------------------

    def _enospc(self, run_dir, plan, result) -> None:
        """Disk-full degrades the service to read-only; a probe heals it."""
        image = self.images[0]
        with self._serving(run_dir, result, plan, "--isolation", "thread",
                           "--probe-interval", "1") as handle:
            status, headers, doc = handle.request(
                "POST", f"/v1/jobs?tools={','.join(self.tools)}", body=image)
            if status != 503:
                raise ScenarioFailed(f"expected 503 on the faulted write, "
                                     f"got {status}: {doc}")
            if "retry-after" not in headers:
                raise ScenarioFailed("503 carried no Retry-After header")
            status, _, health = handle.request("GET", "/v1/healthz")
            if status != 200 or health.get("health") != "degraded":
                raise ScenarioFailed(
                    f"degradation not visible on /healthz: {status} "
                    f"{health.get('health')}")
            # Past the probe interval, the next write heals the service.
            time.sleep(1.2)
            job_id = _submit(handle, image, self.tools)
            doc = _await_results(handle, [job_id])[job_id]
            _, _, health = handle.request("GET", "/v1/healthz")
        if doc.get("status") != "done":
            raise ScenarioFailed(f"post-recovery job did not complete: {doc}")
        if health.get("health") != "healthy":
            raise ScenarioFailed(f"service stayed {health.get('health')} "
                                 f"after a successful probe")
