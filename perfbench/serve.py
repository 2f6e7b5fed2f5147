"""The serve-mixed workload: a closed loop of mixed requests to ``repro serve``.

The server runs with its defaults (supervised worker subprocesses) on a
fresh run and cache directory. Before the measured window it analyses a
small warm set; then one client sends a seeded sequence of three request
kinds, one at a time, each as soon as the one before it was answered:

- cold: an image the server has never seen (queue, supervised worker,
  parse plus five detectors, cache put and journal);
- warm: an image of the warm set re-asked for a tool subset through
  ``?tools=`` (a synchronous cache lookup plus a journal append);
- dedup: an exact repeat of an earlier request (no work).

A cold request's latency is its job's ``completed_at - submitted_at``
as the server stamps them, so the client's polling cadence does not
enter it; warm and duplicate requests are answered synchronously and
timed by the client's round trip. The loop is closed rather than
open: at a fixed offered rate, queueing turns a slower host spell into
a several-fold longer wait, which no bound could hold.

The client, the server and its workers share one CPU. Unlike the
table3 workloads, this one reports its times as measured, without
host-speed scaling: the analysis runs in the server's worker processes,
and the client's reference loop, timed between requests, did not
follow their speed (see ``hostspeed``).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.disk import set_default_cache
from repro.elf.parser import ELFFile
from repro.eval.analyze import analyze_image, content_digest
from repro.eval.metrics import Confusion, score

from common import (
    SRC,
    TOOLS,
    WORK,
    EntryLedger,
    GateFailure,
    check_headline,
    load_corpus,
    percentile,
    sha256,
)
from layers import TimingDiskCache, forget_memos, make_detectors, traced_pass

SERVER_SPAWNS = 3
#: Images analysed before the window; warm requests re-ask for them.
WARM_SET = 16
#: Size strata the fresh images are dealt from (see ``size_dealt``).
SIZE_STRATA = 8
#: Relative frequency of each request kind in the sequence.
MIX = {"cold": 14, "warm": 10, "dedup": 4}
#: Seconds between polls of a cold job.
POLL_S = 0.025
#: Seconds a job may take before it counts as failed.
JOB_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Request:
    kind: str
    image: int
    tools: tuple[str, ...] = TOOLS
    status: int = 0
    job: dict = field(default_factory=dict)
    round_trip_ms: float = 0.0

    @property
    def path(self) -> str:
        if self.tools == TOOLS:
            return "/v1/jobs"
        return "/v1/jobs?tools=" + ",".join(self.tools)

    @property
    def finished(self) -> bool:
        return self.job.get("status") in ("done", "failed")


class Server:
    """One ``repro serve`` subprocess on fresh run and cache directories."""

    def __init__(self, workdir: Path, cpus: set[int]) -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        # The program's own REPRO_* switches stay out of the benchmark.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.log = open(workdir / "server.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--run-dir", str(workdir / "run"),
             "--cache-dir", str(workdir / "cache"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        host_port = line.split("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def _ready_line(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("serving on"):
                    return line
                if not line:
                    break
        raise RuntimeError("repro serve did not come up")

    def request(self, method: str, path: str,
                body: bytes = b"") -> tuple[int, dict]:
        """One request on a fresh connection; (0, {}) if it broke."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=body,
                         headers={"Connection": "close"})
            # Read by Content-Length, not to EOF: worker processes
            # forked while a connection is open keep their copy of it.
            response = conn.getresponse()
            payload = response.read()
            return response.status, json.loads(payload) if payload else {}
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its worker processes."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as f:
                        ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                except (OSError, ValueError, IndexError):
                    continue
                if ppid == self.proc.pid:
                    pids.append(int(entry))
        total_kib = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def size_dealt(images: list[int], sizes: list[int],
               rng: random.Random) -> list[int]:
    """``images`` in an order whose every prefix has about the corpus's
    mix of image sizes: ranked by size, cut into :data:`SIZE_STRATA`
    strata, each shuffled, then dealt one from each in turn. A window
    sends only part of the corpus, and the latency tail of a random part
    moves with how many large images it happened to draw."""
    ranked = sorted(images, key=sizes.__getitem__)
    n = len(ranked)
    strata = [ranked[k * n // SIZE_STRATA:(k + 1) * n // SIZE_STRATA]
              for k in range(SIZE_STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    return [image for turn in itertools.zip_longest(*strata)
            for image in turn if image is not None]


def make_sequence(seed: int, fresh: list[int],
                  warm_set: list[int]) -> list[Request]:
    """The seeded request sequence, long enough to use every fresh image.

    A warm request never repeats an earlier (image, tools) pair, or it
    would be a duplicate; a duplicate repeats any earlier request.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    kinds, weights = zip(*MIX.items())
    subsets = [s for n in range(1, len(TOOLS))
               for s in itertools.combinations(TOOLS, n)]
    unused = {i: rng.sample(subsets, len(subsets)) for i in warm_set}
    earlier = [Request("warm-set", i) for i in warm_set]
    fresh_iter = iter(fresh)
    sequence = []
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "cold":
            image = next(fresh_iter, None)
            if image is None:
                return sequence
            req = Request(kind, image)
        elif kind == "warm":
            left = [i for i in warm_set if unused[i]]
            if not left:
                return sequence
            image = rng.choice(left)
            req = Request(kind, image, unused[image].pop())
        else:
            twin = rng.choice(earlier)
            req = Request(kind, twin.image, twin.tools)
        earlier.append(req)
        sequence.append(req)


class ServeMixed:
    def __init__(self, seed: int, limits: dict) -> None:
        self.seed = seed
        self.limits = limits
        corpus = load_corpus(seed)
        # One entry per distinct image; the program sees only the bytes.
        by_sha: dict[str, object] = {}
        for entry in corpus:
            by_sha.setdefault(sha256(entry.stripped), entry)
        self.entries = list(by_sha.values())
        self.shas = list(by_sha)
        rng = random.Random(f"serve-images:{seed}")
        order = rng.sample(range(len(self.entries)), len(self.entries))
        self.warm_set = order[:WARM_SET]
        sizes = [len(e.stripped) for e in self.entries]
        fresh = size_dealt(order[WARM_SET:], sizes, rng)
        self.sequence = make_sequence(seed, fresh, self.warm_set)
        self.ledger = EntryLedger(seed)
        self.workdir = WORK / "tmp" / f"serve-{seed}"
        #: (image, job document) of every completed cold request.
        self.cold_jobs: list[tuple[int, dict]] = []

    def data(self, image: int) -> bytes:
        return self.entries[image].stripped

    # -- the server side ------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> tuple[dict, int, int]:
        set_default_cache(None)
        setups = []
        server = None
        allowed = os.sched_getaffinity(0)
        cpus = {min(allowed)}
        os.sched_setaffinity(0, cpus)
        try:
            for k in range(SERVER_SPAWNS):
                if server is not None:
                    server.stop()
                server = Server(self.workdir / f"server-{k}", cpus)
                setups.append(server.setup_s)
            sent, served = self._traffic(server, seconds)
            rss = server.peak_rss_mb()
            server.stop()
            metrics, failed = self._score(sent, served)
            metrics.update(self._reference(trace))
        finally:
            if server is not None:
                server.stop()
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.sched_setaffinity(0, allowed)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        self.ledger.save()
        return metrics, len(sent), failed

    def _submit(self, server: Server, req: Request) -> None:
        """POST one request and wait until its job finished or timed out."""
        started = time.perf_counter()
        req.status, doc = server.request("POST", req.path,
                                         self.data(req.image))
        req.round_trip_ms = (time.perf_counter() - started) * 1000.0
        req.job = doc.get("job", {})
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while (req.job.get("job_id") and not req.finished
               and time.monotonic() < deadline):
            time.sleep(POLL_S)
            status, doc = server.request("GET",
                                         f"/v1/jobs/{req.job['job_id']}")
            if status == 200:
                req.job = doc["job"]

    def _traffic(self, server: Server,
                 seconds: float) -> tuple[list[Request], dict]:
        """The warm set, then the sequence for ``seconds`` (or until every
        fresh image was sent); returns the requests sent and what the
        server holds for them."""
        for image in self.warm_set:
            req = Request("warm-set", image)
            self._submit(server, req)
            if req.job.get("status") != "done":
                raise RuntimeError("serve-mixed: the warm set did not "
                                   "complete")
        sent = []
        started = time.perf_counter()
        for req in self.sequence:
            if time.perf_counter() - started >= seconds:
                break
            self._submit(server, req)
            sent.append(req)
        results = {}
        for req in sent:
            job_id = req.job.get("job_id")
            if req.kind != "dedup" and job_id and job_id not in results:
                status, doc = server.request("GET",
                                             f"/v1/jobs/{job_id}/result")
                results[job_id] = doc if status == 200 else {}
        _, metrics_doc = server.request("GET", "/v1/metrics")
        return sent, {"results": results, "metrics": metrics_doc}

    # -- what the client saw --------------------------------------------------

    def _score(self, sent: list[Request], served: dict) -> tuple[dict, int]:
        """Latency, limits and failures per request; entry sets to the gate."""
        results = served["results"]
        cold_ms, within, failed = [], 0, 0
        cold_bytes = cold_exec = 0.0
        pooled: dict = {}
        round_trips: dict[str, list[float]] = {"cold": [], "warm": [],
                                               "dedup": []}
        for req in sent:
            job = req.job
            ok = req.status in (200, 202) and job.get("status") == "done"
            # Warm and duplicate requests are answered at submission.
            ok = ok and (req.kind == "cold" or req.status == 200)
            analysis = None
            if ok and req.kind != "dedup":
                analysis = results.get(job["job_id"], {}).get("analysis")
                ok = analysis is not None and all(
                    t.get("functions") is not None
                    for t in analysis["tools"].values())
            if not ok:
                failed += 1
                continue
            round_trips[req.kind].append(req.round_trip_ms)
            if req.kind == "cold":
                latency = (job["completed_at"] - job["submitted_at"]) * 1000.0
                cold_ms.append(latency)
                within += latency <= self.limits["serve-cold"]
            else:
                within += req.round_trip_ms <= self.limits["serve-warm"]
            if req.kind == "dedup":
                continue
            for tool, report in analysis["tools"].items():
                functions = set(report["functions"])
                self.ledger.record(self.shas[req.image], tool, functions,
                                   "serve-mixed served")
                if req.kind == "cold":
                    truth = self.entries[req.image].binary.ground_truth
                    pooled.setdefault(tool, Confusion()).add(
                        score(truth.function_starts, functions))
            if req.kind == "cold":
                cold_bytes += len(self.data(req.image))
                cold_exec += analysis["elapsed_seconds"]
                self.cold_jobs.append((req.image, job))
        if not all(round_trips.values()):
            raise GateFailure("serve-mixed: a request kind never completed")
        check_headline(pooled, "serve-mixed cold requests")
        doc = served["metrics"]
        supervisor = doc.get("supervisor", {})
        service = doc.get("service", {})
        metrics = {
            "analyze_mb_per_s": cold_bytes / 1e6 / cold_exec,
            "p95_ms": percentile(cold_ms, 95),
            "within_limit_frac": within / len(sent),
            "service.submit_cold_ms": percentile(round_trips["cold"], 50),
            "service.submit_warm_ms": percentile(round_trips["warm"], 50),
            "service.submit_dedup_ms": percentile(round_trips["dedup"], 50),
            "service.warm_served": service.get("warm_served", 0),
            "service.deduped": service.get("deduped", 0),
            "supervisor.tasks_completed": supervisor.get("tasks_completed", 0),
            "supervisor.losses": supervisor.get("losses", 0),
            "journal.appends": doc.get("counters", {}).get(
                "journal.appends", 0),
        }
        return metrics, failed

    # -- the same images in-process, after the server stopped -----------------

    def _reference(self, trace: bool) -> dict:
        """Entry sets of the served images computed in-process, the way
        the evaluation runners compute them.

        Traced, this also gives the exclusive layer split of a cold job
        and ``service.exec_ms``: ``analyze_image`` on the same images
        with a fresh cache, as the supervised worker runs it.
        """
        cold = [i for i, _ in self.cold_jobs]
        forget_memos()
        detectors = make_detectors()
        untraced = 0.0
        for image in cold + self.warm_set:
            # The evaluation path: one parse, each detector on it.
            started = time.perf_counter()
            elf = ELFFile(self.data(image))
            found = {t: d.detect(elf).functions for t, d in detectors.items()}
            if image in cold:
                untraced += time.perf_counter() - started
            for tool, functions in found.items():
                self.ledger.record(self.shas[image], tool, functions,
                                   "serve-mixed in-process")
        if not trace:
            return {}

        metrics, _ = traced_pass([self.data(i) for i in cold], untraced,
                                 prime=True)
        root = self.workdir / "exec-cache"
        cache = TimingDiskCache(root)
        exec_ms = {}
        hash_s = 0.0
        try:
            for image in cold:
                data = self.data(image)
                started = time.perf_counter()
                content_digest(data)
                hash_s += time.perf_counter() - started
                started = time.perf_counter()
                analyze_image(data, TOOLS, cache=cache)
                exec_ms[image] = (time.perf_counter() - started) * 1000.0
            metrics.update(cache.layer_metrics())
            metrics["cache.put_bytes"] = cache.census()["total_bytes"]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        metrics["cache.hash_s"] = hash_s
        metrics["service.exec_ms"] = statistics.median(exec_ms.values())
        metrics["service.wait_ipc_ms"] = statistics.median(
            (job["completed_at"] - job["submitted_at"]) * 1000.0
            - exec_ms[image] for image, job in self.cold_jobs)
        return metrics


def run_serve(seed: int, seconds: float, trace: bool, limits: dict,
              machine) -> tuple[dict, int, int]:
    """``machine`` takes no samples here, so the figures stay as
    measured (see the module docstring)."""
    return ServeMixed(seed, limits).run(seconds, trace)
