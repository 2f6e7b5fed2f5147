"""The asyncio HTTP front end of the analysis service.

Stdlib only: a small hand-rolled HTTP/1.1 server over
``asyncio.start_server`` (no framework dependency is available or
wanted in this repo). One request per connection, JSON in and out,
``Connection: close`` semantics — boring on purpose; every interesting
decision lives in :mod:`repro.service.jobs`.

Routes (see ``docs/service.md`` for the full contract)::

    POST /v1/jobs             submit one binary image (the raw body)
    GET  /v1/jobs/{id}        poll job status
    GET  /v1/jobs/{id}/result fetch the per-tool entry report + receipt
    POST /v1/batch            submit many binaries (JSON, base64 images)
    GET  /v1/batch/{id}       poll a batch
    GET  /v1/healthz          liveness + run-directory identity
    GET  /v1/metrics          repro.obs counters + service gauges

Backpressure contract: a full job queue or an exhausted tenant token
bucket both answer ``429`` with a ``Retry-After`` header the client
can sleep on verbatim. A manager degraded to read-only (disk full) or
draining answers write routes with ``503`` + ``Retry-After`` while GET
routes keep serving.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import os
import signal
import sys
import time
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.cache.disk import valid_namespace
from repro.errors import QueueFullError, ServiceUnavailableError
from repro.service.jobs import JOB_DONE, JOB_FAILED, DEFAULT_TENANT, JobManager
from repro.service.metrics import health_doc, metrics_doc
from repro.service.ratelimit import TenantRateLimiter

#: Submissions larger than this are refused with 413 before buffering.
DEFAULT_MAX_BODY = 64 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Terminate request handling with a specific status + JSON body."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: dict,
                 headers: dict, body: bytes) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    @property
    def tenant(self) -> str:
        return self.headers.get("x-tenant", DEFAULT_TENANT)


class AnalysisService:
    """Binds a :class:`JobManager` to a loopback/LAN HTTP socket."""

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        limiter: TenantRateLimiter | None = None,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.limiter = limiter or TenantRateLimiter(rate=0)
        self.max_body = max_body
        self._server: asyncio.AbstractServer | None = None
        self.started_at = time.time()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Start the manager and the listener; returns the bound address."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        obs.add("service.starts", 1)
        return self.host, self.port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, then drain the manager."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.stop()

    async def serve_until_signal(self) -> int:
        """``funseeker serve``: start, announce, run until SIGINT or
        SIGTERM, stop; returns the exit code.

        The bound address goes to ``<run-dir>/address.json`` and, as the
        machine-readable ``serving on http://host:port`` line that chaos
        and tests parse, to stdout.
        """
        host, port = await self.start()
        manager = self.manager
        (manager.run_dir / "address.json").write_text(json.dumps(
            {"host": host, "port": port, "pid": os.getpid()}),
            encoding="utf-8")
        if manager.resumed:
            print(f"resumed run dir {manager.run_dir}: "
                  f"{manager.stats['restored']} completed jobs restored, "
                  f"{manager.stats['resumed_jobs']} re-enqueued",
                  file=sys.stderr)
        print(f"serving on http://{host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("shutting down: in-flight jobs stay journaled for the next "
              "server on this run dir", file=sys.stderr)
        await self.stop()
        return 0

    # -- connection handling -------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                status, doc, headers = self._route(request)
            except HttpError as exc:
                status = exc.status
                doc = {"error": str(exc)}
                headers = exc.headers
            except Exception as exc:  # noqa: BLE001 — last-resort 500
                obs.add("service.internal_errors", 1)
                status = 500
                doc = {"error": f"{type(exc).__name__}: {exc}"}
                headers = {}
            obs.add("service.requests", 1)
            obs.add(f"service.responses.{status}", 1)
            await self._respond(writer, status, doc, headers)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Request | None:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, "bad Content-Length") from exc
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > self.max_body:
            raise HttpError(
                413, f"body of {length} bytes exceeds the "
                f"{self.max_body}-byte limit")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "truncated body") from exc
        url = urlsplit(target)
        query = dict(parse_qsl(url.query))
        return Request(method, url.path, query, headers, body)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       doc: dict, headers: dict) -> None:
        body = json.dumps(doc, sort_keys=True).encode() + b"\n"
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        try:
            writer.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, OSError):
            obs.add("service.client_disconnects", 1)

    # -- routing -------------------------------------------------------------

    def _route(self, request: Request) -> tuple[int, dict, dict]:
        path = request.path.rstrip("/") or "/"
        if path == "/v1/jobs":
            self._require(request, "POST")
            return self._post_job(request)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                self._require(request, "GET")
                return self._get_result(rest[: -len("/result")])
            self._require(request, "GET")
            return self._get_job(rest)
        if path == "/v1/batch":
            self._require(request, "POST")
            return self._post_batch(request)
        if path.startswith("/v1/batch/"):
            self._require(request, "GET")
            return self._get_batch(path[len("/v1/batch/"):])
        if path == "/v1/healthz":
            self._require(request, "GET")
            return self._healthz()
        if path == "/v1/metrics":
            self._require(request, "GET")
            return self._metrics()
        raise HttpError(404, f"no route for {request.path}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.method} not allowed here",
                headers={"Allow": method})

    def _check_tenant(self, request: Request, cost: float = 1.0) -> str:
        tenant = request.tenant
        if not valid_namespace(tenant):
            raise HttpError(400, f"invalid tenant {tenant!r}")
        allowed, retry_after = self.limiter.acquire(tenant, cost)
        if not allowed:
            obs.add("service.rate_limited", 1)
            raise HttpError(
                429, f"tenant {tenant!r} rate limited",
                headers={"Retry-After": str(int(retry_after))})
        return tenant

    def _tools(self, request: Request,
               from_doc: list | None = None) -> list[str] | None:
        if from_doc is not None:
            if not isinstance(from_doc, list) or not all(
                    isinstance(t, str) for t in from_doc):
                raise HttpError(400, "tools must be a list of strings")
            return from_doc or None
        text = request.query.get("tools", "")
        tools = [t.strip() for t in text.split(",") if t.strip()]
        return tools or None

    # -- handlers ------------------------------------------------------------

    def _post_job(self, request: Request) -> tuple[int, dict, dict]:
        tenant = self._check_tenant(request)
        if not request.body:
            raise HttpError(400, "submit the binary image as the body")
        return self._submit(request.body, tenant, self._tools(request))

    def _submit(self, data: bytes, tenant: str,
                tools: list[str] | None,
                batch_id: str | None = None) -> tuple[int, dict, dict]:
        try:
            job, created = self.manager.submit(
                data, tenant=tenant, tools=tools, batch_id=batch_id)
        except QueueFullError as exc:
            raise HttpError(
                429, str(exc),
                headers={"Retry-After": str(int(exc.retry_after))},
            ) from exc
        except ServiceUnavailableError as exc:
            obs.add("service.unavailable_responses", 1)
            raise HttpError(
                503, str(exc),
                headers={"Retry-After": str(int(exc.retry_after))},
            ) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        status = 200 if job.status == JOB_DONE else 202
        return status, {"job": job.doc(), "created": created}, {}

    def _get_job(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return 200, {"job": job.doc()}, {}

    def _get_result(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        if job.status == JOB_DONE:
            return 200, {
                "job_id": job.job_id,
                "status": job.status,
                "analysis": job.analysis.to_doc(),
                "receipt": job.receipt,
            }, {}
        if job.status == JOB_FAILED:
            return 200, {
                "job_id": job.job_id,
                "status": job.status,
                "error": job.error,
            }, {}
        return 202, {"job": job.doc()}, {}

    def _post_batch(self, request: Request) -> tuple[int, dict, dict]:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"bad JSON body: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(
                doc.get("binaries"), list) or not doc["binaries"]:
            raise HttpError(
                400, 'batch body must be {"binaries": [<base64>, ...]}')
        tenant = self._check_tenant(request, cost=len(doc["binaries"]))
        images: list[bytes] = []
        for i, item in enumerate(doc["binaries"]):
            if not isinstance(item, str):
                raise HttpError(400, f"binaries[{i}] is not base64 text")
            try:
                images.append(base64.b64decode(item, validate=True))
            except (binascii.Error, ValueError) as exc:
                raise HttpError(
                    400, f"binaries[{i}] is not valid base64") from exc
        tools = self._tools(request, doc.get("tools"))
        try:
            batch, jobs = self.manager.submit_batch(
                images, tenant=tenant, tools=tools)
        except QueueFullError as exc:
            raise HttpError(
                429, str(exc),
                headers={"Retry-After": str(int(exc.retry_after))},
            ) from exc
        except ServiceUnavailableError as exc:
            obs.add("service.unavailable_responses", 1)
            raise HttpError(
                503, str(exc),
                headers={"Retry-After": str(int(exc.retry_after))},
            ) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        done = all(j.status == JOB_DONE for j in jobs)
        return (200 if done else 202), {
            "batch": batch.doc(),
            "jobs": [j.doc() for j in jobs],
        }, {}

    def _get_batch(self, batch_id: str) -> tuple[int, dict, dict]:
        batch = self.manager.get_batch(batch_id)
        if batch is None:
            raise HttpError(404, f"unknown batch {batch_id!r}")
        jobs = [self.manager.get(j) for j in batch.job_ids]
        return 200, {
            "batch": batch.doc(),
            "jobs": [j.doc() for j in jobs if j is not None],
        }, {}

    def _healthz(self) -> tuple[int, dict, dict]:
        return 200, health_doc(self.manager, self.started_at), {}

    def _metrics(self) -> tuple[int, dict, dict]:
        return 200, metrics_doc(self.manager, self.started_at), {}
