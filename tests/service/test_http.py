"""HTTP contract tests over a real loopback server.

Everything here goes through genuine TCP sockets against the running
asyncio server — no handler is called directly.
"""

from __future__ import annotations

import base64
import json
import socket

import pytest

from repro.service.ratelimit import TenantRateLimiter

from .conftest import StallExecutor

TOOLS = ["funseeker", "fetch"]


@pytest.mark.service_smoke
def test_submit_poll_result_roundtrip(tmp_path, loopback, sample_image):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": TOOLS,
                                      "cache_root": tmp_path / "cache"})
    status, _, doc = server.request(
        "POST", "/v1/jobs?tools=funseeker,fetch", body=sample_image)
    assert status in (200, 202)
    assert doc["created"] is True
    job_id = doc["job"]["job_id"]

    status, _, polled = server.request("GET", f"/v1/jobs/{job_id}")
    assert status == 200
    assert polled["job"]["job_id"] == job_id

    result = server.wait_result(job_id)
    assert result["status"] == "done"
    analysis = result["analysis"]
    assert analysis["schema"] == "image-analysis/v1"
    assert set(analysis["tools"]) == set(TOOLS)
    for report in analysis["tools"].values():
        assert report["functions"], "every tool found entry points"
    receipt = result["receipt"]
    assert receipt["schema"] == "job-receipt/v1"
    assert receipt["image"]["sha256"] == analysis["sha256"]


@pytest.mark.service_smoke
def test_duplicate_submission_returns_same_job(tmp_path, loopback,
                                               sample_image):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": TOOLS,
                                      "cache_root": tmp_path / "cache"})
    _, _, first = server.request(
        "POST", "/v1/jobs?tools=funseeker,fetch", body=sample_image)
    job_id = first["job"]["job_id"]
    server.wait_result(job_id)

    status, _, second = server.request(
        "POST", "/v1/jobs?tools=funseeker,fetch", body=sample_image)
    assert status == 200  # already done
    assert second["created"] is False
    assert second["job"]["job_id"] == job_id

    _, _, metrics = server.request("GET", "/v1/metrics")
    service = metrics["service"]
    assert service["submitted"] == 1, "exactly one analysis was performed"
    assert service["deduped"] == 1
    assert service["completed"] == 1


@pytest.mark.service_smoke
def test_rate_limit_answers_429_with_retry_after(tmp_path, loopback,
                                                 sample_image):
    server = loopback(
        tmp_path / "run",
        manager_kwargs={"tools": TOOLS},
        limiter=TenantRateLimiter(rate=0.001, burst=1.0),
    )
    status, _, _ = server.request("POST", "/v1/jobs", body=sample_image)
    assert status in (200, 202)
    status, headers, doc = server.request(
        "POST", "/v1/jobs", body=b"another-image")
    assert status == 429
    assert int(headers["retry-after"]) >= 1
    assert "rate limited" in doc["error"]
    # A different tenant is not throttled by the first one's bucket.
    status, _, _ = server.request(
        "POST", "/v1/jobs", body=b"\x7fELF-third",
        headers={"X-Tenant": "other"})
    assert status in (200, 202)


@pytest.mark.service_smoke
def test_full_queue_answers_429_backpressure(tmp_path, loopback):
    server = loopback(
        tmp_path / "run",
        manager_kwargs={"tools": ["fetch"], "queue_size": 1,
                        "executor": StallExecutor()},
    )
    _, _, first = server.request("POST", "/v1/jobs", body=b"image-one")
    server.wait_status(first["job"]["job_id"], "running")
    status, _, _ = server.request("POST", "/v1/jobs", body=b"image-two")
    assert status == 202
    status, headers, doc = server.request(
        "POST", "/v1/jobs", body=b"image-three")
    assert status == 429
    assert int(headers["retry-after"]) >= 1
    assert "queue full" in doc["error"]


def test_batch_endpoint(tmp_path, loopback, sample_image,
                        sample_c_binary):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": TOOLS,
                                      "cache_root": tmp_path / "cache"})
    body = json.dumps({
        "binaries": [
            base64.b64encode(sample_image).decode(),
            base64.b64encode(sample_c_binary.data).decode(),
        ],
        "tools": TOOLS,
    }).encode()
    status, _, doc = server.request("POST", "/v1/batch", body=body)
    assert status in (200, 202)
    batch_id = doc["batch"]["batch_id"]
    assert len(doc["jobs"]) == 2
    results = [server.wait_result(j["job_id"]) for j in doc["jobs"]]
    assert all(r["status"] == "done" for r in results)
    status, _, polled = server.request("GET", f"/v1/batch/{batch_id}")
    assert status == 200
    assert all(j["status"] == "done" for j in polled["jobs"])
    assert polled["batch"]["pending"] == 0


def test_error_paths(tmp_path, loopback, sample_image):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": ["fetch"]},
                      max_body=1024)
    status, _, _ = server.request("GET", "/v1/jobs/nope/result")
    assert status == 404
    status, _, _ = server.request("GET", "/v1/nothing-here")
    assert status == 404
    status, headers, _ = server.request("GET", "/v1/jobs")
    assert status == 405
    assert headers["allow"] == "POST"
    status, _, doc = server.request("POST", "/v1/jobs", body=b"")
    assert status == 400
    status, _, _ = server.request("POST", "/v1/jobs", body=b"x" * 2048)
    assert status == 413
    status, _, _ = server.request(
        "POST", "/v1/jobs", body=b"x",
        headers={"X-Tenant": "bad/../tenant"})
    assert status == 400
    status, _, doc = server.request(
        "POST", "/v1/jobs?tools=not-a-tool", body=b"x")
    assert status == 400
    assert "unknown tools" in doc["error"]
    status, _, _ = server.request("POST", "/v1/batch", body=b"not json")
    assert status == 400
    status, _, _ = server.request(
        "POST", "/v1/batch",
        body=json.dumps({"binaries": ["!!! not base64 !!!"]}).encode())
    assert status == 400


def test_healthz_and_metrics_shape(tmp_path, loopback):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": ["fetch"]})
    status, _, health = server.request("GET", "/v1/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["resumed"] is False
    assert health["jobs"] == {"queued": 0, "running": 0, "done": 0,
                              "failed": 0}
    status, _, metrics = server.request("GET", "/v1/metrics")
    assert status == 200
    assert "counters" in metrics
    for key in ("submitted", "deduped", "warm_served", "completed",
                "failed", "rejected_queue_full", "queue_depth"):
        assert key in metrics["service"]


def test_failed_job_reports_error(tmp_path, loopback):
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": ["fetch"]})
    status, _, doc = server.request(
        "POST", "/v1/jobs", body=b"this is not an ELF at all")
    assert status == 202
    result = server.wait_result(doc["job"]["job_id"])
    # A malformed image is still a *completed* analysis: every tool
    # reports a parse-phase failure, the job itself does not fail.
    assert result["status"] == "done"
    report = result["analysis"]["tools"]["fetch"]
    assert report["functions"] is None
    assert report["phase"] == "parse"


@pytest.mark.service_smoke
def test_response_reaches_eof_across_worker_fork(tmp_path, loopback,
                                                 sample_image):
    """A worker forked while a client connection is open must not keep
    that socket: the client still reads its response to EOF."""
    server = loopback(tmp_path / "run",
                      manager_kwargs={"tools": ["funseeker"],
                                      "isolation": "process"})
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as held:
        held.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n")
        # The first job forks the first worker while ``held`` is open.
        _, _, doc = server.request("POST", "/v1/jobs", body=sample_image)
        assert server.wait_result(doc["job"]["job_id"])["status"] == "done"
        held.sendall(b"\r\n")
        response = b""
        while chunk := held.recv(65536):   # a held socket times out here
            response += chunk
    assert response.startswith(b"HTTP/1.1 200")
