"""Which disk cache each analysis path touches, and how often.

- ``evaluate`` (serial and parallel) reads and writes the process
  default cache: shared artifacts plus every tool document except
  naive-endbr's, which is cheaper to recompute than to load.
- A ``serve`` job body (:func:`~repro.eval.analyze.analyze_image`)
  touches only the cache it was handed, and only ``tool.*`` documents —
  every cacheable tool, naive-endbr included, because a warm lookup
  answers without a parse. The process default stays untouched, so one
  tenant's work can never answer another tenant's cold job.
- ``scan`` and quarantine replay touch no cache at all.

Every path puts each tool document at most once per image.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro import obs
from repro.baselines import ALL_DETECTORS
from repro.cache import DiskCache, reset_default_cache, set_default_cache
from repro.cache.disk import ENV_CACHE_DIR
from repro.eval.analyze import CACHE_MISS, analyze_image
from repro.eval.isolation import FailureRecord
from repro.eval.parallel import run_evaluation_parallel
from repro.eval.quarantine import QuarantineStore, replay_entry
from repro.eval.runner import run_evaluation
from repro.ingest.ladder import analyze_binary
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JobManager,
    execute_payload,
)

TOOLS = tuple(ALL_DETECTORS)
TOOL_DOCS = {f"tool.{name}" for name in TOOLS}


@dataclass
class CountingCache(DiskCache):
    """A :class:`DiskCache` that tallies gets and puts per artifact."""

    gets: Counter = field(default_factory=Counter)
    puts: Counter = field(default_factory=Counter)

    def get(self, content_hash, artifact):
        self.gets[artifact] += 1
        return super().get(content_hash, artifact)

    def put(self, content_hash, artifact, doc):
        self.puts[artifact] += 1
        return super().put(content_hash, artifact, doc)

    @property
    def touched(self) -> set[str]:
        return set(self.gets) | set(self.puts)


@pytest.fixture
def default(tmp_path, monkeypatch) -> CountingCache:
    """A counting cache installed as the process default."""
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    cache = CountingCache(tmp_path / "default")
    set_default_cache(cache)
    yield cache
    reset_default_cache()


@pytest.fixture
def runs(monkeypatch) -> Counter:
    """How many times each detector's own logic ran."""
    counts: Counter = Counter()
    for name, cls in ALL_DETECTORS.items():
        original = cls._detect

        def _detect(self, elf, original=original, name=name):
            counts[name] += 1
            return original(self, elf)

        monkeypatch.setattr(cls, "_detect", _detect)
    return counts


def _files(cache: DiskCache) -> set[str]:
    return {p.name.split(".", 1)[1] for p in cache.root.rglob("*.json")}


def test_serve_job_touches_only_its_own_tool_docs(
        tmp_path, sample_binary, default, runs):
    tenant_a = CountingCache(tmp_path / "tenant-a")
    tenant_b = CountingCache(tmp_path / "tenant-b")
    first = analyze_image(sample_binary.data, TOOLS, cache=tenant_a)
    assert first.ok
    assert default.touched == set(), "a serve job used the process cache"
    assert tenant_a.touched <= TOOL_DOCS
    assert tenant_a.puts == Counter(TOOL_DOCS)
    assert tenant_a.gets == Counter(TOOL_DOCS)

    runs.clear()
    second = analyze_image(sample_binary.data, TOOLS, cache=tenant_b)
    assert all(r.cache == CACHE_MISS for r in second.tools.values())
    assert runs == Counter(TOOLS), "a cold job was answered from elsewhere"
    assert tenant_b.puts == Counter(TOOL_DOCS)
    assert default.touched == set()


def test_serve_job_on_the_default_cache_puts_each_doc_once(
        sample_binary, default):
    analyze_image(sample_binary.data, TOOLS, cache=default)
    assert default.touched <= TOOL_DOCS
    assert default.puts == Counter(TOOL_DOCS)
    assert default.gets == Counter(TOOL_DOCS)
    warm = analyze_image(sample_binary.data, TOOLS, cache=default)
    assert warm.warm
    assert default.puts == Counter(TOOL_DOCS)


def test_job_manager_without_a_cache_root_uses_the_default(
        tmp_path, sample_binary, default):
    async def main():
        manager = JobManager(tmp_path / "run", tools=TOOLS)
        await manager.start()
        try:
            job, _ = manager.submit(sample_binary.data)
            for _ in range(3000):
                if job.status in (JOB_DONE, JOB_FAILED):
                    break
                await asyncio.sleep(0.01)
            # Another tenant's submission is answered at submit time.
            warm, _ = manager.submit(sample_binary.data, tenant="other")
            return job, warm
        finally:
            await manager.stop()

    job, warm = asyncio.run(main())
    assert job.status == JOB_DONE
    assert default.puts == Counter(TOOL_DOCS)
    assert warm.status == JOB_DONE and warm.analysis.warm


def test_evaluate_reads_and_writes_the_default_cache(tiny_corpus, default):
    corpus = tiny_corpus[:2]
    report = run_evaluation(
        corpus, {name: ALL_DETECTORS[name]() for name in TOOLS})
    assert not report.failures
    stored = TOOL_DOCS - {"tool.naive-endbr"}
    for doc in stored:
        assert default.puts[doc] == len(corpus), doc
    assert default.puts["tool.naive-endbr"] == 0
    assert default.stats.bypasses == len(corpus)
    assert {"sweep", "plt", "cet"} <= set(default.puts)
    assert max(default.puts.values()) == len(corpus)


def test_parallel_evaluate_writes_what_serial_does(tmp_path, tiny_corpus,
                                                   default):
    corpus = tiny_corpus[:2]
    run_evaluation(corpus, {name: ALL_DETECTORS[name]() for name in TOOLS})
    serial = _files(default)
    parallel = DiskCache(tmp_path / "parallel")
    set_default_cache(parallel)
    run_evaluation_parallel(corpus, list(TOOLS), workers=2)
    assert _files(parallel) == serial


def test_scan_and_replay_touch_no_cache(tmp_path, sample_binary, default):
    path = tmp_path / "image.elf"
    path.write_bytes(sample_binary.data)
    outcome = analyze_binary(path, list(TOOLS))
    assert all(t.ok for t in outcome.tools.values())

    store = QuarantineStore(tmp_path / "q")
    store.capture(sample_binary.data, FailureRecord(
        suite="s", program="p", compiler="gcc", bits=64, pie=True,
        opt="O2", tool="funseeker", phase="detect",
        error_type="RuntimeError", message="boom"))
    [entry] = store.entries()
    [replayed] = replay_entry(entry, timeout=30.0)
    assert not replayed.reproduced
    assert default.touched == set()


def test_process_jobs_share_one_handle_per_cache_root(tmp_path,
                                                      tiny_corpus):
    """Cold jobs on one cache root pay the eviction census once, not
    once per job (``execute_payload`` as a worker process runs it)."""
    root = tmp_path / "tenant"
    previous = obs.set_recorder(obs.CounterRecorder())
    try:
        for i, entry in enumerate(tiny_corpus[:4]):
            blob = tmp_path / f"blob-{i}"
            blob.write_bytes(entry.stripped)
            analysis = execute_payload({"blob": str(blob), "tools": TOOLS,
                                        "cache_root": str(root)})
            assert analysis.ok
        counters = obs.recorder().drain()["counters"]
    finally:
        obs.set_recorder(previous)
    assert counters["cache.stores"] >= 4
    assert counters["cache.evict_scans"] == 1
