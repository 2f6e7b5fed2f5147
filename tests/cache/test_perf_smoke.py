"""Tier-1 perf smoke: the cold→warm disk-cache round trip works.

Mirrors the ``fuzz_smoke`` pattern: a fast slice of the performance
machinery runs in every tier-1 sweep, failing on cache-vs-nocache
output divergence, a cache that never actually serves hits, a
vectorized sweep that drifts from the legacy decoder, or an eviction
path that re-walks the cache root per store. Timing itself is *not*
asserted here (tier-1 must stay deterministic); the benchmarks suite
measures and publishes the speedups — the assertions below pin the
*mechanisms* the benchmark numbers depend on.
"""

from __future__ import annotations

import pytest

from repro.baselines import ALL_DETECTORS
from repro.cache import DiskCache, set_default_cache
from repro.elf.parser import ELFFile
from tests.x86.scalar_oracle import scalar_pipeline

pytestmark = pytest.mark.perf_smoke

TOOLS = ("funseeker", "ida", "ghidra", "fetch", "naive-endbr")


def _run_all(data: bytes) -> dict[str, list[int]]:
    elf = ELFFile(data)
    return {
        name: sorted(ALL_DETECTORS[name]().detect(elf).functions)
        for name in TOOLS
    }


def test_cold_warm_round_trip(sample_binary, tmp_path):
    set_default_cache(None)
    baseline = _run_all(sample_binary.data)
    assert any(baseline.values())

    cache = DiskCache(tmp_path / "cache")
    set_default_cache(cache)
    cold = _run_all(sample_binary.data)
    assert cold == baseline, "cold cache run diverged from uncached"
    assert cache.stats.stores > 0, "cold run populated nothing"

    # The deterministic half of the cold <= 1.3x uncached wall-clock
    # guard (the benchmark asserts the wall clock itself): eviction may
    # walk the cache root once to seed its entry-count estimate, never
    # per store — the per-store walk is what made cold runs O(N^2).
    assert cache.stats.evict_scans <= 1, (
        "eviction re-walked the cache root during a cold run"
    )

    warm = _run_all(sample_binary.data)
    assert warm == baseline, "warm cache run diverged from uncached"
    assert cache.stats.hits > 0, "warm run never hit the cache"

    # Every tool's whole-run result must have landed on disk — except
    # detectors cheaper than a cache round trip, which bypass the disk
    # layer (the naive-endbr warm "speedup" of 0.48x) and are tallied.
    census = cache.census()
    assert census["entries"] >= len(TOOLS)
    assert cache.stats.bypasses > 0, "cheap detector never bypassed"
    schema_dir = next((tmp_path / "cache").iterdir())
    assert not list(schema_dir.glob("*.tool.naive-endbr.json")), (
        "bypassed detector still stored a disk entry"
    )


def test_batched_stores_served_and_flushed(sample_binary, tmp_path):
    """A per-binary store batch defers writes but never loses them."""
    cache = DiskCache(tmp_path / "cache")
    set_default_cache(cache)
    try:
        with cache.batch():
            batched = _run_all(sample_binary.data)
            assert cache.census()["entries"] == 0, (
                "stores escaped the batch before flush"
            )
        assert cache.census()["entries"] >= len(TOOLS) - 1
        assert batched == _run_all(sample_binary.data)
    finally:
        set_default_cache(None)


def test_vectorized_matches_legacy(sample_binary):
    """Scaled-down identity check: the five tools agree on the scalar
    oracle index and sweep and on the vectorized ones (the full
    differential lives in tests/x86/test_vector_differential.py)."""
    set_default_cache(None)
    with scalar_pipeline():
        legacy = _run_all(sample_binary.data)
    assert _run_all(sample_binary.data) == legacy
