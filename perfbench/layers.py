"""Exclusive per-layer timing, taken from outside the program.

A traced pass calls each layer's public function itself, in dependency
order, so every shared artifact is built by the call charged to its own
layer before any detector asks for it:

    parse -> x86 decode index -> sweep walk -> exceptions/PLT/CET
          -> each detector -> score

A detector's own time is its ``detect`` call minus the disk-cache
reads and writes made inside it, which the benchmark's timing cache
subclass clocks. No span is added inside the program.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

from repro import obs
from repro.baselines import ALL_DETECTORS
from repro.cache.context import get_context
from repro.cache.disk import DiskCache
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from repro.eval.metrics import score
from repro.x86.defuse import def_use
from repro.x86.superset import clear_index_memo, get_index

from common import TOOLS


class TimingDiskCache(DiskCache):
    """A :class:`DiskCache` that clocks its own reads and writes.

    Inside a ``batch()`` a ``put`` only stages the document; the write
    happens in ``flush``, so both are charged to ``put_s``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.get_s = 0.0
        self.put_s = 0.0

    @property
    def busy_s(self) -> float:
        return self.get_s + self.put_s

    def get(self, content_hash, artifact):
        started = time.perf_counter()
        try:
            return super().get(content_hash, artifact)
        finally:
            self.get_s += time.perf_counter() - started

    def put(self, content_hash, artifact, doc):
        started = time.perf_counter()
        try:
            return super().put(content_hash, artifact, doc)
        finally:
            self.put_s += time.perf_counter() - started

    def flush(self):
        started = time.perf_counter()
        try:
            return super().flush()
        finally:
            self.put_s += time.perf_counter() - started

    def layer_metrics(self) -> dict[str, float]:
        stats = self.stats
        gets = stats.hits + stats.misses
        return {
            "cache.get_s": self.get_s,
            "cache.gets": gets,
            "cache.hit_ratio": stats.hits / gets if gets else 0.0,
            "cache.put_s": self.put_s,
            "cache.puts": stats.stores,
        }


class LayerClock:
    """Seconds and work counts accumulated per layer metric name."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)

    def timed(self, layer: str, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.values[layer] += time.perf_counter() - started


def make_detectors() -> dict:
    return {name: ALL_DETECTORS[name]() for name in TOOLS}


def forget_memos() -> None:
    """Drop the in-process memos a fresh program process starts without."""
    clear_index_memo()
    def_use.cache_clear()
    gc.collect()


def layered_image(clock: LayerClock, data: bytes, detectors: dict, *,
                  prime: bool, cache: TimingDiskCache | None = None,
                  ground_truth: set[int] | None = None) -> dict:
    """Analyse one image layer by layer; returns ``{tool: functions}``.

    ``prime`` builds the shared artifacts up front (the uncached path);
    a warm pass leaves them to the detectors, whose cache reads are
    then charged to the cache layer.
    """
    elf = clock.timed("elf.parse_s", ELFFile, data)
    ctx = get_context(elf)
    if cache is not None:
        clock.timed("cache.hash_s", lambda: ctx.content_hash)
    if prime:
        txt = elf.section(C.SECTION_TEXT)
        if txt is not None and txt.data:
            bits = 64 if elf.is64 else 32
            clock.timed("x86.index_s", get_index, txt.data, bits,
                        txt.sh_addr)
            clock.values["x86.index_bytes"] += len(txt.data)
        sweep = clock.timed("core.sweep_s", ctx.sweep)
        if sweep is not None:
            clock.values["core.sweep_insns"] += sweep.insn_count
        clock.timed("elf.exceptions_s",
                    lambda: (ctx.fde_starts(), ctx.landing_pads()))
        clock.timed("elf.plt_s", ctx.plt_map)
        clock.timed("elf.cet_s", ctx.cet_features)
    found = {}
    for name, detector in detectors.items():
        cache_before = cache.busy_s if cache is not None else 0.0
        started = time.perf_counter()
        functions = detector.detect(elf).functions
        spent = time.perf_counter() - started
        if cache is not None:
            spent -= cache.busy_s - cache_before
        clock.values[f"baselines.{name}_s"] += spent
        found[name] = functions
        if ground_truth is not None:
            clock.timed("eval.score_s", score, ground_truth, functions)
    return found


def traced_pass(images: list[bytes], untraced_wall: float, *,
                prime: bool, cache: TimingDiskCache | None = None,
                truths: list | None = None) -> tuple[dict, list[dict]]:
    """:func:`layered_image` over ``images``; returns the layer metrics
    and each image's entry sets.

    ``untraced_wall`` is the same work's wall without tracing; the
    difference is reported as the tracing overhead.
    """
    forget_memos()
    detectors = make_detectors()
    clock = LayerClock()
    truths = truths or [None] * len(images)
    counters = obs.set_recorder(obs.CounterRecorder())
    started = time.perf_counter()
    try:
        found = [layered_image(clock, data, detectors, prime=prime,
                               cache=cache, ground_truth=truth)
                 for data, truth in zip(images, truths)]
    finally:
        wall = time.perf_counter() - started
        obs.set_recorder(None)
    values = dict(clock.values)
    if cache is not None:
        values.update(cache.layer_metrics())
    values["x86.scalar_fallbacks"] = counters.counters.get(
        "superset.scalar_fallbacks", 0)
    funseeker = values.get("baselines.funseeker_s", 0.0)
    values["baselines.fetch_vs_funseeker"] = (
        values.get("baselines.fetch_s", 0.0) / funseeker if funseeker else 0.0)
    timed = sum(v for k, v in values.items() if k.endswith("_s"))
    values["trace.coverage"] = timed / wall
    values["trace.overhead_pct"] = (
        100.0 * (wall - untraced_wall) / untraced_wall)
    return values, found
