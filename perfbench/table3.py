"""The two Table III workloads: a regeneration without and with a warm cache.

``table3-uncached`` is what ``evaluate`` runs by default: every detector
computes from the image. ``table3-warm`` repeats the regeneration
against a disk cache that the program filled during set-up, so it
exercises the cache-read path and almost no detector work.

Each measured pass calls ``repro.eval.runner.run_evaluation`` over the
whole corpus with all five detectors, after dropping the in-process
decode-index and def/use memos, so every pass costs what a fresh
``evaluate`` process pays.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.cache.disk import DiskCache, set_default_cache
from repro.eval.runner import run_evaluation

from common import (
    TOOLS,
    WORK,
    EntryLedger,
    GateFailure,
    check_table3,
    dump_pickle,
    load_corpus,
    percentile,
    peak_rss_mb,
    reset_peak_rss,
    sha256,
    without_unstripped,
)
from hostspeed import MachineClock
from layers import TimingDiskCache, forget_memos, make_detectors, traced_pass

#: Set-ups per run; ``setup_s`` is their median. A cache fill is a
#: whole cold regeneration, so there are fewer of them.
COLD_STARTS = 3
FILLS = 2
#: Seconds between host-speed samples during a regeneration.
SAMPLE_EVERY_S = 0.5


class _Recording:
    """Delegates to a detector and keeps its entry set for the gate."""

    def __init__(self, detector, name: str) -> None:
        self.detector = detector
        self.name = name
        self.probe: PassProbe | None = None

    def detect(self, elf):
        result = self.detector.detect(elf)
        self.probe.found[(self.probe.current, self.name)] = result.functions
        return result


class PassProbe:
    """The corpus as ``run_evaluation`` sees it, stamped per image.

    The runner pulls the next entry only after it has finished the
    previous one, so the stamps around each pull give per-image
    latencies. Between images, outside those stamps, it samples the
    host's speed every :data:`SAMPLE_EVERY_S`. The images are visited
    in ``order`` (indices into ``corpus``).
    """

    def __init__(self, corpus: list, order: list[int],
                 machine: MachineClock) -> None:
        self.corpus = corpus
        self.order = order
        self.machine = machine
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sampling_s = 0.0
        self.found: dict[tuple[int, str], set[int]] = {}
        self.current = -1

    def __iter__(self):
        last_sample = time.perf_counter()
        for k, i in enumerate(self.order):
            now = time.perf_counter()
            if k:
                self.ends.append(now)
            if now - last_sample >= SAMPLE_EVERY_S:
                self.sampling_s += self.machine.sample()
                last_sample = time.perf_counter()
            self.current = i
            self.starts.append(time.perf_counter())
            yield self.corpus[i]
        self.ends.append(time.perf_counter())

    def latencies_ms(self) -> dict[int, float]:
        """Each image's latency, by its index in the corpus."""
        return {i: (end - start) * 1000.0
                for i, start, end in zip(self.order, self.starts, self.ends)}

    def complete(self, i: int) -> bool:
        """Whether image ``i`` was answered by every detector."""
        return all((i, tool) in self.found for tool in TOOLS)


class Table3:
    def __init__(self, seed: int, machine: MachineClock) -> None:
        self.seed = seed
        self.machine = machine
        self.corpus = without_unstripped(load_corpus(seed))
        self.shas = [sha256(e.stripped) for e in self.corpus]
        self.megabytes = sum(len(e.stripped) for e in self.corpus) / 1e6
        self.ledger = EntryLedger(seed)
        self.detectors = {name: _Recording(d, name) for name, d in
                          make_detectors().items()}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    # -- one regeneration -----------------------------------------------------

    def regenerate(self, label: str,
                   cache_root: Path | None = None) -> tuple[float, PassProbe]:
        """One serial regeneration; returns its wall time and probe.

        With ``cache_root`` the pass opens that disk cache afresh, as a
        new ``evaluate --cache-dir`` process would. Each pass visits the
        images in its own seeded order: where in a pass the garbage
        collector's pauses land follows the order of the allocations,
        so in a fixed order the same few images would take every pause.
        """
        if cache_root is not None:
            set_default_cache(DiskCache(cache_root))
        forget_memos()
        self.passes += 1
        order = random.Random(f"table3-order:{self.seed}:{self.passes}") \
            .sample(range(len(self.corpus)), len(self.corpus))
        probe = PassProbe(self.corpus, order, self.machine)
        for recording in self.detectors.values():
            recording.probe = probe
        started = time.perf_counter()
        report = run_evaluation(probe, self.detectors)
        wall = time.perf_counter() - started - probe.sampling_s
        self.attempted += len(self.corpus) * len(TOOLS)
        self.failed += len(report.failures)
        for (i, tool), functions in probe.found.items():
            self.ledger.record(self.shas[i], tool, functions, label)
        check_table3({t: report.filtered(tool=t).pooled() for t in TOOLS},
                     self.seed, label)
        return wall, probe

    def traced(self, label: str, untraced_wall: float, *, prime: bool,
               cache: TimingDiskCache | None = None) -> dict:
        """The same regeneration layer by layer; returns layer metrics."""
        self.machine.sample(10)
        metrics, found = traced_pass(
            [e.stripped for e in self.corpus], untraced_wall, prime=prime,
            cache=cache,
            truths=[e.binary.ground_truth.function_starts
                    for e in self.corpus])
        self.machine.sample(10)
        for image_sha, sets in zip(self.shas, found):
            for tool, functions in sets.items():
                self.ledger.record(image_sha, tool, functions, label)
        return metrics

    # -- metrics ----------------------------------------------------------------

    def measure(self, label: str, seconds: float, limit_ms: float,
                cache_root: Path | None = None) -> dict:
        """Regenerate for about ``seconds``: whole passes, at least one,
        stopping when another pass would end further from the target.

        ``p95_ms`` is taken over each image's median latency across the
        passes, so it is the image's own cost: a pause of the garbage
        collector lands on about one image in twenty of a pass, a
        different one each pass, and with the tail taken over single
        samples the 95th percentile would sit on the edge of those.
        ``within_limit_frac`` counts every sample, pauses included.

        ``peak_rss_mb`` is the process's peak resident memory during the
        first pass; what it held before (the interpreter, the program's
        modules and the benchmark's inputs) is ``rss_baseline_mb``.
        Later passes would add only the allocator's leftovers.
        """
        rates: list[float] = []
        per_image: list[list[float]] = [[] for _ in self.corpus]
        answered: list[tuple[float, bool]] = []
        baseline_mb = reset_peak_rss()
        started = time.perf_counter()
        wall = 0.0
        while not rates or time.perf_counter() - started + wall / 2 < seconds:
            wall, probe = self.regenerate(f"{label} pass {len(rates) + 1}",
                                          cache_root)
            if not rates:
                peak_mb = peak_rss_mb()
            rates.append(self.megabytes / wall)
            for i, latency in probe.latencies_ms().items():
                per_image[i].append(latency)
                answered.append((latency, probe.complete(i)))
        # The limit applies to latencies as the reference host reads them.
        slowdown = self.machine.slowdown
        within = sum(1 for latency, ok in answered
                     if ok and latency / slowdown <= limit_ms)
        return {
            "analyze_mb_per_s": statistics.median(rates),
            "p95_ms": percentile([statistics.median(latencies)
                                  for latencies in per_image], 95),
            "within_limit_frac": within / len(answered),
            "peak_rss_mb": peak_mb,
            "rss_baseline_mb": baseline_mb,
        }


def _probe(entries: list, *args: str) -> tuple[float, str]:
    """Run ``setup_probe.py`` on ``entries`` in a fresh process; returns
    its spawn-to-exit wall and what it printed."""
    path = WORK / "tmp" / "probe-entries.pkl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        dump_pickle(entries, f)
    probe = Path(__file__).with_name("setup_probe.py")
    try:
        started = time.perf_counter()
        # A blocking wait: Popen.wait(timeout) polls in 50 ms steps.
        proc = subprocess.Popen([sys.executable, str(probe), str(path),
                                 *args], stdout=subprocess.PIPE, text=True)
        out = proc.communicate()[0]
        wall = time.perf_counter() - started
    finally:
        path.unlink()
    if proc.returncode != 0:
        raise GateFailure(f"setup probe exited with {proc.returncode}")
    return wall, out


def _cold_start_s(entry) -> float:
    """Median spawn-to-exit wall of fresh processes that import the
    program, build the five detectors and regenerate one warm-up image."""
    return statistics.median(_probe([entry])[0]
                             for _ in range(COLD_STARTS))


def _fill_s(corpus: list, root: Path) -> float:
    """Median wall of cold regenerations, each in a fresh process, each
    filling the emptied cache at ``root``; the last fill stays."""
    walls = []
    for _ in range(FILLS):
        shutil.rmtree(root, ignore_errors=True)
        walls.append(float(_probe(corpus, str(root))[1]))
    return statistics.median(walls)


def run_uncached(seed: int, seconds: float, trace: bool, limits: dict,
                 machine: MachineClock) -> tuple[dict, int, int]:
    set_default_cache(None)
    bench = Table3(seed, machine)
    machine.sample(10)
    if trace:
        untraced, _ = bench.regenerate("table3-uncached")
        metrics = bench.traced("table3-uncached traced pass", untraced,
                               prime=True)
    else:
        setup_s = _cold_start_s(bench.corpus[0])
        metrics = bench.measure("table3-uncached", seconds,
                                limits["table3-uncached"])
        metrics["setup_s"] = setup_s
    bench.ledger.save()
    return metrics, bench.attempted, bench.failed


def run_warm(seed: int, seconds: float, trace: bool, limits: dict,
             machine: MachineClock) -> tuple[dict, int, int]:
    bench = Table3(seed, machine)
    machine.sample(10)
    root = WORK / "tmp" / f"cache-{seed}"
    try:
        # Set-up: this program fills an empty cache with a cold
        # regeneration, which the warm passes then read.
        if trace:
            # In-process, so the timing cache clocks the writes.
            shutil.rmtree(root, ignore_errors=True)
            fill_cache = TimingDiskCache(root)
            set_default_cache(fill_cache)
            bench.regenerate("table3-warm fill")
            if fill_cache.stats.stores == 0:
                raise GateFailure("table3-warm: the fill pass stored nothing")
            untraced, _ = bench.regenerate("table3-warm", root)
            cache = TimingDiskCache(root)
            set_default_cache(cache)
            metrics = bench.traced("table3-warm traced pass", untraced,
                                   prime=False, cache=cache)
            fill = fill_cache.layer_metrics()
            metrics["cache.put_s"] = fill["cache.put_s"]
            metrics["cache.puts"] = fill["cache.puts"]
            metrics["cache.put_bytes"] = fill_cache.census()["total_bytes"]
        else:
            # In fresh processes, so this one holds no memory of a cold
            # pass when its peak RSS is taken.
            setup_s = _fill_s(bench.corpus, root)
            metrics = bench.measure("table3-warm", seconds,
                                    limits["table3-warm"], root)
            metrics["setup_s"] = setup_s
    finally:
        set_default_cache(None)
        shutil.rmtree(root, ignore_errors=True)
    bench.ledger.save()
    return metrics, bench.attempted, bench.failed

