"""Microbenchmarks: decoder and detector throughput.

Two kinds of measurement live here:

- conventional pytest-benchmark runs of the hot paths behind Table
  III's timing column (linear sweep, each detector, the superset
  front end) — each round clears the binary's analysis context first,
  so the numbers reflect the *uncached* cost the paper compares;
- the cache trajectory benchmark, which regenerates a multi-detector
  Table III sweep three times (no disk cache / cold cache / warm
  cache), checks the outputs are bit-identical, measures the
  observability subsystem's overhead (tracing on, and the projected
  cost of the disabled null-recorder path), and publishes
  ``BENCH_throughput.json`` at the repo root.
"""

import asyncio
import hashlib
import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.baselines import (
    ALL_DETECTORS,
    FetchLikeDetector,
    FunSeekerDetector,
    GhidraLikeDetector,
    IdaLikeDetector,
)
from repro.cache import DiskCache, set_default_cache
from repro.cache.context import _ATTR as _CTX_ATTR
from repro.core.disassemble import disassemble
from repro.elf.parser import ELFFile
from repro.eval.runner import run_evaluation
from repro.service.jobs import JOB_DONE, JOB_FAILED, JobManager
from repro.synth import CompilerProfile, generate_program, link_program
from repro.x86 import superset

from benchmarks.conftest import bench_scale
from tests.x86.scalar_oracle import scalar_pipeline

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SCHEMA = "bench-throughput/v1"


@pytest.fixture(scope="module")
def big_binary():
    profile = CompilerProfile("gcc", "O2", 64, True)
    spec = generate_program("bench", 300, profile, seed=5, cxx=True)
    return link_program(spec, profile)


@pytest.fixture(scope="module")
def big_elf(big_binary):
    return ELFFile(big_binary.data)


def _cold_detect(detector, elf):
    """Run one detection with a fresh analysis context.

    The in-memory context would otherwise serve memoized sweeps after
    the first benchmark round, and these benchmarks exist to measure
    the real per-tool cost.
    """
    if hasattr(elf, _CTX_ATTR):
        delattr(elf, _CTX_ATTR)
    return detector.detect(elf)


def test_linear_sweep_throughput(benchmark, big_elf):
    txt = big_elf.section(".text")
    result = benchmark(disassemble, txt.data, txt.sh_addr, 64)
    assert result.insn_count > 10000
    benchmark.extra_info["bytes"] = len(txt.data)
    benchmark.extra_info["insns"] = result.insn_count


def test_funseeker_throughput(benchmark, big_elf):
    detector = FunSeekerDetector()
    result = benchmark(_cold_detect, detector, big_elf)
    assert result.functions


def test_funseeker_warm_context_throughput(benchmark, big_elf):
    """The shared-artifact path: repeat identification on one parsed
    binary pays only the E'/C/J' set algebra, not the decode."""
    detector = FunSeekerDetector()
    _cold_detect(detector, big_elf)  # prime the context
    result = benchmark(detector.detect, big_elf)
    assert result.functions


def test_fetch_throughput(benchmark, big_elf):
    detector = FetchLikeDetector()
    result = benchmark(_cold_detect, detector, big_elf)
    assert result.functions


def test_ghidra_throughput(benchmark, big_elf):
    detector = GhidraLikeDetector()
    result = benchmark(_cold_detect, detector, big_elf)
    assert result.functions


def test_ida_throughput(benchmark, big_elf):
    detector = IdaLikeDetector()
    result = benchmark(_cold_detect, detector, big_elf)
    assert result.functions


def test_robust_sweep_throughput(benchmark, big_elf):
    """The superset-validated front end pays a constant-factor cost
    over plain sweep (full-offset viability pass)."""
    from repro.core.disassemble import disassemble_robust
    from repro.x86.superset import clear_index_memo

    txt = big_elf.section(".text")

    def _run():
        clear_index_memo()  # measure the decode-at-every-offset pass
        return disassemble_robust(txt.data, txt.sh_addr, 64)

    result = benchmark(_run)
    assert result.insn_count > 10000


def test_byteweight_throughput(benchmark, big_binary, big_elf):
    from repro.baselines.byteweight_like import (
        ByteWeightLikeDetector,
        train_prefix_tree,
    )

    txt = big_elf.section(".text")
    tree = train_prefix_tree(
        [(txt.data, txt.sh_addr,
          big_binary.ground_truth.function_starts)])
    detector = ByteWeightLikeDetector(tree)
    result = benchmark(_cold_detect, detector, big_elf)
    assert result.functions


# ---------------------------------------------------------------------------
# Cache trajectory: BENCH_throughput.json
# ---------------------------------------------------------------------------

_SWEEP_TOOLS = ("funseeker", "ida", "ghidra", "fetch", "naive-endbr")


def _corpus_texts(corpus) -> list[tuple[bytes, int, int]]:
    """Every entry's ``.text`` image with its base and bitness."""
    texts = []
    for entry in corpus:
        elf = ELFFile(entry.stripped)
        txt = elf.section(".text")
        if txt is not None and txt.data:
            texts.append((bytes(txt.data), txt.sh_addr,
                          64 if elf.is64 else 32))
    return texts


def _sweep_sample(corpus, budget: int = 2_000_000):
    """Largest ``.text`` images until ~`budget` bytes are covered.

    The sweep microbenchmark below runs the scalar decoder at every
    offset, which is slow by design; sampling the big images keeps the
    benchmark under a minute while measuring the same per-byte cost.
    """
    texts = sorted(_corpus_texts(corpus),
                   key=lambda t: len(t[0]), reverse=True)
    sample, total = [], 0
    for text in texts:
        sample.append(text)
        total += len(text[0])
        if total >= budget:
            break
    return sample, total


def _superset_sweep(texts) -> tuple[float, str]:
    """Superset-classify every offset of every image.

    ``build_index`` is called directly (no memo) and the viability
    pass is forced, so scalar and vectorized runs do identical work.
    Returns the wall time and a digest of the length/class tables —
    the identity evidence for the scalar-vs-vectorized comparison
    (hashing happens outside the timed region).
    """
    indexes = []
    started = time.perf_counter()
    for data, addr, bits in texts:
        index = superset.build_index(data, bits, addr)
        _ = index.viable
        indexes.append(index)
    wall = time.perf_counter() - started
    digest = hashlib.sha256()
    for index in indexes:
        digest.update(index.lengths)
        digest.update(index.klasses)
        digest.update(index.viable)
    return wall, digest.hexdigest()


def _table3_sweep(corpus) -> tuple[float, dict]:
    """One serial multi-detector sweep; returns wall time and outcomes."""
    detectors = {name: ALL_DETECTORS[name]() for name in _SWEEP_TOOLS}
    started = time.perf_counter()
    report = run_evaluation(corpus, detectors)
    wall = time.perf_counter() - started
    assert not report.failures, [f.message for f in report.failures]
    per_tool: dict[str, float] = {name: 0.0 for name in _SWEEP_TOOLS}
    outputs: dict[tuple, tuple] = {}
    for rec in report.records:
        per_tool[rec.tool] += rec.elapsed_seconds
        key = (rec.suite, rec.program, rec.compiler, rec.bits, rec.pie,
               rec.opt, rec.tool)
        outputs[key] = (rec.confusion.tp, rec.confusion.fp,
                        rec.confusion.fn)
    return wall, {"per_tool": per_tool, "outputs": outputs}


def _null_op_costs(iterations: int = 200_000) -> tuple[float, float]:
    """Measured per-call cost of the disabled recorder's span and add.

    The disabled path is exactly these two operations sprinkled through
    the pipeline, so (cost × call count) projects the overhead tracing
    support adds to an untraced sweep — stabler than differencing two
    noisy wall-clock runs.
    """
    null = obs.NullRecorder()
    started = time.perf_counter()
    for _ in range(iterations):
        with null.span("x", attr=1):
            pass
    per_span = (time.perf_counter() - started) / iterations
    started = time.perf_counter()
    for _ in range(iterations):
        null.add("x", 1)
    per_add = (time.perf_counter() - started) / iterations
    return per_span, per_add


def _live_op_costs(iterations: int = 100_000) -> tuple[float, float]:
    """Measured per-call cost of an *active* TraceRecorder's span/add.

    Same projection idea as :func:`_null_op_costs`, for the traced run:
    (cost × call count) is the overhead recording actually adds to a
    sweep. Differencing the traced and untraced walls measures the
    same thing in principle, but a few percent of machine drift
    between two ~5 s runs swamps a sub-1% true cost; the projection
    is stable run to run.
    """
    rec = obs.TraceRecorder()
    started = time.perf_counter()
    for _ in range(iterations):
        with rec.span("x", attr=1):
            pass
    per_span = (time.perf_counter() - started) / iterations
    started = time.perf_counter()
    for _ in range(iterations):
        rec.add("x", 1)
    per_add = (time.perf_counter() - started) / iterations
    return per_span, per_add


def test_cache_trajectory_emits_bench_json(corpus, tmp_path):
    total_bytes = sum(len(e.stripped) for e in corpus)

    set_default_cache(None)

    # Legacy reference: the scalar oracle index builder and collection
    # pass. Runs first so the vectorized trajectory below is measured
    # against a cold process (no shared indexes, no def-use memo
    # warm-up).
    with scalar_pipeline():
        legacy_wall, legacy = _table3_sweep(corpus)

    # The superset front end in isolation: classify every offset of the
    # largest images with the scalar decoder, then vectorized. This is
    # the pass the vectorized rewrite targets; the digests prove the
    # two produce bit-identical length/class/viability tables.
    sweep_sample, sweep_bytes = _sweep_sample(corpus)
    with scalar_pipeline():
        sweep_legacy_wall, sweep_legacy_digest = \
            _superset_sweep(sweep_sample)
    sweep_vec_wall, sweep_vec_digest = _superset_sweep(sweep_sample)
    assert sweep_vec_digest == sweep_legacy_digest, \
        "vectorized superset tables diverged from the scalar decoder"
    # The vectorized wall is small enough for scheduler noise to move
    # the ratio; best-of-two, like the trajectory walls below.
    sweep_vec_rerun, _ = _superset_sweep(sweep_sample)
    sweep_vec_wall = min(sweep_vec_wall, sweep_vec_rerun)

    # The uncached / traced / cold walls feed ratio assertions that a
    # couple percent of noise can flip, and machine speed drifts over a
    # minute-long benchmark (page cache, frequency scaling) — a slow
    # first run would bias every ratio the same way. So the three
    # configurations are sampled *interleaved*, once per round, and
    # each wall takes the best of rounds: drift hits all three equally.
    # Each cold round populates its own empty cache directory; the warm
    # run afterwards hits the last round's entries.
    uncached_walls: list[float] = []
    traced_walls: list[float] = []
    cold_walls: list[float] = []
    uncached = traced = cold = None
    recorder = None
    cache = None
    for round_no in range(2):
        wall, out = _table3_sweep(corpus)
        uncached_walls.append(wall)
        uncached = uncached if uncached is not None else out

        rec = obs.set_recorder(obs.TraceRecorder())
        try:
            wall, out = _table3_sweep(corpus)
        finally:
            obs.set_recorder(None)
        traced_walls.append(wall)
        traced = traced if traced is not None else out
        recorder = recorder if recorder is not None else rec

        cache = DiskCache(tmp_path / f"cache-{round_no}")
        set_default_cache(cache)
        wall, out = _table3_sweep(corpus)
        set_default_cache(None)
        cold_walls.append(wall)
        cold = cold if cold is not None else out

    set_default_cache(cache)
    warm_wall, warm = _table3_sweep(corpus)
    set_default_cache(None)
    uncached_wall = min(uncached_walls)
    traced_wall = min(traced_walls)
    cold_wall = min(cold_walls)

    assert uncached["outputs"] == legacy["outputs"], \
        "vectorized sweep diverged from the legacy decoder"
    assert traced["outputs"] == uncached["outputs"], \
        "traced sweep diverged from uncached"
    assert cold["outputs"] == uncached["outputs"], \
        "cold-cache sweep diverged from uncached"
    assert warm["outputs"] == uncached["outputs"], \
        "warm-cache sweep diverged from uncached"
    assert cache.stats.hits > 0
    obs_phase_seconds = recorder.phase_totals()
    span_count = len(recorder.spans)
    assert span_count > 0 and recorder.counters.get("detect.runs")

    def _mbps(wall: float) -> float:
        return total_bytes / 1e6 / wall if wall else 0.0

    per_tool_speedup = {
        name: (uncached["per_tool"][name] / warm["per_tool"][name]
               if warm["per_tool"][name] else float("inf"))
        for name in _SWEEP_TOOLS
    }
    doc = {
        "schema": BENCH_SCHEMA,
        "description": "Table III regeneration: multi-detector serial "
                       "sweep without disk cache, with an empty cache "
                       "(cold), and against the populated cache (warm)",
        "tools": list(_SWEEP_TOOLS),
        "binaries": len(corpus),
        "total_bytes": total_bytes,
        "runs": {
            "legacy": {
                "wall_seconds": round(legacy_wall, 4),
                "mb_per_s": round(_mbps(legacy_wall), 3),
                "per_tool_seconds": {
                    k: round(v, 4)
                    for k, v in legacy["per_tool"].items()},
            },
            "uncached": {
                "wall_seconds": round(uncached_wall, 4),
                "mb_per_s": round(_mbps(uncached_wall), 3),
                "per_tool_seconds": {
                    k: round(v, 4)
                    for k, v in uncached["per_tool"].items()},
            },
            "cold": {
                "wall_seconds": round(cold_wall, 4),
                "mb_per_s": round(_mbps(cold_wall), 3),
                "per_tool_seconds": {
                    k: round(v, 4) for k, v in cold["per_tool"].items()},
            },
            "warm": {
                "wall_seconds": round(warm_wall, 4),
                "mb_per_s": round(_mbps(warm_wall), 3),
                "per_tool_seconds": {
                    k: round(v, 4) for k, v in warm["per_tool"].items()},
            },
        },
        "speedup": {
            "warm_vs_uncached_wall": round(uncached_wall / warm_wall, 2),
            "per_tool_detect": {
                k: round(v, 2) for k, v in per_tool_speedup.items()},
        },
        "identical_outputs": True,
        "vectorized": {
            "wall_seconds": round(uncached_wall, 4),
            "mb_per_s": round(_mbps(uncached_wall), 3),
            "legacy_mb_per_s": round(_mbps(legacy_wall), 3),
            "speedup_vs_legacy_wall": round(
                legacy_wall / uncached_wall, 2) if uncached_wall else 0.0,
            # The superset front end in isolation (classify every
            # offset): this is the pass the rewrite vectorizes, and
            # where the 10-50x target applies. The end-to-end walls
            # above include the per-function detector logic that the
            # decode no longer dominates.
            "sweep": {
                "sample_bytes": sweep_bytes,
                "legacy_wall_seconds": round(sweep_legacy_wall, 4),
                "legacy_mb_per_s": round(
                    sweep_bytes / 1e6 / sweep_legacy_wall, 3)
                    if sweep_legacy_wall else 0.0,
                "wall_seconds": round(sweep_vec_wall, 4),
                "mb_per_s": round(sweep_bytes / 1e6 / sweep_vec_wall, 3)
                    if sweep_vec_wall else 0.0,
                "speedup": round(sweep_legacy_wall / sweep_vec_wall, 2)
                    if sweep_vec_wall else 0.0,
            },
            "identical_outputs": True,
        },
        # census minus "root": the cache lives in a throwaway tmp dir
        # and the committed document must not embed machine paths.
        "cache": {k: v for k, v in cache.census().items() if k != "root"},
    }
    per_span, per_add = _null_op_costs()
    # Counter adds are batched per region (one add per counter name per
    # region, ~3 names), so spans dominate; 3 adds per span is a
    # generous ceiling on the disabled path's call volume.
    disabled_cost = span_count * (per_span + 3 * per_add)
    disabled_overhead_pct = 100.0 * disabled_cost / uncached_wall
    live_span, live_add = _live_op_costs()
    tracing_cost = span_count * (live_span + 3 * live_add)
    tracing_overhead_pct = 100.0 * tracing_cost / uncached_wall
    doc["obs"] = {
        "traced_wall_seconds": round(traced_wall, 4),
        # Raw wall difference, informational only: with ~8k spans per
        # sweep the true recording cost is well under 1%, so this
        # number is dominated by machine drift and can land anywhere
        # within a few percent of zero (negative included).
        "traced_vs_uncached_wall_pct": round(
            100.0 * (traced_wall - uncached_wall) / uncached_wall, 2),
        "tracing_overhead_pct": round(tracing_overhead_pct, 4),
        "span_count": span_count,
        "null_span_ns": round(per_span * 1e9, 1),
        "null_add_ns": round(per_add * 1e9, 1),
        "live_span_ns": round(live_span * 1e9, 1),
        "live_add_ns": round(live_add * 1e9, 1),
        "disabled_overhead_pct": round(disabled_overhead_pct, 4),
        "phase_seconds": {
            k: round(v, 4) for k, v in sorted(obs_phase_seconds.items())},
    }
    assert disabled_overhead_pct < 2.0, \
        "disabled-path observability overhead above the 2% bar"
    out = REPO_ROOT / "BENCH_throughput.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out}")
    print(f"warm-vs-uncached wall speedup: "
          f"{doc['speedup']['warm_vs_uncached_wall']}x")
    print(f"vectorized-vs-legacy wall speedup: "
          f"{doc['vectorized']['speedup_vs_legacy_wall']}x "
          f"(superset sweep: {doc['vectorized']['sweep']['speedup']}x)")
    assert uncached_wall / warm_wall >= 3.0, \
        "warm-cache Table III regeneration below the 3x bar"
    # The 10x bar applies to the pass the rewrite vectorizes — the
    # superset sweep classifying every offset — and is calibrated for
    # the Table III corpus (the default "small" scale); the "tiny"
    # iteration corpus is dominated by per-call fixed costs. The
    # end-to-end wall improves by a smaller factor because the
    # remaining time is per-function detector logic, not decode.
    if bench_scale() != "tiny":
        assert sweep_legacy_wall / sweep_vec_wall >= 10.0, \
            "vectorized superset sweep below the 10x-vs-scalar bar"
        assert legacy_wall / uncached_wall >= 2.0, \
            "vectorized end-to-end sweep below the 2x-vs-legacy bar"
    assert cold_wall <= 1.3 * uncached_wall, \
        "cold-cache sweep above 1.3x the uncached wall clock"
    # Projected from measured per-op recording cost × span count; the
    # raw traced-vs-uncached wall difference is reported alongside but
    # not asserted on (drift-dominated, see _live_op_costs).
    assert doc["obs"]["tracing_overhead_pct"] < 2.0, \
        "traced sweep overhead above the documented 2% bound"


# ---------------------------------------------------------------------------
# Service latency: the "service" section of BENCH_throughput.json
# ---------------------------------------------------------------------------

_SERVICE_TOOLS = _SWEEP_TOOLS
_SERVICE_IMAGE_CAP = 16
_WARM_ROUNDS = 5


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


async def _cold_service_run(run_dir, cache_root, images,
                            isolation="thread"):
    """Submit every image to a fresh manager over an empty cache."""
    manager = JobManager(
        run_dir, tools=list(_SERVICE_TOOLS), cache_root=cache_root,
        queue_size=len(images) + 8, executor_workers=2,
        isolation=isolation)
    await manager.start()
    started = time.perf_counter()
    jobs = [manager.submit(image)[0] for image in images]
    while any(j.status not in (JOB_DONE, JOB_FAILED) for j in jobs):
        await asyncio.sleep(0.005)
    wall = time.perf_counter() - started
    failed = [j for j in jobs if j.status == JOB_FAILED]
    assert not failed, [j.error for j in failed]
    await manager.stop()
    return wall


def test_service_warm_lookup_emits_bench_section(corpus, tmp_path):
    """Measure the job API's warm path and merge it into the bench doc.

    A cold run populates a tenant cache namespace through the service's
    own execution path, then repeated fresh managers (a new run
    directory per round defeats job dedup; the shared cache root keeps
    the namespace warm) time ``submit()`` — on the warm path a
    submission completes synchronously from disk artifacts, with no
    parse and no executor hop, so each call's wall time IS the
    warm-lookup latency a client would see.
    """
    # Largest images first (like _sweep_sample): the isolation
    # comparison below divides a per-job IPC constant by per-job
    # compute, and the corpus's smallest entries analyze in ~1ms.
    images, seen = [], set()
    for entry in sorted(corpus, key=lambda e: len(e.stripped),
                        reverse=True):
        sha = hashlib.sha256(entry.stripped).hexdigest()
        if sha in seen:
            continue
        seen.add(sha)
        images.append(entry.stripped)
        if len(images) >= _SERVICE_IMAGE_CAP:
            break
    assert images

    # The cold workload through both executors — the in-process thread
    # pool and supervised worker subprocesses. Crash containment and
    # enforced deadlines must not tax the happy path: fork-spawned
    # workers are reused across jobs, so the steady state pays only
    # payload pickling and a pipe round trip per job. Interleaved
    # best-of-two, like the trajectory walls above: the walls are short
    # enough for scheduler noise to flip a ratio assertion. Every round
    # gets a fresh run dir (defeats dedup) and an empty cache namespace
    # (keeps it genuinely cold); round 0's thread cache doubles as the
    # warm namespace the lookup rounds below hit.
    cache_root = tmp_path / "service-cache"
    thread_walls: list[float] = []
    supervised_walls: list[float] = []
    for round_no in range(2):
        thread_cache = cache_root if round_no == 0 \
            else tmp_path / f"thread-cache-{round_no}"
        thread_walls.append(asyncio.run(_cold_service_run(
            tmp_path / f"cold-{round_no}", thread_cache, images)))
        supervised_walls.append(asyncio.run(_cold_service_run(
            tmp_path / f"cold-supervised-{round_no}",
            tmp_path / f"supervised-cache-{round_no}", images,
            isolation="process")))
    cold_wall = min(thread_walls)
    supervised_wall = min(supervised_walls)
    isolation_overhead_pct = (
        100.0 * (supervised_wall - cold_wall) / cold_wall)
    assert isolation_overhead_pct < 20.0, \
        "supervised process isolation above the 20% overhead budget"

    latencies: list[float] = []
    warm_started = time.perf_counter()
    for round_no in range(_WARM_ROUNDS):
        manager = JobManager(
            tmp_path / f"warm-{round_no}",
            tools=list(_SERVICE_TOOLS), cache_root=cache_root,
            queue_size=len(images) + 8)
        try:
            for image in images:
                started = time.perf_counter()
                job, created = manager.submit(image)
                latencies.append(time.perf_counter() - started)
                assert created and job.status == JOB_DONE
                assert job.analysis.warm, \
                    "warm submission fell through to a full analysis"
        finally:
            asyncio.run(manager.stop())
    warm_wall = time.perf_counter() - warm_started

    cold_per_job = cold_wall / len(images)
    warm_p50 = _percentile(latencies, 0.50)
    assert warm_p50 < cold_per_job, \
        "warm lookups are no faster than cold analyses"

    out = REPO_ROOT / "BENCH_throughput.json"
    doc = json.loads(out.read_text()) if out.exists() \
        else {"schema": BENCH_SCHEMA}
    doc["service"] = {
        "description": "analysis job API: cold submissions executed "
                       "through the service worker path, then "
                       "warm-lookup submissions served synchronously "
                       "from the populated tenant cache",
        "tools": list(_SERVICE_TOOLS),
        "binaries": len(images),
        "warm_rounds": _WARM_ROUNDS,
        "cold": {
            "wall_seconds": round(cold_wall, 4),
            "jobs_per_s": round(len(images) / cold_wall, 2),
        },
        "isolation": {
            "description": "the cold workload repeated through "
                           "supervised worker subprocesses (enforced "
                           "deadlines, crash containment) vs the "
                           "in-process thread executor",
            "thread_wall_seconds": round(cold_wall, 4),
            "supervised_wall_seconds": round(supervised_wall, 4),
            "supervised_jobs_per_s": round(
                len(images) / supervised_wall, 2),
            "overhead_pct": round(isolation_overhead_pct, 2),
        },
        "warm_lookup": {
            "submissions": len(latencies),
            "p50_ms": round(warm_p50 * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "jobs_per_s": round(len(latencies) / warm_wall, 1),
            "speedup_vs_cold": round(
                cold_per_job / (warm_wall / len(latencies)), 1),
        },
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out} (service section)")
    print(f"supervised isolation overhead "
          f"{doc['service']['isolation']['overhead_pct']}% "
          f"over the thread executor (cold)")
    print(f"warm-lookup p50 {doc['service']['warm_lookup']['p50_ms']}ms "
          f"p99 {doc['service']['warm_lookup']['p99_ms']}ms, "
          f"{doc['service']['warm_lookup']['jobs_per_s']} jobs/s "
          f"({doc['service']['warm_lookup']['speedup_vs_cold']}x cold)")
