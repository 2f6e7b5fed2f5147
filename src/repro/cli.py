"""Command-line interface: ``funseeker <command> ...``.

Also invocable as ``python -m repro``; ``funseeker --help`` and
``funseeker <command> --help`` list the surface, which
:func:`build_parser` declares in one place. An option shared by several
commands is declared once, in :data:`SHARED`, and a command takes only
the options it honours, so argparse refuses any other with exit 2.
A value or combination a command cannot honour raises
:class:`UsageError`, which is exit 2 too. Handlers import their
machinery lazily, so start-up stays cheap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

SCALES = ("tiny", "small", "full")
EVALUATE_TOOLS = ("funseeker", "ida", "ghidra", "fetch")


class UsageError(Exception):
    """An option value or combination the command refuses (exit 2)."""


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        return 0


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------


def _bounded(kind, *, zero: bool = False):
    """An argparse type: a finite ``kind`` above zero (or at least zero)."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {'>= 0' if zero else '> 0'}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int"
    return parse


POSITIVE_INT = _bounded(int)
POSITIVE_FLOAT = _bounded(float)
COUNT = _bounded(int, zero=True)
RATE = _bounded(float, zero=True)


#: Every option that several commands take, declared once. A command
#: names the ones it honours; ``set_defaults`` adjusts a default.
SHARED = {
    "binary": {},
    "--seed": dict(type=int, default=2022,
                   help="generator seed (default %(default)s)"),
    "--scale": dict(default="tiny", choices=SCALES,
                    help="synthetic corpus scale (default %(default)s)"),
    "--tools": dict(help="comma-separated detector names (default: the "
                         "command's own set)"),
    "--cache-dir": dict(help="content-addressed analysis cache directory "
                             "(default: $REPRO_CACHE_DIR, else none)"),
    "--timeout": dict(type=POSITIVE_FLOAT,
                      help="wall-clock seconds per analysis cell"),
    "--workers": dict(type=POSITIVE_INT,
                      help="worker count (evaluate and scan: the CPU count "
                           "by default, 1 runs in-process; serve: 2)"),
    "--max-rss-mb": dict(type=POSITIVE_INT, help="address-space ceiling "
                                                 "per worker process, MiB"),
    "--retries": dict(type=COUNT, default=0, help="extra attempts for a "
                                                  "raising cell (default 0)"),
    "--run-dir": dict(help="journal every decision into this fresh run "
                           "directory (crash-safe, resumable)"),
    "--resume": dict(metavar="RUN_DIR",
                     help="resume a journaled run: keep decided work, retry "
                          "journaled failures, refuse a mismatched manifest"),
    "--fault-plan": dict(help="inject deterministic faults, e.g. "
                              "'kill@cell.execute#5' (also "
                              "$REPRO_FAULT_PLAN)"),
    "--breaker-threshold": dict(type=COUNT, default=0,
                                help="open a circuit after N consecutive "
                                     "failures (default %(default)s)"),
    "--trace": dict(help="write a JSONL observability trace (spans + "
                         "counters) to PATH"),
    "--limit": dict(type=COUNT, help="stop after N items (default "
                                     "%(default)s; 0 = all)"),
    "--output": dict(default="-", help="output path, '-' for stdout"),
    "--dir": dict(dest="quarantine_dir", required=True,
                  help="quarantine directory (evaluate --quarantine)"),
    "--sha": dict(help="only the entry whose sha256 starts with this"),
}
CORPUS = ("--seed", "--scale")
POOL = ("--timeout", "--workers", "--max-rss-mb")
JOURNAL = ("--run-dir", "--resume")
FAULTS = ("--fault-plan", "--breaker-threshold")
STORE = ("--dir", "--sha")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funseeker",
        description="FunSeeker reproduction (DSN 2022): CET-aware "
                    "function identification and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *options, into=sub, **defaults):
        p = into.add_parser(name, help=help, description=help)
        for option in options:
            p.add_argument(option, **SHARED[option])
        p.set_defaults(handler=handler, **defaults)
        return p

    p = command("identify", _cmd_identify, "identify functions in a binary",
                "binary")
    p.add_argument("--config", type=int, default=4, choices=[1, 2, 3, 4],
                   help="FunSeeker configuration (Table II), default 4")
    p.add_argument("--robust", action="store_true",
                   help="use the superset-validated front end "
                        "(tolerates data embedded in .text)")
    command("cfg", _cmd_cfg,
            "recover per-function CFGs and call-graph stats", "binary")
    command("disasm", _cmd_disasm, "linear-sweep disassembly listing of "
            ".text", "binary", "--limit", limit=80)
    command("compare", _cmd_compare, "run all detectors on a binary",
            "binary")
    command("report", _cmd_report,
            "machine-readable JSON analysis of one binary", "binary")
    for name in ("table1", "table2", "table3", "figure3", "errors", "all"):
        command(name, _cmd_table,
                f"regenerate the paper's {name} on a synthetic corpus",
                *CORPUS, "--cache-dir")
    command("bti-demo", _cmd_bti_demo,
            "ARM BTI extension demonstration (§VI)")
    command("dataset", _cmd_dataset,
            "generate and save the benchmark dataset to disk",
            *CORPUS).add_argument("directory")
    command("corpus-info", _cmd_corpus_info,
            "summarize the synthetic corpus composition", *CORPUS)

    p = command("evaluate", _cmd_evaluate,
                "run detectors over the corpus and export raw results",
                *CORPUS, "--tools", "--cache-dir", *POOL, "--retries",
                *JOURNAL, *FAULTS, "--trace", "--output")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--fail-fast", action="store_true",
                   help="abort the sweep on the first failed cell "
                        "(default: keep going and report failures)")
    p.add_argument("--quarantine", metavar="DIR",
                   help="capture failing inputs (stripped image + "
                        "failure metadata) into DIR for replay")

    p = command("scan", _cmd_scan,
                "fleet-scan real-world binaries under directory roots: "
                "triage, degradation-ladder analysis, crash-safe journal, "
                "CET adoption + tool-agreement fleet report",
                "--tools", *POOL, *JOURNAL, *FAULTS, "--limit", "--output",
                breaker_threshold=5)
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.add_argument("roots", nargs="*",
                   help="directories (or files) to scan; omit when "
                        "resuming (the journal remembers them)")
    p.add_argument("--include", action="append", default=[], metavar="GLOB",
                   help="only scan entries matching this fnmatch glob "
                        "(repeatable; name or relative path)")
    p.add_argument("--exclude", action="append", default=[], metavar="GLOB",
                   help="skip entries matching this glob (repeatable; "
                        "prunes whole directories)")

    command("profile", _cmd_profile,
            "per-phase timing and counter profile of one binary",
            "binary", "--tools", "--trace").add_argument(
        "--json", action="store_true",
        help="machine-readable summary instead of a table")

    command("cache", _cmd_cache,
            "inspect or clear the on-disk analysis-artifact cache "
            "(default .repro-cache)", "--cache-dir").add_argument(
        "action", choices=["stats", "clear"])

    p = command("fuzz", _cmd_fuzz,
                "fault-injection harness: mutate synthesized ELFs and "
                "assert no uncaught exception / hang / silent degradation",
                "--seed", "--timeout")
    p.add_argument("--budget", type=POSITIVE_INT, default=500,
                   help="number of mutants (default 500)")
    p.add_argument("--families",
                   help="comma-separated mutator families (default: all)")

    actions = command(
        "quarantine", _cmd_quarantine,
        "inspect or replay inputs captured from failing cells",
    ).add_subparsers(dest="action", required=True)
    command("list", _cmd_quarantine, "list the captured inputs", *STORE,
            into=actions)
    command("replay", _cmd_quarantine,
            "re-run each captured input's failing cells", *STORE,
            "--timeout", into=actions, timeout=30.0)

    p = command("chaos", _cmd_chaos,
                "crash-safety acceptance: run seeded fault scenarios and "
                "assert every run resumes to the fault-free report",
                *CORPUS, "--tools", "--limit", scale=None)
    p.add_argument("--work-dir",
                   help="keep run directories here for post-mortem "
                        "(default: a temp dir, removed on success)")
    drivers = p.add_mutually_exclusive_group()
    drivers.add_argument("--ingest", action="store_true",
                         help="the fleet-scan scenarios over a hostile "
                              "fixture tree instead of evaluate's")
    drivers.add_argument("--service", action="store_true",
                         help="the analysis-service scenarios instead of "
                              "evaluate's")

    p = command("serve", _cmd_serve,
                "run the analysis job API: POST binaries, poll jobs, "
                "fetch per-tool entry reports with provenance receipts",
                "--tools", "--cache-dir", *POOL, "--retries", workers=2)
    p.add_argument("--run-dir", required=True,
                   help="journal + blob directory; restarting on the "
                        "same directory resumes in-flight jobs")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = OS-assigned; the bound "
                        "address is printed and written to address.json)")
    p.add_argument("--queue-size", type=POSITIVE_INT, default=64,
                   help="bounded job queue depth (default 64); a full "
                        "queue answers 429 + Retry-After")
    p.add_argument("--rate", type=RATE, default=0.0,
                   help="per-tenant submissions/second (default 0 = "
                        "unlimited)")
    p.add_argument("--burst", type=POSITIVE_FLOAT,
                   help="per-tenant burst size (default: --rate); needs "
                        "--rate")
    p.add_argument("--max-body-mb", type=POSITIVE_INT, default=64,
                   help="largest accepted submission (default 64)")
    p.add_argument("--isolation", default="process",
                   choices=["process", "thread"],
                   help="run analysis cells in supervised worker "
                        "subprocesses (default) or in-process threads")
    p.add_argument("--backstop", type=POSITIVE_FLOAT,
                   help="seconds past a job's budget before the supervisor "
                        "kills the worker (process isolation; default 30)")
    p.add_argument("--poison-threshold", type=POSITIVE_INT, default=3,
                   help="worker losses on one job before it is poisoned "
                        "and quarantined (default 3)")
    p.add_argument("--probe-interval", type=POSITIVE_FLOAT, default=30.0,
                   help="seconds between write probes while the service "
                        "is degraded read-only (default 30)")
    return parser


# ---------------------------------------------------------------------------
# Steps shared by the handlers
# ---------------------------------------------------------------------------


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _tools(args, default: tuple[str, ...] | None) -> list[str] | None:
    """``--tools`` as a list of known detectors, else ``default``."""
    from repro.baselines import ALL_DETECTORS

    if args.tools is None:
        return None if default is None else list(default)
    tools = _split_csv(args.tools)
    if not tools:
        raise UsageError("--tools names no detector")
    unknown = [t for t in tools if t not in ALL_DETECTORS]
    if unknown:
        raise UsageError(f"unknown detectors: {unknown} "
                         f"(known: {sorted(ALL_DETECTORS)})")
    return tools


def _cache_dir(args, fallback: str | None = None) -> str | None:
    """``--cache-dir``, else ``$REPRO_CACHE_DIR``, else ``fallback``."""
    from repro.cache.disk import ENV_CACHE_DIR

    return args.cache_dir or os.environ.get(ENV_CACHE_DIR) or fallback


def _configure_cache(args) -> None:
    """Opt the process into the disk cache when a directory is given."""
    cache_dir = _cache_dir(args)
    if cache_dir:
        from pathlib import Path

        from repro.cache import DiskCache, set_default_cache

        set_default_cache(DiskCache(Path(cache_dir)))


def _journal_dir(args) -> str | None:
    """The ``--resume`` or ``--run-dir`` directory; never both."""
    if args.run_dir and args.resume:
        raise UsageError("--run-dir starts a fresh journal, --resume "
                         "continues one; pass exactly one of them")
    return args.resume or args.run_dir


def _breaker(args):
    """A circuit breaker opening at ``--breaker-threshold``; none at 0."""
    from repro.eval.breaker import CircuitBreaker

    n = args.breaker_threshold
    return CircuitBreaker(threshold=n) if n else None


def _check_pool(args) -> None:
    if args.max_rss_mb is not None and args.workers == 1:
        raise UsageError("--max-rss-mb limits worker processes, and "
                         "--workers 1 runs in-process")


def _write_output(text: str, output: str) -> None:
    if output == "-":
        print(text)
        return
    with open(output, "w") as f:
        f.write(text)
    print(f"wrote {output}", file=sys.stderr)


def _run_dir_failure(exc, work: str, run_dir) -> int:
    """Print why a run directory failed ``work``; return the exit code.

    A manifest for a different run, or a reused or missing run
    directory, is a usage error (2). A damaged run directory is 3, and
    so is a failed journal write: what was journaled is safe, and
    ``--resume`` continues the run.
    """
    from repro.errors import (
        JournalWriteError,
        ManifestCorruptError,
        ManifestMismatchError,
    )

    if isinstance(exc, ManifestMismatchError):
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 2
    if isinstance(exc, ManifestCorruptError):
        print(f"cannot resume: {exc}\n"
              f"the run directory is damaged; start over with a fresh "
              f"--run-dir", file=sys.stderr)
        return 3
    if isinstance(exc, JournalWriteError):
        print(f"journal write failed, {work} aborted: {exc}\n"
              f"journaled work is safe; continue with "
              f"--resume {run_dir}", file=sys.stderr)
        return 3
    print(f"error: {exc}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_cache(args) -> int:
    import json
    from pathlib import Path

    from repro.cache import DiskCache

    root = _cache_dir(args, ".repro-cache")
    cache = DiskCache(Path(root))
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {root}")
        return 0
    print(json.dumps(cache.census(), indent=1))
    return 0


def _cmd_evaluate(args) -> int:
    import shutil
    import tempfile
    from pathlib import Path

    from repro import faults, obs
    from repro.errors import EvaluationAborted, JournalError
    from repro.eval.export import report_to_csv, report_to_json
    from repro.eval.journal import (
        RunJournal,
        build_manifest,
        check_manifest,
        merge_resumed_report,
    )
    from repro.eval.parallel import flush_trace_part, run_evaluation_parallel
    from repro.eval.quarantine import QuarantineStore
    from repro.eval.tables import failure_summary
    from repro.synth.corpus import build_corpus

    run_dir = _journal_dir(args)
    _check_pool(args)
    tools = _tools(args, EVALUATE_TOOLS)
    _configure_cache(args)
    if args.fault_plan:
        faults.install(args.fault_plan)
    trace_dir = None
    if args.trace:
        # Parent + each worker write JSONL part files here; they are
        # merged into args.trace once the sweep finishes.
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
        obs.set_recorder(obs.TraceRecorder())
    print(f"building '{args.scale}' corpus ...", file=sys.stderr)
    corpus = build_corpus(args.scale, seed=args.seed)

    journal = prior = None
    completed = None
    try:
        if args.resume:
            journal = RunJournal.resume(args.resume)
            check_manifest(journal.manifest(), corpus, tools)
            prior = journal.fold()
            completed = prior.completed
            print(f"resuming {args.resume}: {len(prior.records)} cells "
                  f"journaled, {len(prior.failures)} failures to retry"
                  + (" (torn tail dropped)" if prior.torn_tail else ""),
                  file=sys.stderr)
        elif args.run_dir:
            journal = RunJournal.create(
                args.run_dir,
                build_manifest(corpus, tools, scale=args.scale,
                               seed=args.seed, timeout=args.timeout,
                               retries=args.retries))
    except JournalError as exc:
        return _run_dir_failure(exc, "sweep", args.resume)
    quarantine = (QuarantineStore(args.quarantine)
                  if args.quarantine else None)

    print(f"evaluating {tools} over {len(corpus)} binaries ...",
          file=sys.stderr)
    try:
        report = run_evaluation_parallel(
            corpus, tools,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            keep_going=not args.fail_fast,
            trace_dir=trace_dir,
            journal=journal,
            completed=completed,
            breaker=_breaker(args),
            quarantine=quarantine,
            max_rss_mb=args.max_rss_mb,
        )
    except EvaluationAborted as exc:
        print(f"aborted (--fail-fast): {exc}", file=sys.stderr)
        return 2
    except JournalError as exc:
        return _run_dir_failure(exc, "sweep", run_dir)
    finally:
        if journal is not None:
            journal.close()
        if args.fault_plan:
            faults.clear()
        if trace_dir is not None:
            flush_trace_part(trace_dir)  # the parent's own spans
            parts = sorted(Path(trace_dir).glob("*.jsonl"))
            trace = obs.merge_traces(args.trace, parts)
            print(f"wrote trace {args.trace} ({len(trace.spans)} spans, "
                  f"{len(trace.counters)} counters, {len(parts)} part "
                  f"files)", file=sys.stderr)
            obs.set_recorder(None)
            shutil.rmtree(trace_dir, ignore_errors=True)
    if prior is not None:
        report = merge_resumed_report(corpus, tools, prior, report)
    _write_output(report_to_json(report) if args.format == "json"
                  else report_to_csv(report), args.output)
    if report.failures:
        print(failure_summary(report), file=sys.stderr)
        return 1
    return 0


def _cmd_scan(args) -> int:
    import json
    import shutil
    import tempfile

    from repro import faults
    from repro.errors import JournalError
    from repro.ingest import build_fleet_report, render_fleet_table, run_scan

    run_dir = _journal_dir(args)
    if not args.resume and not args.roots:
        raise UsageError("a fresh scan needs at least one root "
                         "(or --resume RUN_DIR)")
    _check_pool(args)
    if not args.breaker_threshold:
        raise UsageError("scan's per-directory breaker cannot be turned "
                         "off; --breaker-threshold must be > 0")
    tools = _tools(args, None)
    if args.fault_plan:
        faults.install(args.fault_plan)

    temp_run = None
    if run_dir is None:
        temp_run = tempfile.mkdtemp(prefix="repro-scan-")
        run_dir = f"{temp_run}/run"
    try:
        result = run_scan(
            run_dir,
            roots=list(args.roots) or None,
            tools=tools,
            resume=bool(args.resume),
            include=tuple(args.include),
            exclude=tuple(args.exclude),
            workers=args.workers,
            timeout=args.timeout,
            max_rss_mb=args.max_rss_mb,
            limit=args.limit or None,
            breaker=_breaker(args),
        )
    except JournalError as exc:
        return _run_dir_failure(exc, "scan", run_dir)
    except ValueError as exc:
        raise UsageError(exc) from None
    finally:
        if args.fault_plan:
            faults.clear()

    stats = result.stats
    print(f"scanned {stats.walked} entries: {stats.dispatched} analyzed, "
          f"{stats.walk_skips + stats.triaged} triaged out, "
          f"{stats.resumed} already decided, "
          f"{stats.lost_workers} workers lost", file=sys.stderr)
    report = build_fleet_report(result.state, result.manifest)
    _write_output(json.dumps(report, indent=1, sort_keys=True)
                  if args.format == "json" else render_fleet_table(report),
                  args.output)
    if result.state.failures:
        print(f"{len(result.state.failures)} path(s) left retryable "
              f"failure records; re-run with --resume {run_dir} to "
              f"converge", file=sys.stderr)
        if temp_run is not None:
            temp_run = None  # keep the journal: it holds the retries
            print(f"journal kept at {run_dir}", file=sys.stderr)
    if temp_run is not None:
        shutil.rmtree(temp_run, ignore_errors=True)
    return 0


def _cmd_quarantine(args) -> int:
    from repro.eval.quarantine import QuarantineStore, replay_entry

    store = QuarantineStore(args.quarantine_dir)
    entries = store.entries()
    if args.sha:
        entries = [e for e in entries if e.sha256.startswith(args.sha)]
    if not entries:
        print(f"no quarantined inputs under {args.quarantine_dir}"
              + (f" matching {args.sha!r}" if args.sha else ""))
        return 0
    if args.action == "list":
        for entry in entries:
            print(f"{entry.short}  {entry.size:8d} bytes  "
                  f"{len(entry.failures)} failure(s)")
            for meta in entry.failures:
                print(f"    {meta['suite']}/{meta['program']} "
                      f"[{meta['tool']}] {meta['phase']}: "
                      f"{meta['error_type']}: {meta['message']}")
        return 0
    still_failing = 0
    for entry in entries:
        for outcome in replay_entry(entry, timeout=args.timeout):
            mark = "FAIL" if outcome.reproduced else "ok  "
            detail = (f"{outcome.error_type}: {outcome.message}"
                      if outcome.reproduced else "no longer fails")
            print(f"[{mark}] {entry.short} [{outcome.tool}] "
                  f"(was {outcome.original_error}) {detail} "
                  f"({outcome.elapsed_seconds:.2f}s)")
            still_failing += outcome.reproduced
    print(f"replayed {len(entries)} input(s): "
          f"{still_failing} still failing")
    return 1 if still_failing else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro import obs
    from repro.errors import ManifestCorruptError, ManifestMismatchError
    from repro.eval.supervisor import DEFAULT_BACKSTOP
    from repro.service import AnalysisService, JobManager, TenantRateLimiter

    tools = _tools(args, None)
    if args.isolation == "thread":
        given = [flag for flag, value in (("--backstop", args.backstop),
                                          ("--max-rss-mb", args.max_rss_mb))
                 if value is not None]
        if given:
            raise UsageError(f"--isolation thread does not take "
                             f"{' or '.join(given)}")
    if args.burst is not None and not args.rate:
        raise UsageError("--burst sizes the --rate bucket; pass --rate too")
    # Counters only: a long-lived server must not accumulate spans.
    obs.set_recorder(obs.CounterRecorder())
    try:
        manager = JobManager(
            args.run_dir,
            tools=tools,
            cache_root=_cache_dir(args),
            queue_size=args.queue_size,
            executor_workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            isolation=args.isolation,
            backstop=args.backstop or DEFAULT_BACKSTOP,
            poison_threshold=args.poison_threshold,
            max_rss_mb=args.max_rss_mb,
            probe_interval=args.probe_interval,
        )
    except (ManifestCorruptError, ManifestMismatchError) as exc:
        return _run_dir_failure(exc, "serve", args.run_dir)
    service = AnalysisService(
        manager,
        host=args.host,
        port=args.port,
        limiter=TenantRateLimiter(rate=args.rate, burst=args.burst),
        max_body=args.max_body_mb * 1024 * 1024,
    )
    return asyncio.run(service.serve_until_signal())


def _cmd_chaos(args) -> int:
    import shutil
    import tempfile

    from repro.faults.chaos import claim_work_dir, run_scenarios

    if args.ingest or args.service:
        # Their inputs are fixed: a fixture tree, a few tiny binaries.
        given = [f"--{name}" for name in ("scale", "limit")
                 if getattr(args, name) is not None]
        if given:
            flag = "--service" if args.service else "--ingest"
            raise UsageError(f"chaos {flag} does not take "
                             f"{' or '.join(given)}")
    tools = _tools(args, None)
    if args.work_dir:
        try:
            claim_work_dir(args.work_dir)
        except FileExistsError as exc:
            raise UsageError(exc) from None
    if args.service:
        from repro.service.chaos import ServeDriver

        driver = ServeDriver(args.seed, tools)
    elif args.ingest:
        from repro.ingest.chaos import ScanDriver

        driver = ScanDriver(args.seed, tools)
    else:
        from repro.eval.chaos import EvaluateDriver
        from repro.synth.corpus import build_corpus

        scale = args.scale or "tiny"
        limit = 6 if args.limit is None else args.limit
        print(f"building '{scale}' corpus ...", file=sys.stderr)
        corpus = build_corpus(scale, seed=args.seed)
        if limit:
            corpus = corpus[:limit]
        driver = EvaluateDriver(corpus, tools or ["funseeker", "fetch"],
                                args.seed)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"{driver.title}: seed {args.seed}, run dirs under "
          f"{work_dir} ...", file=sys.stderr)
    report = run_scenarios(driver, work_dir)
    print(report.render())
    if report.ok and not args.work_dir:
        shutil.rmtree(work_dir, ignore_errors=True)
    elif not report.ok:
        print(f"run directories kept for post-mortem: {work_dir}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    import json
    import time

    from repro import obs
    from repro.baselines import ALL_DETECTORS
    from repro.elf.parser import ELFFile

    tools = _tools(args, ("funseeker",))
    recorder = obs.set_recorder(obs.TraceRecorder())
    try:
        started = time.perf_counter()
        with obs.span("profile", binary=str(args.binary)):
            elf = ELFFile.from_path(args.binary)
            functions = {
                name: len(ALL_DETECTORS[name]().detect(elf).functions)
                for name in tools
            }
        elapsed = time.perf_counter() - started
    finally:
        obs.set_recorder(None)
    phases = recorder.phase_totals()
    counters = dict(recorder.counters)
    spans = list(recorder.spans)
    if args.trace:
        obs.write_trace(args.trace, recorder.drain())
        print(f"wrote trace {args.trace} ({len(spans)} spans)",
              file=sys.stderr)
    if args.json:
        print(json.dumps({
            "binary": str(args.binary),
            "elapsed_seconds": round(elapsed, 6),
            "functions": functions,
            "phases": {k: round(v, 6) for k, v in sorted(phases.items())},
            "counters": counters,
        }, indent=1, sort_keys=True))
        return 0
    print(f"profile of {args.binary} "
          f"({', '.join(f'{t}: {n} functions' for t, n in functions.items())})")
    print(f"\n{'phase':<18s} {'calls':>6s} {'total ms':>10s} {'%':>6s}")
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    for name, total in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = 100.0 * total / elapsed if elapsed else 0.0
        print(f"{name:<18s} {calls[name]:6d} {total * 1000:10.3f} "
              f"{share:6.1f}")
    print(f"\n{'wall':<18s} {'':6s} {elapsed * 1000:10.3f} {100.0:6.1f}")
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]:g}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import run_fuzz
    from repro.fuzz.harness import DEFAULT_CASE_TIMEOUT

    families = _split_csv(args.families) if args.families else None
    print(f"fuzzing: {args.budget} mutants, seed {args.seed} ...",
          file=sys.stderr)
    try:
        report = run_fuzz(args.budget, seed=args.seed, families=families,
                          case_timeout=args.timeout or DEFAULT_CASE_TIMEOUT)
    except ValueError as exc:
        raise UsageError(exc) from None
    print(report.render())
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    import json

    from repro.analysis.ibt_audit import audit_ibt
    from repro.cfg import recover_program_cfg
    from repro.core.funseeker import FunSeeker
    from repro.elf.gnuproperty import parse_cet_features
    from repro.elf.parser import ELFFile

    elf = ELFFile.from_path(args.binary)
    result = FunSeeker(elf).identify()
    program = recover_program_cfg(elf, result.functions)
    audit = audit_ibt(elf)
    features = parse_cet_features(elf)
    boundaries = program.boundaries()
    doc = {
        "binary": str(args.binary),
        "arch": "x86-64" if elf.is64 else "x86",
        "pie": elf.header.is_pie,
        "cet": {"ibt": features.ibt, "shstk": features.shstk},
        "stats": {
            "functions": len(result.functions),
            "instructions": result.insn_count,
            "basic_blocks": program.total_blocks,
            "call_edges": program.call_graph.number_of_edges(),
            "landing_pads": len(result.landing_pads),
            "analysis_seconds": round(result.elapsed_seconds, 4),
        },
        "ibt_audit": {
            "compliant": audit.compliant,
            "candidates": audit.candidate_count,
            "violations": [
                {"target": v.target, "source": v.source.value}
                for v in audit.violations
            ],
        },
        "functions": [
            {
                "entry": entry,
                "end": boundaries.get(entry, entry),
                "blocks": program.functions[entry].block_count
                if entry in program.functions else 0,
            }
            for entry in sorted(result.functions)
        ],
    }
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_dataset(args) -> int:
    from repro.synth.dataset import save_dataset

    manifest = save_dataset(args.directory, scale=args.scale,
                            seed=args.seed)
    total = sum(b["size"] for b in manifest["binaries"])
    print(f"wrote {len(manifest['binaries'])} binaries "
          f"({total / 1e6:.1f} MB) to {args.directory}")
    return 0


def _cmd_corpus_info(args) -> int:
    from repro.analysis.dataset_stats import dataset_stats
    from repro.synth.corpus import iter_corpus

    stats = dataset_stats(iter_corpus(args.scale, args.seed))
    print(f"corpus scale={args.scale!r} seed={args.seed}")
    print(stats.render())
    return 0


def _cmd_identify(args) -> int:
    from repro.core.funseeker import Config, FunSeeker

    if args.robust:
        from repro.core.robust import RobustFunSeeker

        seeker = RobustFunSeeker.from_path(args.binary, Config(args.config))
    else:
        seeker = FunSeeker.from_path(args.binary, Config(args.config))
    result = seeker.identify()
    for addr in sorted(result.functions):
        print(f"{addr:#x}")
    print(
        f"# {len(result.functions)} functions "
        f"({len(result.endbr_filtered)} endbr, "
        f"{len(result.call_targets)} call targets, "
        f"{len(result.tail_call_targets)} tail calls) "
        f"in {result.elapsed_seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args) -> int:
    from repro.baselines import ALL_DETECTORS
    from repro.elf.parser import ELFFile

    elf = ELFFile.from_path(args.binary)
    print(f"{'tool':14s} {'functions':>9s} {'time':>9s}")
    for name, cls in ALL_DETECTORS.items():
        result = cls().detect(elf)
        print(f"{name:14s} {len(result.functions):9d} "
              f"{result.elapsed_seconds * 1000:7.1f}ms")
    return 0


def _cmd_disasm(args) -> int:
    from repro.core.funseeker import FunSeeker
    from repro.elf.parser import ELFFile
    from repro.x86.format import format_listing

    elf = ELFFile.from_path(args.binary)
    txt = elf.section(".text")
    if txt is None:
        print("no .text section", file=sys.stderr)
        return 1
    symbols = {s.value: s.name for s in elf.symbols()
               if s.is_function and s.is_defined}
    # Functions identified by FunSeeker become listing landmarks even
    # on stripped binaries.
    functions = FunSeeker(elf).identify().functions
    bits = 64 if elf.is64 else 32
    lines = format_listing(txt.data, txt.sh_addr, bits, symbols)
    printed = 0
    for line in lines:
        if line.addr in functions:
            name = symbols.get(line.addr, f"func_{line.addr:x}")
            print(f"\n{line.addr:#010x} <{name}>:")
        print(line.render())
        printed += 1
        if args.limit and printed >= args.limit:
            remaining = len(lines) - printed
            if remaining > 0:
                print(f"... {remaining} more lines (--limit 0 for all)")
            break
    return 0


def _cmd_cfg(args) -> int:
    from repro.cfg import recover_program_cfg
    from repro.core.funseeker import FunSeeker
    from repro.elf.parser import ELFFile

    elf = ELFFile.from_path(args.binary)
    functions = FunSeeker(elf).identify().functions
    program = recover_program_cfg(elf, functions)
    print(f"{len(program.functions)} functions, "
          f"{program.total_blocks} basic blocks, "
          f"{program.total_insns} instructions, "
          f"{program.call_graph.number_of_edges()} call edges")
    for entry in sorted(program.functions)[:20]:
        cfg = program.functions[entry]
        print(f"  {entry:#010x}: {cfg.block_count:4d} blocks "
              f"{len(cfg.edges()):4d} edges  end={cfg.high_addr:#x}")
    if len(program.functions) > 20:
        print(f"  ... {len(program.functions) - 20} more")
    return 0


def _cmd_table(args) -> int:
    from repro.eval import tables
    from repro.synth.corpus import build_corpus

    _configure_cache(args)
    print(f"building '{args.scale}' corpus ...", file=sys.stderr)
    corpus = build_corpus(args.scale, seed=args.seed)
    print(f"{len(corpus)} binaries", file=sys.stderr)
    renderers = {
        "table1": tables.table1,
        "table2": tables.table2,
        "table3": tables.table3,
        "figure3": tables.figure3,
        "errors": tables.error_breakdown,
    }
    chosen = (renderers.values() if args.command == "all"
              else [renderers[args.command]])
    for renderer in chosen:
        text, _results = renderer(corpus)
        print(text)
        print()
    return 0


def _cmd_bti_demo(args) -> int:
    from repro.arm import (
        generate_bti_program,
        identify_functions_bti,
        link_bti_program,
    )
    from repro.elf.parser import ELFFile

    funcs = generate_bti_program(150, seed=7)
    binary = link_bti_program(funcs, seed=7)
    elf = ELFFile(binary.data)
    result = identify_functions_bti(elf)
    gt = binary.ground_truth.function_starts
    tp = len(gt & result.functions)
    fp = len(result.functions) - tp
    fn = len(gt) - tp
    print("ARM BTI extension (paper §VI): FunSeeker on AArch64")
    print(f"  functions: {len(gt)}  found: {len(result.functions)}")
    print(f"  precision: {tp / (tp + fp):.3f}  recall: {tp / (tp + fn):.3f}")
    print(f"  BTI markers: {len(result.bti_addrs)}  "
          f"bl targets: {len(result.call_targets)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
