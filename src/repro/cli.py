"""Command-line interface.

::

    funseeker identify <binary> [--config N] [--robust]
    funseeker compare <binary>            # all detectors side by side
    funseeker disasm <binary>             # annotated listing
    funseeker cfg <binary>                # basic blocks + call graph
    funseeker report <binary>             # JSON analysis + IBT audit
    funseeker table1|table2|table3|figure3|errors|all [--scale S]
    funseeker evaluate [--tools ...] [--format json|csv] [--output F]
                       [--timeout S] [--retries N] [--fail-fast]
                       [--cache-dir D] [--trace PATH]
                       [--run-dir D | --resume D] [--retry-backoff S]
                       [--breaker-threshold N] [--max-rss-mb M]
                       [--fault-plan PLAN] [--quarantine D]
    funseeker scan <root>... [--run-dir D | --resume D]
                   [--tools ...] [--include G] [--exclude G]
                   [--workers N] [--timeout S] [--max-rss-mb M]
                   [--limit N] [--min-size B] [--max-size B]
                   [--format json|table] [--fault-plan PLAN]
    funseeker quarantine list|replay --dir D  # captured failing inputs
    funseeker chaos [--scale S] [--seed N] [--ingest|--service]
    funseeker serve --run-dir D [--host H] [--port P] [--cache-dir D]
                    [--tools ...] [--queue-size N] [--workers N]
                    [--rate R] [--burst B] [--timeout S]
                    [--max-body-mb M]     # analysis job API
    funseeker profile <binary> [--tools ...] [--trace PATH] [--json]
    funseeker cache stats|clear [--cache-dir D]  # on-disk artifact cache
    funseeker fuzz [--budget N] [--seed S]  # fault-injection harness
    funseeker dataset <dir> [--scale S]   # persist the corpus
    funseeker corpus-info [--scale S]     # §III-A dataset account
    funseeker bti-demo                    # ARM BTI extension demo

Also invocable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import ALL_DETECTORS
from repro.core.funseeker import Config, FunSeeker
from repro.elf.parser import ELFFile


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="funseeker",
        description="FunSeeker reproduction (DSN 2022): CET-aware "
                    "function identification and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="identify functions in a binary")
    p_id.add_argument("binary")
    p_id.add_argument("--config", type=int, default=4, choices=[1, 2, 3, 4],
                      help="FunSeeker configuration (Table II), default 4")
    p_id.add_argument("--robust", action="store_true",
                      help="use the superset-validated front end "
                           "(tolerates data embedded in .text)")

    p_cfg = sub.add_parser(
        "cfg", help="recover per-function CFGs and call-graph stats")
    p_cfg.add_argument("binary")

    p_dis = sub.add_parser(
        "disasm", help="linear-sweep disassembly listing of .text")
    p_dis.add_argument("binary")
    p_dis.add_argument("--limit", type=int, default=80,
                       help="max lines to print (default 80; 0 = all)")

    p_cmp = sub.add_parser("compare", help="run all detectors on a binary")
    p_cmp.add_argument("binary")

    p_rep = sub.add_parser(
        "report", help="machine-readable JSON analysis of one binary")
    p_rep.add_argument("binary")

    for name in ("table1", "table2", "table3", "figure3", "errors",
                 "all"):
        p_tab = sub.add_parser(
            name, help=f"regenerate the paper's {name} on a synthetic corpus"
        )
        p_tab.add_argument("--scale", default="tiny",
                           choices=["tiny", "small", "full"])
        p_tab.add_argument("--seed", type=int, default=2022)
        p_tab.add_argument("--cache-dir", default=None,
                           help="content-addressed analysis cache "
                                "directory (default: off, or "
                                "$REPRO_CACHE_DIR)")

    sub.add_parser("bti-demo", help="ARM BTI extension demonstration (§VI)")

    p_ds = sub.add_parser(
        "dataset", help="generate and save the benchmark dataset to disk")
    p_ds.add_argument("directory")
    p_ds.add_argument("--scale", default="tiny",
                      choices=["tiny", "small", "full"])
    p_ds.add_argument("--seed", type=int, default=2022)

    p_info = sub.add_parser(
        "corpus-info", help="summarize the synthetic corpus composition")
    p_info.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "full"])
    p_info.add_argument("--seed", type=int, default=2022)

    p_ev = sub.add_parser(
        "evaluate",
        help="run detectors over the corpus and export raw results")
    p_ev.add_argument("--scale", default="tiny",
                      choices=["tiny", "small", "full"])
    p_ev.add_argument("--seed", type=int, default=2022)
    p_ev.add_argument("--tools", default="funseeker,ida,ghidra,fetch",
                      help="comma-separated detector names")
    p_ev.add_argument("--format", default="json",
                      choices=["json", "csv"])
    p_ev.add_argument("--workers", type=int, default=None,
                      help="process-pool size (default: CPU count)")
    p_ev.add_argument("--timeout", type=float, default=None,
                      help="wall-clock seconds per (binary, tool) cell")
    p_ev.add_argument("--retries", type=int, default=0,
                      help="extra attempts for a raising cell")
    p_ev.add_argument("--fail-fast", action="store_true",
                      help="abort the sweep on the first failed cell "
                           "(default: keep going and report failures)")
    p_ev.add_argument("--output", default="-",
                      help="output path, '-' for stdout")
    p_ev.add_argument("--cache-dir", default=None,
                      help="content-addressed analysis cache directory "
                           "(default: off, or $REPRO_CACHE_DIR)")
    p_ev.add_argument("--trace", default=None,
                      help="write a JSONL observability trace (spans + "
                           "counters, merged across workers) to PATH")
    p_ev.add_argument("--run-dir", default=None,
                      help="journal every decided cell into this fresh "
                           "run directory (crash-safe, resumable)")
    p_ev.add_argument("--resume", default=None, metavar="RUN_DIR",
                      help="resume a journaled run: skip completed "
                           "cells, retry journaled failures, refuse a "
                           "mismatched manifest")
    p_ev.add_argument("--retry-backoff", type=float, default=0.0,
                      help="base seconds for exponential backoff "
                           "between retry attempts (default 0: none)")
    p_ev.add_argument("--breaker-threshold", type=int, default=0,
                      help="open a per-tool circuit after N consecutive "
                           "detect failures (default 0: breaker off)")
    p_ev.add_argument("--breaker-cooldown", type=int, default=10,
                      help="skipped cells before a half-open probe "
                           "(default 10)")
    p_ev.add_argument("--max-rss-mb", type=int, default=None,
                      help="address-space ceiling per worker, MiB "
                           "(overruns become MemoryError failures)")
    p_ev.add_argument("--fault-plan", default=None,
                      help="inject deterministic faults, e.g. "
                           "'io@cache.get#3,kill@cell.execute#5' "
                           "(also $REPRO_FAULT_PLAN)")
    p_ev.add_argument("--quarantine", default=None, metavar="DIR",
                      help="capture failing inputs (stripped image + "
                           "failure metadata) into DIR for replay")

    p_sc = sub.add_parser(
        "scan",
        help="fleet-scan real-world binaries under directory roots: "
             "triage, degradation-ladder analysis, crash-safe journal, "
             "CET adoption + tool-agreement fleet report")
    p_sc.add_argument("roots", nargs="*",
                      help="directories (or files) to scan; omit when "
                           "resuming (the journal remembers them)")
    p_sc.add_argument("--run-dir", default=None,
                      help="journal every decision into this fresh run "
                           "directory (crash-safe, resumable; default: "
                           "a temp dir discarded after the report)")
    p_sc.add_argument("--resume", default=None, metavar="RUN_DIR",
                      help="resume a journaled scan: keep decided "
                           "paths, retry journaled failures, refuse a "
                           "mismatched manifest")
    p_sc.add_argument("--tools", default=None,
                      help="comma-separated detector names (default "
                           "funseeker,naive-endbr)")
    p_sc.add_argument("--include", action="append", default=[],
                      metavar="GLOB",
                      help="only scan entries matching this fnmatch "
                           "glob (repeatable; name or relative path)")
    p_sc.add_argument("--exclude", action="append", default=[],
                      metavar="GLOB",
                      help="skip entries matching this glob "
                           "(repeatable; prunes whole directories)")
    p_sc.add_argument("--workers", type=int, default=None,
                      help="process-pool size (default: CPU count; "
                           "1 = in-process)")
    p_sc.add_argument("--timeout", type=float, default=None,
                      help="wall-clock seconds per ladder rung")
    p_sc.add_argument("--max-rss-mb", type=int, default=None,
                      help="address-space ceiling per worker, MiB")
    p_sc.add_argument("--limit", type=int, default=None,
                      help="stop after admitting N binaries")
    p_sc.add_argument("--min-size", type=int, default=None,
                      help="admission policy: smallest file to analyze")
    p_sc.add_argument("--max-size", type=int, default=None,
                      help="admission policy: largest file to analyze")
    p_sc.add_argument("--no-follow-symlinks", action="store_true",
                      help="report symlinks as skips instead of "
                           "resolving them")
    p_sc.add_argument("--format", default="table",
                      choices=["table", "json"])
    p_sc.add_argument("--output", default="-",
                      help="report path, '-' for stdout")
    p_sc.add_argument("--breaker-threshold", type=int, default=5,
                      help="open a directory's circuit after N "
                           "consecutive analysis losses (default 5)")
    p_sc.add_argument("--fault-plan", default=None,
                      help="inject deterministic faults, e.g. "
                           "'kill@ingest.analyze#3' "
                           "(also $REPRO_FAULT_PLAN)")
    p_sc.add_argument("--no-quarantine", action="store_true",
                      help="do not capture quarantined binaries into "
                           "the run directory")

    p_pf = sub.add_parser(
        "profile",
        help="per-phase timing and counter profile of one binary")
    p_pf.add_argument("binary")
    p_pf.add_argument("--tools", default="funseeker",
                      help="comma-separated detector names "
                           "(default funseeker)")
    p_pf.add_argument("--trace", default=None,
                      help="write the JSONL observability trace to PATH")
    p_pf.add_argument("--json", action="store_true",
                      help="machine-readable summary instead of a table")

    p_ca = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk analysis-artifact cache")
    p_ca.add_argument("action", choices=["stats", "clear"])
    p_ca.add_argument("--cache-dir", default=".repro-cache",
                      help="cache directory (default .repro-cache)")

    p_fz = sub.add_parser(
        "fuzz",
        help="fault-injection harness: mutate synthesized ELFs and "
             "assert no uncaught exception / hang / silent degradation")
    p_fz.add_argument("--budget", type=int, default=500,
                      help="number of mutants (default 500)")
    p_fz.add_argument("--seed", type=int, default=2022)
    p_fz.add_argument("--families", default=None,
                      help="comma-separated mutator families "
                           "(default: all)")
    p_fz.add_argument("--timeout", type=float, default=None,
                      help="wall-clock seconds per pipeline run "
                           "(default 5)")

    p_qr = sub.add_parser(
        "quarantine",
        help="inspect or replay inputs captured from failing cells")
    p_qr.add_argument("action", choices=["list", "replay"])
    p_qr.add_argument("--dir", dest="quarantine_dir", required=True,
                      help="quarantine directory (evaluate --quarantine)")
    p_qr.add_argument("--sha", default=None,
                      help="only the entry whose sha256 starts with this")
    p_qr.add_argument("--timeout", type=float, default=30.0,
                      help="watchdog seconds per replayed cell "
                           "(default 30)")

    p_ch = sub.add_parser(
        "chaos",
        help="crash-safety acceptance: run seeded fault scenarios "
             "(worker kill, torn journal, corrupted cache, disk full, "
             "cell hang) and assert every run resumes to the "
             "fault-free report")
    p_ch.add_argument("--scale", choices=["tiny", "small", "full"],
                      help="evaluate corpus scale (default tiny)")
    p_ch.add_argument("--seed", type=int, default=2022)
    p_ch.add_argument("--tools", help="comma-separated detector names "
                                      "(default: the driver's own)")
    p_ch.add_argument("--limit", type=int,
                      help="evaluate corpus entries (default 6; 0 = all)")
    p_ch.add_argument("--work-dir", default=None,
                      help="keep run directories here for post-mortem "
                           "(default: a temp dir, removed on success)")
    p_ch.add_argument("--ingest", action="store_true",
                      help="run the fleet-scan ingest scenarios "
                           "(worker kill mid-ladder, triage I/O fault) "
                           "over a hostile fixture tree instead of the "
                           "evaluation scenarios")
    p_ch.add_argument("--service", action="store_true",
                      help="run the analysis-service scenarios: SIGKILL "
                           "restart-resume, supervised hang backstop, "
                           "poison-job quarantine, and disk-full "
                           "read-only degradation + recovery")

    p_sv = sub.add_parser(
        "serve",
        help="run the analysis job API: POST binaries, poll jobs, "
             "fetch per-tool entry reports with provenance receipts")
    p_sv.add_argument("--run-dir", required=True,
                      help="journal + blob directory; restarting on the "
                           "same directory resumes in-flight jobs")
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=0,
                      help="TCP port (default 0 = OS-assigned; the "
                           "bound address is printed and written to "
                           "address.json in the run dir)")
    p_sv.add_argument("--cache-dir", default=None,
                      help="root of per-tenant cache namespaces "
                           "(default: the process default cache)")
    p_sv.add_argument("--tools", default="",
                      help="comma-separated default detector set "
                           "(default: all detectors)")
    p_sv.add_argument("--queue-size", type=int, default=64,
                      help="bounded job queue depth (default 64); a "
                           "full queue answers 429 + Retry-After")
    p_sv.add_argument("--workers", type=int, default=2,
                      help="analysis executor threads (default 2)")
    p_sv.add_argument("--rate", type=float, default=0.0,
                      help="per-tenant submissions/second "
                           "(default 0 = unlimited)")
    p_sv.add_argument("--burst", type=float, default=None,
                      help="per-tenant burst size (default: --rate)")
    p_sv.add_argument("--timeout", type=float, default=None,
                      help="wall-clock seconds per analysis phase")
    p_sv.add_argument("--retries", type=int, default=0,
                      help="extra attempts for a raising analysis cell")
    p_sv.add_argument("--max-body-mb", type=int, default=64,
                      help="largest accepted submission (default 64)")
    p_sv.add_argument("--isolation", default="process",
                      choices=["process", "thread"],
                      help="run analysis cells in supervised worker "
                           "subprocesses (default) or in-process "
                           "threads; only subprocesses get enforced "
                           "deadlines and crash containment")
    p_sv.add_argument("--backstop", type=float, default=30.0,
                      help="seconds past a job's budget before the "
                           "supervisor kills the worker outright "
                           "(process isolation only; default 30)")
    p_sv.add_argument("--poison-threshold", type=int, default=3,
                      help="worker losses on one job before it is "
                           "poisoned and quarantined (default 3)")
    p_sv.add_argument("--max-rss-mb", type=int, default=None,
                      help="RLIMIT_AS for each worker subprocess in MiB "
                           "(default: unlimited)")
    p_sv.add_argument("--probe-interval", type=float, default=30.0,
                      help="seconds between write probes while the "
                           "service is degraded read-only (default 30)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        return 0


def _dispatch(args) -> int:
    if args.command == "identify":
        return _cmd_identify(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "cfg":
        return _cmd_cfg(args)
    if args.command == "disasm":
        return _cmd_disasm(args)
    if args.command == "bti-demo":
        return _cmd_bti_demo()
    if args.command == "dataset":
        return _cmd_dataset(args)
    if args.command == "corpus-info":
        return _cmd_corpus_info(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "quarantine":
        return _cmd_quarantine(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_table(args)


def _configure_cache(cache_dir: str | None) -> None:
    """Opt the process into the disk cache when a directory is given."""
    if cache_dir:
        from pathlib import Path

        from repro.cache import DiskCache, set_default_cache

        set_default_cache(DiskCache(Path(cache_dir)))


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _unknown_tools(tools) -> bool:
    """Print an error naming unknown detectors; true if there were any."""
    unknown = [t for t in tools or () if t not in ALL_DETECTORS]
    if unknown:
        print(f"error: unknown detectors: {unknown} "
              f"(known: {sorted(ALL_DETECTORS)})", file=sys.stderr)
    return bool(unknown)


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


def _cmd_cache(args) -> int:
    import json
    from pathlib import Path

    from repro.cache import DiskCache

    cache = DiskCache(Path(args.cache_dir))
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {args.cache_dir}")
        return 0
    print(json.dumps(cache.census(), indent=1))
    return 0


def _cmd_evaluate(args) -> int:
    import shutil
    import tempfile

    from repro import faults, obs
    from repro.errors import EvaluationAborted, JournalError
    from repro.eval.breaker import CircuitBreaker
    from repro.eval.export import report_to_csv, report_to_json
    from repro.eval.journal import (
        RunJournal,
        build_manifest,
        check_manifest,
        merge_resumed_report,
    )
    from repro.eval.parallel import run_evaluation_parallel
    from repro.eval.quarantine import QuarantineStore
    from repro.eval.tables import failure_summary
    from repro.synth.corpus import build_corpus

    if args.run_dir and args.resume:
        print("error: --run-dir starts a fresh journal, --resume "
              "continues one; pass exactly one of them", file=sys.stderr)
        return 2
    tools = _split_csv(args.tools)
    if _unknown_tools(tools):
        return 2
    _configure_cache(args.cache_dir)
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
    breaker = None
    if args.breaker_threshold > 0:
        breaker = CircuitBreaker(threshold=args.breaker_threshold,
                                 cooldown=args.breaker_cooldown)
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
            backoff=args.retry_backoff,
            journal=journal,
            completed=completed,
            breaker=breaker,
            quarantine=quarantine,
            max_rss_mb=args.max_rss_mb,
        )
    except EvaluationAborted as exc:
        print(f"aborted (--fail-fast): {exc}", file=sys.stderr)
        return 2
    except JournalError as exc:
        return _run_dir_failure(exc, "sweep", args.resume or args.run_dir)
    finally:
        if journal is not None:
            journal.close()
        if args.fault_plan:
            faults.clear()
        if trace_dir is not None:
            _export_eval_trace(args.trace, trace_dir)
            obs.set_recorder(None)
            shutil.rmtree(trace_dir, ignore_errors=True)
    if prior is not None:
        report = merge_resumed_report(corpus, tools, prior, report)
    text = (report_to_json(report) if args.format == "json"
            else report_to_csv(report))
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
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
    from repro.eval.breaker import CircuitBreaker
    from repro.ingest import (
        AdmissionPolicy,
        build_fleet_report,
        render_fleet_table,
        run_scan,
    )

    if args.run_dir and args.resume:
        print("error: --run-dir starts a fresh journal, --resume "
              "continues one; pass exactly one of them", file=sys.stderr)
        return 2
    if not args.resume and not args.roots:
        print("error: a fresh scan needs at least one root "
              "(or --resume RUN_DIR)", file=sys.stderr)
        return 2
    tools = None if args.tools is None else _split_csv(args.tools)
    if _unknown_tools(tools):
        return 2
    policy = AdmissionPolicy()
    if args.min_size is not None or args.max_size is not None:
        policy = AdmissionPolicy(
            min_size=(args.min_size if args.min_size is not None
                      else policy.min_size),
            max_size=(args.max_size if args.max_size is not None
                      else policy.max_size))
    if args.fault_plan:
        faults.install(args.fault_plan)

    temp_run = None
    run_dir = args.resume or args.run_dir
    if run_dir is None:
        temp_run = tempfile.mkdtemp(prefix="repro-scan-")
        run_dir = f"{temp_run}/run"
    breaker = None
    if args.breaker_threshold > 0:
        breaker = CircuitBreaker(threshold=args.breaker_threshold)
    try:
        result = run_scan(
            run_dir,
            roots=list(args.roots) or None,
            tools=tools,
            resume=bool(args.resume),
            include=tuple(args.include),
            exclude=tuple(args.exclude),
            policy=policy,
            follow_symlinks=not args.no_follow_symlinks,
            workers=args.workers,
            timeout=args.timeout,
            max_rss_mb=args.max_rss_mb,
            limit=args.limit,
            breaker=breaker,
            quarantine=not args.no_quarantine,
        )
    except JournalError as exc:
        return _run_dir_failure(exc, "scan", run_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.fault_plan:
            faults.clear()

    stats = result.stats
    print(f"scanned {stats.walked} entries: {stats.dispatched} analyzed, "
          f"{stats.walk_skips + stats.triaged} triaged out, "
          f"{stats.resumed} already decided, "
          f"{stats.lost_workers} workers lost", file=sys.stderr)
    report = build_fleet_report(result.state, result.manifest)
    text = (json.dumps(report, indent=1, sort_keys=True)
            if args.format == "json" else render_fleet_table(report))
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
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


def _export_eval_trace(out_path: str, trace_dir: str) -> None:
    """Flush the parent recorder and merge all part files into one trace."""
    import os
    from pathlib import Path

    from repro import obs

    recorder = obs.recorder()
    if recorder.enabled:
        obs.append_payload(
            Path(trace_dir) / f"worker-{os.getpid()}.jsonl",
            recorder.drain())
    parts = sorted(Path(trace_dir).glob("*.jsonl"))
    trace = obs.merge_traces(out_path, parts)
    print(f"wrote trace {out_path} ({len(trace.spans)} spans, "
          f"{len(trace.counters)} counters, {len(parts)} part files)",
          file=sys.stderr)


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
    from repro.service import AnalysisService, JobManager, TenantRateLimiter

    tools = _split_csv(args.tools) or None
    if _unknown_tools(tools):
        return 2
    # Counters only: a long-lived server must not accumulate spans.
    obs.set_recorder(obs.CounterRecorder())
    try:
        manager = JobManager(
            args.run_dir,
            tools=tools,
            cache_root=args.cache_dir,
            queue_size=args.queue_size,
            executor_workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            isolation=args.isolation,
            backstop=args.backstop,
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
    return asyncio.run(_serve_until_signal(service))


async def _serve_until_signal(service) -> int:
    import asyncio
    import json
    import os
    import signal

    host, port = await service.start()
    manager = service.manager
    address = {"host": host, "port": port, "pid": os.getpid()}
    (manager.run_dir / "address.json").write_text(
        json.dumps(address), encoding="utf-8")
    if manager.resumed:
        print(f"resumed run dir {manager.run_dir}: "
              f"{manager.stats['restored']} completed jobs restored, "
              f"{manager.stats['resumed_jobs']} re-enqueued",
              file=sys.stderr)
    # The machine-readable "I'm up" line: chaos and tests parse it.
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
    await service.stop()
    return 0


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
            print(f"error: chaos {flag} does not take "
                  f"{' or '.join(given)}", file=sys.stderr)
            return 2
    tools = None if args.tools is None else _split_csv(args.tools)
    if _unknown_tools(tools):
        return 2
    if args.work_dir:
        try:
            claim_work_dir(args.work_dir)
        except FileExistsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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

    tools = _split_csv(args.tools)
    if _unknown_tools(tools):
        return 2
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

    families = None
    if args.families:
        families = _split_csv(args.families)
    timeout = (args.timeout if args.timeout is not None
               else DEFAULT_CASE_TIMEOUT)
    print(f"fuzzing: {args.budget} mutants, seed {args.seed} ...",
          file=sys.stderr)
    try:
        report = run_fuzz(args.budget, seed=args.seed, families=families,
                          case_timeout=timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    import json

    from repro.analysis.ibt_audit import audit_ibt
    from repro.cfg import recover_program_cfg
    from repro.elf.gnuproperty import parse_cet_features

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
    elf = ELFFile.from_path(args.binary)
    print(f"{'tool':14s} {'functions':>9s} {'time':>9s}")
    for name, cls in ALL_DETECTORS.items():
        result = cls().detect(elf)
        print(f"{name:14s} {len(result.functions):9d} "
              f"{result.elapsed_seconds * 1000:7.1f}ms")
    return 0


def _cmd_disasm(args) -> int:
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

    _configure_cache(args.cache_dir)
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


def _cmd_bti_demo() -> int:
    from repro.arm import (
        generate_bti_program,
        identify_functions_bti,
        link_bti_program,
    )

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
