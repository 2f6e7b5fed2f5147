"""The CLI's option surface: every option a command accepts is read by
its handler, everything else is refused with exit 2.

The table-driven test runs each command (``quarantine list`` and
``quarantine replay`` count as two) with each option any command
declares, one at a time, through :func:`repro.cli.build_parser` and a
namespace that records attribute reads. The heavy calls behind the
handlers (corpus builds, sweeps, scans, chaos runs, the server) are
stubbed, so only the option plumbing runs.

The environment is part of the surface too: the package reads exactly
the variables :data:`ENVIRONMENT` names, so a new knob cannot slip in
through ``os.environ``.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli, obs
from repro.cli import build_parser, main
from repro.ingest.fixtures import synth_binary

#: Every environment variable the package reads.
ENVIRONMENT = {"REPRO_CACHE_DIR", "REPRO_FAULT_PLAN"}

#: The arguments each command needs before any option is added.
BASE = {
    "identify": ["{bin}"], "cfg": ["{bin}"], "disasm": ["{bin}"],
    "compare": ["{bin}"], "report": ["{bin}"], "profile": ["{bin}"],
    "table1": [], "table2": [], "table3": [], "figure3": [], "errors": [],
    "all": [], "bti-demo": [], "dataset": ["{tmp}/ds"], "corpus-info": [],
    "evaluate": [], "scan": ["{tmp}"], "cache": ["stats"], "fuzz": [],
    "quarantine list": ["--dir", "{tmp}/q"],
    "quarantine replay": ["--dir", "{tmp}/q"],
    "chaos": [], "serve": ["--run-dir", "{tmp}/svc"],
}

#: A valid value for each option that takes one; anything else gets "1".
VALUES = {
    "--scale": "tiny", "--tools": "funseeker", "--format": "json",
    "--isolation": "process", "--host": "127.0.0.1", "--port": "0",
    "--families": "truncate", "--include": "*", "--exclude": "nothing",
    "--fault-plan": "io@cache.get#999",
    "--cache-dir": "{tmp}/cache", "--run-dir": "{tmp}/run",
    "--resume": "{tmp}/prior", "--output": "{tmp}/out",
    "--trace": "{tmp}/trace.jsonl", "--quarantine": "{tmp}/quarantine",
    "--work-dir": "{tmp}/work", "--dir": "{tmp}/q",
}


class RecordingNamespace(argparse.Namespace):
    """A namespace that remembers which attributes were read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "reads":
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def _children(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _commands(parser) -> dict:
    """Every leaf command's parser; a nested one is named "outer inner"."""
    leaves = {}
    for name, sub in _children(parser).items():
        nested = _children(sub)
        leaves.update({f"{name} {n}": p for n, p in nested.items()}
                      if nested else {name: sub})
    return leaves


def _options(parser) -> dict:
    """``--option`` string -> its action."""
    return {opt: action for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")
            and not isinstance(action, argparse._HelpAction)}


PARSER = build_parser()
COMMANDS = _commands(PARSER)
ALL_OPTIONS = sorted({opt for sub in COMMANDS.values()
                      for opt in _options(sub)})


@pytest.fixture(scope="module")
def binary_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("surface") / "bin"
    path.write_bytes(synth_binary("surface", functions=8))
    return str(path)


@pytest.fixture()
def stubbed(monkeypatch):
    """Replace every heavy call behind a handler with a cheap fake."""
    import repro.cache
    import repro.eval.parallel
    import repro.eval.quarantine
    import repro.eval.tables
    import repro.faults.chaos
    import repro.fuzz
    import repro.ingest
    import repro.service
    import repro.service.chaos
    import repro.synth.corpus
    import repro.synth.dataset
    from repro.eval.runner import EvalReport
    from repro.ingest.journal import ScanState
    from repro.ingest.pipeline import ScanStats

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    patch = monkeypatch.setattr
    patch(repro.cache, "set_default_cache", lambda cache: None)
    patch(repro.synth.corpus, "build_corpus", lambda *a, **k: [])
    patch(repro.synth.corpus, "iter_corpus", lambda *a, **k: iter(()))
    patch(repro.service.chaos, "build_corpus", lambda *a, **k: [])
    for name in ("table1", "table2", "table3", "figure3", "error_breakdown"):
        patch(repro.eval.tables, name, lambda corpus: ("", None))
    patch(repro.synth.dataset, "save_dataset",
          lambda *a, **k: {"binaries": []})
    # The package re-exports a function under the module's name.
    patch(importlib.import_module("repro.analysis.dataset_stats"),
          "dataset_stats",
          lambda corpus: SimpleNamespace(render=lambda: ""))
    patch(repro.eval.parallel, "run_evaluation_parallel",
          lambda *a, **k: EvalReport())
    patch(repro.ingest, "run_scan", lambda *a, **k: SimpleNamespace(
        stats=ScanStats(), state=ScanState(), manifest={}))
    patch(repro.ingest, "build_fleet_report", lambda *a: {})
    patch(repro.ingest, "render_fleet_table", lambda report: "")
    patch(repro.fuzz, "run_fuzz", lambda *a, **k: SimpleNamespace(
        render=lambda: "", ok=True))
    entry = SimpleNamespace(sha256="ab" * 32, short="abab", size=1,
                            failures=[])
    patch(repro.eval.quarantine.QuarantineStore, "entries",
          lambda self: [entry])
    patch(repro.eval.quarantine, "replay_entry", lambda *a, **k: [])
    patch(repro.faults.chaos, "run_scenarios",
          lambda driver, work_dir: SimpleNamespace(render=lambda: "",
                                                   ok=True))
    async def serve():
        return 0

    patch(repro.service, "JobManager", lambda *a, **k: None)
    patch(repro.service, "AnalysisService",
          lambda *a, **k: SimpleNamespace(serve_until_signal=serve))
    yield
    obs.set_recorder(None)  # serve installs a counters-only recorder


def _argv(command, option, action, tmp_path, binary_path) -> list[str]:
    argv = [*command.split(), *BASE[command]]
    if action is None or action.nargs != 0:
        argv += [option, VALUES.get(option, "1")]
    else:
        argv.append(option)
    return [a.format(tmp=tmp_path, bin=binary_path) for a in argv]


def test_base_table_names_every_command():
    assert set(BASE) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(BASE))
def test_every_option_is_read_or_refused(command, tmp_path, binary_path,
                                         stubbed, capsys):
    declared = _options(COMMANDS[command])
    ignored, misparsed = [], []
    for option in ALL_OPTIONS:
        action = declared.get(option)
        argv = _argv(command, option, action, tmp_path, binary_path)
        args = RecordingNamespace()
        try:
            PARSER.parse_args(argv, namespace=args)
        except SystemExit as exc:
            if exc.code != 2 or action is not None:
                misparsed.append((option, exc.code))
            continue
        assert action is not None, f"{command} accepted unknown {option}"
        args.reads.clear()
        try:
            rc = args.handler(args)
        except cli.UsageError:  # main's exit 2, after the option was read
            rc = 2
        assert rc in (0, 1, 2, 3), (option, rc)
        if action.dest not in args.reads:
            ignored.append(option)
    capsys.readouterr()
    assert not misparsed, f"{command}: not refused with exit 2: {misparsed}"
    assert not ignored, f"{command} accepts but never reads {ignored}"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    [cmd, *base, flag, value]
    for cmd, base in (("evaluate", []), ("scan", ["."]),
                      ("serve", ["--run-dir", "unused"]))
    for flag in ("--workers", "--timeout", "--max-rss-mb")
    for value in ("0", "-1")
] + [
    ["evaluate", "--retries", "-1"],
    ["serve", "--retries", "-1"],
    ["fuzz", "--budget", "0"],
    ["fuzz", "--budget", "-1"],
    ["fuzz", "--timeout", "0"],
    ["fuzz", "--timeout", "-1"],
    ["quarantine", "replay", "--dir", "unused", "--timeout", "0"],
    ["quarantine", "replay", "--dir", "unused", "--timeout", "-1"],
    ["disasm", "unused", "--limit", "-1"],
    ["chaos", "--limit", "-1"],
], ids=" ".join)
def test_out_of_range_numbers_exit_2(argv, capsys):
    # Parsing refuses these before a handler, a pool or a server starts.
    assert _exit_code(argv) == 2
    assert "is not" in capsys.readouterr().err


def test_limit_zero_still_means_all():
    assert PARSER.parse_args(["disasm", "x", "--limit", "0"]).limit == 0
    assert PARSER.parse_args(["chaos", "--limit", "0"]).limit == 0


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--workers", "1", "--max-rss-mb", "64"],
     "--workers 1 runs in-process"),
    (["scan", ".", "--workers", "1", "--max-rss-mb", "64"],
     "--workers 1 runs in-process"),
    (["serve", "--isolation", "thread", "--backstop", "5"],
     "--isolation thread does not take --backstop"),
    (["serve", "--isolation", "thread", "--max-rss-mb", "64"],
     "--isolation thread does not take --max-rss-mb"),
    (["serve", "--burst", "5"], "--burst sizes the --rate bucket"),
    (["serve", "--burst", "5", "--rate", "0"],
     "--burst sizes the --rate bucket"),
    (["scan", ".", "--breaker-threshold", "0"], "cannot be turned off"),
])
def test_dropped_combinations_exit_2(argv, message, tmp_path, capsys):
    if argv[0] == "serve":
        argv = [*argv, "--run-dir", str(tmp_path / "svc")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "svc").exists()


@pytest.mark.parametrize("argv", [
    ["quarantine", "list", "--dir", "unused", "--timeout", "3"],
    ["chaos", "--ingest", "--service"],
])
def test_options_a_command_cannot_use_exit_2(argv, capsys):
    assert _exit_code(argv) == 2


class TestCacheDir:
    @pytest.fixture()
    def filled(self, tmp_path):
        from repro.cache import DiskCache

        root = tmp_path / "env-cache"
        DiskCache(root).put("ab" * 32, "probe", {"x": 1})
        return root

    def _stats(self, capsys, *argv) -> dict:
        assert main(["cache", "stats", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stats_and_clear_follow_the_environment(
            self, filled, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(filled))
        stats = self._stats(capsys)
        assert (stats["root"], stats["entries"]) == (str(filled), 1)
        assert main(["cache", "clear"]) == 0
        assert f"removed 1 entries from {filled}" in capsys.readouterr().out
        assert self._stats(capsys)["entries"] == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_flag_wins_and_repro_cache_is_the_last_fallback(
            self, filled, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert self._stats(capsys, "--cache-dir", str(filled))["entries"] == 1
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert self._stats(capsys)["root"] == ".repro-cache"


class TestScanResumeIdentity:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("resume-identity")
        (root / "tree").mkdir()
        (root / "tree" / "one").write_bytes(synth_binary("one", functions=6))
        run_dir = root / "run"
        assert main(["scan", str(root / "tree"), "--run-dir", str(run_dir),
                     "--workers", "1", "--tools", "funseeker,naive-endbr",
                     "--output", str(root / "report")]) == 0
        return run_dir

    @pytest.mark.parametrize("option", [
        ["--tools", "ida"], ["--tools", "naive-endbr,funseeker"],
        ["--include", "*.so"], ["--exclude", "one"],
    ], ids=" ".join)
    def test_a_different_identity_option_is_refused(self, run_dir, option,
                                                    capsys):
        capsys.readouterr()
        rc = main(["scan", "--resume", str(run_dir), "--workers", "1",
                   *option])
        assert rc == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_the_journaled_identity_is_accepted(self, run_dir, tmp_path,
                                                capsys):
        rc = main(["scan", "--resume", str(run_dir), "--workers", "1",
                   "--tools", "funseeker,naive-endbr",
                   "--output", str(tmp_path / "report")])
        assert rc == 0


# -- the environment ---------------------------------------------------------

def _is_environ(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) \
            and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _reads_environ(func) -> bool:
    """``os.environ.get``/``.pop``/``.setdefault`` or ``os.getenv``."""
    if isinstance(func, ast.Attribute):
        return func.attr == "getenv" or (
            func.attr in ("get", "pop", "setdefault")
            and _is_environ(func.value))
    return isinstance(func, ast.Name) and func.id == "getenv"


def _environment_reads() -> set[str]:
    """Names read through ``os.environ.get``/``[...]``/``os.getenv``,
    plus the value of every module-level ``ENV_*`` string constant."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(cli.__file__).parent.rglob("*.py"))}
    constants: dict[str, str] = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                constants.update(
                    (target.id, node.value.value) for target in node.targets
                    if isinstance(target, ast.Name)
                    and target.id.startswith("ENV_"))
    names = set(constants.values())
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and _is_environ(node.value):
                key = node.slice
            elif isinstance(node, ast.Call) and node.args \
                    and _reads_environ(node.func):
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
                continue
            ident = getattr(key, "id", None) or getattr(key, "attr", None)
            assert ident in constants, (
                f"{path.name}:{node.lineno}: environment read through "
                f"{ast.unparse(key)}; name it with a literal or an ENV_* "
                f"constant")
            names.add(constants[ident])
    return names


def test_environment_reads_are_exactly_the_documented_ones():
    assert _environment_reads() == ENVIRONMENT
