"""Cross-path identity: one image, one answer, whichever way it runs.

Table III compares tools on the same stripped binaries, which holds
only if an image gets the same entry sets and failure kinds whichever
entry point runs it. Every strict-parse path below (serial and
parallel ``evaluate``, a ``serve`` job body, quarantine replay) must
agree cell by cell on:

- the entry set of every successful (image, tool) cell;
- the ``(phase, error_type)`` kind of every failed cell;
- the ``enforced`` flag wherever the path reports one.

``scan`` parses in degraded mode, so it is held only to the sizes of
the strict entry sets wherever the strict parse succeeds.

Entry sets are captured at the one call every path makes,
``FunctionDetector.detect``, and written to files so that forked pool
workers report theirs too. No disk cache is configured: every path
really computes.
"""

from __future__ import annotations

import hashlib
import json
import types
from pathlib import Path

import pytest

from repro import faults
from repro.baselines import ALL_DETECTORS, FunctionDetector
from repro.cache import reset_default_cache, set_default_cache
from repro.cache.disk import ENV_CACHE_DIR
from repro.eval.isolation import FailureRecord
from repro.eval.parallel import run_evaluation_parallel
from repro.eval.quarantine import QuarantineStore, replay_entry
from repro.eval.runner import run_evaluation
from repro.ingest.ladder import analyze_binary
from repro.service.jobs import execute_payload
from repro.synth.corpus import CorpusEntry
from repro.synth.profiles import CompilerProfile

TOOLS = tuple(ALL_DETECTORS)
HOSTILE = Path(__file__).resolve().parents[1] / "ingest" / "corpus"
#: Armed on every path, so each one reports a real ``enforced`` flag.
TIMEOUT = 60.0
#: Tiny-corpus images: both ISAs, both compilers, PIE and not, C++.
TINY_PICKS = (0, 7, 13, 20)


def _hostile_entry(path: Path) -> CorpusEntry:
    """A corpus entry for a checked-in hostile input: no ground truth."""
    binary = types.SimpleNamespace(
        profile=CompilerProfile("gcc", "O2", 64, True),
        ground_truth=types.SimpleNamespace(function_starts=frozenset()),
    )
    return CorpusEntry(suite="hostile", program=path.name, binary=binary,
                       stripped=path.read_bytes())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recorder:
    """Captures every ``detect`` result as a file named by path label."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.label = "unset"

    def install(self, monkeypatch) -> None:
        original = FunctionDetector.detect
        recorder = self

        def detect(self, elf):
            result = original(self, elf)
            name = f"{recorder.label}.{_sha(elf.data)}.{self.name}.json"
            (recorder.root / name).write_text(
                json.dumps(sorted(result.functions)))
            return result

        monkeypatch.setattr(FunctionDetector, "detect", detect)

    def sets(self, label: str) -> dict[tuple[str, str], frozenset[int]]:
        out = {}
        for path in self.root.glob(f"{label}.*.json"):
            _, sha, tool, _ = path.name.split(".")
            out[sha, tool] = frozenset(json.loads(path.read_text()))
        return out


@pytest.fixture(scope="module")
def entries(tiny_corpus) -> list[CorpusEntry]:
    picked = [tiny_corpus[i] for i in TINY_PICKS]
    return picked + [_hostile_entry(p) for p in sorted(HOSTILE.iterdir())
                     if p.suffix in (".elf", ".bin")]


@pytest.fixture
def recorder(tmp_path, monkeypatch) -> _Recorder:
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.delenv(faults.ENV_FAULT_PLAN, raising=False)
    faults.install(None, env=False)
    set_default_cache(None)
    root = tmp_path / "detect"
    root.mkdir()
    rec = _Recorder(root)
    rec.install(monkeypatch)
    yield rec
    reset_default_cache()


def _eval_cells(report, entries, sets) -> dict:
    """``(sha, tool) -> outcome`` from an :class:`EvalReport`."""
    sha_of = {(e.suite, e.program): _sha(e.stripped) for e in entries}
    cells = {}
    for rec in report.records:
        sha = sha_of[rec.suite, rec.program]
        cells[sha, rec.tool] = ("ok", sets[sha, rec.tool])
    for fail in report.failures:
        assert isinstance(fail, FailureRecord)
        sha = sha_of[fail.suite, fail.program]
        cells[sha, fail.tool] = ("fail", fail.phase, fail.error_type,
                                 fail.enforced)
    return cells


def test_every_path_gives_identical_cells(entries, recorder, tmp_path):
    paths: dict[str, dict] = {}

    recorder.label = "serial"
    report = run_evaluation(
        entries, {name: ALL_DETECTORS[name]() for name in TOOLS},
        timeout=TIMEOUT)
    paths["serial"] = _eval_cells(report, entries, recorder.sets("serial"))

    for workers in (1, 2):
        label = f"parallel{workers}"
        recorder.label = label
        report = run_evaluation_parallel(entries, list(TOOLS),
                                         workers=workers, timeout=TIMEOUT)
        paths[label] = _eval_cells(report, entries, recorder.sets(label))

    recorder.label = "serve"
    blobs = tmp_path / "blobs"
    blobs.mkdir()
    serve = {}
    for entry in entries:
        sha = _sha(entry.stripped)
        blob = blobs / sha
        blob.write_bytes(entry.stripped)
        analysis = execute_payload({
            "blob": str(blob), "tools": TOOLS, "tenant": "default",
            "timeout": TIMEOUT, "retries": 0, "cache": None,
        })
        assert analysis.sha256 == sha
        for name, report in analysis.tools.items():
            if report.ok:
                serve[sha, name] = ("ok", frozenset(report.functions))
                assert report.enforced
            else:
                serve[sha, name] = ("fail", report.phase, report.error_type,
                                    report.enforced)
    recorded = recorder.sets("serve")
    for key, cell in serve.items():
        if cell[0] == "ok":
            assert recorded[key] == cell[1], key
    paths["serve"] = serve

    baseline = paths["serial"]
    assert len(baseline) == len(entries) * len(TOOLS)
    assert any(c[0] == "ok" for c in baseline.values())
    assert any(c[0] == "fail" for c in baseline.values())
    for label, cells in paths.items():
        assert cells == baseline, f"{label} diverges from serial evaluate"

    # Quarantine replay: one entry per image, one failure per tool.
    recorder.label = "replay"
    store = QuarantineStore(tmp_path / "q")
    for entry in entries:
        for name in TOOLS:
            store.capture(entry.stripped, FailureRecord(
                suite=entry.suite, program=entry.program, compiler="gcc",
                bits=64, pie=True, opt="O2", tool=name, phase="detect",
                error_type="Captured", message="cross-path"))
    replayed = {}
    for qentry in store.entries():
        for outcome in replay_entry(qentry, timeout=TIMEOUT):
            replayed[qentry.sha256, outcome.tool] = outcome
    assert replayed.keys() == baseline.keys()
    replay_sets = recorder.sets("replay")
    for key, cell in baseline.items():
        outcome = replayed[key]
        if cell[0] == "ok":
            assert not outcome.reproduced, key
            assert replay_sets[key] == cell[1], key
        else:
            assert outcome.reproduced, key
            assert outcome.error_type == cell[2], key

    # scan: degraded parse, so only the entry-set sizes are pinned, and
    # only where the strict parse succeeded.
    recorder.label = "scan"
    by_sha = {_sha(e.stripped): e for e in entries}
    compared = 0
    for sha, entry in by_sha.items():
        strict_ok = any(baseline[sha, name][0] == "ok" or
                        baseline[sha, name][1] != "parse"
                        for name in TOOLS)
        if not strict_ok:
            continue
        path = tmp_path / "scan" / sha
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(entry.stripped)
        outcome = analyze_binary(path, list(TOOLS), timeout=TIMEOUT)
        for name in TOOLS:
            tool = outcome.tools[name]
            cell = baseline[sha, name]
            if cell[0] == "ok" and tool.ok:
                assert tool.functions == len(cell[1]), (entry.program, name)
                compared += 1
    assert compared >= len(TINY_PICKS) * len(TOOLS)
