"""Run-journal format: checksums, torn tails, manifests, resume merge."""

import json

import pytest

from repro import faults
from repro.errors import (
    JournalError,
    JournalWriteError,
    ManifestMismatchError,
)
from repro.eval.isolation import PHASE_DETECT, FailureRecord
from repro.eval.journal import (
    JOURNAL_NAME,
    RunJournal,
    RunState,
    build_manifest,
    cell_key,
    check_manifest,
    corpus_fingerprint,
    entry_cell_key,
    merge_resumed_report,
)
from repro.eval.metrics import Confusion
from repro.eval.runner import EvalReport, RunRecord


def _record(program="p0", tool="funseeker", tp=5) -> RunRecord:
    return RunRecord(
        suite="synthetic", program=program, compiler="gcc", bits=64,
        pie=True, opt="O2", tool=tool,
        confusion=Confusion(tp=tp, fp=1, fn=2),
        elapsed_seconds=0.25,
        phase_seconds={"sweep": 0.1},
    )


def _failure(program="p0", tool="funseeker") -> FailureRecord:
    return FailureRecord(
        suite="synthetic", program=program, compiler="gcc", bits=64,
        pie=True, opt="O2", tool=tool, phase=PHASE_DETECT,
        error_type="RuntimeError", message="boom", attempts=2,
        elapsed_seconds=0.5,
    )


def _manifest() -> dict:
    return build_manifest([], ["funseeker"], scale="tiny", seed=1)


def test_append_and_read_roundtrip(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    record = _record()
    failure = _failure(program="p1")
    journal.append_record(record)
    journal.append_failure(failure)
    journal.close()

    state = RunJournal(tmp_path / "run").fold()
    assert state.records == [record]
    assert state.failures == [failure]
    assert not state.torn_tail
    assert state.corrupt_lines == 0
    assert state.completed == {cell_key(record)}


def test_failures_never_count_as_completed(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_failure(_failure())
    journal.close()
    assert RunJournal(tmp_path / "run").fold().completed == set()


def test_success_supersedes_journaled_failure(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_failure(_failure())
    journal.append_record(_record())      # the resume healed it
    journal.close()
    state = RunJournal(tmp_path / "run").fold()
    assert state.failures == []
    assert len(state.records) == 1


def test_later_record_wins(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_record(_record(tp=1))
    journal.append_record(_record(tp=9))
    journal.close()
    state = RunJournal(tmp_path / "run").fold()
    assert len(state.records) == 1
    assert state.records[0].confusion.tp == 9


def test_torn_tail_is_dropped_not_fatal(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_record(_record(program="p0"))
    journal.append_record(_record(program="p1"))
    journal.close()
    path = tmp_path / "run" / JOURNAL_NAME
    data = path.read_bytes()
    path.write_bytes(data[:-20])          # tear the last line mid-record

    state = RunJournal(tmp_path / "run").fold()
    assert state.torn_tail
    assert [r.program for r in state.records] == ["p0"]


def test_corrupt_interior_line_is_skipped_and_counted(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_record(_record(program="p0"))
    journal.append_record(_record(program="p1"))
    journal.close()
    path = tmp_path / "run" / JOURNAL_NAME
    lines = path.read_text().splitlines()
    lines[0] = lines[0][:-10] + "X" * 10  # flip bytes inside line 1
    path.write_text("\n".join(lines) + "\n")

    state = RunJournal(tmp_path / "run").fold()
    assert state.corrupt_lines == 1
    assert not state.torn_tail
    assert [r.program for r in state.records] == ["p1"]


def test_crc_rejects_payload_tampering(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_record(_record(tp=5))
    journal.close()
    path = tmp_path / "run" / JOURNAL_NAME
    doc = json.loads(path.read_text())
    doc["data"]["tp"] = 999               # tamper without fixing the crc
    path.write_text(json.dumps(doc) + "\n")
    assert RunJournal(tmp_path / "run").fold().records == []


def test_missing_journal_reads_empty(tmp_path):
    state = RunJournal(tmp_path / "nowhere").fold()
    assert state.records == [] and state.failures == []


def test_create_refuses_existing_run_dir(tmp_path):
    RunJournal.create(tmp_path / "run", _manifest()).close()
    with pytest.raises(JournalError):
        RunJournal.create(tmp_path / "run", _manifest())


def test_resume_requires_a_manifest(tmp_path):
    with pytest.raises(JournalError):
        RunJournal.resume(tmp_path / "empty")
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.close()
    resumed = RunJournal.resume(tmp_path / "run")
    assert resumed.manifest()["schema"] == "run-manifest/v1"


def test_append_fault_raises_journal_write_error(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    faults.install("enospc@journal.append#1", env=False)
    try:
        with pytest.raises(JournalWriteError):
            journal.append_record(_record())
    finally:
        faults.clear()
        journal.close()


def test_truncate_fault_leaves_a_real_torn_line(tmp_path):
    journal = RunJournal.create(tmp_path / "run", _manifest())
    journal.append_record(_record(program="p0"))
    # Hit counting starts at plan install, so the next append is hit 1.
    faults.install("truncate@journal.append#1", env=False)
    try:
        with pytest.raises(JournalWriteError):
            journal.append_record(_record(program="p1"))
    finally:
        faults.clear()
        journal.close()
    state = RunJournal(tmp_path / "run").fold()
    assert state.torn_tail
    assert [r.program for r in state.records] == ["p0"]


def test_manifest_checks_fingerprint_and_tools(tiny_corpus):
    corpus = tiny_corpus[:3]
    manifest = build_manifest(corpus, ["funseeker"], scale="tiny", seed=1)
    check_manifest(manifest, corpus, ["funseeker"])
    with pytest.raises(ManifestMismatchError):
        check_manifest(manifest, corpus, ["funseeker", "ida"])
    with pytest.raises(ManifestMismatchError):
        check_manifest(manifest, corpus[:2], ["funseeker"])
    with pytest.raises(ManifestMismatchError):
        check_manifest({"schema": "bogus/v0"}, corpus, ["funseeker"])


def test_corpus_fingerprint_tracks_content(tiny_corpus):
    a = corpus_fingerprint(tiny_corpus[:2])
    assert a == corpus_fingerprint(tiny_corpus[:2])
    assert a != corpus_fingerprint(tiny_corpus[:3])
    assert a != corpus_fingerprint(list(reversed(tiny_corpus[:2])))


def test_merge_resumed_report_is_canonically_ordered(tiny_corpus):
    corpus = tiny_corpus[:2]
    tools = ["funseeker", "fetch"]

    def rec(entry, tool):
        p = entry.profile
        return RunRecord(
            suite=entry.suite, program=entry.program, compiler=p.compiler,
            bits=p.bits, pie=p.pie, opt=p.opt, tool=tool,
            confusion=Confusion(tp=1), elapsed_seconds=0.0)

    # Prior journal holds the *second* entry's cells; the resume run
    # produced the first entry's — merged output must be corpus order.
    prior = RunState()
    for tool in tools:
        prior.add(rec(corpus[1], tool))
    fresh = EvalReport(records=[rec(corpus[0], t) for t in tools])
    merged = merge_resumed_report(corpus, tools, prior, fresh)
    assert [(r.program, r.tool) for r in merged.records] == [
        (entry.program, tool) for entry in corpus for tool in tools]
    assert merged.failures == []


def test_merge_fresh_outcome_supersedes_journal(tiny_corpus):
    corpus = tiny_corpus[:1]
    entry = corpus[0]
    p = entry.profile
    tools = ["funseeker"]
    journaled_failure = FailureRecord(
        suite=entry.suite, program=entry.program, compiler=p.compiler,
        bits=p.bits, pie=p.pie, opt=p.opt, tool="funseeker",
        phase=PHASE_DETECT, error_type="WorkerLost", message="gone")
    fresh_record = RunRecord(
        suite=entry.suite, program=entry.program, compiler=p.compiler,
        bits=p.bits, pie=p.pie, opt=p.opt, tool="funseeker",
        confusion=Confusion(tp=3), elapsed_seconds=0.0)
    prior = RunState()
    prior.add(journaled_failure)
    merged = merge_resumed_report(
        corpus, tools, prior, EvalReport(records=[fresh_record]))
    assert merged.failures == []
    assert merged.records == [fresh_record]
    assert entry_cell_key(entry, "funseeker") == cell_key(fresh_record)
