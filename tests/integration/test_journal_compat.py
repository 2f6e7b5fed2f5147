"""Journals in the v1 line format resume to the state they always did.

``data/journals_v1`` holds one run directory per journaling path,
written by the code that predates the shared journal fold, and
``expected.json`` records what each resumed to then:

- ``evaluate``: tiny corpus[:2] x funseeker,fetch. Both pool workers
  were SIGKILLed (four ``WorkerLost`` failures), then a resume healed
  one cell and tore its next append.
- ``scan``: the hostile fixture tree, with its root rewritten to
  ``/fleet``. A worker was killed mid-ladder, then a resume healed it
  and hit an I/O fault on one triage, which left one retryable
  failure. A torn line ends the journal.
- ``serve``: funseeker jobs in three states. Two completed, one was
  poisoned, and one was submitted but not finished (its blob is kept).
"""

import asyncio
import json
import shutil
from pathlib import Path

from repro.eval.chaos import normalize_report_doc
from repro.eval.export import report_to_json
from repro.eval.journal import (
    RunJournal,
    cell_key,
    check_manifest,
    merge_resumed_report,
)
from repro.eval.parallel import run_evaluation_parallel
from repro.ingest.journal import ScanJournal
from repro.ingest.report import build_fleet_report, normalize_fleet_report
from repro.service.jobs import JobManager

DATA = Path(__file__).parent / "data" / "journals_v1"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def test_evaluate_journal_resumes_to_the_same_report(tmp_path, tiny_corpus):
    expected = EXPECTED["evaluate"]
    corpus, tools = tiny_corpus[:2], ["funseeker", "fetch"]
    run_dir = tmp_path / "evaluate"
    shutil.copytree(DATA / "evaluate", run_dir)
    with RunJournal.resume(run_dir) as journal:
        check_manifest(journal.manifest(), corpus, tools)
        prior = journal.fold()
        fresh = run_evaluation_parallel(
            corpus, tools, workers=1, timeout=5.0, journal=journal,
            completed=prior.completed)
    assert [list(cell_key(r)) for r in prior.records] == expected["records"]
    assert [list(cell_key(f)) for f in prior.failures] == \
        expected["failures"]
    assert prior.corrupt_lines == expected["corrupt_lines"]
    assert prior.torn_tail == expected["torn_tail"]
    final = merge_resumed_report(corpus, tools, prior, fresh)
    assert final.failures == []
    assert normalize_report_doc(json.loads(report_to_json(final))) == \
        expected["report"]


def test_scan_journal_folds_to_the_same_fleet_report():
    expected = EXPECTED["scan"]
    journal = ScanJournal.resume(DATA / "scan")
    state = journal.fold()
    assert sorted(state.completed) == expected["completed"]
    assert sorted(state.failures) == expected["failures"]
    assert state.corrupt_lines == expected["corrupt_lines"]
    assert state.torn_tail == expected["torn_tail"]
    report = build_fleet_report(state, journal.manifest())
    assert normalize_fleet_report(report) == expected["report"]


def test_serve_journal_restores_the_same_job_table(tmp_path):
    expected = EXPECTED["serve"]
    run_dir = tmp_path / "serve"
    shutil.copytree(DATA / "serve", run_dir)
    manager = JobManager(run_dir, tools=["funseeker"])
    try:
        assert manager.resumed
        jobs = [
            {**job.doc(),
             "analysis": job.analysis.to_doc() if job.analysis else None,
             "receipt": job.receipt}
            for job in manager.jobs()
        ]
        assert jobs == expected["jobs"]
        assert manager.stats == expected["stats"]
        assert manager._pending_resume == expected["pending"]
    finally:
        asyncio.run(manager.stop())
