"""The one journal fold, run over the evaluate, scan and serve kind tables.

Each table says how to write a final and a retryable line for a key,
carrying a marker, and how to read the marker back from a folded value.
Every rule of :class:`repro.eval.journal.JournalFold` must hold for all
three tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.eval.journal import JOURNAL_NAME, JournalFile, RunState
from repro.eval.runner import RunRecord
from repro.ingest.journal import ScanState
from repro.service.jobs import Job, JobFold


@dataclass(frozen=True)
class Table:
    fold: type
    final: Callable[[str, int], dict]
    retryable: Callable[[str, int], dict]
    marker: Callable[[object], int]
    key: Callable[[str], object] = str

    def keys(self, names: str) -> list:
        """The fold keys of the one-letter key names in ``names``."""
        return [self.key(name) for name in names]


def _cell(key: str) -> dict:
    return {"suite": "synthetic", "program": key, "compiler": "gcc",
            "bits": 64, "pie": True, "opt": "O2", "tool": "funseeker"}


EVALUATE = Table(
    RunState,
    final=lambda key, mark: {"kind": "record", **_cell(key), "tp": mark,
                             "fp": 0, "fn": 0, "elapsed_seconds": 0.0},
    retryable=lambda key, mark: {
        "kind": "failure", **_cell(key), "phase": "detect",
        "error_type": "WorkerLost", "message": str(mark)},
    marker=lambda value: (value.confusion.tp if isinstance(value, RunRecord)
                          else int(value.message)),
    key=lambda name: tuple(_cell(name).values()),
)

SCAN = Table(
    ScanState,
    final=lambda key, mark: {"kind": "analysis", "path": key,
                             "status": "ok", "size": mark},
    retryable=lambda key, mark: {"kind": "failure", "path": key,
                                 "error_type": "WorkerLost",
                                 "message": str(mark)},
    marker=lambda doc: (doc["size"] if doc["kind"] == "analysis"
                        else int(doc["message"])),
)

SERVE = Table(
    JobFold,
    final=lambda key, mark: {"kind": "job-failed", "job": key,
                             "error": "MalformedELFError: bad",
                             "error_type": "MalformedELFError", "at": mark},
    retryable=lambda key, mark: {"kind": "job-submitted", "job": key,
                                 "tenant": "default", "sha256": "0" * 64,
                                 "size": 1, "tools": ["funseeker"],
                                 "at": mark},
    marker=lambda value: (value.submitted_at if isinstance(value, Job)
                          else value["completed_at"]),
)

TABLES = pytest.mark.parametrize(
    "table", [EVALUATE, SCAN, SERVE], ids=["evaluate", "scan", "serve"])


def _fold(tmp_path, table: Table, *lines: dict, corrupt_at=None,
          torn_tail=False):
    """Journal ``lines``, damage the file as asked, and fold it."""
    path = tmp_path / JOURNAL_NAME
    journal = JournalFile(path)
    for line in lines:
        journal.append(line)
    journal.close()
    text = path.read_text().splitlines(keepends=True)
    if corrupt_at is not None:
        text.insert(corrupt_at, "not a journal line\n")
    if torn_tail:
        text.append(text[-1][:-20])
    path.write_text("".join(text))
    return table.fold.read(path)


@TABLES
def test_torn_tail_is_dropped_and_flagged(tmp_path, table):
    fold = _fold(tmp_path, table, table.retryable("a", 1), torn_tail=True)
    assert fold.torn_tail
    assert fold.corrupt_lines == 0
    assert list(fold.entries) == table.keys("a")


@TABLES
def test_corrupt_interior_line_is_counted(tmp_path, table):
    fold = _fold(tmp_path, table, table.retryable("a", 1),
                 table.retryable("b", 1), corrupt_at=1)
    assert fold.corrupt_lines == 1
    assert not fold.torn_tail
    assert list(fold.entries) == table.keys("ab")


@TABLES
def test_unknown_kind_and_undecodable_lines_are_counted(tmp_path, table):
    bogus = {**table.retryable("b", 1), "kind": "bogus"}
    fieldless = {"kind": table.retryable("c", 1)["kind"]}
    fold = _fold(tmp_path, table, table.retryable("a", 1), bogus, fieldless)
    assert fold.corrupt_lines == 2
    assert list(fold.entries) == table.keys("a")


@TABLES
def test_later_line_wins(tmp_path, table):
    fold = _fold(tmp_path, table,
                 table.retryable("a", 1), table.final("a", 2),
                 table.final("a", 3),
                 table.retryable("b", 4), table.retryable("b", 5))
    assert table.marker(fold.finals()[table.key("a")]) == 3
    assert table.marker(fold.pending()[table.key("b")]) == 5
    assert fold.completed == {table.key("a")}


@TABLES
def test_final_supersedes_retryable_after_it(tmp_path, table):
    fold = _fold(tmp_path, table,
                 table.retryable("a", 1), table.final("a", 2))
    assert fold.completed == {table.key("a")}
    assert fold.pending() == {}
    assert table.marker(fold.finals()[table.key("a")]) == 2


@TABLES
def test_final_supersedes_retryable_before_it(tmp_path, table):
    fold = _fold(tmp_path, table,
                 table.final("a", 2), table.retryable("a", 1))
    assert fold.corrupt_lines == 0
    assert fold.completed == {table.key("a")}
    assert fold.pending() == {}
    assert table.marker(fold.finals()[table.key("a")]) == 2


@TABLES
def test_keys_keep_first_seen_order(tmp_path, table):
    fold = _fold(tmp_path, table,
                 table.retryable("c", 1), table.retryable("a", 1),
                 table.final("c", 2), table.retryable("b", 1),
                 table.final("a", 2))
    assert list(fold.entries) == table.keys("cab")
    assert list(fold.finals()) == table.keys("ca")
    assert list(fold.pending()) == table.keys("b")


def test_serve_terminal_line_without_a_submit_is_an_orphan(tmp_path):
    fold = _fold(tmp_path, SERVE,
                 SERVE.final("a", 1), SERVE.retryable("b", 1))
    assert fold.corrupt_lines == 1
    assert list(fold.entries) == ["b"]


def test_scan_failure_after_analysis_counts_the_path_once(tmp_path):
    fold = _fold(tmp_path, SCAN,
                 SCAN.final("/bin/a", 1), SCAN.retryable("/bin/a", 2))
    assert fold.decided == 1
    assert set(fold.analyses) == {"/bin/a"}
    assert fold.failures == {}
    assert fold.completed == {"/bin/a"}
