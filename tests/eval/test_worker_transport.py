"""No worker path depends on POSIX shared memory.

Evaluate ships each image's bytes in its job, and scan workers read
their candidate's path, so a host whose ``/dev/shm`` is full (every
``SharedMemory`` create fails with ENOSPC) must give the same results
with two workers as with one.
"""

from __future__ import annotations

import errno
from multiprocessing import shared_memory

import pytest

from repro.eval.parallel import run_evaluation_parallel
from repro.ingest.pipeline import run_scan
from repro.ingest.report import build_fleet_report, normalize_fleet_report

TOOLS = ["funseeker", "naive-endbr"]


@pytest.fixture
def no_shm(monkeypatch):
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(shared_memory, "SharedMemory", full)


def _cells(report) -> dict:
    return {
        (r.suite, r.program, r.tool, r.opt, r.bits, r.pie):
            (r.confusion.tp, r.confusion.fp, r.confusion.fn)
        for r in report.records
    }


def test_parallel_evaluate_needs_no_shared_memory(tiny_corpus, no_shm):
    subset = tiny_corpus[:4]
    serial = run_evaluation_parallel(subset, TOOLS, workers=1)
    parallel = run_evaluation_parallel(subset, TOOLS, workers=2,
                                       timeout=30.0)
    assert not parallel.failures
    assert len(parallel.records) == len(subset) * len(TOOLS)
    assert _cells(parallel) == _cells(serial)


def test_parallel_scan_needs_no_shared_memory(tiny_corpus, tmp_path,
                                              no_shm):
    tree = tmp_path / "tree"
    tree.mkdir()
    for i, entry in enumerate(tiny_corpus[:4]):
        (tree / f"bin{i}.elf").write_bytes(entry.stripped)

    def scan(run_dir, workers):
        result = run_scan(run_dir, roots=[str(tree)], tools=TOOLS,
                          workers=workers, timeout=30.0)
        assert not result.state.failures
        return normalize_fleet_report(build_fleet_report(result.state))

    serial = scan(tmp_path / "serial", 1)
    assert serial["totals"]["analyzed"] == 4
    assert scan(tmp_path / "parallel", 2) == serial
