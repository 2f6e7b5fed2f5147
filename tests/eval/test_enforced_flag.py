"""The ``enforced`` flag agrees between the serial and parallel runners.

A failure record claims its ``--timeout`` was enforced only when
``SIGALRM`` could be armed where the cell ran. The serial runner, the
single-image analysis and the parallel runner's workers all compute it
the same way, so one sweep gives the same flag whichever runner ran it.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines import ALL_DETECTORS
from repro.baselines.base import FunctionDetector
from repro.elf.parser import ELFFile
from repro.eval.parallel import run_evaluation_parallel
from repro.eval.runner import run_evaluation


class _FailingDetector(FunctionDetector):
    """Fails every cell, so every cell leaves a failure record."""

    name = "always-fails"
    cacheable = False

    def _detect(self, elf: ELFFile) -> set[int]:
        raise RuntimeError("always fails")


@pytest.fixture()
def failing(monkeypatch):
    # Registered before any pool forks, so workers inherit it.
    monkeypatch.setitem(ALL_DETECTORS, _FailingDetector.name,
                        _FailingDetector)
    return _FailingDetector.name


def _serial(corpus, name, timeout):
    return run_evaluation(corpus, {name: _FailingDetector()},
                          timeout=timeout)


def _parallel(corpus, name, timeout, workers):
    return run_evaluation_parallel(corpus, [name], workers=workers,
                                   timeout=timeout)


def _flags(report) -> list[bool]:
    assert report.failures
    return [f.enforced for f in report.failures]


def _off_main(fn):
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault("r", fn()))
    thread.start()
    thread.join(timeout=120)
    return out["r"]


def test_serial_and_two_workers_agree(tiny_corpus, failing):
    corpus = tiny_corpus[:2]
    serial = _flags(_serial(corpus, failing, 30.0))
    parallel = _flags(_parallel(corpus, failing, 30.0, workers=2))
    assert serial == parallel == [True, True]


def test_off_main_thread_timeout_is_unenforced_on_both(tiny_corpus,
                                                       failing):
    """``workers=1`` runs in the calling thread: off the main thread
    the deadline cannot be armed there, exactly as in the serial
    runner."""
    corpus = tiny_corpus[:2]
    serial = _flags(_off_main(lambda: _serial(corpus, failing, 30.0)))
    parallel = _flags(_off_main(
        lambda: _parallel(corpus, failing, 30.0, workers=1)))
    assert serial == parallel == [False, False]


def test_no_timeout_is_enforced_anywhere(tiny_corpus, failing):
    corpus = tiny_corpus[:1]
    assert _flags(_off_main(
        lambda: _parallel(corpus, failing, None, workers=1))) == [True]
