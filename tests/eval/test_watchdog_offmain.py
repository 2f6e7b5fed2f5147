"""Off-main-thread deadline degradation is recorded, never silent.

``SIGALRM`` only arms on the main thread; historically a ``deadline``
requested anywhere else silently became a no-op. These tests pin the
contract that replaced the silence: the cell still runs (availability
over enforcement), but the degradation is counted
(``isolation.watchdog_unarmed``), warned once, and recorded as
``enforced=False`` on every report the unenforced run produces.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.eval.analyze import analyze_image
from repro.eval.isolation import deadline, watchdog_armable
from repro.obs.log import reset_warn_once
from repro.obs.recorder import CounterRecorder


def _in_thread(fn):
    out = {}

    def _run():
        out["result"] = fn()

    thread = threading.Thread(target=_run)
    thread.start()
    thread.join(timeout=120)
    assert "result" in out, "thread body never finished"
    return out["result"]


def test_watchdog_armable_only_on_main_thread():
    assert watchdog_armable() is True
    assert _in_thread(watchdog_armable) is False


def test_deadline_off_main_thread_runs_unenforced_but_counted(capsys):
    recorder = obs.set_recorder(CounterRecorder())
    reset_warn_once()
    try:
        def body():
            with deadline(0.05):
                end = time.perf_counter() + 0.2
                while time.perf_counter() < end:
                    pass
            return "survived"

        assert _in_thread(body) == "survived"
        assert _in_thread(body) == "survived"
        assert recorder.counters.get("isolation.watchdog_unarmed", 0) == 2
        # warn-once: the counter counts every call, stderr fires once.
        err = capsys.readouterr().err
        assert err.count("NOT enforced") == 1
    finally:
        obs.set_recorder(None)
        reset_warn_once()


def test_analyze_off_main_thread_reports_unenforced(sample_binary):
    result = _in_thread(lambda: analyze_image(
        sample_binary.data, ["funseeker"], timeout=30.0))
    report = result.tools["funseeker"]
    assert report.ok
    assert report.enforced is False
    doc = report.to_doc()
    assert doc["enforced"] is False

    on_main = analyze_image(sample_binary.data, ["funseeker"],
                            timeout=30.0)
    assert on_main.tools["funseeker"].enforced is True


def test_analyze_without_timeout_is_enforced_anywhere(sample_binary):
    # No deadline requested → nothing to enforce → enforced stays True
    # even off the main thread.
    result = _in_thread(lambda: analyze_image(
        sample_binary.data, ["funseeker"], timeout=None))
    assert result.tools["funseeker"].enforced is True
