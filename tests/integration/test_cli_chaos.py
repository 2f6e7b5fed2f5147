"""CLI surface of the crash-safety subsystem: resume, quarantine, chaos."""

import json

import pytest

from repro.cli import main
from repro.eval.chaos import normalize_report_doc


def _evaluate(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["evaluate", "--scale", "tiny", "--tools", "funseeker",
               "--workers", "1", "--output", str(out), *extra])
    return rc, out


class TestEvaluateResume:
    def test_journal_abort_then_resume_matches_plain_run(self, tmp_path,
                                                         capsys):
        rc, plain = _evaluate(tmp_path, "plain.json")
        assert rc == 0
        run_dir = tmp_path / "run"

        # Disk fills on the 3rd journal append: exit 3 with a hint.
        rc, _ = _evaluate(tmp_path, "crashed.json",
                          "--run-dir", str(run_dir),
                          "--fault-plan", "enospc@journal.append#3")
        assert rc == 3
        err = capsys.readouterr().err
        assert f"--resume {run_dir}" in err

        # Resume completes and the report equals the uninterrupted one.
        rc, resumed = _evaluate(tmp_path, "resumed.json",
                                "--resume", str(run_dir))
        assert rc == 0
        err = capsys.readouterr().err
        assert "resuming" in err
        plain_doc = normalize_report_doc(json.loads(plain.read_text()))
        resumed_doc = normalize_report_doc(json.loads(resumed.read_text()))
        assert resumed_doc == plain_doc

    def test_resume_refuses_mismatched_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc, _ = _evaluate(tmp_path, "a.json", "--run-dir", str(run_dir))
        assert rc == 0
        rc = main(["evaluate", "--scale", "tiny",
                   "--tools", "funseeker,fetch", "--workers", "1",
                   "--output", "-", "--resume", str(run_dir)])
        assert rc == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_run_dir_refuses_reuse(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc, _ = _evaluate(tmp_path, "a.json", "--run-dir", str(run_dir))
        assert rc == 0
        rc, _ = _evaluate(tmp_path, "b.json", "--run-dir", str(run_dir))
        assert rc == 2
        assert "resume" in capsys.readouterr().err

    def test_run_dir_and_resume_are_exclusive(self, tmp_path, capsys):
        rc = main(["evaluate", "--run-dir", "a", "--resume", "b"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestQuarantineCli:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        # A sweep over one corrupted binary populates the store.
        import dataclasses

        from repro.eval.quarantine import QuarantineStore
        from repro.eval.runner import run_evaluation
        from repro.baselines import FunSeekerDetector
        from repro.synth.corpus import build_corpus

        entry = build_corpus("tiny")[0]
        bad = dataclasses.replace(
            entry, stripped=entry.stripped[:96] + b"\xff" * 32)
        store = QuarantineStore(tmp_path / "q")
        run_evaluation([bad], {"funseeker": FunSeekerDetector()},
                       quarantine=store)
        return str(tmp_path / "q")

    def test_list_renders_entries(self, store_dir, capsys):
        assert main(["quarantine", "list", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "failure(s)" in out
        assert "parse" in out

    def test_replay_reproduces_and_exits_nonzero(self, store_dir, capsys):
        rc = main(["quarantine", "replay", "--dir", store_dir])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "1 still failing" in out

    def test_empty_store(self, tmp_path, capsys):
        rc = main(["quarantine", "list", "--dir", str(tmp_path / "none")])
        assert rc == 0
        assert "no quarantined inputs" in capsys.readouterr().out


@pytest.mark.chaos_smoke
class TestChaosCli:
    def test_chaos_passes_on_healthy_tree(self, tmp_path, capsys):
        rc = main(["chaos", "--limit", "3", "--tools", "funseeker",
                   "--work-dir", str(tmp_path / "chaos")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all scenarios recovered" in out
        for name in ("worker-kill", "torn-journal", "corrupted-cache",
                     "journal-enospc", "cell-hang"):
            assert name in out

    def test_chaos_rejects_unknown_tool(self, capsys):
        assert main(["chaos", "--tools", "nope"]) == 2
        assert "unknown detectors" in capsys.readouterr().err

    @pytest.mark.parametrize("driver", [[], ["--ingest"], ["--service"]])
    def test_chaos_refuses_non_empty_work_dir(self, tmp_path, capsys,
                                              driver):
        keep = tmp_path / "keep.txt"
        keep.write_text("user data")
        rc = main(["chaos", *driver, "--work-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: chaos work dir {tmp_path} is not empty; " \
                      f"pass a fresh one"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]
        assert keep.read_text() == "user data"

    @pytest.mark.parametrize("driver", ["--ingest", "--service"])
    @pytest.mark.parametrize("option", [["--scale", "full"], ["--limit", "1"]])
    def test_fixed_input_drivers_refuse_scale_and_limit(
            self, tmp_path, capsys, driver, option):
        work_dir = tmp_path / "chaos"
        rc = main(["chaos", driver, *option, "--work-dir", str(work_dir)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: chaos {driver} does not take {option[0]}"
        assert not work_dir.exists()

    @pytest.mark.parametrize("driver", ["--ingest", "--service"])
    def test_fixed_input_drivers_reject_unknown_tool(self, capsys, driver):
        assert main(["chaos", driver, "--tools", "nope"]) == 2
        assert "unknown detectors" in capsys.readouterr().err

    @pytest.mark.parametrize("driver", ["--ingest", "--service"])
    def test_fixed_input_drivers_take_tools(self, tmp_path, monkeypatch,
                                            capsys, driver):
        from repro.faults import chaos

        seen = []

        def run_scenarios(driver, work_dir, scenarios=None):
            seen.append(driver)
            return chaos.ChaosReport(driver.title, driver.unit, 1, [
                chaos.ScenarioResult("stub", "-", ok=True)])

        monkeypatch.setattr(chaos, "run_scenarios", run_scenarios)
        rc = main(["chaos", driver, "--tools", "funseeker",
                   "--work-dir", str(tmp_path / "chaos")])
        assert rc == 0
        assert list(seen[0].tools) == ["funseeker"]
