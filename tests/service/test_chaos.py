"""The serve driver through the shared chaos runner."""

from __future__ import annotations

import pytest

from repro.faults.chaos import (
    ChaosScenario,
    ScenarioFailed,
    ScenarioResult,
    run_scenarios,
)
from repro.service.chaos import ServeDriver


@pytest.mark.service_smoke
def test_enospc_degrade_scenario_passes(tmp_path):
    driver = ServeDriver(binaries=1)
    scenarios = [s for s in driver.default_scenarios()
                 if s.name == "service-enospc-degrade"]
    report = run_scenarios(driver, tmp_path / "chaos", scenarios)
    rendered = report.render()
    assert report.ok, rendered
    assert "service-enospc-degrade" in rendered
    assert "enospc@journal.append#1" in rendered


def test_default_scenarios_keep_their_names_and_plans(tmp_path):
    driver = ServeDriver()
    assert [(s.name, s.plan) for s in driver.default_scenarios()] == [
        ("service-kill-mid-job", "kill@cell.execute#9"),
        ("service-hang-backstop", "hang@cell.execute#4"),
        ("service-poison-quarantine", "kill@cell.execute#1"),
        ("service-enospc-degrade", "enospc@journal.append#1"),
    ]
    unknown = ChaosScenario("service-nope", "kill@cell.execute#1")
    with pytest.raises(ScenarioFailed, match="no serve scenario"):
        driver.faulted(unknown, tmp_path, ScenarioResult(unknown.name,
                                                         unknown.plan))
