"""Chaos runner: prove crash-safety end to end against injected faults.

One runner serves three drivers — evaluate (:mod:`repro.eval.chaos`),
scan (:mod:`repro.ingest.chaos`) and serve (:mod:`repro.service.chaos`).
For each :class:`ChaosScenario` the runner

1. runs the driver's **faulted step** with the scenario's deterministic
   fault plan installed — a worker SIGKILL, a torn journal append,
   corrupted cache entries, disk-full, an injected hang. The step may
   finish with failure records or die of one of the driver's expected
   crash shapes, which is recorded as ``Type: message``;
2. runs the driver's **resume step** with the plan cleared;
3. compares the normalized document the resume step returns with the
   driver's fault-free baseline, exactly.

A driver check that does not hold raises :class:`ScenarioFailed`; the
message becomes the scenario's detail. ``funseeker chaos`` (with
``--ingest`` or ``--service`` picking the driver) renders the
:class:`ChaosReport` and exits non-zero unless every scenario passed.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.errors import ReproError

#: Supervisor backstop grace used by chaos runs (the default 30 s
#: would dominate a smoke run's wall clock if a worker wedged).
CHAOS_BACKSTOP_GRACE = 2.0


class ScenarioFailed(Exception):
    """A scenario check did not hold; the message says which and how."""


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault plan plus the run shape that exercises it."""

    name: str
    plan: str
    workers: int = 1
    timeout: float | None = 2.0
    use_cache: bool = False


@dataclass
class ScenarioResult:
    name: str
    plan: str
    ok: bool = False
    detail: str = ""
    crash: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class ChaosReport:
    title: str
    unit: str
    baseline_cells: int = 0    # counted in `unit`: cells, paths or jobs
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [f"{self.title}: {len(self.results)} scenarios over "
                 f"{self.baseline_cells} baseline {self.unit}"]
        width = max((len(r.name) for r in self.results), default=0)
        for r in self.results:
            counts = "".join(f" {k}={v}" for k, v in r.counts.items())
            crash = f" crash={r.crash}" if r.crash else ""
            lines.append(f"  [{'ok  ' if r.ok else 'FAIL'}] "
                         f"{r.name:<{width}s} plan={r.plan}{counts}{crash}")
            if not r.ok:
                lines.append(f"         {r.detail}")
        if self.ok:
            lines.append("all scenarios recovered to the fault-free baseline")
        else:
            lines.append("UNRECOVERED failures — see above"
                         if self.results else "no scenario ran")
        return "\n".join(lines)


class ChaosDriver:
    """What a subsystem plugs into :func:`run_scenarios`.

    ``crashes`` are the exceptions the faulted step may legitimately die
    of; ``failures`` are the exceptions that fail a scenario wherever
    they escape.
    """

    title = "chaos"
    unit = "cells"
    crashes: tuple[type[BaseException], ...] = (ReproError, OSError)
    failures: tuple[type[BaseException], ...] = (ReproError, OSError)

    def default_scenarios(self) -> list[ChaosScenario]:
        raise NotImplementedError

    def baseline(self, work_dir: Path) -> tuple[object, int]:
        """The normalized fault-free document and its size in ``unit``."""
        raise NotImplementedError

    def scope(self, scenario: ChaosScenario,
              run_dir: Path) -> contextlib.AbstractContextManager:
        """Process state held across both steps of one scenario."""
        return contextlib.nullcontext()

    def faulted(self, scenario: ChaosScenario, run_dir: Path,
                result: ScenarioResult) -> object:
        """Run under the fault plan; the return value reaches ``resume``."""
        raise NotImplementedError

    def resume(self, scenario: ChaosScenario, run_dir: Path,
               result: ScenarioResult, state: object) -> object | None:
        """Recover fault-free; return a document to compare, or ``None``."""
        raise NotImplementedError


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def injected(plan: str, result: ScenarioResult,
             crashes: tuple[type[BaseException], ...]) -> Iterator[None]:
    """Install ``plan``, record an expected crash, always clear the plan."""
    faults.install(plan)
    try:
        yield
    except crashes as exc:
        result.crash = describe(exc)
    finally:
        faults.clear()


def claim_work_dir(work_dir: str | Path) -> Path:
    """Create ``work_dir``; refuse one that already holds files.

    A stale run directory left there would let a scenario resume an
    earlier run's journal instead of its own faulted one.
    """
    work_dir = Path(work_dir)
    if work_dir.exists() and (not work_dir.is_dir()
                              or any(work_dir.iterdir())):
        raise FileExistsError(
            f"chaos work dir {work_dir} is not empty; pass a fresh one")
    work_dir.mkdir(parents=True, exist_ok=True)
    return work_dir


def first_divergence(expected, got, where: str = "$") -> str:
    """Name the first place two normalized JSON documents differ."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got), key=str):
            if expected.get(key) != got.get(key):
                return first_divergence(expected.get(key), got.get(key),
                                        f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return (f"{where} diverged: baseline has {len(expected)} "
                    f"items, recovered {len(got)}")
        for i, (a, b) in enumerate(zip(expected, got)):
            if a != b:
                return first_divergence(a, b, f"{where}[{i}]")
    return (f"{where} diverged: baseline "
            f"{json.dumps(expected, sort_keys=True)[:200]} != recovered "
            f"{json.dumps(got, sort_keys=True)[:200]}")


def run_scenarios(
    driver: ChaosDriver,
    work_dir: str | Path,
    scenarios: list[ChaosScenario] | None = None,
) -> ChaosReport:
    """Run every scenario and compare each recovery to the baseline.

    ``work_dir`` must be fresh; it receives one run directory per
    scenario (kept for a post-mortem when a scenario fails). The fault
    registry is always left clean.
    """
    work_dir = claim_work_dir(work_dir)
    faults.clear()
    baseline, size = driver.baseline(work_dir)
    report = ChaosReport(driver.title, driver.unit, size)
    for scenario in (driver.default_scenarios() if scenarios is None
                     else scenarios):
        result = ScenarioResult(scenario.name, scenario.plan)
        run_dir = work_dir / scenario.name
        step = "setup"
        try:
            with driver.scope(scenario, run_dir):
                step, state = "faulted run", None
                with injected(scenario.plan, result, driver.crashes):
                    state = driver.faulted(scenario, run_dir, result)
                step = "resume"
                got = driver.resume(scenario, run_dir, result, state)
            if got is not None and got != baseline:
                raise ScenarioFailed(first_divergence(baseline, got))
            result.ok = True
        except ScenarioFailed as exc:
            result.detail = str(exc)
        except driver.failures as exc:
            result.detail = f"{step} failed: {describe(exc)}"
        report.results.append(result)
    return report
