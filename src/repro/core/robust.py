"""Data-tolerant FunSeeker front end (paper §VI future work).

Swaps DISASSEMBLE's plain linear sweep for the superset-validated sweep
(:func:`~repro.core.disassemble.disassemble_robust`), making the
pipeline resilient to data embedded in ``.text`` by hand-written
assembly — the known linear-sweep failure the paper defers to future
work. Everything after the sweep, every :class:`Config` included, is
FunSeeker's own.
"""

from __future__ import annotations

from repro.cache.context import AnalysisContext
from repro.core.disassemble import SweepResult
from repro.core.funseeker import FunSeeker


class RobustFunSeeker(FunSeeker):
    """FunSeeker with the superset-validated disassembly front end."""

    def _sweep(self, ctx: AnalysisContext) -> SweepResult | None:
        return ctx.robust_sweep_result()
