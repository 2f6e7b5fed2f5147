"""FunSeeker — CET-aware function identification (paper Algorithm 1).

::

    function FunSeeker(bin)
        txt, exn <- PARSE(bin)
        E, C, J  <- DISASSEMBLE(txt)
        E'       <- FILTERENDBR(E, exn)
        J'       <- SELECTTAILCALL(J)
        return E' ∪ C ∪ J'

The four evaluation configurations of Table II are exposed through
:class:`Config`.

Usage::

    from repro.core.funseeker import FunSeeker
    result = FunSeeker.from_path("a.out").identify()
    print(sorted(hex(a) for a in result.functions))
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field

from repro import obs
from repro.cache.context import AnalysisContext, get_context
from repro.core.disassemble import SweepResult
from repro.core.filter_endbr import filter_endbr
from repro.core.tailcall import select_tail_calls
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from repro.errors import Diagnostics, Severity


class Config(enum.Enum):
    """The four FunSeeker configurations evaluated in Table II."""

    RAW = 1              # ① E ∪ C
    FILTERED = 2         # ② E' ∪ C
    ALL_JUMPS = 3        # ③ E' ∪ C ∪ J
    FULL = 4             # ④ E' ∪ C ∪ J'  (the real FunSeeker)


@dataclass
class FunSeekerResult:
    """Output of one FunSeeker run."""

    functions: set[int]
    endbr_all: set[int] = field(default_factory=set)          # E
    endbr_filtered: set[int] = field(default_factory=set)     # E'
    call_targets: set[int] = field(default_factory=set)       # C
    jump_targets: set[int] = field(default_factory=set)       # J
    tail_call_targets: set[int] = field(default_factory=set)  # J'
    landing_pads: set[int] = field(default_factory=set)
    insn_count: int = 0
    elapsed_seconds: float = 0.0
    #: CET features the binary advertises via .note.gnu.property.
    #: FunSeeker operates by design on CET-enabled binaries (§VI);
    #: ``cet_enabled`` False flags a legacy input whose results rest on
    #: direct-call targets alone.
    cet_enabled: bool = False
    #: Structured account of every parse anomaly tolerated while
    #: producing this result (see :mod:`repro.errors`). Empty on a
    #: clean, fully-parsed input.
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def unsupported_machine(elf: ELFFile, tool: str = "FunSeeker") -> str | None:
    """Why ``tool`` cannot analyse ``elf``, or ``None`` for an x86 image.

    FunSeeker and every baseline decode ``.text`` as x86, so anything
    else is refused rather than decoded into noise.
    """
    if elf.machine in (C.EM_386, C.EM_X86_64):
        return None
    return (f"{tool} targets x86/x86-64 binaries "
            f"(e_machine={elf.machine}); for AArch64 use "
            f"repro.arm.identify_functions_bti")


class FunSeeker:
    """Function identification for one CET-enabled ELF binary.

    With ``strict=False`` an unsupported architecture becomes a
    recorded diagnostic and :meth:`identify` returns an empty result
    instead of the constructor raising — the mode corpus sweeps over
    untrusted inputs use (pair it with a degraded-mode
    :class:`~repro.elf.parser.ELFFile`).
    """

    def __init__(
        self,
        elf: ELFFile,
        config: Config = Config.FULL,
        *,
        strict: bool = True,
    ) -> None:
        message = unsupported_machine(elf)
        self._supported = message is None
        if not self._supported:
            if strict:
                raise ValueError(message)
            elf.diagnostics.record(
                "funseeker", message, severity=Severity.ERROR,
            )
        self.elf = elf
        self.config = config
        self.strict = strict

    @classmethod
    def from_bytes(
        cls, data: bytes, config: Config = Config.FULL, *,
        strict: bool = True,
    ) -> "FunSeeker":
        return cls(ELFFile(data, strict=strict), config, strict=strict)

    @classmethod
    def from_path(
        cls, path: str | os.PathLike, config: Config = Config.FULL, *,
        strict: bool = True,
    ) -> "FunSeeker":
        return cls(ELFFile.from_path(path, strict=strict), config,
                   strict=strict)

    # -- PARSE ------------------------------------------------------------

    def _parse_exception_info(self) -> set[int]:
        """Landing-pad addresses from .eh_frame + .gcc_except_table.

        Missing or malformed exception metadata yields a partial (or
        empty) set — plain C binaries simply have no
        ``.gcc_except_table``, and a corrupt FDE or LSDA drops only the
        landing pads it described, recorded on the file's diagnostics.
        Memoized on the file's analysis context, so repeat runs and
        other consumers of the same ``ELFFile`` share one parse.
        """
        return get_context(self.elf).landing_pads()

    # -- DISASSEMBLE -------------------------------------------------------

    def _sweep(self, ctx: AnalysisContext) -> SweepResult | None:
        """The (E, C, J) collection pass over ``.text``; the one step
        :class:`~repro.core.robust.RobustFunSeeker` replaces."""
        return ctx.sweep()

    # -- main algorithm ----------------------------------------------------

    def identify(self) -> FunSeekerResult:
        """Run the algorithm and return identified function entries."""
        started = time.perf_counter()

        if not self._supported:
            return FunSeekerResult(functions=set(),
                                   diagnostics=self.elf.diagnostics)
        ctx = get_context(self.elf)
        sweep = self._sweep(ctx)
        if sweep is None:
            return FunSeekerResult(functions=set(),
                                   diagnostics=self.elf.diagnostics)
        landing_pads = self._parse_exception_info()
        plt_map = ctx.plt_map()

        if self.config is Config.RAW:
            e_set = sweep.endbr_addrs
        else:
            with obs.span("filter"):
                e_set = filter_endbr(sweep, plt_map, landing_pads)

        functions = set(e_set)
        functions.update(sweep.call_targets)

        tail_targets: set[int] = set()
        if self.config is Config.ALL_JUMPS:
            functions.update(sweep.jump_targets)
        elif self.config is Config.FULL:
            with obs.span("tailcall"):
                tail_targets = select_tail_calls(
                    sweep.jump_sites,
                    sweep.call_sites,
                    known_entries=functions,
                    text_start=sweep.text_start,
                    text_end=sweep.text_end,
                )
            functions.update(tail_targets)

        elapsed = time.perf_counter() - started
        return FunSeekerResult(
            functions=functions,
            cet_enabled=ctx.cet_features().any,
            diagnostics=self.elf.diagnostics,
            endbr_all=set(sweep.endbr_addrs),
            endbr_filtered=e_set if self.config is not Config.RAW else set(),
            call_targets=set(sweep.call_targets),
            jump_targets=set(sweep.jump_targets),
            tail_call_targets=tail_targets,
            landing_pads=landing_pads,
            insn_count=sweep.insn_count,
            elapsed_seconds=elapsed,
        )


def identify_functions(
    data: bytes, config: Config = Config.FULL
) -> set[int]:
    """Convenience wrapper: function entry addresses for an ELF image."""
    return FunSeeker.from_bytes(data, config).identify().functions
