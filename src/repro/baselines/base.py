"""Shared infrastructure for the baseline function detectors.

Each baseline re-implements the *documented strategy* of one comparison
tool from the paper (§V-A2): what metadata it consumes (``.eh_frame``,
prologue patterns, call-graph traversal) determines its failure modes,
which is what the paper's Table III measures. None of them consult CET
end-branch instructions as an entry signature — the paper's central
observation about pre-CET tooling.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from repro import obs
from repro.cache.context import get_context
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from repro.x86 import vector
from repro.x86.decoder import DecodeError, decode
from repro.x86.insn import TERMINATOR_CLASSES, InsnClass
from repro.x86.superset import get_index

#: Detectors estimating their own cost below this threshold (seconds of
#: detector wall clock per MB of input) bypass the *disk* cache: a
#: round trip through hash + JSON + fsync costs more than just running
#: them, which is how the naive-endbr baseline ended up with a warm
#: "speedup" of 0.48x. Bypasses are counted in the cache census.
DISK_CACHE_MIN_COST_PER_MB = 0.05


@dataclass
class DetectionResult:
    """Functions found by one detector on one binary."""

    tool: str
    functions: set[int] = field(default_factory=set)
    elapsed_seconds: float = 0.0
    #: The part of ``elapsed_seconds`` spent building the binary's
    #: shared analysis artifacts (decode index, sweep, exception
    #: metadata, PLT, CET note), which any later tool reuses for free.
    shared_seconds: float = 0.0

    @property
    def own_seconds(self) -> float:
        """The detector's own time: ``elapsed_seconds`` less the shared
        artifacts it happened to build first."""
        return self.elapsed_seconds - self.shared_seconds


class FunctionDetector(abc.ABC):
    """Base class for all function-identification tools in this repo."""

    #: Human-readable tool name used in reports.
    name: str = "detector"

    #: Whether whole-run results may be served from the content-addressed
    #: disk cache. Only safe when the output is a pure function of the
    #: binary image and the tool name — detectors carrying external
    #: state (e.g. a trained model) must opt out.
    cacheable: bool = True

    #: Estimated full-run cost in seconds per MB of input. Detectors
    #: cheaper than :data:`DISK_CACHE_MIN_COST_PER_MB` skip the disk
    #: cache (memory memoization still applies via the analysis
    #: context). ``None`` means "expensive": always worth persisting.
    cost_per_mb: float | None = None

    def detect(self, elf: ELFFile) -> DetectionResult:
        """Run detection with wall-clock timing.

        Entry sets of ``cacheable`` detectors flow through the binary's
        analysis context, which consults the disk cache (when one is
        configured) under the key ``(content hash, tool name)`` —
        unless the detector's declared cost is below the disk cache's
        own round-trip cost, in which case the store is bypassed.
        """
        ctx = get_context(elf)
        shared_before = ctx.shared_seconds
        started = time.perf_counter()
        with obs.span("detect", tool=self.name):
            if self.cacheable:
                use_disk = (
                    self.cost_per_mb is None
                    or self.cost_per_mb >= DISK_CACHE_MIN_COST_PER_MB
                )
                functions = ctx.detector_result(
                    self.name, lambda: self._detect(elf),
                    use_disk=use_disk,
                )
            else:
                functions = self._detect(elf)
        elapsed = time.perf_counter() - started
        obs.add("detect.runs", 1)
        obs.add("detect.functions", len(functions))
        return DetectionResult(
            tool=self.name, functions=functions, elapsed_seconds=elapsed,
            shared_seconds=ctx.shared_seconds - shared_before)

    def detect_bytes(self, data: bytes) -> DetectionResult:
        return self.detect(ELFFile(data))

    @abc.abstractmethod
    def _detect(self, elf: ELFFile) -> set[int]:
        """Return the set of identified function entry addresses."""


# ---------------------------------------------------------------------------
# shared analysis helpers
# ---------------------------------------------------------------------------


def text_section(elf: ELFFile):
    return elf.section(C.SECTION_TEXT)


def fde_starts(elf: ELFFile) -> tuple[set[int], list[tuple[int, int]]]:
    """FDE ``pc_begin`` values and ranges, or empty when unparseable.

    Strict-parse semantics (a malformed ``.eh_frame`` yields empty
    results, not a partial parse), memoized on the file's analysis
    context so eh_frame-seeded detectors share one parse per binary.
    """
    return get_context(elf).fde_starts()


def recursive_traversal(
    data: bytes, base: int, bits: int, seeds: set[int]
) -> set[int]:
    """Follow direct calls transitively from the seed entry points.

    Disassembles each function from its entry until a terminator (or a
    decode failure), queuing every direct-call target found. Direct
    unconditional jump targets are followed as code but not recorded as
    entries — the conservatism that costs IDA-style tools their recall
    on indirectly-reached functions (§V-C).
    """
    if vector.available():
        return _recursive_traversal_indexed(data, base, bits, seeds)
    end = base + len(data)
    found: set[int] = set()
    work = [s for s in seeds if base <= s < end]
    visited_bytes: set[int] = set()
    while work:
        entry = work.pop()
        if entry in found:
            continue
        found.add(entry)
        offset = entry - base
        # Walk straight-line code collecting call targets; bounded by
        # section end and previously visited bytes.
        steps = 0
        while offset < len(data) and steps < 100000:
            if offset in visited_bytes:
                break
            visited_bytes.add(offset)
            try:
                insn = decode(data, offset, base + offset, bits)
            except DecodeError:
                break
            if insn.klass == InsnClass.CALL_DIRECT and insn.target is not None:
                if base <= insn.target < end and insn.target not in found:
                    work.append(insn.target)
            if insn.is_terminator:
                break
            offset += insn.length
            steps += 1
    return found


_CALL_DIRECT = int(InsnClass.CALL_DIRECT)
_TERMINATORS = frozenset(int(k) for k in TERMINATOR_CLASSES)


def _recursive_traversal_indexed(
    data: bytes, base: int, bits: int, seeds: set[int]
) -> set[int]:
    """The same traversal, walking the shared decode index.

    Work-list order, the visited-bytes stop, the step bound and the
    decode-failure handling all mirror the scalar loop exactly, so the
    entry sets are identical.
    """
    index = get_index(data, bits, base)
    lengths = index.lengths
    klasses = index.klasses
    targets = index.targets
    end = base + len(data)
    n = len(data)
    found: set[int] = set()
    work = [s for s in seeds if base <= s < end]
    visited_bytes: set[int] = set()
    while work:
        entry = work.pop()
        if entry in found:
            continue
        found.add(entry)
        offset = entry - base
        steps = 0
        while offset < n and steps < 100000:
            if offset in visited_bytes:
                break
            visited_bytes.add(offset)
            length = lengths[offset]
            if length == 0:
                break
            klass = klasses[offset]
            if klass == _CALL_DIRECT:
                target = targets.get(offset)
                if target is not None and base <= target < end \
                        and target not in found:
                    work.append(target)
            if klass in _TERMINATORS:
                break
            offset += length
            steps += 1
    return found


# Prologue byte signatures (pre-CET tool heuristics).
_PROLOGUE_SIGS_64 = (
    b"\x55\x48\x89\xe5",     # push rbp; mov rbp, rsp
    b"\x53\x48\x83\xec",     # push rbx; sub rsp, imm8
    b"\x48\x83\xec",         # sub rsp, imm8
)
_PROLOGUE_SIGS_32 = (
    b"\x55\x89\xe5",         # push ebp; mov ebp, esp
    b"\x53\x83\xec",         # push ebx; sub esp, imm8
    b"\x83\xec",             # sub esp, imm8
)


def prologue_scan(
    data: bytes, base: int, bits: int, *, alignment: int = 16,
    skip: set[int] | None = None,
) -> set[int]:
    """Scan aligned addresses for classic prologue byte patterns.

    This is the compiler-specific pattern matching mainstream tools use
    to sweep gaps (§VII-B). It knows nothing about end-branch
    instructions.
    """
    sigs = _PROLOGUE_SIGS_64 if bits == 64 else _PROLOGUE_SIGS_32
    skip = skip or set()
    found: set[int] = set()
    for off in range(0, len(data), alignment):
        addr = base + off
        if addr in skip:
            continue
        window = data[off : off + 8]
        for sig in sigs:
            if window.startswith(sig):
                found.add(addr)
                break
        else:
            # push rbp preceded by an endbr marker: the pattern engines
            # match the push, landing 4 bytes in. Model the tools'
            # endbr-oblivious view: accept when the post-endbr bytes
            # form a prologue (entry still reported at the aligned
            # address, which happens to be correct).
            if window[4:8]:
                for sig in sigs:
                    if window[4:].startswith(sig) and _is_endbr(window[:4]):
                        found.add(addr)
                        break
    return found


def _is_endbr(chunk: bytes) -> bool:
    return chunk in (b"\xf3\x0f\x1e\xfa", b"\xf3\x0f\x1e\xfb")
