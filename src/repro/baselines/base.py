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

import numpy as np

from repro import obs
from repro.cache.context import get_context
from repro.core.funseeker import unsupported_machine
from repro.elf import constants as C
from repro.elf.parser import ELFFile
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

        Every detector decodes x86: a foreign ``e_machine`` raises
        :class:`ValueError` here, before any analysis runs.
        """
        unsupported = unsupported_machine(elf, self.name)
        if unsupported is not None:
            raise ValueError(unsupported)
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


_CALL_DIRECT = int(InsnClass.CALL_DIRECT)
_TERMINATORS = frozenset(int(k) for k in TERMINATOR_CLASSES)

#: Per instruction class, whether it ends a straight-line run.
IS_TERMINATOR = np.zeros(256, dtype=bool)
IS_TERMINATOR[sorted(_TERMINATORS)] = True


def recursive_traversal(
    data: bytes, base: int, bits: int, seeds: set[int]
) -> set[int]:
    """Follow direct calls transitively from the seed entry points.

    Walks each function from its entry over the shared decode index
    until a terminator (or a decode failure), queuing every direct-call
    target found; the walk also stops at bytes an earlier walk visited
    and after 100,000 steps. Direct unconditional jump targets are
    followed as code but not recorded as entries — the conservatism
    that costs IDA-style tools their recall on indirectly-reached
    functions (§V-C).
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
    insns = 0
    with obs.span("traversal", seeds=len(work)):
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
                insns += 1
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
    obs.add("traversal.entries", len(found))
    obs.add("traversal.insns", insns)
    return found


def straight_line_prefix(lengths: np.ndarray, klasses: np.ndarray,
                         offs: np.ndarray, steps: int) -> np.ndarray:
    """Which of ``offs`` start a coherent straight-line prefix.

    ``lengths`` and ``klasses`` are a :class:`DecodeIndex`'s per-offset
    arrays as ``uint8``. From each offset, up to ``steps`` instructions
    must decode without running off the buffer, unless a terminator
    ends the run first — the check pre-CET tools make before trusting
    a candidate entry. All candidates advance together, one instruction
    per round.
    """
    n = len(lengths)
    pos = offs.astype(np.int64)
    ok = np.zeros(len(pos), dtype=bool)
    alive = (pos >= 0) & (pos < n)
    for _ in range(steps):
        idx = np.flatnonzero(alive)
        if not idx.size:
            break
        at = pos[idx]
        length = lengths[at]
        failed = length == 0
        ended = ~failed & IS_TERMINATOR[klasses[at]]
        ok[idx[ended]] = True
        nxt = at + length
        alive[idx[failed | ended | (nxt >= n)]] = False
        pos[idx] = nxt
    return ok | alive


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

#: Both end-branch encodings as one little-endian word under a mask:
#: ``f3 0f 1e fa`` (endbr64) and ``f3 0f 1e fb`` (endbr32) differ only
#: in the low bit of their last byte.
_ENDBR_WORD = 0xFA1E0FF3
_ENDBR_MASK = 0xFEFFFFFF

#: Prologue windows sit on 16-byte boundaries, the function alignment
#: compilers pad to (Springer et al., "Padding Matters").
_ALIGNMENT = 16


#: Per bitness, the signatures as little-endian words and byte masks,
#: one row per signature to broadcast against the windows.
_SIG_WORDS = {
    bits: (np.array([[int.from_bytes(sig, "little")] for sig in sigs],
                    dtype=np.uint32),
           np.array([[(1 << 8 * len(sig)) - 1] for sig in sigs],
                    dtype=np.uint32))
    for bits, sigs in ((64, _PROLOGUE_SIGS_64), (32, _PROLOGUE_SIGS_32))
}


def prologue_hits(data: bytes, base: int, bits: int) -> frozenset[int]:
    """Aligned addresses whose bytes open with a classic prologue.

    The compiler-specific pattern matching mainstream tools use to
    sweep gaps (§VII-B). It knows nothing about end-branch instructions
    as entry markers, but sees through one: the pattern engines match a
    prologue four bytes into a window that opens with ``endbr64`` or
    ``endbr32``, and report the aligned address.

    Each 16-byte window is read as little-endian ``uint32`` words, and
    words 0 and 1 are compared against every signature under its byte
    mask. ``.text`` is zero-padded to whole windows: no signature byte
    and no end-branch byte is ``0x00``, so a pattern cut off by the end
    of the section can never match in the padding.
    """
    n = len(data)
    rows = -(-n // _ALIGNMENT)
    with obs.span("prologue", bytes=n):
        padded = data + bytes(rows * _ALIGNMENT - n)
        words = np.frombuffer(padded, dtype="<u4").reshape(rows, 4)
        sig, mask = _SIG_WORDS[bits]
        head, tail = words[:, 0], words[:, 1]
        hit = ((head & mask) == sig).any(axis=0)
        hit |= (((head & _ENDBR_MASK) == _ENDBR_WORD)
                & ((tail & mask) == sig).any(axis=0))
        # Offsets become addresses as Python ints: kernel-space bases
        # overflow int64.
        found = frozenset(
            base + off
            for off in (np.flatnonzero(hit) * _ALIGNMENT).tolist())
    obs.add("prologue.windows", rows)
    obs.add("prologue.hits", len(found))
    return found
