"""Reference FETCH analysis: the per-instruction scalar walks.

This is the pure-Python formulation the array programs in
:mod:`repro.baselines.fetch_like` replace. It walks every region one
instruction at a time — linear region decode, a worklist stack-height
propagation over the region CFG, and a read-before-write
calling-convention scan — and is kept here, unoptimised, as the oracle
the differential tests compare the array path against: the same
``found`` set, the same per-start ``arg_usage`` map and the same work
counters.

Like the array path it reads decode results from the shared
:class:`~repro.x86.superset.DecodeIndex`; ``REPRO_NO_VECTOR`` switches
only how that index is built.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.baselines.base import fde_starts, text_section
from repro.elf.parser import ELFFile
from repro.x86.defuse import def_use
from repro.x86.insn import TERMINATOR_CLASSES, InsnClass
from repro.x86.superset import get_index

_JCC = int(InsnClass.JCC)
_RET = int(InsnClass.RET)
_JMP_DIRECT = int(InsnClass.JMP_DIRECT)
_TERMINATORS = frozenset(int(k) for k in TERMINATOR_CLASSES)

#: Refinement passes, as in :class:`FetchLikeDetector`.
PASSES = 2

#: Work-counter names, as the array path emits them through ``obs.add``.
COUNTERS = ("fetch.regions", "fetch.region_insns", "fetch.height_insns",
            "fetch.height_items", "fetch.cc_insns")


class _IndexView:
    """Uniform ``at()`` view over a prebuilt :class:`DecodeIndex`."""

    def __init__(self, index) -> None:
        self._lengths = index.lengths
        self._klasses = index.klasses
        self._targets = index.targets

    def at(self, offset: int) -> tuple[int, int, int | None]:
        length = self._lengths[offset]
        if length == 0:
            return (0, 0, None)
        return (length, self._klasses[offset], self._targets.get(offset))


def inputs(elf: ELFFile):
    """``(data, base, bits, found, ranges)`` as the detector derives
    them from an image, or None when it has no ``.text`` to analyse."""
    txt = text_section(elf)
    if txt is None or not txt.data:
        return None
    starts, ranges = fde_starts(elf)
    found = {s for s in starts if txt.contains_addr(s)}
    ranges = sorted(r for r in ranges if txt.contains_addr(r[0]))
    return txt.data, txt.sh_addr, 64 if elf.is64 else 32, found, ranges


def detect(elf: ELFFile, passes: int = PASSES):
    """``(found, arg_usage, counters)`` for one image."""
    args = inputs(elf)
    if args is None:
        return set(), {}, dict.fromkeys(COUNTERS, 0)
    return analyze(*args, passes)


def analyze(data: bytes, base: int, bits: int, found: set[int],
            ranges: list[tuple[int, int]], passes: int = PASSES):
    """The FETCH analysis over one ``.text``: ``found`` holds the FDE
    starts inside it and ``ranges`` the sorted FDE ranges starting in
    it. Returns ``(found, arg_usage, counters)``."""
    counts = dict.fromkeys(COUNTERS, 0)
    found = set(found)
    view = _IndexView(get_index(data, bits, base))
    arg_usage = _calling_convention_scan(
        data, base, bits, sorted(found), view, counts
    )
    for _ in range(passes):
        tail_targets = _tail_call_targets(
            data, base, bits, sorted(found), ranges, view, counts
        )
        tail_targets = {
            t for t in tail_targets
            if _callee_plausible(data, base, bits, t, view)
            and _cc_compatible(arg_usage, t)
        }
        if tail_targets <= found:
            break
        found |= tail_targets
    return found, arg_usage, counts


def _tail_call_targets(
    data: bytes,
    base: int,
    bits: int,
    sorted_starts: list[int],
    ranges: list[tuple[int, int]],
    view,
    counts: dict[str, int],
) -> set[int]:
    """Targets of frame-balanced escaping jumps.

    A direct unconditional jump is a tail call when (1) it leaves
    its own FDE region, (2) the stack height along every CFG path
    from the entry to the jump is zero (the frame has been torn
    down), and (3) the target is the *start* of a code region — a
    jump into the middle of another FDE range is a shared-code
    artifact, not a call.
    """
    if not sorted_starts:
        return set()
    end = base + len(data)
    range_starts = [r[0] for r in ranges]
    targets: set[int] = set()
    for i, start in enumerate(sorted_starts):
        limit = (sorted_starts[i + 1] if i + 1 < len(sorted_starts)
                 else end)
        insns = _decode_region(data, base, bits, start, limit, view)
        counts["fetch.regions"] += 1
        counts["fetch.region_insns"] += len(insns)
        if not insns:
            continue
        heights = _propagate_heights(insns, start, bits, data, base,
                                     counts)
        counts["fetch.height_insns"] += len(heights)
        for addr, (length, klass, target) in insns.items():
            if klass != _JMP_DIRECT or target is None:
                continue
            if start <= target < limit:
                continue
            if not base <= target < end:
                continue
            if heights.get(addr) != 0:
                continue
            if _inside_some_range(target, ranges, range_starts):
                continue
            targets.add(target)
    return targets


#: System V AMD64 integer argument registers (register numbers).
_ARG_REGS_64 = (7, 6, 2, 1, 8, 9)  # rdi rsi rdx rcx r8 r9


def _calling_convention_scan(
    data: bytes, base: int, bits: int, sorted_starts: list[int], view,
    counts: dict[str, int],
) -> dict[int, frozenset[int]]:
    """Per-function argument-register read-before-write analysis.

    For each FDE-delimited function, walk every instruction and track
    which System V argument registers are read before being written —
    FETCH's calling-convention interface analysis, built on the full
    operand model (:mod:`repro.x86.defuse`).

    This is intentionally a complete second analysis pass over the
    text: it is the machinery whose cost Table III's timing comparison
    reflects.
    """
    usage: dict[int, frozenset[int]] = {}
    end = base + len(data)
    n = len(data)
    for i, start in enumerate(sorted_starts):
        limit = (sorted_starts[i + 1] if i + 1 < len(sorted_starts)
                 else end)
        read_first: set[int] = set()
        written: set[int] = set()
        offset = start - base
        while base + offset < limit and offset < n:
            length, klass, _target = view.at(offset)
            if length == 0:
                offset += 1
                continue
            du = def_use(data[offset : offset + length], bits)
            counts["fetch.cc_insns"] += 1
            for reg in du.reads:
                if reg not in written:
                    read_first.add(reg)
            written |= du.writes
            offset += length
            if klass == _RET:
                break
        usage[start] = frozenset(
            r for r in read_first if r in _ARG_REGS_64
        )
    return usage


def _cc_compatible(
    arg_usage: dict[int, frozenset[int]], target: int
) -> bool:
    """Whether a tail-call target's argument usage is achievable.

    All compiler-generated tail calls satisfy this (the caller forwards
    its own arguments); the check exists to mirror FETCH's validation
    step and rejects targets consuming more argument registers than the
    System V convention provides.
    """
    return len(arg_usage.get(target, frozenset())) <= len(_ARG_REGS_64)


def _callee_plausible(
    data: bytes, base: int, bits: int, target: int, view
) -> bool:
    """Calling-convention sanity check on a tail-call candidate.

    FETCH validates candidates by examining the callee side; here we
    decode the candidate's first instructions and require them to form
    a coherent straight-line prefix (no immediate decode failure, no
    landing in the middle of padding).
    """
    offset = target - base
    if offset < 0 or offset >= len(data):
        return False
    for _ in range(8):
        length, klass, _target = view.at(offset)
        if length == 0:
            return False
        if klass in _TERMINATORS:
            return True
        offset += length
        if offset >= len(data):
            return False
    return True


def _decode_region(
    data: bytes, base: int, bits: int, start: int, limit: int, view
) -> dict[int, tuple[int, int, int | None]]:
    """Linear decode of one function region.

    Keyed by address; values are ``(length, klass, target)`` straight
    from the decode index — no ``Insn`` objects on this path.
    """
    insns: dict[int, tuple[int, int, int | None]] = {}
    offset = start - base
    n = len(data)
    while base + offset < limit and offset < n:
        length, klass, target = view.at(offset)
        if length == 0:
            offset += 1
            continue
        insns[base + offset] = (length, klass, target)
        offset += length
    return insns


def _propagate_heights(
    insns: dict[int, tuple[int, int, int | None]], entry: int, bits: int,
    data: bytes, base: int, counts: dict[str, int],
) -> dict[int, int]:
    """Worklist propagation of stack heights over the region CFG.

    Heights are measured *before* each instruction executes; the value
    reported for a jump is the height at the jump itself after the
    preceding instructions' effects. Conflicting heights at a join are
    resolved pessimistically (kept as non-zero) — FETCH only needs the
    zero/non-zero distinction.
    """
    order = sorted(insns)
    index = {addr: i for i, addr in enumerate(order)}
    heights: dict[int, int] = {}
    work = [(entry, 0)]
    while work:
        addr, height = work.pop()
        counts["fetch.height_items"] += 1
        while addr in insns:
            seen = heights.get(addr)
            if seen is not None:
                if seen != height:
                    heights[addr] = max(seen, height, key=abs)
                break
            heights[addr] = height
            length, klass, target = insns[addr]
            off = addr - base
            effect = stack_effect(data[off : off + length], bits)
            next_height = height + effect
            if klass == _JCC and target in insns:
                work.append((target, next_height))
            if klass in _TERMINATORS:
                break
            # Record the pre-effect height for branch instructions so the
            # caller reads the height at the jump site.
            idx = index[addr] + 1
            if idx >= len(order):
                break
            addr = order[idx]
            height = next_height
    return heights


def stack_effect(b: bytes, bits: int) -> int:
    """Stack-pointer delta from raw instruction bytes.

    Recognizes the frame-manipulation shapes compilers emit: push/pop
    of registers (with REX), ``sub/add rsp, imm`` and ``leave``.
    Everything else is treated as stack-neutral.
    """
    word = 8 if bits == 64 else 4
    i = 0
    if bits == 64 and b and 0x40 <= b[0] <= 0x4F:
        i = 1
    if i >= len(b):
        return 0
    op = b[i]
    if 0x50 <= op <= 0x57:       # push reg
        return -word
    if 0x58 <= op <= 0x5F:       # pop reg
        return word
    if op == 0xC9:               # leave
        return word
    if op in (0x68, 0x6A):       # push imm
        return -word
    if op in (0x81, 0x83) and i + 1 < len(b):
        reg = (b[i + 1] >> 3) & 7
        rm = b[i + 1] & 7
        mod = b[i + 1] >> 6
        if mod == 3 and rm == 4:  # operates on rsp/esp
            imm = (b[i + 2] if op == 0x83
                   else int.from_bytes(b[i + 2 : i + 6], "little"))
            if op == 0x83 and imm > 127:
                imm -= 256
            if reg == 5:          # sub
                return -imm
            if reg == 0:          # add
                return imm
    return 0


def _inside_some_range(
    addr: int, ranges: list[tuple[int, int]], range_starts: list[int]
) -> bool:
    """Whether ``addr`` falls strictly inside an FDE range (not at its
    start)."""
    idx = bisect_right(range_starts, addr) - 1
    if idx < 0:
        return False
    lo, hi = ranges[idx]
    return lo < addr < hi
