"""FETCH-style detector: exception-handling-information driven.

Re-implements the strategy of FETCH (Pang et al., DSN 2021, paper
§V-A2): function entries come from the ``PC begin`` fields of the Frame
Description Entries in ``.eh_frame``, refined with a tail-call analysis
that examines stack-frame heights at escaping jumps along the
intra-procedural CFG.

Reproduced failure modes:

- **x86 Clang C binaries**: Clang emits no FDEs for plain-C 32-bit
  functions, so recall collapses (Table III, the ~50% rows).
- **.part / .cold FDEs**: GCC emits FDEs for outlined fragments; FETCH
  reports them as functions (§VII — ~3.3% of FDEs).
- **Cost**: FETCH decodes every FDE region, propagates stack heights
  over each region's CFG and runs a read-before-write
  calling-convention scan over every function. FunSeeker makes one
  syntactic pass. The claim is stated in work counters: on an image
  with FDEs, the modelled FETCH algorithm visits two to three times the
  instructions FunSeeker's sweep decodes (``fetch.region_insns +
  fetch.height_insns + fetch.cc_insns`` against ``sweep.insns``;
  EXPERIMENTS.md "Known deviations" #2). The region and cc counters
  count instructions this code processes; the height counters count
  the modelled worklist's visits, which equal the oracle's but are
  derived by block reachability rather than walked.

Every stage runs as a per-image array program over the shared
:class:`~repro.x86.superset.DecodeIndex`:

- **chains** — each region's instructions, from all FDE starts at once
  by pointer doubling over ``next[i] = i + (length or 1)`` cut at the
  region limit;
- **cc_scan** — argument registers read before written, from one
  :func:`~repro.x86.defuse.def_use` call per distinct encoding and a
  segmented minimum per register;
- **tail_calls** — the candidate escaping jumps as masked selections;
  stack heights as prefix sums of per-instruction effects, with the
  worklist replayed in Python one straight-line *run* per work item,
  and only in regions that hold a candidate. The worklist's work
  counters come from block reachability over all regions at once.

The per-instruction scalar formulation these stages reproduce lives in
``tests/baselines/fetch_oracle.py``, which the differential tests hold
the array path to.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro import obs
from repro.baselines.base import (
    IS_TERMINATOR,
    FunctionDetector,
    fde_starts,
    straight_line_prefix,
    text_section,
)
from repro.cache.context import get_context
from repro.elf.parser import ELFFile
from repro.x86.defuse import def_use
from repro.x86.insn import InsnClass
from repro.x86.superset import get_index

_JCC = int(InsnClass.JCC)
_RET = int(InsnClass.RET)
_JMP_DIRECT = int(InsnClass.JMP_DIRECT)

#: Target read for a branch the index holds none for: never in ``.text``.
_NO_TARGET = (1 << 64) - 1

#: Longest x86 instruction; code buffers are zero-padded past this.
_MAX_INSN = 15

#: System V AMD64 integer argument registers (register numbers).
_ARG_REGS_64 = (7, 6, 2, 1, 8, 9)  # rdi rsi rdx rcx r8 r9
_ARG_BIT = {reg: 1 << k for k, reg in enumerate(_ARG_REGS_64)}
#: Argument-register set per 6-bit usage mask.
_ARG_SETS = tuple(
    frozenset(r for k, r in enumerate(_ARG_REGS_64) if mask >> k & 1)
    for mask in range(1 << len(_ARG_REGS_64))
)

#: Per instruction length, the masks that keep an encoding's own bytes
#: of the two little-endian words of a 16-byte window whose last byte
#: holds the length.
_KEEP_HEAD = np.array([(1 << 8 * min(n, 8)) - 1
                       for n in range(_MAX_INSN + 1)], dtype=np.uint64)
_KEEP_TAIL = np.array([(1 << 8 * max(n - 8, 0)) - 1 | 0xFF << 56
                       for n in range(_MAX_INSN + 1)], dtype=np.uint64)

#: Instructions a tail-call candidate's callee side must decode.
_CALLEE_PREFIX = 8


class FetchLikeDetector(FunctionDetector):
    """Exception-information-based function detection."""

    name = "fetch"

    #: Refinement passes: FETCH iterates — newly found tail targets
    #: split regions, which can expose further escaping jumps.
    passes = 2

    def _detect(self, elf: ELFFile) -> set[int]:
        txt = text_section(elf)
        if txt is None or not txt.data:
            return set()
        bits = 64 if elf.is64 else 32
        # Build the decode index as a shared artifact of the binary, so
        # it is not charged to FETCH when FETCH is the first to need it.
        get_context(elf).index()
        starts, ranges = fde_starts(elf)
        found = {s for s in starts if txt.contains_addr(s)}
        ranges = sorted(r for r in ranges if txt.contains_addr(r[0]))
        return analyze(txt.data, txt.sh_addr, bits, found, ranges).found


@dataclass(frozen=True)
class FetchAnalysis:
    """What one image's analysis produced: the entry set and, per
    initial FDE start, the argument registers read before written."""

    found: set[int]
    arg_usage: dict[int, frozenset[int]]


def analyze(data: bytes, base: int, bits: int, found: set[int],
            ranges: list[tuple[int, int]]) -> FetchAnalysis:
    """Run the FETCH analysis over one ``.text`` buffer.

    ``found`` holds the FDE starts inside the buffer and ``ranges`` the
    sorted FDE ranges that start inside it.
    """
    image = _Image(data, base, bits)
    found = set(found)
    with obs.span("fetch.chains"):
        regions = image.regions(sorted(found))
    # Calling-convention analysis over every function — the
    # register-usage scan that is a large part of FETCH's cost.
    with obs.span("fetch.cc_scan"):
        arg_usage = image.calling_convention(regions)
    fde_ranges = _range_bounds(ranges, base, len(data))
    for i in range(FetchLikeDetector.passes):
        if i:
            with obs.span("fetch.chains"):
                regions = image.regions(sorted(found))
        with obs.span("fetch.tail_calls"):
            tail_targets = {
                t for t in image.tail_call_targets(regions, fde_ranges)
                if _cc_compatible(arg_usage, t)
            }
        if tail_targets <= found:
            break
        found |= tail_targets
    return FetchAnalysis(found=found, arg_usage=arg_usage)


def _range_bounds(ranges: list[tuple[int, int]], base: int,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """FDE ranges as ``(lo, hi)`` offset arrays sorted by ``lo``.

    ``hi`` is clamped to ``n + 1``: every value past the buffer end
    answers ``target < hi`` the same way for an in-buffer target, and
    the clamp keeps garbage ``pc_range`` values inside ``int64``.
    """
    lo = np.fromiter((r[0] - base for r in ranges), np.int64, len(ranges))
    hi = np.fromiter((max(min(r[1] - base, n + 1), -1) for r in ranges),
                     np.int64, len(ranges))
    return lo, hi


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


@dataclass
class _Regions:
    """The FDE regions of one pass and the instructions in each.

    Region ``r`` covers offsets ``[starts[r], limits[r])``; its
    instructions are ``insns[bounds[r]:bounds[r + 1]]`` (offsets, in
    address order), and ``region`` maps each instruction back to ``r``.
    """

    starts: np.ndarray
    limits: np.ndarray
    insns: np.ndarray
    bounds: np.ndarray

    @property
    def region(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.starts)), np.diff(self.bounds))


class _Image:
    """One ``.text`` buffer and the array views every stage reads."""

    def __init__(self, data: bytes, base: int, bits: int) -> None:
        index = get_index(data, bits, base)
        self.data = data
        self.base = base
        self.bits = bits
        self.n = len(data)
        self.targets = index.targets
        self.lengths = np.frombuffer(index.lengths, dtype=np.uint8)
        self.klasses = np.frombuffer(index.klasses, dtype=np.uint8)
        self.code = np.frombuffer(data + bytes(_MAX_INSN + 1),
                                  dtype=np.uint8)
        self.windows = np.lib.stride_tricks.sliding_window_view(
            self.code, _MAX_INSN)

    # -- chains ---------------------------------------------------------

    def regions(self, sorted_starts: list[int]) -> _Regions:
        """Each region's linear decode, for all regions at once.

        The walk from a region start steps ``length`` bytes per
        instruction and one byte over a decode failure, and stops at
        the region limit. Chain membership comes from pointer doubling:
        after round ``k`` the mark set holds the first ``2**k`` steps
        of every chain, so the rounds stop once a round adds nothing.
        """
        n = self.n
        # Offsets, not addresses: kernel-space addresses overflow int64.
        starts = np.array([s - self.base for s in sorted_starts],
                          dtype=np.int64)
        limits = np.append(starts[1:], n)[: len(starts)]
        live = int(np.searchsorted(starts, n))
        if not live:
            return _Regions(starts, limits, np.empty(0, dtype=np.int64),
                            np.zeros(len(starts) + 1, dtype=np.int64))
        lo = int(starts[0])
        span = n - lo
        edges = np.append(starts[:live], n) - lo
        limit = np.repeat(edges[1:].astype(np.int32), np.diff(edges))
        lengths = self.lengths[lo:]
        jump = np.arange(span + 1, dtype=np.int32)
        jump[:span] += np.maximum(lengths, 1)
        jump[:span][jump[:span] >= limit] = span
        mark = np.zeros(span + 1, dtype=bool)
        mark[edges[:-1]] = True
        count = live
        while True:
            mark[jump[np.flatnonzero(mark)]] = True
            mark[span] = False
            grown = int(np.count_nonzero(mark))
            if grown == count:
                break
            count = grown
            jump = jump[jump]
        insns = np.flatnonzero(mark[:span] & (lengths > 0)) + lo
        bounds = np.append(np.searchsorted(insns, starts), len(insns))
        return _Regions(starts, limits, insns, bounds)

    # -- calling-convention scan ----------------------------------------

    def calling_convention(
        self, rg: _Regions
    ) -> dict[int, frozenset[int]]:
        """Per-function argument-register read-before-write analysis.

        For each region, the instructions up to and including the first
        ``RET`` are scanned for the System V argument registers read
        before being written — FETCH's calling-convention interface
        analysis, built on the full operand model
        (:mod:`repro.x86.defuse`). A register counts when its first
        read comes no later than its first write.
        """
        addrs = [s + self.base for s in rg.starts.tolist()]
        insns = rg.insns
        first = rg.bounds[:-1]
        rets = np.flatnonzero(self.klasses[insns] == _RET)
        rets = np.append(rets, len(insns))
        stop = np.minimum(rets[np.searchsorted(rets, first)] + 1,
                          rg.bounds[1:])
        counts = np.maximum(stop - first, 0)
        total = int(counts.sum())
        obs.add("fetch.cc_insns", total)
        if not total:
            return dict(zip(addrs, repeat(_ARG_SETS[0])))
        offs = insns[np.arange(len(insns)) < stop[rg.region]]
        reads, writes = self._arg_masks(offs)
        # First read/write position of each argument register, per
        # region: a segmented minimum over "position if touched".
        seg = (np.cumsum(counts) - counts)[counts > 0]
        pos = np.arange(total, dtype=np.int32)
        bit = (np.uint8(1) << np.arange(len(_ARG_REGS_64),
                                        dtype=np.uint8))[:, None]
        none = np.int32(total)
        first_read = np.minimum.reduceat(
            np.where(reads & bit, pos, none), seg, axis=1)
        first_write = np.minimum.reduceat(
            np.where(writes & bit, pos, none), seg, axis=1)
        used = (first_read < none) & (first_read <= first_write)
        masks = np.zeros(len(addrs), dtype=np.int64)
        masks[counts > 0] = bit[:, 0].astype(np.int64) @ used
        return dict(zip(addrs, map(_ARG_SETS.__getitem__, masks.tolist())))

    def _arg_masks(self, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argument-register read/write bitmasks per instruction.

        Each encoding is packed as its 15 bytes (zeroed past its length)
        plus the length, so equal encodings are equal rows; ``def_use``
        then runs once per distinct row.
        """
        m = len(offs)
        lens = self.lengths[offs]
        packed = np.empty((m, _MAX_INSN + 1), dtype=np.uint8)
        packed[:, :_MAX_INSN] = self.windows[offs]
        packed[:, _MAX_INSN] = lens
        keys = packed.view("<u8")
        head = keys[:, 0] & _KEEP_HEAD[lens]
        tail = keys[:, 1] & _KEEP_TAIL[lens]
        order = np.lexsort((tail, head))
        head, tail = head[order], tail[order]
        fresh = np.empty(m, dtype=bool)
        fresh[0] = True
        np.not_equal(head[1:], head[:-1], out=fresh[1:])
        fresh[1:] |= tail[1:] != tail[:-1]
        group = np.empty(m, dtype=np.intp)
        group[order] = np.cumsum(fresh) - 1
        sel = order[fresh]
        encodings = map(self.data.__getitem__,
                        map(slice, offs[sel].tolist(),
                            (offs[sel] + lens[sel]).tolist()))
        uses = list(map(def_use, encodings, repeat(self.bits)))
        read_sets = list(map(attrgetter("reads"), uses))
        write_sets = list(map(attrgetter("writes"), uses))
        masks = {regs: sum(_ARG_BIT.get(r, 0) for r in regs)
                 for regs in {*read_sets, *write_sets}}
        read_masks = list(map(masks.__getitem__, read_sets))
        write_masks = list(map(masks.__getitem__, write_sets))
        reads = np.array(read_masks, dtype=np.uint8)[group]
        writes = np.array(write_masks, dtype=np.uint8)[group]
        return reads, writes

    # -- tail calls -----------------------------------------------------

    def tail_call_targets(
        self, rg: _Regions, ranges: tuple[np.ndarray, np.ndarray]
    ) -> set[int]:
        """Targets of frame-balanced escaping jumps.

        A direct unconditional jump is a tail call when (1) it leaves
        its own FDE region, (2) the stack height along every CFG path
        from the entry to the jump is zero (the frame has been torn
        down), (3) the target is the *start* of a code region — a jump
        into the middle of another FDE range is a shared-code artifact,
        not a call — and (4) the callee's first :data:`_CALLEE_PREFIX`
        instructions form a coherent straight-line prefix
        (:func:`straight_line_prefix`).
        """
        insns, bounds = rg.insns, rg.bounds
        nreg, m = len(rg.starts), len(insns)
        obs.add("fetch.regions", nreg)
        obs.add("fetch.region_insns", m)
        if not m:
            return set()
        klass = self.klasses[insns]
        first, last = bounds[:-1], bounds[1:]
        entered = (last > first) & (
            insns[np.minimum(first, m - 1)] == rg.starts)
        is_term = IS_TERMINATOR[klass]

        branch = np.flatnonzero((klass == _JCC) | (klass == _JMP_DIRECT))
        target = np.fromiter(
            map(self.targets.get, insns[branch].tolist(),
                repeat(_NO_TARGET)),
            dtype=np.uint64, count=len(branch))
        target -= np.uint64(self.base)   # wraps below-base targets high
        in_text = target < self.n
        target = np.where(in_text, target, 0).astype(np.int64)
        owner = rg.region[branch]
        in_region = (in_text & (target >= rg.starts[owner])
                     & (target < rg.limits[owner]))
        is_jcc = klass[branch] == _JCC

        # Conditional jumps to an instruction of their own region are
        # the worklist's only edges besides fall-through.
        local = is_jcc & in_region
        jcc, jcc_target = branch[local], target[local]
        at = np.searchsorted(insns, jcc_target)
        hit = insns[np.minimum(at, m - 1)] == jcc_target
        jcc, jcc_to = jcc[hit], at[hit]
        _count_height_work(is_term, first, last, entered, jcc, jcc_to)

        # Escaping direct jumps to a code-region start, in a region
        # whose worklist starts at all.
        esc = ~is_jcc & in_text & ~in_region & entered[owner]
        cand, cand_target, cand_region = (
            branch[esc], target[esc], owner[esc])
        keep = ~_inside_some_range(*ranges, cand_target)
        cand, cand_target, cand_region = (
            cand[keep], cand_target[keep], cand_region[keep])
        if not cand.size:
            return set()

        # Stack heights, by replaying the worklist of each region that
        # holds a candidate, in positions relative to its first
        # instruction.
        terms = np.flatnonzero(is_term)
        zero = np.zeros(len(cand), dtype=bool)
        replay = cand_region[np.diff(cand_region, prepend=-1) != 0]
        for a, b, c0, c1 in zip(
                first[replay].tolist(), last[replay].tolist(),
                np.searchsorted(cand_region, replay).tolist(),
                np.searchsorted(cand_region, replay, side="right").tolist()):
            offs = insns[a:b]
            effects = _stack_effects(self.code, offs, self.lengths[offs],
                                     self.bits)
            t0, t1 = np.searchsorted(terms, (a, b))
            j0, j1 = np.searchsorted(jcc, (a, b))
            runs = _replay([0, *np.cumsum(effects).tolist()],
                           [*(terms[t0:t1] - a).tolist(), b - a],
                           (jcc[j0:j1] - a).tolist(),
                           (jcc_to[j0:j1] - a).tolist())
            for c in range(c0, c1):
                zero[c] = runs.height(int(cand[c]) - a) == 0

        found = cand_target[zero]
        found = found[straight_line_prefix(self.lengths, self.klasses,
                                           found, _CALLEE_PREFIX)]
        return {int(t) + self.base for t in found}


def _stack_effects(code: np.ndarray, offs: np.ndarray, lens: np.ndarray,
                   bits: int) -> np.ndarray:
    """Stack-pointer delta of each instruction at ``offs``.

    Recognizes the frame-manipulation shapes compilers emit: push/pop
    of registers (with REX), ``sub/add rsp, imm`` and ``leave``.
    Everything else is treated as stack-neutral. Bytes past an
    instruction's own length (``lens``) never count; the ``0x81``
    immediate is read unsigned. ``code`` must be zero-padded by at
    least :data:`_MAX_INSN` bytes.
    """
    lens = lens.astype(np.int64)
    word = 8 if bits == 64 else 4
    if bits == 64:
        head = code[offs]
        skip = ((head >= 0x40) & (head <= 0x4F)).astype(np.int64)  # REX
    else:
        skip = np.zeros(len(offs), dtype=np.int64)
    at = offs + skip
    op = code[at]
    effect = np.zeros(len(offs), dtype=np.int64)
    effect[(op & 0xF8) == 0x50] = -word                   # push reg
    effect[((op & 0xF8) == 0x58) | (op == 0xC9)] = word   # pop reg, leave
    effect[(op == 0x68) | (op == 0x6A)] = -word           # push imm
    grp = np.flatnonzero(((op == 0x81) | (op == 0x83)) & (skip + 1 < lens))
    modrm = code[at[grp] + 1]
    reg = (modrm >> 3) & 7
    # mod == 3 and rm == 4: operates on rsp/esp; /5 is sub, /0 is add.
    rsp = ((modrm & 0xC7) == 0xC4) & ((reg == 5) | (reg == 0))
    grp, sub = grp[rsp], reg[rsp] == 5
    if grp.size:
        pos, room = at[grp] + 2, lens[grp] - skip[grp] - 2
        imm8 = np.where(room > 0, code[pos].astype(np.int8), 0)
        imm32 = sum(np.where(room > k, code[pos + k].astype(np.int64)
                             << (8 * k), 0) for k in range(4))
        imm = np.where(op[grp] == 0x81, imm32, imm8)
        effect[grp] = np.where(sub, -imm, imm)
    effect[skip >= lens] = 0
    return effect


def _inside_some_range(lo: np.ndarray, hi: np.ndarray,
                       offs: np.ndarray) -> np.ndarray:
    """Whether each offset falls strictly inside an FDE range (not at
    its start); ``lo`` is sorted, and each offset is checked against the
    last range starting at or before it."""
    if not len(lo):
        return np.zeros(len(offs), dtype=bool)
    k = np.searchsorted(lo, offs, side="right") - 1
    return (k >= 0) & (lo[k] < offs) & (offs < hi[k])


def _count_height_work(is_term: np.ndarray, first: np.ndarray,
                       last: np.ndarray, entered: np.ndarray,
                       jcc: np.ndarray, jcc_to: np.ndarray) -> None:
    """Emit the stack-height worklist's work counters for every region.

    The worklist walks each instruction reachable from its region's
    entry exactly once (a walk stops where an earlier one passed), and
    pops one item per region plus one per reachable in-region
    conditional jump. Reachability is solved over fall-through blocks,
    which start at each region's first instruction and after each
    terminator: a block is walked from its first reached position to
    its end, and each round extends the reached positions across one
    more conditional jump.
    """
    m = len(is_term)
    walked = last > first
    cut = np.zeros(m + 1, dtype=bool)
    cut[first[walked]] = True
    cut[np.flatnonzero(is_term) + 1] = True
    block = np.cumsum(cut[:m]) - 1
    block_end = np.append(np.flatnonzero(cut[:m])[1:], m)
    reached = np.full(len(block_end), m, dtype=np.int64)
    reached[block[first[entered]]] = first[entered]
    source, dest = block[jcc], block[jcc_to]
    while True:
        taken = jcc >= reached[source]
        grown = reached.copy()
        np.minimum.at(grown, dest[taken], jcc_to[taken])
        if np.array_equal(grown, reached):
            break
        reached = grown
    obs.add("fetch.height_insns",
            int(np.maximum(block_end - reached, 0).sum()))
    obs.add("fetch.height_items",
            int(np.count_nonzero(walked) + np.count_nonzero(taken)))


class _Runs:
    """The straight-line runs one region's worklist has walked.

    Run ``k`` gave positions ``[lo[k], hi[k])`` their heights: ``entry[k]``
    at ``lo[k]`` plus the stack-effect prefix sums ``cum`` from there;
    ``merged`` holds the heights joins rewrote afterwards.
    """

    __slots__ = ("cum", "lo", "hi", "entry", "merged")

    def __init__(self, cum: list[int]) -> None:
        self.cum = cum
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.entry: list[int] = []
        self.merged: dict[int, int] = {}

    def height(self, p: int) -> int | None:
        """The height position ``p`` holds, or None if never walked."""
        k = bisect_right(self.lo, p) - 1
        if k < 0 or p >= self.hi[k]:
            return None
        return self._at(k, p)

    def _at(self, k: int, p: int) -> int:
        seen = self.merged.get(p)
        if seen is None:
            seen = self.entry[k] + self.cum[p] - self.cum[self.lo[k]]
        return seen

    def merge(self, k: int, p: int, h: int) -> None:
        """A walk reached walked position ``p`` (in run ``k``) at height
        ``h``: keep the height of larger magnitude, the first-seen one
        on a tie. Nothing downstream is re-walked."""
        seen = self._at(k, p)
        if seen != h:
            self.merged[p] = max(seen, h, key=abs)


def _replay(cum: list[int], terms: list[int], jcc: list[int],
            jcc_to: list[int]) -> _Runs:
    """Worklist stack-height propagation over one region's CFG.

    Heights are measured *before* each instruction executes. A work
    item walks fall-through from its position until a terminator
    (inclusive), the region end, or an already-walked position, where
    it merges (:meth:`_Runs.merge`) and stops; conditional jumps to
    instructions of the region push work items, popped last-in
    first-out. Each walk is one run.

    Positions index the region's instructions from its entry; ``cum``
    holds their stack-effect prefix sums (one more entry than there are
    instructions), ``terms`` the sorted terminator positions followed by
    the instruction count, and ``jcc`` the sorted positions of in-region
    conditional jumps (``jcc_to`` their targets).
    """
    runs = _Runs(cum)
    lo, hi = runs.lo, runs.hi
    end = len(cum) - 1
    work = [(0, 0)]
    while work:
        p, h = work.pop()
        k = bisect_right(lo, p)
        if k and p < hi[k - 1]:
            runs.merge(k - 1, p, h)
            continue
        stop = min(terms[bisect_left(terms, p)] + 1, end)
        if k < len(lo) and lo[k] < stop:
            stop = lo[k]
            runs.merge(k, stop, h + cum[stop] - cum[p])
        lo.insert(k, p)
        hi.insert(k, stop)
        runs.entry.insert(k, h)
        base = h - cum[p]
        for i in range(bisect_left(jcc, p), bisect_left(jcc, stop)):
            work.append((jcc_to[i], base + cum[jcc[i] + 1]))
    return runs
