"""DISASSEMBLE — the linear-sweep collection pass (paper §IV-B, Alg. 1).

One pass over ``.text`` collects everything the rest of the pipeline
needs:

- ``E`` — addresses of end-branch instructions;
- ``C`` — direct-call targets that land inside ``.text``;
- ``J`` — direct unconditional-jump targets inside ``.text``;
- per-site records for tail-call selection;
- the instruction preceding each end-branch (for the indirect-return
  filter);
- direct-call sites whose target leaves ``.text`` (PLT calls), so
  FILTERENDBR can match them against the indirect-return list.

:func:`disassemble` and the data-tolerant :func:`disassemble_robust`
are one walk over the shared decode index; they differ only in how the
cursor moves past an offset that does not decode (or, for the robust
walk, starts no viable chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.x86.insn import InsnClass
from repro.x86.superset import get_index, next_viable


@dataclass(frozen=True)
class BranchSite:
    """One direct branch instruction and its target."""

    addr: int
    target: int
    is_call: bool


@dataclass
class SweepResult:
    """Everything collected by one linear sweep of ``.text``."""

    endbr_addrs: set[int] = field(default_factory=set)
    call_targets: set[int] = field(default_factory=set)
    jump_targets: set[int] = field(default_factory=set)
    call_sites: list[BranchSite] = field(default_factory=list)
    jump_sites: list[BranchSite] = field(default_factory=list)
    #: endbr addr -> (class, target) of the immediately preceding insn.
    endbr_predecessor: dict[int, tuple[InsnClass, int | None]] = field(
        default_factory=dict
    )
    #: Direct-call sites targeting outside .text (candidate PLT calls).
    external_call_sites: list[BranchSite] = field(default_factory=list)
    text_start: int = 0
    text_end: int = 0
    insn_count: int = 0


def disassemble(data: bytes, base_addr: int, bits: int) -> SweepResult:
    """Linear-sweep ``data`` and collect the (E, C, J) tuple plus the
    side tables FILTERENDBR and SELECTTAILCALL consume.

    Decode failures advance one byte, per the paper.
    """
    with obs.span("sweep", bytes=len(data)):
        return _collect(get_index(data, bits, base_addr), data, base_addr)


def disassemble_robust(data: bytes, base_addr: int, bits: int) -> SweepResult:
    """DISASSEMBLE over the superset-validated sweep (paper §VI).

    The same collection pass, except that a non-viable offset is not
    stepped over one byte at a time: the cursor jumps to the next viable
    offset (:func:`~repro.x86.superset.next_viable`), so data embedded
    in ``.text`` yields no phantom end-branches or branch targets.
    """
    index = get_index(data, bits, base_addr)
    return _collect(index, data, base_addr, index.viable)


def _collect(
    index, data: bytes, base_addr: int, viable: bytes | None = None
) -> SweepResult:
    """Walk the shared decode index and collect the sweep tables.

    The batched pass has already classified every offset; this walk
    touches only instruction boundaries and materializes no ``Insn``
    objects. An offset fails when it does not decode or, given
    ``viable``, when no viable chain starts there. A failure resets the
    predecessor and moves the cursor one byte on or, given ``viable``,
    to the next viable offset.
    """
    result = SweepResult(text_start=base_addr, text_end=base_addr + len(data))
    end = result.text_end
    lengths = index.lengths
    klasses = index.klasses
    targets = index.targets
    # Previous instruction's (class, target); None after decode errors.
    prev: tuple[int, int | None] | None = None
    offset = 0
    count = 0
    errors = 0
    n = len(data)
    endbr64 = int(InsnClass.ENDBR64)
    endbr32 = int(InsnClass.ENDBR32)
    call_d = int(InsnClass.CALL_DIRECT)
    jmp_d = int(InsnClass.JMP_DIRECT)
    while offset < n:
        length = lengths[offset]
        if length == 0 or (viable is not None and not viable[offset]):
            offset = (offset + 1 if viable is None
                      else next_viable(data, viable, offset + 1))
            prev = None
            errors += 1
            continue
        addr = base_addr + offset
        klass = klasses[offset]
        target = targets.get(offset)
        offset += length
        count += 1
        if klass == endbr64 or klass == endbr32:
            result.endbr_addrs.add(addr)
            if prev is not None:
                result.endbr_predecessor[addr] = (
                    InsnClass(prev[0]), prev[1]
                )
        elif klass == call_d:
            if base_addr <= target < end:
                result.call_targets.add(target)
                result.call_sites.append(BranchSite(addr, target, True))
            else:
                result.external_call_sites.append(
                    BranchSite(addr, target, True)
                )
        elif klass == jmp_d:
            if base_addr <= target < end:
                result.jump_targets.add(target)
                result.jump_sites.append(BranchSite(addr, target, False))
        prev = (klass, target)
    result.insn_count = count
    obs.add("sweep.insns", count)
    obs.add("sweep.decode_errors", errors)
    obs.add("sweep.endbr_sites", len(result.endbr_addrs))
    return result
