"""IBT compliance auditing (paper §II background, applied).

Under CET Indirect Branch Tracking, every indirect ``jmp``/``call``
must land on an end-branch instruction or the CPU raises a
control-protection fault. This module statically audits a binary for
violations: it collects every statically visible indirect-branch-target
candidate and checks that the destination starts with ``endbr``.

Candidate sources:

- address-materialization operands (``lea``/``mov $imm``/``push $imm``
  pointing into ``.text``) — classic address-taking;
- function pointers stored in data sections (vtables, callback
  tables) — scanned word-wise against the ``.text`` range;
- exception landing pads (reached indirectly by the unwinder).

NOTRACK-prefixed jumps are exempt by architecture (Fig. 1b), which is
why jump-table case labels never need markers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.elf import constants as C
from repro.elf.ehframe import EhFrameError, parse_eh_frame
from repro.elf.lsda import landing_pads_from_exception_info
from repro.elf.parser import ELFFile
from repro.x86.insn import InsnClass
from repro.x86.superset import get_index
from repro.x86.sweep import linear_sweep

#: Data sections scanned for stored code pointers.
_POINTER_SECTIONS = (".data", ".data.rel.ro", ".rodata", ".init_array",
                     ".fini_array")

_XREF_CLASSES = frozenset(
    {InsnClass.LEA, InsnClass.MOV_IMM, InsnClass.PUSH_IMM}
)

#: An offset that does not decode has class 0 (OTHER) in the index.
_ENDBR_CLASSES = frozenset({InsnClass.ENDBR64, InsnClass.ENDBR32})


class TargetSource(enum.Enum):
    CODE_XREF = "code-xref"
    DATA_POINTER = "data-pointer"
    LANDING_PAD = "landing-pad"


@dataclass(frozen=True)
class IbtViolation:
    """One indirect-branch target lacking its end-branch marker."""

    target: int
    source: TargetSource


@dataclass
class IbtAuditReport:
    """Result of auditing one binary."""

    candidates: dict[int, TargetSource] = field(default_factory=dict)
    violations: list[IbtViolation] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.violations

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)


def audit_ibt(elf: ELFFile) -> IbtAuditReport:
    """Audit a CET binary for IBT landing-marker violations."""
    report = IbtAuditReport()
    txt = elf.section(C.SECTION_TEXT)
    if txt is None or not txt.data:
        return report
    bits = 64 if elf.is64 else 32

    for addr in _code_xref_targets(txt, bits, pie=elf.header.is_pie):
        report.candidates.setdefault(addr, TargetSource.CODE_XREF)
    for addr in _data_pointer_targets(elf, txt):
        report.candidates.setdefault(addr, TargetSource.DATA_POINTER)
    for addr in _landing_pads(elf):
        report.candidates.setdefault(addr, TargetSource.LANDING_PAD)

    for addr, source in sorted(report.candidates.items()):
        if not _has_endbr(txt, addr, bits):
            report.violations.append(IbtViolation(addr, source))
    return report


def _code_xref_targets(txt, bits: int, *, pie: bool) -> set[int]:
    """Address-materialization targets.

    In position-independent code, absolute immediates are constants,
    not pointers — only RIP-relative LEAs count there (the same rule
    the IDA-like baseline applies).
    """
    base = txt.sh_addr
    end = base + len(txt.data)
    classes = {InsnClass.LEA} if pie else _XREF_CLASSES
    out: set[int] = set()
    for insn in linear_sweep(txt.data, base, bits):
        if insn.klass in classes and insn.target is not None:
            if base <= insn.target < end:
                out.add(insn.target)
    return out


def _data_pointer_targets(elf: ELFFile, txt) -> set[int]:
    word = 8 if elf.is64 else 4
    lo, hi = txt.sh_addr, txt.end_addr
    out: set[int] = set()
    for name in _POINTER_SECTIONS:
        sec = elf.section(name)
        if sec is None or not sec.data:
            continue
        data = sec.data
        for off in range(0, len(data) - word + 1, word):
            value = int.from_bytes(data[off : off + word], "little")
            if lo <= value < hi:
                out.add(value)
    return out


def _landing_pads(elf: ELFFile) -> set[int]:
    eh = elf.section(C.SECTION_EH_FRAME)
    get = elf.section(C.SECTION_GCC_EXCEPT_TABLE)
    if eh is None or get is None:
        return set()
    try:
        frames = parse_eh_frame(eh.data, eh.sh_addr, elf.is64)
    except EhFrameError:
        return set()
    return landing_pads_from_exception_info(
        frames, get.data, get.sh_addr, elf.is64)


def _has_endbr(txt, addr: int, bits: int) -> bool:
    offset = addr - txt.sh_addr
    if not 0 <= offset < len(txt.data):
        return False
    index = get_index(txt.data, bits, txt.sh_addr)
    return index.klasses[offset] in _ENDBR_CLASSES
