"""Reference IDA-like and Ghidra-like analysis: the scalar walks.

These are the per-instruction formulations the detectors in
:mod:`repro.baselines` replaced — a recursive traversal, an xref sweep
with a four-instruction plausibility check, and a prologue scan over
every 16-byte-aligned window, each decoding one instruction at a time
with :func:`~repro.x86.decoder.decode` (no decode index) and reading
``.eh_frame`` with its own strict parse. They are kept here,
unoptimised, as the oracle the differential tests compare the
detectors against: the same entry sets and the same work counters.
"""

from __future__ import annotations

from repro.baselines.base import text_section
from repro.elf import constants as C
from repro.elf.ehframe import EhFrameError, parse_eh_frame
from repro.elf.parser import ELFFile
from repro.x86.decoder import DecodeError, decode
from repro.x86.insn import InsnClass

#: Work-counter names, as the detectors emit them through ``obs.add``.
COUNTERS = ("prologue.windows", "prologue.hits", "traversal.entries",
            "traversal.insns", "ida.xref_candidates")

_XREF_CLASSES = frozenset(
    {InsnClass.LEA, InsnClass.MOV_IMM, InsnClass.PUSH_IMM}
)

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


def _counters() -> dict[str, int]:
    return dict.fromkeys(COUNTERS, 0)


def recursive_traversal(data: bytes, base: int, bits: int, seeds: set[int],
                        counters: dict | None = None) -> set[int]:
    """Follow direct calls transitively from the seed entry points."""
    counters = counters if counters is not None else _counters()
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
            counters["traversal.insns"] += 1
            if insn.klass == InsnClass.CALL_DIRECT and insn.target is not None:
                if base <= insn.target < end and insn.target not in found:
                    work.append(insn.target)
            if insn.is_terminator:
                break
            offset += insn.length
            steps += 1
    counters["traversal.entries"] += len(found)
    return found


def plausible_entry(data: bytes, offset: int, bits: int) -> bool:
    """IDA only creates a function at an xref if the bytes decode."""
    for _ in range(4):
        try:
            insn = decode(data, offset, offset, bits)
        except DecodeError:
            return False
        if insn.is_terminator:
            return True
        offset += insn.length
        if offset >= len(data):
            return False
    return True


def xref_targets(data: bytes, base: int, bits: int, *, pie: bool,
                 counters: dict | None = None) -> set[int]:
    """Plausible in-``.text`` targets of address-materializing
    instructions on a linear sweep."""
    counters = counters if counters is not None else _counters()
    out: set[int] = set()
    end = base + len(data)
    classes = {InsnClass.LEA} if pie else _XREF_CLASSES
    offset = 0
    while offset < len(data):
        try:
            insn = decode(data, offset, base + offset, bits)
        except DecodeError:
            offset += 1
            continue
        offset += insn.length
        if insn.klass in classes and insn.target is not None:
            if base <= insn.target < end:
                counters["ida.xref_candidates"] += 1
                if plausible_entry(data, insn.target - base, bits):
                    out.add(insn.target)
    return out


def prologue_scan(
    data: bytes, base: int, bits: int, *, alignment: int = 16,
    skip: set[int] | None = None, counters: dict | None = None,
) -> set[int]:
    """Scan aligned addresses for classic prologue byte patterns.

    ``skip`` leaves addresses out of the scan; ``counters`` (windows
    probed, hits) is only meaningful without it.
    """
    counters = counters if counters is not None else _counters()
    sigs = _PROLOGUE_SIGS_64 if bits == 64 else _PROLOGUE_SIGS_32
    skip = skip or set()
    found: set[int] = set()
    for off in range(0, len(data), alignment):
        addr = base + off
        if addr in skip:
            continue
        counters["prologue.windows"] += 1
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
    counters["prologue.hits"] += len(found)
    return found


def _is_endbr(chunk: bytes) -> bool:
    return chunk in (b"\xf3\x0f\x1e\xfa", b"\xf3\x0f\x1e\xfb")


def strict_fde_starts(elf: ELFFile) -> set[int]:
    """FDE ``pc_begin`` values from a strict parse; empty when the
    section is missing, empty or malformed."""
    sec = elf.section(C.SECTION_EH_FRAME)
    if sec is None or not sec.data:
        return set()
    try:
        eh = parse_eh_frame(sec.data, sec.sh_addr, elf.is64)
    except EhFrameError:
        return set()
    return {fde.pc_begin for fde in eh.fdes}


def ida(elf: ELFFile) -> tuple[set[int], dict[str, int]] | None:
    """IDA-like's entry set and work counters, composed from the scalar
    walks as the detector composed them before the shared artifacts:
    the prologue scan skips what the traversal found. None when the
    image has no ``.text`` to analyse."""
    txt = text_section(elf)
    if txt is None or not txt.data:
        return None
    counters = _counters()
    data, base = txt.data, txt.sh_addr
    bits = 64 if elf.is64 else 32
    seeds = xref_targets(data, base, bits, pie=elf.header.is_pie,
                         counters=counters)
    if txt.contains_addr(elf.header.e_entry):
        seeds.add(elf.header.e_entry)
    found = recursive_traversal(data, base, bits, seeds, counters)
    return found | _scan_with_skip(data, base, bits, found, counters), \
        counters


def ghidra(elf: ELFFile) -> tuple[set[int], dict[str, int]] | None:
    """Ghidra-like's entry set and work counters, composed as for
    :func:`ida` from the entry point and the strict FDE starts."""
    txt = text_section(elf)
    if txt is None or not txt.data:
        return None
    counters = _counters()
    data, base = txt.data, txt.sh_addr
    bits = 64 if elf.is64 else 32
    seeds = {s for s in strict_fde_starts(elf) if txt.contains_addr(s)}
    if txt.contains_addr(elf.header.e_entry):
        seeds.add(elf.header.e_entry)
    found = recursive_traversal(data, base, bits, seeds, counters)
    return found | _scan_with_skip(data, base, bits, found, counters), \
        counters


def _scan_with_skip(data, base, bits, found, counters) -> set[int]:
    """The skipping scan the detectors ran, plus the unskipped scan's
    counters (the shared artifact probes every window)."""
    prologue_scan(data, base, bits, counters=counters)
    return prologue_scan(data, base, bits, skip=found)
