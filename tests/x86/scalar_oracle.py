"""Reference x86 walks: the scalar decoder, one offset at a time.

These are the per-instruction formulations the shared
:class:`~repro.x86.superset.DecodeIndex` replaced, kept here unoptimised
as the oracles the differential tests (and the legacy trajectory of
``benchmarks/test_throughput.py``) compare the index paths against:

- :func:`build_index` — the right-to-left pass that calls
  ``decode_raw`` at every offset and resolves viability as a suffix DP,
  against :func:`repro.x86.superset.build_index`;
- :func:`linear_sweep` — the ``decode`` walk, against
  :func:`repro.x86.sweep.linear_sweep`;
- :func:`disassemble` — the ``decode_raw`` collection walk, against
  :func:`repro.core.disassemble.disassemble`;
- :func:`disassemble_robust` — the collection over ``Insn`` objects
  from :func:`~repro.x86.superset.robust_sweep`, against
  :func:`repro.core.disassemble.disassemble_robust`.

:func:`scalar_pipeline` runs whole pipelines on the first and third, as
the scalar build of the package did.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator
from contextlib import contextmanager

import pytest

from repro import obs
from repro.core.disassemble import BranchSite, SweepResult
from repro.x86 import superset
from repro.x86.decoder import DecodeError, decode, decode_raw
from repro.x86.insn import Insn, InsnClass
from repro.x86.superset import DecodeIndex, robust_sweep

_TERMINATORS = frozenset(
    int(k) for k in (InsnClass.JMP_DIRECT, InsnClass.JMP_INDIRECT,
                     InsnClass.RET, InsnClass.HLT, InsnClass.UD)
)


def build_index(data: bytes, bits: int, base_addr: int = 0) -> DecodeIndex:
    """Decode every offset once, right to left.

    Viability is a pure suffix property: ``viable[i]`` only consults
    ``viable[i + length]``, already final when ``i`` is visited.
    """
    n = len(data)
    lengths_b = bytearray(n)
    klasses_b = bytearray(n)
    targets: dict[int, int] = {}
    notracks: set[int] = set()
    viable = bytearray(n + 1)
    viable[n] = 1
    terminators = _TERMINATORS
    errors = 0
    with obs.span("superset.index", bytes=n):
        for i in range(n - 1, -1, -1):
            try:
                length, klass, target, notrack = decode_raw(
                    data, i, base_addr + i, bits
                )
            except DecodeError:
                errors += 1
                continue
            lengths_b[i] = length
            klasses_b[i] = klass
            if target is not None:
                targets[i] = target
            if notrack:
                notracks.add(i)
            if klass in terminators or viable[i + length]:
                viable[i] = 1
        obs.add("superset.offsets_decoded", n - errors)
        obs.add("superset.decode_errors", errors)
    return DecodeIndex(
        base_addr=base_addr, bits=bits, lengths=bytes(lengths_b),
        klasses=bytes(klasses_b), targets=targets, notracks=notracks,
        viable=bytes(viable),
    )


def linear_sweep(data: bytes, base_addr: int, bits: int) -> Iterator[Insn]:
    """Decode one instruction after another; a failure steps one byte."""
    offset = 0
    count = 0
    errors = 0
    n = len(data)
    while offset < n:
        try:
            insn = decode(data, offset, base_addr + offset, bits)
        except DecodeError:
            offset += 1
            errors += 1
            continue
        yield insn
        count += 1
        offset += insn.length
    obs.add("sweep.insns", count)
    obs.add("sweep.decode_errors", errors)


def disassemble(data: bytes, base_addr: int, bits: int) -> SweepResult:
    """DISASSEMBLE with ``decode_raw`` at each instruction boundary."""
    result = SweepResult(text_start=base_addr, text_end=base_addr + len(data))
    end = result.text_end
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
        addr = base_addr + offset
        try:
            length, klass, target, _notrack = decode_raw(
                data, offset, addr, bits
            )
        except DecodeError:
            offset += 1
            prev = None
            errors += 1
            continue
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


def disassemble_robust(data: bytes, base_addr: int, bits: int) -> SweepResult:
    """DISASSEMBLE over the ``Insn`` objects of the robust sweep."""
    result = SweepResult(text_start=base_addr,
                         text_end=base_addr + len(data))
    end = result.text_end
    prev: Insn | None = None
    count = 0
    for insn in robust_sweep(data, base_addr, bits):
        klass = insn.klass
        if klass in (InsnClass.ENDBR64, InsnClass.ENDBR32):
            result.endbr_addrs.add(insn.addr)
            if prev is not None and prev.end == insn.addr:
                result.endbr_predecessor[insn.addr] = (prev.klass,
                                                       prev.target)
        elif klass == InsnClass.CALL_DIRECT:
            site = BranchSite(insn.addr, insn.target, True)
            if base_addr <= insn.target < end:
                result.call_targets.add(insn.target)
                result.call_sites.append(site)
            else:
                result.external_call_sites.append(site)
        elif klass == InsnClass.JMP_DIRECT:
            if base_addr <= insn.target < end:
                result.jump_targets.add(insn.target)
                result.jump_sites.append(
                    BranchSite(insn.addr, insn.target, False))
        count += 1
        prev = insn
    result.insn_count = count
    return result


@contextmanager
def scalar_pipeline(*, sweep: bool = True) -> Iterator[None]:
    """Build every decode index with :func:`build_index` and, with
    ``sweep``, run FunSeeker's collection pass as :func:`disassemble`.

    The index memo is cleared on entry and exit, so no index built one
    way is served to the other.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(superset, "build_index", build_index)
        if sweep:
            mp.setattr(importlib.import_module("repro.core.disassemble"),
                       "disassemble", disassemble)
        superset.clear_index_memo()
        try:
            yield
        finally:
            superset.clear_index_memo()
