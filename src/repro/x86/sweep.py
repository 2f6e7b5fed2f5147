"""Linear-sweep disassembly (paper §IV-B).

Disassembles a code region from its start address to its end. On a
decode error the sweep advances the cursor by a single byte and resumes,
exactly as the paper specifies — linear sweep is reliable on
compiler-generated x86 code because GCC and Clang do not embed data in
``.text``.

The sweep walks the shared per-buffer
:class:`~repro.x86.superset.DecodeIndex` instead of decoding: the
batched pass has already classified every offset, and any other
consumer of the same buffer (superset sweep, detectors) reuses the
identical index.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro import obs
from repro.x86.insn import Insn
from repro.x86.superset import get_index


def linear_sweep(data: bytes, base_addr: int, bits: int) -> Iterator[Insn]:
    """Yield instructions across ``data`` starting at ``base_addr``.

    Decode failures advance by one byte and continue (paper §IV-B); the
    bad byte is simply not yielded. Decode/error totals are reported to
    the observability counters once, when the sweep is exhausted —
    nothing is added to the per-instruction loop.
    """
    index = get_index(data, bits, base_addr)
    lengths = index.lengths
    offset = 0
    count = 0
    errors = 0
    n = len(data)
    while offset < n:
        length = lengths[offset]
        if length == 0:
            offset += 1
            errors += 1
            continue
        yield index.insn_at(offset)
        count += 1
        offset += length
    obs.add("sweep.insns", count)
    obs.add("sweep.decode_errors", errors)


def sweep_section(section, bits: int) -> list[Insn]:
    """Linear-sweep one parsed ELF section object."""
    with obs.span("sweep", bytes=len(section.data)):
        return list(linear_sweep(section.data, section.sh_addr, bits))
