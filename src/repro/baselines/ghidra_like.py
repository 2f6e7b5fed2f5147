"""Ghidra-style detector: eh_frame-driven with pattern-scan fallback.

Re-implements Ghidra's documented entry discovery pipeline (§V-A2,
§VII-B): seed from the ELF entry point and — aggressively — from every
``.eh_frame`` FDE, expand through call-graph traversal, then sweep the
remaining aligned gaps with compiler prologue patterns.

Reproduced failure modes (Table III):

- On x86 binaries without FDEs (Clang C code) the eh_frame seeds vanish
  and recall drops to whatever traversal + patterns can reach.
- FDEs of ``.part`` / ``.cold`` fragments and pattern matches inside
  fragments surface as false positives.
"""

from __future__ import annotations

from repro.baselines.base import (
    FunctionDetector,
    fde_starts,
    recursive_traversal,
    text_section,
)
from repro.cache.context import get_context
from repro.elf.parser import ELFFile


class GhidraLikeDetector(FunctionDetector):
    """eh_frame seeding + recursive traversal + prologue gap scan."""

    name = "ghidra"

    def _detect(self, elf: ELFFile) -> set[int]:
        txt = text_section(elf)
        if txt is None or not txt.data:
            return set()
        bits = 64 if elf.is64 else 32

        seeds: set[int] = set()
        if txt.contains_addr(elf.header.e_entry):
            seeds.add(elf.header.e_entry)
        starts, _ranges = fde_starts(elf)
        seeds.update(s for s in starts if txt.contains_addr(s))

        found = recursive_traversal(txt.data, txt.sh_addr, bits, seeds)
        return found | get_context(elf).prologue_hits()
