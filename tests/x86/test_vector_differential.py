"""Differential tests: the decode index vs the scalar oracle walks.

The vectorized pass (:mod:`repro.x86.vector`) exists purely as an
accelerator — its contract is *bit-identical* outputs to the scalar
superset sweep it replaced (``tests/x86/scalar_oracle.py``). These tests
pin that contract from four angles: property-tested random/constructed
byte streams, the checked-in fuzz-regression corpus, the sweeps that
walk the index (plain, robust and the collection pass), and
whole-pipeline :class:`EvalReport` equality for all five detectors over
a real corpus.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ALL_DETECTORS
from repro.cache.disk import reset_default_cache, set_default_cache
from repro.core.disassemble import disassemble, disassemble_robust
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from repro.eval.runner import run_evaluation
from repro.x86 import superset
from repro.x86.sweep import linear_sweep

from tests.core.test_robust import _binary_with_inline_data
from tests.x86 import scalar_oracle as oracle

TOOLS = ("funseeker", "ida", "ghidra", "fetch", "naive-endbr")

FUZZ_DIR = Path(__file__).parent.parent / "elf" / "data" / "fuzz_regressions"

#: Valid instructions (prologues, branches, prefixes, SSE/VEX) used to
#: build realistic streams; garbage bytes cover the error paths.
KNOWN = [
    b"\xf3\x0f\x1e\xfa",              # endbr64
    b"\xf3\x0f\x1e\xfb",              # endbr32
    b"\x55",                          # push rbp
    b"\x48\x89\xe5",                  # mov rbp, rsp
    b"\x48\x83\xec\x20",              # sub rsp, 0x20
    b"\xe8\x10\x00\x00\x00",          # call +0x10
    b"\xe9\x20\x00\x00\x00",          # jmp +0x20
    b"\x74\x05",                      # je +5
    b"\x66\xe9\x10\x00",              # jmp with 16-bit operand size
    b"\xc3",                          # ret
    b"\x90",                          # nop
    b"\x0f\x1f\x44\x00\x00",          # nop5
    b"\xff\xd0",                      # call rax
    b"\x3e\xff\xe0",                  # notrack jmp rax
    b"\x48\x8d\x05\x10\x00\x00\x00",  # lea rax, [rip+0x10]
    b"\xb8\x01\x00\x00\x00",          # mov eax, 1
    b"\x68\x44\x33\x22\x11",          # push imm32
    b"\x67\x8b\x00",                  # addr-size prefixed load
    b"\xc5\xf8\x77",                  # vzeroupper (scalar-fallback class)
    b"\xf2\x0f\x58\xc1",              # addsd
]

_streams = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.lists(st.sampled_from(KNOWN), min_size=1, max_size=12).map(
        b"".join),
)


def _index_pair(data: bytes, bits: int, base: int):
    """Build the same index twice: scalar oracle, then vectorized."""
    legacy = oracle.build_index(data, bits, base)
    fast = superset.build_index(data, bits, base)
    return legacy, fast


def _assert_index_identical(data: bytes, bits: int, base: int = 0x1000):
    legacy, fast = _index_pair(data, bits, base)
    assert fast.lengths == legacy.lengths
    assert fast.klasses == legacy.klasses
    assert fast.targets == legacy.targets
    assert fast.notracks == legacy.notracks
    assert fast.viable == legacy.viable


class TestIndexIdentity:
    @given(data=_streams, bits=st.sampled_from([32, 64]))
    @settings(max_examples=300, deadline=None)
    def test_property_streams(self, data, bits):
        _assert_index_identical(data, bits)

    @given(data=st.binary(min_size=1, max_size=48))
    @settings(max_examples=150, deadline=None)
    def test_wraparound_base(self, data):
        """Branch-target arithmetic must wrap identically near 2^64."""
        _assert_index_identical(data, 64, base=0xFFFFFFFFFF000000)

    @pytest.mark.parametrize(
        "path", sorted(FUZZ_DIR.glob("*.bin")), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("bits", [32, 64])
    def test_fuzz_regression_corpus(self, path, bits):
        _assert_index_identical(path.read_bytes(), bits)


def _text(image: bytes) -> tuple[bytes, int, int]:
    elf = ELFFile(image)
    txt = elf.section(C.SECTION_TEXT)
    return txt.data, txt.sh_addr, 64 if elf.is64 else 32


@lru_cache(maxsize=None)
def _inline_data_text(seed: int) -> tuple[bytes, int, int]:
    return _text(_binary_with_inline_data(seed=seed).data)


#: Inputs for the sweep identities: the inline-data binaries of
#: ``tests/core/test_robust.py``, the two sample binaries, and the
#: fuzz-regression corpus decoded as raw code at both bitnesses.
SWEEP_CASES = (
    [f"inline-data-{seed}" for seed in (1, 2, 3)]
    + ["sample_binary", "sample_c_binary"]
    + [f"{path.name}-{bits}" for path in sorted(FUZZ_DIR.glob("*.bin"))
       for bits in (32, 64)]
)


@pytest.fixture(params=SWEEP_CASES)
def sweep_input(request) -> tuple[bytes, int, int]:
    case = request.param
    if case.startswith("inline-data-"):
        return _inline_data_text(int(case.rsplit("-", 1)[1]))
    if case.startswith("sample_"):
        return _text(request.getfixturevalue(case).data)
    name, bits = case.rsplit("-", 1)
    return (FUZZ_DIR / name).read_bytes(), 0x1000, int(bits)


class TestSweepIdentity:
    def test_sample_binary_sweep(self, sample_elf):
        """Full SweepResult equality on a real gcc/O2/PIE C++ binary."""
        txt = sample_elf.section(C.SECTION_TEXT)
        assert txt is not None and txt.data
        legacy = oracle.disassemble(txt.data, txt.sh_addr, 64)
        fast = disassemble(txt.data, txt.sh_addr, 64)
        assert fast == legacy

    def test_sample_binary_index(self, sample_elf, sample_c_binary):
        txt = sample_elf.section(C.SECTION_TEXT)
        _assert_index_identical(txt.data, 64, base=txt.sh_addr)
        elf32 = ELFFile(sample_c_binary.data)
        txt32 = elf32.section(C.SECTION_TEXT)
        _assert_index_identical(txt32.data, 32, base=txt32.sh_addr)

    def test_robust_collection_matches_oracle(self, sweep_input):
        """The viability-skipping collection pass equals the old one
        built on ``Insn`` objects from ``robust_sweep``."""
        data, base, bits = sweep_input
        assert disassemble_robust(data, base, bits) == \
            oracle.disassemble_robust(data, base, bits)

    def test_collection_matches_oracle(self, sweep_input):
        data, base, bits = sweep_input
        assert disassemble(data, base, bits) == \
            oracle.disassemble(data, base, bits)

    def test_linear_sweep_matches_oracle(self, sweep_input):
        data, base, bits = sweep_input
        assert list(linear_sweep(data, base, bits)) == \
            list(oracle.linear_sweep(data, base, bits))


def _canonical_report(corpus, enabled: bool):
    pipeline = nullcontext() if enabled else oracle.scalar_pipeline()
    superset.clear_index_memo()
    with pipeline:
        try:
            detectors = {name: ALL_DETECTORS[name]() for name in TOOLS}
            report = run_evaluation(corpus, detectors)
        finally:
            superset.clear_index_memo()
    assert not report.failures
    return sorted(
        (r.suite, r.program, r.compiler, r.bits, r.pie, r.opt, r.tool,
         r.confusion.tp, r.confusion.fp, r.confusion.fn)
        for r in report.records
    )


def test_eval_reports_identical_all_tools(tiny_corpus):
    """The acceptance bar: all five tools, vector on vs off, one corpus."""
    set_default_cache(None)
    try:
        legacy = _canonical_report(tiny_corpus, enabled=False)
        fast = _canonical_report(tiny_corpus, enabled=True)
    finally:
        reset_default_cache()
    assert legacy, "empty evaluation proves nothing"
    assert fast == legacy
