"""Encoder edge cases: every emitted encoding must satisfy the decoder."""

import random

import pytest

from repro.synth.encoder import Asm
from repro.x86.decoder import decode
from repro.x86.insn import InsnClass


class TestConditionCodes:
    @pytest.mark.parametrize("cc", ["e", "ne", "l", "le", "g", "ge",
                                    "a", "ae", "b", "be", "s", "ns"])
    def test_jcc_long_roundtrip(self, cc):
        asm = Asm(64)
        asm.jcc(cc, ".Lt")
        asm.label(".Lt")
        code = asm.finish()
        insn = decode(bytes(code.buf), 0, 0x1000, 64)
        assert insn.klass == InsnClass.JCC
        assert insn.target == 0x1006

    @pytest.mark.parametrize("cc", ["e", "ne", "s"])
    def test_jcc_short_roundtrip(self, cc):
        asm = Asm(64)
        asm.jcc_short(cc, ".Lt")
        asm.label(".Lt")
        insn = decode(bytes(asm.finish().buf), 0, 0x1000, 64)
        assert insn.klass == InsnClass.JCC
        assert insn.length == 2

    def test_unknown_cc_rejected(self):
        with pytest.raises(KeyError):
            Asm(64).jcc("xyzzy", ".L")


class TestStackOps:
    @pytest.mark.parametrize("imm", [8, 16, 127, 128, 0x100, 0x1000])
    def test_sub_add_sp_decode(self, imm):
        for bits in (64, 32):
            asm = Asm(bits)
            asm.sub_sp(imm)
            asm.add_sp(imm)
            code = bytes(asm.finish().buf)
            first = decode(code, 0, 0, bits)
            second = decode(code, first.length, first.length, bits)
            assert first.length + second.length == len(code)

    def test_stack_effects_match_fetch_model(self):
        from tests.baselines import array_stack_effect

        asm = Asm(64)
        asm.sub_sp(0x28)
        assert array_stack_effect(bytes(asm.code.buf), 64) == -0x28


class TestMemOps:
    @pytest.mark.parametrize("bits", [64, 32])
    def test_spill_reload_roundtrip(self, bits):
        asm = Asm(bits)
        asm.mov_mem_bp_reg(-8)
        asm.mov_reg_mem_bp(0, -8)
        code = bytes(asm.finish().buf)
        first = decode(code, 0, 0, bits)
        second = decode(code, first.length, first.length, bits)
        assert first.length + second.length == len(code)

    def test_call_mem_bp(self):
        asm = Asm(64)
        asm.call_mem_bp(-16)
        insn = decode(bytes(asm.code.buf), 0, 0, 64)
        assert insn.klass == InsnClass.CALL_INDIRECT


class TestFillerDeterminism:
    def test_same_seed_same_bytes(self):
        a, b = Asm(64), Asm(64)
        a.filler(random.Random(9), 40)
        b.filler(random.Random(9), 40)
        assert bytes(a.code.buf) == bytes(b.code.buf)
