"""Tests for the FETCH-like detector."""

import pytest

from repro.baselines.fetch_like import FetchLikeDetector
from repro.elf.parser import ELFFile
from repro.eval.metrics import score
from repro.synth import CompilerProfile, generate_program, link_program

from tests.baselines import array_stack_effect


def _detect(profile, seed=31, cxx=False, n=60):
    spec = generate_program("fx", n, profile, seed=seed, cxx=cxx)
    binary = link_program(spec, profile)
    result = FetchLikeDetector().detect(ELFFile(binary.data))
    return binary, result


class TestStackEffect:
    @pytest.mark.parametrize("raw,effect", [
        (b"\x55", -8),                        # push rbp
        (b"\x5d", 8),                         # pop rbp
        (b"\x41\x54", -8),                    # push r12
        (b"\x41\x5c", 8),                     # pop r12
        (b"\xc9", 8),                         # leave
        (b"\x48\x83\xec\x20", -0x20),         # sub rsp, 0x20
        (b"\x48\x83\xc4\x20", 0x20),          # add rsp, 0x20
        (b"\x48\x81\xec\x00\x01\x00\x00", -0x100),
        (b"\x68\x00\x00\x00\x00", -8),        # push imm32
        (b"\x90", 0),                         # nop
        (b"\x89\xc2", 0),                     # mov
        (b"\x48\x83\xc0\x08", 0),             # add rax, 8 (not rsp)
    ])
    def test_effects_64(self, raw, effect):
        assert array_stack_effect(raw, 64) == effect

    @pytest.mark.parametrize("raw,effect", [
        (b"\x55", -4),                        # push ebp
        (b"\x83\xec\x10", -0x10),             # sub esp, 0x10
        (b"\x83\xc4\x10", 0x10),              # add esp, 0x10
    ])
    def test_effects_32(self, raw, effect):
        assert array_stack_effect(raw, 32) == effect


class TestDetection:
    def test_high_accuracy_with_fdes(self):
        binary, result = _detect(CompilerProfile("gcc", "O2", 64, True))
        conf = score(binary.ground_truth.function_starts, result.functions)
        assert conf.recall > 0.99
        assert conf.precision > 0.90

    def test_collapse_without_fdes(self):
        """Clang x86 C binaries: the paper's FETCH failure mode."""
        binary, result = _detect(CompilerProfile("clang", "O2", 32, True))
        conf = score(binary.ground_truth.function_starts, result.functions)
        assert conf.recall < 0.2

    def test_cxx_partially_recovers_on_clang_x86(self):
        binary, result = _detect(CompilerProfile("clang", "O2", 32, True),
                                 cxx=True)
        conf = score(binary.ground_truth.function_starts, result.functions)
        assert conf.recall > 0.2

    def test_fragment_fdes_are_false_positives(self):
        profile = CompilerProfile("gcc", "O2", 64, True)
        binary, result = _detect(profile, seed=33, n=120)
        gt = binary.ground_truth
        fps = result.functions - gt.function_starts
        if gt.fragment_starts:
            assert fps <= gt.fragment_starts
            assert fps, "fragments with FDEs should surface as FPs"

    def test_slower_than_funseeker(self):
        """Table III's timing ordering (FunSeeker several times faster)."""
        from repro.baselines import FunSeekerDetector

        profile = CompilerProfile("gcc", "O2", 64, True)
        spec = generate_program("t", 200, profile, seed=35, cxx=True)
        binary = link_program(spec, profile)
        elf = ELFFile(binary.data)
        fs = min(FunSeekerDetector().detect(elf).elapsed_seconds
                 for _ in range(3))
        fetch = min(FetchLikeDetector().detect(elf).elapsed_seconds
                    for _ in range(3))
        assert fetch > fs * 1.5
