"""Tests for the IDA-like, Ghidra-like, and naive detectors, plus the
cross-tool orderings Table III reports."""

from pathlib import Path

import pytest

from repro.baselines import (
    ALL_DETECTORS,
    FunSeekerDetector,
    GhidraLikeDetector,
    IdaLikeDetector,
    NaiveEndbrDetector,
)
from repro.baselines.base import recursive_traversal
from repro.elf.parser import ELFFile
from repro.eval.metrics import score
from repro.synth import CompilerProfile, generate_program, link_program


@pytest.fixture(scope="module")
def gcc_binary():
    profile = CompilerProfile("gcc", "O2", 64, True)
    spec = generate_program("bx", 120, profile, seed=51, cxx=True)
    return link_program(spec, profile)


@pytest.fixture(scope="module")
def clang32_binary():
    profile = CompilerProfile("clang", "O2", 32, True)
    spec = generate_program("bx32", 120, profile, seed=52, cxx=False)
    return link_program(spec, profile)


def _conf(binary, detector):
    result = detector.detect(ELFFile(binary.data))
    return score(binary.ground_truth.function_starts, result.functions)


class TestTraversalHelpers:
    def test_recursive_traversal_follows_calls(self):
        # f0 at 0: call f1(+0x10); ret. f1 at 0x10: ret.
        code = bytearray(32)
        code[0:5] = b"\xe8\x0b\x00\x00\x00"  # call 0x10
        code[5] = 0xC3
        code[0x10] = 0xC3
        found = recursive_traversal(bytes(code), 0, 64, {0})
        assert found == {0, 0x10}

    def test_traversal_stops_at_terminator(self):
        code = b"\xc3" + b"\xe8\x00\x00\x00\x00"  # ret; call (unreached)
        found = recursive_traversal(code, 0, 64, {0})
        assert found == {0}


class TestIdaLike:
    def test_lowest_recall(self, gcc_binary):
        """IDA-style traversal misses indirectly-reached functions."""
        ida = _conf(gcc_binary, IdaLikeDetector())
        fs = _conf(gcc_binary, FunSeekerDetector())
        assert ida.recall < fs.recall - 0.1
        assert ida.precision > 0.9

    def test_entry_point_always_found(self, gcc_binary):
        result = IdaLikeDetector().detect(ELFFile(gcc_binary.data))
        start = gcc_binary.ground_truth.entry_named("_start")
        assert start.address in result.functions


class TestGhidraLike:
    def test_good_recall_with_fdes(self, gcc_binary):
        conf = _conf(gcc_binary, GhidraLikeDetector())
        assert conf.recall > 0.95

    def test_recall_drops_without_fdes(self, clang32_binary):
        conf = _conf(clang32_binary, GhidraLikeDetector())
        assert conf.recall < 0.9  # the paper's x86 Clang weakness


class TestNaive:
    def test_matches_endbr_count(self, gcc_binary):
        result = NaiveEndbrDetector().detect(ELFFile(gcc_binary.data))
        from repro.core.funseeker import FunSeeker

        fs = FunSeeker.from_bytes(gcc_binary.data).identify()
        assert result.functions == fs.endbr_all

    def test_misses_endbrless_statics(self, gcc_binary):
        conf = _conf(gcc_binary, NaiveEndbrDetector())
        assert conf.recall < 0.95  # ~11% of functions lack endbr


class TestCrossToolOrderings:
    """The qualitative claims of Table III."""

    def test_funseeker_wins_overall(self, gcc_binary):
        confs = {name: _conf(gcc_binary, cls())
                 for name, cls in ALL_DETECTORS.items()}
        fs = confs["funseeker"]
        for name, conf in confs.items():
            if name == "funseeker":
                continue
            assert fs.f1 >= conf.f1 - 1e-9, name

    def test_registry_names_match(self):
        for name, cls in ALL_DETECTORS.items():
            assert cls().name == name

    def test_detect_bytes_equivalent(self, gcc_binary):
        det = FunSeekerDetector()
        a = det.detect_bytes(gcc_binary.data).functions
        b = det.detect(ELFFile(gcc_binary.data)).functions
        assert a == b


FOREIGN_ARCH = (Path(__file__).resolve().parents[1] / "ingest" / "corpus"
                / "foreign-arch.elf")


@pytest.mark.parametrize("name", sorted(ALL_DETECTORS))
def test_every_detector_refuses_a_foreign_architecture(name):
    """The image parses strictly but is not x86: no tool decodes it."""
    elf = ELFFile(FOREIGN_ARCH.read_bytes())
    with pytest.raises(ValueError, match="targets x86/x86-64"):
        ALL_DETECTORS[name]().detect(elf)
