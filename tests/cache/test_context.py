"""Tests for the in-memory per-binary analysis context."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.baselines import (
    ALL_DETECTORS,
    FetchLikeDetector,
    FunSeekerDetector,
)
from repro.baselines.base import fde_starts
from repro.cache import SCHEMA_TAG, get_context
from repro.cache import context as context_module
from repro.core.funseeker import FunSeeker
from repro.elf import constants as C
from repro.elf.ehframe import EhFrameError, parse_eh_frame
from repro.elf.lsda import landing_pads_from_exception_info
from repro.elf.parser import ELFFile
from repro.fuzz.mutators import mutate


class TestIdentityAndMemoization:
    def test_context_is_singleton_per_elf(self, sample_elf):
        assert get_context(sample_elf) is get_context(sample_elf)

    def test_distinct_elfs_distinct_contexts(self, sample_binary):
        a = ELFFile(sample_binary.data)
        b = ELFFile(sample_binary.data)
        assert get_context(a) is not get_context(b)

    def test_content_hash(self, sample_elf):
        expected = hashlib.sha256(sample_elf.data).hexdigest()
        assert get_context(sample_elf).content_hash == expected

    def test_sweep_memoized(self, sample_binary):
        ctx = get_context(ELFFile(sample_binary.data))
        assert ctx.sweep() is ctx.sweep()

    def test_artifacts_memoized(self, sample_binary):
        ctx = get_context(ELFFile(sample_binary.data))
        assert ctx.fde_starts() is ctx.fde_starts()
        assert ctx.landing_pads() is ctx.landing_pads()
        assert ctx.plt_map() is ctx.plt_map()
        assert ctx.cet_features() is ctx.cet_features()
        assert ctx.prologue_hits() is ctx.prologue_hits()

    def test_no_text_section(self):
        # Minimal degraded image: no sections at all.
        elf = ELFFile.degraded(b"\x7fELF" + b"\x00" * 60)
        ctx = get_context(elf)
        assert ctx.sweep() is None
        assert ctx.robust_sweep_result() is None


class TestSharedAcrossConsumers:
    def test_funseeker_uses_context_sweep(self, sample_binary):
        elf = ELFFile(sample_binary.data)
        ctx = get_context(elf)
        result = FunSeeker(elf).identify()
        # The detector's view and the context's are the same object's
        # products: endbr addresses agree exactly.
        assert result.endbr_all == ctx.sweep().endbr_addrs

    def test_fde_helper_is_context_backed(self, sample_binary):
        elf = ELFFile(sample_binary.data)
        starts, ranges = fde_starts(elf)
        assert (starts, ranges) == get_context(elf).fde_starts()
        assert fde_starts(elf)[0] is starts

    def test_detector_results_not_memoized_in_memory(self, sample_binary):
        # Each detect() must really run (Table III timing depends on
        # it) — but outputs stay equal run over run.
        elf = ELFFile(sample_binary.data)
        det = FetchLikeDetector()
        first = det.detect(elf).functions
        second = det.detect(elf).functions
        assert first == second
        assert first is not second

    @pytest.mark.parametrize("first", [FunSeekerDetector, FetchLikeDetector])
    def test_shared_artifacts_not_charged_to_first_tool(self, sample_binary,
                                                        first):
        # Whichever tool runs first builds the index and the artifacts
        # the others reuse; its own time leaves that work out.
        elf = ELFFile(sample_binary.data)
        ctx = get_context(elf)
        result = first().detect(elf)
        assert result.shared_seconds == ctx.shared_seconds > 0
        assert 0 <= result.own_seconds < result.elapsed_seconds
        again = first().detect(elf)
        assert again.shared_seconds == 0
        assert again.own_seconds == again.elapsed_seconds


class TestStrictFdeSemantics:
    """The baselines' contract: a malformed .eh_frame yields empty FDE
    results (no partial degraded parse, no diagnostics)."""

    @staticmethod
    def _reference(elf: ELFFile):
        sec = elf.section(C.SECTION_EH_FRAME)
        if sec is None or not sec.data:
            return set(), []
        try:
            eh = parse_eh_frame(sec.data, sec.sh_addr, elf.is64)
        except EhFrameError:
            return set(), []
        return ({f.pc_begin for f in eh.fdes},
                [(f.pc_begin, f.pc_end) for f in eh.fdes])

    def test_matches_reference_on_clean_input(self, sample_binary):
        elf = ELFFile(sample_binary.data)
        assert get_context(elf).fde_starts() == self._reference(elf)

    def test_matches_reference_on_scrambled_ehframe(self, sample_binary):
        rng = random.Random(7)
        for _ in range(10):
            mutant = mutate("ehframe", sample_binary.data, rng)
            elf = ELFFile.degraded(mutant.data)
            before = len(elf.diagnostics)
            got = get_context(elf).fde_starts()
            assert got == self._reference(elf)
            # Strict semantics: the FDE path records nothing.
            assert len(elf.diagnostics) == before


class TestOneEhFrameParse:
    """Both parse modes read one degraded parse per image."""

    def test_parsed_once_per_image(self, sample_binary, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return parse_eh_frame(*args, **kwargs)

        monkeypatch.setattr(context_module, "parse_eh_frame", counting)
        elf = ELFFile(sample_binary.data)
        assert elf.section(C.SECTION_GCC_EXCEPT_TABLE) is not None
        for detector in ALL_DETECTORS.values():
            detector()._detect(elf)
        assert len(calls) == 1
        # Both readers have it, so the parse is not held any longer.
        assert "eh_frame" not in get_context(elf)._memo

    @staticmethod
    def _two_parses(data: bytes):
        """Landing pads and diagnostics as two separate parses gave
        them: the degraded parse recording straight onto the file."""
        elf = ELFFile.degraded(data)
        eh_sec = elf.section(C.SECTION_EH_FRAME)
        except_sec = elf.section(C.SECTION_GCC_EXCEPT_TABLE)
        eh = parse_eh_frame(eh_sec.data, eh_sec.sh_addr, elf.is64,
                            diagnostics=elf.diagnostics)
        pads = landing_pads_from_exception_info(
            eh, except_sec.data, except_sec.sh_addr, elf.is64,
            diagnostics=elf.diagnostics)
        return pads, elf.diagnostics.records

    @pytest.mark.parametrize("fde_first", [False, True])
    def test_diagnostics_unchanged(self, sample_binary, fde_first):
        rng = random.Random(19)
        diagnosed = 0
        for _ in range(12):
            data = mutate("ehframe", sample_binary.data, rng).data
            elf = ELFFile.degraded(data)
            if elf.section(C.SECTION_EH_FRAME) is None \
                    or elf.section(C.SECTION_GCC_EXCEPT_TABLE) is None:
                continue
            ctx = get_context(elf)
            if fde_first:
                ctx.fde_starts()
            pads = ctx.landing_pads()
            expected_pads, expected = self._two_parses(data)
            assert pads == expected_pads
            assert elf.diagnostics.records == expected
            diagnosed += bool(expected)
        assert diagnosed, "no mutant produced eh_frame diagnostics"


class TestDiagnosticsDiscipline:
    def test_landing_pads_record_once(self, sample_binary):
        rng = random.Random(11)
        for _ in range(10):
            mutant = mutate("lsda", sample_binary.data, rng)
            elf = ELFFile.degraded(mutant.data)
            ctx = get_context(elf)
            first = ctx.landing_pads()
            count = len(elf.diagnostics)
            # Memoized: a second consumer adds no duplicate records.
            assert ctx.landing_pads() == first
            assert len(elf.diagnostics) == count

    def test_identify_twice_no_duplicate_diagnostics(self, sample_binary):
        rng = random.Random(13)
        mutant = mutate("lsda", sample_binary.data, rng)
        elf = ELFFile.degraded(mutant.data)
        first = FunSeeker(elf, strict=False).identify()
        count = len(elf.diagnostics)
        second = FunSeeker(elf, strict=False).identify()
        assert second.functions == first.functions
        assert len(elf.diagnostics) == count


class TestDiskGuard:
    """Only diagnostic-free computations may be stored on disk."""

    def test_clean_artifacts_stored(self, sample_binary, installed_cache):
        elf = ELFFile(sample_binary.data)
        get_context(elf).sweep()
        assert installed_cache.stats.stores >= 1
        entry = (installed_cache.root / SCHEMA_TAG /
                 f"{get_context(elf).content_hash}.sweep.json")
        assert entry.is_file()

    def test_diagnosed_artifacts_not_stored(self, sample_binary,
                                            installed_cache):
        rng = random.Random(17)
        stored_with_diags = []
        for _ in range(20):
            mutant = mutate("lsda", sample_binary.data, rng)
            elf = ELFFile.degraded(mutant.data)
            ctx = get_context(elf)
            before = len(elf.diagnostics)
            ctx.landing_pads()
            if len(elf.diagnostics) > before:
                entry = (installed_cache.root / SCHEMA_TAG /
                         f"{ctx.content_hash}.landing_pads.json")
                stored_with_diags.append(entry.exists())
        # At least some mutants must have produced diagnostics for the
        # guard to be exercised at all.
        assert stored_with_diags, "no mutant produced LSDA diagnostics"
        assert not any(stored_with_diags)

    def test_disk_hit_round_trips_sweep(self, sample_binary,
                                        installed_cache):
        cold = ELFFile(sample_binary.data)
        cold_sweep = get_context(cold).sweep()
        warm = ELFFile(sample_binary.data)
        warm_sweep = get_context(warm).sweep()
        assert installed_cache.stats.hits >= 1
        assert warm_sweep.endbr_addrs == cold_sweep.endbr_addrs
        assert warm_sweep.call_targets == cold_sweep.call_targets
        assert warm_sweep.endbr_predecessor == cold_sweep.endbr_predecessor
        assert warm_sweep.insn_count == cold_sweep.insn_count

    def test_corrupt_disk_entry_recomputes(self, sample_binary,
                                           installed_cache):
        elf = ELFFile(sample_binary.data)
        ctx = get_context(elf)
        expected = FunSeekerDetector().detect(elf).functions
        entry = (installed_cache.root / SCHEMA_TAG /
                 f"{ctx.content_hash}.tool.funseeker.json")
        assert entry.is_file()
        entry.write_text('{"addrs": "not-a-list"}')
        again = FunSeekerDetector().detect(ELFFile(sample_binary.data))
        assert again.functions == expected
