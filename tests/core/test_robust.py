"""Tests for the data-tolerant FunSeeker variant (§VI future work)."""

import random

import pytest

from repro.core.funseeker import Config, FunSeeker
from repro.core.robust import RobustFunSeeker
from repro.eval.metrics import score
from repro.synth import CompilerProfile, generate_program, link_program


def _binary_with_inline_data(seed: int, blobs: int = 10):
    profile = CompilerProfile("gcc", "O2", 64, True)
    spec = generate_program("rob", 70, profile, seed=seed, cxx=False)
    rng = random.Random(seed)
    live = [f for f in spec.functions
            if not f.is_dead and not f.is_thunk]
    for fn in rng.sample(live, min(blobs, len(live))):
        fn.inline_data = rng.randrange(24, 80)
    return link_program(spec, profile)


class TestRobustFunSeeker:
    @pytest.mark.parametrize("config", list(Config), ids=lambda c: c.name)
    def test_agrees_with_plain_on_clean_binaries(self, sample_binary,
                                                 config):
        plain = FunSeeker.from_bytes(sample_binary.data, config).identify()
        robust = RobustFunSeeker.from_bytes(sample_binary.data,
                                            config).identify()
        assert robust.functions == plain.functions
        assert robust.endbr_filtered == plain.endbr_filtered
        assert robust.tail_call_targets == plain.tail_call_targets
        assert robust.cet_enabled == plain.cet_enabled

    def test_plain_poisoned_by_inline_data(self):
        binary = _binary_with_inline_data(seed=3)
        gt = binary.ground_truth.function_starts
        conf = score(gt, FunSeeker.from_bytes(binary.data)
                     .identify().functions)
        assert conf.precision < 0.9, \
            "inline data must hurt plain linear sweep"

    def test_robust_recovers_precision(self):
        binary = _binary_with_inline_data(seed=3)
        gt = binary.ground_truth.function_starts
        conf = score(gt, RobustFunSeeker.from_bytes(binary.data)
                     .identify().functions)
        assert conf.precision > 0.95
        assert conf.recall > 0.95

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_robust_beats_plain_under_data(self, seed):
        binary = _binary_with_inline_data(seed=seed)
        gt = binary.ground_truth.function_starts
        plain = score(gt, FunSeeker.from_bytes(binary.data)
                      .identify().functions)
        robust = score(gt, RobustFunSeeker.from_bytes(binary.data)
                       .identify().functions)
        assert robust.precision > plain.precision
        assert robust.recall >= plain.recall - 0.03
