"""Tests for the library-clean single-image analysis callable."""

from __future__ import annotations

import pytest

from repro.baselines import ALL_DETECTORS
from repro.cache import DiskCache
from repro.elf.parser import ELFFile
from repro.eval.analyze import (
    CACHE_DISABLED,
    CACHE_HIT,
    CACHE_MISS,
    analyze_image,
    content_digest,
    warm_lookup,
    analyze_image as _analyze,  # noqa: F401 — re-export sanity
)
from repro.eval.isolation import PHASE_PARSE

TOOLS = ["funseeker", "fetch"]


def test_analysis_matches_direct_detection(sample_binary):
    analysis = analyze_image(sample_binary.data, TOOLS)
    assert analysis.ok
    assert analysis.sha256 == content_digest(sample_binary.data)
    assert not analysis.warm
    elf = ELFFile(sample_binary.data)
    for name in TOOLS:
        expected = tuple(sorted(
            ALL_DETECTORS[name]().detect(elf).functions))
        assert analysis.tools[name].functions == expected
        assert analysis.tools[name].cache == CACHE_DISABLED


def test_cold_then_warm_cache_attribution(tmp_path, sample_binary):
    cache = DiskCache(tmp_path)
    cold = analyze_image(sample_binary.data, TOOLS, cache=cache)
    assert all(r.cache == CACHE_MISS for r in cold.tools.values())
    warm = analyze_image(sample_binary.data, TOOLS, cache=cache)
    assert warm.warm, "second analysis is served entirely from disk"
    assert all(r.cache == CACHE_HIT for r in warm.tools.values())
    for name in TOOLS:
        assert warm.tools[name].functions == cold.tools[name].functions


def test_warm_lookup_requires_every_artifact(tmp_path, sample_binary):
    cache = DiskCache(tmp_path)
    sha = content_digest(sample_binary.data)
    assert warm_lookup(sha, len(sample_binary.data), TOOLS, cache) is None
    analyze_image(sample_binary.data, ["funseeker"], cache=cache)
    # One tool cached, the other not: still no warm answer.
    assert warm_lookup(sha, len(sample_binary.data), TOOLS, cache) is None
    analyze_image(sample_binary.data, TOOLS, cache=cache)
    served = warm_lookup(sha, len(sample_binary.data), TOOLS, cache)
    assert served is not None and served.warm


def test_uncacheable_tool_blocks_warm_path(tmp_path, sample_binary,
                                           monkeypatch):
    monkeypatch.setattr(ALL_DETECTORS["fetch"], "cacheable", False)
    cache = DiskCache(tmp_path)
    first = analyze_image(sample_binary.data, TOOLS, cache=cache)
    assert first.tools["fetch"].cache == "uncacheable"
    second = analyze_image(sample_binary.data, TOOLS, cache=cache)
    assert not second.warm
    assert second.tools["funseeker"].cache == CACHE_HIT
    assert second.tools["fetch"].cache == "uncacheable"


def test_parse_failure_lands_on_every_report():
    analysis = analyze_image(b"certainly not an ELF image", TOOLS)
    assert not analysis.ok
    for name in TOOLS:
        report = analysis.tools[name]
        assert report.functions is None
        assert report.phase == PHASE_PARSE
        assert report.error_type


def test_unknown_tool_is_a_value_error():
    with pytest.raises(ValueError, match="unknown tools"):
        analyze_image(b"x", ["nonexistent"])


def test_doc_roundtrip(sample_binary):
    analysis = analyze_image(sample_binary.data, TOOLS)
    from repro.eval.analyze import ImageAnalysis

    restored = ImageAnalysis.from_doc(analysis.to_doc())
    assert restored.sha256 == analysis.sha256
    for name in TOOLS:
        assert restored.tools[name].functions == \
            analysis.tools[name].functions
