"""Differential tests: IDA-like and Ghidra-like against the scalar oracle.

The detectors read the shared decode index and the shared prologue
artifact; the oracle (``pre_cet_oracle``) decodes one instruction at a
time and scans one window at a time. Both must give the same entry
sets and the same work counters on every input: synthetic images over
the compiler matrix, the hostile ingest corpus, fuzz mutants, both
index builders, and hand-built buffers for each edge of the prologue
word compare.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.baselines import GhidraLikeDetector, IdaLikeDetector
from repro.baselines import base
from repro.cache.context import get_context
from repro.elf.parser import ELFFile
from repro.fuzz.harness import default_base_images
from repro.fuzz.mutators import MUTATOR_FAMILIES, mutate
from repro.synth import CompilerProfile, generate_program, link_program
from tests.baselines import pre_cet_oracle as oracle
from tests.x86.scalar_oracle import scalar_pipeline

CORPUS = Path(__file__).resolve().parent.parent / "ingest" / "corpus"

DETECTORS = {"ida": (IdaLikeDetector, oracle.ida),
             "ghidra": (GhidraLikeDetector, oracle.ghidra)}


def _detected(data: bytes, detector) -> tuple[set[int], dict[str, int]]:
    """One detector's entry set and work counters on a fresh parse (the
    prologue artifact is computed, and counted, once per parse)."""
    elf = ELFFile(data, strict=False)
    recorder = obs.set_recorder(obs.CounterRecorder())
    try:
        found = detector()._detect(elf)
    finally:
        obs.set_recorder(None)
    return found, {k: recorder.counters.get(k, 0) for k in oracle.COUNTERS}


def _expected(data: bytes, compose):
    result = compose(ELFFile(data, strict=False))
    return (set(), dict.fromkeys(oracle.COUNTERS, 0)) if result is None \
        else result


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__


def _assert_same(data: bytes) -> None:
    elf = ELFFile(data, strict=False)
    txt = base.text_section(elf)
    if txt is not None and txt.data:
        bits = 64 if elf.is64 else 32
        assert get_context(elf).prologue_hits() == oracle.prologue_scan(
            txt.data, txt.sh_addr, bits)
    assert get_context(elf).fde_starts()[0] == oracle.strict_fde_starts(elf)
    for detector, compose in DETECTORS.values():
        got = _outcome(lambda: _detected(data, detector))
        expected = _outcome(lambda: _expected(data, compose))
        assert got == expected, detector.name


def _assert_same_image(data: bytes) -> bool:
    """Compare both paths on one image; False when it does not parse."""
    try:
        ELFFile(data, strict=False)
    except Exception:
        return False
    _assert_same(data)
    return True


# -- synthetic images ------------------------------------------------------

_MATRIX = [
    (compiler, bits, pie, cxx)
    for compiler in ("gcc", "clang")
    for bits in (32, 64)
    for pie in (False, True)
    for cxx in (False, True)
]


def _synth(compiler, bits, pie, cxx, seed, functions=24) -> bytes:
    opt = random.Random(f"{seed}:{compiler}:{bits}:{pie}:{cxx}").choice(
        ("O0", "O1", "O2", "O3", "Os"))
    profile = CompilerProfile(compiler, opt, bits, pie)
    spec = generate_program("pc", functions, profile, seed=seed, cxx=cxx)
    return link_program(spec, profile).data


@pytest.mark.parametrize("seed", [2022, 7])
@pytest.mark.parametrize("compiler,bits,pie,cxx", _MATRIX)
def test_synth_matrix(compiler, bits, pie, cxx, seed):
    _assert_same(_synth(compiler, bits, pie, cxx, seed))


def test_counters_do_work(sample_binary):
    """Every counter moves on a real image, so equal counters mean
    equal work rather than two zeros."""
    for detector, _compose in DETECTORS.values():
        counters = _detected(sample_binary.data, detector)[1]
        assert counters["prologue.windows"] > counters["prologue.hits"] > 0
        assert counters["traversal.insns"] > counters["traversal.entries"] > 0
    assert _detected(sample_binary.data,
                     IdaLikeDetector)[1]["ida.xref_candidates"] > 0


# -- hostile and mutated images --------------------------------------------

def test_ingest_corpus():
    parsed = [path.name for path in sorted(CORPUS.iterdir())
              if path.suffix in (".elf", ".bin")
              and _assert_same_image(path.read_bytes())]
    assert "healthy.elf" in parsed


@pytest.mark.parametrize("family", sorted(MUTATOR_FAMILIES))
def test_fuzz_mutants(family):
    for name, data in sorted(default_base_images().items()):
        for index in range(3):
            rng = random.Random(f"pre-cet-oracle:{family}:{name}:{index}")
            _assert_same_image(mutate(family, data, rng).data)


def test_scalar_index_builder():
    """The detectors over an index built by the scalar oracle builder
    still match the oracle."""
    data = _synth("gcc", 64, True, True, 5, functions=10)
    with scalar_pipeline(sweep=False):
        _assert_same(data)


# -- the prologue word compare ---------------------------------------------

ENDBR64 = b"\xf3\x0f\x1e\xfa"
ENDBR32 = b"\xf3\x0f\x1e\xfb"
KERNEL = 0xFFFF_FFFF_8100_0000


def _buffer(size: int, placed: dict[int, bytes]) -> bytes:
    out = bytearray(b"\x90" * size)
    for at, raw in placed.items():
        out[at : at + len(raw)] = raw
    return bytes(out)


#: name -> (bits, buffer, offsets the scan must report).
BUFFERS = {
    "not-whole-windows": (64, _buffer(40, {
        0: b"\x55\x48\x89\xe5", 16: ENDBR64 + b"\x48\x83\xec",
        32: b"\x53\x48\x83\xec"}), {0, 16, 32}),
    "signature-cut-at-end": (64, _buffer(19, {16: b"\x55\x48\x89"}),
                             set()),
    "short-signature-at-end": (64, _buffer(19, {16: b"\x48\x83\xec"}),
                               {16}),
    "short-signature-cut-at-end": (64, _buffer(18, {16: b"\x48\x83"}),
                                   set()),
    "32-bit-sub-cut-at-end": (32, _buffer(17, {16: b"\x83"}), set()),
    "endbr-sub-cut-at-end": (32, _buffer(21, {16: ENDBR32 + b"\x83"}),
                             set()),
    "endbr-signature-cut-at-end": (64, _buffer(22, {16: ENDBR64 + b"\x55\x48"}),
                                   set()),
    "endbr-at-end": (64, _buffer(20, {16: ENDBR64}), set()),
    "endbr-then-padding": (64, _buffer(24, {16: ENDBR64}), set()),
    "not-an-endbr": (64, _buffer(16, {0: b"\xf3\x0f\x1e\xf9\x55\x48\x89\xe5"}),
                     set()),
    "signature-not-aligned": (64, _buffer(32, {4: b"\x55\x48\x89\xe5",
                                               17: b"\x48\x83\xec"}), set()),
    "endbr32-sub-esp": (32, _buffer(32, {0: ENDBR32 + b"\x83\xec\x10",
                                         16: ENDBR64 + b"\x83\xec\x10"}),
                        {0, 16}),
    "32-bit-signatures": (32, _buffer(48, {0: b"\x55\x89\xe5",
                                           16: b"\x53\x83\xec",
                                           32: b"\x55\x48\x89\xe5"}),
                          {0, 16}),
    "64-bit-ignores-32-bit": (64, _buffer(16, {0: b"\x55\x89\xe5"}), set()),
}


@pytest.mark.parametrize("start", [0x1000, KERNEL])
@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_prologue_buffers(name, start):
    """Each edge of the word compare, also at a kernel-space base past
    ``int64``."""
    bits, data, offsets = BUFFERS[name]
    counters = dict.fromkeys(oracle.COUNTERS, 0)
    expected = oracle.prologue_scan(data, start, bits, counters=counters)
    assert expected == {start + off for off in offsets}
    recorder = obs.set_recorder(obs.CounterRecorder())
    try:
        got = base.prologue_hits(data, start, bits)
    finally:
        obs.set_recorder(None)
    assert got == expected
    for name in ("prologue.windows", "prologue.hits"):
        assert recorder.counters.get(name, 0) == counters[name]


def test_padding_cannot_match():
    """``prologue_hits`` zero-pads ``.text`` to whole windows, which is
    sound only while no signature byte and no end-branch byte is 0."""
    for sig in base._PROLOGUE_SIGS_64 + base._PROLOGUE_SIGS_32:
        assert 0 not in sig
    assert 0 not in ENDBR64 and 0 not in ENDBR32
    assert (int.from_bytes(ENDBR64, "little") & base._ENDBR_MASK
            == int.from_bytes(ENDBR32, "little") & base._ENDBR_MASK
            == base._ENDBR_WORD)


def test_prologue_scan_finds_frame_setups():
    code = bytearray(48)
    code[0:4] = b"\x55\x48\x89\xe5"         # push rbp; mov rbp,rsp
    code[16:24] = ENDBR64 + b"\x55\x48\x89\xe5"  # endbr + push
    found = oracle.prologue_scan(bytes(code), 0x1000, 64)
    assert found == {0x1000, 0x1010}
    assert base.prologue_hits(bytes(code), 0x1000, 64) == found


def test_prologue_scan_respects_skip():
    code = b"\x55\x48\x89\xe5" + b"\x90" * 12
    found = oracle.prologue_scan(code, 0x1000, 64, skip={0x1000})
    assert 0x1000 not in found


def test_union_does_not_depend_on_skip():
    """``found | scan(skip=found) == found | scan()``: the detectors
    dropped ``skip`` and union with the one unskipped artifact."""
    data = _synth("gcc", 64, False, False, 2022)
    elf = ELFFile(data)
    txt = base.text_section(elf)
    hits = oracle.prologue_scan(txt.data, txt.sh_addr, 64)
    assert hits
    rng = random.Random("skip")
    for found in (set(), hits, set(rng.sample(sorted(hits), len(hits) // 2)),
                  {txt.sh_addr + 3, txt.sh_addr}):
        skipped = oracle.prologue_scan(txt.data, txt.sh_addr, 64,
                                       skip=found)
        assert found | skipped == found | hits


# -- the shared straight-line prefix ---------------------------------------

def test_straight_line_prefix_matches_plausible_entry(sample_binary):
    """IDA's batched xref check equals the oracle's per-target decode
    at every offset of a real ``.text``."""
    elf = ELFFile(sample_binary.data)
    txt = base.text_section(elf)
    index = get_context(elf).index()
    offs = np.arange(len(txt.data), dtype=np.int64)
    got = base.straight_line_prefix(
        np.frombuffer(index.lengths, dtype=np.uint8),
        np.frombuffer(index.klasses, dtype=np.uint8), offs, 4)
    expected = [oracle.plausible_entry(txt.data, off, 64)
                for off in range(len(txt.data))]
    assert got.tolist() == expected


# -- stage spans -----------------------------------------------------------

def test_stage_spans_per_image(sample_binary):
    recorder = obs.set_recorder(obs.TraceRecorder())
    try:
        elf = ELFFile(sample_binary.data)
        IdaLikeDetector().detect(elf)
        GhidraLikeDetector().detect(elf)
    finally:
        obs.set_recorder(None)
    names = [span.name for span in recorder.spans]
    detects = {(s.attrs or {}).get("tool"): s.id for s in recorder.spans
               if s.name == "detect"}
    assert names.count("prologue") == 1
    assert names.count("traversal") == 2
    assert names.count("ida.xrefs") == 1
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["ida.xrefs"].parent == detects["ida"]
    assert by_name["prologue"].parent == detects["ida"]
