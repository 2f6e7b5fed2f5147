"""Differential tests: FETCH's array programs against the scalar oracle.

The array path (:func:`repro.baselines.fetch_like.analyze`) must give
the oracle's ``found`` set, its per-start ``arg_usage`` map and its
work counters on every input: synthetic images over the compiler
matrix, the hostile ingest corpus, fuzz mutants, both index builders,
and hand-assembled regions for each edge case of the height worklist.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro import obs
from repro.baselines import FetchLikeDetector, FunSeekerDetector
from repro.baselines import fetch_like
from repro.elf.parser import ELFFile
from repro.fuzz.harness import default_base_images
from repro.fuzz.mutators import MUTATOR_FAMILIES, mutate
from repro.synth import CompilerProfile, generate_program, link_program
from tests.baselines import array_stack_effect
from tests.baselines import fetch_oracle as oracle
from tests.x86.scalar_oracle import scalar_pipeline

CORPUS = Path(__file__).resolve().parent.parent / "ingest" / "corpus"


def _array(data, base, bits, found, ranges):
    """The array path's ``(found, arg_usage, counters)``."""
    recorder = obs.set_recorder(obs.CounterRecorder())
    try:
        result = fetch_like.analyze(data, base, bits, found, ranges)
    finally:
        obs.set_recorder(None)
    counters = {k: recorder.counters.get(k, 0) for k in oracle.COUNTERS}
    return result.found, result.arg_usage, counters


def _assert_same(args) -> None:
    expected = oracle.analyze(*args)
    got = _array(*args)
    assert got[0] == expected[0], "found"
    assert got[1] == expected[1], "arg_usage"
    assert got[2] == expected[2], "counters"


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__


def _assert_same_image(data: bytes) -> bool:
    """Compare both paths on one image; False when it does not parse."""
    try:
        elf = ELFFile(data, strict=False)
    except Exception:
        return False
    args = _outcome(lambda: oracle.inputs(elf))
    if args is None or isinstance(args, str):
        return True
    expected = _outcome(lambda: oracle.analyze(*args))
    got = _outcome(lambda: _array(*args))
    assert got == expected
    return True


# -- synthetic images ------------------------------------------------------

_MATRIX = [
    (compiler, bits, pie, cxx)
    for compiler in ("gcc", "clang")
    for bits in (32, 64)
    for pie in (False, True)
    for cxx in (False, True)
]


@pytest.mark.parametrize("seed", [2022, 7])
@pytest.mark.parametrize("compiler,bits,pie,cxx", _MATRIX)
def test_synth_matrix(compiler, bits, pie, cxx, seed):
    opt = random.Random(f"{seed}:{compiler}:{bits}:{pie}:{cxx}").choice(
        ("O0", "O1", "O2", "O3", "Os"))
    profile = CompilerProfile(compiler, opt, bits, pie)
    spec = generate_program("fo", 24, profile, seed=seed, cxx=cxx)
    args = oracle.inputs(ELFFile(link_program(spec, profile).data))
    _assert_same(args)


def test_refinement_pass_finds_tail_targets():
    """An image whose tail-call analysis adds entries beyond the FDE
    starts, so the refinement passes carry weight."""
    profile = CompilerProfile("clang", "O2", 32, True)
    spec = generate_program("fo", 80, profile, seed=5, cxx=True)
    args = oracle.inputs(ELFFile(link_program(spec, profile).data))
    found, _usage, _counters = oracle.analyze(*args)
    assert found > args[3]
    _assert_same(args)


# -- hostile and mutated images --------------------------------------------

def test_ingest_corpus():
    parsed = [path.name for path in sorted(CORPUS.iterdir())
              if path.suffix in (".elf", ".bin")
              and _assert_same_image(path.read_bytes())]
    assert "healthy.elf" in parsed


@pytest.mark.parametrize("family", sorted(MUTATOR_FAMILIES))
def test_fuzz_mutants(family):
    for base, data in sorted(default_base_images().items()):
        for index in range(3):
            rng = random.Random(f"fetch-oracle:{family}:{base}:{index}")
            _assert_same_image(mutate(family, data, rng).data)


def test_scalar_index_builder():
    """The array path over an index built by the scalar oracle builder
    still matches the oracle."""
    profile = CompilerProfile("gcc", "O2", 64, True)
    spec = generate_program("fs", 10, profile, seed=5, cxx=True)
    args = oracle.inputs(ELFFile(link_program(spec, profile).data))
    expected = oracle.analyze(*args)
    with scalar_pipeline(sweep=False):
        got = _array(*args)
    assert got == expected


# -- hand-assembled regions ------------------------------------------------

_BASE = 0x1000
_TAIL = 0x60          # tail-call target: outside every FDE range
_OTHER = 0x40         # a second FDE region, so region A has a limit


def _assemble(items) -> bytes:
    """Tiny two-pass assembler: ``bytes``, ``"name:"`` labels,
    ``("je"|"jne", label)`` rel8 and ``("jmp", label_or_offset)`` rel32."""
    def size(item):
        if isinstance(item, bytes):
            return len(item)
        if isinstance(item, str):
            return 0
        return 5 if item[0] == "jmp" else 2

    labels, at = {}, 0
    for item in items:
        if isinstance(item, str):
            labels[item.rstrip(":")] = at
        at += size(item)
    out = bytearray()
    for item in items:
        if isinstance(item, bytes):
            out += item
        elif isinstance(item, tuple):
            op, to = item
            to = labels.get(to, to)
            rel = to - (len(out) + size(item))
            if op == "jmp":
                out += b"\xe9" + rel.to_bytes(4, "little", signed=True)
            else:
                out += bytes([0x74 if op == "je" else 0x75,
                              rel.to_bytes(1, "little", signed=True)[0]])
    return bytes(out)


PUSH, POP, NOP, RET, BAD = b"\x50", b"\x58", b"\x90", b"\xc3", b"\x06"

#: name -> (region A's code, whether the jump to _TAIL is a tail call).
REGIONS = {
    # Closed form: frame set up and torn down, no branches.
    "closed": ([b"\x55", b"\x48\x89\xe5", b"\x48\x83\xec\x18",
                b"\x48\x81\xc4\x18\x00\x00\x00", b"\x5d",
                ("jmp", _TAIL)], True),
    "closed-unbalanced": ([b"\x55", ("jmp", _TAIL)], False),
    # A join reached first at 0, then at -8: the larger magnitude wins.
    "join-zero-first": ([PUSH, ("je", "j"), POP, ("je", "j"), RET, NOP,
                         "j:", ("jmp", _TAIL)], False),
    "join-zero-last": ([("je", "j"), PUSH, ("je", "j"), POP, RET, NOP,
                        "j:", ("jmp", _TAIL)], False),
    # +8 and -8 tie: the first-seen height stays.
    "join-tie": ([POP, ("je", "j"), PUSH, PUSH, ("je", "j"), RET,
                  "j:", ("jmp", _TAIL)], False),
    # A merge rewrites the join only; what follows keeps its heights.
    "merge-no-rewalk": ([PUSH, ("je", "j"), POP, ("je", "j"), RET, NOP,
                         "j:", NOP, ("jmp", _TAIL)], True),
    # Back edge: the loop head is reached again at the same height.
    "back-edge": ([PUSH, "loop:", b"\xff\xc9", ("jne", "loop"), POP,
                   ("jmp", _TAIL)], True),
    # A decode failure mid-region is stepped over one byte at a time.
    "decode-gap": ([PUSH, BAD, BAD, POP, ("jmp", _TAIL)], True),
    # An entry that does not decode: nothing gets a height.
    "entry-undecodable": ([BAD, ("jmp", _TAIL)], False),
    # A later walk falls through into an earlier run at another height.
    "run-into-walked": ([("je", "x"), ("je", "y"), NOP, RET,
                         "x:", POP, NOP, "y:", ("jmp", _TAIL)], False),
    "run-into-walked-equal": ([("je", "x"), ("je", "y"), NOP, RET,
                               "x:", NOP, NOP, "y:", ("jmp", _TAIL)], True),
    # Argument registers read before written (rdi, rsi), then rdx
    # written before read.
    "cc-usage": ([b"\x48\x89\xf8", b"\x48\x01\xf0", b"\xba\x01\x00\x00\x00",
                  b"\x48\x01\xd0", ("jmp", _TAIL), RET], True),
}


def _image(code: bytes, base: int = _BASE) -> tuple:
    text = bytearray(b"\xcc" * 0x80)
    text[: len(code)] = code
    text[_OTHER] = 0xC3
    text[_TAIL : _TAIL + 3] = b"\x31\xc0\xc3"        # xor eax, eax; ret
    found = {base, base + _OTHER}
    ranges = [(base, base + len(code)),
              (base + _OTHER, base + _OTHER + 1)]
    return bytes(text), base, 64, found, ranges


@pytest.mark.parametrize("base", [_BASE, 0xFFFF_FFFF_8100_0000])
@pytest.mark.parametrize("name", sorted(REGIONS))
def test_hand_assembled(name, base):
    """Every edge case, also at a kernel-space base past ``int64``."""
    items, tail_call = REGIONS[name]
    args = _image(_assemble(items), base)
    _assert_same(args)
    found = _array(*args)[0]
    assert (base + _TAIL in found) == tail_call


def test_hand_assembled_arg_usage():
    args = _image(_assemble(REGIONS["cc-usage"][0]))
    usage = _array(*args)[1]
    assert usage[_BASE] == frozenset({7, 6})


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_replay_heights(name):
    """Run-granular replay assigns every instruction the oracle's
    height, including merged joins the entry set cannot show."""
    data, base, bits, _found, _ranges = _image(_assemble(REGIONS[name][0]))
    view = oracle._IndexView(oracle.get_index(data, bits, base))
    insns = oracle._decode_region(data, base, bits, base, base + _OTHER,
                                  view)
    expected = oracle._propagate_heights(insns, base, bits, data, base,
                                         dict.fromkeys(oracle.COUNTERS, 0))
    order = sorted(insns)
    if not order or order[0] != base:
        assert expected == {}
        return
    position = {addr: i for i, addr in enumerate(order)}
    cum = [0]
    for addr in order:
        off = addr - base
        cum.append(cum[-1] + oracle.stack_effect(
            data[off : off + insns[addr][0]], bits))
    terms = [i for i, a in enumerate(order)
             if insns[a][1] in oracle._TERMINATORS] + [len(order)]
    jcc = [i for i, a in enumerate(order)
           if insns[a][1] == oracle._JCC and insns[a][2] in insns]
    runs = fetch_like._replay(cum, terms, jcc,
                              [position[insns[order[i]][2]] for i in jcc])
    got = {addr: runs.height(i) for i, addr in enumerate(order)}
    assert {a: h for a, h in got.items() if h is not None} == expected


# -- stack effects ---------------------------------------------------------

@pytest.mark.parametrize("raw", [
    b"\x48\x81\xec\x00\x00\x00\x80",   # sub rsp, imm32 read unsigned
    b"\x48\x83\xec\x80",               # sub rsp, -128
    b"\x41",                           # a lone REX byte
    b"\x48\x81\xc4\x10\x00",           # imm32 cut by the length
    b"\x66\x83\xec\x10",               # operand-size prefix: not modelled
    b"\x83\xe4\xf0",                   # and esp: neither add nor sub
])
@pytest.mark.parametrize("bits", [32, 64])
def test_stack_effect_matches_oracle(raw, bits):
    assert array_stack_effect(raw, bits) == oracle.stack_effect(raw, bits)


# -- cost claim and stage spans ---------------------------------------------

#: FETCH's instruction visits per FunSeeker sweep instruction on the
#: sample image (gcc -O2, x86-64, PIE, C++, 80 functions, seed 42), as
#: the oracle counts them: region decode + heights + calling-convention
#: scan = 12336 / 4733 = 2.61x ``sweep.insns``. An optimisation that
#: skips any of FETCH's modelled work drops below it.
COST_MULTIPLE = 2.6

#: The part of those visits the array path itself advances (the height
#: counters are derived by block reachability, not walked): region
#: decode + calling-convention scan = 8613 / 4733 = 1.82x.
EXECUTED_MULTIPLE = 1.8


def test_cost_claim_in_work_counters(sample_binary):
    recorder = obs.set_recorder(obs.CounterRecorder())
    try:
        FunSeekerDetector().detect(ELFFile(sample_binary.data))
    finally:
        obs.set_recorder(None)
    sweep = recorder.counters["sweep.insns"]
    args = oracle.inputs(ELFFile(sample_binary.data))
    counters = _array(*args)[2]
    assert counters == oracle.analyze(*args)[2]
    executed = counters["fetch.region_insns"] + counters["fetch.cc_insns"]
    assert executed >= EXECUTED_MULTIPLE * sweep
    assert executed + counters["fetch.height_insns"] >= COST_MULTIPLE * sweep


def test_stage_spans_per_image(sample_binary):
    recorder = obs.set_recorder(obs.TraceRecorder())
    try:
        FetchLikeDetector().detect(ELFFile(sample_binary.data))
    finally:
        obs.set_recorder(None)
    names = [span.name for span in recorder.spans]
    detect = next(s for s in recorder.spans if s.name == "detect")
    stages = [s for s in recorder.spans if s.name.startswith("fetch.")]
    assert {s.parent for s in stages} == {detect.id}
    assert names.count("fetch.cc_scan") == 1
    passes = names.count("fetch.tail_calls")
    assert 1 <= passes <= FetchLikeDetector.passes
    assert names.count("fetch.chains") == passes
