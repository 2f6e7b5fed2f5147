"""Vectorized per-offset x86 decode (the superset/linear-sweep hot path).

The scalar decoder (:func:`repro.x86.decoder.decode_raw`) costs a few
microseconds per call in pure Python; decoding *every* offset of a
multi-megabyte corpus that way dominates the pipeline's wall clock.
This module re-expresses the same table-driven decode as a batched
NumPy pass: every offset's prefix, opcode, ModRM/SIB/displacement and
immediate layout is classified through the exact 256-entry dispatch
tables in :mod:`repro.x86.opcodes`, in a constant number of
whole-buffer array operations, and only the small "interesting"
subset (endbr/call/jmp/ret/prologue-shaped immediates) is ever touched
per-element.

Bit-identity with the scalar decoder is the contract (the differential
property tests in ``tests/x86/test_vector_differential.py`` enforce
it). It is kept by construction: every encoding shape the array pass
does not model *exactly* — VEX/EVEX escapes, more than one legacy
prefix (the F3/F2 ``rep`` flag is order-dependent), 16-bit addressing
in 32-bit mode — is flagged into a fallback mask and re-decoded through
``decode_raw`` itself. Those shapes are rare at real *and* garbage
offsets, so the fallback stays a small fraction of the buffer.

The pass is opt-out: set ``REPRO_NO_VECTOR`` (or call
:func:`set_enabled`) to force every consumer back onto the scalar
sweep — that switch is what the differential tests and the
``vectorized`` benchmark trajectory compare against.
"""

from __future__ import annotations

import os

import numpy as _np

from repro.x86 import opcodes as OP
from repro.x86.decoder import DecodeError, decode_raw
from repro.x86.insn import TERMINATOR_CLASSES

#: Environment kill switch: any non-empty value disables the pass.
ENV_DISABLE = "REPRO_NO_VECTOR"

#: Test override installed by :func:`set_enabled` (None = env decides).
_FORCED: bool | None = None


def set_enabled(flag: bool | None) -> None:
    """Force the vector pass on/off (``None`` restores env control)."""
    global _FORCED
    _FORCED = flag


def available() -> bool:
    """Whether consumers should take the vectorized decode path."""
    if _FORCED is not None:
        return _FORCED
    return not os.environ.get(ENV_DISABLE)


# ---------------------------------------------------------------------------
# derived lookup tables (built once at import; a few hundred bytes)
# ---------------------------------------------------------------------------


def _build_imm_lut(is64: bool) -> "object":
    """Immediate size by ``immk<<3 | opsize16 | rexw<<1 | addrsize<<2``.

    Mirrors the scalar ``_imm_size`` exactly, except GRP3 (needs
    ModRM.reg and the F6/F7 distinction) which stays 0 here and is
    patched per-offset.
    """
    lut = _np.zeros(16 << 3, dtype=_np.uint8)
    for immk in range(11):
        for flags in range(8):
            opsize16 = bool(flags & 1)
            rexw = bool(flags & 2)
            addrsize = bool(flags & 4)
            opsize = 64 if rexw else (16 if opsize16 else 32)
            if immk in (OP.IMM_IB, OP.IMM_REL8):
                size = 1
            elif immk == OP.IMM_IW:
                size = 2
            elif immk in (OP.IMM_IZ, OP.IMM_RELZ):
                size = 2 if opsize == 16 else 4
            elif immk == OP.IMM_IV:
                size = {16: 2, 32: 4, 64: 8}[opsize]
            elif immk == OP.IMM_AP:
                size = 4 if opsize == 16 else 6
            elif immk == OP.IMM_MOFFS:
                if is64:
                    size = 4 if addrsize else 8
                else:
                    size = 2 if addrsize else 4
            elif immk == OP.IMM_ENTER:
                size = 3
            else:  # NONE, GRP3
                size = 0
            lut[(immk << 3) | flags] = size
    return lut


def _build_modrm_lut() -> "object":
    """Packed per-ModRM-byte operand layout.

    Low nibble: displacement bytes plus one for a SIB byte (the
    unconditional part); bit 4: "SIB with mod==0" — those add 4 more
    displacement bytes when SIB.base is 5.
    """
    lut = _np.zeros(256, dtype=_np.uint8)
    for modrm in range(0xC0):  # register-direct forms contribute 0
        mod, rm = modrm >> 6, modrm & 7
        extra = 1 if rm == 4 else 0
        if mod == 1:
            extra += 1
        elif mod == 2:
            extra += 4
        elif rm == 5:  # mod == 0
            extra += 4
        lut[modrm] = extra
        if rm == 4 and mod == 0:
            lut[modrm] |= 0x10
    return lut


def _build_prefix_bits(kinds) -> "object":
    """Packed per-byte prefix facts: one gather replaces five compares.

    bit 0: legacy prefix; bit 1: REX; bits 2/3/4/5: this byte is
    0x66/0x67/0xF3/0x3E *and* a legacy prefix in this mode.
    """
    bits = _np.zeros(256, dtype=_np.uint8)
    for b in range(256):
        kind = kinds[b]
        if kind == OP.PK_REX:
            bits[b] = 2
        elif kind:
            bits[b] = 1
    for b, flag in ((0x66, 4), (0x67, 8), (0xF3, 16), (0x3E, 32)):
        if bits[b] & 1:
            bits[b] |= flag
    return bits


_PK32 = _np.array(OP.PREFIX_KIND, dtype=_np.uint8)
_PK64 = _np.array(OP.PREFIX_KIND_64, dtype=_np.uint8)
_PB32 = _build_prefix_bits(OP.PREFIX_KIND)
_PB64 = _build_prefix_bits(OP.PREFIX_KIND_64)
_SPEC1 = _np.array(OP.ONE_BYTE, dtype=_np.int16)
_SPEC2 = _np.array(OP.TWO_BYTE, dtype=_np.int16)
_IMM_LUT32 = _build_imm_lut(False)
_IMM_LUT64 = _build_imm_lut(True)
_MODRM_LUT = _build_modrm_lut()
_TERM_LUT = _np.zeros(256, dtype=bool)
for _k in TERMINATOR_CLASSES:
    _TERM_LUT[int(_k)] = True

_SPEC_38 = OP.spec(OP.MODRM)                 # whole 0F 38 map
_SPEC_3A = OP.spec(OP.MODRM, OP.IMM_IB)      # whole 0F 3A map

# InsnClass values inlined as ints (hot arrays are plain uint8).
_ENDBR64 = 1
_ENDBR32 = 2
_CALL_DIRECT = 3
_CALL_INDIRECT = 4
_JMP_DIRECT = 5
_JMP_INDIRECT = 6
_JCC = 7
_RET = 8
_NOP = 9
_INT3 = 10
_HLT = 11
_UD = 12
_LEA = 13
_MOV_IMM = 14
_PUSH_IMM = 15

_MASK64 = (1 << 64) - 1


def _read_u32(pad: "object", p: "object") -> "object":
    np = _np
    return (
        pad[p].astype(np.uint32)
        | (pad[p + 1].astype(np.uint32) << 8)
        | (pad[p + 2].astype(np.uint32) << 16)
        | (pad[p + 3].astype(np.uint32) << 24)
    )


def decode_all(
    data: bytes, bits: int, base_addr: int = 0
) -> tuple[bytes, bytes, dict[int, int], set[int], int]:
    """Decode every offset of ``data`` in one batched pass.

    Returns ``(lengths, klasses, targets, notracks, fallbacks)`` with
    the same per-offset semantics as calling ``decode_raw`` at each
    offset: ``lengths[i] == 0`` marks a :class:`DecodeError`. Lengths
    and classes come back as ``bytes`` (both fit a byte, and ``bytes``
    indexes faster than a list while costing 1/60th the memory);
    targets and NOTRACK flags are sparse. ``fallbacks`` counts the
    offsets re-decoded through the scalar path.
    """
    np = _np
    n = len(data)
    if n == 0:
        return b"", b"", {}, set(), 0
    is64 = bits == 64
    pb = _PB64 if is64 else _PB32

    # Offset arithmetic runs in int32 throughout: buffers are far below
    # 2 GiB and the whole-array passes are memory-bound, so halving the
    # element width is a measurable win on multi-megabyte images.
    pad = np.zeros(n + 16, dtype=np.uint8)
    pad[:n] = np.frombuffer(data, dtype=np.uint8)
    idx = np.arange(n, dtype=np.int32)

    # ---- prefixes (at most one legacy prefix, then an optional REX) ----
    # One packed-bits gather per byte; the rarely-consulted F3/3E flags
    # are read back out of ``p0`` per interesting offset, not expanded
    # into whole-buffer booleans.
    b0 = pad[:n]
    p0 = np.take(pb, b0)
    legacy0 = (p0 & 1) != 0
    opsize16 = (p0 & 4) != 0
    addrsize = (p0 & 8) != 0
    pos = idx + legacy0
    # ``pos`` differs from ``idx`` only where legacy0: select, don't
    # gather (the shifted view is contiguous).
    b1 = np.where(legacy0, pad[1:n + 1], b0)
    p1 = np.take(pb, b1)
    # A second legacy prefix makes the rep flag order-dependent: punt.
    fallback = (p0 & p1 & 1) != 0
    if is64:
        isrex = (p1 & 2) != 0
        rexw = isrex & ((b1 & 0x08) != 0)
        pos = pos + isrex
        ob = np.take(pad, pos)
    else:
        rexw = None  # no REX prefixes outside 64-bit mode
        ob = b1
    del b1, p1

    # ---- opcode dispatch ----
    # VEX/EVEX escapes (and the 32-bit BOUND/LES/LDS ambiguity) go to
    # the scalar decoder wholesale.
    fallback |= (ob == 0xC4) | (ob == 0xC5) | (ob == 0x62)
    spec = np.take(_SPEC1, ob)
    op = ob
    two = ob == 0x0F
    oplen = two.astype(np.int32)
    n2 = np.flatnonzero(two)
    if n2.size:
        ob2 = pad[pos[n2] + 1]
        spec2 = np.take(_SPEC2, ob2)
        t38 = ob2 == 0x38
        t3a = ob2 == 0x3A
        spec2[t38] = _SPEC_38
        spec2[t3a] = _SPEC_3A
        three = t38 | t3a
        op2 = ob2
        if three.any():
            n3 = n2[three]
            op2 = np.where(three, pad[pos[n2] + 2], ob2)
            oplen[n3] += 1
        op = op.copy()
        op[n2] = op2
        spec[n2] = spec2
    pos = pos + 1 + oplen

    err = (spec & (OP.INVALID | (OP.INV64 if is64 else OP.INV32))) != 0

    # ---- ModRM / SIB / displacement ----
    has_modrm = (spec & OP.MODRM) != 0
    modrm = np.take(pad, pos)
    # FF /7 and FE /2../7 are invalid groups: only offsets whose opcode
    # byte is FF/FE (a small subset) need their ModRM.reg inspected.
    ffsel = np.flatnonzero((ob == 0xFF) | (ob == 0xFE))
    if ffsel.size:
        regf = (modrm[ffsel] >> 3) & 7
        bad = has_modrm[ffsel] & ~two[ffsel] & np.where(
            ob[ffsel] == 0xFF, regf == 7, regf > 1
        )
        err[ffsel[bad]] = True
    if not is64:
        # 16-bit addressing changes the displacement layout: punt.
        fallback |= has_modrm & (modrm < 0xC0) & addrsize
    layout = np.take(_MODRM_LUT, modrm)
    sib = np.take(pad, pos + 1)
    extra = (layout & 0x0F) + ((layout >> 4) & ((sib & 7) == 5)) * 4
    pos = pos + has_modrm * (1 + extra.astype(np.int32))

    # ---- immediate ----
    immk = (spec >> OP.IMM_SHIFT) & 0xF
    key = (immk << 3) | opsize16 | (addrsize.astype(np.int16) << 2)
    if rexw is None:
        opsize16eff = opsize16              # opsize == 16
    else:
        key |= rexw.astype(np.int16) << 1
        opsize16eff = opsize16 & ~rexw      # opsize == 16
    imm = np.take(_IMM_LUT64 if is64 else _IMM_LUT32, key)\
        .astype(np.int32)
    g0 = np.flatnonzero(immk == OP.IMM_GRP3)
    if g0.size:
        gi = g0[has_modrm[g0] & (((modrm[g0] >> 3) & 7) <= 1)]
        imm[gi] = np.where(
            op[gi] == 0xF6, 1, np.where(opsize16eff[gi], 2, 4)
        )
    imm_pos = pos
    end = pos + imm
    length = end - idx
    # Any scalar-side truncation raise implies end > n here (every
    # consumed byte sits below ``end``), and the longest shape the
    # array pass models is 14 bytes — so these two checks subsume the
    # scalar decoder's intermediate bounds/length raises exactly.
    err |= (end > n) | (length > 15)

    ok = ~err & ~fallback
    ii = np.flatnonzero(ok & ((spec & OP.INTERESTING) != 0))

    # ---- classification (compacted: only interesting offsets) ----
    klasses = np.zeros(n, dtype=np.uint8)
    opi = op[ii]
    twoi = two[ii]
    onei = ~twoi
    modrmi = modrm[ii]
    regi = (modrmi >> 3) & 7
    hmi = has_modrm[ii]
    kl = np.zeros(ii.size, dtype=np.uint8)

    relm = np.zeros(ii.size, dtype=bool)
    m = onei & (opi == 0xE8)
    kl[m] = _CALL_DIRECT
    relm |= m
    m = onei & ((opi == 0xE9) | (opi == 0xEB))
    kl[m] = _JMP_DIRECT
    relm |= m
    m = onei & (((opi >= 0x70) & (opi <= 0x7F))
                | ((opi >= 0xE0) & (opi <= 0xE3)))
    kl[m] = _JCC
    relm |= m
    m = twoi & (opi >= 0x80) & (opi <= 0x8F)
    kl[m] = _JCC
    relm |= m
    kl[onei & ((opi == 0xC3) | (opi == 0xC2)
               | (opi == 0xCB) | (opi == 0xCA))] = _RET
    ffg = onei & (opi == 0xFF) & hmi
    cim = ffg & ((regi == 2) | (regi == 3))
    jim = ffg & ((regi == 4) | (regi == 5))
    kl[cim] = _CALL_INDIRECT
    kl[jim] = _JMP_INDIRECT
    kl[onei & (opi == 0x90)] = _NOP
    kl[onei & (opi == 0xCC)] = _INT3
    kl[onei & (opi == 0xF4)] = _HLT
    leam = onei & (opi == 0x8D) & hmi
    kl[leam] = _LEA
    ge32 = ~opsize16eff[ii]                 # opsize >= 32
    movpush = onei & ge32 & (
        ((opi >= 0xB8) & (opi <= 0xBF)) | ((opi == 0xC7) & hmi)
        | (opi == 0x68)
    )
    kl[movpush & (opi != 0x68)] = _MOV_IMM
    kl[movpush & (opi == 0x68)] = _PUSH_IMM
    endbr = twoi & (opi == 0x1E) & ((p0[ii] & 16) != 0)
    kl[endbr & (modrmi == 0xFA)] = _ENDBR64
    kl[endbr & (modrmi == 0xFB)] = _ENDBR32
    kl[twoi & (opi == 0x1F)] = _NOP
    kl[twoi & ((opi == 0x0B) | (opi == 0xB9) | (opi == 0xFF))] = _UD
    klasses[ii] = kl

    # ---- sparse targets ----
    targets: dict[int, int] = {}
    base_u = np.uint64(base_addr & _MASK64)

    ra = ii[relm]
    if ra.size:
        sz = imm[ra]
        p = imm_pos[ra]
        rel = np.empty(ra.size, dtype=np.int32)
        m1 = sz == 1
        rel[m1] = pad[p[m1]].astype(np.int8)
        m2 = sz == 2
        if m2.any():
            pp = p[m2]
            rel[m2] = (
                pad[pp].astype(np.uint16)
                | (pad[pp + 1].astype(np.uint16) << 8)
            ).astype(np.int16)
        m4 = sz == 4
        rel[m4] = _read_u32(pad, p[m4]).astype(np.int32)
        t = base_u + (ra + length[ra]).astype(np.uint64) \
            + rel.astype(np.uint64)
        if not is64:
            t &= np.uint64(0xFFFFFFFF)
        o16 = opsize16eff[ra]
        if o16.any():
            t[o16] &= np.uint64(0xFFFF)
        targets.update(zip(ra.tolist(), t.tolist()))

    la = ii[leam & ((modrmi & 0xC7) == 0x05)]  # mod == 0, rm == 5
    if la.size:
        d32 = _read_u32(pad, la + length[la] - 4).astype(np.int32)
        if is64:
            t = base_u + (la + length[la]).astype(np.uint64) \
                + d32.astype(np.uint64)
        else:
            t = d32.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        targets.update(zip(la.tolist(), t.tolist()))

    ma = ii[movpush]
    if ma.size:
        sz = imm[ma]
        p = imm_pos[ma]
        u = np.empty(ma.size, dtype=np.uint64)
        m4 = sz != 8  # only 4- and 8-byte immediates reach here
        u[m4] = _read_u32(pad, p[m4])
        m8 = ~m4
        if m8.any():
            pp = p[m8]
            u[m8] = _read_u32(pad, pp).astype(np.uint64) | (
                _read_u32(pad, pp + 4).astype(np.uint64) << np.uint64(32)
            )
        targets.update(zip(ma.tolist(), u.tolist()))

    notracks = set(ii[(cim | jim) & ((p0[ii] & 32) != 0)].tolist())

    lengths = (length * ok).astype(np.uint8)

    # ---- scalar fallback for the shapes the array pass punts on ----
    fb = np.flatnonzero(fallback)
    lengths_b = bytearray(lengths.tobytes())
    klasses_b = bytearray(klasses.tobytes())
    for i in fb.tolist():
        try:
            flen, fklass, ftarget, fnotrack = decode_raw(
                data, i, base_addr + i, bits
            )
        except DecodeError:
            continue
        lengths_b[i] = flen
        klasses_b[i] = fklass
        if ftarget is not None:
            targets[i] = ftarget
        if fnotrack:
            notracks.add(i)
    return bytes(lengths_b), bytes(klasses_b), targets, notracks, \
        int(fb.size)


def viability(lengths: bytes, klasses: bytes) -> bytes:
    """Right-to-left chain viability, as one pointer-doubling pass.

    Semantics match the scalar DP in :mod:`repro.x86.superset`:
    ``viable[i]`` is truthy when offset ``i`` decodes and is a
    terminator, or falls through to a viable offset (the end-of-region
    sentinel at index ``n`` is viable). Every fall-through chain
    strictly advances, so successor-pointer doubling over the shrinking
    unknown set resolves all offsets in ``O(log n)`` compacted steps.
    Returns ``n + 1`` bytes of 0/1, sentinel included.
    """
    np = _np
    if np is None:
        raise RuntimeError("viability() requires numpy")
    n = len(lengths)
    if n == 0:
        return b"\x01"
    lens = np.frombuffer(lengths, dtype=np.uint8)
    kls = np.frombuffer(klasses, dtype=np.uint8)
    decodable = lens != 0
    term = decodable & np.take(_TERM_LUT, kls)
    # 0 = unknown, 1 = dead, 2 = viable — written arithmetically
    # (bools are uint8 under the hood, so ``.view`` is free); boolean
    # fancy-indexed stores cost a mask scan plus a scatter each.
    state = np.empty(n + 1, dtype=np.uint8)
    state[n] = 2
    np.multiply(term.view(np.uint8), 2, out=state[:n])
    state[:n] += (~decodable).view(np.uint8)
    # int32 pointers: the doubling loop below is gather-bound, and the
    # narrower index type halves its memory traffic. Resolved offsets
    # point at *themselves*, which makes them fixed points of the
    # doubling — a composed pointer can never skip past a terminator.
    # ``term ⊆ decodable`` turns the and-not into one xor, and
    # ``lens * follow`` (uint8, lens ≤ 15) keeps dead and terminator
    # offsets in place without a fancy-indexed gather/scatter pair.
    follow = decodable ^ term
    nxt = np.arange(n + 1, dtype=np.int32)
    nxt[:n] += lens * follow
    # A few whole-array doubling rounds first: real chains reach a
    # terminator within a handful of instructions, so this resolves the
    # bulk without the fancy-indexing overhead of the compacted loop.
    # ``np.take`` beats ``nxt[nxt]`` fancy indexing, and the ping-pong
    # scratch buffer keeps the rounds allocation-free.
    tmp = np.empty_like(nxt)
    for _ in range(2):
        np.take(nxt, nxt, out=tmp)
        np.take(tmp, tmp, out=nxt)
    unknown = np.flatnonzero(state == 0)
    for _ in range(64):  # doubling: 2**64 exceeds any chain length
        if not unknown.size:
            break
        s = state[nxt[unknown]]
        done = s != 0
        if done.any():
            state[unknown[done]] = s[done]
            unknown = unknown[~done]
            if not unknown.size:
                break
        nxt[unknown] = nxt[nxt[unknown]]
    return (state == 2).tobytes()
