"""Superset disassembly (paper §VI future work).

Linear sweep misbehaves when hand-written assembly embeds data inside
``.text``: a decode error advances one byte at a time through the blob,
and mis-decoded garbage can synthesize phantom end-branches or branch
targets. The paper names superset disassembly [7] and probabilistic
disassembly [29] as the fix.

This module decodes at *every* byte offset and computes which offsets
start a *viable* instruction chain: one whose fall-through
successors all decode, terminated by an instruction with no fall-through
(ret/jmp/hlt/ud2) or by the end of the region. Data bytes rarely form
viable chains, so a sweep that jumps from the end of one instruction to
the next viable offset skips embedded data instead of grinding through
it byte by byte.

The decode-at-every-offset pass is materialized as a
:class:`DecodeIndex` by one batched table-driven pass
(:mod:`repro.x86.vector`): per-offset lengths and classes in packed
``bytes``, with ``Insn`` objects materialized only on demand.
Viability resolves lazily by pointer doubling the first time something
asks for it. ``viable_offsets``, ``robust_sweep`` and ``data_regions``
all draw from the same index (memoized per buffer), as do the linear
sweep and every detector, so a pipeline pays for the decode pass once.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Iterator

from repro import obs
from repro.x86 import vector
from repro.x86.insn import Insn, InsnClass


class DecodeIndex:
    """Per-offset decode results for one code buffer.

    ``lengths[i] == 0`` marks a decode failure at offset ``i``; targets
    and NOTRACK flags are stored sparsely. Lengths and classes are
    packed ``bytes`` (both fit one byte per offset). ``viable`` has one
    extra trailing entry for the end-of-region sentinel and is computed
    on first use: the detector paths that only walk instruction chains
    never pay for it.
    """

    __slots__ = ("base_addr", "bits", "lengths", "klasses", "targets",
                 "notracks", "_viable")

    def __init__(
        self,
        base_addr: int,
        bits: int,
        lengths: bytes,
        klasses: bytes,
        targets: dict[int, int] | None = None,
        notracks: set[int] | None = None,
        viable: bytes | None = None,
    ) -> None:
        self.base_addr = base_addr
        self.bits = bits
        self.lengths = lengths
        self.klasses = klasses
        self.targets = targets if targets is not None else {}
        self.notracks = notracks if notracks is not None else set()
        self._viable = viable

    @property
    def viable(self) -> bytes:
        if self._viable is None:
            with obs.span("superset.viability", bytes=len(self.lengths)):
                self._viable = vector.viability(self.lengths, self.klasses)
        return self._viable

    def retained_bytes(self) -> int:
        """Approximate heap footprint of this index, for memo bounding.

        Counts the packed per-offset arrays (``viable`` as if already
        materialized — it usually is by the time eviction matters) plus
        a per-element estimate for the sparse target/NOTRACK containers.
        """
        n = len(self.lengths)
        sparse = 120 * len(self.targets) + 64 * len(self.notracks)
        return 3 * n + 1 + sparse + 256

    def insn_at(self, offset: int) -> Insn | None:
        """Reconstruct the decoded instruction starting at ``offset``."""
        length = self.lengths[offset]
        if length == 0:
            return None
        return Insn(
            addr=self.base_addr + offset,
            length=length,
            klass=InsnClass(self.klasses[offset]),
            target=self.targets.get(offset),
            notrack=offset in self.notracks,
        )


def build_index(data: bytes, bits: int, base_addr: int = 0) -> DecodeIndex:
    """Decode every offset once, in one batched pass.

    Viability is deferred until something asks for it.
    """
    n = len(data)
    with obs.span("superset.index", bytes=n, vectorized=True):
        lengths, klasses, targets, notracks, fallbacks = \
            vector.decode_all(data, bits, base_addr)
        errors = lengths.count(0)
        obs.add("superset.offsets_decoded", n - errors)
        obs.add("superset.decode_errors", errors)
        obs.add("superset.vectorized_bytes", n)
        obs.add("superset.scalar_fallbacks", fallbacks)
    return DecodeIndex(
        base_addr=base_addr, bits=bits, lengths=lengths,
        klasses=klasses, targets=targets, notracks=notracks,
    )


#: Most-recently-built indexes, keyed by ``(sha256(data), bits, base)``.
#: Keying by digest instead of the raw buffer means the memo never pins
#: binary images in memory — a long-lived server that analyzes many
#: distinct binaries would otherwise retain up to four whole images for
#: the process lifetime. The digest costs ~1 GB/s, negligible next to
#: the decode pass it guards. Bounded by the *retained bytes* of the
#: indexes themselves (an index is ~3x its buffer), not by entry count,
#: so a handful of tiny sections and one huge one are both handled.
_INDEX_MEMO: OrderedDict[tuple[str, int, int], DecodeIndex] = OrderedDict()
_INDEX_MEMO_MAX_BYTES = 96 * 1024 * 1024
_memo_retained = 0


def _index_key(data: bytes, bits: int, base_addr: int) -> tuple[str, int, int]:
    return (hashlib.sha256(data).hexdigest(), bits, base_addr)


def get_index(data: bytes, bits: int, base_addr: int = 0) -> DecodeIndex:
    """Memoized :func:`build_index`."""
    global _memo_retained
    key = _index_key(data, bits, base_addr)
    index = _INDEX_MEMO.get(key)
    if index is not None:
        _INDEX_MEMO.move_to_end(key)
        obs.add("superset.index_memo_hits", 1)
        return index
    obs.add("superset.index_memo_misses", 1)
    index = build_index(data, bits, base_addr)
    _INDEX_MEMO[key] = index
    _memo_retained += index.retained_bytes()
    while _memo_retained > _INDEX_MEMO_MAX_BYTES and len(_INDEX_MEMO) > 1:
        _, evicted = _INDEX_MEMO.popitem(last=False)
        _memo_retained -= evicted.retained_bytes()
        obs.add("superset.index_memo_evictions", 1)
    return index


def index_memo_stats() -> tuple[int, int]:
    """``(entries, retained_bytes)`` currently held by the memo."""
    return len(_INDEX_MEMO), _memo_retained


def clear_index_memo() -> None:
    """Drop all memoized indexes (used by tests and cache eviction)."""
    global _memo_retained
    _INDEX_MEMO.clear()
    _memo_retained = 0


def viable_offsets(data: bytes, bits: int) -> list[bool]:
    """For each offset, whether a viable instruction chain starts there.

    Computed in one right-to-left pass: ``viable[i]`` holds when the
    instruction at ``i`` decodes and either ends straight-line control
    flow, or falls through to a viable offset (or exactly to the end of
    the region).
    """
    return [bool(v) for v in get_index(data, bits).viable[: len(data)]]


def robust_sweep(data: bytes, base_addr: int, bits: int) -> Iterator[Insn]:
    """Linear sweep that recovers through embedded data.

    Identical to plain linear sweep on clean compiler output. On a
    decode failure — or when the cursor lands on a non-viable offset —
    it skips forward to the next viable offset instead of decoding
    garbage byte by byte. Instructions come straight from the decode
    index: nothing on this path is decoded a second time.
    """
    index = get_index(data, bits, base_addr)
    viable = index.viable
    n = len(data)
    offset = 0
    while offset < n:
        if not viable[offset]:
            offset = next_viable(data, viable, offset + 1)
            if offset >= n:
                return
        insn = index.insn_at(offset)
        if insn is None:  # pragma: no cover - viable implies decodable
            offset += 1
            continue
        yield insn
        offset += insn.length


_ENDBR_PATTERNS = (b"\xf3\x0f\x1e\xfa", b"\xf3\x0f\x1e\xfb")
_RESYNC_WINDOW = 16


def next_viable(data: bytes, viable: bytes, start: int) -> int:
    """Pick the resynchronization point after a non-viable region.

    CET-aware: within a short window past the first viable offset, a
    viable *end-branch* beats an earlier viable offset — data tails
    often merge with the first real instruction, whereas an end-branch
    marker is an intentional, checkable landmark.
    """
    first = -1
    for i in range(start, len(data)):
        if not viable[i]:
            continue
        if first < 0:
            first = i
        if data[i : i + 4] in _ENDBR_PATTERNS:
            return i
        if i - first >= _RESYNC_WINDOW:
            break
    return first if first >= 0 else len(data)


def data_regions(data: bytes, bits: int, *, min_size: int = 4) -> list[tuple[int, int]]:
    """Maximal non-viable byte runs — likely embedded data.

    Returns ``(start_offset, length)`` pairs of at least ``min_size``
    bytes where no viable instruction chain begins.
    """
    viable = viable_offsets(data, bits)
    out: list[tuple[int, int]] = []
    run_start: int | None = None
    for i, ok in enumerate(viable):
        if not ok and run_start is None:
            run_start = i
        elif ok and run_start is not None:
            if i - run_start >= min_size:
                out.append((run_start, i - run_start))
            run_start = None
    if run_start is not None and len(viable) - run_start >= min_size:
        out.append((run_start, len(viable) - run_start))
    return out
