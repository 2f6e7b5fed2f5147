"""Per-binary in-memory analysis context.

Every detector evaluated on a binary needs some subset of the same
artifacts: the linear-sweep collection pass, the parsed ``.eh_frame``,
LSDA landing pads, the PLT import map, the advertised CET features.
Before this module each tool recomputed its share from scratch, so a
five-tool Table III sweep decoded the same ``.text`` five times.

An :class:`AnalysisContext` rides on the :class:`~repro.elf.parser.ELFFile`
instance itself (created on first use by :func:`get_context`), so the
natural sharing points need no plumbing: the serial runner parses each
entry once and hands the same ``ELFFile`` to every detector, and the
parallel runner's workers do the same within each job — the context
crosses the fork boundary as a property of "one parse per job", not by
pickling anything.

Artifacts that serialize cleanly are additionally read through the
content-addressed disk cache (:mod:`repro.cache.disk`) when one is
configured. Two rules keep cached and uncached runs bit-identical:

- a computation that *records new diagnostics* is never stored — a disk
  hit skips the parse that would have recorded them, so only
  diagnostic-free artifacts are eligible;
- loads validate through the same strict codecs that wrote the entry,
  and any mismatch degrades to a recompute.

The context also clocks the wall time spent building its artifacts
(:attr:`AnalysisContext.shared_seconds`), so a detector's timing can
leave out shared work it merely happened to trigger first.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.cache import serialize as S
from repro.cache.disk import default_cache
from repro.elf import constants as C
from repro.elf.ehframe import EhFrame, parse_eh_frame
from repro.elf.gnuproperty import CetFeatures, parse_cet_features
from repro.elf.lsda import landing_pads_from_exception_info
from repro.elf.parser import ELFFile
from repro.elf.plt import PLTMap, build_plt_map
from repro.errors import Diagnostics
from repro.x86.superset import DecodeIndex, get_index

if TYPE_CHECKING:
    # repro.core imports this module (FunSeeker reads its artifacts
    # through the context), so the runtime import must stay inside
    # sweep() to keep the package import-order agnostic.
    from repro.core.disassemble import SweepResult

_ATTR = "_analysis_context"
_MISS = object()


class AnalysisContext:
    """Memoized analysis artifacts for one parsed binary."""

    def __init__(self, elf: ELFFile) -> None:
        self.elf = elf
        self._memo: dict[str, Any] = {}
        self._hash: str | None = None
        #: Wall seconds spent computing (or loading) memoized artifacts.
        self.shared_seconds = 0.0
        self._computing = False

    # -- identity -----------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """SHA-256 of the raw file image (the disk-cache key)."""
        if self._hash is None:
            self._hash = hashlib.sha256(self.elf.data).hexdigest()
        return self._hash

    # -- memoization machinery ----------------------------------------------

    def _memoized(self, key: str, compute: Callable[[], Any]) -> Any:
        value = self._memo.get(key, _MISS)
        if value is _MISS:
            obs.add("ctx.memo_misses", 1)
            value = self._clocked(compute)
            self._memo[key] = value
        else:
            obs.add("ctx.memo_hits", 1)
        return value

    def _clocked(self, compute: Callable[[], Any]) -> Any:
        """Run ``compute``, adding its wall time to :attr:`shared_seconds`
        unless an outer artifact computation is already being clocked."""
        if self._computing:
            return compute()
        self._computing = True
        started = time.perf_counter()
        try:
            return compute()
        finally:
            self._computing = False
            self.shared_seconds += time.perf_counter() - started

    def _disk_backed(
        self,
        artifact: str,
        compute: Callable[[], Any],
        to_doc: Callable[[Any], dict],
        from_doc: Callable[[dict], Any],
    ) -> Any:
        """Run ``compute`` through the disk cache when one is configured.

        A computation that records new diagnostics on the file's shared
        collector is served but not stored: a later disk hit would skip
        the recording, making cached runs observably different.
        """
        cache = default_cache()
        if cache is not None:
            doc = cache.get(self.content_hash, artifact)
            if doc is not None:
                try:
                    return from_doc(doc)
                except S.SerializationError:
                    pass
        before = len(self.elf.diagnostics)
        value = compute()
        if cache is not None and len(self.elf.diagnostics) == before:
            cache.put(self.content_hash, artifact, to_doc(value))
        return value

    def _through_disk(
        self,
        artifact: str,
        compute: Callable[[], Any],
        to_doc: Callable[[Any], dict],
        from_doc: Callable[[dict], Any],
    ) -> Any:
        """:meth:`_disk_backed` plus in-memory memoization."""
        return self._memoized(
            artifact,
            lambda: self._disk_backed(artifact, compute, to_doc, from_doc),
        )

    # -- cached artifacts ---------------------------------------------------

    def _text(self):
        return self.elf.section(C.SECTION_TEXT)

    @property
    def bits(self) -> int:
        return 64 if self.elf.is64 else 32

    def index(self) -> DecodeIndex | None:
        """The per-offset decode index of ``.text`` (memory only; the
        sweep walks the same memoized index)."""
        txt = self._text()
        if txt is None or not txt.data:
            return None
        return self._memoized(
            "index", lambda: get_index(txt.data, self.bits, txt.sh_addr))

    def sweep(self) -> SweepResult | None:
        """The linear-sweep collection pass over ``.text``."""
        from repro.core.disassemble import disassemble

        txt = self._text()
        if txt is None or not txt.data:
            return None
        return self._through_disk(
            "sweep",
            lambda: disassemble(txt.data, txt.sh_addr, self.bits),
            S.sweep_to_doc,
            S.sweep_from_doc,
        )

    def robust_sweep_result(self) -> SweepResult | None:
        """The superset-validated collection pass (memory only — the
        underlying decode index is rebuilt per process anyway)."""
        txt = self._text()
        if txt is None or not txt.data:
            return None

        def _compute() -> SweepResult:
            from repro.core.robust import disassemble_robust

            with obs.span("sweep.robust", bytes=len(txt.data)):
                return disassemble_robust(txt.data, txt.sh_addr, self.bits)

        return self._memoized("robust_sweep", _compute)

    def prologue_hits(self) -> frozenset[int]:
        """Aligned ``.text`` addresses that open with a classic prologue
        signature — the pre-CET tools' gap-sweep heuristic, shared by
        IDA-like and Ghidra-like (memory only: cheaper than a disk
        round trip)."""
        from repro.baselines.base import prologue_hits

        txt = self._text()
        if txt is None or not txt.data:
            return frozenset()
        return self._memoized(
            "prologue",
            lambda: prologue_hits(txt.data, txt.sh_addr, self.bits))

    def _eh_frame(self, needed_by: str | None) -> tuple[EhFrame, Diagnostics]:
        """The one degraded parse of ``.eh_frame``, with the anomalies it
        tolerated on a private collector.

        The parse is held only until ``needed_by``, the other artifact
        that reads it, has taken it: records kept for the image's
        lifetime would survive into older GC generations and move
        collections into later layers.
        """
        parsed = self._memo.pop("eh_frame", None)
        if parsed is None:
            sec = self.elf.section(C.SECTION_EH_FRAME)
            diagnostics = Diagnostics()
            parsed = parse_eh_frame(sec.data, sec.sh_addr, self.elf.is64,
                                    diagnostics=diagnostics), diagnostics
            if needed_by is not None and needed_by not in self._memo:
                self._memo["eh_frame"] = parsed
        return parsed

    def fde_starts(self) -> tuple[set[int], list[tuple[int, int]]]:
        """FDE ``pc_begin`` values and ranges, strict-parse semantics.

        Preserves the baselines' historical contract: a malformed
        ``.eh_frame`` yields *empty* results (no diagnostics), it does
        not degrade into a partial parse. The degraded parse records an
        anomaly exactly where a strict parse would have raised, so
        "any record" is "the strict parse fails".
        """
        def _compute() -> tuple[set[int], list[tuple[int, int]]]:
            with obs.span("exceptions", artifact="fde"):
                sec = self.elf.section(C.SECTION_EH_FRAME)
                if sec is None or not sec.data:
                    return set(), []
                except_sec = self.elf.section(C.SECTION_GCC_EXCEPT_TABLE)
                eh, diagnostics = self._eh_frame(
                    None if except_sec is None else "landing_pads")
                if diagnostics.records:
                    return set(), []
                starts = {fde.pc_begin for fde in eh.fdes}
                ranges = [(fde.pc_begin, fde.pc_end) for fde in eh.fdes]
                obs.add("exceptions.fdes", len(eh.fdes))
                return starts, ranges

        return self._through_disk(
            "fde",
            _compute,
            lambda v: S.fde_to_doc(*v),
            S.fde_from_doc,
        )

    def landing_pads(self) -> set[int]:
        """LSDA landing pads, degraded-parse semantics.

        Anomalies in ``.eh_frame`` or ``.gcc_except_table`` land on the
        file's diagnostics and drop only the entries they described —
        the FunSeeker pipeline's tolerance rules.
        """
        def _compute() -> set[int]:
            with obs.span("exceptions", artifact="landing_pads"):
                elf = self.elf
                except_sec = elf.section(C.SECTION_GCC_EXCEPT_TABLE)
                eh_sec = elf.section(C.SECTION_EH_FRAME)
                if except_sec is None or eh_sec is None:
                    return set()
                eh, diagnostics = self._eh_frame("fde")
                elf.diagnostics.merge(diagnostics)
                pads = landing_pads_from_exception_info(
                    eh, except_sec.data, except_sec.sh_addr, elf.is64,
                    diagnostics=elf.diagnostics,
                )
                obs.add("exceptions.landing_pads", len(pads))
                return pads

        return self._through_disk(
            "landing_pads", _compute, S.addrs_to_doc, S.addrs_from_doc,
        )

    def plt_map(self) -> PLTMap:
        """The PLT stub-to-import map, degraded-parse semantics."""
        def _compute() -> PLTMap:
            with obs.span("plt"):
                return build_plt_map(
                    self.elf, diagnostics=self.elf.diagnostics
                )

        return self._through_disk(
            "plt", _compute, S.plt_to_doc, S.plt_from_doc,
        )

    def cet_features(self) -> CetFeatures:
        """The advertised ``.note.gnu.property`` CET feature bits."""
        def _compute() -> CetFeatures:
            with obs.span("cet"):
                return parse_cet_features(
                    self.elf, diagnostics=self.elf.diagnostics
                )

        return self._through_disk(
            "cet", _compute, S.cet_to_doc, S.cet_from_doc,
        )

    def detector_result(
        self, tool: str, compute: Callable[[], set[int]],
        *, use_disk: bool = True,
    ) -> set[int]:
        """Whole-detector entry sets, keyed by tool name.

        This is the layer that makes warm table regenerations cheap:
        a repeated sweep pays one parse + one hash per binary instead
        of re-running every detector. The same no-new-diagnostics store
        guard applies, and tools whose output depends on state outside
        the binary image must not come through here (see
        ``FunctionDetector.cacheable``).

        Deliberately *not* memoized in memory: within a process each
        ``detect`` call really runs (Table III's timing comparison —
        FETCH's expensive internals in particular — must stay
        observable); only a configured disk cache short-circuits it.

        ``use_disk=False`` skips the disk layer entirely — detectors
        whose declared cost is below the cache's own round-trip cost
        (``DISK_CACHE_MIN_COST_PER_MB``) come through here, and the
        bypass is tallied on the cache's census counters.
        """
        if not use_disk:
            cache = default_cache()
            if cache is not None:
                cache.note_bypass()
            return compute()
        return self._disk_backed(
            f"tool.{tool}", compute, S.addrs_to_doc, S.addrs_from_doc,
        )


def get_context(elf: ELFFile) -> AnalysisContext:
    """The (singleton) analysis context of a parsed file."""
    ctx = getattr(elf, _ATTR, None)
    if ctx is None:
        ctx = AnalysisContext(elf)
        setattr(elf, _ATTR, ctx)
    return ctx
