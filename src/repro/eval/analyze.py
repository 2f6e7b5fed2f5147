"""The one cell loop, and library-clean single-image analysis.

:func:`image_cells` is the only place an image is parsed and each
detector run on it. It owns the parse and detect cells, the
``cell.execute`` fault guard, the ``enforced`` flag and the failure
taxonomy. The serial and parallel runners, :func:`analyze_image` (the
service's job body), the scan ladder and quarantine replay are thin
adapters over it, so one image gets the same entry sets and failure
kinds whichever way it runs. Each passes in the disk cache the image's
analysis context uses: ``evaluate`` the process default, the others
none.

:func:`analyze_image` takes an untrusted image and a caller-supplied
(per-tenant) :class:`~repro.cache.disk.DiskCache`: no globals read or
mutated, no ground truth required, safe to run from any executor. Its
own ``tool.<name>`` layer is a job's only cache traffic, under the keys
the evaluation sweeps use, so a cache warmed by ``funseeker evaluate``
(or by a previous job) serves lookups here and vice versa. A submission
whose requested tools are all cacheable and all present is served
entirely from disk, without a parse (:func:`warm_lookup`). The
no-new-diagnostics store guard from :mod:`repro.cache.context` applies
on the way in.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

from repro import faults, obs
from repro.baselines import ALL_DETECTORS
from repro.cache import serialize as S
from repro.cache.context import get_context
from repro.cache.disk import DiskCache
from repro.elf.parser import ELFFile
from repro.eval.breaker import CIRCUIT_OPEN, PHASE_BREAKER
from repro.eval.isolation import (
    PHASE_DETECT,
    PHASE_PARSE,
    FailureRecord,
    run_cell,
    watchdog_armable,
)

ANALYSIS_SCHEMA = "image-analysis/v1"

#: Cache attribution values on :class:`ToolReport`.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_UNCACHEABLE = "uncacheable"
CACHE_DISABLED = "disabled"


@dataclass(frozen=True)
class ToolReport:
    """One detector's outcome on one submitted image."""

    tool: str
    #: Sorted entry addresses, or ``None`` when the tool failed.
    functions: tuple[int, ...] | None
    elapsed_seconds: float = 0.0
    #: Where the answer came from: one of the ``CACHE_*`` constants.
    cache: str = CACHE_MISS
    phase: str | None = None
    error_type: str | None = None
    message: str | None = None
    attempts: int = 1
    #: Whether a requested wall-clock deadline was actually armed for
    #: this tool's cells. ``False`` flags the off-main-thread case
    #: where ``SIGALRM`` cannot fire and the timeout went unenforced.
    enforced: bool = True

    @property
    def ok(self) -> bool:
        return self.functions is not None

    def to_doc(self) -> dict:
        return {
            "tool": self.tool,
            "functions": list(self.functions)
            if self.functions is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "cache": self.cache,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "enforced": self.enforced,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ToolReport":
        functions = doc.get("functions")
        return cls(
            tool=doc["tool"],
            functions=tuple(functions) if functions is not None else None,
            elapsed_seconds=doc.get("elapsed_seconds", 0.0),
            cache=doc.get("cache", CACHE_MISS),
            phase=doc.get("phase"),
            error_type=doc.get("error_type"),
            message=doc.get("message"),
            attempts=doc.get("attempts", 1),
            enforced=doc.get("enforced", True),
        )


@dataclass
class ImageAnalysis:
    """Everything one submission produced, in journal-ready shape."""

    sha256: str
    size_bytes: int
    tools: dict[str, ToolReport] = field(default_factory=dict)
    diagnostics: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: True when the whole answer came from the disk cache (no parse).
    warm: bool = False

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tools.values())

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tools.values() if t.cache == CACHE_HIT)

    def to_doc(self) -> dict:
        return {
            "schema": ANALYSIS_SCHEMA,
            "sha256": self.sha256,
            "size_bytes": self.size_bytes,
            "tools": {name: t.to_doc()
                      for name, t in sorted(self.tools.items())},
            "diagnostics": self.diagnostics,
            "elapsed_seconds": self.elapsed_seconds,
            "warm": self.warm,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ImageAnalysis":
        return cls(
            sha256=doc["sha256"],
            size_bytes=doc["size_bytes"],
            tools={name: ToolReport.from_doc(t)
                   for name, t in doc.get("tools", {}).items()},
            diagnostics=list(doc.get("diagnostics", [])),
            elapsed_seconds=doc.get("elapsed_seconds", 0.0),
            warm=doc.get("warm", False),
        )


def content_digest(data: bytes) -> str:
    """The submission identity: SHA-256 of the raw image."""
    return hashlib.sha256(data).hexdigest()


def _tool_artifact(tool: str) -> str:
    return f"tool.{tool}"


def _is_cacheable(tool: str) -> bool:
    cls = ALL_DETECTORS[tool]
    return bool(getattr(cls, "cacheable", False))


def _cached_report(
    sha256: str, tool: str, cache: DiskCache | None,
) -> ToolReport | None:
    """The cache hit for one tool, or ``None``."""
    if cache is None or not _is_cacheable(tool):
        return None
    doc = cache.get(sha256, _tool_artifact(tool))
    if doc is None:
        return None
    try:
        functions = S.addrs_from_doc(doc)
    except S.SerializationError:
        return None
    return ToolReport(tool=tool, functions=tuple(sorted(functions)),
                      cache=CACHE_HIT)


def warm_lookup(
    sha256: str,
    size_bytes: int,
    tools: list[str] | tuple[str, ...],
    cache: DiskCache | None,
) -> ImageAnalysis | None:
    """Serve a submission entirely from the disk cache, or ``None``.

    Succeeds only when *every* requested tool is cacheable and has a
    valid cached document for this hash — a partial answer would still
    pay the parse, so the caller may as well take the cold path and let
    per-tool hits shorten it.
    """
    if cache is None or not tools:
        return None
    reports: dict[str, ToolReport] = {}
    for name in tools:
        report = _cached_report(sha256, name, cache)
        if report is None:
            return None
        reports[name] = report
    obs.add("analyze.warm_lookups", 1)
    return ImageAnalysis(
        sha256=sha256, size_bytes=size_bytes, tools=reports, warm=True,
    )


# ---------------------------------------------------------------------------
# The cell loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One cell's outcome, as :func:`image_cells` yields it."""

    #: The detector, or ``None`` for the image's parse cell.
    tool: str | None
    phase: str
    #: The parsed file (parse cell) or the tool's ``DetectionResult``.
    value: Any = None
    error_type: str | None = None
    message: str | None = None
    attempts: int = 1
    elapsed_seconds: float = 0.0
    #: Whether a requested deadline could be armed for this cell.
    enforced: bool = True
    #: :func:`repro.obs.mark` taken just before the cell ran.
    mark: int = 0

    @property
    def ok(self) -> bool:
        return self.error_type is None

    def failure(self, provenance: dict) -> FailureRecord:
        """This failed cell as a corpus :class:`FailureRecord`."""
        return FailureRecord(
            **provenance, tool=self.tool, phase=self.phase,
            error_type=self.error_type, message=self.message,
            attempts=self.attempts, elapsed_seconds=self.elapsed_seconds,
            enforced=self.enforced,
        )


def circuit_open(tool: str) -> Cell:
    """The cell of a tool whose circuit breaker refused to run it."""
    return Cell(tool, PHASE_BREAKER, error_type=CIRCUIT_OPEN,
                message=f"circuit open for tool {tool!r}: cell skipped",
                attempts=0)


def image_cells(
    data: Any,
    detectors: Mapping[str, Any],
    *,
    cache: DiskCache | None,
    parse: Callable[[Any], ELFFile] = ELFFile,
    timeout: float | None = None,
    retries: int = 0,
    allow: Callable[[str], bool] | None = None,
) -> Iterator[Cell]:
    """Parse ``data`` once, then run each detector on the parsed file.

    Yields the parse cell first (``tool=None``, ``value`` the parsed
    file). A failed parse then yields one parse-phase failure per
    detector and stops; otherwise each detector's detect cell is
    yielded as soon as it finishes, so the caller acts on one cell
    before the next runs. A tool that ``allow`` refuses yields
    :func:`circuit_open` instead of running.

    Every cell runs under :func:`~repro.eval.isolation.run_cell`
    (``timeout``/``retries``) behind the ``cell.execute``
    fault point. ``cache`` is the disk cache the parsed file's analysis
    context reads and writes (``None`` for none); an image's stores are
    batched into one flush.
    """
    # A deadline requested off the main thread cannot be armed: say so
    # on every cell rather than claim a deadline that never existed.
    enforced = timeout is None or timeout <= 0 or watchdog_armable()

    def run(tool: str | None, phase: str, body: Callable[[], Any]) -> Cell:
        mark = obs.mark()
        value, error, attempts, elapsed = run_cell(
            faults.guarded(faults.SITE_CELL_EXECUTE, body),
            timeout=timeout, retries=retries)
        if error is not None:
            return Cell(tool, phase, None, type(error).__name__, str(error),
                        attempts, elapsed, enforced, mark)
        return Cell(tool, phase, value, None, None, attempts, elapsed,
                    enforced, mark)

    parsed = run(None, PHASE_PARSE, lambda: parse(data))
    yield parsed
    if not parsed.ok:
        for name in detectors:
            yield replace(parsed, tool=name)
        return
    elf = parsed.value
    get_context(elf, cache)
    with cache.batch() if cache is not None else nullcontext():
        for name, detector in detectors.items():
            if allow is not None and not allow(name):
                yield circuit_open(name)
            else:
                yield run(name, PHASE_DETECT, lambda d=detector: d.detect(elf))


def analyze_image(
    data: bytes,
    tools: list[str] | tuple[str, ...] | None = None,
    *,
    cache: DiskCache | None = None,
    timeout: float | None = None,
    retries: int = 0,
) -> ImageAnalysis:
    """Run the requested detectors over one binary image.

    The cells come from :func:`image_cells`, so the service inherits
    the evaluation runners' timeout/retry/taxonomy semantics and their
    fault-injection and chaos story.

    ``cache`` is the caller's :class:`DiskCache` (e.g. a per-tenant
    namespace), or ``None`` for no caching; it holds only ``tool.*``
    documents, and no other cache is read or written. Failures never
    raise: they land on the per-tool report, mirroring how the corpus
    runners degrade to :class:`FailureRecord`.
    """
    started = time.perf_counter()
    if tools is None:
        tools = list(ALL_DETECTORS)
    unknown = [t for t in tools if t not in ALL_DETECTORS]
    if unknown:
        raise ValueError(
            f"unknown tools {unknown} (known: {sorted(ALL_DETECTORS)})")
    sha256 = content_digest(data)
    reports = {name: _cached_report(sha256, name, cache) for name in tools}
    analysis = ImageAnalysis(sha256=sha256, size_bytes=len(data))
    if tools and all(reports.values()):
        obs.add("analyze.warm_lookups", 1)
        analysis.warm = True
    else:
        obs.add("analyze.cold_lookups", 1)
        todo = {name: ALL_DETECTORS[name]() for name in tools
                if reports[name] is None}
        cells = image_cells(data, todo, cache=None, timeout=timeout,
                            retries=retries)
        elf = next(cells).value
        seen = len(elf.diagnostics) if elf is not None else 0
        for cell in cells:
            reports[cell.tool] = _tool_report(cell, cache)
            if cell.phase != PHASE_DETECT:
                continue
            # Same bit-identity rule as the analysis context: a run
            # that recorded new diagnostics is served but never stored.
            before, seen = seen, len(elf.diagnostics)
            if (cell.ok and reports[cell.tool].cache == CACHE_MISS
                    and before == seen):
                cache.put(sha256, _tool_artifact(cell.tool),
                          S.addrs_to_doc(cell.value.functions))
        if elf is not None:
            analysis.diagnostics = elf.diagnostics.to_dicts()
    analysis.tools = {name: reports[name] for name in tools}
    analysis.elapsed_seconds = time.perf_counter() - started
    return analysis


def _tool_report(cell: Cell, cache: DiskCache | None) -> ToolReport:
    """One cold cell as a :class:`ToolReport`, with its cache state."""
    if cell.phase == PHASE_DETECT and not _is_cacheable(cell.tool):
        state = CACHE_UNCACHEABLE
    elif cell.ok and cache is None:
        state = CACHE_DISABLED
    else:
        state = CACHE_MISS
    if not cell.ok:
        return ToolReport(
            tool=cell.tool, functions=None,
            elapsed_seconds=cell.elapsed_seconds, cache=state,
            phase=cell.phase, error_type=cell.error_type,
            message=cell.message, attempts=cell.attempts,
            enforced=cell.enforced,
        )
    return ToolReport(
        tool=cell.tool, functions=tuple(sorted(cell.value.functions)),
        elapsed_seconds=cell.value.elapsed_seconds, cache=state,
        attempts=cell.attempts, enforced=cell.enforced,
    )
