"""Fleet-scan ingestion: untrusted real-world binaries, resumably.

The evaluation stack (:mod:`repro.eval`) measures detectors against
*synthetic* binaries with exact ground truth. This package points the
same machinery at binaries we did not make and cannot trust — a
``/usr/bin``, a firmware dump, a corpus share — and is built around the
assumption that any individual file may be hostile, truncated, or
vanishing while we look at it:

- :mod:`~repro.ingest.discover` — bounded-memory streaming walk
  (symlink-loop safe, inode-deduplicated, permission-error tolerant);
- :mod:`~repro.ingest.admit` — 64-byte admission triage mapping every
  candidate to ``analyze`` / ``skip`` / ``reject`` with a recorded
  reason, never raising;
- :mod:`~repro.ingest.ladder` — the per-binary degradation ladder
  (parse → CET probe → detector sweep) that downgrades to partial
  results (``ok`` / ``degraded:<diag>`` / ``quarantined``) instead of
  failing;
- :mod:`~repro.ingest.pipeline` — backpressure-aware dispatch onto the
  shared supervised worker pool, journaling every decision crash-safely;
- :mod:`~repro.ingest.report` — the fleet report (CET adoption, triage
  and degradation histograms, per-tool agreement);
- :mod:`~repro.ingest.chaos` — fault-injected scan scenarios proving
  resume convergence;
- :mod:`~repro.ingest.fixtures` — reproducible hostile trees for tests.
"""

from repro.ingest.admit import (
    ALL_DECISIONS,
    Admission,
    AdmissionPolicy,
    triage,
)
from repro.ingest.discover import Candidate, WalkSkip, discover
from repro.ingest.journal import (
    ScanJournal,
    ScanState,
    build_scan_manifest,
    check_scan_manifest,
    read_scan_journal,
)
from repro.ingest.ladder import (
    BinaryOutcome,
    LadderReadError,
    ToolOutcome,
    analyze_binary,
    pairwise_agreement,
)
from repro.ingest.pipeline import (
    DEFAULT_SCAN_TOOLS,
    ScanResult,
    ScanStats,
    run_scan,
)
from repro.ingest.report import (
    build_fleet_report,
    normalize_fleet_report,
    render_fleet_table,
)

__all__ = [
    "ALL_DECISIONS",
    "Admission",
    "AdmissionPolicy",
    "BinaryOutcome",
    "Candidate",
    "DEFAULT_SCAN_TOOLS",
    "LadderReadError",
    "ScanJournal",
    "ScanResult",
    "ScanState",
    "ScanStats",
    "ToolOutcome",
    "WalkSkip",
    "analyze_binary",
    "build_fleet_report",
    "build_scan_manifest",
    "check_scan_manifest",
    "discover",
    "normalize_fleet_report",
    "pairwise_agreement",
    "read_scan_journal",
    "render_fleet_table",
    "run_scan",
    "triage",
]
