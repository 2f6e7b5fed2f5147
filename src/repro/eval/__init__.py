"""Evaluation harness: metrics, experiment runner, table renderers."""

from repro.eval.breaker import BreakerState, CircuitBreaker
from repro.eval.export import report_to_csv, report_to_json
from repro.eval.isolation import FailureRecord
from repro.eval.journal import (
    RunJournal,
    RunState,
    build_manifest,
    check_manifest,
    merge_resumed_report,
)
from repro.eval.metrics import (
    Confusion,
    false_negatives,
    false_positives,
    score,
    score_boundaries,
)
from repro.eval.parallel import run_evaluation_parallel
from repro.eval.quarantine import QuarantineStore, replay_entry
from repro.eval.runner import (
    ErrorBreakdown,
    EvalReport,
    RunRecord,
    analyze_errors,
    run_evaluation,
)
from repro.eval.tables import (
    error_breakdown,
    failure_summary,
    figure3,
    table1,
    table2,
    table3,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Confusion",
    "ErrorBreakdown",
    "EvalReport",
    "FailureRecord",
    "QuarantineStore",
    "RunJournal",
    "RunRecord",
    "RunState",
    "analyze_errors",
    "build_manifest",
    "check_manifest",
    "error_breakdown",
    "failure_summary",
    "false_negatives",
    "false_positives",
    "figure3",
    "merge_resumed_report",
    "replay_entry",
    "report_to_csv",
    "report_to_json",
    "run_evaluation",
    "run_evaluation_parallel",
    "score",
    "score_boundaries",
    "table1",
    "table2",
    "table3",
]
