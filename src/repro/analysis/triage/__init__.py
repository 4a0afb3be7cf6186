"""Static triage tier: prove verdicts before any pushdown system exists.

Given a network and a query, :func:`run_triage` runs two sound static
passes —

1. an **over-approximate label-flow analysis**
   (:mod:`repro.analysis.triage.overapprox`): a fixpoint over
   per-interface reachable label-set abstractions (top-of-stack set ×
   header-length interval, honoring the ≤ k failure budget through the
   routing tables' protection semantics) that can prove the query
   UNREACHABLE;
2. an **under-approximate concrete witness search**
   (:mod:`repro.analysis.triage.underapprox`): a bounded simulation over
   the active failure-free rules that can prove the query REACHABLE and
   emits a real, replayable trace —

and wraps the outcome in the three-verdict
:class:`~repro.analysis.triage.result.TriageResult` contract
(``PROVEN_YES(trace)`` / ``PROVEN_NO(reason)`` / ``INCONCLUSIVE``).
The verification engine uses it as a fast path (``triage="auto"``), the
farm to skip compiling settled scenario variants, and the linter's DP007
rule to flag statically unsatisfiable queries.

Like the rest of :mod:`repro.analysis`, nothing in this package imports
:mod:`repro.pda` or :mod:`repro.verification` — triage stays instant on
networks where saturation takes seconds.
"""

from repro.analysis.triage.overapprox import (
    AbstractHeader,
    FlowAnalysis,
    analyze_flow,
    unsatisfiable_reason,
)
from repro.analysis.triage.pipeline import run_triage
from repro.analysis.triage.result import TriageResult, TriageVerdict
from repro.analysis.triage.underapprox import SearchLimits, find_witness

__all__ = [
    "AbstractHeader",
    "FlowAnalysis",
    "SearchLimits",
    "TriageResult",
    "TriageVerdict",
    "analyze_flow",
    "find_witness",
    "run_triage",
    "unsatisfiable_reason",
]
