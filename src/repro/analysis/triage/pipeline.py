"""The triage pipeline: concrete witness search first, then the fixpoint.

Order matters for throughput: the bounded concrete search is one to two
orders of magnitude cheaper than the label-flow fixpoint (it touches
only the configurations a real packet reaches, and fails fast when the
initial-header language or the forwarding relation gives it nothing to
explore), and in operator sweeps most scenarios are satisfied. So
triage tries to prove YES cheaply and pays for the fixpoint only when
no witness turned up. Both passes are sound, so the order cannot change
which verdicts are *possible* — only which one is found first, and a
query where both passes could answer does not exist (a witness is a
satisfying trace; the fixpoint covers all of them).

Query-resolution errors (unknown labels or routers in literal atoms)
propagate — triage must answer the *same* question the engine would,
and the engine raises on those.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro import obs
from repro.analysis.triage.overapprox import analyze_flow
from repro.analysis.triage.result import TriageResult, TriageVerdict
from repro.analysis.triage.underapprox import SearchLimits, find_witness
from repro.model.network import MplsNetwork
from repro.query.ast import Query
from repro.query.nfa import label_nfa, link_nfa
from repro.query.parser import parse_query


def run_triage(
    network: MplsNetwork,
    query: Union[Query, str],
    limits: Optional[SearchLimits] = None,
) -> TriageResult:
    """Statically triage one query against one network.

    Returns ``PROVEN_NO`` when the over-approximate label-flow analysis
    covers no satisfying configuration, ``PROVEN_YES`` (with a concrete
    witness trace) when the bounded failure-free simulation reaches one,
    and ``INCONCLUSIVE`` otherwise. Never builds a pushdown system.
    """
    start = time.perf_counter()
    if isinstance(query, str):
        query = parse_query(query)
    a_nfa = label_nfa(query.initial_header, network)
    b_nfa = link_nfa(query.path, network)
    c_nfa = label_nfa(query.final_header, network)

    with obs.span("triage.witness"):
        trace = find_witness(network, query, a_nfa, b_nfa, c_nfa, limits)
    if trace is not None:
        result = TriageResult(
            TriageVerdict.PROVEN_YES,
            trace=trace,
            elapsed_seconds=time.perf_counter() - start,
        )
        return _record(result)

    with obs.span("triage.flow"):
        flow = analyze_flow(network, query, a_nfa, b_nfa, c_nfa)
    if flow.proven_unreachable:
        result = TriageResult(
            TriageVerdict.PROVEN_NO,
            reason=flow.reason,
            elapsed_seconds=time.perf_counter() - start,
        )
        return _record(result)

    result = TriageResult(
        TriageVerdict.INCONCLUSIVE,
        elapsed_seconds=time.perf_counter() - start,
    )
    return _record(result)


def _record(result: TriageResult) -> TriageResult:
    if obs.enabled():
        obs.add("triage.runs")
        obs.add(f"triage.{result.verdict.value}")
        if result.settled:
            obs.add("triage.saved_pipelines")
    return result
