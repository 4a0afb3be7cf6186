"""Reachability facade over the saturation engines.

:func:`solve_reachability` answers a single weighted reachability
question ``⟨p0, γ0⟩ →* ⟨pf, γf⟩`` on a pushdown system, optionally
applying reductions first, choosing the saturation direction, and
reconstructing the minimal-weight rule run. This is the entry point the
verification layer calls; it is also usable standalone as a small
weighted-PDS library.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro import obs
from repro.errors import PdaError
from repro.pda.poststar import poststar_single
from repro.pda.prestar import prestar_single
from repro.pda.reductions import ReductionReport, reduce_pushdown
from repro.pda.reference import (
    reference_poststar_single,
    reference_prestar_single,
    reference_reduce_pushdown,
)
from repro.pda.semiring import Semiring
from repro.pda.system import Configuration, PushdownSystem, Rule, run_rules
from repro.pda.witness import reconstruct_poststar_run, reconstruct_prestar_run

State = Hashable
Symbol = Hashable


@dataclass
class SolverStats:
    """Observability data for benchmarks and the CLI's ``--stats``."""

    method: str
    rules_before: int
    rules_after: int
    saturation_iterations: int = 0
    automaton_transitions: int = 0
    early_terminated: bool = False
    elapsed_seconds: float = 0.0
    reduction: Optional[ReductionReport] = None


@dataclass
class ReachabilityOutcome:
    """Answer to one reachability question."""

    reachable: bool
    #: Minimal run weight (semiring zero when unreachable).
    weight: Any
    #: The minimal-weight rule run, when requested and reachable.
    rules: Optional[Tuple[Rule, ...]]
    stats: SolverStats


def solve_reachability(
    pds: PushdownSystem,
    semiring: Semiring,
    initial: Tuple[State, Symbol],
    target: Tuple[State, Symbol],
    method: str = "poststar",
    use_reductions: bool = True,
    early_termination: bool = True,
    want_witness: bool = True,
    max_steps: Optional[int] = None,
    deadline: Optional[float] = None,
    core: str = "interned",
) -> ReachabilityOutcome:
    """Decide ``⟨initial⟩ →* ⟨target⟩`` and return weight plus witness run.

    ``method`` selects the saturation direction: ``"poststar"`` (forward,
    the AalWiNes engine's choice — supports guided search and early
    termination toward the single target) or ``"prestar"`` (backward, the
    generic model-checker strategy used by the Moped baseline).

    ``core`` selects the saturation implementation: ``"interned"`` (the
    dense-integer-id engine, default) or ``"tuple"`` (the symbolic
    reference twin in :mod:`repro.pda.reference`). Both must produce
    identical outcomes — the differential tests and the interning
    benchmark rely on this switch.
    """
    if method not in ("poststar", "prestar"):
        raise PdaError(f"unknown solver method {method!r}")
    if core not in ("interned", "tuple"):
        raise PdaError(f"unknown solver core {core!r}")
    interned = core == "interned"
    start_time = time.perf_counter()
    initial_state, initial_symbol = initial
    target_state, target_symbol = target

    reduction_report: Optional[ReductionReport] = None
    system = pds
    if use_reductions:
        with obs.span("reduce"):
            reducer = reduce_pushdown if interned else reference_reduce_pushdown
            system, reduction_report = reducer(
                pds, initial_state, initial_symbol, target_state
            )
        if obs.enabled():
            obs.add("pda.rules_removed", pds.rule_count() - system.rule_count())

    poststar_fn = poststar_single if interned else reference_poststar_single
    prestar_fn = prestar_single if interned else reference_prestar_single
    with obs.span("saturate", method=method):
        if method == "poststar":
            result = poststar_fn(
                system,
                semiring,
                initial_state,
                initial_symbol,
                target=(target_state, target_symbol) if early_termination else None,
                max_steps=max_steps,
                deadline=deadline,
            )
            weight, path = result.automaton.accept_weight(
                target_state, (target_symbol,)
            )
        else:
            result = prestar_fn(
                system,
                semiring,
                target_state,
                target_symbol,
                source=(initial_state, initial_symbol) if early_termination else None,
                max_steps=max_steps,
                deadline=deadline,
            )
            weight, path = result.automaton.accept_weight(
                initial_state, (initial_symbol,)
            )

    reachable = not semiring.is_zero(weight)
    rules: Optional[Tuple[Rule, ...]] = None
    if reachable and want_witness and path is not None:
        with obs.span("reconstruct"):
            if method == "poststar":
                rules = reconstruct_poststar_run(result.automaton, path)
            else:
                rules = reconstruct_prestar_run(result.automaton, path)
            _check_replay(rules, initial, target)

    stats = SolverStats(
        method=method,
        rules_before=pds.rule_count(),
        rules_after=system.rule_count(),
        saturation_iterations=result.iterations,
        automaton_transitions=result.automaton.transition_count(),
        early_terminated=result.early_terminated,
        elapsed_seconds=time.perf_counter() - start_time,
        reduction=reduction_report,
    )
    return ReachabilityOutcome(reachable, weight, rules, stats)


def _check_replay(
    rules: Tuple[Rule, ...],
    initial: Tuple[State, Symbol],
    target: Tuple[State, Symbol],
) -> None:
    """Soundness assertion: the reconstructed run really connects the two
    configurations."""
    configurations = run_rules(
        Configuration(initial[0], (initial[1],)), rules
    )
    final = configurations[-1]
    if final.state != target[0] or final.stack != (target[1],):
        raise PdaError(
            f"witness replay reached {final!r} instead of "
            f"<{target[0]}, {target[1]}>"
        )
