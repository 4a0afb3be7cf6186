"""Weighted post* saturation (forward reachability), interned core.

Implements the generalized post* algorithm of Reps–Schwoon–Jha–Melski
[33] / Schwoon's thesis [35], run Dijkstra-style: the worklist is a
priority queue ordered by weight, so every automaton transition is
finalized with its *minimal* weight the first time it is popped. This
is both asymptotically efficient and realizes the paper's guided search
toward minimal-weight (e.g. fewest-failures) witnesses; it also enables
sound early termination the moment the target configuration's
transition is finalized.

Given a PDS and an initial P-automaton ``A`` (no transitions into
control states, no ε-transitions), the saturated automaton accepts
exactly ``post*(L(A))`` with meet-over-all-runs weights.

The loop runs on the dense-integer representation: symbolic arguments
are interned at entry, rule lookup goes through the system's CSR-style
:meth:`~repro.pda.system.PushdownSystem.head_index`, and every automaton
transition is a packed int (see :mod:`repro.pda.intern`). The tuple
twin of this loop lives in :mod:`repro.pda.reference`; both must relax
in the same order so their equal-weight tie-breaking — and hence their
witnesses — coincide exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import PdaError, VerificationTimeout
from repro.pda.automaton import IntPAutomaton, State, WeightedPAutomaton
from repro.pda.intern import EPSILON_ID, MASK, SHIFT
from repro.pda.semiring import Semiring
from repro.pda.system import PushdownSystem

#: Marker distinguishing the synthetic mid-states of push rules.
_MID = "__post*__"


def mid_state(to_state: State, symbol: Any) -> Tuple[str, State, Any]:
    """The unique extra state ``q_{p',γ'}`` for a push-rule head."""
    return (_MID, to_state, symbol)


@dataclass
class SaturationResult:
    """Outcome of a saturation run."""

    automaton: Union[IntPAutomaton, WeightedPAutomaton]
    #: Number of transitions finalized.
    iterations: int
    #: True when the run stopped early because the target was finalized.
    early_terminated: bool

    @property
    def transition_count(self) -> int:
        return self.automaton.transition_count()


def observed(result: SaturationResult, method: str) -> SaturationResult:
    """Fold a finished saturation into the global metrics.

    Purely observational — the result passes through untouched, and all
    accounting happens *after* the saturation loop so the hot path pays
    nothing (one branch here) while observation is off.
    """
    if obs.enabled():
        obs.add(f"pda.{method}.runs")
        obs.add("pda.saturation_iterations", result.iterations)
        obs.add("pda.transitions_added", result.automaton.transition_count())
        if result.early_terminated:
            obs.add("pda.early_terminations")
    return result


def poststar(
    pds: PushdownSystem,
    semiring: Semiring,
    initial_transitions: Sequence[Tuple[State, Any, State]],
    final_states: Iterable[State],
    target: Optional[Tuple[State, Any]] = None,
    max_steps: Optional[int] = None,
    deadline: Optional[float] = None,
) -> SaturationResult:
    """Saturate ``post*`` of the configurations accepted by the initial
    automaton.

    ``initial_transitions`` and ``final_states`` describe the automaton
    ``A`` of initial configurations (symbolic values — they are interned
    into the system's tables here). If ``target = (state, symbol)`` is
    given, saturation stops as soon as a transition ``(state, symbol,
    final)`` is finalized — its weight is then already minimal.
    """
    state_table = pds.state_table
    symbol_table = pds.symbol_table
    control_ids = pds.control_state_ids
    final_ids = [state_table.intern(f) for f in final_states]
    automaton = IntPAutomaton(semiring, state_table, symbol_table, final_ids)
    one = semiring.one
    for source, symbol, target_state in initial_transitions:
        source_id = state_table.intern(source)
        symbol_id = symbol_table.intern(symbol)
        target_id = state_table.intern(target_state)
        if target_id in control_ids:
            raise PdaError(
                "initial automaton must not have transitions into control states"
            )
        if symbol_id == EPSILON_ID:
            raise PdaError("initial automaton must be ε-free")
        automaton.relax(
            (((source_id << SHIFT) | symbol_id) << SHIFT) | target_id,
            one,
            ("init",),
        )

    head_index = pds.head_index()
    head_rows = len(head_index)
    target_head = -1
    if target is not None:
        target_sid = state_table.id_of(target[0])
        target_yid = symbol_table.id_of(target[1])
        if target_sid is not None and target_yid is not None:
            target_head = (target_sid << SHIFT) | target_yid

    final_id_set = automaton.final_ids
    #: packed push head ``(to_id << SHIFT) | top_id`` → interned mid id.
    mid_ids: Dict[int, int] = {}
    extend = semiring.extend
    relax = automaton.relax
    out_edges = automaton.out_edges
    eps_by_target = automaton.eps_by_target
    weights = automaton.weights
    iterations = 0
    while True:
        popped = automaton.pop()
        if popped is None:
            return observed(
                SaturationResult(automaton, iterations, early_terminated=False),
                "poststar",
            )
        iterations += 1
        # Checked at iteration 1 and then every 512: an already-expired
        # deadline must fire even on instances that saturate in a few steps.
        if deadline is not None and iterations % 512 <= 1 and time.perf_counter() > deadline:
            raise VerificationTimeout("saturation exceeded its wall-clock deadline")
        if max_steps is not None and iterations > max_steps:
            raise PdaError(f"post* exceeded the step budget of {max_steps}")
        key, weight = popped
        target_id = key & MASK
        head = key >> SHIFT
        symbol_id = head & MASK
        source_id = head >> SHIFT

        if symbol_id == EPSILON_ID:
            # Combine the ε-transition with every edge leaving its target.
            edges = out_edges.get(target_id)
            if edges is not None:
                source_shifted = source_id << SHIFT
                target_shifted = target_id << SHIFT
                for out_symbol, out_targets in edges.items():
                    for out_target in out_targets:
                        partner = ((target_shifted | out_symbol) << SHIFT) | out_target
                        combined = extend(weight, weights[partner])
                        relax(
                            ((source_shifted | out_symbol) << SHIFT) | out_target,
                            combined,
                            ("eps", key, partner),
                        )
            continue

        if head == target_head and target_id in final_id_set:
            return observed(
                SaturationResult(automaton, iterations, early_terminated=True),
                "poststar",
            )

        # Apply every rule whose head matches the popped transition.
        row = head_index[source_id] if source_id < head_rows else None
        rules = row.get(symbol_id) if row is not None else None
        if rules is not None:
            for rule in rules:
                extended = extend(weight, rule.weight)
                push_ids = rule.push_ids
                if len(push_ids) == 1:  # swap
                    relax(
                        (((rule.to_id << SHIFT) | push_ids[0]) << SHIFT) | target_id,
                        extended,
                        ("step", rule, key),
                    )
                elif not push_ids:  # pop
                    relax(
                        ((rule.to_id << SHIFT) | EPSILON_ID) << SHIFT | target_id,
                        extended,
                        ("step", rule, key),
                    )
                else:  # push
                    top_id, below_id = push_ids
                    push_head = (rule.to_id << SHIFT) | top_id
                    middle = mid_ids.get(push_head)
                    if middle is None:
                        middle = state_table.intern(
                            (_MID, rule.to_state, rule.push[0])
                        )
                        mid_ids[push_head] = middle
                    relax(
                        (push_head << SHIFT) | middle, one, ("push-head", rule)
                    )
                    relax(
                        (((middle << SHIFT) | below_id) << SHIFT) | target_id,
                        extended,
                        ("push-tail", rule, key),
                    )

        # Combine with finalized-or-pending ε-transitions ending at `source`.
        eps_sources = eps_by_target.get(source_id)
        if eps_sources is not None:
            suffix = (symbol_id << SHIFT) | target_id
            for eps_source in eps_sources:
                eps_key = ((eps_source << SHIFT) | EPSILON_ID) << SHIFT | source_id
                combined = extend(weights[eps_key], weight)
                relax(
                    (eps_source << (2 * SHIFT)) | suffix,
                    combined,
                    ("eps", eps_key, key),
                )


def poststar_single(
    pds: PushdownSystem,
    semiring: Semiring,
    initial_state: State,
    initial_symbol: Any,
    target: Optional[Tuple[State, Any]] = None,
    max_steps: Optional[int] = None,
    deadline: Optional[float] = None,
) -> SaturationResult:
    """post* from the single configuration ``⟨initial_state, initial_symbol⟩``.

    This is the shape the network encodings use: one starting control
    state with just the stack-bottom marker.
    """
    final = ("__final__", initial_state)
    return poststar(
        pds,
        semiring,
        initial_transitions=[(initial_state, initial_symbol, final)],
        final_states=[final],
        target=target,
        max_steps=max_steps,
        deadline=deadline,
    )
