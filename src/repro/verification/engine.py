"""The verification engines: Dual, Weighted, and the Moped baseline.

The pipeline (§4.2, Figure 3, plus a closed-form fast path)::

    query ──▶ one-step analysis (NFA products; length-1 traces involve
              no forwarding) — settles loose queries instantly and
              removes the |labels|×|links| entry blow-up from the PDA
               │ not settled (or weighted: minimum still open)
               ▼
    query ──compile──▶ over-approx PDA ──solve──▶ UNSAT?  → UNSATISFIED
                                          │ SAT
                                          ▼
                            reconstruct + feasibility check
                                          │ feasible → SATISFIED
                                          ▼ spurious
    query ──compile──▶ under-approx PDA ──solve──▶ SAT → SATISFIED
                                          │ UNSAT / spurious
                                          ▼
                                     INCONCLUSIVE

Engine flavours (matching the three columns of the paper's Table 1):

* :func:`dual_engine` — the unweighted AalWiNes engine ("Dual"):
  post* saturation with reductions and early termination;
* :func:`weighted_engine` — the quantitative engine: the same pipeline
  over a lexicographic min-plus vector semiring, whose Dijkstra-ordered
  saturation performs the guided search toward minimal witnesses;
* :func:`moped_engine` — the baseline: the same dual loop but backed by
  a *generic* pushdown model checker configuration (exhaustive pre*,
  no reductions, no early termination), standing in for Moped.

On minimality: when the over-approximation's minimal witness turns out
feasible, its weight is simultaneously a lower bound (over-approximation
explores a superset of traces) and the value of a real trace, hence the
true minimum — ``minimal_guaranteed=True``. A witness recovered from the
under-approximation is real but possibly non-minimal (the failure
counter may double-count on loops), so the flag stays False.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

from repro import obs
from repro.errors import VerificationError, WeightError
from repro.model.network import MplsNetwork
from repro.model.quantities import Quantity, link_failure_probability
from repro.model.topology import Link
from repro.pda.solver import solve_reachability
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.weights import WeightVector, parse_weight_vector
from repro.verification.compiler import (
    CompiledQuery,
    QueryCompiler,
    find_one_step_witness,
)
from repro.verification.reconstruction import ReconstructedWitness, check_witness
from repro.verification.results import EngineStats, Status, VerificationResult


#: The engines a user names (CLI ``--engine``, the server's ``"engine"``);
#: ``dual`` is the AalWiNes engine, the ``poststar`` backend.
ENGINE_NAMES = ("dual", "moped", "poststar", "prestar")

#: The static triage modes (see :class:`VerificationEngine`).
TRIAGE_MODES = ("auto", "off", "only")


def check_settings(
    backend: str, weight: Union[WeightVector, str, None], triage: str
) -> Optional[WeightVector]:
    """Validate engine settings; returns the parsed weight vector.

    Raises what building an engine from these settings would raise, so
    a farm sweep can reject them before it dispatches a single job.
    """
    if triage not in TRIAGE_MODES:
        raise VerificationError(
            f"unknown triage mode {triage!r} (expected {', '.join(TRIAGE_MODES)})"
        )
    if isinstance(weight, str):
        weight = parse_weight_vector(weight)
    elif weight is not None and not isinstance(weight, WeightVector):
        raise WeightError(f"a weight is text, not {type(weight).__name__}")
    if weight is not None and backend == "moped":
        # §4.2: "possible only if the weight requirements are not
        # specified" — Moped cannot handle weighted pushdown automata.
        raise VerificationError(
            "the Moped backend does not support weighted verification"
        )
    return weight


class VerificationEngine:
    """Configurable dual-approximation verification engine.

    Parameters mirror the design space the paper evaluates:

    * ``backend`` — saturation direction (``"poststar"`` / ``"prestar"``);
    * ``use_reductions`` — run the static PDA reductions first;
    * ``weight`` — a :class:`WeightVector` (or its textual form) enabling
      the quantitative engine; None keeps the boolean engine;
    * ``core`` — saturation representation: the dense-id ``"interned"``
      core (default) or the symbolic ``"tuple"`` reference core (used by
      the differential tests and as the benchmark baseline);
    * ``triage`` — the static triage tier (:mod:`repro.analysis.triage`):
      ``"off"`` (default) never runs it, ``"auto"`` runs it as a fast
      path and falls through to the full pipeline when inconclusive,
      ``"only"`` answers from triage alone (INCONCLUSIVE when it cannot
      prove either way) and never compiles a pushdown system.
    """

    def __init__(
        self,
        network: MplsNetwork,
        backend: str = "poststar",
        use_reductions: bool = True,
        weight: Union[WeightVector, str, None] = None,
        distance_of: Optional[Callable[[Link], int]] = None,
        name: Optional[str] = None,
        core: str = "interned",
        triage: str = "off",
    ) -> None:
        self.network = network
        self.backend = backend
        self.use_reductions = use_reductions
        if core not in ("interned", "tuple"):
            raise VerificationError(
                f"unknown solver core {core!r} (expected interned or tuple)"
            )
        self.core = core
        self.weight_vector = check_settings(backend, weight, triage)
        self.triage = triage
        self.distance_of = distance_of
        self.compiler = QueryCompiler(network, distance_of)
        self.name = name if name is not None else self._default_name()

    def attach_artifact_key(self, key: str) -> None:
        """Name this engine's network in the shared artifact store.

        Delegates to the compiler (see
        :meth:`~repro.verification.compiler.QueryCompiler.attach_artifact_key`).
        """
        self.compiler.attach_artifact_key(key)

    def _default_name(self) -> str:
        if self.weight_vector is not None:
            return f"weighted({self.weight_vector})"
        if self.backend == "prestar" and not self.use_reductions:
            return "moped"
        return "dual"

    # ------------------------------------------------------------------
    # verification pipeline
    # ------------------------------------------------------------------
    def verify(
        self,
        query: Union[Query, str],
        timeout_seconds: Optional[float] = None,
    ) -> VerificationResult:
        """Answer one query; raises
        :class:`repro.errors.VerificationTimeout` past the time budget."""
        with obs.span("verify", engine=self.name):
            result = self._verify(query, timeout_seconds)
        if obs.enabled():
            obs.add("engine.queries")
            obs.add(f"engine.verdicts.{result.status.value}")
        return result

    def _verify(
        self,
        query: Union[Query, str],
        timeout_seconds: Optional[float],
    ) -> VerificationResult:
        if isinstance(query, str):
            with obs.span("parse"):
                query = parse_query(query)
        start = time.perf_counter()
        deadline = start + timeout_seconds if timeout_seconds is not None else None
        stats = EngineStats()

        # Static triage tier: prove the verdict before any PDA is built.
        if self.triage != "off":
            from repro.analysis.triage import TriageVerdict, run_triage

            with obs.span("triage", engine=self.name):
                triaged = run_triage(self.network, query)
            stats.triage_seconds = triaged.elapsed_seconds
            stats.triage_verdict = triaged.verdict.value
            if triaged.verdict is TriageVerdict.PROVEN_NO:
                # Sound even for weighted engines: no trace exists, so
                # there is no minimum to report either.
                stats.total_seconds = time.perf_counter() - start
                return VerificationResult(query, Status.UNSATISFIED, stats=stats)
            if triaged.verdict is TriageVerdict.PROVEN_YES and triaged.trace is not None:
                # Weighted "auto" engines must keep going: the triage
                # witness is real but not necessarily minimal.
                if self.weight_vector is None or self.triage == "only":
                    stats.total_seconds = time.perf_counter() - start
                    return self._satisfied(
                        query,
                        ReconstructedWitness(triaged.trace, frozenset()),
                        stats,
                        minimal=False,
                    )
            if self.triage == "only":
                stats.total_seconds = time.perf_counter() - start
                return VerificationResult(query, Status.INCONCLUSIVE, stats=stats)

        # Phase 0: one-step traces in closed form (the pushdown encoding
        # only covers traces of length ≥ 2 — see find_one_step_witness).
        with obs.span("one_step"):
            one_step = find_one_step_witness(
                self.network, query, self.weight_vector, self.distance_of
            )
        if one_step is not None and self.weight_vector is None:
            # Unweighted: any witness settles the query; skip the PDA.
            trace, _ = one_step
            stats.total_seconds = time.perf_counter() - start
            obs.add("engine.one_step_hits")
            return self._satisfied(
                query,
                ReconstructedWitness(trace, frozenset()),
                stats,
                minimal=True,
            )

        # Phase A: over-approximation.
        compile_start = time.perf_counter()
        over = self.compiler.compile(query, mode="over", weight_vector=self.weight_vector)
        stats.compile_over_seconds = time.perf_counter() - compile_start
        stats.over_rules = over.pds.rule_count()

        outcome = self._solve(over, deadline)
        stats.over_solver = outcome.stats
        if not outcome.reachable:
            stats.total_seconds = time.perf_counter() - start
            if one_step is not None:
                # No multi-step trace at all: the one-step one is minimal.
                trace, _ = one_step
                return self._satisfied(
                    query, ReconstructedWitness(trace, frozenset()), stats, minimal=True
                )
            return VerificationResult(query, Status.UNSATISFIED, stats=stats)

        if one_step is not None:
            # Weighted: when the one-step witness is at least as cheap as
            # the over-approximation's minimum, it is the global minimum
            # (one-step witnesses are always feasible).
            trace, weight = one_step
            if weight is not None and not (outcome.weight < weight):
                stats.total_seconds = time.perf_counter() - start
                return self._satisfied(
                    query, ReconstructedWitness(trace, frozenset()), stats, minimal=True
                )

        witness = check_witness(over, outcome.rules)
        if witness.feasible:
            stats.total_seconds = time.perf_counter() - start
            return self._satisfied(query, witness, stats, minimal=True)

        # Phase B: under-approximation.
        stats.used_under_approximation = True
        obs.add("engine.under_phase_runs")
        compile_start = time.perf_counter()
        under = self.compiler.compile(
            query, mode="under", weight_vector=self.weight_vector
        )
        stats.compile_under_seconds = time.perf_counter() - compile_start
        stats.under_rules = under.pds.rule_count()

        under_outcome = self._solve(under, deadline)
        stats.under_solver = under_outcome.stats
        stats.total_seconds = time.perf_counter() - start
        if under_outcome.reachable:
            under_witness = check_witness(under, under_outcome.rules)
            if under_witness.feasible:
                if one_step is not None:
                    # Report the cheaper of the two real witnesses; the
                    # spurious over-minimum below both prevents a
                    # minimality guarantee either way.
                    trace, weight = one_step
                    if weight is not None and not (under_outcome.weight < weight):
                        return self._satisfied(
                            query,
                            ReconstructedWitness(trace, frozenset()),
                            stats,
                            minimal=False,
                        )
                return self._satisfied(query, under_witness, stats, minimal=False)

        if one_step is not None:
            trace, _weight = one_step
            return self._satisfied(
                query, ReconstructedWitness(trace, frozenset()), stats, minimal=False
            )
        return VerificationResult(query, Status.INCONCLUSIVE, stats=stats)

    def _solve(self, compiled: CompiledQuery, deadline: Optional[float]):
        if self.backend == "moped":
            from repro.verification.moped import solve_with_moped

            return solve_with_moped(
                compiled.pds,
                compiled.initial,
                compiled.target,
                use_reductions=self.use_reductions,
                deadline=deadline,
            )
        return solve_reachability(
            compiled.pds,
            compiled.semiring,
            compiled.initial,
            compiled.target,
            method=self.backend,
            use_reductions=self.use_reductions,
            want_witness=True,
            deadline=deadline,
            core=self.core,
        )

    def _satisfied(
        self,
        query: Query,
        witness: ReconstructedWitness,
        stats: EngineStats,
        minimal: bool,
    ) -> VerificationResult:
        weight = None
        witness_probability = None
        if self.weight_vector is not None:
            weight = self.weight_vector.evaluate_trace(
                self.network, witness.trace, self.distance_of
            )
            if (
                Quantity.LIKELIHOOD in self.weight_vector.quantities()
                and witness.failure_set is not None
            ):
                witness_probability = 1.0
                for link in witness.failure_set:
                    witness_probability *= link_failure_probability(link)
        return VerificationResult(
            query,
            Status.SATISFIED,
            trace=witness.trace,
            failure_set=witness.failure_set,
            weight=weight,
            minimal_guaranteed=minimal and self.weight_vector is not None,
            witness_probability=witness_probability,
            stats=stats,
        )


# ----------------------------------------------------------------------
# factory helpers matching the paper's engine names
# ----------------------------------------------------------------------


def dual_engine(network: MplsNetwork, **kwargs) -> VerificationEngine:
    """The unweighted AalWiNes engine (the paper's "Dual" column)."""
    return VerificationEngine(network, name="dual", **kwargs)


def weighted_engine(
    network: MplsNetwork,
    weight: Union[WeightVector, str] = "failures",
    **kwargs,
) -> VerificationEngine:
    """The quantitative engine (the paper's "Failures" column defaults to
    minimizing the number of failed links)."""
    return VerificationEngine(network, weight=weight, name="weighted", **kwargs)


def likelihood_engine(network: MplsNetwork, **kwargs) -> VerificationEngine:
    """The probability-ranking engine: minimizes the scaled
    neg-log-probability of the failures a trace relies on, so the minimal
    witness is the *most likely* way the queried behaviour can occur
    (see :mod:`repro.prob`). Results carry ``witness_probability``."""
    return VerificationEngine(
        network,
        weight=WeightVector.of(Quantity.LIKELIHOOD),
        name="likelihood",
        **kwargs,
    )


def moped_engine(network: MplsNetwork, **kwargs) -> VerificationEngine:
    """The generic-model-checker baseline (the paper's "Moped" column).

    Per Figure 3 of the paper the reduced pushdown is *sent* to Moped,
    so reductions stay on; the costs specific to this backend are the
    textual serialization boundary and the exhaustive, non-early-
    terminating fixpoint — see :mod:`repro.verification.moped`.
    """
    return VerificationEngine(
        network,
        backend="moped",
        name="moped",
        **kwargs,
    )
