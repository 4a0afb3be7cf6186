"""Ranked probabilistic what-if sweeps: "does it hold with P ≥ p?".

The driver behind ``aalwines verify --prob-threshold`` and the server's
probability parameters:

1. build the independent-event failure model (per-link probabilities,
   SRLGs as single events — :mod:`repro.prob.model`);
2. enumerate scenarios best-first by probability
   (:mod:`repro.prob.enumerate`), up to a scenario budget;
3. lower them to farm jobs (one per distinct failed-link set, carrying
   its total probability mass — :func:`repro.farm.scenarios.
   probabilistic_scenarios`) and run them on the existing worker pool;
4. account satisfied/unsatisfied/uncertain mass in a
   :class:`~repro.prob.mass.MassTracker` and **stop early** once the
   verdict can no longer flip (see :mod:`repro.prob.mass` for why the
   bounds are sound).

The result carries the bounds, the most likely witness trace (from the
most probable scenario where the query held) and the most likely
counterexample scenario (the most probable way it broke). Steps 1–2,
with the checks of the sweep's parameters, are :func:`plan_sweep`,
which the server's ``POST /jobs`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ProbError
from repro.model.network import MplsNetwork
from repro.model.quantities import DEFAULT_FAILURE_PROBABILITY
from repro.model.srlg import SharedRiskGroups
from repro.model.trace import Trace
from repro.prob.enumerate import FailureScenario, best_first_scenarios
from repro.prob.mass import MassTracker, ProbVerdict
from repro.prob.model import FailureModel
from repro.query.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.farm.pool import EngineConfig


@dataclass
class ScenarioOutcome:
    """One verified failed-link set with its aggregated probability mass."""

    #: Links failed in this scenario group (sorted names).
    failed_links: Tuple[str, ...]
    #: Total probability of the enumerated scenarios with this link set.
    mass: float
    #: "satisfied" / "unsatisfied" / "inconclusive" / "timeout" / "error".
    outcome: str
    seconds: float = 0.0
    #: Witness trace, when satisfied and available.
    trace: Optional[Trace] = None


@dataclass
class ProbSweepResult:
    """Outcome of one probabilistic sweep."""

    query: str
    threshold: Optional[float]
    verdict: ProbVerdict
    #: Bounds on P(query holds): true value lies in [lower, upper].
    lower: float
    upper: float
    #: Probability mass verified / not yet verified.
    covered: float
    residual: float
    scenarios_enumerated: int
    scenarios_verified: int
    early_exit: bool
    #: Witness trace of the most likely scenario where the query held.
    most_likely_witness: Optional[Trace] = None
    most_likely_witness_probability: Optional[float] = None
    #: Most likely failed-link set under which the query did not hold.
    most_likely_counterexample: Optional[Tuple[str, ...]] = None
    most_likely_counterexample_probability: Optional[float] = None
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable rendering (used by the CLI)."""
        parts = [f"P(holds) ∈ [{self.lower:.6g}, {self.upper:.6g}]"]
        if self.threshold is not None:
            parts.insert(0, f"{self.verdict.value.upper()} (threshold {self.threshold:g})")
        parts.append(
            f"scenarios={self.scenarios_verified}/{self.scenarios_enumerated}"
        )
        parts.append(f"residual={self.residual:.3g}")
        if self.early_exit:
            parts.append("early-exit")
        return "  ".join(parts)


def plan_sweep(
    network: MplsNetwork,
    query: str,
    threshold: Optional[float] = None,
    default: float = DEFAULT_FAILURE_PROBABILITY,
    groups: Optional[SharedRiskGroups] = None,
    group_probabilities: Optional[Mapping[str, float]] = None,
    links: Optional[Sequence[str]] = None,
    max_scenarios: int = 512,
    residual_target: float = 1e-9,
) -> List[FailureScenario]:
    """Check a probabilistic sweep's parameters and enumerate its scenarios.

    Builds the failure model and enumerates scenarios best-first until
    ``max_scenarios`` or a residual mass of ``residual_target``; returns
    them in probability order, for
    :func:`repro.farm.scenarios.probabilistic_scenarios` to lower. Raises
    on a query that does not parse, and :class:`ProbError` on a
    threshold outside [0, 1] or a non-positive scenario budget.
    """
    parse_query(query)
    if threshold is not None and not (0.0 <= threshold <= 1.0):
        raise ProbError(f"probability threshold {threshold!r} out of range [0, 1]")
    if max_scenarios < 1:
        raise ProbError("max_scenarios must be positive")

    model = FailureModel.from_network(
        network,
        groups=groups,
        group_probabilities=group_probabilities,
        default=default,
        links=links,
    )
    enumerated: List[FailureScenario] = []
    mass_seen = 0.0
    for scenario in best_first_scenarios(model, limit=max_scenarios):
        enumerated.append(scenario)
        mass_seen += scenario.probability
        if 1.0 - mass_seen <= residual_target:
            break
    obs.add("prob.scenarios_enumerated", len(enumerated))
    return enumerated


def run_probabilistic_sweep(
    network: MplsNetwork,
    query: str,
    threshold: Optional[float] = None,
    default: float = DEFAULT_FAILURE_PROBABILITY,
    groups: Optional[SharedRiskGroups] = None,
    group_probabilities: Optional[Mapping[str, float]] = None,
    links: Optional[Sequence[str]] = None,
    max_scenarios: int = 512,
    residual_target: float = 1e-9,
    config: Optional["EngineConfig"] = None,
    max_workers: int = 1,
    timeout: Optional[float] = None,
) -> ProbSweepResult:
    """Answer "does ``query`` hold with probability ≥ ``threshold``?".

    Without a threshold the sweep simply tightens the ``[lower, upper]``
    interval until ``max_scenarios`` scenarios are enumerated or the
    residual mass drops below ``residual_target``. ``max_workers > 1``
    fans the scenario verifications out over the farm's process pool;
    early exit then cancels the not-yet-dispatched jobs.
    """
    from repro.farm.pool import run_jobs
    from repro.farm.scenarios import probabilistic_scenarios, scenarios_to_jobs

    enumerated = plan_sweep(
        network,
        query,
        threshold=threshold,
        default=default,
        groups=groups,
        group_probabilities=group_probabilities,
        links=links,
        max_scenarios=max_scenarios,
        residual_target=residual_target,
    )
    farm_scenarios, masses = probabilistic_scenarios(network, query, enumerated)
    jobs, payloads, prebuilt = scenarios_to_jobs(farm_scenarios, config, timeout)

    tracker = MassTracker(threshold=threshold)
    outcomes: List[Optional[ScenarioOutcome]] = [None] * len(jobs)

    def record(index: int, _total: int, item) -> None:
        scenario = farm_scenarios[index]
        outcomes[index] = ScenarioOutcome(
            failed_links=scenario.failed_links,
            mass=masses[index],
            outcome=item.outcome,
            seconds=item.seconds,
            trace=item.result.trace if item.result is not None else None,
        )
        tracker.record(item.outcome, masses[index])

    run_jobs(
        jobs,
        payloads,
        max_workers=max_workers,
        progress=record,
        cancelled=lambda: tracker.decided,
        prebuilt=prebuilt,
    )

    verified = [outcome for outcome in outcomes if outcome is not None]
    early_exit = tracker.decided and len(verified) < len(jobs)
    if early_exit:
        obs.add("prob.early_exits")
    obs.gauge("prob.mass_covered", tracker.covered)

    result = ProbSweepResult(
        query=query,
        threshold=threshold,
        verdict=tracker.verdict,
        lower=tracker.lower,
        upper=tracker.upper,
        covered=tracker.covered,
        residual=tracker.residual,
        scenarios_enumerated=len(enumerated),
        scenarios_verified=len(verified),
        early_exit=early_exit,
        outcomes=verified,
    )

    # Most likely witness / counterexample: the *scenarios* are already
    # probability-ordered, and each job's mass is dominated by its
    # first-seen (most likely) scenario, so scanning the per-scenario
    # probabilities keeps exactness.
    best_by_links: Dict[frozenset, float] = {}
    for scenario in enumerated:
        key = scenario.failed_links
        if key not in best_by_links:
            best_by_links[key] = scenario.probability
    witness_best = -1.0
    counter_best = -1.0
    for outcome in verified:
        peak = best_by_links.get(frozenset(outcome.failed_links), 0.0)
        if outcome.outcome == "satisfied" and peak > witness_best:
            witness_best = peak
            result.most_likely_witness = outcome.trace
            result.most_likely_witness_probability = peak
        elif outcome.outcome == "unsatisfied" and peak > counter_best:
            counter_best = peak
            result.most_likely_counterexample = outcome.failed_links
            result.most_likely_counterexample_probability = peak
    return result
