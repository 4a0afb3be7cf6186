"""End-to-end tests for ranked probabilistic sweeps on the farm."""

import pytest

from repro import obs
from repro.datasets.example import build_example_network
from repro.errors import ProbError
from repro.farm.jobs import FarmRun, JobManager, RunPlan
from repro.farm.pool import EngineConfig
from repro.farm.scenarios import probabilistic_scenarios, scenarios_to_jobs
from repro.model.srlg import SharedRiskGroups, degrade_network
from repro.prob import (
    FailureModel,
    ProbVerdict,
    exhaustive_scenarios,
    run_probabilistic_sweep,
)
from repro.verification.engine import VerificationEngine

PHI_PROTECTED = "<ip> [.#v0] .* [v3#.] <ip> 2"
PHI_FRAGILE = "<ip> [.#vIn] .* <ip> 1"

ORACLE_TOLERANCE = 1e-9


def brute_force_holds_probability(network, query, links, default):
    """Independent oracle: verify the k=0-pinned query on every degraded
    network of the exhaustive sample space and sum the satisfied mass."""
    from repro.farm.scenarios import _pin_failures

    model = FailureModel.from_network(network, default=default, links=links)
    pinned = _pin_failures(query)
    by_name = {link.name: link for link in network.topology.links}
    mass = 0.0
    for scenario in exhaustive_scenarios(model):
        if scenario.failed_links:
            variant = degrade_network(
                network, {by_name[name] for name in scenario.failed_links}
            )
        else:
            variant = network
        result = VerificationEngine(variant).verify(pinned)
        if result.satisfied:
            mass += scenario.probability
    return mass


class TestThresholdVerdicts:
    def test_holds_with_early_exit(self):
        network = build_example_network()
        result = run_probabilistic_sweep(
            network, PHI_PROTECTED, threshold=0.9, default=0.01
        )
        assert result.verdict is ProbVerdict.HOLDS
        assert result.early_exit
        assert result.scenarios_verified < result.scenarios_enumerated
        assert result.lower >= 0.9
        assert result.most_likely_witness is not None
        assert result.most_likely_witness_probability == pytest.approx(
            0.99**8, rel=1e-12
        )

    def test_fails_when_baseline_breaks(self):
        network = build_example_network()
        result = run_probabilistic_sweep(
            network, PHI_FRAGILE, threshold=0.9, default=0.01
        )
        assert result.verdict is ProbVerdict.FAILS
        assert result.early_exit
        assert result.most_likely_counterexample == ()
        assert result.most_likely_counterexample_probability == pytest.approx(
            0.99**8, rel=1e-12
        )

    def test_summary_mentions_the_verdict(self):
        network = build_example_network()
        result = run_probabilistic_sweep(
            network, PHI_PROTECTED, threshold=0.9, default=0.01
        )
        summary = result.summary()
        assert "HOLDS" in summary
        assert "early-exit" in summary

    def test_bad_threshold_rejected(self):
        network = build_example_network()
        with pytest.raises(ProbError, match="out of range"):
            run_probabilistic_sweep(network, PHI_PROTECTED, threshold=1.5)

    def test_bad_scenario_budget_rejected(self):
        network = build_example_network()
        with pytest.raises(ProbError, match="max_scenarios"):
            run_probabilistic_sweep(network, PHI_PROTECTED, max_scenarios=0)


class TestOracleAgreement:
    @pytest.mark.parametrize("query", [PHI_PROTECTED, PHI_FRAGILE])
    def test_full_sweep_matches_brute_force(self, query):
        """On a small restricted model the converged interval collapses
        to the brute-force probability, to 1e-9."""
        network = build_example_network()
        links = ["e0", "e1", "e2", "e6"]
        default = 0.1
        result = run_probabilistic_sweep(
            network,
            query,
            default=default,
            links=links,
            max_scenarios=10**6,
            residual_target=0.0,
        )
        assert result.residual == pytest.approx(0.0, abs=1e-12)
        expected = brute_force_holds_probability(network, query, links, default)
        assert result.lower == pytest.approx(expected, abs=ORACLE_TOLERANCE)
        assert result.upper == pytest.approx(expected, abs=ORACLE_TOLERANCE)

    def test_interval_tightens_with_budget(self):
        network = build_example_network()
        coarse = run_probabilistic_sweep(
            network, PHI_PROTECTED, default=0.05, max_scenarios=4
        )
        fine = run_probabilistic_sweep(
            network, PHI_PROTECTED, default=0.05, max_scenarios=128
        )
        assert coarse.lower <= fine.lower + ORACLE_TOLERANCE
        assert fine.upper <= coarse.upper + ORACLE_TOLERANCE
        assert fine.covered > coarse.covered


class TestSrlgSweep:
    def test_group_fires_as_one_event_in_the_sweep(self):
        network = build_example_network()
        groups = SharedRiskGroups(network, {"span": ["e0", "e1"]})
        result = run_probabilistic_sweep(
            network,
            PHI_PROTECTED,
            default=0.01,
            groups=groups,
            max_scenarios=10**6,
            residual_target=0.0,
        )
        # 7 events (1 group + 6 singletons) → 128 scenarios, not 256.
        assert result.scenarios_enumerated == 128
        assert result.residual == pytest.approx(0.0, abs=1e-12)


class TestObservability:
    def test_counters_and_gauges(self):
        network = build_example_network()
        obs.enable()
        try:
            before = obs.snapshot()
            run_probabilistic_sweep(
                network, PHI_PROTECTED, threshold=0.9, default=0.01
            )
            delta = obs.diff_snapshots(obs.snapshot(), before)
            assert delta["counters"].get("prob.scenarios_enumerated", 0) > 0
            assert delta["counters"].get("prob.early_exits", 0) >= 1
        finally:
            obs.disable()


class TestFarmIntegration:
    def test_job_manager_prob_snapshot(self):
        network = build_example_network()
        model = FailureModel.from_network(network, default=0.01)
        from repro.prob import best_first_scenarios

        enumerated = list(best_first_scenarios(model, limit=32))
        scenarios, masses = probabilistic_scenarios(
            network, PHI_PROTECTED, enumerated
        )
        jobs, payloads, prebuilt = scenarios_to_jobs(
            scenarios, EngineConfig(), None
        )
        manager = JobManager()
        run = manager.submit(
            len(jobs),
            lambda: RunPlan(jobs, payloads, prebuilt, probabilities=masses),
            prob_threshold=0.9,
        )
        assert run.wait(60)
        snapshot = run.snapshot()
        assert run.state == "done"
        prob = snapshot["prob"]
        assert prob["verdict"] == "holds"
        assert prob["threshold"] == 0.9
        assert prob["lower"] >= 0.9
        assert prob["early_exit"] is True

    def test_misaligned_probabilities_rejected(self):
        from repro.errors import FarmError
        from repro.farm.scenarios import suite_scenarios

        network = build_example_network()
        scenarios = suite_scenarios(network, [("q", PHI_PROTECTED)])
        jobs, payloads, prebuilt = scenarios_to_jobs(
            scenarios, EngineConfig(), None
        )
        plan = RunPlan(jobs, payloads, prebuilt, probabilities=[0.5, 0.5])
        with pytest.raises(FarmError, match="align"):
            FarmRun("job-0001", len(jobs))._start(plan)
        # Submitted, the misaligned plan ends its run failed, not running.
        run = JobManager().submit(len(jobs), lambda: plan)
        assert run.wait(60)
        assert run.state == "failed"
        assert "align" in run.error
