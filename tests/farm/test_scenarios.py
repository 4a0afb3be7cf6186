"""Tests for what-if scenario generation."""

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.errors import FarmError
from repro.farm.scenarios import (
    failure_scenarios,
    link_audit_scenarios,
    scenarios_to_jobs,
    suite_scenarios,
    sweep_size,
)

PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"


@pytest.fixture(scope="module")
def network():
    return build_example_network()


class TestSweepSize:
    def test_counts_combinations_and_queries(self):
        # 8 links, ≤2 failures: 1 + 8 + 28 combos.
        assert sweep_size(8, 2, query_count=1) == 37
        assert sweep_size(8, 2, query_count=3) == 111
        assert sweep_size(8, 1, query_count=1, include_baseline=False) == 8

    def test_matches_generated_sweep(self, network):
        scenarios = failure_scenarios(network, PHI0, max_failures=2)
        assert len(scenarios) == sweep_size(8, 2)


class TestFailureScenarios:
    def test_single_failure_sweep(self, network):
        scenarios = failure_scenarios(network, PHI0, max_failures=1)
        assert len(scenarios) == 9  # baseline + one per link
        names = [s.name for s in scenarios]
        assert names[0] == "query@baseline"
        assert "query@fail(e4)" in names

    def test_failure_bound_is_pinned_to_zero(self, network):
        scenarios = failure_scenarios(network, PHI0[:-1] + "2", max_failures=1)
        assert all(s.query.endswith(" 0") for s in scenarios)

    def test_degraded_network_lacks_failed_link(self, network):
        scenarios = failure_scenarios(network, PHI0, max_failures=1)
        for scenario in scenarios:
            for failed in scenario.failed_links:
                assert failed not in scenario.network.link_names()

    def test_queries_share_variant_networks(self, network):
        scenarios = failure_scenarios(
            network, list(EXAMPLE_QUERIES[:2]), max_failures=1
        )
        assert len(scenarios) == 18
        distinct = {id(s.network) for s in scenarios}
        assert len(distinct) == 9  # one per combo, shared by both queries

    def test_restricted_links(self, network):
        scenarios = failure_scenarios(
            network, PHI0, max_failures=1, links=["e1", "e4"]
        )
        assert [s.failed_links for s in scenarios] == [(), ("e1",), ("e4",)]

    def test_unknown_link_rejected(self, network):
        with pytest.raises(FarmError, match="unknown links"):
            failure_scenarios(network, PHI0, max_failures=1, links=["nope"])

    def test_limit_guards_blowup(self, network):
        with pytest.raises(FarmError, match="limit"):
            failure_scenarios(network, PHI0, max_failures=3, limit=10)

    def test_empty_queries_rejected(self, network):
        with pytest.raises(FarmError):
            failure_scenarios(network, [], max_failures=1)


class TestAuditAndSuite:
    def test_link_audit_is_one_scenario_per_link(self, network):
        scenarios = link_audit_scenarios(network, PHI0)
        assert len(scenarios) == 8
        assert all(len(s.failed_links) == 1 for s in scenarios)

    def test_suite_scenarios_keep_queries_verbatim(self, network):
        scenarios = suite_scenarios(network, list(EXAMPLE_QUERIES))
        assert len(scenarios) == 5
        assert scenarios[0].name == "phi0"
        assert scenarios[0].query == EXAMPLE_QUERIES[0][1]
        assert all(s.network is network for s in scenarios)


class TestScenariosToJobs:
    def test_distinct_networks_serialized_once(self, network):
        scenarios = failure_scenarios(
            network, list(EXAMPLE_QUERIES[:3]), max_failures=1
        )
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
        assert len(jobs) == 27
        assert len(payloads) == 1  # the baseline; jobs name their links
        assert set(payloads) == set(prebuilt)
        assert {job.network_key for job in jobs} == set(payloads)
        assert [job.failed_links for job in jobs] == [
            scenario.failed_links for scenario in scenarios
        ]

    def test_timeout_and_config_propagate(self, network):
        from repro.farm.pool import EngineConfig

        config = EngineConfig(weight="failures")
        scenarios = suite_scenarios(network, PHI0)
        jobs, _payloads, _prebuilt = scenarios_to_jobs(
            scenarios, config, timeout=2.5
        )
        assert jobs[0].config == config
        assert jobs[0].timeout == 2.5


@pytest.fixture()
def builds(monkeypatch):
    """Counts every variant network built through the farm."""
    import repro.farm.scenarios as scenarios

    names = []
    real = scenarios.degrade_network

    def counting(network, failed, name=None):
        names.append(name)
        return real(network, failed, name=name)

    monkeypatch.setattr(scenarios, "degrade_network", counting)
    return names


class TestLazyVariants:
    """A variant is its baseline and failed links until something reads
    its network: sweeps build nothing up front, and a job or a
    combination builds its variant once."""

    def test_sweeps_build_no_network(self, network, builds):
        from repro.farm.scenarios import probabilistic_scenarios
        from repro.prob.sweep import plan_sweep

        failure_scenarios(network, list(EXAMPLE_QUERIES[:2]), max_failures=1)
        enumerated = plan_sweep(network, PHI0, threshold=0.99, default=0.01)
        scenarios, _masses = probabilistic_scenarios(network, PHI0, enumerated)
        assert len(scenarios) == 209
        assert builds == []

    def test_early_exit_builds_at_most_the_verified_variants(self, network, builds):
        from repro.prob.sweep import run_probabilistic_sweep

        result = run_probabilistic_sweep(network, PHI0, threshold=0.99, default=0.01)
        assert result.early_exit
        assert result.scenarios_verified == 9
        assert result.scenarios_enumerated == 209
        assert 0 < len(builds) <= result.scenarios_verified

    def test_network_is_built_once_per_combination(self, network, builds):
        scenarios = failure_scenarios(
            network, list(EXAMPLE_QUERIES[:2]), max_failures=1
        )
        builds.clear()
        networks = [scenario.network for scenario in scenarios]
        networks += [scenario.network for scenario in scenarios]
        assert len(builds) == 8  # the baseline combination is the network
        assert len(set(builds)) == 8
        assert len({id(variant) for variant in networks}) == 9
        assert "running-example@fail(e4)" in builds

    def test_in_process_run_builds_each_variant_once(self, network, builds):
        from repro.farm.pool import run_jobs

        scenarios = failure_scenarios(
            network, list(EXAMPLE_QUERIES[:3]), max_failures=1
        )
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
        builds.clear()
        items = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
        assert "error" not in [item.outcome for item in items]
        assert sorted(builds) == sorted(set(builds))
        assert len(builds) == 8

    def test_job_store_keys_name_the_variant(self, network):
        scenarios = failure_scenarios(network, PHI0, max_failures=1)
        jobs, _payloads, _prebuilt = scenarios_to_jobs(scenarios)
        keys = [job.artifact_key for job in jobs]
        assert keys[0] == jobs[0].network_key  # the baseline's own key
        assert len(set(keys)) == len(jobs)
        again, _payloads, _prebuilt = scenarios_to_jobs(
            failure_scenarios(network, PHI0, max_failures=1)
        )
        assert [job.artifact_key for job in again] == keys
