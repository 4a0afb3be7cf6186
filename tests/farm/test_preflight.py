"""Tests for pre-flight linting of farm sweeps and batches.

Pre-flight attaches :mod:`repro.analysis` findings to scenarios, batch
items and job snapshots so a sweep's what-if verdicts arrive alongside
the static defects of each degraded variant.
"""

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.farm.jobs import DONE, JobManager, RunPlan
from repro.farm.scenarios import (
    failure_scenarios,
    preflight_index,
    preflight_scenarios,
    scenarios_to_jobs,
    suite_scenarios,
)
from repro.verification.batch import BatchVerifier
from repro.verification.engine import VerificationEngine

PHI0 = EXAMPLE_QUERIES[0][1]


@pytest.fixture(scope="module")
def network():
    return build_example_network()


class TestScenarioPreflight:
    def test_default_sweep_attaches_nothing(self, network):
        for scenario in failure_scenarios(network, PHI0, max_failures=1):
            assert scenario.diagnostics == ()

    def test_preflight_attaches_findings(self, network):
        scenarios = failure_scenarios(
            network, PHI0, max_failures=1, preflight=True
        )
        by_name = {s.name: s for s in scenarios}
        # The intact example carries the deliberate DP006 overlap.
        baseline = by_name["query@baseline"]
        assert [d.code for d in baseline.diagnostics] == ["DP006"]
        # Failing e5 exhausts a protection chain: the degraded variant
        # lints as a DP001 black hole on top of the overlap.
        codes = {d.code for d in by_name["query@fail(e5)"].diagnostics}
        assert "DP001" in codes

    def test_variants_are_linted_once(self, network, monkeypatch):
        from repro.analysis import analyze as real_analyze

        calls = []

        def counting(net, *args, **kwargs):
            calls.append(net)
            return real_analyze(net, *args, **kwargs)

        import repro.analysis

        monkeypatch.setattr(repro.analysis, "analyze", counting)
        queries = [PHI0, EXAMPLE_QUERIES[1][1], EXAMPLE_QUERIES[2][1]]
        scenarios = failure_scenarios(
            network, queries, max_failures=1, preflight=True
        )
        variants = {id(s.network) for s in scenarios}
        # One network lint per variant, plus one DP007 query lint per
        # (variant, query) pair, so no variant or query pays twice.
        assert len(calls) == len(variants) * (1 + len(queries))
        assert len(scenarios) == len(variants) * len(queries)

    def test_suite_preflight(self, network):
        scenarios = suite_scenarios(network, [PHI0], preflight=True)
        assert [d.code for d in scenarios[0].diagnostics] == ["DP006"]

    def test_preflight_scenarios_is_idempotent(self, network):
        once = preflight_scenarios(suite_scenarios(network, [PHI0]))
        twice = preflight_scenarios(once)
        assert [s.diagnostics for s in once] == [s.diagnostics for s in twice]

    def test_preflight_index(self, network):
        scenarios = suite_scenarios(network, [PHI0, PHI0], preflight=True)
        index = preflight_index(scenarios)
        assert set(index) == {0, 1}
        assert all(d.code == "DP006" for ds in index.values() for d in ds)
        assert preflight_index(suite_scenarios(network, [PHI0])) == {}


class TestJobManagerPreflight:
    def test_snapshot_surfaces_findings(self, network):
        manager = JobManager()
        try:
            scenarios = suite_scenarios(network, [PHI0], preflight=True)
            jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
            run = manager.submit(
                len(jobs),
                lambda: RunPlan(
                    jobs, payloads, prebuilt, preflight=preflight_index(scenarios)
                ),
            )
            assert run.wait(timeout=120)
            assert run.state == DONE
            document = run.snapshot()
            assert document["preflight"]["flagged"] == 1
            assert document["preflight"]["diagnostics"] == 1
            assert document["items"][0]["diagnostics"][0]["code"] == "DP006"
        finally:
            manager.shutdown(timeout=10)

    def test_no_preflight_keeps_snapshot_unchanged(self, network):
        manager = JobManager()
        try:
            scenarios = suite_scenarios(network, [PHI0])
            jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
            run = manager.submit(
                len(jobs), lambda: RunPlan(jobs, payloads, prebuilt)
            )
            assert run.wait(timeout=120)
            document = run.snapshot()
            assert "preflight" not in document
            assert "diagnostics" not in document["items"][0]
        finally:
            manager.shutdown(timeout=10)


class TestBatchPreflight:
    def test_serial_batch_attaches_diagnostics(self, network):
        verifier = BatchVerifier(VerificationEngine(network), preflight=True)
        items, summary = verifier.run([PHI0])
        assert summary.satisfied == 1
        assert [d.code for d in items[0].diagnostics] == ["DP006"]

    def test_parallel_batch_attaches_diagnostics(self, network):
        verifier = BatchVerifier(
            VerificationEngine(network), jobs=2, preflight=True
        )
        items, summary = verifier.run([PHI0, EXAMPLE_QUERIES[1][1]])
        assert summary.total == 2
        for item in items:
            assert [d.code for d in item.diagnostics] == ["DP006"]

    def test_batch_default_attaches_nothing(self, network):
        verifier = BatchVerifier(VerificationEngine(network))
        items, _summary = verifier.run([PHI0])
        assert items[0].diagnostics == ()
