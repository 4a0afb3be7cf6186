"""Preflight lints each (variant, query text) pair for DP007: distinct
queries on one network are linted separately, and the findings reach
the scenario."""

import pytest

from repro.datasets.example import build_example_network
from repro.farm.scenarios import suite_scenarios

QUERY = "<ip> [.#v0] .* [v3#.] <ip> 0"


@pytest.fixture
def analyze_calls(monkeypatch):
    """Count calls into the linter's analyze entry point."""
    import repro.analysis

    calls = []
    real = repro.analysis.analyze

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.analysis, "analyze", counting)
    return calls


def test_distinct_queries_are_linted_separately(analyze_calls):
    network = build_example_network()
    suite_scenarios(network, [QUERY], preflight=True)
    runs = len(analyze_calls)
    suite_scenarios(network, ["<ip ip> .* <ip> 0"], preflight=True)
    assert len(analyze_calls) > runs


def test_preflight_attaches_dp007_findings():
    network = build_example_network()
    scenarios = suite_scenarios(
        network, [("unsat", "<ip ip> .* <ip> 0")], preflight=True
    )
    assert len(scenarios) == 1
    codes = {d.code for d in scenarios[0].diagnostics}
    assert "DP007" in codes
