"""The run_triage contract: verdicts, stats, and error parity."""

import pytest

from repro import obs
from repro.analysis.triage import TriageResult, TriageVerdict, run_triage
from repro.datasets.example import build_example_network
from repro.errors import AnalysisError, QuerySemanticsError, QuerySyntaxError
from repro.model.trace import check_trace


@pytest.fixture(scope="module")
def network():
    return build_example_network()


@pytest.fixture(autouse=True)
def quiet_obs():
    previous = obs.enabled()
    obs.disable()
    yield
    if previous:
        obs.enable()


def test_proven_yes_carries_trace(network):
    result = run_triage(network, "<ip> [.#v0] .* [v3#.] <ip> 0")
    assert result.verdict is TriageVerdict.PROVEN_YES
    assert result.settled
    assert result.trace is not None
    assert check_trace(network, result.trace, frozenset())
    assert result.elapsed_seconds >= 0.0


def test_proven_no_carries_reason(network):
    result = run_triage(network, "<ip ip> .* <ip> 0")
    assert result.verdict is TriageVerdict.PROVEN_NO
    assert result.settled
    assert result.reason
    assert result.trace is None


def test_inconclusive_claims_nothing(network):
    # Satisfiable only via a protection tunnel: the failure-free search
    # finds no witness and the flow cannot refute.
    result = run_triage(network, "<ip> [.#v0] .* <mpls smpls ip> 1")
    assert result.verdict is TriageVerdict.INCONCLUSIVE
    assert not result.settled
    assert result.trace is None
    assert result.reason is None


def test_result_contract_is_enforced():
    with pytest.raises(AnalysisError):
        TriageResult(TriageVerdict.PROVEN_YES)  # no trace
    with pytest.raises(AnalysisError):
        TriageResult(TriageVerdict.PROVEN_NO)  # no reason


def test_query_errors_propagate(network):
    """Triage must answer the same question the engine would — and the
    engine raises on unknown atoms and unparsable queries."""
    with pytest.raises(QuerySemanticsError):
        run_triage(network, "<s999> .* <ip> 0")
    with pytest.raises(QuerySyntaxError):
        run_triage(network, "<<<")


def test_stats_accumulate(network):
    with obs.recording():
        run_triage(network, "<ip> [.#v0] .* [v3#.] <ip> 0")
        run_triage(network, "<ip ip> .* <ip> 0")
        run_triage(network, "<ip> [.#v0] .* <mpls smpls ip> 1")
        runs = obs.counter("triage.runs")
        proven_yes = obs.counter("triage.proven_yes")
        proven_no = obs.counter("triage.proven_no")
        assert runs == 3
        assert proven_yes == 1
        assert proven_no == 1
        assert obs.counter("triage.inconclusive") == 1
        assert obs.counter("triage.saved_pipelines") == 2
    assert (proven_yes + proven_no) / runs == pytest.approx(2 / 3)


def test_obs_counters_when_enabled(network):
    with obs.recording():
        run_triage(network, "<ip> [.#v0] .* [v3#.] <ip> 0")
        run_triage(network, "<ip ip> .* <ip> 0")
        counters = obs.counters()
    assert counters.get("triage.runs") == 2
    assert counters.get("triage.proven_yes") == 1
    assert counters.get("triage.proven_no") == 1
    assert counters.get("triage.saved_pipelines") == 2
