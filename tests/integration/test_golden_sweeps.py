"""Golden *sweep* fixtures: per-variant verdicts for the link audits.

The trace fixtures (:mod:`tests.integration.test_golden_traces`) pin
single-network verification; these pin **sweep mode** — the per-link
``k = 1`` audit over every builtin (106 jobs on nordunet), executed
through the farm exactly as a production sweep runs, with triage off so
every variant is saturated. Every fixture under
``tests/integration/golden/`` records, per failed-link scenario, the
verdict plus a digest of the full answer (status, weight, trace
hop-for-hop, failure set), so drift in any variant's answer fails
loudly in CI rather than silently skewing sweep reports.

Regenerate (after an intentional behavior change) with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/integration/test_golden_sweeps.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.datasets.queries import generate_query_suite
from repro.farm.pool import EngineConfig, run_jobs
from repro.farm.scenarios import link_audit_scenarios, scenarios_to_jobs
from repro.verification.engine import VerificationEngine
from tests.integration.test_golden_traces import _case_payload

GOLDEN_DIR = Path(__file__).parent / "golden"

REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: One audit query per builtin — the generated suite's ``q000_ip_k0``
#: (seed 99), chosen because it yields a mixed verdict profile on the
#: mid-size builtins while keeping the five audits a few seconds total.
AUDIT_QUERY = "q000_ip_k0"


def _audit_query(network):
    suite = generate_query_suite(network, count=8, seed=99, include_unconstrained=True)
    return next(g for g in suite if g.name == AUDIT_QUERY)


def _sweep_payload(name):
    """Run the full per-link audit through the farm's serial path and
    canonicalize every scenario's answer."""
    network = load_builtin(name)
    query = _audit_query(network)
    scenarios = link_audit_scenarios(network, [(query.name, query.text)])
    config = EngineConfig(triage="off")
    jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, config=config)
    items = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
    payload = {"query": query.text, "scenarios": {}}
    for item in items:
        assert item is not None and item.outcome in (
            "satisfied",
            "unsatisfied",
            "inconclusive",
        ), f"{name}/{item.name}: sweep job failed: {item.error}"
        payload["scenarios"][item.name] = _scenario_entry(item.result)
    return payload


def _scenario_entry(result):
    """One scenario's verdict plus a digest of its full answer."""
    case = _case_payload(result)
    digest = hashlib.sha256(
        json.dumps(case, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {"status": case["status"], "digest": digest}


def _fixture_path(name):
    return GOLDEN_DIR / f"sweep_{name}.json"


@pytest.mark.parametrize("name", BUILTIN_NETWORKS)
def test_golden_sweep_verdicts(name):
    path = _fixture_path(name)
    actual = _sweep_payload(name)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden sweep fixture {path}; run with REPRO_REGEN_GOLDEN=1"
    )
    expected = json.loads(path.read_text())
    assert json.dumps(actual, indent=2, sort_keys=True) == json.dumps(
        expected, indent=2, sort_keys=True
    ), f"golden sweep drift on {name}"


def test_tuple_core_matches_sweep_fixture():
    """The tuple oracle, run scenario by scenario outside the farm, lands
    on the recorded per-variant digests: the cross-core drift tripwire
    for sweeps."""
    name = "abilene"
    network = load_builtin(name)
    query = _audit_query(network)
    actual = {"query": query.text, "scenarios": {}}
    for scenario in link_audit_scenarios(network, [(query.name, query.text)]):
        engine = VerificationEngine(scenario.network, core="tuple", triage="off")
        actual["scenarios"][scenario.name] = _scenario_entry(
            engine.verify(scenario.query)
        )
    expected = json.loads(_fixture_path(name).read_text())
    assert actual == expected, "tuple core and farm sweep diverged"


def test_sweep_fixtures_cover_every_builtin():
    missing = [
        name for name in BUILTIN_NETWORKS if not _fixture_path(name).exists()
    ]
    assert not missing, f"builtins without golden sweep fixtures: {missing}"


def test_sweep_fixtures_are_not_degenerate():
    """The audits must contain both verdicts somewhere (an all-negative
    or all-positive fixture set would pin nothing useful), and the
    nordunet audit must span its full 106 links."""
    statuses = set()
    for name in BUILTIN_NETWORKS:
        payload = json.loads(_fixture_path(name).read_text())
        statuses.update(
            entry["status"] for entry in payload["scenarios"].values()
        )
    assert {"satisfied", "unsatisfied"} <= statuses
    nordunet = json.loads(_fixture_path("nordunet").read_text())
    assert len(nordunet["scenarios"]) == 106
