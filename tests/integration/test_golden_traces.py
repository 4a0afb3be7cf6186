"""Golden-trace regression fixtures: builtin networks × Table-1 queries.

Every fixture under ``tests/integration/golden/`` records the exact
output — verdict, weight, witness trace hop-for-hop, failure set — of
one builtin network's Table-1-style query suite. The interned core must
reproduce the recorded answers *byte for byte*: the saturation order,
the counter-based tie-breaking and the compiler's sorted iteration
together make verification fully deterministic (independent of
``PYTHONHASHSEED``), and these fixtures pin that contract across
refactors.

Regenerate (after an intentional behavior change) with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/integration/test_golden_traces.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.datasets.queries import table1_queries
from repro.verification.engine import dual_engine, weighted_engine

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The weighted engine runs on the smaller builtins only (the fixture
#: sweep stays a few seconds); dual covers all five.
WEIGHTED_NETWORKS = ("example", "abilene", "nsfnet")


def _case_payload(result):
    """The canonical JSON form of one verification answer."""
    payload = {"status": result.status.value}
    if result.weight is not None:
        payload["weight"] = list(result.weight)
    if result.trace is not None:
        payload["trace"] = [
            {
                "link": step.link.name,
                "header": [str(label) for label in step.header.labels],
            }
            for step in result.trace.steps
        ]
        payload["failures"] = sorted(
            link.name for link in (result.failure_set or frozenset())
        )
    return payload


def _network_payload(name, core="interned"):
    network = load_builtin(name)
    payload = {}
    for query in table1_queries(network):
        entry = {"query": query.text}
        entry["dual"] = _case_payload(
            dual_engine(network, core=core).verify(query.text)
        )
        if name in WEIGHTED_NETWORKS:
            entry["weighted"] = _case_payload(
                weighted_engine(network, weight="hops, failures", core=core).verify(
                    query.text
                )
            )
        payload[query.name] = entry
    return payload


def _fixture_path(name):
    return GOLDEN_DIR / f"{name}.json"


REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


@pytest.mark.parametrize("name", BUILTIN_NETWORKS)
def test_golden_traces(name):
    path = _fixture_path(name)
    actual = _network_payload(name)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with REPRO_REGEN_GOLDEN=1"
    )
    expected = json.loads(path.read_text())
    # Compare via canonical JSON so a mismatch diff is line-oriented.
    assert json.dumps(actual, indent=2, sort_keys=True) == json.dumps(
        expected, indent=2, sort_keys=True
    ), f"golden trace drift on {name}"


@pytest.mark.parametrize("name", BUILTIN_NETWORKS)
def test_tuple_core_replays_golden_traces(name):
    """The tuple oracle reproduces the recorded interned answers byte for
    byte, so a regen can never pin a divergence between the cores."""
    expected = json.loads(_fixture_path(name).read_text())
    assert _network_payload(name, core="tuple") == expected, (
        f"tuple core diverged from the golden traces on {name}"
    )


def test_fixtures_cover_every_builtin():
    missing = [
        name for name in BUILTIN_NETWORKS if not _fixture_path(name).exists()
    ]
    assert not missing, f"builtins without golden fixtures: {missing}"


def test_fixtures_contain_real_traces():
    """The pinned corpus must include actual witnesses — an all-negative
    fixture set would regress silently."""
    traced = 0
    for name in BUILTIN_NETWORKS:
        payload = json.loads(_fixture_path(name).read_text())
        for entry in payload.values():
            if "trace" in entry.get("dual", {}):
                traced += 1
    assert traced >= len(BUILTIN_NETWORKS)
