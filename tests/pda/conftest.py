"""Shared corpus generators for the PDA-level differential harnesses.

Three suites used to carry private copies of the same generators — the
dual/Moped fuzz harness (synthesized ring networks), the triage
differential (builtin networks × generated queries) and the interning
properties (builtin subset, different seed). This module is the single
source for all of them:

* :func:`small_fuzz_graph` / :func:`synthesized_network` — seeded
  6-node ring-with-chords dataplanes (topology, LSP mesh, failover
  priorities and service tunnels all derive from the seed);
* :func:`query_corpus` — the generated query suite for any network,
  memoized per (network identity, parameters);
* :func:`builtin_network` — memoized builtin loading.

Everything is deterministic in its seed arguments so CI's fixed seed
matrix (``REPRO_FUZZ_SEEDS``) reproduces failures exactly.
"""

import pytest

from repro import obs
from repro.datasets.builtins import load_builtin
from repro.datasets.graphs import EdgeSpec, GraphSpec, NodeSpec
from repro.datasets.queries import generate_query_suite
from repro.datasets.synthesis import SynthesisOptions, synthesize_network

#: Default seeds of the synthesized-network fuzz corpus. Overridable via
#: the REPRO_FUZZ_SEEDS env var ("11,23,47") so CI can run a seed matrix
#: without touching the code.
DEFAULT_FUZZ_SEEDS = (11, 23, 47)

#: Every saturation core the engine can select. The differential
#: harnesses quantify over this tuple so a new core cannot land without
#: joining the equivalence matrix.
CORE_MATRIX = ("tuple", "interned")


def fuzz_seeds():
    import os

    raw = os.environ.get("REPRO_FUZZ_SEEDS")
    if not raw:
        return DEFAULT_FUZZ_SEEDS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def small_fuzz_graph(seed: int) -> GraphSpec:
    """A 6-node ring with two seed-chosen chords (deterministic)."""
    names = [f"n{i}" for i in range(6)]
    nodes = tuple(
        NodeSpec(name, latitude=float(i), longitude=float((i * 7) % 5))
        for i, name in enumerate(names)
    )
    edges = [
        EdgeSpec(names[i], names[(i + 1) % len(names)]) for i in range(len(names))
    ]
    chords = [(0, 2), (1, 4), (2, 5), (0, 3), (1, 3)]
    for offset in range(2):
        source, target = chords[(seed + offset) % len(chords)]
        edges.append(EdgeSpec(names[source], names[target]))
    return GraphSpec(name=f"fuzz{seed}", nodes=nodes, edges=tuple(edges))


_SYNTHESIZED = {}


def synthesized_network(seed: int):
    """The synthesized dataplane for one fuzz seed (memoized)."""
    if seed not in _SYNTHESIZED:
        network, _report = synthesize_network(
            small_fuzz_graph(seed),
            SynthesisOptions(seed=seed, service_tunnels=1, max_lsp_pairs=6),
        )
        _SYNTHESIZED[seed] = network
    return _SYNTHESIZED[seed]


_BUILTINS = {}


def builtin_network(name: str):
    """One shared instance per builtin (loading parses fixture files)."""
    if name not in _BUILTINS:
        _BUILTINS[name] = load_builtin(name)
    return _BUILTINS[name]


_CORPORA = {}


def query_corpus(
    network,
    seed: int,
    count: int = 4,
    failure_bounds=(0, 1),
    include_unconstrained: bool = False,
):
    """The generated query suite for ``network`` (memoized)."""
    key = (id(network), seed, count, failure_bounds, include_unconstrained)
    if key not in _CORPORA:
        _CORPORA[key] = generate_query_suite(
            network,
            count=count,
            seed=seed,
            failure_bounds=failure_bounds,
            include_unconstrained=include_unconstrained,
        )
    return _CORPORA[key]


__all__ = [
    "CORE_MATRIX",
    "DEFAULT_FUZZ_SEEDS",
    "fuzz_seeds",
    "small_fuzz_graph",
    "synthesized_network",
    "builtin_network",
    "query_corpus",
]


@pytest.fixture(autouse=True)
def clean_obs_registry():
    """Metric isolation for every test in this package."""
    previous = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if previous:
        obs.enable()

