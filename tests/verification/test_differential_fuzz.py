"""Differential fuzzing over *synthesized* networks: dual vs Moped vs
the explicit oracle, and the two solver cores against each other.

The conformance suite (:mod:`tests.verification
.test_differential_conformance`) pins the builtin networks; this one
fuzzes the same agreement over seeded :mod:`repro.datasets.synthesis`
dataplanes — fresh topology, LSP mesh, failover priorities and service
tunnels per seed — crossed with a generated query corpus. Every case
asserts:

* the dual engine and the Moped baseline return the same verdict;
* both solver cores (tuple / interned) return *byte-identical*
  results — same status, same weight, and the same trace digest — for
  unweighted, weighted, and probabilistic (``NEG_LOG_PROB``-backed
  likelihood) queries, and on seeded link-failure variants of builtin
  and synthesized networks;
* the weighted engine's guaranteed-minimal weights match exhaustive
  enumeration within the oracle's bounds;
* the observability counters prove each backend actually saturated its
  pushdown (non-vacuity: a "pass" can never come from engines silently
  skipping the analysis).
"""

import hashlib
import random

import pytest

from repro import obs
from repro.datasets.queries import GeneratedQuery
from repro.model.srlg import degrade_network
from repro.verification.engine import (
    VerificationEngine,
    dual_engine,
    likelihood_engine,
    moped_engine,
    weighted_engine,
)
from repro.verification.explicit import ExplicitEngine
from repro.verification.results import Status
from tests.pda.conftest import (
    CORE_MATRIX,
    builtin_network,
    fuzz_seeds,
    query_corpus,
    synthesized_network,
)

SEEDS = fuzz_seeds()


def _result_digest(result):
    """Canonical digest of everything a caller can observe in a result.

    Two cores are interchangeable exactly when these digests agree: the
    digest covers the verdict, the weight, the witness probability, the
    failure set, and every hop of the rendered trace.
    """
    trace = result.trace
    hops = (
        None
        if trace is None
        else tuple(step.link.name for step in trace.steps)
    )
    blob = "|".join(
        [
            repr(result.status),
            repr(result.weight),
            repr(result.witness_probability),
            repr(
                None
                if result.failure_set is None
                else sorted(link.name for link in result.failure_set)
            ),
            repr(str(trace)),
            repr(hops),
        ]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

#: Oracle bounds — on these small networks the enumeration is exact up
#: to this trace length / header depth.
ORACLE_TRACE_LENGTH = 6
ORACLE_HEADER_DEPTH = 3
ORACLE_INITIAL_HEADER = 3

# Shared corpus generators live in tests/pda/conftest.py: one seeded
# ring-with-chords dataplane and one generated query suite per seed,
# memoized across every differential harness in the tree.
_network = synthesized_network


#: Unsatisfiable on every dataplane by construction: an IP label only
#: ever sits at the bottom of a header, so no valid header matches
#: ``ip ip``. Generated suites can come out all-satisfied on some seeds;
#: this entry keeps an UNSATISFIED answer in every engine's corpus.
UNSATISFIABLE = GeneratedQuery("unsat", "<ip ip> .* <ip> 0", "unsatisfiable", 0)


def _corpus(network, seed: int):
    return [*query_corpus(network, seed), UNSATISFIABLE]


def _cases():
    for seed in SEEDS:
        network = _network(seed)
        for query in _corpus(network, seed):
            yield pytest.param(seed, query, id=f"s{seed}-{query.name}")


@pytest.fixture(scope="module")
def networks():
    return {seed: _network(seed) for seed in SEEDS}


@pytest.fixture(autouse=True)
def clean_registry():
    previous = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if previous:
        obs.enable()


@pytest.mark.parametrize("seed,query", _cases())
def test_dual_moped_and_cores_agree(networks, seed, query):
    network = networks[seed]
    with obs.recording():
        dual_result = dual_engine(network).verify(query.text)
        dual_counters = obs.counters()
    with obs.recording():
        moped_result = moped_engine(network).verify(query.text)
        moped_counters = obs.counters()

    assert dual_result.status == moped_result.status, (
        f"s{seed}/{query.name}: dual={dual_result.status} "
        f"moped={moped_result.status}"
    )

    # The solver cores must be indistinguishable from the outside: same
    # verdict, same weight, and the same trace digest, hop for hop.
    reference = _result_digest(dual_result)
    for core in CORE_MATRIX:
        if core == "interned":
            continue  # dual_result is the interned run
        core_result = dual_engine(network, core=core).verify(query.text)
        assert dual_result.status == core_result.status, (seed, query.name, core)
        assert dual_result.weight == core_result.weight, (seed, query.name, core)
        assert reference == _result_digest(core_result), (seed, query.name, core)

    # Non-vacuity: unless the one-step fast path answered, each backend
    # must have actually saturated its pushdown.
    if not dual_counters.get("engine.one_step_hits"):
        assert dual_counters.get("pda.saturation_iterations", 0) > 0
    if not moped_counters.get("engine.one_step_hits"):
        assert moped_counters.get("moped.symbolic_rounds", 0) > 0

    if dual_result.status is Status.SATISFIED:
        for result in (dual_result, moped_result):
            assert result.trace is not None
            failures = result.failure_set or frozenset()
            assert len(failures) <= query.max_failures


@pytest.mark.parametrize("seed,query", _cases())
def test_verdicts_match_explicit_enumeration(networks, seed, query):
    network = networks[seed]
    oracle = ExplicitEngine(
        network,
        max_trace_length=ORACLE_TRACE_LENGTH,
        max_header_depth=ORACLE_HEADER_DEPTH,
        max_initial_header=ORACLE_INITIAL_HEADER,
    )
    expected = oracle.verify(query.text)
    result = dual_engine(network).verify(query.text)
    if not result.conclusive:
        return  # the dual approximation is allowed to be inconclusive
    if expected.satisfied:
        assert result.satisfied, (seed, query.text)
    elif result.satisfied:
        # A positive beyond the oracle's bounds must actually exceed them.
        trace = result.trace
        assert (
            len(trace) > ORACLE_TRACE_LENGTH
            or max(h.depth for h in trace.headers) > ORACLE_HEADER_DEPTH
            or len(trace.first_header) > ORACLE_INITIAL_HEADER
        ), (seed, query.text)


@pytest.mark.parametrize("seed", SEEDS)
def test_minimal_weights_match_enumeration(networks, seed):
    """Guaranteed-minimal weighted answers equal the oracle's best weight."""
    network = networks[seed]
    oracle = ExplicitEngine(
        network,
        max_trace_length=ORACLE_TRACE_LENGTH,
        max_header_depth=ORACLE_HEADER_DEPTH,
        max_initial_header=ORACLE_INITIAL_HEADER,
    )
    engine = weighted_engine(network, weight="hops")
    checked = 0
    for query in _corpus(network, seed):
        result = engine.verify(query.text)
        if not result.satisfied or not result.minimal_guaranteed:
            continue
        expected = oracle.verify(query.text, engine.weight_vector)
        if not expected.satisfied or expected.best_weight is None:
            continue
        # Within the oracle's bounds its minimum is exact; the engine's
        # guaranteed minimum can only beat it via out-of-bounds traces.
        assert result.weight <= expected.best_weight, (seed, query.text)
        if len(result.trace) <= ORACLE_TRACE_LENGTH:
            assert result.weight == expected.best_weight, (seed, query.text)
        checked += 1
    assert checked > 0, f"seed {seed}: no weighted query was conclusively minimal"


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_core_matrix(networks, seed):
    """Weighted (min-plus vector) answers are core-invariant.

    Every query in the corpus runs through both cores under the
    ``hops, failures`` vector; status, weight, and trace digest must be
    byte-identical. Non-vacuity: at least one query per seed must be
    satisfied with a real weighted witness, or the matrix proves
    nothing.
    """
    network = networks[seed]
    witnessed = 0
    for query in _corpus(network, seed):
        results = {
            core: weighted_engine(
                network, weight="hops, failures", core=core
            ).verify(query.text)
            for core in CORE_MATRIX
        }
        reference = results["interned"]
        digest = _result_digest(reference)
        for core, result in results.items():
            assert result.status == reference.status, (seed, query.name, core)
            assert result.weight == reference.weight, (seed, query.name, core)
            assert _result_digest(result) == digest, (seed, query.name, core)
        if reference.satisfied and reference.trace is not None:
            witnessed += 1
    assert witnessed > 0, f"seed {seed}: weighted matrix never saw a witness"


@pytest.mark.parametrize("seed", SEEDS)
def test_probabilistic_core_matrix(networks, seed):
    """NEG_LOG_PROB-backed likelihood answers are core-invariant.

    The likelihood engine ranks witnesses by failure probability via
    the scaled neg-log-prob quantity (see :mod:`repro.prob.semiring`);
    both cores must agree on status, weight (the scaled cost),
    witness probability, and trace digest.
    """
    network = networks[seed]
    witnessed = 0
    for query in _corpus(network, seed):
        results = {
            core: likelihood_engine(network, core=core).verify(query.text)
            for core in CORE_MATRIX
        }
        reference = results["interned"]
        digest = _result_digest(reference)
        for core, result in results.items():
            assert result.status == reference.status, (seed, query.name, core)
            assert result.weight == reference.weight, (seed, query.name, core)
            assert result.witness_probability == reference.witness_probability, (
                seed,
                query.name,
                core,
            )
            assert _result_digest(result) == digest, (seed, query.name, core)
        if reference.witness_probability is not None:
            witnessed += 1
    assert witnessed > 0, f"seed {seed}: likelihood matrix never saw a witness"


def _link_failure_variants(network, seed, rounds, max_failures=2):
    """``rounds`` seeded copies of ``network``, each degraded under a
    random set of 1..``max_failures`` failed links."""
    rng = random.Random(seed)
    links = sorted(network.topology.links, key=lambda link: link.name)
    variants = []
    for _ in range(rounds):
        size = rng.randint(1, min(max_failures, len(links)))
        variants.append(degrade_network(network, frozenset(rng.sample(links, size))))
    return variants


def _compare_cores(variants, queries, label):
    """Assert every query on every variant digests identically on both
    cores; return how many of those answers were satisfied."""
    satisfied = 0
    for variant in variants:
        engines = {
            core: VerificationEngine(variant, core=core, triage="off")
            for core in CORE_MATRIX
        }
        for query in queries:
            results = {core: engines[core].verify(query) for core in CORE_MATRIX}
            reference = results["interned"]
            digest = _result_digest(reference)
            for core, result in results.items():
                assert _result_digest(result) == digest, (label, query, core)
            satisfied += reference.status is Status.SATISFIED
    return satisfied


@pytest.mark.parametrize("name", ["example", "abilene", "nsfnet"])
def test_cores_agree_across_link_variants(name):
    """What-if variants (failed links baked in) change the compiled
    systems; the cores must still agree verdict for verdict and hop
    for hop."""
    network = builtin_network(name)
    queries = [g.text for g in query_corpus(network, seed=1009, count=4)]
    variants = [network] + _link_failure_variants(network, SEEDS[0], rounds=3)
    assert _compare_cores(variants, queries, name) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_cores_agree_on_synthesized_variants(networks, seed):
    network = networks[seed]
    queries = [g.text for g in _corpus(network, seed)]
    variants = _link_failure_variants(network, seed, rounds=4)
    assert _compare_cores(variants, queries, f"s{seed}") > 0


def test_fuzz_corpus_is_not_degenerate(networks):
    """The sweep must produce both verdicts somewhere and run the PDA."""
    statuses = set()
    with obs.recording():
        for seed, network in networks.items():
            for query in _corpus(network, seed):
                statuses.add(dual_engine(network).verify(query.text).status)
        pda_runs = obs.counter("pda.poststar.runs")
    assert Status.SATISFIED in statuses
    assert Status.UNSATISFIED in statuses
    assert pda_runs > 0
