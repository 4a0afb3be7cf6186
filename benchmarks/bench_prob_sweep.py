"""Best-first vs exhaustive scenario enumeration: the ranked-sweep bench.

The probabilistic what-if driver (:mod:`repro.prob`) answers "does the
query hold with probability ≥ p" by enumerating failure scenarios in
non-increasing probability order and stopping once the residual mass
cannot flip the verdict. This bench quantifies exactly that ordering
advantage on the builtin networks: how many scenarios (and how much
wall-clock) the best-first enumerator needs to cover ``1 − 1e-4`` of
the probability mass, against the ``2^n`` scenarios the exhaustive
oracle enumerates.

Correctness is part of the measurement: over the full sample space the
two enumerators must produce the same scenarios with probabilities
agreeing to 1e-9, and both masses must sum to 1 — a ranking that drops
or distorts mass would make the early-exit bounds unsound.

An end-to-end row runs ``run_probabilistic_sweep`` with a threshold on
the example network and reports the early-exit scenario count against
the full enumeration.

Run standalone::

    python -m benchmarks.bench_prob_sweep           # full sweep + BENCH_prob_sweep.json
    python -m benchmarks.bench_prob_sweep --quick   # CI perf smoke (exits 1
                                                    # when the ordering wins
                                                    # nothing, 2 on mismatch)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.prob import (
    FailureModel,
    best_first_scenarios,
    exhaustive_scenarios,
    run_probabilistic_sweep,
)

#: Repo-root benchmark baseline (committed; the perf smoke compares
#: against fresh runs of the same instances).
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_prob_sweep.json",
)

QUICK_NETWORKS = ("example", "nordunet")

#: Per-link failure probability of the bench models: high enough that
#: multi-failure scenarios carry visible mass, low enough that the
#: best-first ordering has something to exploit.
FAILURE_PROBABILITY = 0.01

#: Residual-mass target of the "scenarios to coverage" measurement.
RESIDUAL_TARGET = 1e-4

#: Probabilities from the two enumerators must agree to this tolerance
#: (the acceptance bar of the probabilistic subsystem).
AGREEMENT_TOLERANCE = 1e-9

#: Quick-mode gate: best-first must reach the coverage target within
#: this fraction of the exhaustive 2^n scenario count.
QUICK_MAX_COVERAGE_FRACTION = 0.25


def _bench_model(network, event_cap: int) -> FailureModel:
    """The bench failure model: first ``event_cap`` links (sorted) may fail."""
    links = sorted(network.link_names())[:event_cap]
    return FailureModel.from_network(
        network, default=FAILURE_PROBABILITY, links=links
    )


def _measure_network(name: str, event_cap: int) -> Dict[str, Any]:
    """One network's row: coverage counts, timings, oracle agreement."""
    network = load_builtin(name)
    model = _bench_model(network, event_cap)
    total = 2 ** len(model)

    start = time.perf_counter()
    oracle = exhaustive_scenarios(model)
    exhaustive_seconds = time.perf_counter() - start

    # Best-first until the residual mass drops under the target.
    start = time.perf_counter()
    covered = 0.0
    to_coverage = 0
    ranked_prefix: List[float] = []
    for scenario in best_first_scenarios(model):
        covered += scenario.probability
        to_coverage += 1
        ranked_prefix.append(scenario.probability)
        if 1.0 - covered <= RESIDUAL_TARGET:
            break
    best_first_seconds = time.perf_counter() - start

    # Oracle agreement over the full sample space: same scenarios, same
    # probabilities (to 1e-9), masses summing to 1.
    mismatches: List[str] = []
    ranked_all = list(best_first_scenarios(model, limit=total))
    if len(ranked_all) != len(oracle):
        mismatches.append(
            f"{name}: best-first enumerated {len(ranked_all)} scenarios, "
            f"exhaustive {len(oracle)}"
        )
    else:
        by_fired = {scenario.fired: scenario.probability for scenario in oracle}
        for scenario in ranked_all:
            expected = by_fired.get(scenario.fired)
            if expected is None:
                mismatches.append(
                    f"{name}: best-first scenario {scenario.fired!r} not in "
                    "the exhaustive sample space"
                )
            elif abs(expected - scenario.probability) > AGREEMENT_TOLERANCE:
                mismatches.append(
                    f"{name}: probability of {scenario.fired!r} disagrees "
                    f"({scenario.probability!r} != {expected!r})"
                )
    for label, mass in (
        ("best-first", sum(s.probability for s in ranked_all)),
        ("exhaustive", sum(s.probability for s in oracle)),
    ):
        if abs(mass - 1.0) > AGREEMENT_TOLERANCE:
            mismatches.append(f"{name}: {label} mass sums to {mass!r}, not 1")
    ordered = all(
        earlier >= later - AGREEMENT_TOLERANCE
        for earlier, later in zip(ranked_prefix, ranked_prefix[1:])
    )
    if not ordered:
        mismatches.append(f"{name}: best-first order is not non-increasing")

    return {
        "network": name,
        "events": len(model),
        "exhaustive_scenarios": total,
        "scenarios_to_coverage": to_coverage,
        "coverage_fraction": round(to_coverage / total, 6),
        "covered_mass": covered,
        "best_first_seconds": round(best_first_seconds, 6),
        "exhaustive_seconds": round(exhaustive_seconds, 6),
        "mismatches": mismatches,
    }


def _end_to_end_row(threshold: float = 0.9) -> Dict[str, Any]:
    """One full ``run_probabilistic_sweep`` on the example network."""
    network = load_builtin("example")
    query = "<ip> [.#v0] .* [v3#.] <ip> 2"
    start = time.perf_counter()
    result = run_probabilistic_sweep(
        network, query, threshold=threshold, default=FAILURE_PROBABILITY
    )
    seconds = time.perf_counter() - start
    return {
        "network": "example",
        "query": query,
        "threshold": threshold,
        "verdict": result.verdict.value,
        "lower": result.lower,
        "upper": result.upper,
        "scenarios_enumerated": result.scenarios_enumerated,
        "scenarios_verified": result.scenarios_verified,
        "early_exit": result.early_exit,
        "seconds": round(seconds, 6),
    }


def run(quick: bool = False, event_cap: Optional[int] = None) -> Dict[str, Any]:
    """The full measurement; returns the JSON-ready payload."""
    event_cap = event_cap if event_cap is not None else (10 if quick else 14)
    networks = QUICK_NETWORKS if quick else BUILTIN_NETWORKS
    rows = [_measure_network(name, event_cap) for name in networks]
    mismatches = [line for row in rows for line in row.pop("mismatches")]
    fractions = [row["coverage_fraction"] for row in rows]
    return {
        "benchmark": "prob_sweep",
        "mode": "quick" if quick else "full",
        "event_cap": event_cap,
        "failure_probability": FAILURE_PROBABILITY,
        "residual_target": RESIDUAL_TARGET,
        "networks": list(networks),
        "instances": rows,
        "end_to_end": _end_to_end_row(),
        "max_coverage_fraction": max(fractions) if fractions else None,
        "answers_identical": not mismatches,
        "mismatches": mismatches,
    }


try:  # pytest-benchmark wrapper; the module stays runnable standalone
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def nordunet_model():
        from benchmarks.common import nordunet_network

        return _bench_model(nordunet_network(), event_cap=12)

    def test_best_first_to_coverage(benchmark, nordunet_model):
        def enumerate_to_target():
            covered = 0.0
            count = 0
            for scenario in best_first_scenarios(nordunet_model):
                covered += scenario.probability
                count += 1
                if 1.0 - covered <= RESIDUAL_TARGET:
                    break
            return count

        count = benchmark.pedantic(enumerate_to_target, rounds=1, iterations=1)
        assert 0 < count < 2 ** len(nordunet_model)

    def test_exhaustive_oracle(benchmark, nordunet_model):
        scenarios = benchmark.pedantic(
            lambda: exhaustive_scenarios(nordunet_model), rounds=1, iterations=1
        )
        assert len(scenarios) == 2 ** len(nordunet_model)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance slice; nonzero exit when the best-first "
        "ordering needs more than "
        f"{QUICK_MAX_COVERAGE_FRACTION:.0%} of the exhaustive scenarios "
        "to reach the coverage target",
    )
    parser.add_argument(
        "--event-cap",
        type=int,
        default=None,
        help="override the failure-event cap per network",
    )
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, event_cap=args.event_cap)

    header = (
        f"{'network':<12} {'events':>6} {'2^n':>8} {'ranked':>7} "
        f"{'fraction':>9} {'ranked_s':>9} {'exhaust_s':>10}"
    )
    print(header)
    for row in payload["instances"]:
        print(
            f"{row['network']:<12} {row['events']:>6} "
            f"{row['exhaustive_scenarios']:>8} "
            f"{row['scenarios_to_coverage']:>7} "
            f"{row['coverage_fraction']:>9.4f} "
            f"{row['best_first_seconds']:>8.4f}s "
            f"{row['exhaustive_seconds']:>9.4f}s"
        )
    e2e = payload["end_to_end"]
    print(
        f"\nend-to-end ({e2e['network']}, threshold {e2e['threshold']}): "
        f"{e2e['verdict'].upper()} after "
        f"{e2e['scenarios_verified']}/{e2e['scenarios_enumerated']} scenarios "
        f"in {e2e['seconds']:.3f}s"
        + ("  [early exit]" if e2e["early_exit"] else "")
    )

    if payload["mismatches"]:
        print("\nENUMERATOR MISMATCHES:", file=sys.stderr)
        for mismatch in payload["mismatches"]:
            print(f"  {mismatch}", file=sys.stderr)
        return 2

    if not args.quick:
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"baseline: {BASELINE_PATH}")

    if args.quick:
        fraction = payload["max_coverage_fraction"]
        if fraction is not None and fraction > QUICK_MAX_COVERAGE_FRACTION:
            print(
                "PERF SMOKE FAILURE: best-first needed "
                f"{fraction:.1%} of the exhaustive scenarios to reach "
                f"{1 - RESIDUAL_TARGET} coverage "
                f"(bound {QUICK_MAX_COVERAGE_FRACTION:.0%})",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
