"""Interned core vs tuple reference core: the representation ablation.

The interning layer compiles control states and stack symbols to dense
integer ids, replaces dict-of-tuple rule lookup with per-state packed
indexes, and runs saturation over packed-int transitions. This bench
quantifies exactly that change: the *same* compiled pushdown instances
(the Table-1-style query suites of every builtin network) are solved by
``solve_reachability(..., core="interned")`` and ``core="tuple"`` (the
pre-interning implementation preserved in :mod:`repro.pda.reference`),
with compilation excluded from the timing so the delta is attributable
to the representation alone.

Correctness is part of the measurement: for every instance the two
cores' verdict, weight and reconstructed witness trace must be
byte-identical — a speedup from a diverging solver would be meaningless.

Run standalone::

    python -m benchmarks.bench_interning           # full sweep + BENCH_interning.json
    python -m benchmarks.bench_interning --quick   # CI perf smoke (exits 1
                                                   # if interned is slower)
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.datasets.queries import table1_queries
from repro.pda.solver import solve_reachability
from repro.query.parser import parse_query
from repro.query.weights import parse_weight_vector
from repro.verification.compiler import QueryCompiler
from repro.verification.reconstruction import trace_from_rules

#: Repo-root benchmark baseline (committed; the perf smoke compares
#: against fresh runs of the same instances).
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_interning.json",
)

QUICK_NETWORKS = ("example", "nordunet")
QUICK_QUERIES = 3


def _solve_digest(compiled, core: str) -> Tuple[str, float]:
    """Solve one compiled instance; returns (answer digest, seconds).

    The digest covers verdict, weight and the reconstructed witness
    trace rendered symbolically — byte-equality of digests is
    byte-equality of user-visible answers.
    """
    start = time.perf_counter()
    outcome = solve_reachability(
        compiled.pds,
        compiled.semiring,
        compiled.initial,
        compiled.target,
        core=core,
    )
    seconds = time.perf_counter() - start
    trace_text = ""
    if outcome.reachable and outcome.rules:
        trace_text = str(trace_from_rules(compiled, outcome.rules))
    digest = f"{outcome.reachable}|{outcome.weight}|{trace_text}"
    return digest, seconds


def run(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, Any]:
    """The full measurement; returns the JSON-ready payload."""
    repeats = repeats if repeats is not None else (2 if quick else 4)
    networks = QUICK_NETWORKS if quick else BUILTIN_NETWORKS
    weights = [None] if quick else [None, parse_weight_vector("failures")]
    instances: List[Dict[str, Any]] = []
    mismatches: List[str] = []

    for name in networks:
        network = load_builtin(name)
        compiler = QueryCompiler(network)
        queries = table1_queries(network)
        if quick:
            queries = queries[:QUICK_QUERIES]
        for generated in queries:
            query = parse_query(generated.text)
            for weight_vector in weights:
                compiled = compiler.compile(
                    query, mode="over", weight_vector=weight_vector
                )
                label = f"{name}/{generated.name}" + (
                    "/weighted" if weight_vector is not None else "/dual"
                )
                timings: Dict[str, List[float]] = {"interned": [], "tuple": []}
                digests: Dict[str, str] = {}
                for _ in range(repeats):
                    for core in ("interned", "tuple"):
                        digest, seconds = _solve_digest(compiled, core)
                        timings[core].append(seconds)
                        previous = digests.setdefault(core, digest)
                        if previous != digest:
                            mismatches.append(f"{label}: {core} is nondeterministic")
                if digests["interned"] != digests["tuple"]:
                    mismatches.append(
                        f"{label}: cores disagree\n"
                        f"  interned: {digests['interned']}\n"
                        f"  tuple:    {digests['tuple']}"
                    )
                interned_s = min(timings["interned"])
                tuple_s = min(timings["tuple"])
                instances.append(
                    {
                        "instance": label,
                        "interned_seconds": round(interned_s, 6),
                        "tuple_seconds": round(tuple_s, 6),
                        "speedup": round(tuple_s / interned_s, 3)
                        if interned_s > 0
                        else None,
                        "reachable": digests["interned"].split("|", 1)[0] == "True",
                    }
                )

    speedups = [row["speedup"] for row in instances if row["speedup"] is not None]
    payload = {
        "benchmark": "interning",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "networks": list(networks),
        "instances": instances,
        "median_speedup": round(statistics.median(speedups), 3) if speedups else None,
        "min_speedup": round(min(speedups), 3) if speedups else None,
        "max_speedup": round(max(speedups), 3) if speedups else None,
        "answers_identical": not mismatches,
        "mismatches": mismatches,
    }
    return payload


try:  # pytest-benchmark wrapper; the module stays runnable standalone
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:
    BENCH_QUERY_NAMES = ["t1_smpls_reach", "t5_service_waypoint_k1", "t6_unconstrained"]

    @pytest.fixture(scope="module")
    def nordunet_compiled():
        from benchmarks.common import nordunet_network

        network = nordunet_network()
        compiler = QueryCompiler(network)
        queries = {query.name: query for query in table1_queries(network)}
        return {
            name: compiler.compile(parse_query(queries[name].text), mode="over")
            for name in BENCH_QUERY_NAMES
        }

    @pytest.mark.parametrize("core", ["interned", "tuple"])
    @pytest.mark.parametrize("query_name", BENCH_QUERY_NAMES)
    def test_interning_ablation(benchmark, nordunet_compiled, query_name, core):
        compiled = nordunet_compiled[query_name]

        def run():
            return _solve_digest(compiled, core)

        digest, _ = benchmark.pedantic(run, rounds=1, iterations=1)
        reference, _ = _solve_digest(compiled, "tuple")
        assert digest == reference


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance slice, fewer repeats; nonzero exit when the "
        "interned core is not faster than the tuple core",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override the repeat count"
    )
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, repeats=args.repeats)

    print(f"{'instance':<45} {'interned':>10} {'tuple':>10} {'speedup':>8}")
    for row in payload["instances"]:
        print(
            f"{row['instance']:<45} {row['interned_seconds']:>9.4f}s "
            f"{row['tuple_seconds']:>9.4f}s {row['speedup']:>7.2f}x"
        )
    print(
        f"\nmedian speedup: {payload['median_speedup']}x "
        f"(min {payload['min_speedup']}x, max {payload['max_speedup']}x) "
        f"over {len(payload['instances'])} instances"
    )

    if payload["mismatches"]:
        print("\nANSWER MISMATCHES:", file=sys.stderr)
        for mismatch in payload["mismatches"]:
            print(f"  {mismatch}", file=sys.stderr)
        return 2

    if not args.quick:
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"baseline: {BASELINE_PATH}")

    if args.quick and payload["median_speedup"] is not None:
        if payload["median_speedup"] < 1.0:
            print(
                f"PERF SMOKE FAILURE: interned core slower than the tuple "
                f"reference (median speedup {payload['median_speedup']}x < 1.0x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
