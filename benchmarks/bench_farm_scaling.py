"""Scaling of the verification farm on a what-if failure sweep.

The farm's pitch (DESIGN.md, "verification farm") is that a sweep's
jobs share almost all of their setup: every job is a cheap verification
on a network variant whose materialization costs as much as the
verification itself. This bench runs the paper's per-link ``k=1``
audit — "which single link failures break reachability?" — over every
link of the NORDUnet substitute (106 jobs, one degraded variant each)
three ways and records the wall-clock ratio:

* **naive serial** — what execution without the farm looks like: every
  job deserializes the baseline from JSON, derives its variant and
  builds a fresh engine, then verifies.
* **farm, jobs=1** — the in-process serial path over the prebuilt
  baseline: each job still derives its variant and builds its own
  engine, but no network is deserialized.
* **farm, jobs=4** — the process pool; workers inherit the prebuilt
  baseline via fork and derive the variants of their variant-grouped
  chunks.

The recorded ``speedup_jobs4`` (naive serial ÷ farm jobs=4) is the
headline number; on a single core the win comes from reusing the
prebuilt baseline instead of deserializing it per job, and extra
cores widen it.
Each mode is timed as the best of ``ROUNDS`` runs, the usual guard
against scheduler noise on shared machines.

Run standalone (``python -m benchmarks.bench_farm_scaling``) for the
full report + JSON dump, or via pytest for the regression assertion.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from benchmarks.common import nordunet_network, save_results
from repro.datasets.queries import table1_queries
from repro.farm.pool import FarmJob, run_jobs
from repro.farm.scenarios import build_variant, link_audit_scenarios, scenarios_to_jobs
from repro.io.json_format import network_from_json
from repro.verification.batch import BatchItem, run_single

#: The audited query — the cheapest of the Table 1 suite, so the bench
#: stays a setup-dominated sweep and finishes in seconds.
QUERY_NAME = "t3_ip_reach"

#: Best-of-N timing per mode, the usual guard against scheduler noise.
ROUNDS = 3


def build_sweep() -> Tuple[List[FarmJob], Dict[str, str], Dict[str, object]]:
    """The benchmark workload: a per-link k=1 audit, one job per link."""
    network = nordunet_network()
    queries = {q.name: q for q in table1_queries(network)}
    scenarios = link_audit_scenarios(network, queries[QUERY_NAME].text)
    return scenarios_to_jobs(scenarios)


def run_naive(jobs: List[FarmJob], payloads: Dict[str, str]) -> List[BatchItem]:
    """Serial execution with no shared artifacts: every job pays its own
    network materialization and engine build."""
    items = []
    for job in jobs:
        baseline = network_from_json(payloads[job.network_key])
        network = build_variant(baseline, job.failed_links)
        engine = job.config.build(network)
        items.append(run_single(engine, job.name, job.query, job.timeout))
    return items


def run_scaling() -> Dict[str, object]:
    """Run all three modes on the same sweep; returns the measurements."""
    jobs, payloads, prebuilt = build_sweep()

    def timed(mode):
        best, outcomes = None, None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            items = mode()
            seconds = time.perf_counter() - start
            outcomes = [item.outcome for item in items if item is not None]
            assert len(outcomes) == len(jobs)
            best = seconds if best is None else min(best, seconds)
        return best, outcomes

    naive_seconds, naive_outcomes = timed(lambda: run_naive(jobs, payloads))
    farm1_seconds, farm1_outcomes = timed(
        lambda: run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
    )
    farm4_seconds, farm4_outcomes = timed(
        lambda: run_jobs(jobs, payloads, max_workers=4, prebuilt=prebuilt)
    )
    # Serial-equivalence: all three modes agree on every verdict.
    assert naive_outcomes == farm1_outcomes == farm4_outcomes

    return {
        "jobs": len(jobs),
        "variants": len({(job.network_key, job.failed_links) for job in jobs}),
        "query": QUERY_NAME,
        "rounds": ROUNDS,
        "naive_serial_seconds": round(naive_seconds, 3),
        "farm_jobs1_seconds": round(farm1_seconds, 3),
        "farm_jobs4_seconds": round(farm4_seconds, 3),
        "speedup_jobs1": round(naive_seconds / farm1_seconds, 2),
        "speedup_jobs4": round(naive_seconds / farm4_seconds, 2),
    }


def test_farm_speedup_on_link_audit():
    """Acceptance: >1.5× wall-clock over naive serial at jobs=4 on a
    ≥100-job sweep (and verdict parity across all modes)."""
    record = run_scaling()
    assert record["jobs"] >= 100
    assert record["speedup_jobs4"] > 1.5


def main() -> None:
    """Standalone runner: print the report and dump the JSON record."""
    record = run_scaling()
    print(
        f"link audit: {record['jobs']} jobs over {record['variants']} variants"
        f" (best of {record['rounds']} rounds)"
    )
    print(f"  naive serial   {record['naive_serial_seconds']:8.2f} s")
    print(
        f"  farm jobs=1    {record['farm_jobs1_seconds']:8.2f} s"
        f"   ({record['speedup_jobs1']:.2f}x)"
    )
    print(
        f"  farm jobs=4    {record['farm_jobs4_seconds']:8.2f} s"
        f"   ({record['speedup_jobs4']:.2f}x)"
    )
    path = save_results("farm_scaling", record)
    print(f"results written to {path}")


if __name__ == "__main__":
    main()
