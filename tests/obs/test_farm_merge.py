"""Cross-process metrics: worker deltas merge back into the parent
registry, and the chunk planner fans single-variant sweeps out."""

import pytest

from repro import obs
from repro.datasets.builtins import load_builtin
from repro.farm.pool import FarmJob, plan_chunks, run_jobs
from repro.farm.store import hash_text
from repro.io.json_format import network_to_json

PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"


@pytest.fixture(scope="module")
def example_payload():
    network = load_builtin("example")
    payload = network_to_json(network)
    return hash_text(payload), payload


def _jobs(key, count):
    return [
        FarmJob(name=f"q{index:03d}", query=PHI0, network_key=key)
        for index in range(count)
    ]


class TestPlanChunks:
    def test_empty(self):
        assert plan_chunks([], 4) == []

    def test_single_variant_sweep_still_fans_out(self):
        """The regression: one network variant with many queries must
        produce multiple chunks, not serialize on one worker."""
        chunks = plan_chunks(["k"] * 40, max_workers=4)
        # Enough chunks to keep every worker busy (the old planner
        # produced exactly one here).
        assert len(chunks) >= 4

    def test_every_index_dispatched_exactly_once(self):
        keys = ["a"] * 7 + ["b"] * 13 + ["c"] * 1
        chunks = plan_chunks(keys, max_workers=3)
        dispatched = sorted(index for chunk in chunks for index in chunk)
        assert dispatched == list(range(len(keys)))

    def test_small_variant_groups_stay_together(self):
        # 20 variants × 3 queries on 2 workers: the per-chunk budget is
        # ceil(60/8) = 8 > 3, so no variant's group is split.
        keys = [f"v{i}" for i in range(20) for _ in range(3)]
        chunks = plan_chunks(keys, max_workers=2)
        for chunk in chunks:
            for index in chunk:
                variant = keys[index]
                owner = [c for c in chunks if any(keys[j] == variant for j in c)]
                assert len(owner) == 1

    def test_chunk_count_bounded_by_target(self):
        assert len(plan_chunks(["k"] * 1000, max_workers=2)) <= 8


class TestWorkerDeltaMerge:
    def test_parallel_counters_equal_job_count(self, example_payload):
        key, payload = example_payload
        jobs = _jobs(key, 8)
        with obs.recording():
            results = run_jobs(jobs, {key: payload}, max_workers=2)
            assert all(item.outcome == "satisfied" for item in results)
            assert obs.counter("engine.queries") == 8
            assert obs.counter("engine.verdicts.satisfied") == 8
            # Span time crossed the process boundary too.
            aggregates = obs.registry().span_aggregates()
            assert aggregates["verify"]["count"] == 8.0

    def test_serial_and_parallel_count_the_same_work(self, example_payload):
        """Every job builds its own engine, so no count — compile-memo
        hits included — depends on how jobs land on workers."""
        key, payload = example_payload
        jobs = _jobs(key, 6)
        counted = {}
        for workers in (1, 2):
            with obs.recording():
                run_jobs(jobs, {key: payload}, max_workers=workers)
                counted[workers] = obs.counters()
        assert counted[1] == counted[2]

    def test_disabled_parent_measures_nothing(self, example_payload):
        key, payload = example_payload
        obs.disable()
        obs.reset()
        run_jobs(_jobs(key, 4), {key: payload}, max_workers=2)
        assert obs.counters() == {}
