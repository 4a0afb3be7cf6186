"""Tests for the farm worker pool: parity, containment, crashes."""

import multiprocessing
import os

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.errors import FarmError
from repro.farm.cache import hash_text
from repro.farm.pool import EngineConfig, FarmJob, _init_worker, execute_job, run_jobs
from repro.io.json_format import network_to_json
from repro.verification.engine import dual_engine, weighted_engine


@pytest.fixture(scope="module")
def network():
    return build_example_network()


@pytest.fixture(scope="module")
def payloads(network):
    payload = network_to_json(network)
    return {hash_text(payload): payload}


def _jobs_for(payloads, queries, **kwargs):
    (key,) = payloads
    return [
        FarmJob(name=name, query=text, network_key=key, **kwargs)
        for name, text in queries
    ]


class TestEngineConfig:
    def test_from_engine_round_trips_settings(self, network):
        engine = weighted_engine(network, weight="hops, failures + 3*tunnels")
        config = EngineConfig.from_engine(engine)
        assert config.weight == "hops, failures + 3*tunnels"
        rebuilt = config.build(network)
        assert rebuilt.backend == engine.backend
        assert rebuilt.weight_vector == engine.weight_vector

    def test_rejects_unpicklable_distance_callable(self, network):
        engine = dual_engine(network, distance_of=lambda link: 1)
        with pytest.raises(FarmError, match="distance_of"):
            EngineConfig.from_engine(engine)


class TestExecuteJob:
    def test_runs_one_job_in_process(self, network, payloads, monkeypatch):
        # Register the payload the way a pool worker receives it, in a
        # registry that monkeypatch swaps back out afterwards.
        monkeypatch.setattr("repro.farm.pool._NETWORK_PAYLOADS", {})
        _init_worker(payloads)
        (job,) = _jobs_for(payloads, [("phi0", EXAMPLE_QUERIES[0][1])])
        item = execute_job(job)
        assert item.outcome == "satisfied"
        assert item.result is not None

    def test_unknown_network_key_is_contained(self):
        job = FarmJob(name="q", query="<ip> . <ip> 0", network_key="deadbeef")
        results = run_jobs([job], networks={}, max_workers=1)
        assert results[0].outcome == "error"
        assert "no network registered" in results[0].error


class TestParallelParity:
    def test_verdicts_match_serial(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        serial = run_jobs(jobs, payloads, max_workers=1)
        parallel = run_jobs(jobs, payloads, max_workers=2)
        assert [(i.name, i.outcome) for i in serial] == [
            (i.name, i.outcome) for i in parallel
        ]

    def test_progress_reports_every_index(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        seen = []
        run_jobs(
            jobs,
            payloads,
            max_workers=2,
            progress=lambda index, total, item: seen.append((index, total)),
        )
        assert sorted(index for index, _ in seen) == [0, 1, 2, 3, 4]
        assert all(total == 5 for _, total in seen)

    def test_bad_query_becomes_error_item_in_workers(self, payloads):
        jobs = _jobs_for(
            payloads,
            [("bad", "<ip .* garbage"), ("good", EXAMPLE_QUERIES[0][1])],
        )
        results = run_jobs(jobs, payloads, max_workers=2)
        assert results[0].outcome == "error"
        assert results[1].outcome == "satisfied"

    def test_cancellation_skips_remaining(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        fired = []

        def cancelled():
            return bool(fired)

        def progress(index, total, item):
            fired.append(index)

        results = run_jobs(
            jobs, payloads, max_workers=1, progress=progress, cancelled=cancelled
        )
        assert results[0] is not None
        assert results[-1] is None  # later jobs never ran


class _CrashingConfig(EngineConfig):
    """An engine config whose build kills the worker process outright."""

    def build(self, network):
        os._exit(13)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the test class",
)
def test_worker_crash_surfaces_as_error_items(payloads):
    (key,) = payloads
    jobs = [
        FarmJob(
            name=f"crash{i}",
            query=EXAMPLE_QUERIES[0][1],
            network_key=key,
            config=_CrashingConfig(),
        )
        for i in range(3)
    ]
    results = run_jobs(jobs, payloads, max_workers=2)
    assert all(item is not None for item in results)
    assert all(item.outcome == "error" for item in results)
    assert any("worker failed" in item.error for item in results)


# ----------------------------------------------------------------------
# mid-sweep crash containment
# ----------------------------------------------------------------------

#: Worker-local build counter for the mid-sweep crash injection; each
#: forked worker starts from the parent's (zero) value.
_MID_SWEEP_BUILDS = 0


class _MidSweepCrashConfig(EngineConfig):
    """A config that kills its worker *mid-sweep*: the first variant
    engines build and solve normally, then one build never returns —
    the tightest crash point injectable without reaching into the
    solver."""

    def build(self, network):
        global _MID_SWEEP_BUILDS
        _MID_SWEEP_BUILDS += 1
        if _MID_SWEEP_BUILDS >= 3:
            os._exit(13)
        return super().build(network)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the test class",
)
def test_worker_crash_mid_sweep_is_contained(network):
    """A worker killed mid-variant must surface as error items in the
    run snapshot, and the run must still finish."""
    from repro.farm.jobs import JobManager
    from repro.farm.scenarios import link_audit_scenarios, scenarios_to_jobs

    scenarios = link_audit_scenarios(network, [("phi0", EXAMPLE_QUERIES[0][1])])
    crashing = _MidSweepCrashConfig(triage="off")
    jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, config=crashing)

    manager = JobManager()
    run = manager.submit(jobs, payloads, max_workers=2, prebuilt=prebuilt)
    assert run.wait(180)
    snapshot = run.snapshot()
    assert snapshot["state"] == "done"
    assert snapshot["summary"]["errors"] >= 1  # the crash is reported
    assert any(
        item is not None
        and item.outcome == "error"
        and "worker failed" in item.error
        for item in run.items
    )
