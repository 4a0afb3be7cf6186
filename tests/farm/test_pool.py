"""Tests for the farm worker pool: parity, containment, crashes."""

import multiprocessing
import os
import threading

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.errors import FarmError, VerificationError, WeightError
from repro.farm.cache import ArtifactCache, hash_text
from repro.farm.pool import EngineConfig, FarmJob, execute_job, run_jobs
from repro.farm.scenarios import link_audit_scenarios, scenarios_to_jobs
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

    @pytest.mark.parametrize(
        "settings, error",
        [
            ({"weight": "bogus"}, WeightError),
            ({"triage": "sometimes"}, VerificationError),
            ({"backend": "moped", "weight": "hops"}, VerificationError),
        ],
    )
    def test_rejects_settings_no_engine_accepts(self, settings, error):
        """The error a worker's engine build would raise, raised once
        when the sweep is built instead of once per job."""
        with pytest.raises(error):
            EngineConfig(**settings)


class TestExecuteJob:
    def test_runs_one_job_in_process(self, network, payloads):
        (job,) = _jobs_for(payloads, [("phi0", EXAMPLE_QUERIES[0][1])])
        item = execute_job(job, payloads, {})
        assert item.outcome == "satisfied"
        assert item.result is not None

    def test_unknown_network_key_is_contained(self):
        job = FarmJob(name="q", query="<ip> . <ip> 0", network_key="deadbeef")
        results = run_jobs([job], networks={}, max_workers=1)
        assert results[0].outcome == "error"
        assert "no network registered" in results[0].error


class TestInProcessRuns:
    """``max_workers <= 1`` resolves networks from the run's own
    arguments; the pool's module globals belong to pool workers."""

    @pytest.fixture()
    def audit(self, network):
        return link_audit_scenarios(network, [EXAMPLE_QUERIES[0]])

    def test_leaves_the_pool_globals_alone(self, audit, monkeypatch):
        import repro.farm.pool as pool

        monkeypatch.setattr(pool, "_NETWORK_PAYLOADS", {})
        monkeypatch.setattr(pool, "_PREBUILT", {})
        jobs, payloads, prebuilt = scenarios_to_jobs(audit)
        results = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
        assert all(item.outcome != "error" for item in results)
        assert pool._NETWORK_PAYLOADS == {}
        assert pool._PREBUILT == {}

    def test_concurrent_runs_over_the_same_variants(self, audit, monkeypatch):
        """A run that finishes first takes nothing the other still needs."""
        # A one-slot cache makes the second run rebuild its variants
        # after the first run has returned.
        cache = ArtifactCache(max_networks=1, max_engines=1)
        monkeypatch.setattr("repro.farm.pool.worker_cache", lambda: cache)
        first_done = threading.Event()
        results = {}

        def run(label, progress=None):
            jobs, payloads, prebuilt = scenarios_to_jobs(audit)
            results[label] = run_jobs(
                jobs, payloads, max_workers=1, progress=progress, prebuilt=prebuilt
            )

        def pause_after_first_job(index, _total, _item):
            if index == 0:
                first_done.wait(60)

        second = threading.Thread(target=run, args=("second", pause_after_first_job))
        second.start()
        run("first")
        first_done.set()
        second.join(120)
        assert not second.is_alive()
        outcomes = {
            label: [item.outcome for item in items] for label, items in results.items()
        }
        assert len(outcomes["first"]) == len(audit)
        assert "error" not in outcomes["first"]
        assert outcomes["second"] == outcomes["first"]


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
