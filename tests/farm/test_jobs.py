"""Tests for the asynchronous job manager."""

import os
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.errors import FarmError
from repro.farm.jobs import CANCELLED, DONE, FAILED, RUNNING, JobManager, RunPlan
from repro.farm.pool import EngineConfig
from repro.farm.store import SharedArtifactStore
from repro.farm.scenarios import (
    failure_scenarios,
    scenarios_to_jobs,
    suite_scenarios,
)


@pytest.fixture(scope="module")
def network():
    return build_example_network()


@pytest.fixture()
def manager():
    instance = JobManager()
    yield instance
    instance.shutdown(timeout=10)


def _submit_suite(manager, network, queries, **kwargs):
    jobs, payloads, prebuilt = scenarios_to_jobs(suite_scenarios(network, queries))
    return _submit(manager, jobs, payloads, prebuilt, **kwargs)


def _submit(manager, jobs, payloads, prebuilt, **kwargs):
    """Submit an already-built sweep."""
    return manager.submit(
        len(jobs), lambda: RunPlan(jobs, payloads, prebuilt), **kwargs
    )


class TestLifecycle:
    def test_submit_runs_to_done(self, manager, network):
        run = _submit_suite(manager, network, list(EXAMPLE_QUERIES))
        assert run.wait(timeout=120)
        assert run.state == DONE
        assert run.completed == run.total == 5
        assert run.summary.satisfied == 4
        assert run.summary.unsatisfied == 1

    def test_snapshot_shape(self, manager, network):
        run = _submit_suite(manager, network, list(EXAMPLE_QUERIES[:2]))
        assert run.wait(timeout=120)
        document = run.snapshot()
        assert document["id"] == run.id
        assert document["state"] == DONE
        assert document["summary"]["total"] == 2
        assert [item["name"] for item in document["items"]] == ["phi0", "phi1"]
        slim = run.snapshot(include_items=False)
        assert "items" not in slim

    def test_sweep_through_manager(self, manager, network):
        scenarios = failure_scenarios(
            network, EXAMPLE_QUERIES[0][1], max_failures=1
        )
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
        run = _submit(manager, jobs, payloads, prebuilt, max_workers=2)
        assert run.wait(timeout=120)
        assert run.state == DONE
        # e0 (the only entry) and e7 (the only exit) are fatal failures.
        assert run.summary.satisfied == 7
        assert run.summary.unsatisfied == 2

    def test_get_list_and_ids(self, manager, network):
        run = _submit_suite(manager, network, list(EXAMPLE_QUERIES[:1]))
        assert manager.get(run.id) is run
        assert manager.get("missing") is None
        assert run in manager.list()
        run.wait(timeout=120)

    def test_empty_submission_rejected(self, manager):
        with pytest.raises(FarmError):
            manager.submit(0, lambda: RunPlan([], {}))


class _SlowConfig(EngineConfig):
    """Stalls the first engine build so tests can cancel mid-run."""

    def build(self, network):
        time.sleep(0.5)
        return super().build(network)


@dataclass(frozen=True)
class _GatedConfig(EngineConfig):
    """Holds the first engine build until the test opens ``gate``.

    The gate is part of the config, so every instance gets its own
    worker-cache engine slot and its build really runs (and waits).
    """

    gate: threading.Event = field(default_factory=threading.Event)

    def build(self, network):
        assert self.gate.wait(timeout=60), "test never opened the gate"
        return super().build(network)


class TestCancellation:
    def test_cancel_skips_queued_jobs(self, manager, network):
        scenarios = suite_scenarios(network, list(EXAMPLE_QUERIES))
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, _SlowConfig())
        run = _submit(manager, jobs, payloads, prebuilt, max_workers=1)
        run.cancel()  # lands while pending or during the stalled first build
        assert run.wait(timeout=120)
        assert run.state == CANCELLED
        assert run.completed < run.total

    def test_cancel_via_manager(self, manager, network):
        scenarios = suite_scenarios(network, list(EXAMPLE_QUERIES))
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, _SlowConfig())
        run = _submit(manager, jobs, payloads, prebuilt, max_workers=1)
        assert manager.cancel(run.id) is run
        assert manager.cancel("missing") is None
        run.wait(timeout=120)


class TestStoreBackedManager:
    """Cross-worker job visibility through a shared artifact store.

    Two managers sharing one store model two forked server workers;
    everything the HTTP layer calls (snapshot_of / all_snapshots /
    request_cancel / active_count) must see both sides.
    """

    @pytest.fixture()
    def store(self, tmp_path):
        return SharedArtifactStore(str(tmp_path / "store"))

    @pytest.fixture()
    def owner(self, store):
        instance = JobManager(store=store)
        yield instance
        instance.shutdown(timeout=10)

    @pytest.fixture()
    def sibling(self, store):
        instance = JobManager(store=store)
        yield instance
        instance.shutdown(timeout=10)

    def test_run_ids_embed_the_owning_pid(self, owner, network):
        run = _submit_suite(owner, network, list(EXAMPLE_QUERIES[:1]))
        assert run.id.startswith(f"job-{os.getpid():x}-")
        run.wait(timeout=120)

    def test_sibling_sees_published_run(self, owner, sibling, network):
        run = _submit_suite(owner, network, list(EXAMPLE_QUERIES[:2]))
        assert run.wait(timeout=120)
        snapshot = sibling.snapshot_of(run.id)
        assert snapshot is not None
        assert snapshot["state"] == DONE
        assert [item["name"] for item in snapshot["items"]] == ["phi0", "phi1"]
        slim = sibling.snapshot_of(run.id, include_items=False)
        assert "items" not in slim
        assert run.id in [doc["id"] for doc in sibling.all_snapshots()]
        assert sibling.snapshot_of("job-ffff-0099") is None

    def test_sibling_cancel_is_honoured_between_jobs(
        self, owner, sibling, network
    ):
        scenarios = suite_scenarios(network, list(EXAMPLE_QUERIES))
        config = _GatedConfig()
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, config)
        # max_workers=1 runs in-process: the first build waits on the
        # gate until the sibling's cancel marker is in the store.
        run = _submit(owner, jobs, payloads, prebuilt, max_workers=1)
        deadline = time.time() + 60
        while sibling.snapshot_of(run.id)["state"] != RUNNING:  # past pending
            assert time.time() < deadline, "the run never started"
            time.sleep(0.01)
        document = sibling.request_cancel(run.id)
        config.gate.set()
        assert document == {"id": run.id, "state": RUNNING}
        assert run.wait(timeout=120)
        assert run.state == CANCELLED
        assert run.completed < run.total
        assert sibling.request_cancel("job-ffff-0099") is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_writes_no_networks_to_the_store(
        self, store, owner, network, workers
    ):
        """A run's networks reach its workers without the store, which
        holds job snapshots (and compiled queries) only."""
        scenarios = failure_scenarios(network, [EXAMPLE_QUERIES[0]], max_failures=1)
        jobs, payloads, prebuilt = scenarios_to_jobs(
            scenarios, EngineConfig(triage="auto")
        )
        run = _submit(owner, jobs, payloads, prebuilt, max_workers=workers)
        assert run.wait(timeout=180)
        summary = run.snapshot()["summary"]
        assert run.state == DONE
        assert summary["total"] == len(jobs)
        assert summary["errors"] == 0
        assert not os.path.exists(os.path.join(store.root, "network"))

    def test_active_count_merges_sibling_runs(self, store, owner):
        store.publish_job(
            "job-ffff-0001",
            {"id": "job-ffff-0001", "state": RUNNING, "client": "alice"},
        )
        store.publish_job(
            "job-ffff-0002",
            {"id": "job-ffff-0002", "state": DONE, "client": "alice"},
        )
        assert owner.active_count("alice") == 1
        assert owner.active_count("bob") == 0


def test_finished_runs_are_evicted(network):
    manager = JobManager(max_kept=2)
    runs = [
        _submit_suite(manager, network, list(EXAMPLE_QUERIES[:1]))
        for _ in range(4)
    ]
    for run in runs:
        run.wait(timeout=120)
    _submit_suite(manager, network, list(EXAMPLE_QUERIES[:1])).wait(timeout=120)
    assert len(manager.list()) <= 3
    manager.shutdown(timeout=10)


class TestFailuresAreCounted:
    """Failures the manager absorbs still show in the obs counters."""

    def test_failed_run_ticks_runs_failed(self, manager, network, monkeypatch):
        import repro.farm.jobs as jobs_module
        from repro import obs

        def exploding(*args, **kwargs):
            raise RuntimeError("pool blew up")

        monkeypatch.setattr(jobs_module, "run_jobs", exploding)
        with obs.recording():
            run = _submit_suite(manager, network, list(EXAMPLE_QUERIES[:1]))
            assert run.wait(timeout=60)
            assert run.state == FAILED
            assert run.error == "pool blew up"
            assert obs.counter("farm.runs_failed") == 1
            assert obs.counter("farm.runs_done") == 0

    def test_failed_build_ends_the_run_failed(self, manager):
        from repro import obs

        def build():
            raise FarmError("no such variant")

        with obs.recording():
            run = manager.submit(3, build)
            assert run.wait(timeout=60)
            assert run.state == FAILED
            assert run.error == "no such variant"
            assert run.completed == 0
            assert obs.counter("farm.runs_failed") == 1

    def test_a_plan_of_another_size_fails_the_run(self, manager, network):
        jobs, payloads, prebuilt = scenarios_to_jobs(
            suite_scenarios(network, list(EXAMPLE_QUERIES[:2]))
        )
        run = manager.submit(3, lambda: RunPlan(jobs, payloads, prebuilt))
        assert run.wait(timeout=60)
        assert run.state == FAILED
        assert "2 jobs" in run.error

    def test_dropped_publish_is_counted(self, tmp_path, network, monkeypatch):
        from repro import obs

        store = SharedArtifactStore(str(tmp_path / "store"))

        def vanished(run_id, snapshot):
            raise OSError("store directory vanished")

        monkeypatch.setattr(store, "publish_job", vanished)
        manager = JobManager(store=store)
        try:
            with obs.recording():
                run = _submit_suite(manager, network, list(EXAMPLE_QUERIES[:1]))
                assert run.wait(timeout=60)
                assert run.state == DONE  # progress goes on
                assert obs.counter("farm.publishes_dropped") >= 2
        finally:
            manager.shutdown(timeout=10)
