"""Tests for the disk-backed shared artifact store.

The headline guarantee (module docstring of :mod:`repro.farm.store`):
two processes racing to build the same content-hash key produce exactly
one build, and the loser reads the winner's artifact.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro import obs
from repro.farm.store import (
    STORE_ENV,
    SharedArtifactStore,
    active_store,
    configure_store,
    reset_store_for_tests,
)

KEY = "ab" + "0" * 62  # a plausible sha-256 hex digest


@pytest.fixture()
def store(tmp_path):
    return SharedArtifactStore(str(tmp_path / "store"))


@pytest.fixture(autouse=True)
def isolated_global_store():
    """Keep the process-global store (and its env mirror) out of tests."""
    saved = os.environ.pop(STORE_ENV, None)
    reset_store_for_tests()
    yield
    reset_store_for_tests()
    if saved is None:
        os.environ.pop(STORE_ENV, None)
    else:
        os.environ[STORE_ENV] = saved


class TestBuildOnce:
    def test_miss_then_build_then_hit(self, store):
        calls = []

        def build():
            calls.append(1)
            return b"artifact"

        with obs.recording():
            data, built = store.get_or_build_bytes("compiled", KEY, build)
            assert (data, built) == (b"artifact", True)
            data, built = store.get_or_build_bytes("compiled", KEY, build)
            assert (data, built) == (b"artifact", False)
            assert obs.counter("farm.store.builds") == 1
            assert obs.counter("farm.store.hits") == 1
            assert obs.counter("farm.store.misses") == 1
        assert len(calls) == 1

    def test_get_put_bytes_roundtrip(self, store):
        assert store.get_bytes("network", KEY) is None
        store.put_bytes("network", KEY, b"{}")
        assert store.get_bytes("network", KEY) == b"{}"

    def test_text_variant(self, store):
        text, built = store.get_or_build_text("network", KEY, lambda: "påyload")
        assert (text, built) == ("påyload", True)
        assert store.get_text("network", KEY) == "påyload"
        assert store.get_text("network", "ff" + "0" * 62) is None

    def test_object_variant(self, store):
        value, built = store.get_or_build_object(
            "compiled", KEY, lambda: {"answer": 42}
        )
        assert (value, built) == ({"answer": 42}, True)
        value, built = store.get_or_build_object(
            "compiled", KEY, lambda: {"answer": 0}
        )
        assert (value, built) == ({"answer": 42}, False)

    def test_sharded_layout(self, store):
        store.put_bytes("network", KEY, b"x")
        assert os.path.exists(
            os.path.join(store.root, "network", KEY[:2], KEY)
        )

    def test_clear_resets_everything(self, store):
        store.put_bytes("network", KEY, b"x")
        store.clear()
        assert store.get_bytes("network", KEY) is None
        data, built = store.get_or_build_bytes("network", KEY, lambda: b"y")
        assert (data, built) == (b"y", True)  # the next lookup rebuilt


class TestPickleFailures:
    def test_unpicklable_put_is_counted_not_raised(self, store):
        with obs.recording():
            assert store.put_object("compiled", KEY, lambda: None) is False
            assert obs.counter("farm.store.put_failures") == 1
        assert store.get_object("compiled", KEY) is None

    def test_corrupt_artifact_reads_as_miss(self, store):
        store.put_bytes("compiled", KEY, b"\x80\x04 definitely not pickle")
        with obs.recording():
            assert store.get_object("compiled", KEY) is None
            assert obs.counter("farm.store.put_failures") == 1

    def test_unpicklable_build_result_still_returned(self, store):
        value, built = store.get_or_build_object(
            "compiled", KEY, lambda: (lambda: None)
        )
        assert built is True
        assert callable(value)
        # Nothing was published, so the next call rebuilds.
        _value, built = store.get_or_build_object(
            "compiled", KEY, lambda: (lambda: None)
        )
        assert built is True


def _race_build(root, key, barrier, queue):
    store = SharedArtifactStore(root)
    barrier.wait(timeout=30)

    def build():
        time.sleep(0.3)  # widen the race window: the loser must block
        return pickle.dumps(os.getpid())

    data, built = store.get_or_build_bytes("compiled", key, build)
    queue.put((os.getpid(), built, data))


class TestTwoProcessRace:
    def test_race_builds_exactly_once(self, tmp_path):
        """Two processes racing the same key: one build, both read it."""
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        queue = context.Queue()
        root = str(tmp_path / "store")
        workers = [
            context.Process(
                target=_race_build, args=(root, KEY, barrier, queue)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        builders = [pid for pid, built, _data in results if built]
        assert len(builders) == 1
        payloads = {data for _pid, _built, data in results}
        assert payloads == {pickle.dumps(builders[0])}


class TestJobSnapshots:
    def test_publish_load_roundtrip(self, store):
        snapshot = {"id": "job-1-0001", "state": "running", "completed": 3}
        store.publish_job("job-1-0001", snapshot)
        assert store.load_job("job-1-0001") == snapshot
        assert store.load_job("job-unknown") is None

    def test_list_jobs(self, store):
        store.publish_job("job-1-0001", {"id": "job-1-0001", "state": "done"})
        store.publish_job("job-2-0001", {"id": "job-2-0001", "state": "running"})
        jobs = store.list_jobs()
        assert sorted(jobs) == ["job-1-0001", "job-2-0001"]

    def test_cancel_marker_roundtrip(self, store):
        assert store.job_cancel_requested("job-1-0001") is False
        store.request_job_cancel("job-1-0001")
        assert store.job_cancel_requested("job-1-0001") is True

    def test_delete_job_drops_snapshot_and_marker(self, store):
        store.publish_job("job-1-0001", {"id": "job-1-0001", "state": "done"})
        store.request_job_cancel("job-1-0001")
        store.delete_job("job-1-0001")
        assert store.load_job("job-1-0001") is None
        assert store.job_cancel_requested("job-1-0001") is False

    def test_hostile_run_ids_are_ignored(self, store):
        # Ids come straight from URLs; traversal must be inert.
        store.request_job_cancel(f"..{os.sep}escape")
        store.request_job_cancel(".hidden")
        assert store.load_job(f"..{os.sep}escape") is None
        assert store.load_job(".hidden") is None
        # Nothing was written anywhere — not even the jobs directory.
        assert not os.path.exists(os.path.join(store.root, "jobs"))
        assert os.listdir(store.root) == []


class TestGlobalStore:
    def test_configure_sets_and_clears_env(self, tmp_path):
        store = configure_store(str(tmp_path / "store"))
        assert os.environ[STORE_ENV] == store.root
        assert active_store() is store
        assert configure_store(None) is None
        assert STORE_ENV not in os.environ
        assert active_store() is None

    def test_active_store_reads_environment(self, tmp_path):
        os.environ[STORE_ENV] = str(tmp_path / "inherited")
        reset_store_for_tests()
        store = active_store()
        assert store is not None
        assert store.root == os.path.abspath(str(tmp_path / "inherited"))
        # Memoized: same instance on the next call.
        assert active_store() is store
