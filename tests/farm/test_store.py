"""Tests for the disk-backed shared artifact store.

The headline guarantee (module docstring of :mod:`repro.farm.store`):
publication is lock-free and atomic, so a reader sees either no
artifact or a complete one, however many writers race on a key.
"""

import os
import threading

import pytest

from repro import obs
from repro.datasets.example import build_example_network
from repro.farm.store import (
    STORE_ENV,
    SharedArtifactStore,
    active_store,
    configure_store,
    hash_text,
    reset_store_for_tests,
)
from repro.io.json_format import network_to_json

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


def test_hash_text_is_stable_and_content_keyed():
    network = build_example_network()
    payload = network_to_json(network)
    assert hash_text(payload) == hash_text(payload)
    assert hash_text(payload) != hash_text(payload + " ")
    assert len(hash_text(payload)) == 64  # sha256 hex


class TestArtifacts:
    def test_get_put_bytes_roundtrip(self, store):
        with obs.recording():
            assert store.get_bytes("compiled", KEY) is None
            store.put_bytes("compiled", KEY, b"{}")
            assert store.get_bytes("compiled", KEY) == b"{}"
            assert obs.counter("farm.store.misses") == 1
            assert obs.counter("farm.store.hits") == 1

    def test_object_roundtrip(self, store):
        assert store.get_object("compiled", KEY) is None
        assert store.put_object("compiled", KEY, {"answer": 42}) is True
        assert store.get_object("compiled", KEY) == {"answer": 42}

    def test_sharded_layout(self, store):
        store.put_bytes("compiled", KEY, b"x")
        assert os.path.exists(
            os.path.join(store.root, "compiled", KEY[:2], KEY)
        )

    def test_clear_resets_everything(self, store):
        store.put_bytes("compiled", KEY, b"x")
        store.clear()
        assert store.get_bytes("compiled", KEY) is None
        store.put_bytes("compiled", KEY, b"y")  # the store works on after
        assert store.get_bytes("compiled", KEY) == b"y"

    def test_racing_writers_never_expose_a_partial_artifact(self, store):
        """Last writer wins, and no read ever sees a torn file."""
        payloads = [bytes([fill]) * (1 << 18) for fill in (1, 2)]
        torn = []
        stop = threading.Event()

        def write(data):
            for _ in range(20):
                store.put_bytes("compiled", KEY, data)

        def read():
            while not stop.is_set():
                data = store.get_bytes("compiled", KEY)
                if data is not None and data not in payloads:
                    torn.append(len(data))

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(p,)) for p in payloads]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(60)
        stop.set()
        reader.join(60)
        assert not any(t.is_alive() for t in [reader, *writers])
        assert torn == []
        assert store.get_bytes("compiled", KEY) in payloads
        shard = os.path.dirname(store.path_for("compiled", KEY))
        assert os.listdir(shard) == [KEY]  # no temp file left behind


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
            assert obs.counter("farm.store.read_failures") == 1
            assert obs.counter("farm.store.misses") == 1
            assert obs.counter("farm.store.hits") == 0
            assert obs.counter("farm.store.put_failures") == 0


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
