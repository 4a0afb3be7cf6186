"""Disk-backed shared artifact store: reuse compiled queries across processes.

A production deployment runs N server workers (see ``aalwines serve
--workers``), and without sharing, every worker pays the same
compilations again. This module is the shared tier: a store on disk
keyed by content hash (:func:`hash_text`), safe under concurrent access
from any number of processes. It holds two things only: compiled query
artifacts and the job-run snapshots that let sibling workers answer
``/jobs``.

Layout (everything lives under one root directory)::

    <root>/
        compiled/<aa>/<key>           # pickled CompiledQuery artifacts
        jobs/<id>.json                # cross-process job-run snapshots
        jobs/<id>.cancel              # cancellation markers

where ``<aa>`` is the first two hex digits of the SHA-256 ``<key>``
(a fan-out shard so no directory grows unbounded).

Concurrency protocol — lock-free publication: every file is written to
a temp file and ``os.replace``-d into place, so a visible file is always
complete and readers never lock. Two processes that miss the same key
may both build it and both publish; artifacts are deterministic
functions of their key, so they publish the same bytes and the last
writer wins.

Artifacts need no invalidation; ``clear()`` exists for tests and
operators. Pickle failures (an artifact that cannot cross process
boundaries) are counted, never raised — the caller just rebuilds
locally, exactly as if the store were cold.

The process-global store is configured either programmatically
(:func:`configure_store`) or via the ``AALWINES_STORE`` environment
variable, which is how forked/spawned farm pool workers inherit the
parent server's store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from typing import Any, Dict, Optional

from repro import obs

#: Environment variable naming the store directory; read by
#: :func:`active_store` so farm pool workers find the parent's store.
STORE_ENV = "AALWINES_STORE"


def hash_text(text: str) -> str:
    """Content key of a serialized artifact (SHA-256 hex digest)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SharedArtifactStore:
    """A content-hash artifact store shared by cooperating processes.

    ``kind`` namespaces artifacts ("compiled"); ``key`` is a content
    hash (see :func:`hash_text`). Artifacts and job
    snapshots share one lock-free publication protocol.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> str:
        """The artifact file path of ``(kind, key)`` (shard directories
        are created on demand)."""
        shard = key[:2] if len(key) > 2 else "xx"
        directory = os.path.join(self.root, kind, shard)
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, key)

    # ------------------------------------------------------------------
    # raw bytes
    # ------------------------------------------------------------------
    def _read(self, path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _publish(self, path: str, data: bytes) -> None:
        # Atomic publication: a reader either sees the whole artifact or
        # no artifact, never a partial write.
        fd, temp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    def get_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """The stored artifact bytes, or None (counts a hit/miss)."""
        data = self._read(self.path_for(kind, key))
        obs.add("farm.store.hits" if data is not None else "farm.store.misses")
        return data

    def put_bytes(self, kind: str, key: str, data: bytes) -> None:
        """Publish artifact bytes (last writer wins; artifacts are
        deterministic so every writer writes equivalent content)."""
        self._publish(self.path_for(kind, key), data)

    # ------------------------------------------------------------------
    # pickled-object artifacts (compiled queries)
    # ------------------------------------------------------------------
    def get_object(self, kind: str, key: str) -> Optional[Any]:
        """A stored pickled artifact, or None (also on a corrupt file)."""
        data = self._read(self.path_for(kind, key))
        try:
            value = None if data is None else pickle.loads(data)
        except Exception:
            # A torn or version-skewed artifact is a miss, not an error:
            # the caller rebuilds and republishes.
            obs.add("farm.store.read_failures")
            value = data = None
        obs.add("farm.store.hits" if data is not None else "farm.store.misses")
        return value

    def put_object(self, kind: str, key: str, value: Any) -> bool:
        """Publish a pickled artifact; False (counted) when ``value``
        cannot cross process boundaries."""
        try:
            data = pickle.dumps(value)
        except Exception:
            obs.add("farm.store.put_failures")
            return False
        self.put_bytes(kind, key, data)
        return True

    # ------------------------------------------------------------------
    # job-run snapshots (cross-process /jobs visibility)
    # ------------------------------------------------------------------
    def _jobs_dir(self) -> str:
        directory = os.path.join(self.root, "jobs")
        os.makedirs(directory, exist_ok=True)
        return directory

    def publish_job(self, run_id: str, snapshot: Dict[str, Any]) -> None:
        """Publish a job run's snapshot for sibling server workers."""
        path = os.path.join(self._jobs_dir(), f"{run_id}.json")
        self._publish(path, json.dumps(snapshot).encode("utf-8"))

    def load_job(self, run_id: str) -> Optional[Dict[str, Any]]:
        """A sibling worker's published snapshot of ``run_id``, or None."""
        if os.sep in run_id or run_id.startswith("."):
            return None  # defensive: ids come from URLs
        data = self._read(os.path.join(self._jobs_dir(), f"{run_id}.json"))
        if data is None:
            return None
        try:
            return json.loads(data.decode("utf-8"))
        except ValueError:
            return None

    def list_jobs(self) -> Dict[str, Dict[str, Any]]:
        """Every published job snapshot, keyed by run id."""
        jobs: Dict[str, Dict[str, Any]] = {}
        try:
            names = os.listdir(self._jobs_dir())
        except OSError:
            return jobs
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            snapshot = self.load_job(name[: -len(".json")])
            if snapshot is not None and "id" in snapshot:
                jobs[snapshot["id"]] = snapshot
        return jobs

    def request_job_cancel(self, run_id: str) -> None:
        """Leave a cancellation marker for whichever worker owns the run."""
        if os.sep in run_id or run_id.startswith("."):
            return
        path = os.path.join(self._jobs_dir(), f"{run_id}.cancel")
        self._publish(path, b"cancel\n")

    def job_cancel_requested(self, run_id: str) -> bool:
        """Has a sibling worker requested cancellation of ``run_id``?"""
        return os.path.exists(
            os.path.join(self._jobs_dir(), f"{run_id}.cancel")
        )

    def delete_job(self, run_id: str) -> None:
        """Drop a run's published snapshot and cancel marker (eviction —
        each :class:`~repro.farm.jobs.JobManager` prunes its own runs)."""
        if os.sep in run_id or run_id.startswith("."):
            return
        for suffix in (".json", ".cancel"):
            try:
                os.unlink(os.path.join(self._jobs_dir(), f"{run_id}{suffix}"))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Delete every artifact (tests / operator reset)."""
        import shutil

        for entry in os.listdir(self.root):
            path = os.path.join(self.root, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"SharedArtifactStore({self.root!r})"


# ----------------------------------------------------------------------
# the process-global store
# ----------------------------------------------------------------------

_ACTIVE: Optional[SharedArtifactStore] = None
_ACTIVE_CONFIGURED = False
_ACTIVE_LOCK = threading.Lock()


def configure_store(root: Optional[str]) -> Optional[SharedArtifactStore]:
    """Set (or clear, with None) this process's shared artifact store.

    Also mirrors the choice into ``AALWINES_STORE`` so farm pool workers
    spawned later inherit it. Returns the active store.
    """
    global _ACTIVE, _ACTIVE_CONFIGURED
    with _ACTIVE_LOCK:
        if root is None:
            _ACTIVE = None
            _ACTIVE_CONFIGURED = True
            os.environ.pop(STORE_ENV, None)
        else:
            _ACTIVE = SharedArtifactStore(root)
            _ACTIVE_CONFIGURED = True
            os.environ[STORE_ENV] = _ACTIVE.root
        return _ACTIVE


def active_store() -> Optional[SharedArtifactStore]:
    """This process's shared store: the configured one, else the one
    named by ``AALWINES_STORE``, else None."""
    global _ACTIVE, _ACTIVE_CONFIGURED
    with _ACTIVE_LOCK:
        if _ACTIVE is not None or _ACTIVE_CONFIGURED:
            return _ACTIVE
        root = os.environ.get(STORE_ENV)
        if root:
            _ACTIVE = SharedArtifactStore(root)
            _ACTIVE_CONFIGURED = True
        return _ACTIVE


def reset_store_for_tests() -> None:
    """Forget the process-global store (test isolation hook)."""
    global _ACTIVE, _ACTIVE_CONFIGURED
    with _ACTIVE_LOCK:
        _ACTIVE = None
        _ACTIVE_CONFIGURED = False
