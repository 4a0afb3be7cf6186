"""Asynchronous job management for the verification farm.

Sweeps take minutes; HTTP requests should not. The
:class:`JobManager` runs each submitted sweep on a background thread
(which in turn fans out over the worker pool), tracks live progress,
and supports cancellation — the mechanics behind the server's
``POST /jobs`` / ``GET /jobs/<id>`` / ``DELETE /jobs/<id>`` endpoints,
and equally usable as a library (``manager.submit(...)`` →
``run.wait()``).

A :class:`FarmRun` is the unit of tracking: it accumulates
:class:`~repro.verification.batch.BatchItem`s and a running
:class:`~repro.verification.batch.BatchSummary` as jobs complete, so a
poll mid-run sees partial §4.2-style statistics, not just a counter.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.prob.mass import MassTracker
from repro.errors import FarmError
from repro.model.network import MplsNetwork
from repro.verification.batch import BatchItem, BatchSummary
from repro.farm.pool import FarmJob, run_jobs

#: Lifecycle: pending (building its sweep) → running → done | failed | cancelled.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_FINISHED = (DONE, FAILED, CANCELLED)

#: The summary counts a snapshot shows, in order.
_COUNTS = (
    "total", "satisfied", "unsatisfied", "inconclusive", "timeouts", "errors", "triaged"
)


class RunPlan(NamedTuple):
    """A built sweep: the jobs with their baseline networks (as
    :func:`repro.farm.scenarios.scenarios_to_jobs` returns them), the
    lint findings by job index (:func:`~repro.farm.scenarios.preflight_index`)
    and, for a probabilistic sweep, the job-aligned scenario masses."""

    jobs: List[FarmJob]
    networks: Dict[str, str]
    prebuilt: Optional[Dict[str, MplsNetwork]] = None
    preflight: Optional[Dict[int, tuple]] = None
    probabilities: Optional[List[float]] = None


class FarmRun:
    """One tracked sweep: live progress, partial summary, cancellation.

    A run is ``pending`` until its :class:`RunPlan` is built; preflight
    findings are attached to the items as they complete and appear in
    :meth:`snapshot`.
    """

    def __init__(
        self,
        run_id: str,
        total: int,
        description: str = "",
        prob_threshold: Optional[float] = None,
        client: Optional[str] = None,
    ) -> None:
        self.id = run_id
        self.description = description
        self.preflight: Optional[Dict[int, tuple]] = None
        self.client = client
        self.total = total
        self.state = PENDING
        self.error: Optional[str] = None
        #: When the owning manager last published this run to the shared
        #: store (monotonic-ish wall clock; publication throttling).
        self._last_publish = 0.0
        self.items: List[Optional[BatchItem]] = [None] * self.total
        self.summary = BatchSummary()
        self.completed = 0
        self.probabilities: Optional[List[float]] = None
        self.prob_threshold = prob_threshold
        self.prob_early_exit = False
        self.mass: Optional["MassTracker"] = None
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        self._done = threading.Event()

    # -- producer side (manager thread) --------------------------------
    def _start(self, plan: RunPlan) -> None:
        """Take the built sweep and enter ``running``; raises
        :class:`FarmError` when it is not the sweep the run announced."""
        if len(plan.jobs) != self.total:
            raise FarmError(f"the sweep built {len(plan.jobs)} jobs, not {self.total}")
        mass = None
        if plan.probabilities is not None:
            if len(plan.probabilities) != self.total:
                raise FarmError(
                    "scenario probabilities must align with the job list "
                    f"({len(plan.probabilities)} != {self.total})"
                )
            from repro.prob.mass import MassTracker

            mass = MassTracker(threshold=self.prob_threshold)
        with self._lock:  # a snapshot sees the plan whole or not at all
            self.mass = mass
            self.preflight = plan.preflight
            self.probabilities = plan.probabilities
            self.state = RUNNING

    def _record(self, index: int, item: BatchItem) -> None:
        with self._lock:
            if self.preflight:
                item.diagnostics = self.preflight.get(index, ())
            self.items[index] = item
            self.summary.add(item)
            self.completed += 1
            if self.mass is not None and self.probabilities is not None:
                self.mass.record(item.outcome, self.probabilities[index])
                # Early exit: once the threshold verdict cannot flip,
                # stop dispatching the remaining (less likely) scenarios.
                if self.mass.decided and self.completed < self.total:
                    if not self.prob_early_exit:
                        self.prob_early_exit = True
                        obs.add("prob.early_exits")
                    self._cancel.set()

    def _finish(
        self,
        state: str,
        error: Optional[str] = None,
        publish: Optional[Any] = None,
    ) -> None:
        with self._lock:
            self.state = state
            self.error = error
        # Publish the final snapshot *before* releasing waiters: anyone
        # woken by wait() (or an SSE "done" event) may immediately ask a
        # sibling worker, which must not still see the run as running.
        if publish is not None:
            publish()
        self._done.set()

    # -- consumer side --------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state in _FINISHED

    def cancel(self) -> None:
        """Request cancellation; running jobs finish, queued ones don't."""
        self._cancel.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run finishes; True when it did."""
        return self._done.wait(timeout)

    def snapshot(self, include_items: bool = True) -> Dict[str, Any]:
        """JSON-ready view of the run's current state."""
        with self._lock:
            summary = {name: getattr(self.summary, name) for name in _COUNTS}
            document: Dict[str, Any] = {
                "id": self.id,
                "description": self.description,
                "state": self.state,
                "total": self.total,
                "completed": self.completed,
                **({"client": self.client} if self.client else {}),
                "summary": dict(
                    summary,
                    total_seconds=round(self.summary.total_seconds, 6),
                    worst_query=self.summary.worst_query,
                ),
            }
            if self.error is not None:
                document["error"] = self.error
            if self.mass is not None:
                bounds = ("lower", "upper", "covered", "residual")
                document["prob"] = {
                    "threshold": self.mass.threshold,
                    "verdict": self.mass.verdict.value,
                    **{name: getattr(self.mass, name) for name in bounds},
                    "early_exit": self.prob_early_exit,
                }
            if self.preflight is not None:
                document["preflight"] = {
                    "flagged": len(self.preflight),
                    "diagnostics": sum(len(d) for d in self.preflight.values()),
                }
            if include_items:
                document["items"] = [
                    {
                        "name": item.name,
                        "outcome": item.outcome,
                        "seconds": round(item.seconds, 6),
                        **({"error": item.error} if item.error else {}),
                        **({"triage": item.triage} if item.triage else {}),
                        **(
                            {
                                "diagnostics": [
                                    d.to_dict() for d in item.diagnostics
                                ]
                            }
                            if item.diagnostics
                            else {}
                        ),
                    }
                    for item in self.items
                    if item is not None
                ]
        return document


class JobManager:
    """Registry and executor of asynchronous farm runs.

    With a :class:`~repro.farm.store.SharedArtifactStore` attached
    (``store=``), the manager additionally gives *sibling server
    workers* a view of its runs: run ids embed the owning pid (so N
    forked workers never collide), snapshots are published to
    ``<store>/jobs/<id>.json`` (throttled while running, always on
    finish), and a cancellation requested by a sibling (via a marker
    file) is honoured between jobs. A run always executes in the
    process that submitted it, so its networks never go to the store.
    :meth:`snapshot_of`, :meth:`all_snapshots`, :meth:`request_cancel`
    and :meth:`active_count` transparently cover both local and sibling
    runs — they are what the HTTP layer calls.
    """

    #: Minimum seconds between mid-run snapshot publications.
    publish_interval = 0.2

    def __init__(self, max_kept: int = 100, store: Optional[Any] = None) -> None:
        self.max_kept = max_kept
        self.store = store
        self._runs: "Dict[str, FarmRun]" = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    def submit(
        self,
        total: int,
        build: Callable[[], RunPlan],
        max_workers: int = 1,
        description: str = "",
        prob_threshold: Optional[float] = None,
        client: Optional[str] = None,
    ) -> FarmRun:
        """Register a sweep of ``total`` jobs and return its run at once.

        The run's own thread calls ``build``, then runs the plan; until
        then the run is ``pending``. A build that raises, or builds
        other than ``total`` jobs, ends the run ``failed``; a run
        cancelled while pending ends ``cancelled`` with no job run. A
        probabilistic plan's snapshots carry bounds on P(query holds),
        and with ``prob_threshold`` the run stops once the verdict is
        decided. ``client`` attributes the run for per-client quotas.
        """
        if total < 1:
            raise FarmError("cannot submit an empty job list")
        if self.store is not None:
            # Pid-qualified ids: every forked server worker counts from
            # 1, so the bare counter would collide in the shared store.
            run_id = f"job-{os.getpid():x}-{next(self._counter):04d}"
        else:
            run_id = f"job-{next(self._counter):04d}"
        run = FarmRun(
            run_id,
            total,
            description=description,
            prob_threshold=prob_threshold,
            client=client,
        )
        thread = threading.Thread(
            target=self._execute,
            args=(run, build, max_workers),
            name=f"farm-{run_id}",
            daemon=True,
        )
        with self._lock:
            self._runs[run_id] = run
            self._threads[run_id] = thread
            self._evict_finished()
        # The snapshot makes the run visible on sibling workers' /jobs
        # endpoints immediately.
        self._publish(run, force=True)
        obs.add("farm.runs_submitted")
        obs.add("farm.jobs_submitted", total)
        thread.start()
        return run

    def _publish(self, run: FarmRun, force: bool = False) -> None:
        """Publish a run's snapshot to the shared store (throttled)."""
        if self.store is None:
            return
        now = time.time()
        if not force and now - run._last_publish < self.publish_interval:
            return
        run._last_publish = now
        try:
            self.store.publish_job(run.id, run.snapshot(include_items=True))
        except OSError:  # store directory vanished; progress goes on
            obs.add("farm.publishes_dropped")

    def _cancelled(self, run: FarmRun) -> bool:
        """The pool's cancellation probe: local cancel OR a sibling
        worker's marker file in the shared store."""
        if run._cancel.is_set():
            return True
        if self.store is not None and self.store.job_cancel_requested(run.id):
            run.cancel()
            return True
        return False

    def _execute(
        self, run: FarmRun, build: Callable[[], RunPlan], max_workers: int
    ) -> None:
        def progress(index: int, _total: int, item: BatchItem) -> None:
            run._record(index, item)
            self._publish(run)

        error: Optional[str] = None
        try:
            plan = build()
            if not self._cancelled(run):
                run._start(plan)
                self._publish(run, force=True)
                run_jobs(
                    plan.jobs,
                    plan.networks,
                    max_workers=max_workers,
                    progress=progress,
                    cancelled=lambda: self._cancelled(run),
                    prebuilt=plan.prebuilt,
                )
        except Exception as failure:  # a failed build or pool fails the run
            state, error = FAILED, str(failure)
        else:
            # A probabilistic early exit is a *successful* completion —
            # the verdict is decided — not a user cancellation.
            cancelled = run._cancel.is_set() and not run.prob_early_exit
            state = CANCELLED if cancelled else DONE
        obs.add(f"farm.runs_{state}")  # counted before any waiter wakes
        run._finish(state, error, publish=lambda: self._publish(run, force=True))

    def _evict_finished(self) -> None:
        # Called under self._lock: drop the oldest finished runs beyond
        # the retention bound so a long-lived server doesn't accumulate
        # every sweep it ever ran.
        if len(self._runs) <= self.max_kept:
            return
        for run_id in list(self._runs):
            run = self._runs[run_id]
            if run.finished:
                del self._runs[run_id]
                self._threads.pop(run_id, None)
                if self.store is not None:
                    self.store.delete_job(run_id)
                if len(self._runs) <= self.max_kept:
                    break

    # -- queries ---------------------------------------------------------
    def get(self, run_id: str) -> Optional[FarmRun]:
        """The run registered under ``run_id``, or None."""
        with self._lock:
            return self._runs.get(run_id)

    def list(self) -> List[FarmRun]:
        """Every retained run, oldest first."""
        with self._lock:
            return list(self._runs.values())

    def cancel(self, run_id: str) -> Optional[FarmRun]:
        """Cancel a run; returns it, or None when unknown."""
        run = self.get(run_id)
        if run is not None:
            run.cancel()
        return run

    # -- store-aware views (local runs + sibling workers' runs) ----------
    def snapshot_of(
        self, run_id: str, include_items: bool = True
    ) -> Optional[Dict[str, Any]]:
        """A run's snapshot — live for local runs, last published for a
        sibling worker's run, None when neither knows the id."""
        run = self.get(run_id)
        if run is not None:
            return run.snapshot(include_items=include_items)
        if self.store is None:
            return None
        snapshot = self.store.load_job(run_id)
        if snapshot is None:
            return None
        if not include_items:
            snapshot.pop("items", None)
        return snapshot

    def all_snapshots(self) -> List[Dict[str, Any]]:
        """Item-free snapshots of every visible run: this process's
        (live), plus sibling workers' published ones, oldest-id first."""
        documents: Dict[str, Dict[str, Any]] = {}
        if self.store is not None:
            for run_id, snapshot in self.store.list_jobs().items():
                snapshot.pop("items", None)
                documents[run_id] = snapshot
        for run in self.list():  # local live state wins over published
            documents[run.id] = run.snapshot(include_items=False)
        return [documents[run_id] for run_id in sorted(documents)]

    def request_cancel(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Cancel a visible run, wherever it lives.

        Local runs cancel immediately; a sibling worker's run gets a
        marker file in the store which its owner honours between jobs.
        Returns ``{"id", "state"}`` (the state *before* the owner
        reacts), or None when the id is unknown everywhere.
        """
        run = self.get(run_id)
        if run is not None:
            run.cancel()
            return {"id": run.id, "state": run.state}
        if self.store is None:
            return None
        snapshot = self.store.load_job(run_id)
        if snapshot is None:
            return None
        if snapshot.get("state") not in _FINISHED:
            self.store.request_job_cancel(run_id)
        return {"id": run_id, "state": snapshot.get("state", RUNNING)}

    def active_count(self, client: str) -> int:
        """How many unfinished runs ``client`` owns across all workers
        (the per-client quota's denominator)."""
        local_ids = set()
        count = 0
        for run in self.list():
            local_ids.add(run.id)
            if run.client == client and not run.finished:
                count += 1
        if self.store is not None:
            for run_id, snapshot in self.store.list_jobs().items():
                if run_id in local_ids:
                    continue  # counted live above
                if (
                    snapshot.get("client") == client
                    and snapshot.get("state") not in _FINISHED
                ):
                    count += 1
        return count

    def shutdown(self, timeout: float = 5.0) -> None:
        """Cancel everything and wait briefly for the threads to drain."""
        for run in self.list():
            run.cancel()
        with self._lock:
            threads = list(self._threads.values())
        deadline = time.time() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.time()))
