"""The farm's worker pool: fan one sweep out over N processes.

What-if sweeps are embarrassingly parallel — every job is one (network
variant, query) pair verified independently — so the pool is a thin,
careful layer over :class:`concurrent.futures.ProcessPoolExecutor`:

* **Picklable job specs.** A :class:`FarmJob` carries only strings: a
  query, a content-hash key naming its baseline network, the links
  failed in its variant, and an :class:`EngineConfig`. The baseline
  JSON travels once per worker (through the pool initializer), not
  once per job; the in-process path reads the run's own baselines.
* **Artifacts live as long as their run.** A job builds its own engine
  and derives its own variant from the run's baseline: a run-local
  copy of the caller's pre-built baselines in-process, or the pool
  worker's :data:`_PREBUILT`, inherited outright under ``fork`` and
  deserialized from the initializer payloads on first use under
  ``spawn``/``forkserver``. Nothing outlives :func:`run_jobs`.
* **Crash and timeout containment.** A job that times out or raises a
  :class:`~repro.errors.ReproError` becomes a ``timeout``/``error``
  :class:`~repro.verification.batch.BatchItem`; a worker process that
  dies outright (OOM-kill, segfault) surfaces as ``error`` items for
  the affected jobs — :func:`run_jobs` never raises for per-job
  failures and always returns results aligned with its input order.

The ``max_workers <= 1`` path executes the *same* worker function
in-process, which is both the no-multiprocessing fallback and the
anchor for the farm's serial-equivalence guarantee (see DESIGN.md).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.errors import FarmError
from repro.farm.scenarios import build_variant
from repro.farm.store import hash_text
from repro.model.network import MplsNetwork
from repro.verification.batch import BatchItem, run_single
from repro.verification.engine import VerificationEngine, check_settings


@dataclass(frozen=True)
class EngineConfig:
    """Picklable engine settings — everything a worker needs to rebuild
    a :class:`VerificationEngine` identical to the caller's."""

    backend: str = "poststar"
    use_reductions: bool = True
    #: Weight vector in CLI text form (``"hops, failures + 3*tunnels"``).
    weight: Optional[str] = None
    #: Static triage mode ("auto" / "off" / "only"); settled scenarios
    #: skip compilation entirely on the worker.
    triage: str = "off"

    def __post_init__(self) -> None:
        # Reject settings no engine can be built from here, once per
        # sweep, rather than as an error item from every job.
        check_settings(self.backend, self.weight, self.triage)

    @classmethod
    def from_names(
        cls,
        engine: str = "dual",
        weight: Optional[str] = None,
        triage: str = "off",
        use_reductions: bool = True,
    ) -> "EngineConfig":
        """The settings a front end's engine name (one of
        :data:`~repro.verification.engine.ENGINE_NAMES`) selects."""
        return cls(
            backend="poststar" if engine == "dual" else engine,
            use_reductions=use_reductions,
            weight=weight,
            triage=triage,
        )

    @classmethod
    def from_engine(cls, engine: VerificationEngine) -> "EngineConfig":
        """Capture an engine's settings; raises :class:`FarmError` when
        the engine carries state that cannot cross a process boundary.

        The saturation core is not captured: workers always run the
        interned core, whose answers the tuple core reproduces exactly.
        """
        if engine.distance_of is not None:
            raise FarmError(
                "engines with a custom distance_of callable cannot be "
                "shipped to farm workers; run with jobs=1"
            )
        weight = None
        if engine.weight_vector is not None:
            weight = ", ".join(str(e) for e in engine.weight_vector.expressions)
        return cls(
            backend=engine.backend,
            use_reductions=engine.use_reductions,
            weight=weight,
            triage=engine.triage,
        )

    def build(self, network: MplsNetwork) -> VerificationEngine:
        """Instantiate the configured engine for ``network``."""
        return VerificationEngine(
            network,
            backend=self.backend,
            use_reductions=self.use_reductions,
            weight=self.weight,
            triage=self.triage,
        )


@dataclass(frozen=True)
class FarmJob:
    """One unit of farm work: verify ``query`` on the network whose
    content hash is ``network_key``, with the links ``failed_links``
    failed, on an engine built from ``config``."""

    name: str
    query: str
    network_key: str
    config: EngineConfig = EngineConfig()
    timeout: Optional[float] = None
    failed_links: Tuple[str, ...] = ()

    @property
    def artifact_key(self) -> str:
        """The variant's artifact-store key: the baseline's key, hashed
        with the failed link names when there are any."""
        links = self.failed_links
        return hash_text("\n".join((self.network_key, *links))) if links else self.network_key


# ----------------------------------------------------------------------
# worker-side machinery
# ----------------------------------------------------------------------

#: Serialized baselines this pool worker may build, keyed by content
#: hash; filled by the pool initializer, in worker processes only.
_NETWORK_PAYLOADS: Dict[str, str] = {}

#: Built baselines of this pool worker's sweep by content hash (inherited
#: under ``fork``, else deserialized from :data:`_NETWORK_PAYLOADS` on
#: first use), and the current variant (see :func:`_network_for`).
_PREBUILT: Dict[Hashable, MplsNetwork] = {}


def _init_worker(payloads: Dict[str, str], observe: bool = False) -> None:
    """Pool initializer: receive the sweep's network payloads once.

    ``observe`` mirrors the parent's observability switch into the
    worker process so chunk executions measure their metric deltas.
    """
    _NETWORK_PAYLOADS.update(payloads)
    if observe:
        obs.enable()


def _network_for(
    job: FarmJob,
    payloads: Mapping[str, str],
    built: Dict[Hashable, MplsNetwork],
) -> MplsNetwork:
    """The network ``job`` runs on: its baseline (the one in ``built``,
    or else its JSON payload deserialized once and kept in ``built``)
    with the job's links failed.

    ``built`` keeps only the current variant, under its (baseline key,
    failed links): chunks and serial runs take a variant's jobs in a
    row. A run executes only in the process that submitted it, so
    ``payloads``/``built`` always hold every baseline of the run.
    """
    key = job.network_key
    baseline = built.get(key)
    if baseline is None:
        payload = payloads.get(key)
        if payload is None:
            raise FarmError(f"no network registered under key {key[:12]}…")
        from repro.io.json_format import network_from_json

        baseline = built[key] = network_from_json(payload)
    if not job.failed_links:
        return baseline
    variant_key = (key, job.failed_links)
    variant = built.get(variant_key)
    if variant is None:
        for stale in [other for other in built if isinstance(other, tuple)]:
            del built[stale]
        variant = built[variant_key] = build_variant(baseline, job.failed_links)
    return variant


def execute_job(
    job: FarmJob,
    payloads: Mapping[str, str],
    built: Dict[Hashable, MplsNetwork],
) -> BatchItem:
    """Run one job in this process on a fresh engine.

    This is the single verification code path of the farm: the process
    pool calls it in workers with the pool's module globals, and the
    ``max_workers <= 1`` fallback calls it inline with the run's own
    ``payloads`` and a run-local copy of its pre-built baselines.
    """
    network = _network_for(job, payloads, built)
    engine = job.config.build(network)
    # With a shared store attached, compiled queries of this network
    # variant are reusable across worker processes; the key names them.
    engine.attach_artifact_key(job.artifact_key)
    return run_single(engine, job.name, job.query, job.timeout)


def execute_chunk(
    chunk: List[FarmJob],
) -> Tuple[List[BatchItem], Optional[Mapping[str, Any]]]:
    """Run a batch of jobs in this process, containing per-job errors.

    The pool dispatches chunks grouped by network variant so that all
    of a variant's queries run on one worker, which builds the variant
    once.

    Returns the items plus, when observation is on in this process, the
    metric delta the chunk produced (``None`` otherwise) so the driver
    can fold worker-side counters into the parent registry.
    """
    before = obs.snapshot() if obs.enabled() else None
    items = [_safe_execute(job, _NETWORK_PAYLOADS, _PREBUILT) for job in chunk]
    delta = None
    if before is not None:
        delta = obs.diff_snapshots(obs.snapshot(), before)
    return items, delta


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------

#: Per-item progress callback (index, total, item) — called in
#: *completion* order, which under parallelism differs from index order.
ProgressCallback = Callable[[int, int, BatchItem], None]


def plan_chunks(variant_keys: Sequence[Hashable], max_workers: int) -> List[List[int]]:
    """Group job indices (one per entry of ``variant_keys``) into
    dispatch chunks.

    Jobs sharing a network variant stay together so a worker builds it
    once for all of them; variant groups are then packed into ~4 chunks
    per worker — enough slack for load balancing without a dispatch
    round-trip per job. A variant whose group alone exceeds the
    per-chunk budget is *split* first: without the split, a sweep over
    a single variant collapses into one chunk and serializes on one
    worker no matter how many were asked for
    (``tests/obs/test_farm_merge.py`` pins this down).
    """
    total = len(variant_keys)
    if total == 0:
        return []
    target = max(1, 4 * max_workers)
    variant_indices: Dict[Hashable, List[int]] = {}
    for index, key in enumerate(variant_keys):
        variant_indices.setdefault(key, []).append(index)
    size_cap = max(1, -(-total // target))  # ceil(total / target)
    groups: List[List[int]] = []
    for group in variant_indices.values():
        for start in range(0, len(group), size_cap):
            groups.append(group[start : start + size_cap])
    chunk_count = min(len(groups), target)
    return [
        [index for group in groups[start::chunk_count] for index in group]
        for start in range(chunk_count)
    ]


def run_jobs(
    jobs: List[FarmJob],
    networks: Dict[str, str],
    max_workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    cancelled: Optional[Callable[[], bool]] = None,
    prebuilt: Optional[Dict[str, MplsNetwork]] = None,
) -> List[Optional[BatchItem]]:
    """Execute every job; returns items aligned with ``jobs``.

    ``networks`` maps content-hash keys to baseline JSON; ``prebuilt``
    optionally maps the same keys to already-built baselines (shared
    with forked workers for free, used directly in-process). The run
    keeps no network or engine after it returns. A slot is
    ``None`` only when ``cancelled()`` turned true before its job ran;
    every executed job yields a :class:`BatchItem`, with worker crashes
    recorded as ``error`` outcomes rather than raised.
    """
    total = len(jobs)
    results: List[Optional[BatchItem]] = [None] * total
    if total == 0:
        return results

    if max_workers <= 1:
        built: Dict[Hashable, MplsNetwork] = dict(prebuilt or {})
        for index, job in enumerate(jobs):
            if cancelled is not None and cancelled():
                break
            item = _safe_execute(job, networks, built)
            results[index] = item
            if progress is not None:
                progress(index, total, item)
        return results

    # Parent-side prebuilt baselines become visible to fork()ed workers
    # through module globals; under spawn the initializer payload is
    # the (slower) fallback.
    if prebuilt:
        _PREBUILT.update(prebuilt)
    try:
        chunks = plan_chunks(
            [(job.network_key, job.failed_links) for job in jobs], max_workers
        )
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(networks, obs.enabled()),
        ) as pool:
            futures = {
                pool.submit(execute_chunk, [jobs[i] for i in indices]): indices
                for indices in chunks
            }
            for future in concurrent.futures.as_completed(futures):
                indices = futures[future]
                try:
                    items, delta = future.result()
                    if delta is not None:
                        obs.merge(delta)
                except concurrent.futures.CancelledError:
                    continue
                except Exception as error:  # worker crash / pickling failure
                    items = [
                        BatchItem(
                            name=jobs[i].name,
                            query=jobs[i].query,
                            outcome="error",
                            seconds=0.0,
                            error=f"farm worker failed: {error}",
                        )
                        for i in indices
                    ]
                for index, item in zip(indices, items):
                    results[index] = item
                    if progress is not None:
                        progress(index, total, item)
                if cancelled is not None and cancelled():
                    for pending in futures:
                        pending.cancel()
    finally:
        for key in prebuilt or ():
            _PREBUILT.pop(key, None)
    return results


def _safe_execute(
    job: FarmJob,
    payloads: Mapping[str, str],
    built: Dict[Hashable, MplsNetwork],
) -> BatchItem:
    """In-process execution with the pool's never-raise contract."""
    try:
        return execute_job(job, payloads, built)
    except Exception as error:
        return BatchItem(
            name=job.name,
            query=job.query,
            outcome="error",
            seconds=0.0,
            error=f"farm worker failed: {error}",
        )
