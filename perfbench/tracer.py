"""Per-layer tracing from outside the program.

``install`` replaces the public entry points that callers look up at call
time with timing wrappers, and registers a ``gc.callbacks`` hook. Pool
and pre-fork server workers are forked after installation, so they run
the wrappers too.

A span is ``[name, start, end, id, parent, op, pid, attrs]``. ``op`` is
the operation it belongs to: the id the benchmark sets with ``set_op``
(inherited by forked pool workers), or the ``X-Request-Id`` header that
``ServiceCore.handle`` sees. A wrapper records nothing when there is no
operation, so untraced requests to a traced server run through. Spans
stay in memory and are appended to ``spans-<pid>.jsonl`` after each
operation (``flush``), because pool and pre-fork workers leave through
``os._exit``.

GC pauses are summed per process while an operation is in flight and
written with each flush as one ``gc`` record (a span per collection
would cost more than the collections).

``analyze`` turns spans plus the benchmark's operation records into the
per-layer metrics. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import glob
import itertools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_TRACER: Optional["Tracer"] = None


class Tracer:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.local = threading.local()
        #: Process-wide operation and parent span, inherited through fork.
        self.op: Optional[str] = None
        self.parent: Optional[str] = None
        #: Request operations in flight in this process.
        self.active = 0
        self._active_lock = threading.Lock()
        self._ids = itertools.count()
        self._buffer: List[list] = []
        self._flush_lock = threading.Lock()
        self._gc_start = 0.0
        self._gc_pause = 0.0
        self._gc_gen2 = 0
        #: id(compiled query) → weak reference; a compile call that returns
        #: an object it returned before was answered by the memo.
        self._returned: Dict[int, weakref.ref] = {}
        os.makedirs(directory, exist_ok=True)

    def _after_fork(self) -> None:
        self._buffer = []
        self._flush_lock = threading.Lock()
        self._gc_pause, self._gc_gen2 = 0.0, 0

    def enter(self, op: str) -> None:
        self.local.op = op
        with self._active_lock:
            self.active += 1

    def leave(self) -> None:
        self.local.op = None
        with self._active_lock:
            self.active -= 1

    def current_op(self) -> Optional[str]:
        return getattr(self.local, "op", None) or self.op

    def stack(self) -> List[str]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def record(self, name, start, end, span_id, parent, op, attrs=None) -> None:
        self._buffer.append([name, start, end, span_id, parent, op, os.getpid(), attrs])

    def flush(self) -> None:
        with self._flush_lock:
            records, self._buffer = self._buffer, []
            if self._gc_pause:
                pause, self._gc_pause = self._gc_pause, 0.0
                gen2, self._gc_gen2 = self._gc_gen2, 0
                records.append(["gc", 0.0, pause, None, None, None, os.getpid(), {"gen2": gen2}])
            if not records:
                return
            path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, separators=(",", ":")))
                    handle.write("\n")

    def memo_hit(self, compiled) -> bool:
        ref = self._returned.get(id(compiled))
        if ref is not None and ref() is compiled:
            return True
        self._returned[id(compiled)] = weakref.ref(compiled)
        return False

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.op is not None or self.active:
            self._gc_pause += time.perf_counter() - self._gc_start
            self._gc_gen2 += info.get("generation") == 2


def _traced(original: Callable, name: str, describe=None, op_from=None, flush=False, always=None):
    """A wrapper timing ``original`` as span ``name``.

    ``describe(args, kwargs, result)`` adds attributes; ``op_from(args)``
    marks an operation boundary whose id comes from the call's arguments;
    ``always(result)`` also sees calls outside any operation.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = _TRACER
        if tracer is None:
            return original(*args, **kwargs)
        boundary = op_from(args) if op_from is not None else None
        if boundary is not None:
            tracer.enter(boundary)
        op = tracer.current_op()
        if op is None:
            result = original(*args, **kwargs)
            if always is not None:
                always(result)
            return result
        stack = tracer.stack()
        parent = stack[-1] if stack else tracer.parent
        span_id = tracer.new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            stack.pop()
            tracer.record(name, start, time.perf_counter(), span_id, parent, op, {"error": True})
            if boundary is not None:
                tracer.leave()
                tracer.flush()
            raise
        end = time.perf_counter()
        stack.pop()
        attrs = describe(args, kwargs, result) if describe is not None else None
        tracer.record(name, start, end, span_id, parent, op, attrs)
        if boundary is not None:
            tracer.leave()
        if boundary is not None or flush:
            tracer.flush()
        return result

    return wrapper


def _patch(owner, attribute: str, name: str, **options) -> None:
    setattr(owner, attribute, _traced(getattr(owner, attribute), name, **options))


def _describe_compile(args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "over")
    if _TRACER.memo_hit(result):
        return {"mode": mode, "hit": True}
    return {"mode": mode, "hit": False, "rules": result.pds.rule_count()}


def _request_id(args) -> Optional[str]:
    headers = getattr(args[1], "headers", None)
    return headers.get("X-Request-Id") if headers is not None else None


def install(directory: str) -> Tracer:
    """Wrap every traced entry point in this process and its future forks."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    import repro.analysis.triage as triage
    import repro.farm.pool as pool
    import repro.farm.scenarios as scenarios
    import repro.pda.solver as solver
    import repro.server as server
    import repro.verification.engine as engine
    from repro.farm.store import SharedArtifactStore
    from repro.service.core import ServiceCore
    from repro.verification.compiler import QueryCompiler

    _TRACER = Tracer(directory)
    os.register_at_fork(after_in_child=_TRACER._after_fork)

    _patch(
        QueryCompiler, "compile", "compile", describe=_describe_compile,
        always=_TRACER.memo_hit,
    )
    _patch(
        solver, "reduce_pushdown", "reduce",
        describe=lambda a, k, r: {"before": a[0].rule_count(), "after": r[0].rule_count()},
    )
    for function in ("poststar_single", "prestar_single"):
        _patch(
            solver, function, "saturate",
            describe=lambda a, k, r: {"transitions": r.automaton.transition_count()},
        )
    _patch(engine, "find_one_step_witness", "one_step")
    _patch(engine, "check_witness", "check_witness")
    _patch(
        triage, "run_triage", "triage",
        describe=lambda a, k, r: {"decided": r.verdict.value != "inconclusive"},
    )
    _patch(scenarios, "degrade_network", "scenarios.materialize")
    _patch(
        scenarios, "scenarios_to_jobs", "scenarios.to_jobs",
        describe=lambda a, k, r: {"payload_bytes": sum(len(p) for p in r[1].values())},
    )
    _patch(pool, "execute_chunk", "pool.execute_chunk", flush=True)
    _patch(
        SharedArtifactStore, "get_object", "store.get",
        describe=lambda a, k, r: {"hit": r is not None},
    )
    _patch(SharedArtifactStore, "put_object", "store.put")
    _patch(ServiceCore, "handle", "service.handle", op_from=_request_id)
    _patch(server, "_verify_payload", "server.verify_payload")
    _patch(server, "result_to_dot", "viz.dot")
    gc.callbacks.append(_TRACER.on_gc)
    return _TRACER


def set_op(op: Optional[str]) -> None:
    """Start (or, with None, end and flush) an operation of this process."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.op = op
    if op is None:
        tracer.flush()


@contextmanager
def span(name: str):
    """A span around the benchmark's own call into a layer; forked workers
    started inside it take it as their parent."""
    tracer = _TRACER
    op = tracer.current_op() if tracer is not None else None
    if op is None:
        yield
        return
    stack = tracer.stack()
    parent = stack[-1] if stack else tracer.parent
    span_id = tracer.new_id()
    stack.append(span_id)
    saved, tracer.parent = tracer.parent, span_id
    start = time.perf_counter()
    try:
        yield
    finally:
        tracer.record(name, start, time.perf_counter(), span_id, parent, op)
        tracer.parent = saved
        stack.pop()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

#: Span name → per-layer share metric (self time / operation wall).
SHARES = {
    "compile": "compiler.compile.share",
    "store.get": "store.get.share",
    "store.put": "store.put.share",
    "reduce": "reductions.reduce.share",
    "saturate": "solver.saturate.share",
    "one_step": "engine.one_step.share",
    "check_witness": "reconstruction.check.share",
    "triage": "triage.share",
    "scenarios.materialize": "scenarios.materialize.share",
    "scenarios.to_jobs": "scenarios.to_jobs.share",
    "pool.run_jobs": "pool.run_jobs.share",
    "service.handle": "service.handle.share",
    "server.verify_payload": "server.verify_payload.share",
    "viz.dot": "viz.dot.share",
}

UNITS = {
    "compiler.compile.calls": "count",
    "compiler.rules_built": "count",
    "compiler.memo_wait_s": "s",
    "store.get.calls": "count",
    "solver.transitions": "count",
    "scenarios.payload_mb": "MB",
    "runtime.gc_gen2": "count",
    "datasets.build_s": "s",
    "service.drain_timeouts": "count",
}


def load_spans(directory: str) -> List[list]:
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def analyze(spans: Sequence[list], ops: Sequence[Tuple[str, float, float]], workers: int = 2) -> Dict[str, float]:
    """Per-layer metrics over the operations ``ops`` = (id, start, end).

    Counts are per operation; shares divide by the summed operation
    wall; ``runtime.*`` sums the GC pauses of every traced process.
    """
    op_ids = {op for op, _, _ in ops}
    wall = sum(end - start for _, start, end in ops) or float("nan")
    count = len(ops) or float("nan")
    layer_spans = [s for s in spans if s[0] != "gc" and s[5] in op_ids]
    children: Dict[str, List[list]] = {}
    for s in layer_spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)

    def self_time(s: list) -> float:
        kids = children.get(s[3], ())
        return (s[2] - s[1]) - _covered(((k[1], k[2]) for k in kids), s[1], s[2])

    metrics: Dict[str, float] = {name: 0.0 for name in SHARES.values()}
    for s in layer_spans:
        if s[0] in SHARES:
            metrics[SHARES[s[0]]] += self_time(s)
    for name in SHARES.values():
        metrics[name] /= wall

    def attrs(s):
        return s[7] or {}

    by_name: Dict[str, List[list]] = {}
    for s in layer_spans:
        by_name.setdefault(s[0], []).append(s)
    compiles = by_name.get("compile", [])
    hits = [s for s in compiles if attrs(s).get("hit")]
    store_hit_parents = {s[4] for s in by_name.get("store.get", []) if attrs(s).get("hit")}
    built = [s for s in compiles if not attrs(s).get("hit") and s[3] not in store_hit_parents]
    metrics["compiler.compile.calls"] = len(compiles) / count
    metrics["compiler.rules_built"] = sum(attrs(s).get("rules", 0) for s in built) / count
    metrics["compiler.memo_hit_share"] = len(hits) / len(compiles) if compiles else 0.0
    metrics["compiler.memo_wait_s"] = sum(s[2] - s[1] for s in hits)
    gets = by_name.get("store.get", [])
    metrics["store.get.calls"] = len(gets) / count
    metrics["store.hit_share"] = (
        sum(1 for s in gets if attrs(s).get("hit")) / len(gets) if gets else 0.0
    )
    reduces = by_name.get("reduce", [])
    before = sum(attrs(s).get("before", 0) for s in reduces)
    metrics["reductions.kept_share"] = (
        sum(attrs(s).get("after", 0) for s in reduces) / before if before else 0.0
    )
    metrics["solver.transitions"] = (
        sum(attrs(s).get("transitions", 0) for s in by_name.get("saturate", [])) / count
    )
    under_ops = {s[5] for s in compiles if attrs(s).get("mode") == "under"}
    metrics["engine.under_share"] = len(under_ops) / count
    triages = by_name.get("triage", [])
    metrics["triage.decided_share"] = (
        sum(1 for s in triages if attrs(s).get("decided")) / len(triages) if triages else 0.0
    )
    metrics["scenarios.payload_mb"] = (
        sum(attrs(s).get("payload_bytes", 0) for s in by_name.get("scenarios.to_jobs", []))
        / 1e6 / count
    )
    run_jobs_wall = sum(s[2] - s[1] for s in by_name.get("pool.run_jobs", []))
    busy = sum(s[2] - s[1] for s in by_name.get("pool.execute_chunk", []))
    metrics["pool.worker_busy_share"] = busy / (workers * run_jobs_wall) if run_jobs_wall else 0.0

    # Operation wall that no span of the operation's own call tree covers.
    ids = {s[3] for s in layer_spans}
    top: Dict[str, List[Tuple[float, float]]] = {}
    for s in layer_spans:
        if s[4] is None or s[4] not in ids:
            top.setdefault(s[5], []).append((s[1], s[2]))
    uncovered = sum(
        (end - start) - _covered(top.get(op, ()), start, end) for op, start, end in ops
    )
    metrics["trace.unattributed_share"] = uncovered / wall
    handles = {s[5]: s[2] - s[1] for s in by_name.get("service.handle", [])}
    if handles:
        served = [(end - start, handles[op]) for op, start, end in ops if op in handles]
        metrics["http.client_gap.share"] = sum(c - h for c, h in served) / sum(c for c, _ in served)
    else:
        metrics["http.client_gap.share"] = 0.0

    pauses = [s for s in spans if s[0] == "gc"]
    metrics["runtime.gc.share"] = sum(s[2] for s in pauses) / wall
    metrics["runtime.gc_gen2"] = sum(attrs(s)["gen2"] for s in pauses)
    return metrics
