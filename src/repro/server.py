"""HTTP verification service — the backend of the paper's web GUI.

§4 of the paper: "The backend verification engine is running on a web
server at https://demo.aalwines.cs.aau.dk/". This module provides that
backend as a small stdlib-only JSON-over-HTTP service; any front end
(including a browser UI) can drive it. Endpoints:

* ``GET  /networks`` — the loadable built-in networks (the GUI's
  predefined-network drop-down);
* ``GET  /networks/<name>`` — one network in the single-file JSON
  format;
* ``GET  /queries/example`` — the φ0–φ4 demo queries of Figure 1;
* ``POST /verify`` — body ``{"network": <name or inline JSON network>,
  "query": "...", "engine": "dual|moped|poststar|prestar"?, "weight":
  "..."?, "triage": "auto|off|only"?, "timeout": seconds?}``; responds
  with the verdict, the witness trace (steps + headers), the failure
  set, the minimal weight, and a Graphviz DOT visualization —
  everything the GUI renders. With ``"triage"`` the static triage tier
  (:mod:`repro.analysis.triage`) runs first and the response carries a
  ``"triage"`` block with its verdict and time. With
  ``"prob_threshold": p`` (or ``"sweep_prob": true``) the request
  becomes a probabilistic sweep (:mod:`repro.prob`): the response
  carries the verdict for "holds with probability ≥ p", the
  ``[lower, upper]`` bounds on P(query holds), and the most likely
  witness/counterexample with their probabilities (``"prob_default"``
  and ``"prob_limit"`` set the failure model's default link
  probability and the scenario budget);
* ``POST /lint`` — body ``{"network": ..., "failed_links": [...]?,
  "rules": [...]?, "suppress": [...]?, "min_severity":
  "info|warning|error"?, "queries": [...]?}``; statically lints the
  routing tables (:mod:`repro.analysis` — no pushdown system is built)
  and responds with the full diagnostic report. ``"queries"`` takes
  the same list as ``/jobs`` and feeds the query-aware rules.

The asynchronous **job API** runs whole what-if sweeps on the
verification farm (:mod:`repro.farm`) without holding a connection
open:

* ``POST /jobs`` — body ``{"network": ..., "queries": [...] or
  "query": "...", "sweep_failures": K?, "sweep_links": [...]?,
  "sweep_limit": J?, "jobs": N?, "preflight": true?}`` plus the
  engine and probability fields of ``/verify``; ``"queries"`` entries
  are query strings or ``{"name", "text"}`` objects. It checks the body
  and sizes the sweep, answers 202 ``{"id", "state": "pending",
  "total"}``, and builds and runs the sweep in the background. A single
  query plus ``"prob_threshold"`` / ``"sweep_prob"`` submits a
  probabilistic sweep; its snapshots carry a ``"prob"`` block with the
  live probability bounds, and the run stops once the threshold
  verdict is decided;
* ``GET /jobs`` / ``GET /jobs/<id>`` — live progress counts, partial
  §4.2-style summary, and per-scenario outcomes;
* ``DELETE /jobs/<id>`` — cancel (running scenarios finish, queued
  ones are dropped).

Request bodies are read through one schema, :data:`FIELDS`: a field of
the wrong JSON type, or outside its bounds or choices, is a 400 that
names the field (a bool is never a number, and a flag is ``true`` or
``false``); keys the schema does not name are ignored.

Observability: ``GET /metrics`` serves the :mod:`repro.obs` registry,
and nothing else, in the Prometheus text exposition format: solver,
compiler, triage, engine-table and artifact-store counters, gauges,
latency histograms and span timings. A counter's series appears once
it first ticks. The server enables observation on construction by
default; with ``observe=False`` nothing is recorded, and ``/metrics``
of a fresh process serves only ``aalwines_observability_enabled 0``.
Recording is strictly observational, so responses are unaffected —
pinned by the regression tests in ``tests/obs/``.

Use :class:`VerificationServer` programmatically (it picks a free port
with ``port=0``, handy for tests) or run ``aalwines serve``
(``python -m repro.server`` is the same command).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.analysis.diagnostics import Severity
from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.errors import NotFoundError, ReproError
from repro.farm.jobs import JobManager
from repro.farm.pool import EngineConfig
from repro.farm.store import hash_text
from repro.io.json_format import network_from_json, network_to_json, trace_steps
from repro.model.network import MplsNetwork
from repro.model.quantities import DEFAULT_FAILURE_PROBABILITY
from repro.query.parser import named_queries
from repro.service.core import MAX_BODY_BYTES as MAX_BODY_BYTES  # re-export
from repro.service.core import (
    ServiceCore,
    ServiceRequest,
    ServiceResponse,
    _BadRequest,
    error_response,
    read_body,
)
from repro.service.ratelimit import RateLimitConfig, RateLimiter
from repro.verification.engine import ENGINE_NAMES, TRIAGE_MODES, VerificationEngine
from repro.viz import result_to_dot

#: Upper bound on the per-sweep worker count a request may ask for.
MAX_SWEEP_WORKERS = 16

#: /verify engines a server keeps, least recently used evicted first.
ENGINE_SLOTS = 256


class _NetworkCache:
    """Lazily built, shared built-in networks (with their content keys),
    and the ``/verify`` engines built on them.

    A ``/verify`` engine outlives its request so that hot queries hit
    its compile memo; one is kept per (network content key,
    :class:`~repro.farm.pool.EngineConfig`), :data:`ENGINE_SLOTS` in all.
    """

    def __init__(self) -> None:
        self._cache: Dict[str, MplsNetwork] = {}
        self._keys: Dict[str, str] = {}
        self._engines: "OrderedDict[Tuple[str, EngineConfig], VerificationEngine]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, name: str) -> MplsNetwork:
        if name not in BUILTIN_NETWORKS:
            raise NotFoundError(f"unknown built-in network {name!r}")
        with self._lock:
            if name not in self._cache:
                self._cache[name] = load_builtin(name)
            return self._cache[name]

    def key_of(self, name: str) -> str:
        """The content hash of a built-in network (memoized — serializing
        a network per request would dominate small verifications)."""
        network = self.get(name)
        with self._lock:
            if name not in self._keys:
                self._keys[name] = hash_text(network_to_json(network))
            return self._keys[name]

    def engine(
        self, key: str, config: EngineConfig, network: MplsNetwork
    ) -> VerificationEngine:
        """The engine for (network ``key``, ``config``), built on first use.

        The content key also names the network in the shared artifact
        store (when one is attached), so sibling worker processes reuse
        compiled queries.
        """
        slot = (key, config)
        with self._lock:
            engine = self._engines.get(slot)
            if engine is not None:
                self._engines.move_to_end(slot)
                obs.add("server.engine_hits")
                return engine
            obs.add("server.engine_misses")
            engine = config.build(network)
            engine.attach_artifact_key(key)
            self._engines[slot] = engine
            while len(self._engines) > ENGINE_SLOTS:
                self._engines.popitem(last=False)
                obs.add("server.engine_evictions")
            return engine


#: The JSON types of request fields: name → (description, Python type).
#: A bool is never a number, and a list's entries are checked too.
_KINDS: Dict[str, Tuple[str, Any]] = {
    "text": ("text", str),
    "number": ("a number", (int, float)),
    "integer": ("an integer", int),
    "boolean": ("a boolean", bool),
    "texts": ("a list of strings", list),
    "queries": ("a list of query strings or {name, text} objects", list),
    "network": ("a built-in name or a network object", (str, dict)),
}


def _entry_ok(kind: str, entry: Any) -> bool:
    if kind == "queries" and isinstance(entry, dict):
        return isinstance(entry.get("text"), str)
    return isinstance(entry, str)


@dataclass(frozen=True)
class Field:
    """One request-body field: its JSON type (a key of :data:`_KINDS`),
    its value when absent, whether ``null`` is a value (meaning "not
    set"), and its lower bound or its choices."""

    name: str
    kind: str
    default: Any = None
    nullable: bool = False
    minimum: Optional[int] = None
    choices: Tuple[str, ...] = ()

    def admits(self, value: Any) -> bool:
        """Is ``value`` one this field takes?"""
        if value is None:
            return self.nullable
        kind = _KINDS[self.kind][1]
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            return False
        if isinstance(value, list):
            return all(_entry_ok(self.kind, entry) for entry in value)
        return (not self.choices or value in self.choices) and (
            self.minimum is None or value >= self.minimum
        )

    def describe(self) -> str:
        """The values this field takes, in words."""
        text = _KINDS[self.kind][0]
        if self.choices:
            text = "one of " + ", ".join(self.choices)
        if self.minimum is not None:
            text += f" ≥ {self.minimum}"
        return text + " or null" if self.nullable else text


_NETWORK = Field("network", "network", "example")
_SEVERITIES = tuple(severity.value for severity in Severity)

#: The engine and probabilistic-sweep fields of /verify and /jobs.
_ENGINE = (
    Field("engine", "text", "dual", choices=ENGINE_NAMES),
    Field("weight", "text", nullable=True),
    Field("triage", "text", "off", choices=TRIAGE_MODES),
    Field("timeout", "number", nullable=True, minimum=0),
    Field("prob_threshold", "number", nullable=True),
    Field("sweep_prob", "boolean", False, nullable=True),
    Field("prob_default", "number", DEFAULT_FAILURE_PROBABILITY),
    Field("prob_limit", "integer", 512, minimum=1),
)

#: The request schema: every field each POST endpoint reads. Bodies are
#: read through it alone (:func:`_read_fields`); keys it does not name
#: are ignored.
FIELDS: Dict[str, Tuple[Field, ...]] = {
    "/verify": (_NETWORK, Field("query", "text"), *_ENGINE),
    "/lint": (
        _NETWORK,
        Field("failed_links", "texts", nullable=True),
        Field("rules", "texts", nullable=True),
        Field("suppress", "texts", nullable=True),
        Field("min_severity", "text", nullable=True, choices=_SEVERITIES),
        Field("queries", "queries", nullable=True),
    ),
    "/jobs": (
        _NETWORK,
        Field("queries", "queries"),
        Field("query", "text"),
        Field("sweep_failures", "integer", nullable=True, minimum=0),
        Field("sweep_links", "texts", nullable=True),
        Field("sweep_limit", "integer", 10_000, nullable=True, minimum=1),
        Field("jobs", "integer", 1, minimum=1),
        Field("preflight", "boolean", False, nullable=True),
        *_ENGINE,
    ),
}


def _read_fields(endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """``endpoint``'s fields of a request body, absent ones at their
    default; a value its field does not admit is a :class:`ReproError`
    (→ 400) that names the field."""
    body: Dict[str, Any] = {}
    for field in FIELDS[endpoint]:
        value = payload.get(field.name, field.default)
        if field.name in payload and not field.admits(value):
            shown = json.dumps(value)[:40]
            raise ReproError(f"{field.name} is {field.describe()}, not {shown}")
        if field.kind == "number" and value is not None:
            value = float(value)  # an integer-valued number reads as a float
        body[field.name] = value
    return body


def _resolve_network(field: Any, cache: _NetworkCache) -> Tuple[MplsNetwork, str]:
    """A built-in name or an inline network object → the built network
    and its content key, which names it in the engine table and the
    artifact store: built-ins hash their canonical JSON (memoized),
    inline networks the request's own JSON, key-sorted."""
    if isinstance(field, str):
        return cache.get(field), cache.key_of(field)
    text = json.dumps(field, sort_keys=True)
    return network_from_json(text), hash_text(text)


def _prob_verify(
    body: Dict[str, Any], network: MplsNetwork, config: EngineConfig
) -> Dict[str, Any]:
    """Handle a probabilistic /verify body; returns the response document."""
    from repro.prob import run_probabilistic_sweep

    result = run_probabilistic_sweep(
        network,
        body["query"],
        threshold=body["prob_threshold"],
        default=body["prob_default"],
        max_scenarios=body["prob_limit"],
        config=config,
        timeout=body["timeout"],
    )
    bounds = ("lower", "upper", "covered", "residual", "scenarios_enumerated")
    response: Dict[str, Any] = {
        "status": result.verdict.value,
        "query": body["query"],
        "prob": {
            "threshold": result.threshold,
            "verdict": result.verdict.value,
            **{name: getattr(result, name) for name in bounds},
            "scenarios_verified": result.scenarios_verified,
            "early_exit": result.early_exit,
        },
    }
    if result.most_likely_witness is not None:
        response["most_likely_witness"] = {
            "probability": result.most_likely_witness_probability,
            "trace": trace_steps(result.most_likely_witness),
        }
    if result.most_likely_counterexample is not None:
        response["most_likely_counterexample"] = {
            "probability": result.most_likely_counterexample_probability,
            "failed_links": list(result.most_likely_counterexample),
        }
    return response


def _verify_payload(payload: Dict[str, Any], cache: _NetworkCache) -> Dict[str, Any]:
    """Handle one /verify request body; returns the response document.

    Engines come from the server's table (:meth:`_NetworkCache.engine`),
    so repeated interactive verifications reuse the compile memo instead
    of rebuilding an engine per request.
    """
    body = _read_fields("/verify", payload)
    if body["query"] is None:
        raise ReproError("request needs a 'query' field")
    network, network_key = _resolve_network(body["network"], cache)
    config = EngineConfig.from_names(body["engine"], body["weight"], body["triage"])
    if body["prob_threshold"] is not None or body["sweep_prob"]:
        return _prob_verify(body, network, config)
    engine = cache.engine(network_key, config, network)
    result = engine.verify(body["query"], timeout_seconds=body["timeout"])

    response: Dict[str, Any] = {
        "status": result.status.value,
        "query": str(result.query),
        "time_seconds": round(result.stats.total_seconds, 6),
        "dot": result_to_dot(network, result),
    }
    if result.stats.triage_verdict is not None:
        response["triage"] = {
            "verdict": result.stats.triage_verdict,
            "seconds": round(result.stats.triage_seconds, 6),
        }
    if result.weight is not None:
        response["weight"] = list(result.weight)
        response["minimal_guaranteed"] = result.minimal_guaranteed
    if result.witness_probability is not None:
        response["witness_probability"] = result.witness_probability
    if result.trace is not None:
        response["trace"] = trace_steps(result.trace)
        response["failure_set"] = sorted(
            link.name for link in (result.failure_set or frozenset())
        )
    return response


def _lint_payload(payload: Dict[str, Any], cache: _NetworkCache) -> Dict[str, Any]:
    """Handle one POST /lint request body; returns the lint report."""
    from repro.analysis import LintConfig, analyze

    body = _read_fields("/lint", payload)
    network, _key = _resolve_network(body["network"], cache)
    report = analyze(
        network,
        failed_links=frozenset(body["failed_links"] or ()),
        config=LintConfig.of(
            enabled=body["rules"],
            suppressed=body["suppress"] or (),
            min_severity=body["min_severity"],
        ),
        queries=named_queries(body["queries"] or []),
    )
    return report.to_dict()


def _submit_job(
    payload: Dict[str, Any],
    cache: _NetworkCache,
    manager: JobManager,
    client: Optional[str] = None,
) -> Dict[str, Any]:
    """Handle one POST /jobs body: check it and size the sweep, then
    register a run that builds and runs the sweep on its own thread;
    returns the run's id, state and total at once."""
    from repro.farm.jobs import RunPlan
    from repro.farm.scenarios import (
        failure_scenarios,
        plan_failure_sweep,
        preflight_index,
        probabilistic_scenarios,
        scenarios_to_jobs,
        suite_scenarios,
    )

    body = _read_fields("/jobs", payload)
    network, _key = _resolve_network(body["network"], cache)
    if body["queries"] is not None:
        queries = named_queries(body["queries"])
        if not queries:
            raise ReproError("'queries' must be a non-empty list")
    elif body["query"] is not None:
        queries = [("query", body["query"])]
    else:
        raise ReproError("request needs a 'query' or 'queries' field")
    config = EngineConfig.from_names(body["engine"], body["weight"], body["triage"])
    preflight = bool(body["preflight"])
    sweep_failures = body["sweep_failures"]
    sweep = dict(
        max_failures=sweep_failures,
        links=body["sweep_links"],
        limit=body["sweep_limit"],
    )
    probabilistic = body["prob_threshold"] is not None or body["sweep_prob"]
    if probabilistic:
        if sweep_failures is not None:
            raise ReproError(
                "'sweep_failures' cannot be combined with a probabilistic sweep"
            )
        if preflight:
            raise ReproError(
                "'preflight' is not supported for probabilistic sweeps"
            )
        if len(queries) != 1:
            raise ReproError("a probabilistic sweep takes exactly one query")
        from repro.prob.sweep import plan_sweep

        enumerated = plan_sweep(
            network,
            queries[0][1],
            threshold=body["prob_threshold"],
            default=body["prob_default"],
            max_scenarios=body["prob_limit"],
        )
        total = len({outcome.failed_links for outcome in enumerated})
        description = f"probabilistic sweep on {network.name}"
    elif sweep_failures is not None:
        total = plan_failure_sweep(network, queries, **sweep)[2]
        description = f"failure sweep ≤{sweep_failures} on {network.name}"
    else:
        total = len(queries)
        description = f"query suite on {network.name}"

    def build() -> RunPlan:
        masses = None
        if probabilistic:
            (name, text), = queries
            built, masses = probabilistic_scenarios(
                network, text, enumerated, query_name=name
            )
        elif sweep_failures is not None:
            built = failure_scenarios(network, queries, preflight=preflight, **sweep)
        else:
            built = suite_scenarios(network, queries, preflight=preflight)
        jobs, payloads, prebuilt = scenarios_to_jobs(
            built, config, timeout=body["timeout"]
        )
        findings = preflight_index(built) if preflight else None
        return RunPlan(jobs, payloads, prebuilt, findings, masses)

    run = manager.submit(
        total,
        build,
        max_workers=min(body["jobs"], MAX_SWEEP_WORKERS),
        description=description,
        prob_threshold=body["prob_threshold"],
        client=client,
    )
    return {"id": run.id, "state": run.state, "total": run.total}


class _Handler(BaseHTTPRequestHandler):
    """Thin ``http.server`` transport over the shared
    :class:`~repro.service.core.ServiceCore` (carried by the server
    instance). All routing, error mapping, rate limiting and streaming
    live in the core — this class only moves bytes."""

    server_version = "aalwines-repro/1.0"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _write_response(self, response: ServiceResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        for name, value in response.headers:
            self.send_header(name, value)
        if response.stream is None:
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            self.wfile.write(response.body)
            return
        # Streaming (SSE): no Content-Length — the connection closes
        # when the stream ends, so tell the client not to reuse it.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _dispatch(self) -> None:
        core: ServiceCore = self.server.core  # type: ignore[attr-defined]
        try:
            body = read_body(self.headers.get("Content-Length"), self.rfile)
        except _BadRequest as error:
            self._write_response(error_response(str(error), 400))
            return
        request = ServiceRequest(
            method=self.command,
            target=self.path,
            headers=self.headers,
            body=body,
            peer=self.client_address[0],
        )
        self._write_response(core.handle(request))

    do_GET = do_POST = do_DELETE = _dispatch  # http.server naming


class VerificationServer:
    """The embeddable verification web service.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`). The server runs on a daemon thread; use as a context
    manager in tests.

    Production knobs, all off by default: ``store`` attaches a shared
    on-disk artifact store (:func:`~repro.farm.store.configure_store`)
    to this process and its farm workers, so worker processes share
    compiled artifacts and job snapshots; ``rate_limit`` (a
    :class:`~repro.service.ratelimit.RateLimitConfig`) enables
    per-client budgets; ``listen_socket`` serves an already-listening
    socket instead of binding ``(host, port)``, which is how the
    pre-fork workers of ``aalwines serve --workers N`` share one port
    (:mod:`repro.service.prefork`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
        observe: bool = True,
        store: Optional[str] = None,
        rate_limit: Optional[RateLimitConfig] = None,
        listen_socket: Optional[Any] = None,
    ) -> None:
        if store is not None:
            from repro.farm.store import configure_store

            configure_store(store)
        if listen_socket is None:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        else:
            self._httpd = ThreadingHTTPServer(
                (host, port), _Handler, bind_and_activate=False
            )
            self._httpd.socket = listen_socket
            address = listen_socket.getsockname()
            self._httpd.server_address = address[:2]
            self._httpd.server_name = str(address[0])
            self._httpd.server_port = int(address[1])
        self._httpd.core = ServiceCore(  # type: ignore[attr-defined]
            limiter=RateLimiter(rate_limit) if rate_limit is not None else None
        )
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        if observe:
            obs.enable()

    @property
    def jobs(self) -> JobManager:
        """The farm job manager behind the /jobs endpoints."""
        return self.core.jobs

    @property
    def core(self) -> ServiceCore:
        """The transport-agnostic service core handling every request."""
        return self._httpd.core  # type: ignore[attr-defined]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    def start(self) -> "VerificationServer":
        """Start serving on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the *calling* thread until :meth:`stop` — the worker
        loop of the pre-fork server."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut the server down and release the socket."""
        self.jobs.shutdown()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "VerificationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


if __name__ == "__main__":  # pragma: no cover
    import sys

    from repro.cli import serve_main

    sys.exit(serve_main())
