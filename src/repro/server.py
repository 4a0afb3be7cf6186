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
  "query": "...", "weight": "...?", "engine": "dual|moped"?,
  "triage": "auto|off|only"?, "timeout": seconds?}``; responds with
  the verdict, the witness trace (steps + headers), the failure set,
  the minimal weight, and a Graphviz DOT visualization — everything
  the GUI renders. With ``"triage"`` the static triage tier
  (:mod:`repro.analysis.triage`) runs first and the response carries a
  ``"triage"`` block with its verdict and time. With
  ``"prob_threshold": p`` (or ``"sweep_prob": true``) the request
  becomes a probabilistic sweep (:mod:`repro.prob`): the response
  carries the verdict for "holds with probability ≥ p", the
  ``[lower, upper]`` bounds on P(query holds), and the most likely
  witness/counterexample with their probabilities
  (``prob_default`` / ``prob_limit`` tune the failure model and the
  scenario budget);
* ``POST /lint`` — body ``{"network": <name or inline JSON network>,
  "failed_links": [...]?, "rules": [...]?, "suppress": [...]?,
  "min_severity": "info|warning|error"?, "queries": [...]?}``;
  statically lints the routing tables (:mod:`repro.analysis` — no
  pushdown system is built) and responds with the full diagnostic
  report. ``queries`` takes the same list as ``/jobs`` and feeds the
  query-aware rules.

The asynchronous **job API** runs whole what-if sweeps on the
verification farm (:mod:`repro.farm`) without holding a connection
open:

* ``POST /jobs`` — body ``{"network": ..., "queries": [...] or
  "query": "...", "sweep_failures": K?, "jobs": N?, "engine": ...?,
  "weight": ...?, "triage": ...?, "timeout": seconds?}``; returns ``{"id": ...}``
  immediately while the sweep runs in the background. A single query
  plus ``prob_threshold`` / ``sweep_prob`` submits a probabilistic
  sweep instead; its snapshots carry a ``"prob"`` block with the live
  probability bounds and the run self-cancels once the threshold
  verdict is decided;
* ``GET /jobs`` / ``GET /jobs/<id>`` — live progress counts, partial
  §4.2-style summary, and per-scenario outcomes;
* ``DELETE /jobs/<id>`` — cancel (running scenarios finish, queued
  ones are dropped).

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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.errors import NotFoundError, ReproError
from repro.farm.jobs import JobManager
from repro.farm.pool import EngineConfig
from repro.farm.store import hash_text
from repro.io.json_format import network_from_json, network_to_json
from repro.model.network import MplsNetwork
from repro.model.quantities import DEFAULT_FAILURE_PROBABILITY
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
from repro.verification.engine import VerificationEngine
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


def _resolve_network(field: Any, cache: _NetworkCache) -> MplsNetwork:
    """A built-in name or an inline network object → built network."""
    if isinstance(field, str):
        return cache.get(field)
    if isinstance(field, dict):
        return network_from_json(json.dumps(field))
    raise ReproError("'network' must be a built-in name or a network object")


def _resolve_network_keyed(
    field: Any, cache: _NetworkCache
) -> Tuple[MplsNetwork, str]:
    """Like :func:`_resolve_network` but also the network's content key.

    The key feeds the server's engine table and the shared artifact
    store. Built-ins hash their canonical JSON (memoized); inline
    networks hash the request's own JSON — cheaper than re-serializing
    the built network and just as content-stable for identical requests.
    """
    if isinstance(field, str):
        return cache.get(field), cache.key_of(field)
    if isinstance(field, dict):
        text = json.dumps(field, sort_keys=True)
        return network_from_json(json.dumps(field)), hash_text(text)
    raise ReproError("'network' must be a built-in name or a network object")


def _engine_config(payload: Dict[str, Any]) -> EngineConfig:
    """The engine settings of a ``/verify`` or ``/jobs`` body.

    ``EngineConfig`` rejects a weight or triage mode no engine accepts;
    triage defaults to off, matching the CLI.
    """
    engine_name = payload.get("engine", "dual")
    if engine_name not in ("dual", "moped", "poststar", "prestar"):
        raise ReproError(f"unknown engine {engine_name!r}")
    return EngineConfig(
        backend="poststar" if engine_name == "dual" else engine_name,
        weight=payload.get("weight"),
        triage=payload.get("triage", "off"),
    )


def _query_field(payload: Dict[str, Any]) -> str:
    """The ``"query"`` field, which must be text."""
    if "query" not in payload:
        raise ReproError("request needs a 'query' field")
    query = payload["query"]
    if not isinstance(query, str):
        raise ReproError("'query' must be text")
    return query


def _number_field(payload: Dict[str, Any], name: str) -> Optional[float]:
    """An optional numeric field (a bool is not a number)."""
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"'{name}' must be a number")
    return float(value)


def _string_list_field(payload: Dict[str, Any], name: str) -> Optional[List[str]]:
    """An optional list-of-strings field."""
    value = payload.get(name)
    if value is not None and (
        not isinstance(value, list)
        or not all(isinstance(item, str) for item in value)
    ):
        raise ReproError(f"'{name}' must be a list of strings")
    return value


def _trace_steps(trace: Any) -> List[Dict[str, Any]]:
    """A witness trace as the JSON step list the GUI renders."""
    return [
        {
            "link": step.link.name,
            "from": step.link.source.name,
            "to": step.link.target.name,
            "header": [str(label) for label in step.header],
        }
        for step in trace
    ]


def _prob_requested(payload: Dict[str, Any]) -> bool:
    """True when the body asks for a probabilistic sweep."""
    return payload.get("prob_threshold") is not None or bool(
        payload.get("sweep_prob")
    )


def _prob_params(
    payload: Dict[str, Any]
) -> Tuple[Optional[float], float, int]:
    """Validated ``(threshold, default, limit)`` probability parameters."""
    threshold = _number_field(payload, "prob_threshold")
    default = payload.get("prob_default", DEFAULT_FAILURE_PROBABILITY)
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        raise ReproError("'prob_default' must be a number")
    limit = payload.get("prob_limit", 512)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
        raise ReproError("'prob_limit' must be a positive integer")
    return threshold, float(default), limit


def _prob_verify(
    payload: Dict[str, Any],
    network: MplsNetwork,
    query: str,
    config: EngineConfig,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """Handle a probabilistic /verify body; returns the response document."""
    from repro.prob import run_probabilistic_sweep

    threshold, default, limit = _prob_params(payload)
    result = run_probabilistic_sweep(
        network,
        query,
        threshold=threshold,
        default=default,
        max_scenarios=limit,
        config=config,
        timeout=timeout,
    )
    response: Dict[str, Any] = {
        "status": result.verdict.value,
        "query": query,
        "prob": {
            "threshold": result.threshold,
            "verdict": result.verdict.value,
            "lower": result.lower,
            "upper": result.upper,
            "covered": result.covered,
            "residual": result.residual,
            "scenarios_enumerated": result.scenarios_enumerated,
            "scenarios_verified": result.scenarios_verified,
            "early_exit": result.early_exit,
        },
    }
    if result.most_likely_witness is not None:
        response["most_likely_witness"] = {
            "probability": result.most_likely_witness_probability,
            "trace": _trace_steps(result.most_likely_witness),
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
    query = _query_field(payload)
    timeout = _number_field(payload, "timeout")
    network, network_key = _resolve_network_keyed(
        payload.get("network", "example"), cache
    )
    config = _engine_config(payload)
    if _prob_requested(payload):
        return _prob_verify(payload, network, query, config, timeout)
    engine = cache.engine(network_key, config, network)
    result = engine.verify(query, timeout_seconds=timeout)

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
        response["trace"] = _trace_steps(result.trace)
        response["failure_set"] = sorted(
            link.name for link in (result.failure_set or frozenset())
        )
    return response


def _query_entries(entries: Any) -> List[Tuple[str, str]]:
    """The ``(name, text)`` pairs of a ``"queries"`` field.

    Each entry is a query string, named ``q0000``, ``q0001``, … by
    position, or a ``{"name", "text"}`` object. ``None`` (an absent
    field) means no queries; anything else but a list is invalid input.
    """
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ReproError("'queries' must be a list")
    queries: List[Tuple[str, str]] = []
    for entry in entries:
        if isinstance(entry, str):
            queries.append((f"q{len(queries):04d}", entry))
        elif isinstance(entry, dict) and isinstance(entry.get("text"), str):
            queries.append(
                (str(entry.get("name", f"q{len(queries):04d}")), entry["text"])
            )
        else:
            raise ReproError(
                "each query must be a string or a {'name', 'text'} object"
            )
    return queries


def _lint_payload(payload: Dict[str, Any], cache: _NetworkCache) -> Dict[str, Any]:
    """Handle one POST /lint request body; returns the lint report.

    Body: ``{"network": <name or inline JSON network>, "failed_links":
    [...]?, "rules": [...]?, "suppress": [...]?, "min_severity": ...?,
    "queries": [...]?}``. ``queries`` (strings or ``{"name", "text"}``
    objects) feeds the query-aware rules — DP007 flags statically
    unsatisfiable queries.
    """
    from repro.analysis import LintConfig, analyze

    network = _resolve_network(payload.get("network", "example"), cache)
    for key in ("failed_links", "rules", "suppress"):
        _string_list_field(payload, key)
    queries = _query_entries(payload.get("queries"))
    try:
        config = LintConfig.of(
            enabled=payload.get("rules"),
            suppressed=payload.get("suppress") or (),
            min_severity=payload.get("min_severity"),
        )
    except ValueError:  # bad min_severity string
        raise ReproError(
            f"unknown min_severity {payload.get('min_severity')!r} "
            "(use: info, warning, error)"
        )
    report = analyze(
        network,
        failed_links=frozenset(payload.get("failed_links") or ()),
        config=config,
        queries=queries,
    )
    return report.to_dict()


def _submit_job(
    payload: Dict[str, Any],
    cache: _NetworkCache,
    manager: JobManager,
    client: Optional[str] = None,
) -> Dict[str, Any]:
    """Handle one POST /jobs body: build the sweep, start it, return the id."""
    from repro.farm.scenarios import (
        failure_scenarios,
        preflight_index,
        scenarios_to_jobs,
        suite_scenarios,
    )

    network = _resolve_network(payload.get("network", "example"), cache)

    if "queries" in payload:
        queries = _query_entries(payload["queries"])
        if not queries:
            raise ReproError("'queries' must be a non-empty list")
    elif "query" in payload:
        queries = [("query", _query_field(payload))]
    else:
        raise ReproError("request needs a 'query' or 'queries' field")

    config = _engine_config(payload)
    timeout = _number_field(payload, "timeout")

    preflight = bool(payload.get("preflight"))
    sweep_failures = payload.get("sweep_failures")
    probabilities: Optional[List[float]] = None
    prob_threshold: Optional[float] = None
    if _prob_requested(payload):
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

        prob_threshold, prob_default, prob_limit = _prob_params(payload)
        name, text = queries[0]
        _enumerated, scenarios, probabilities = plan_sweep(
            network,
            text,
            threshold=prob_threshold,
            default=prob_default,
            max_scenarios=prob_limit,
            query_name=name,
        )
        description = f"probabilistic sweep on {network.name}"
    elif sweep_failures is not None:
        if not isinstance(sweep_failures, int) or sweep_failures < 0:
            raise ReproError("'sweep_failures' must be a non-negative integer")
        links = _string_list_field(payload, "sweep_links")
        limit = payload.get("sweep_limit", 10_000)
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int)
        ):
            raise ReproError("'sweep_limit' must be an integer or null")
        scenarios = failure_scenarios(
            network,
            queries,
            max_failures=sweep_failures,
            links=links,
            limit=limit,
            preflight=preflight,
        )
        description = f"failure sweep ≤{sweep_failures} on {network.name}"
    else:
        scenarios = suite_scenarios(network, queries, preflight=preflight)
        description = f"query suite on {network.name}"

    workers = payload.get("jobs", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ReproError("'jobs' must be a positive integer")
    workers = min(workers, MAX_SWEEP_WORKERS)

    jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, config, timeout=timeout)
    run = manager.submit(
        jobs,
        payloads,
        max_workers=workers,
        prebuilt=prebuilt,
        description=description,
        preflight=preflight_index(scenarios) if preflight else None,
        probabilities=probabilities,
        prob_threshold=prob_threshold,
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

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch()


class VerificationServer:
    """The embeddable verification web service.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`). The server runs on a daemon thread; use as a context
    manager in tests.

    Production knobs (all default off so embedded/test use is
    unchanged):

    * ``store`` — path of a shared on-disk artifact store
      (:class:`~repro.farm.store.SharedArtifactStore`); attaches it to
      this process (and, via the environment, to farm pool workers) so
      compiled artifacts and job snapshots are shared across worker
      processes;
    * ``rate_limit`` — a :class:`~repro.service.ratelimit.RateLimitConfig`
      enabling per-client budgets;
    * ``listen_socket`` — an already-bound, already-listening socket to
      serve on instead of binding ``(host, port)``; this is how the
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

            store_obj = configure_store(store)
        else:
            from repro.farm.store import active_store

            store_obj = active_store()
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
        cache = _NetworkCache()
        jobs = JobManager(store=store_obj)
        limiter = RateLimiter(rate_limit) if rate_limit is not None else None
        self._httpd.cache = cache  # type: ignore[attr-defined]
        self._httpd.jobs = jobs  # type: ignore[attr-defined]
        self._httpd.core = ServiceCore(  # type: ignore[attr-defined]
            cache=cache, jobs=jobs, limiter=limiter
        )
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        if observe:
            obs.enable()

    @property
    def jobs(self) -> JobManager:
        """The farm job manager behind the /jobs endpoints."""
        return self._httpd.jobs  # type: ignore[attr-defined]

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
