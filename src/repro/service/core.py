"""Transport-agnostic core of the verification service.

One :class:`ServiceCore` owns everything two transports share — the
stdlib ``http.server`` handler (:mod:`repro.server`) and the WSGI app
(:mod:`repro.app`):

* **the request-body reader** (:func:`read_body`): the Content-Length
  parse, the :data:`MAX_BODY_BYTES` cap and the short-read loop;
* **routing** on the *parsed* request target: the raw target is split
  with :func:`urllib.parse.urlsplit` and the path component unquoted
  exactly once, so ``GET /jobs/<id>?include_items=0`` and URL-encoded
  network names (``/networks/my%20net``) route correctly;
* **the error ladder**, applied uniformly to every method:
  request-body problems → 400, :class:`~repro.errors.NotFoundError` →
  404, other :class:`~repro.errors.ReproError` (invalid input) → 400,
  timeouts → 408, rate limits → 429 with ``Retry-After``, anything
  else → a defensive JSON 500;
* **per-client rate limiting and quotas**
  (:mod:`repro.service.ratelimit`);
* **SSE job-progress streaming** (``GET /jobs/<id>/stream``);
* **per-endpoint latency histograms** and request counters, recorded
  into :mod:`repro.obs` and scraped at ``GET /metrics``.

The POST payload handlers (``_verify_payload`` and friends) deliberately
stay in :mod:`repro.server` and are looked up *late*, so tests that
monkeypatch them keep working and both transports see the patch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)
from urllib.parse import parse_qs, unquote, urlsplit

from repro import obs
from repro.errors import NotFoundError, ReproError, VerificationTimeout
from repro.service.ratelimit import (
    INTERACTIVE,
    SWEEP,
    RateLimiter,
    client_identity,
)

#: Job-run states that end an SSE stream.
_FINISHED_STATES = ("done", "failed", "cancelled")

#: Default seconds between SSE snapshot polls (tunable per core for
#: tests, clamped per request via ``?interval=``).
DEFAULT_STREAM_INTERVAL = 0.25

#: Largest request body the service accepts (inline networks are big;
#: this is a DoS guard, not a format limit).
MAX_BODY_BYTES = 64 * 1024 * 1024

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
SSE_CONTENT_TYPE = "text/event-stream; charset=utf-8"


class _BadRequest(Exception):
    """A request problem that must surface as a 400 JSON error."""


class RateLimited(Exception):
    """Request refused by the per-client limiter; carries the wait."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ServiceRequest:
    """One HTTP request, reduced to what routing needs.

    ``target`` is the *raw* request target (percent-encoded path plus
    optional query string); the core parses and unquotes it exactly
    once. Transports that only have a decoded path (WSGI ``PATH_INFO``)
    must re-quote it — see :mod:`repro.app`.
    """

    method: str
    target: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: Optional[bytes] = None
    #: Transport-level peer identity (client address).
    peer: str = ""


@dataclass
class ServiceResponse:
    """One HTTP response: either a complete ``body`` or a ``stream``
    of chunks (SSE) that the transport writes as they are produced."""

    status: int
    body: bytes = b""
    content_type: str = JSON_CONTENT_TYPE
    headers: Tuple[Tuple[str, str], ...] = ()
    stream: Optional[Iterator[bytes]] = None

    @property
    def reason(self) -> str:
        return {
            200: "OK",
            202: "Accepted",
            400: "Bad Request",
            404: "Not Found",
            408: "Request Timeout",
            429: "Too Many Requests",
            500: "Internal Server Error",
        }.get(self.status, "Unknown")


def json_response(document: Any, status: int = 200) -> ServiceResponse:
    """A JSON document as a complete response."""
    body = json.dumps(document, indent=2).encode("utf-8")
    return ServiceResponse(status=status, body=body)


def error_response(message: str, status: int) -> ServiceResponse:
    """The uniform JSON error envelope."""
    return json_response({"error": message}, status=status)


def read_body(
    length_header: Optional[str], stream: Optional[BinaryIO]
) -> Optional[bytes]:
    """Read a request body of ``Content-Length: length_header`` bytes
    from ``stream``; ``None`` when the request has no Content-Length.

    Raises :class:`_BadRequest` (→ 400 JSON error, never a 500
    traceback) for an invalid ``Content-Length``, an oversized body, or
    a body the client truncated. ``stream.read(n)`` on a socket may
    legally return *fewer* than ``n`` bytes, so the read loops until the
    announced length arrived or the stream ended early; one read could
    hand the JSON parser half a body.
    """
    if length_header is None:
        return None
    try:
        length = int(length_header)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(f"invalid Content-Length {length_header!r}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"request body exceeds the {MAX_BODY_BYTES}-byte limit")
    if stream is None:
        raise _BadRequest("request body is missing")
    chunks: List[bytes] = []
    remaining = length
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            received = length - remaining
            raise _BadRequest(
                f"request body was truncated "
                f"({received} of {length} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_json_body(raw: Optional[bytes]) -> Dict[str, Any]:
    """Decode a JSON-object request body (raises :class:`_BadRequest`)."""
    if raw is None:
        raise _BadRequest("request needs a Content-Length header")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise _BadRequest("request body is not valid JSON")
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


def _flag(values: List[str], default: bool = True) -> bool:
    """A query-string boolean (``?include_items=0`` → False)."""
    if not values:
        return default
    return values[-1].strip().lower() not in ("0", "false", "no", "off")


class ServiceCore:
    """The shared service logic behind every transport.

    ``cache`` holds the built-in networks and the ``/verify`` engines (a
    :class:`repro.server._NetworkCache`; one is created when omitted),
    ``jobs`` the :class:`~repro.farm.jobs.JobManager` (by default one on
    the :func:`~repro.farm.store.active_store`). ``limiter``
    defaults to a no-op :class:`RateLimiter`; pass one built from
    :meth:`~repro.service.ratelimit.RateLimitConfig.production_defaults`
    (or CLI knobs) to enforce budgets.
    """

    def __init__(
        self,
        cache: Optional[Any] = None,
        jobs: Optional[Any] = None,
        limiter: Optional[RateLimiter] = None,
        stream_interval: float = DEFAULT_STREAM_INTERVAL,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if cache is None:
            from repro.server import _NetworkCache

            cache = _NetworkCache()
        if jobs is None:
            from repro.farm.jobs import JobManager
            from repro.farm.store import active_store

            jobs = JobManager(store=active_store())
        self.cache = cache
        self.jobs = jobs
        self.limiter = limiter if limiter is not None else RateLimiter()
        self.stream_interval = stream_interval
        self._clock = clock

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Route one request; never raises — every failure is a JSON
        error response (the ladder the module docstring describes)."""
        start = self._clock()
        split = urlsplit(request.target)
        path = unquote(split.path)
        params = parse_qs(split.query, keep_blank_values=True)
        endpoint = "other"
        try:
            endpoint, response = self._dispatch(request, path, params)
        except _BadRequest as error:
            response = error_response(str(error), 400)
        except RateLimited as error:
            response = error_response(str(error), 429)
            response = ServiceResponse(
                status=429,
                body=response.body,
                headers=(("Retry-After", f"{error.retry_after:.3f}"),),
            )
        except VerificationTimeout:
            response = error_response("verification timed out", 408)
        except NotFoundError as error:
            # 404 is for missing *resources* (GET/DELETE on a name that
            # doesn't exist). A POST body referencing an unknown network
            # is invalid input like any other payload problem: 400.
            status = 400 if request.method.upper() == "POST" else 404
            response = error_response(str(error), status)
        except ReproError as error:
            response = error_response(str(error), 400)
        except Exception as error:  # defensive guard: never a traceback
            response = error_response(f"internal error: {error}", 500)
        self._observe(request.method, endpoint, response.status, start)
        return response

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        request: ServiceRequest,
        path: str,
        params: Dict[str, List[str]],
    ) -> Tuple[str, ServiceResponse]:
        """Match (method, path) to a handler; returns (endpoint label,
        response). Raises the ladder's exceptions for error cases."""
        method = request.method.upper()
        if path != "/metrics":  # scraping must never be throttled
            self._admit(request, method, path)
        if method == "GET":
            if path == "/metrics":
                return "metrics", self._metrics()
            if path == "/networks":
                return "networks", self._networks()
            if path.startswith("/networks/"):
                return "networks.one", self._network(path[len("/networks/") :])
            if path == "/queries/example":
                return "queries.example", self._example_queries()
            if path == "/jobs":
                return "jobs", self._jobs_listing()
            if path.startswith("/jobs/"):
                rest = path[len("/jobs/") :]
                if rest.endswith("/stream"):
                    run_id = rest[: -len("/stream")]
                    return "jobs.stream", self._job_stream(run_id, params)
                return "jobs.one", self._job(rest, params)
            return "other", error_response(f"no such endpoint {path!r}", 404)
        if method == "POST":
            # Late import and attribute lookups: the payload handlers live
            # in repro.server, and tests monkeypatch them there.
            import repro.server as server

            if path == "/verify":
                payload = parse_json_body(request.body)
                return "verify", json_response(
                    server._verify_payload(payload, self.cache)
                )
            if path == "/lint":
                payload = parse_json_body(request.body)
                return "lint", json_response(
                    server._lint_payload(payload, self.cache)
                )
            if path == "/jobs":
                payload = parse_json_body(request.body)
                client = client_identity(request.headers, request.peer)
                self._check_job_quota(client)
                return "jobs.submit", json_response(
                    server._submit_job(payload, self.cache, self.jobs, client),
                    status=202,
                )
            return "other", error_response(f"no such endpoint {path!r}", 404)
        if method == "DELETE":
            if path.startswith("/jobs/"):
                return "jobs.cancel", self._cancel_job(path[len("/jobs/") :])
            return "other", error_response(f"no such endpoint {path!r}", 404)
        raise NotFoundError(f"method {method} is not supported")

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self, request: ServiceRequest, method: str, path: str) -> None:
        if not self.limiter.config.enabled:
            return
        client = client_identity(request.headers, request.peer)
        request_class = (
            SWEEP if (method == "POST" and path == "/jobs") else INTERACTIVE
        )
        wait = self.limiter.check(client, request_class)
        if wait is not None:
            obs.add("http.rate_limited")
            raise RateLimited(
                f"rate limit exceeded for client {client!r}; "
                f"retry in {wait:.3f}s",
                retry_after=wait,
            )

    def _check_job_quota(self, client: str) -> None:
        quota = self.limiter.config.active_jobs_per_client
        if quota is None:
            return
        active = self.jobs.active_count(client)
        if active >= quota:
            obs.add("http.quota_refusals")
            raise RateLimited(
                f"client {client!r} already has {active} active job runs "
                f"(quota: {quota}); wait for one to finish or cancel it",
                retry_after=1.0,
            )

    # ------------------------------------------------------------------
    # GET handlers
    # ------------------------------------------------------------------
    def _metrics(self) -> ServiceResponse:
        return ServiceResponse(
            status=200,
            body=obs.metrics_text().encode("utf-8"),
            content_type=obs.PROMETHEUS_CONTENT_TYPE,
        )

    def _networks(self) -> ServiceResponse:
        from repro.datasets.builtins import BUILTIN_NETWORKS

        return json_response({"networks": list(BUILTIN_NETWORKS)})

    def _network(self, name: str) -> ServiceResponse:
        from repro.io.json_format import network_to_json

        network = self.cache.get(name)
        return json_response(json.loads(network_to_json(network)))

    def _example_queries(self) -> ServiceResponse:
        from repro.datasets.example import EXAMPLE_QUERIES

        return json_response(
            {"queries": [{"name": n, "text": t} for n, t in EXAMPLE_QUERIES]}
        )

    def _jobs_listing(self) -> ServiceResponse:
        return json_response({"jobs": self.jobs.all_snapshots()})

    def _job(
        self, run_id: str, params: Dict[str, List[str]]
    ) -> ServiceResponse:
        include_items = _flag(params.get("include_items", []), default=True)
        snapshot = self.jobs.snapshot_of(run_id, include_items=include_items)
        if snapshot is None:
            raise NotFoundError("no such job")
        return json_response(snapshot)

    def _cancel_job(self, run_id: str) -> ServiceResponse:
        document = self.jobs.request_cancel(run_id)
        if document is None:
            raise NotFoundError("no such job")
        return json_response(document)

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------
    def _job_stream(
        self, run_id: str, params: Dict[str, List[str]]
    ) -> ServiceResponse:
        if self.jobs.snapshot_of(run_id, include_items=False) is None:
            raise NotFoundError("no such job")
        interval = self.stream_interval
        raw = params.get("interval", [])
        if raw:
            try:
                interval = min(10.0, max(0.02, float(raw[-1])))
            except ValueError:
                raise _BadRequest("'interval' must be a number of seconds")
        include_items = _flag(params.get("include_items", []), default=False)
        obs.add("http.streams_opened")
        return ServiceResponse(
            status=200,
            content_type=SSE_CONTENT_TYPE,
            headers=(("Cache-Control", "no-cache"),),
            stream=self._stream_events(run_id, interval, include_items),
        )

    def _stream_events(
        self, run_id: str, interval: float, include_items: bool
    ) -> Iterator[bytes]:
        """Yield SSE frames: a ``snapshot`` event whenever the run's
        state changes, then one final ``done`` event. The stream also
        ends (with ``error``) if the run is evicted mid-watch."""
        last: Optional[str] = None
        while True:
            snapshot = self.jobs.snapshot_of(run_id, include_items=include_items)
            if snapshot is None:
                yield _sse_event("error", {"error": "job evicted"})
                return
            data = json.dumps(snapshot, sort_keys=True)
            if data != last:
                last = data
                yield _sse_event("snapshot", snapshot)
            if snapshot.get("state") in _FINISHED_STATES:
                yield _sse_event("done", {"id": run_id, "state": snapshot["state"]})
                return
            time.sleep(interval)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _observe(
        self, method: str, endpoint: str, status: int, start: float
    ) -> None:
        if not obs.enabled():
            return
        elapsed = self._clock() - start
        obs.add("http.requests")
        obs.add(f"http.responses.{status // 100}xx")
        obs.observe(f"http.latency.{method.lower()}.{endpoint}", elapsed)


def _sse_event(event: str, document: Any) -> bytes:
    """One Server-Sent-Events frame."""
    data = json.dumps(document)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")
