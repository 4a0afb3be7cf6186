"""Tests for the transport-agnostic service core.

These exercise routing, the error ladder, admission control and SSE
streaming directly through :meth:`ServiceCore.handle` — no sockets —
with a stub job manager where engine work would only add noise.
"""

import json

import pytest

from repro import obs
from repro.errors import NotFoundError, VerificationTimeout
from repro.service.core import (
    ServiceCore,
    ServiceRequest,
    _sse_event,
    parse_json_body,
    _BadRequest,
    _flag,
)
from repro.service.ratelimit import RateLimitConfig, RateLimiter


class StubJobs:
    """A job manager double: canned snapshots, recorded calls."""

    def __init__(self, snapshots=()):
        #: Sequence of values snapshot_of returns (last one repeats).
        self.snapshots = list(snapshots)
        self.calls = []
        self.active = 0

    def _next(self):
        if not self.snapshots:
            return None
        if len(self.snapshots) > 1:
            return self.snapshots.pop(0)
        return self.snapshots[0]

    def snapshot_of(self, run_id, include_items=True):
        self.calls.append(("snapshot_of", run_id, include_items))
        return self._next()

    def all_snapshots(self):
        self.calls.append(("all_snapshots",))
        return []

    def request_cancel(self, run_id):
        self.calls.append(("request_cancel", run_id))
        return self._next()

    def active_count(self, client):
        self.calls.append(("active_count", client))
        return self.active


def core_with(jobs=None, limiter=None, stream_interval=0.01):
    return ServiceCore(
        jobs=jobs if jobs is not None else StubJobs(),
        limiter=limiter,
        stream_interval=stream_interval,
    )


def get(core, target, headers=None):
    response = core.handle(
        ServiceRequest("GET", target, headers=headers or {}, peer="peer-1")
    )
    return response


def body_of(response):
    return json.loads(response.body.decode("utf-8"))


class TestRouting:
    def test_networks_listing(self):
        response = get(core_with(), "/networks")
        assert response.status == 200
        assert "example" in body_of(response)["networks"]

    def test_percent_encoded_path_is_unquoted_once(self):
        # Regression: routing used to match the raw target, so any
        # percent-encoded path 404'd even when the resource existed.
        response = get(core_with(), "/networks/%65xample")
        assert response.status == 200
        assert body_of(response)["name"] == "running-example"

    def test_query_string_does_not_break_routing(self):
        # Regression: 'GET /jobs/<id>?include_items=0' used to 404
        # because the query string was matched as part of the path.
        jobs = StubJobs([{"id": "job-0001", "state": "done"}])
        response = get(core_with(jobs), "/jobs/job-0001?include_items=0")
        assert response.status == 200
        assert jobs.calls == [("snapshot_of", "job-0001", False)]

    def test_include_items_defaults_to_true(self):
        jobs = StubJobs([{"id": "job-0001", "state": "done"}])
        get(core_with(jobs), "/jobs/job-0001")
        assert jobs.calls == [("snapshot_of", "job-0001", True)]

    def test_unknown_endpoints_are_404_for_every_method(self):
        core = core_with()
        for method, target in (
            ("GET", "/nope"),
            ("POST", "/networks"),
            ("DELETE", "/networks/example"),
        ):
            response = core.handle(ServiceRequest(method, target, body=b"{}"))
            assert response.status == 404, (method, target)
            assert "no such endpoint" in body_of(response)["error"]

    def test_unsupported_method_is_404(self):
        response = core_with().handle(ServiceRequest("PUT", "/verify"))
        assert response.status == 404


class TestErrorLadder:
    def test_missing_body_is_400(self):
        response = core_with().handle(ServiceRequest("POST", "/verify"))
        assert response.status == 400
        assert "Content-Length" in body_of(response)["error"]

    def test_invalid_json_body_is_400(self):
        response = core_with().handle(
            ServiceRequest("POST", "/verify", body=b"{nope")
        )
        assert response.status == 400

    def test_non_object_body_is_400(self):
        response = core_with().handle(
            ServiceRequest("POST", "/verify", body=b"[1, 2]")
        )
        assert response.status == 400

    def test_unknown_job_get_is_404(self):
        response = get(core_with(StubJobs([None])), "/jobs/job-miss")
        assert response.status == 404

    def test_unknown_job_delete_is_404(self):
        response = core_with(StubJobs([None])).handle(
            ServiceRequest("DELETE", "/jobs/job-miss")
        )
        assert response.status == 404

    def test_delete_errors_become_json_500(self):
        # Regression: do_DELETE had no error ladder at all — any
        # exception leaked a raw traceback over the socket.
        class ExplodingJobs(StubJobs):
            def request_cancel(self, run_id):
                raise RuntimeError("boom")

        response = core_with(ExplodingJobs()).handle(
            ServiceRequest("DELETE", "/jobs/job-0001")
        )
        assert response.status == 500
        assert "internal error" in body_of(response)["error"]

    def test_timeout_maps_to_408(self):
        class TimingOutJobs(StubJobs):
            def snapshot_of(self, run_id, include_items=True):
                raise VerificationTimeout("too slow")

        response = get(core_with(TimingOutJobs()), "/jobs/job-0001")
        assert response.status == 408

    def test_not_found_on_post_is_invalid_input(self):
        # A POST body referencing an unknown resource is a payload
        # problem (400), not a missing URL resource (404).
        class MissingJobs(StubJobs):
            def active_count(self, client):
                raise NotFoundError("no such network 'arpanet'")

        core = core_with(
            MissingJobs(),
            limiter=RateLimiter(RateLimitConfig(active_jobs_per_client=1)),
        )
        response = core.handle(ServiceRequest("POST", "/jobs", body=b"{}"))
        assert response.status == 400


class TestAdmissionControl:
    def production_core(self, jobs=None, **knobs):
        config = RateLimitConfig(**knobs)
        return core_with(jobs=jobs, limiter=RateLimiter(config))

    def test_429_carries_retry_after(self):
        core = self.production_core(interactive_rate=0.001, interactive_burst=1)
        assert get(core, "/networks").status == 200
        response = get(core, "/networks")
        assert response.status == 429
        headers = dict(response.headers)
        assert float(headers["Retry-After"]) > 0

    def test_metrics_is_never_throttled(self):
        core = self.production_core(interactive_rate=0.001, interactive_burst=1)
        for _ in range(5):
            assert get(core, "/metrics").status == 200

    def test_clients_are_distinguished_by_header(self):
        core = self.production_core(interactive_rate=0.001, interactive_burst=1)
        assert get(core, "/networks", {"X-Client-Id": "a"}).status == 200
        assert get(core, "/networks", {"X-Client-Id": "a"}).status == 429
        assert get(core, "/networks", {"X-Client-Id": "b"}).status == 200

    def test_job_quota_refuses_submission(self):
        jobs = StubJobs()
        jobs.active = 4
        core = self.production_core(jobs=jobs, active_jobs_per_client=4)
        response = core.handle(
            ServiceRequest("POST", "/jobs", body=b"{}", peer="peer-1")
        )
        assert response.status == 429
        assert "quota" in body_of(response)["error"]
        assert ("active_count", "peer-1") in jobs.calls

    def test_no_limiter_admits_everything(self):
        core = core_with()  # default no-op limiter
        for _ in range(50):
            assert get(core, "/networks").status == 200


class TestMetrics:
    """GET /metrics serves the repro.obs registry and nothing else."""

    def test_body_is_the_obs_exposition(self):
        core = core_with()
        verify = json.dumps(
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"}
        ).encode("utf-8")
        with obs.recording():
            for _ in range(2):  # the second is a compile-memo hit
                assert core.handle(
                    ServiceRequest("POST", "/verify", body=verify)
                ).status == 200
            expected = obs.metrics_text()
            response = get(core, "/metrics")
        assert response.status == 200
        assert response.content_type == obs.PROMETHEUS_CONTENT_TYPE
        assert response.body == expected.encode("utf-8")
        series = [
            line.split(" ", 1)[0]
            for line in expected.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(series) == len(set(series))
        assert "aalwines_compiler_memo_hits_total" in series

    def test_unobserved_registry_serves_only_the_switch(self):
        previous = obs.enabled()
        obs.disable()
        obs.reset()
        try:
            response = get(core_with(), "/metrics")
        finally:
            if previous:
                obs.enable()
        assert response.body == (
            b"# TYPE aalwines_observability_enabled gauge\n"
            b"aalwines_observability_enabled 0\n"
        )


def parse_sse(chunks):
    """[(event, document), ...] from raw SSE frames."""
    events = []
    for chunk in chunks:
        text = chunk.decode("utf-8")
        assert text.endswith("\n\n")
        event_line, data_line = text.strip().split("\n")
        assert event_line.startswith("event: ")
        assert data_line.startswith("data: ")
        events.append(
            (event_line[len("event: ") :], json.loads(data_line[len("data: ") :]))
        )
    return events


class TestStreaming:
    def test_stream_emits_snapshots_then_done(self):
        jobs = StubJobs(
            [
                {"id": "job-0001", "state": "running"},  # 404-probe
                {"id": "job-0001", "state": "running", "completed": 0},
                {"id": "job-0001", "state": "running", "completed": 1},
                {"id": "job-0001", "state": "done", "completed": 2},
            ]
        )
        response = get(core_with(jobs), "/jobs/job-0001/stream?interval=0.02")
        assert response.status == 200
        assert response.content_type.startswith("text/event-stream")
        events = parse_sse(list(response.stream))
        kinds = [kind for kind, _ in events]
        assert kinds == ["snapshot", "snapshot", "snapshot", "done"]
        assert events[-1][1] == {"id": "job-0001", "state": "done"}

    def test_unchanged_snapshots_are_not_repeated(self):
        jobs = StubJobs(
            [
                {"id": "job-0001", "state": "running"},  # 404-probe
                {"id": "job-0001", "state": "running"},
                {"id": "job-0001", "state": "running"},
                {"id": "job-0001", "state": "done"},
            ]
        )
        response = get(core_with(jobs), "/jobs/job-0001/stream?interval=0.02")
        kinds = [kind for kind, _ in parse_sse(list(response.stream))]
        assert kinds == ["snapshot", "snapshot", "done"]

    def test_stream_of_unknown_job_is_404(self):
        response = get(core_with(StubJobs([None])), "/jobs/job-miss/stream")
        assert response.status == 404
        assert response.stream is None

    def test_eviction_mid_stream_ends_with_error(self):
        jobs = StubJobs(
            [
                {"id": "job-0001", "state": "running"},  # 404-probe
                {"id": "job-0001", "state": "running"},
                None,  # evicted while we watch
            ]
        )
        response = get(core_with(jobs), "/jobs/job-0001/stream?interval=0.02")
        events = parse_sse(list(response.stream))
        assert [kind for kind, _ in events] == ["snapshot", "error"]

    def test_bad_interval_is_400(self):
        jobs = StubJobs([{"id": "job-0001", "state": "running"}])
        response = get(core_with(jobs), "/jobs/job-0001/stream?interval=soon")
        assert response.status == 400


class TestHelpers:
    def test_flag_parsing(self):
        assert _flag([]) is True
        assert _flag([], default=False) is False
        for falsy in ("0", "false", "No", "OFF"):
            assert _flag([falsy]) is False
        assert _flag(["1"]) is True
        assert _flag(["0", "1"]) is True  # last value wins

    def test_parse_json_body_contract(self):
        assert parse_json_body(b'{"a": 1}') == {"a": 1}
        for raw in (None, b"[]", b"nope", b"\xff\xfe"):
            with pytest.raises(_BadRequest):
                parse_json_body(raw)

    def test_sse_event_frame(self):
        frame = _sse_event("snapshot", {"a": 1})
        assert frame == b'event: snapshot\ndata: {"a": 1}\n\n'
