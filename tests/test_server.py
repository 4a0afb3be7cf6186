"""Tests for the HTTP verification service (the GUI backend)."""

import http.client
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.datasets.example import build_example_network
from repro.farm.pool import EngineConfig
from repro.server import VerificationServer, _NetworkCache


@pytest.fixture(scope="module")
def server():
    with VerificationServer(port=0) as running:
        yield running


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestDiscovery:
    def test_networks_listing(self, server):
        status, document = request(server, "GET", "/networks")
        assert status == 200
        assert "example" in document["networks"]
        assert "nordunet" in document["networks"]

    def test_network_download(self, server):
        status, document = request(server, "GET", "/networks/example")
        assert status == 200
        assert document["name"] == "running-example"
        assert any(link["name"] == "e4" for link in document["links"])

    def test_example_queries(self, server):
        status, document = request(server, "GET", "/queries/example")
        assert status == 200
        names = [entry["name"] for entry in document["queries"]]
        assert names == ["phi0", "phi1", "phi2", "phi3", "phi4"]

    def test_unknown_endpoint(self, server):
        status, document = request(server, "GET", "/nope")
        assert status == 404
        assert "error" in document

    def test_unknown_network(self, server):
        status, document = request(server, "GET", "/networks/arpanet")
        assert status == 404


class TestVerify:
    def test_satisfied(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        assert status == 200
        assert document["status"] == "satisfied"
        assert document["trace"][0]["link"] == "e0"
        assert document["failure_set"] == []
        assert document["dot"].startswith("digraph")

    def test_unsatisfied(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
            },
        )
        assert status == 200
        assert document["status"] == "unsatisfied"
        assert "trace" not in document

    def test_weighted(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
                "weight": "hops, failures + 3*tunnels",
            },
        )
        assert status == 200
        assert document["weight"] == [5, 0]
        assert document["minimal_guaranteed"] is True

    def test_inline_network(self, server):
        _status, example = request(server, "GET", "/networks/example")
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": example, "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        assert status == 200
        assert document["status"] == "satisfied"

    def test_moped_engine(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": "<ip> [.#v0] .* [v3#.] <ip> 0",
                "engine": "moped",
            },
        )
        assert status == 200
        assert document["status"] == "satisfied"

    @pytest.mark.parametrize(
        "payload, expected_status",
        [
            ({"network": "example"}, 400),  # missing query
            ({"network": 7, "query": "<ip> . <ip> 0"}, 400),
            ({"network": "example", "query": "<ip .*"}, 400),  # syntax error
            ({"network": "example", "query": "<ip> . <ip> 0", "engine": "x"}, 400),
            ({"network": "example", "query": "<ip> . <ip> 0", "timeout": "abc"}, 400),
            ({"network": "example", "query": "<ip> . <ip> 0", "timeout": [1]}, 400),
            ({"network": "example", "query": 5}, 400),
            (
                {
                    "network": "example",
                    "query": "<ip> . <ip> 0",
                    "sweep_prob": True,
                    "timeout": "abc",
                },
                400,
            ),
        ],
    )
    def test_bad_requests(self, server, payload, expected_status):
        status, document = request(server, "POST", "/verify", payload)
        assert status == expected_status
        assert "error" in document

    def test_malformed_json_body(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("POST", "/verify", body="{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    @pytest.mark.parametrize("body", ["[1, 2, 3]", '"a string"', "17", "null"])
    def test_non_object_json_body(self, server, body):
        # Valid JSON that is not an object must be a 400, not a traceback.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("POST", "/verify", body=body)
            response = connection.getresponse()
            assert response.status == 400
            assert "object" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_missing_content_length(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            # putrequest/endheaders with no header at all — http.client's
            # request() would helpfully add Content-Length: 0.
            connection.putrequest("POST", "/verify")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["banana", "-5"])
    def test_invalid_content_length(self, server, length):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.putrequest("POST", "/verify")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_oversized_content_length(self, server):
        from repro.server import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.putrequest("POST", "/verify")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_post_to_unknown_path(self, server):
        status, _ = request(server, "POST", "/networks", {})
        assert status == 404

    def test_500_guard_returns_json(self, server, monkeypatch):
        # Even a bug deep in verification must surface as a JSON 500,
        # never a traceback over the socket.
        import repro.server as server_module

        def boom(payload, cache):
            raise RuntimeError("injected bug")

        monkeypatch.setattr(server_module, "_verify_payload", boom)
        status, document = request(
            server, "POST", "/verify", {"query": "<ip> . <ip> 0"}
        )
        assert status == 500
        assert "internal error" in document["error"]

    def test_concurrent_requests(self, server):
        import concurrent.futures

        def ask(k):
            return request(
                server,
                "POST",
                "/verify",
                {"network": "example", "query": f"<ip> [.#v0] .* [v3#.] <ip> {k}"},
            )

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(ask, [0, 1, 2, 0]))
        assert all(status == 200 for status, _doc in results)
        assert all(doc["status"] == "satisfied" for _s, doc in results)


class TestJobApi:
    """The asynchronous sweep endpoints backed by the verification farm."""

    def _wait_done(self, server, job_id, budget=120.0):
        import time

        deadline = time.time() + budget
        while time.time() < deadline:
            status, document = request(server, "GET", f"/jobs/{job_id}")
            assert status == 200
            if document["state"] in ("done", "failed", "cancelled"):
                return document
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish in {budget}s")

    def test_suite_job_lifecycle(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "queries": [
                    {"name": "phi0", "text": "<ip> [.#v0] .* [v3#.] <ip> 0"},
                    "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
                ],
            },
        )
        assert status == 202
        assert document["total"] == 2
        final = self._wait_done(server, document["id"])
        assert final["state"] == "done"
        assert final["summary"]["satisfied"] == 1
        assert final["summary"]["unsatisfied"] == 1
        names = {item["name"] for item in final["items"]}
        assert "phi0" in names

    def test_failure_sweep_job(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": "<ip> [.#v0] .* [v3#.] <ip> 0",
                "sweep_failures": 1,
                "jobs": 2,
            },
        )
        assert status == 202
        assert document["total"] == 9  # baseline + one per link
        final = self._wait_done(server, document["id"])
        assert final["state"] == "done"
        # Only the entry link e0 and exit link e7 are fatal.
        assert final["summary"]["satisfied"] == 7
        assert final["summary"]["unsatisfied"] == 2

    def test_jobs_listing(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        job_id = document["id"]
        status, listing = request(server, "GET", "/jobs")
        assert status == 200
        assert job_id in [entry["id"] for entry in listing["jobs"]]
        assert all("items" not in entry for entry in listing["jobs"])
        self._wait_done(server, job_id)

    def test_cancel_job(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": "<ip> [.#v0] .* [v3#.] <ip> 0",
                "sweep_failures": 2,
            },
        )
        job_id = document["id"]
        status, cancelled = request(server, "DELETE", f"/jobs/{job_id}")
        assert status == 200
        assert cancelled["id"] == job_id
        final = self._wait_done(server, job_id)
        assert final["state"] in ("cancelled", "done")

    def test_unknown_job(self, server):
        assert request(server, "GET", "/jobs/nope")[0] == 404
        assert request(server, "DELETE", "/jobs/nope")[0] == 404

    @pytest.mark.parametrize(
        "payload",
        [
            {"network": "example"},  # no query
            {"network": "example", "queries": []},  # empty suite
            {"network": "example", "queries": [{"name": "x"}]},  # no text
            {"network": "example", "query": "<ip> . <ip> 0", "jobs": 0},
            {
                "network": "example",
                "query": "<ip> . <ip> 0",
                "sweep_failures": -1,
            },
            {
                "network": "example",
                "query": "<ip> . <ip> 0",
                "sweep_failures": 2,
                "sweep_limit": 3,
            },  # over the job limit
            {
                "network": "example",
                "query": "<ip> . <ip> 0",
                "engine": "moped",
                "weight": "hops",
            },
            {"network": "example", "queries": "<ip> . <ip> 0"},  # not a list
            {"network": "example", "queries": [{"name": "x", "text": 5}]},
            {
                "network": "example",
                "query": "<ip> . <ip> 0",
                "sweep_failures": 1,
                "sweep_links": 5,
            },
            {
                "network": "example",
                "query": "<ip> . <ip> 0",
                "sweep_failures": 1,
                "sweep_limit": "x",
            },
            {"network": "example", "query": "<ip> . <ip> 0", "timeout": "abc"},
            {"network": "example", "query": 5},
        ],
    )
    def test_bad_job_submissions(self, server, payload):
        status, document = request(server, "POST", "/jobs", payload)
        assert status == 400
        assert "error" in document


class TestLint:
    """The POST /lint endpoint (static analysis, no verification)."""

    def test_lint_builtin_example(self, server):
        status, document = request(
            server, "POST", "/lint", {"network": "example"}
        )
        assert status == 200
        assert document["exit_code"] == 1  # the deliberate DP006 overlap
        assert document["counts"]["errors"] == 0
        assert [d["code"] for d in document["diagnostics"]] == ["DP006"]

    def test_lint_inline_network(self, server):
        import repro.io.json_format as json_format
        from repro.datasets.defects import build_defect_network

        payload = json.loads(
            json_format.network_to_json(build_defect_network("DP001"))
        )
        status, document = request(
            server, "POST", "/lint", {"network": payload}
        )
        assert status == 200
        assert document["exit_code"] == 2
        assert document["diagnostics"][0]["code"] == "DP001"

    def test_lint_with_failed_links(self, server):
        status, document = request(
            server,
            "POST",
            "/lint",
            {"network": "example", "failed_links": ["e5"]},
        )
        assert status == 200
        assert document["failed_links"] == ["e5"]
        assert "DP001" in {d["code"] for d in document["diagnostics"]}

    def test_lint_suppress_and_rules(self, server):
        status, document = request(
            server,
            "POST",
            "/lint",
            {"network": "example", "suppress": ["DP006"]},
        )
        assert status == 200
        assert document["clean"] is True
        assert "DP006" not in document["rules_run"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"network": "example", "rules": ["DP042"]},  # unknown code
            {"network": "example", "min_severity": "fatal"},
            {"network": "example", "failed_links": "e5"},  # not a list
            {"network": "example", "rules": [1, 2]},  # not strings
            {"network": "arpanet"},  # unknown network
            # Regressions: a string was linted once per character, and
            # a number was a 500 ("'int' object is not iterable").
            {"network": "example", "queries": "<ip ip> .* <ip> 0"},
            {"network": "example", "queries": 5},
            {"network": "example", "queries": [{"name": "x"}]},  # no text
            {"network": "example", "queries": [{"name": "x", "text": 5}]},
        ],
    )
    def test_lint_bad_requests(self, server, payload):
        status, document = request(server, "POST", "/lint", payload)
        assert status == 400
        assert "error" in document

    def test_lint_queries_are_optional(self, server):
        for extra in ({}, {"queries": None}, {"queries": []}):
            status, document = request(
                server, "POST", "/lint",
                dict({"network": "example", "rules": ["DP007"]}, **extra),
            )
            assert status == 200
            assert document["diagnostics"] == []


class TestJobPreflight:
    """Pre-flight lint findings surfaced through the async job API."""

    def _wait_done(self, server, job_id, budget=120.0):
        import time

        deadline = time.time() + budget
        while time.time() < deadline:
            status, document = request(server, "GET", f"/jobs/{job_id}")
            assert status == 200
            if document["state"] in ("done", "failed", "cancelled"):
                return document
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish in {budget}s")

    def test_sweep_with_preflight(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": "<ip> [.#v0] .* [v3#.] <ip> 0",
                "sweep_failures": 1,
                "preflight": True,
            },
        )
        assert status == 202
        final = self._wait_done(server, document["id"])
        assert final["state"] == "done"
        assert final["preflight"]["flagged"] >= 1
        flagged = [item for item in final["items"] if "diagnostics" in item]
        assert flagged, "no item carried diagnostics"
        codes = {d["code"] for item in flagged for d in item["diagnostics"]}
        # DP007 joins the set: on a degraded variant the pinned k=0 query
        # can become statically unsatisfiable, which is a preflight finding.
        assert codes <= {
            "DP001", "DP002", "DP003", "DP004", "DP005", "DP006", "DP007"
        }

    def test_suite_without_preflight_has_no_section(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        final = self._wait_done(server, document["id"])
        assert "preflight" not in final
        assert all("diagnostics" not in item for item in final["items"])


class TestMetrics:
    """GET /metrics — the Prometheus exposition of repro.obs."""

    def _metrics_text(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            return (
                response.status,
                response.getheader("Content-Type"),
                response.read().decode("utf-8"),
            )
        finally:
            connection.close()

    def test_metrics_served_as_prometheus_text(self, server):
        status, content_type, text = self._metrics_text(server)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "aalwines_observability_enabled 1" in text

    def test_verification_shows_up_in_metrics(self, server):
        from repro import obs

        before = obs.counter("engine.queries")
        request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        _status, _ctype, text = self._metrics_text(server)
        for line in text.splitlines():
            if line.startswith("aalwines_engine_queries_total "):
                assert int(line.split()[-1]) >= before + 1
                break
        else:
            pytest.fail("engine.queries counter missing from /metrics")


class TestProbabilisticVerify:
    PHI_PROTECTED = "<ip> [.#v0] .* [v3#.] <ip> 2"
    PHI_FRAGILE = "<ip> [.#vIn] .* <ip> 1"

    def test_threshold_holds(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": self.PHI_PROTECTED,
                "prob_threshold": 0.9,
                "prob_default": 0.01,
            },
        )
        assert status == 200
        assert document["status"] == "holds"
        prob = document["prob"]
        assert prob["verdict"] == "holds"
        assert prob["lower"] >= 0.9
        assert prob["upper"] <= 1.0
        assert prob["early_exit"] is True
        witness = document["most_likely_witness"]
        assert witness["probability"] > 0.9
        assert witness["trace"][0]["link"]

    def test_threshold_fails_with_counterexample(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": self.PHI_FRAGILE,
                "prob_threshold": 0.9,
                "prob_default": 0.01,
            },
        )
        assert status == 200
        assert document["status"] == "fails"
        counterexample = document["most_likely_counterexample"]
        assert counterexample["failed_links"] == []
        assert counterexample["probability"] > 0.9

    def test_sweep_without_threshold(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": self.PHI_PROTECTED,
                "sweep_prob": True,
                "prob_limit": 16,
            },
        )
        assert status == 200
        assert document["status"] == "undecided"
        assert document["prob"]["threshold"] is None
        assert document["prob"]["scenarios_enumerated"] == 16

    def test_weighted_verify_reports_witness_probability(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": self.PHI_PROTECTED,
                "weight": "likelihood",
            },
        )
        assert status == 200
        assert document["status"] == "satisfied"
        assert 0.0 < document["witness_probability"] <= 1.0

    def test_plain_verify_has_no_probability_fields(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": self.PHI_PROTECTED},
        )
        assert status == 200
        assert "witness_probability" not in document
        assert "prob" not in document

    def test_bad_threshold_type(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": self.PHI_PROTECTED,
             "prob_threshold": "high"},
        )
        assert status == 400
        assert "prob_threshold" in document["error"]

    def test_out_of_range_threshold(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": self.PHI_PROTECTED,
             "prob_threshold": 1.5},
        )
        assert status == 400
        assert "out of range" in document["error"]


class TestProbabilisticJobs:
    PHI_PROTECTED = "<ip> [.#v0] .* [v3#.] <ip> 2"

    def test_submit_and_poll(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": self.PHI_PROTECTED,
                "prob_threshold": 0.9,
                "prob_default": 0.01,
            },
        )
        assert status == 202
        run = server.jobs.get(document["id"])
        assert run.wait(60)
        status, snapshot = request(server, "GET", f"/jobs/{document['id']}")
        assert status == 200
        assert snapshot["state"] == "done"
        prob = snapshot["prob"]
        assert prob["verdict"] == "holds"
        assert prob["early_exit"] is True
        assert prob["lower"] >= 0.9

    def test_conflicts_with_failure_sweep(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": self.PHI_PROTECTED,
                "prob_threshold": 0.9,
                "sweep_failures": 1,
            },
        )
        assert status == 400
        assert "sweep_failures" in document["error"]

    def test_needs_exactly_one_query(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "queries": [self.PHI_PROTECTED, self.PHI_PROTECTED],
                "prob_threshold": 0.9,
            },
        )
        assert status == 400
        assert "exactly one query" in document["error"]

    def test_out_of_range_threshold(self, server):
        """Checked as on /verify, not swept to a verdict."""
        status, document = request(
            server,
            "POST",
            "/jobs",
            {"network": "example", "query": self.PHI_PROTECTED,
             "prob_threshold": 1.5},
        )
        assert status == 400
        assert document["error"] == "probability threshold 1.5 out of range [0, 1]"


class TestEngineSettingsCheckedUpfront:
    """A weight no engine accepts is a 400 on every endpoint, never a
    500 or an error item per scenario."""

    PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"

    def test_jobs_rejects_bogus_weight(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {"network": "example", "query": self.PHI0, "sweep_failures": 1,
             "weight": "bogus"},
        )
        assert status == 400
        assert "bogus" in document["error"]

    @pytest.mark.parametrize("weight", [5, ["hops"]])
    def test_verify_rejects_a_weight_that_is_not_text(self, server, weight):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": self.PHI0, "weight": weight},
        )
        assert status == 400
        assert "weight is text" in document["error"]

    def test_probabilistic_verify_rejects_bogus_weight(self, server):
        status, document = request(
            server,
            "POST",
            "/verify",
            {"network": "example", "query": self.PHI0, "prob_threshold": 0.9,
             "weight": "bogus"},
        )
        assert status == 400
        assert "bogus" in document["error"]


class TestEngineTable:
    """``/verify`` engines: one per (network content key, engine
    config), least recently used evicted first."""

    def test_engine_reused_per_config(self):
        table = _NetworkCache()
        network = build_example_network()
        dual = EngineConfig()
        weighted = EngineConfig(weight="failures")
        with obs.recording():
            e1 = table.engine("k", dual, network)
            e2 = table.engine("k", dual, network)
            e3 = table.engine("k", weighted, network)
            assert obs.counter("server.engine_hits") == 1
            assert obs.counter("server.engine_misses") == 2
        assert e1 is e2
        assert e1 is not e3

    def test_triage_selection_is_part_of_the_engine_key(self):
        """Regression: configs differing only in the triage mode must
        occupy distinct engine slots. A table that ignored ``triage=``
        would hand a request for the full pipeline an engine that
        answers from triage alone."""
        table = _NetworkCache()
        network = build_example_network()
        full = EngineConfig()
        only = EngineConfig(triage="only")
        assert full != only  # frozen dataclass equality keys the table
        with obs.recording():
            e1 = table.engine("k", full, network)
            e2 = table.engine("k", only, network)
            assert e1 is not e2
            assert e1.triage == "off" and e2.triage == "only"
            assert table.engine("k", full, network) is e1
            assert table.engine("k", only, network) is e2
            assert obs.counter("server.engine_misses") == 2
            assert obs.counter("server.engine_hits") == 2

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.server.ENGINE_SLOTS", 2)
        table = _NetworkCache()
        network = build_example_network()
        config = EngineConfig()
        with obs.recording():
            a = table.engine("a", config, network)
            b = table.engine("b", config, network)
            assert table.engine("a", config, network) is a  # refresh a
            table.engine("c", config, network)  # evicts b (oldest)
            assert obs.counter("server.engine_evictions") == 1
            assert table.engine("a", config, network) is a  # a stayed
            assert obs.counter("server.engine_hits") == 2
            assert table.engine("b", config, network) is not b  # rebuilt
            assert obs.counter("server.engine_misses") == 4


class TestCacheMetrics:
    def test_metrics_expose_cache_counters(self):
        """Every counter a /verify pair ticks on a fresh server's engine
        table is served once, under its registry name."""
        query = "<ip> [.#v0] .* [v3#.] <ip> 0"
        with VerificationServer(port=0) as server:
            for _ in range(2):  # the second request hits the engine and memo
                status, _document = request(
                    server, "POST", "/verify", {"network": "example", "query": query}
                )
                assert status == 200
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                body = response.read().decode("utf-8")
            finally:
                connection.close()
        assert response.status == 200
        values = dict(
            line.split(" ", 1)
            for line in body.splitlines()
            if line and not line.startswith("#")
        )
        for metric in (
            "aalwines_server_engine_misses_total",
            "aalwines_server_engine_hits_total",
            "aalwines_compiler_memo_misses_total",
            "aalwines_compiler_memo_hits_total",
        ):
            assert f"# TYPE {metric} counter" in body
            assert int(values[metric]) > 0
        assert "aalwines_compile_memo_" not in body
        assert "aalwines_farm_cache_" not in body

    def test_no_metric_is_declared_twice(self, server):
        """The exposition is the registry alone, so a probabilistic
        sweep's counters never repeat a series."""
        request(
            server,
            "POST",
            "/verify",
            {
                "network": "example",
                "query": "<ip> [.#v0] .* [v3#.] <ip> 0",
                "prob_threshold": 0.5,
            },
        )
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            connection.request("GET", "/metrics")
            body = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        names = [
            line.split(" ", 1)[0]
            for line in body.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(names) == len(set(names))


class TestTriage:
    PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"
    UNSAT = "<ip ip> .* <ip> 0"
    NEEDS_FAILURE = "<ip> [.#v0] .* <mpls smpls ip> 1"

    def test_verify_reports_triage_block(self, server):
        status, document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.PHI0, "triage": "auto"},
        )
        assert status == 200
        assert document["status"] == "satisfied"
        assert document["triage"]["verdict"] == "proven_yes"
        assert document["triage"]["seconds"] >= 0.0
        assert document["trace"]  # the witness is still rendered

    def test_verify_without_triage_has_no_block(self, server):
        status, document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.PHI0},
        )
        assert status == 200
        assert "triage" not in document

    def test_only_mode_inconclusive(self, server):
        status, document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.NEEDS_FAILURE,
             "triage": "only"},
        )
        assert status == 200
        assert document["status"] == "inconclusive"
        assert document["triage"]["verdict"] == "inconclusive"

    def test_unknown_mode_is_a_400(self, server):
        status, document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.PHI0, "triage": "later"},
        )
        assert status == 400
        assert "triage" in document["error"]

    def test_probabilistic_verify_rejects_an_unknown_mode(self, server):
        status, document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.PHI0, "sweep_prob": True,
             "triage": "bogus"},
        )
        assert status == 400
        assert "triage" in document["error"]

    def test_probabilistic_verify_runs_triage(self, server):
        """Each scenario of a probabilistic /verify runs the requested
        triage tier, as the same body does on /jobs."""
        with obs.recording():
            status, document = request(
                server, "POST", "/verify",
                {"network": "example", "query": self.PHI0,
                 "sweep_prob": True, "triage": "only"},
            )
            runs = obs.counter("triage.runs")
        assert status == 200
        assert runs >= document["prob"]["scenarios_verified"] > 0

    def test_lint_queries_surface_dp007(self, server):
        status, document = request(
            server, "POST", "/lint",
            {"network": "example", "rules": ["DP007"],
             "queries": [{"name": "bad", "text": self.UNSAT}]},
        )
        assert status == 200
        codes = [d["code"] for d in document["diagnostics"]]
        assert codes == ["DP007"]
        assert "'bad'" in document["diagnostics"][0]["message"]

    def test_job_snapshot_counts_triaged(self, server):
        import time

        status, document = request(
            server, "POST", "/jobs",
            {"network": "example", "query": self.PHI0,
             "sweep_failures": 1, "triage": "auto"},
        )
        assert status == 202
        job_id = document["id"]
        for _ in range(200):
            status, snapshot = request(server, "GET", f"/jobs/{job_id}")
            if snapshot["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert snapshot["state"] == "done"
        assert snapshot["summary"]["triaged"] > 0
        triaged = [item for item in snapshot["items"] if "triage" in item]
        assert triaged
        assert all(
            item["triage"] in ("proven_yes", "proven_no") for item in triaged
        )

    def test_metrics_expose_triage_counters_once(self, server):
        status, _document = request(
            server, "POST", "/verify",
            {"network": "example", "query": self.UNSAT, "triage": "auto"},
        )
        assert status == 200
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            connection.request("GET", "/metrics")
            body = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        assert "aalwines_triage_runs_total" in body
        names = [
            line.split()[0]
            for line in body.splitlines()
            if line and not line.startswith("#") and "{" not in line
        ]
        assert len(names) == len(set(names)), "duplicate metric series"


class TestIgnoredCoreField:
    """``core`` is not a request field: like any key the request schema
    does not name, it is ignored, whatever its value, at each endpoint
    that builds an engine."""

    PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"
    PHI_PROTECTED = "<ip> [.#v0] .* [v3#.] <ip> 2"
    CORES = ("tuple", "vectorized", "no-such-core")

    def test_verify(self, server):
        body = {"network": "example", "query": self.PHI0}
        status, expected = request(server, "POST", "/verify", body)
        assert status == 200
        for core in self.CORES:
            status, document = request(
                server, "POST", "/verify", dict(body, core=core)
            )
            assert status == 200, core
            assert document["status"] == expected["status"] == "satisfied"
            assert document["trace"] == expected["trace"]
            assert document["failure_set"] == expected["failure_set"]

    def test_probabilistic_verify(self, server):
        body = {
            "network": "example",
            "query": self.PHI_PROTECTED,
            "prob_threshold": 0.9,
            "prob_default": 0.01,
        }
        status, expected = request(server, "POST", "/verify", body)
        assert status == 200
        for core in self.CORES:
            status, document = request(
                server, "POST", "/verify", dict(body, core=core)
            )
            assert status == 200, core
            assert document["status"] == expected["status"] == "holds"
            assert document["prob"]["verdict"] == "holds"
            assert document["prob"]["lower"] == expected["prob"]["lower"]

    def test_job_submission(self, server):
        status, document = request(
            server,
            "POST",
            "/jobs",
            {
                "network": "example",
                "query": self.PHI0,
                "sweep_failures": 1,
                "core": "vectorized",
            },
        )
        assert status == 202
        assert document["total"] == 9
        final = TestJobApi()._wait_done(server, document["id"])
        assert final["state"] == "done"
        assert final["summary"]["satisfied"] == 7
        assert final["summary"]["unsatisfied"] == 2


class TestHttpRegressions:
    """Pinned fixes for the HTTP-layer bug sweep (routing on the raw
    target, body reads, the DELETE error ladder, SSE streaming)."""

    def _submit_and_finish(self, server):
        _status, document = request(
            server,
            "POST",
            "/jobs",
            {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"},
        )
        job_id = document["id"]
        import time

        deadline = time.time() + 120
        while time.time() < deadline:
            _status, snapshot = request(server, "GET", f"/jobs/{job_id}")
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return job_id
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish")

    def test_percent_encoded_network_name_routes(self, server):
        # Regression: routing matched the raw self.path, so any
        # percent-encoded request target 404'd.
        status, document = request(server, "GET", "/networks/%65xample")
        assert status == 200
        assert document["name"] == "running-example"

    def test_job_get_with_query_string_routes(self, server):
        # Regression: 'GET /jobs/<id>?include_items=0' used to 404.
        job_id = self._submit_and_finish(server)
        status, document = request(
            server, "GET", f"/jobs/{job_id}?include_items=0"
        )
        assert status == 200
        assert document["id"] == job_id
        assert "items" not in document
        status, document = request(
            server, "GET", f"/jobs/{job_id}?include_items=1"
        )
        assert status == 200
        assert "items" in document

    def test_delete_errors_become_json_500(self, server, monkeypatch):
        # Regression: do_DELETE had no try/except — a bug in
        # cancellation leaked a raw traceback over the socket.
        def boom(run_id):
            raise RuntimeError("injected cancellation bug")

        monkeypatch.setattr(server.core.jobs, "request_cancel", boom)
        status, document = request(server, "DELETE", "/jobs/job-0001")
        assert status == 500
        assert "internal error" in document["error"]

    def test_truncated_body_is_a_clean_400(self, server):
        # Regression: _read_json_body did a single rfile.read(length);
        # a short read handed truncated JSON to the parser. Now the
        # read loops, and hitting EOF early is a clean 400.
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            head = (
                "POST /verify HTTP/1.1\r\n"
                f"Host: {server.host}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 1000\r\n"
                "\r\n"
            ).encode("ascii")
            sock.sendall(head + b'{"network": "example"')
            sock.shutdown(socket.SHUT_WR)  # EOF long before 1000 bytes
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"truncated" in response
        assert b"21 of 1000 bytes" in response

    def test_job_stream_over_http(self, server):
        job_id = self._submit_and_finish(server)
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            connection.request("GET", f"/jobs/{job_id}/stream?interval=0.02")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/event-stream"
            )
            body = response.read().decode("utf-8")  # server closes stream
        finally:
            connection.close()
        frames = [frame for frame in body.split("\n\n") if frame]
        assert frames[0].startswith("event: snapshot\n")
        assert frames[-1].startswith("event: done\n")
        done = json.loads(frames[-1].split("\ndata: ")[1])
        assert done == {"id": job_id, "state": "done"}

    def test_stream_of_unknown_job_is_404(self, server):
        status, document = request(server, "GET", "/jobs/nope/stream")
        assert status == 404
        assert "error" in document


def test_module_entry_point_is_aalwines_serve():
    """``python -m repro.server`` takes the ``aalwines serve`` flags."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.server", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "--workers" in completed.stdout


# ----------------------------------------------------------------------
# The request schema: one table, read by one validator
# ----------------------------------------------------------------------

PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"

#: A body each endpoint accepts, which the schema cases break one field at a time.
VALID_BODIES = {
    "/verify": {"network": "example", "query": PHI0},
    "/lint": {"network": "example"},
    "/jobs": {"network": "example", "query": PHI0},
}

#: Values of the wrong JSON type for each field type.
WRONG_TYPE = {
    "text": [5, True],
    "number": ["1", True],
    "integer": [1.5, True, "1"],
    "boolean": ["no", 1],
    "texts": ["e5", [1]],
    "queries": [PHI0, [5]],
    "network": [5, ["example"]],
}


def _schema_cases():
    from repro.server import FIELDS

    cases = []
    for endpoint, fields in FIELDS.items():
        for field in fields:
            values = list(WRONG_TYPE[field.kind])
            if not field.nullable:
                values.append(None)
            if field.minimum is not None:
                values.append(field.minimum - 1)
                if field.kind == "number":
                    values.append(-3)
            if field.choices:
                values.append("bogus")
            for value in values:
                cases.append(
                    pytest.param(
                        endpoint, field.name, value,
                        id=f"{endpoint}-{field.name}-{json.dumps(value)}",
                    )
                )
    return cases


@pytest.fixture()
def core():
    """A service core of its own, so no other test's runs are listed."""
    from repro.service.core import ServiceCore

    instance = ServiceCore()
    yield instance
    instance.jobs.shutdown(timeout=30)


def _post(core, path, body, client="client-1"):
    from repro.service.core import ServiceRequest

    response = core.handle(
        ServiceRequest(
            "POST", path, headers={"X-Client-Id": client},
            body=json.dumps(body).encode("utf-8"),
        )
    )
    return response.status, json.loads(response.body)


def _get(core, path):
    from repro.service.core import ServiceRequest

    response = core.handle(ServiceRequest("GET", path))
    return response.status, json.loads(response.body)


class TestRequestSchema:
    """Every field of every endpoint, from the table: a value of the
    wrong JSON type, or outside the field's bounds or choices, is a 400
    that names the field, before any run is registered."""

    @pytest.mark.parametrize("endpoint, name, value", _schema_cases())
    def test_wrong_value_is_a_400_naming_the_field(self, core, endpoint, name, value):
        status, document = _post(
            core, endpoint, dict(VALID_BODIES[endpoint], **{name: value})
        )
        assert status == 400, document
        assert name in document["error"]
        assert core.jobs.list() == []

    @pytest.mark.parametrize(
        "endpoint, extra",
        [
            ("/jobs", {"sweep_failures": True}),  # ran a 9-job k=1 sweep
            ("/jobs", {"jobs": True}),  # ran one worker
            ("/jobs", {"preflight": "no"}),  # turned preflight on
            ("/jobs", {"sweep_prob": "no"}),  # ran a probabilistic sweep
            ("/verify", {"sweep_prob": "no"}),  # answered "undecided"
            ("/verify", {"timeout": -3}),  # answered 408
            ("/jobs", {"jobs": 0}),
            ("/verify", {"prob_limit": 0}),
        ],
    )
    def test_values_that_used_to_run(self, core, endpoint, extra):
        status, document = _post(core, endpoint, dict(VALID_BODIES[endpoint], **extra))
        assert status == 400
        (name,) = extra
        assert name in document["error"]
        assert core.jobs.list() == []

    def test_the_valid_bodies_are_accepted(self, core):
        for endpoint, body in VALID_BODIES.items():
            status, document = _post(core, endpoint, body)
            assert status in (200, 202), (endpoint, document)

    def test_null_is_a_value_only_where_the_table_says(self, core):
        status, _document = _post(
            core, "/verify", dict(VALID_BODIES["/verify"], timeout=None, weight=None)
        )
        assert status == 200
        status, document = _post(core, "/verify", dict(VALID_BODIES["/verify"], engine=None))
        assert status == 400
        assert "engine" in document["error"]

    def test_docstring_names_every_field(self):
        """Each endpoint's paragraph of the module docstring names every
        field the table declares for it."""
        import repro.server as server_module

        doc = server_module.__doc__
        for endpoint, fields in server_module.FIELDS.items():
            start = doc.index(f"``POST {endpoint}``")
            end = doc.find("\n* ``", start + 1)
            section = doc[start:end if end > 0 else None]
            if endpoint == "/jobs":  # "plus the engine and probability fields of /verify"
                section += doc[doc.index("``POST /verify``"):]
            for field in fields:
                assert f'"{field.name}"' in section, (endpoint, field.name)


class TestJobsAnswerBeforeBuilding:
    """``POST /jobs`` checks the body and sizes the sweep in the request
    thread, answers 202, and builds the sweep in the run's thread."""

    @pytest.fixture()
    def gate(self, monkeypatch):
        """Blocks the sweep's build (at ``scenarios_to_jobs``) until the
        test opens it (for at most 5 s, so a server that builds before
        answering fails the test instead of hanging it)."""
        import threading

        import repro.farm.scenarios as scenarios

        real = scenarios.scenarios_to_jobs
        building = threading.Event()
        release = threading.Event()
        timed_out = []

        def blocked(*args, **kwargs):
            building.set()
            if not release.wait(timeout=5):
                timed_out.append(True)
                release.set()
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios, "scenarios_to_jobs", blocked)
        yield building, release, timed_out
        release.set()

    def _finish(self, core, run_id):
        run = core.jobs.get(run_id)
        assert run.wait(120)
        return _get(core, f"/jobs/{run_id}")[1]

    def test_202_and_pending_while_the_build_is_blocked(self, core, gate):
        building, release, timed_out = gate
        status, document = _post(
            core, "/jobs", dict(VALID_BODIES["/jobs"], sweep_failures=1)
        )
        assert status == 202
        assert document["total"] == 9
        assert document["state"] == "pending"
        assert building.wait(30)
        status, snapshot = _get(core, f"/jobs/{document['id']}")
        assert status == 200
        assert snapshot["state"] == "pending"
        assert snapshot["total"] == 9 and snapshot["completed"] == 0
        release.set()
        final = self._finish(core, document["id"])
        assert not timed_out
        assert final["state"] == "done"
        assert final["summary"]["satisfied"] == 7
        assert final["summary"]["unsatisfied"] == 2

    def test_probabilistic_total_is_known_before_the_build(self, core, gate):
        building, release, _timed_out = gate
        status, document = _post(
            core, "/jobs",
            dict(VALID_BODIES["/jobs"], prob_threshold=0.9, prob_limit=16),
        )
        assert status == 202
        assert building.wait(30)
        assert _get(core, f"/jobs/{document['id']}")[1]["state"] == "pending"
        release.set()
        final = self._finish(core, document["id"])
        assert final["state"] == "done"
        assert document["total"] == final["total"] == 16

    def test_cancel_while_pending_runs_no_job(self, core, gate):
        building, release, _timed_out = gate
        _status, document = _post(
            core, "/jobs", dict(VALID_BODIES["/jobs"], sweep_failures=1)
        )
        assert building.wait(30)
        from repro.service.core import ServiceRequest

        response = core.handle(ServiceRequest("DELETE", f"/jobs/{document['id']}"))
        assert response.status == 200
        assert json.loads(response.body)["state"] == "pending"
        release.set()
        final = self._finish(core, document["id"])
        assert final["state"] == "cancelled"
        assert final["completed"] == 0
        assert final["items"] == []

    def test_a_build_that_raises_ends_the_run_failed(self, core, monkeypatch):
        import repro.farm.scenarios as scenarios

        def broken(*args, **kwargs):
            raise RuntimeError("variant build exploded")

        monkeypatch.setattr(scenarios, "scenarios_to_jobs", broken)
        status, document = _post(
            core, "/jobs", dict(VALID_BODIES["/jobs"], sweep_failures=1)
        )
        assert status == 202
        final = self._finish(core, document["id"])
        assert final["state"] == "failed"
        assert "variant build exploded" in final["error"]
        assert final["completed"] == 0

    @pytest.mark.parametrize(
        "extra", [{"sweep_failures": 1}, {"prob_threshold": 0.9}], ids=["k1", "prob"]
    )
    def test_a_run_cancelled_after_its_202_stops(self, core, extra):
        """The run's build serializes the baseline and builds no variant,
        so a NORDUnet sweep cancelled at once ends within 2 s of the
        DELETE."""
        import time

        from repro.service.core import ServiceRequest

        core.cache.key_of("nordunet")  # loaded once, as on a running server
        body = dict(network="nordunet", query="<smpls? ip> .* <. smpls ip> 0", **extra)
        status, document = _post(core, "/jobs", body)
        assert status == 202
        start = time.perf_counter()
        response = core.handle(ServiceRequest("DELETE", f"/jobs/{document['id']}"))
        assert response.status == 200
        assert core.jobs.get(document["id"]).wait(2)
        assert time.perf_counter() - start <= 2
        assert _get(core, f"/jobs/{document['id']}")[1]["state"] == "cancelled"

    def test_the_quota_counts_a_pending_run(self, gate):
        from repro.service.core import ServiceCore
        from repro.service.ratelimit import RateLimitConfig, RateLimiter

        building, release, _timed_out = gate
        core = ServiceCore(
            limiter=RateLimiter(RateLimitConfig(active_jobs_per_client=1))
        )
        try:
            body = dict(VALID_BODIES["/jobs"], sweep_failures=1)
            status, first = _post(core, "/jobs", body, client="alice")
            assert status == 202
            assert building.wait(30)
            status, document = _post(core, "/jobs", body, client="alice")
            assert status == 429
            assert "quota" in document["error"]
            assert _post(core, "/jobs", body, client="bob")[0] == 202
            release.set()
            assert core.jobs.get(first["id"]).wait(120)
        finally:
            release.set()
            core.jobs.shutdown(timeout=30)


class TestOneServiceCore:
    """Both transports take the core's own cache and job manager."""

    def test_default_job_manager_uses_the_active_store(self, tmp_path):
        from repro.farm.store import configure_store, reset_store_for_tests
        from repro.service.core import ServiceCore

        store = configure_store(str(tmp_path / "store"))
        try:
            assert ServiceCore().jobs.store is store
        finally:
            configure_store(None)
            reset_store_for_tests()
        assert ServiceCore().jobs.store is None

    def test_server_jobs_are_the_core_jobs(self, server):
        assert server.jobs is server.core.jobs
        assert not hasattr(server._httpd, "cache")
        assert not hasattr(server._httpd, "jobs")

    def test_server_store_reaches_the_core(self, tmp_path):
        from repro.farm.store import configure_store, reset_store_for_tests

        try:
            with VerificationServer(port=0, store=str(tmp_path / "s")) as running:
                assert running.jobs.store is not None
                assert running.jobs.store.root == str(tmp_path / "s")
        finally:
            configure_store(None)
            reset_store_for_tests()
