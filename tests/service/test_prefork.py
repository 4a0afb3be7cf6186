"""End-to-end tests of ``aalwines serve``: pre-fork workers sharing a
listening socket and an artifact store.

One real service (2 workers) is booted as a subprocess per module; the
tests drive it over plain HTTP, the way parallel clients would: burst
of concurrent verifies, a job submitted to one worker and observed /
cancelled through whichever worker answers the poll.
"""

import concurrent.futures
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork serving needs os.fork"
)

READY = re.compile(r"ready on http://([\d.]+):(\d+)/ workers=(\d+)")


def _service_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("AALWINES_STORE", None)
    return env


def _kill_group(process):
    """SIGKILL whatever is left of a ``start_new_session`` process tree."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)
    process.stdout.close()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("store"))
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--workers",
            "2",
            "--store",
            store,
            "--port",
            "0",
        ],
        env=_service_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = READY.search(line)
        assert match, f"no ready line, got {line!r}"
        host, port, workers = match.group(1), int(match.group(2)), match.group(3)
        assert workers == "2"
        yield host, port
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=20)


def request(service, method, path, body=None):
    host, port = service
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


VERIFY = {"network": "example", "query": "<ip> [.#v0] .* [v3#.] <ip> 0"}


class TestMultiWorker:
    def test_concurrent_verifies_across_workers(self, service):
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda _: request(service, "POST", "/verify", VERIFY),
                    range(12),
                )
            )
        assert all(status == 200 for status, _ in results)
        assert all(doc["status"] == "satisfied" for _, doc in results)

    def test_job_visible_from_every_worker(self, service):
        status, document = request(
            service,
            "POST",
            "/jobs",
            {"network": "example", "query": VERIFY["query"], "sweep_failures": 1},
        )
        assert status == 202
        run_id = document["id"]
        # Poll repeatedly: the kernel load-balances the connections, so
        # the polls land on both workers — each must resolve the id.
        deadline = time.time() + 120
        state = None
        while time.time() < deadline:
            status, snapshot = request(service, "GET", f"/jobs/{run_id}")
            assert status == 200, snapshot
            state = snapshot["state"]
            if state in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        assert state == "done"
        # The listing merges runs from all workers.
        status, listing = request(service, "GET", "/jobs")
        assert status == 200
        assert run_id in [entry["id"] for entry in listing["jobs"]]

    def test_cancel_through_any_worker(self, service):
        status, document = request(
            service,
            "POST",
            "/jobs",
            {"network": "example", "query": VERIFY["query"], "sweep_failures": 2},
        )
        assert status == 202
        run_id = document["id"]
        # DELETE may reach either worker; a non-owner leaves a marker
        # in the store which the owner honours between jobs.
        status, document = request(service, "DELETE", f"/jobs/{run_id}")
        assert status == 200
        assert document["id"] == run_id
        deadline = time.time() + 120
        while time.time() < deadline:
            _status, snapshot = request(service, "GET", f"/jobs/{run_id}")
            if snapshot["state"] in ("done", "cancelled", "failed"):
                break
            time.sleep(0.2)
        assert snapshot["state"] in ("done", "cancelled")

    def test_metrics_exposed_by_workers(self, service):
        host, port = service
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert "aalwines_http_requests_total" in text


class TestDrain:
    """SIGTERM drains every worker, including one that lost the race for
    the last connection on the shared listening socket."""

    def test_sigterm_releases_a_worker_blocked_in_accept(self):
        """A worker that lost the race for the last connection sits in a
        blocking ``accept()`` on the shared socket; the SIGTERM handler
        must release it so the worker can exit."""
        script = textwrap.dedent(
            """
            import signal
            from repro.server import VerificationServer
            from repro.service.prefork import _shutdown_async, make_listening_socket

            sock = make_listening_socket("127.0.0.1", 0)
            server = VerificationServer(
                "127.0.0.1", sock.getsockname()[1], observe=False, listen_socket=sock
            )
            signal.signal(signal.SIGTERM, lambda *_: _shutdown_async(server))
            print("accepting", flush=True)
            server._httpd._handle_request_noblock()  # nothing pending
            print("released", flush=True)
            """
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            env=_service_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            assert process.stdout.readline().strip() == "accepting"
            time.sleep(0.2)  # let it block in accept()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0
            assert process.stdout.read().strip() == "released"
        finally:
            _kill_group(process)

    def test_sigterm_drains_two_workers(self, tmp_path):
        """After a burst of requests one worker often sits blocked in
        ``accept()`` behind the one that won the last connection; SIGTERM
        must still bring the whole process tree down promptly."""
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--workers",
                "2",
                "--store",
                str(tmp_path / "store"),
                "--port",
                "0",
            ],
            env=_service_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            match = READY.search(process.stdout.readline())
            assert match, "no ready line"
            service = (match.group(1), int(match.group(2)))
            # Slow NORDUnet compiles beside instant answers on two
            # connections: a worker busy in a request thread is slow to
            # call accept() after poll() woke it, so its sibling often
            # takes the connection first and the loser blocks.
            queries = ("<ip> .* <ip> 1", "<smpls ip> .* <ip> 0", "<ip> .* <mpls ip> 1")
            calls = [
                ("POST", "/verify", {"network": "nordunet", "query": query})
                for query in queries
            ] + [("GET", "/networks", None)] * 3
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(lambda call: request(service, *call), calls * 2))
            assert all(status == 200 for status, _ in results)
            process.send_signal(signal.SIGTERM)
            # The supervisor exits only after reaping every worker, so
            # its exit means the whole tree is gone.
            process.wait(timeout=10)
            with pytest.raises(ProcessLookupError):
                os.killpg(process.pid, 0)
        finally:
            _kill_group(process)
