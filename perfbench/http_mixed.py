"""http-mixed: ``aalwines serve --workers 2 --store DIR`` as a subprocess,
driven by a closed loop of two client connections sending ``POST
/verify`` on nordunet (see ``common.HttpPlan`` for the request mix).

Teardown is bounded: SIGTERM to the server, ``DRAIN_S`` to drain, then
SIGKILL to its process group. A drain that times out is counted, not
hidden: the pre-fork workers share one blocking listening socket, and a
worker that lost the race for a connection can stay blocked in
``accept()`` through SIGTERM (a known program defect).
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

import common

WORKERS = 2
CONNECTIONS = 2
#: Rounds over the hot set during set-up; each hot query reaches both
#: workers' memos (or the store) with high probability.
WARM_ROUNDS = 6
DRAIN_S = 3.0
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
_PR_SET_CHILD_SUBREAPER = 36


def _post(port: int, text: str, weight: Optional[str], request_id: Optional[str]) -> Tuple[Optional[int], bytes]:
    document = {"network": "nordunet", "query": text}
    if weight is not None:
        document["weight"] = weight
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", "/verify", body=json.dumps(document).encode(), headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        return None, str(error).encode()
    finally:
        connection.close()


def _closed_loop(port: int, next_request, deadline: float) -> List[list]:
    """CONNECTIONS client threads, each sending its next request when
    the previous reply arrived, until ``deadline`` or the stream ends.
    ``next_request()`` runs under a lock and returns (text, weight,
    fresh, traced) or None. Records are [index, text, weight, fresh,
    start, end, status, body, traced]."""
    records: List[list] = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                request = next_request()
                if request is None:
                    return
                index = len(records)
                record = [index, *request[:3], 0.0, 0.0, None, b"", request[3]]
                records.append(record)
            request_id = f"r{index}" if record[8] else None
            record[4] = time.perf_counter()
            record[6], record[7] = _post(port, record[1], record[2], request_id)
            record[5] = time.perf_counter()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()) + REQUEST_TIMEOUT_S + 5)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client threads did not finish")
    return records


def _children(pid: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _wait_ready(process, path: str, deadline: float) -> int:
    while time.perf_counter() < deadline:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if "service ready on http://" in line:
                    return int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
        if process.poll() is not None:
            raise RuntimeError(f"server exited with {process.returncode} before it was ready")
        time.sleep(0.002)
    raise RuntimeError("server did not print its ready line")


def _teardown(process) -> int:
    """Stop the server tree; 1 when its SIGTERM drain timed out."""
    timed_out = 0
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=DRAIN_S)
        except subprocess.TimeoutExpired:
            timed_out = 1
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    # Workers orphaned by the kill are re-parented to this process (a
    # child subreaper); reap every one of them.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    return timed_out


def run(root: str, seed: int, seconds: float, trace_dir: Optional[str]) -> dict:
    from repro.datasets.builtins import load_builtin

    import answers

    build_start = time.perf_counter()
    network = load_builtin("nordunet")
    build_s = time.perf_counter() - build_start
    universe = common.query_universe(network)
    plan = common.HttpPlan(universe, seed)
    expected = common.load_expected("nordunet.json")["answers"]
    work = common.out_dir(root, f"http-{os.getpid()}")
    ready_path = os.path.join(work, "server.out")
    command = [sys.executable, os.path.join(common.HERE, "serve.py")]
    if trace_dir is not None:
        command += ["--trace-dir", trace_dir]
    command += [
        "--host", "127.0.0.1", "--port", "0", "--workers", str(WORKERS),
        "--store", os.path.join(work, "store"),
    ]
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    started = time.perf_counter()
    with open(ready_path, "w") as out, open(os.path.join(work, "server.err"), "w") as err:
        process = subprocess.Popen(
            command, cwd=root, env=common.child_env(root), stdout=out, stderr=err,
            start_new_session=True,
        )
    drain_timeouts = 0
    try:
        port = _wait_ready(process, ready_path, started + READY_TIMEOUT_S)
        for _round in range(WARM_ROUNDS):
            warm = iter(plan.hot)

            def next_warm():
                op = next(warm, None)
                return None if op is None else (op[0], op[1], False, False)

            for record in _closed_loop(port, next_warm, time.perf_counter() + READY_TIMEOUT_S):
                if record[6] != 200:
                    raise RuntimeError(f"warm-up request failed: {record[6]} {record[7][:200]!r}")
        setup_s = time.perf_counter() - started

        stream = plan.requests()
        loop_start = time.perf_counter()
        traced_from = loop_start + seconds / 3 if trace_dir is not None else float("inf")

        def next_request():
            op = next(stream, None)
            return None if op is None else (*op, time.perf_counter() >= traced_from)

        records = _closed_loop(port, next_request, loop_start + seconds)
        timed_s = max(record[5] for record in records) - loop_start
        peak_rss = max((common.vm_hwm_mb(pid) or 0.0) for pid in _children(process.pid))
    finally:
        drain_timeouts = _teardown(process)
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    for _index, text, weight, _fresh, _start, _end, status, body, _traced in records:
        if status != 200:
            problems.append(f"{text}: HTTP {status} {body[:200]!r}")
            continue
        try:
            reply = json.loads(body)
        except ValueError:
            problems.append(f"{text}: reply is not JSON {body[:200]!r}")
            continue
        steps = [(step["link"], step["header"]) for step in reply.get("trace", ())]
        problem = answers.answer_problem(
            network, expected.get(text), text, weight, reply["status"],
            reply.get("weight"), steps, reply.get("failure_set", ()),
        )
        if problem is not None:
            problems.append(f"{text} [{weight or 'dual'}]: {problem}")

    block = common.HttpPlan.BLOCK
    blocks = [
        max(r[5] for r in records[i:i + block]) - min(r[4] for r in records[i:i + block])
        for i in range(0, len(records) - block + 1, block)
    ]
    traced = [r for r in records if r[8]]
    return {
        "latencies": [r[5] - r[4] for r in records],
        "latencies_untraced": [r[5] - r[4] for r in records if not r[8]],
        "latencies_traced": [r[5] - r[4] for r in traced],
        "batches": blocks,
        "attempted": len(records),
        "failed": len(problems),
        "problems": problems[:5],
        "timed_s": timed_s,
        "ops": [(f"r{r[0]}", r[4], r[5]) for r in traced],
        "hot_ops": [(f"r{r[0]}", r[4], r[5]) for r in traced if not r[3]],
        "peak_rss_mb": peak_rss,
        "setup_samples": [setup_s],
        "build_samples": [build_s],
        "drain_timeouts": drain_timeouts,
    }
