"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload nordunet-queries --seed 0 --seconds 30 --trace 0

Prints each metric with its unit and sample count, one ``perfbench
detail`` JSON line (samples, host metadata, drain timeouts, the first
wrong answers), and as the last line the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off. ``--trace 1`` is a separate traced run that reports the per-layer
metrics: the first part of it runs untraced, for ``trace.overhead_share``.
Exits non-zero without a result when the program's source is missing or
a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

WORKLOADS = ("nordunet-queries", "link-audit", "http-mixed")
#: Fresh-process set-ups per in-process run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("sweep_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("correct_share", "share"),
    ("peak_rss_mb", "MB"),
)


def _spawn_child(root: str, command, workload: str, timeout: float, cpu=None):
    """Run one child, pinned to ``cpu`` when given; (seconds from spawn to
    READY, build_s, last output line)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=root, env=common.child_env(root), stdout=subprocess.PIPE, text=True,
        preexec_fn=pin,
    )
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - started
        if not line.startswith("READY "):
            raise RuntimeError(f"{workload} set-up failed: {line.strip()!r}")
        output = process.stdout.read()
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {process.returncode}")
    last = output.strip().splitlines()[-1] if output.strip() else None
    return setup_s, json.loads(line[len("READY "):])["build_s"], last


def _run_in_process(root: str, workload: str, seed: int, seconds: float, trace_dir) -> dict:
    """Time SETUP_SAMPLES fresh-process set-ups, spread before and after
    the timed region and alternated over the CPUs so that one host
    slowdown cannot set them all; the middle process goes on to run the
    workload (unpinned: its pool workers need every CPU)."""
    command = [
        sys.executable, os.path.join(common.HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", trace_dir]
    cpus = sorted(os.sched_getaffinity(0))
    setups, builds = [], []
    raw = None
    for sample in range(SETUP_SAMPLES):
        workload_run = sample == SETUP_SAMPLES // 2
        setup_s, build_s, last = _spawn_child(
            root, command if workload_run else command + ["--setup-only"], workload,
            seconds + 150, None if workload_run else cpus[sample % len(cpus)],
        )
        setups.append(setup_s)
        builds.append(build_s)
        if workload_run:
            raw = json.loads(last)
    raw["setup_samples"] = setups
    raw["build_samples"] = builds
    return raw


def end_to_end(raw: dict) -> dict:
    latencies = raw["latencies"]
    return {
        "setup_s": statistics.median(raw["setup_samples"]),
        "latency_p50_s": common.percentile(latencies, 0.5),
        "latency_p90_s": common.percentile(latencies, 0.9),
        "sweep_s": statistics.median(raw["batches"]),
        "throughput_ops_s": raw["attempted"] / raw["timed_s"],
        "correct_share": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict, trace_dir: str) -> dict:
    import tracer

    spans = tracer.load_spans(trace_dir)
    metrics = tracer.analyze(spans, [tuple(op) for op in raw["ops"]])
    # Hot http-mixed requests alone: the memo should leave reduce and
    # saturate outweighing compile there.
    hot = tracer.analyze(spans, [tuple(op) for op in raw["hot_ops"]]) if raw.get("hot_ops") else {}
    metrics["http.hot.compile.share"] = hot.get("compiler.compile.share", 0.0)
    metrics["http.hot.reduce_saturate.share"] = (
        hot.get("reductions.reduce.share", 0.0) + hot.get("solver.saturate.share", 0.0)
    )
    if "latencies_traced" in raw:  # http-mixed: per-request medians
        traced, untraced = raw["latencies_traced"], raw["latencies_untraced"]
    else:  # whole passes or sweeps
        flags = raw["batch_traced"]
        traced = [wall for wall, on in zip(raw["batches"], flags) if on]
        untraced = [wall for wall, on in zip(raw["batches"], flags) if not on]
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["datasets.build_s"] = statistics.median(raw["build_samples"])
    metrics["service.drain_timeouts"] = raw.get("drain_timeouts", 0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    cpu_before = common.read_cpu_times()
    trace_dir = None
    if args.trace:
        trace_dir = common.out_dir(root, f"trace-{os.getpid()}")
    try:
        if args.workload == "http-mixed":
            import http_mixed

            raw = http_mixed.run(root, args.seed, args.seconds, trace_dir)
        else:
            raw = _run_in_process(root, args.workload, args.seed, args.seconds, trace_dir)
        if trace_dir is not None:
            metrics = per_layer(raw, trace_dir)
        else:
            metrics = end_to_end(raw)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as error:
        print(f"perfbench: {args.workload} failed: {error}", file=sys.stderr)
        return 1
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)

    samples = {
        "latency": len(raw["latencies"]),
        "batches": len(raw["batches"]),
        "setup": len(raw["setup_samples"]),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "p90_tail_samples": samples["latency"] - math.ceil(0.9 * samples["latency"]),
        "setup_samples": raw["setup_samples"],
        "drain_timeouts": raw.get("drain_timeouts", 0),
        "problems": raw["problems"],
        "host": common.host_metadata(cpu_before),
    }
    count_of = {
        "latency_p50_s": samples["latency"], "latency_p90_s": samples["latency"],
        "sweep_s": samples["batches"], "setup_s": samples["setup"],
        "throughput_ops_s": raw["attempted"], "correct_share": raw["attempted"],
    }
    if args.trace:
        import tracer

        units = {name: tracer.UNITS.get(name, "share") for name in metrics}
        count_of = {name: len(raw["ops"]) for name in metrics}
    else:
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<32} {value:14.6f} {units[name]:<6} n={count_of.get(name, 1)}")
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
