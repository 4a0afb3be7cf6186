"""One in-process workload run (nordunet-queries or link-audit).

Set-up is everything before the ``READY`` line: interpreter start,
importing the program, building NORDUnet and generating the query
universe. ``run.py`` starts several of these processes with
``--setup-only`` and one without, and times each from spawn to ``READY``.

The last line of standard output is one JSON document with the run's
raw samples; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import common


def _setup():
    from repro.datasets.builtins import load_builtin
    from repro.verification.engine import VerificationEngine  # noqa: F401 — the verify path

    start = time.perf_counter()
    network = load_builtin("nordunet")
    build_s = time.perf_counter() - start
    universe = common.query_universe(network)
    return network, universe, build_s


def _keep_going(walls, seconds: float) -> bool:
    """Runs are whole passes (or sweeps), which keeps every run's query
    mix the same; the last one may end past ``seconds``."""
    return sum(walls) < seconds


def run_queries(network, universe, seed: int, seconds: float, trace_dir):
    """Closed loop, one query at a time, a fresh engine per query as
    ``aalwines verify --query`` builds one."""
    from repro.errors import ReproError
    from repro.verification.engine import VerificationEngine

    import answers
    import tracer

    suite = common.query_suite(universe, seed)
    expected = common.load_expected("nordunet.json")["answers"]
    cpus = sorted(os.sched_getaffinity(0))
    latencies, passes, ops, results = [], [], [], []
    untraced_passes = 1 if trace_dir else 0
    # p90 needs at least 10 samples beyond it.
    while not passes or _keep_going(passes, seconds) or len(latencies) < 100:
        tracing = trace_dir is not None and len(passes) >= untraced_passes
        if tracing:
            tracer.install(trace_dir)
        pass_start = time.perf_counter()
        for index, (text, weight) in enumerate(suite):
            op = f"p{len(passes)}.q{index}"
            # Alternate CPUs: on a shared host each vCPU's speed drifts on
            # its own, and a one-process run left on one vCPU would carry
            # that vCPU's drift whole.
            os.sched_setaffinity(0, {cpus[len(latencies) % len(cpus)]})
            if tracing:
                tracer.set_op(op)
            start = time.perf_counter()
            try:
                result = VerificationEngine(network, weight=weight).verify(text)
            except ReproError as error:
                result = error
            end = time.perf_counter()
            if tracing:
                tracer.set_op(None)
            latencies.append(end - start)
            ops.append((op, start, end, tracing))
            results.append((text, weight, result))
        passes.append(time.perf_counter() - pass_start)

    problems = []
    for text, weight, result in results:
        if isinstance(result, Exception):
            problems.append(f"{text}: error {result}")
            continue
        steps = answers.trace_steps(result.trace) if result.trace is not None else []
        failed = [link.name for link in (result.failure_set or ())]
        problem = answers.answer_problem(
            network, expected.get(text), text, weight, result.status.value,
            result.weight, steps, failed,
        )
        if problem is not None:
            problems.append(f"{text} [{weight or 'dual'}]: {problem}")
    return {
        "latencies": latencies,
        "batches": passes,
        "batch_traced": [i >= untraced_passes for i in range(len(passes))] if trace_dir else [],
        "attempted": len(results),
        "failed": len(problems),
        "problems": problems[:5],
        "timed_s": sum(passes),
        "ops": [(op, start, end) for op, start, end, traced in ops if traced],
        "peak_rss_mb": common.vm_hwm_mb(),
    }


def run_audit(network, seed: int, seconds: float, trace_dir):
    """The CLI's ``--sweep-failures 1 --triage auto --jobs 2`` path,
    in-process: failure_scenarios → scenarios_to_jobs → run_jobs."""
    import repro.farm.pool as pool
    import repro.farm.scenarios as scenarios_module

    import answers
    import tracer

    expected = common.load_expected("link_audit.json")["queries"]
    audit = common.audit_queries(
        {text: entry["triage_ms"] for text, entry in expected.items()}, seed
    )
    text_of = dict(audit)
    config = pool.EngineConfig(triage="auto")
    cpus = sorted(os.sched_getaffinity(0))
    latencies, sweeps, ops = [], [], []
    attempted = 0
    problems = []
    untraced_sweeps = 1 if trace_dir else 0
    while not sweeps or _keep_going(sweeps, seconds):
        tracing = trace_dir is not None and len(sweeps) >= untraced_sweeps
        if tracing:
            tracer.install(trace_dir)
            op = f"s{len(sweeps)}"
            tracer.set_op(op)
        start = time.perf_counter()
        # The single-threaded phase alternates CPUs between sweeps, as
        # run_queries does between queries.
        os.sched_setaffinity(0, {cpus[len(sweeps) % len(cpus)]})
        with tracer.span("scenarios.materialize"):
            scenarios = scenarios_module.failure_scenarios(network, audit, max_failures=1)
        jobs, payloads, prebuilt = scenarios_module.scenarios_to_jobs(scenarios, config)
        os.sched_setaffinity(0, cpus)  # forked pool workers inherit the mask
        with tracer.span("pool.run_jobs"):
            items = pool.run_jobs(jobs, payloads, max_workers=2, prebuilt=prebuilt)
        end = time.perf_counter()
        if tracing:
            tracer.set_op(None)
            ops.append((op, start, end))
        sweeps.append(end - start)

        for scenario, item in zip(scenarios, items):
            attempted += 1
            query_name, tag = scenario.name.split("@", 1)
            wanted = expected[text_of[query_name]]["verdicts"].get(tag)
            if item is None or item.outcome != wanted:
                outcome = None if item is None else (item.error or item.outcome)
                problems.append(f"{scenario.name}: {outcome}, expected {wanted}")
                continue
            latencies.append(item.seconds)
            if item.outcome == "satisfied":
                result = item.result
                problem = answers.replay_problem(
                    scenario.network, scenario.query, answers.trace_steps(result.trace),
                    [link.name for link in (result.failure_set or ())],
                )
                if problem is not None:
                    problems.append(f"{scenario.name}: {problem}")
        del scenarios, jobs, payloads, prebuilt, items

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "latencies": latencies,
        "batches": sweeps,
        "batch_traced": [i >= untraced_sweeps for i in range(len(sweeps))] if trace_dir else [],
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "timed_s": sum(sweeps),
        "ops": ops,
        "peak_rss_mb": max(common.vm_hwm_mb() or 0.0, children),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("nordunet-queries", "link-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    network, universe, build_s = _setup()
    print("READY " + json.dumps({"build_s": build_s}), flush=True)
    if args.setup_only:
        return 0
    if args.workload == "nordunet-queries":
        result = run_queries(network, universe, args.seed, args.seconds, args.trace_dir)
    else:
        result = run_audit(network, args.seed, args.seconds, args.trace_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
