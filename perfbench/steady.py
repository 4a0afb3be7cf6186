"""Steadiness report: run a workload on several seeds and summarize.

    python3 perfbench/steady.py --workload http-mixed --seeds 1-10 [--out FILE]

For each end-to-end metric: median, quartiles (``statistics.quantiles``,
n=4), the spread (q3 - q1) / median against the metric's bound in
``BENCHMARK.json``, and the sample count. For each run: the host's load
average, steal share and processor count, which tell a noisy run apart
from a regression. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="also write the report as JSON")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            command = [
                sys.executable, os.path.join(common.HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith("perfbench detail "))[17:])
            runs.append({"seed": seed, "result": result, "detail": detail})
            host = detail["host"]
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} load={host.get('loadavg_1m', 0):.2f} "
                f"steal={host.get('steal_share', 0):.4f} nproc={host['nproc']}",
                flush=True,
            )
        summary = {}
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, median, q3 = common.quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "runs": len(values),
            }
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            print(
                f"  {name:<18} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
                f"spread {spread:6.3f} / bound {bound:.2f}  n={len(values)}  {flag}"
            )
        report[workload] = {"metrics": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
