"""Shared pieces of the benchmark: inputs made from a seed, statistics,
host metadata and the checkout-local output directory.

Every input of every workload comes from one *query universe*: the
NORDUnet substitute's mixed suite as ``generate_query_suite`` makes it
for ``UNIVERSE_SEED``. The workload seed picks and orders queries from
it. Expected answers are stored once for the whole universe (see
``answers.py``), so any seed can be checked without re-running a
reference engine inside a timed run.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Seed and size of the universe every workload draws its queries from.
UNIVERSE_SEED = 0
UNIVERSE_COUNT = 400
#: The seed used while the benchmark was written and tuned.
DEFAULT_SEED = 0
#: A seed never used while tuning; later claims are re-checked on it.
HELD_OUT_SEED = 7919

SHAPES = ("ip", "smpls", "group", "waypoint", "transparency")
FAILURE_BOUNDS = (0, 1, 2)
#: The weighted engine of the paper's "Failures" column.
WEIGHT = "failures"

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def out_dir(root: str, *parts: str) -> str:
    """A directory for run outputs under ``.bench_build`` of the checkout."""
    path = os.path.join(root, ".bench_build", "perfbench", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def child_env(root: str) -> Dict[str, str]:
    """Environment for the benchmark's child processes: the program from
    the checkout's ``src`` and temporary files inside the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = out_dir(root, "tmp")
    return env


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def query_universe(network) -> List[Tuple[str, str, int]]:
    """Distinct (text, kind, k) of the universe suite, in suite order."""
    from repro.datasets.queries import generate_query_suite

    seen = set()
    universe = []
    for query in generate_query_suite(
        network, count=UNIVERSE_COUNT, seed=UNIVERSE_SEED
    ):
        if query.text not in seen:
            seen.add(query.text)
            universe.append((query.text, query.kind, query.max_failures))
    return universe


def _strata(universe) -> Dict[Tuple[str, int], List[str]]:
    strata: Dict[Tuple[str, int], List[str]] = {}
    for text, kind, k in universe:
        strata.setdefault((kind, k), []).append(text)
    return strata


def _weight_at(position: int) -> Optional[str]:
    """Every fourth query runs on the weighted engine, the rest on dual."""
    return WEIGHT if position % 4 == 3 else None


def query_suite(universe, seed: int) -> List[Tuple[str, Optional[str]]]:
    """The nordunet-queries suite: two queries of every shape × k ∈
    {0,1,2} plus the unconstrained query, in seeded order, as (text,
    weight) operations. The fixed composition keeps the cost of a pass
    nearly the same for every seed."""
    rng = random.Random(seed)
    strata = _strata(universe)
    texts = []
    for shape in SHAPES:
        for k in FAILURE_BOUNDS:
            texts.extend(rng.sample(strata[(shape, k)], 2))
    texts.extend(strata[("unconstrained", FAILURE_BOUNDS[0])][:1])
    rng.shuffle(texts)
    return [(text, _weight_at(i)) for i, text in enumerate(texts)]


class HttpPlan:
    """The http-mixed request stream for one seed.

    Requests come in blocks of ``BLOCK``: ``FRESH_PER_BLOCK`` fresh
    queries (never sent before in this run, so the server compiles
    them) at seeded positions, the rest drawn from the hot set that
    set-up warms. 2 of 8 fresh puts p50 inside the hot mode and p90
    inside the fresh mode.

    The hot set is fixed: the universe's first query of every shape × k.
    The seed orders the requests and picks the fresh queries, one of
    every shape × k per round, so each seed's mix has the same make-up.
    """

    BLOCK = 8
    FRESH_PER_BLOCK = 2

    def __init__(self, universe, seed: int) -> None:
        rng = random.Random(seed)
        strata = _strata(universe)
        keys = [(shape, k) for shape in SHAPES for k in FAILURE_BOUNDS]
        hot_texts = [strata[key][0] for key in keys]
        self.hot = [(text, _weight_at(i)) for i, text in enumerate(hot_texts)]
        pools = {key: rng.sample(strata[key][1:], len(strata[key]) - 1) for key in keys}
        fresh: List[str] = []
        while any(pools.values()):
            order = [key for key in keys if pools[key]]
            rng.shuffle(order)
            fresh.extend(pools[key].pop() for key in order)
        self.fresh = [(text, _weight_at(i)) for i, text in enumerate(fresh)]
        self._rng = rng

    def requests(self) -> Iterator[Tuple[str, Optional[str], bool]]:
        """(text, weight, is_fresh) forever, until the fresh pool runs out."""
        fresh = iter(self.fresh)
        while True:
            slots = set(self._rng.sample(range(self.BLOCK), self.FRESH_PER_BLOCK))
            for slot in range(self.BLOCK):
                if slot in slots:
                    op = next(fresh, None)
                    if op is None:
                        return
                    yield op[0], op[1], True
                else:
                    text, weight = self._rng.choice(self.hot)
                    yield text, weight, False


#: Audit queries per sweep: one from each of this many bins of the
#: eligible queries sorted by triage cost. Each query contributes the
#: same number of jobs, so with 15 the p50 and p90 of the per-job
#: latency fall mid-way through the jobs of the 8th and 14th query, each
#: from a narrow bin, whatever the seed.
AUDIT_BINS = 15


def audit_queries(eligible: Dict[str, float], seed: int) -> List[Tuple[str, str]]:
    """The link-audit queries, named ``a0`` … ``a14``, from the eligible
    (pinned text → triage cost) map: one seeded pick per cost bin."""
    rng = random.Random(seed)
    ranked = sorted(eligible, key=lambda text: (eligible[text], text))
    bins = [ranked[i * len(ranked) // AUDIT_BINS:(i + 1) * len(ranked) // AUDIT_BINS]
            for i in range(AUDIT_BINS)]
    return [(f"a{i}", rng.choice(queries)) for i, queries in enumerate(bins)]


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics and host metadata
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def read_cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:9]]


def host_metadata(cpu_before: Optional[List[int]]) -> Dict[str, object]:
    """Load average, steal share since ``cpu_before`` and processor count."""
    meta: Dict[str, object] = {"nproc": os.cpu_count()}
    try:
        meta["loadavg_1m"] = os.getloadavg()[0]
    except OSError:
        pass
    cpu_after = read_cpu_times()
    if cpu_before is not None and cpu_after is not None:
        delta = [after - before for after, before in zip(cpu_after, cpu_before)]
        total = sum(delta)
        # Fields: user nice system idle iowait irq softirq steal.
        meta["steal_share"] = round(delta[7] / total, 4) if total else 0.0
    return meta


def vm_hwm_mb(pid: object = "self") -> Optional[float]:
    """Peak resident set (``VmHWM``) of a process in MB, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None
