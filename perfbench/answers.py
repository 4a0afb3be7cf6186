"""Expected answers: how they are made, and how a run's answers are checked.

The expected answers come from configurations other than the timed
ones, computed once and stored under ``expected/``:

* ``nordunet.json`` — for every query of the universe, the verdict of
  the Moped/BDD baseline (``moped_engine``) and the minimal failure
  count of the symbolic reference core (``core="tuple"``, weighted).
  nordunet-queries and http-mixed both draw their queries from this
  universe.
* ``link_audit.json`` — for the audit queries, the verdict on the intact
  network and on each single-link failure variant, from the dual engine
  with triage off. Audit queries are the universe's ip and waypoint
  queries (failure bound pinned to 0) whose every variant the triage
  tier decides, so the timed triage-on sweep never compiles. Each also
  records ``triage_ms``, its median triage time per variant, by which
  ``common.audit_queries`` bins them.

Regenerate (about seven minutes on two cores) from the repository root::

    PYTHONPATH=src python3 perfbench/answers.py [nordunet] [link-audit]
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import common

#: Audit queries kept in the expected answers, per kind.
AUDIT_QUERIES = {"ip": 24, "waypoint": 16}


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


def trace_from_steps(network, steps: Iterable[Tuple[str, Sequence[str]]]):
    """Rebuild a trace on ``network`` from (link name, header label texts)."""
    from repro.model.header import Header
    from repro.model.trace import Trace, TraceStep

    topology = network.topology
    labels = network.labels
    return Trace(
        TraceStep(topology.link(link), Header([labels.require(text) for text in header]))
        for link, header in steps
    )


def trace_steps(trace) -> List[Tuple[str, List[str]]]:
    """The (link name, header label texts) steps of a trace."""
    return [(step.link.name, [str(label) for label in step.header]) for step in trace]


def replay_problem(network, query_text: str, steps, failed_names: Sequence[str]) -> Optional[str]:
    """Why a SATISFIED witness does not prove the query, or None when it
    does: the trace must be valid under its failure set
    (``repro.model.trace.check_trace``), use at most k failures, and match
    the query's initial header, path and final header."""
    from repro.model.trace import check_trace
    from repro.query.nfa import label_nfa, link_nfa
    from repro.query.parser import parse_query

    try:
        query = parse_query(query_text)
        trace = trace_from_steps(network, steps)
        failed = frozenset(network.topology.link(name) for name in failed_names)
    except Exception as error:  # a witness naming unknown links or labels
        return f"witness does not fit the network: {error}"
    if len(failed) > query.max_failures:
        return f"witness uses {len(failed)} failures > k={query.max_failures}"
    if not check_trace(network, trace, failed):
        return "witness is not a valid trace under its failure set"
    if not label_nfa(query.initial_header, network).accepts(trace.first_header.labels):
        return "witness initial header does not match the query"
    if not link_nfa(query.path, network).accepts(trace.links):
        return "witness path does not match the query"
    if not label_nfa(query.final_header, network).accepts(trace.last_header.labels):
        return "witness final header does not match the query"
    return None


def answer_problem(
    network,
    expected: Optional[dict],
    query_text: str,
    weight: Optional[str],
    status: str,
    answer_weight: Optional[Sequence[int]],
    steps,
    failed_names: Sequence[str],
) -> Optional[str]:
    """Why one query answer is wrong, or None when it matches.

    ``expected`` is the query's entry of ``nordunet.json``; ``weight`` is
    the engine's weight vector (None for dual).
    """
    if expected is None:
        return "no expected answer stored for this query"
    if status != expected["verdict"]:
        return f"verdict {status}, expected {expected['verdict']}"
    if weight is not None and status == "satisfied":
        wanted = expected["min_failures"]
        if answer_weight is None or list(answer_weight) != wanted:
            return f"weight {answer_weight}, expected minimum {wanted}"
    if status == "satisfied":
        return replay_problem(network, query_text, steps, failed_names)
    return None


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

_NETWORK = None
_VARIANTS: List[Tuple[str, object]] = []


def _reference_answer(text: str) -> Tuple[str, dict]:
    from repro.verification.engine import VerificationEngine, moped_engine

    verdict = moped_engine(_NETWORK).verify(text)
    weighted = VerificationEngine(_NETWORK, core="tuple", weight=common.WEIGHT).verify(text)
    weight = list(weighted.weight) if weighted.weight is not None else None
    return text, {
        "verdict": verdict.status.value,
        "weighted_verdict": weighted.status.value,
        "min_failures": weight,
    }


def _triage_variant(args) -> Tuple[str, Dict[str, str]]:
    from repro.analysis.triage import run_triage

    index, texts = args
    tag, variant = _VARIANTS[index]
    return tag, {text: run_triage(variant, text).verdict.value for text in texts}


def _reference_variant(args) -> Tuple[str, Dict[str, str]]:
    from repro.verification.engine import VerificationEngine

    index, texts = args
    tag, variant = _VARIANTS[index]
    engine = VerificationEngine(variant, triage="off")
    return tag, {text: engine.verify(text).status.value for text in texts}


def _variants(network) -> List[Tuple[str, object]]:
    """The intact network and every single-link failure, tagged like
    ``failure_scenarios`` tags them."""
    from repro.model.srlg import degrade_network

    variants = [("baseline", network)]
    for link in network.topology.links:
        tag = f"fail({link.name})"
        variants.append((tag, degrade_network(network, {link}, name=f"{network.name}@{tag}")))
    return variants


def _triage_ms(text: str) -> float:
    from repro.analysis.triage import run_triage

    times = []
    for _tag, variant in _VARIANTS:
        started = time.perf_counter()
        run_triage(variant, text)
        times.append(time.perf_counter() - started)
    return round(1000 * sorted(times)[len(times) // 2], 3)


def generate(parts: Sequence[str]) -> None:
    global _NETWORK
    from repro.datasets.builtins import load_builtin

    _NETWORK = load_builtin("nordunet")
    universe = common.query_universe(_NETWORK)
    if "nordunet" in parts:
        _generate_nordunet(universe)
    if "link-audit" in parts:
        _generate_link_audit(universe)


def _generate_nordunet(universe) -> None:
    context = multiprocessing.get_context("fork")
    started = time.perf_counter()
    with context.Pool(2) as pool:
        answers = dict(pool.imap(_reference_answer, [text for text, _, _ in universe]))
    for text, answer in answers.items():
        if answer["verdict"] != answer["weighted_verdict"]:
            print(f"warning: Moped and tuple-weighted disagree on {text}", file=sys.stderr)
    print(f"nordunet: {len(answers)} queries in {time.perf_counter() - started:.0f}s")
    _write("nordunet.json", {
        "network": "nordunet",
        "universe": {"seed": common.UNIVERSE_SEED, "count": common.UNIVERSE_COUNT},
        "reference": {"verdict": "moped_engine", "min_failures": "core=tuple, weight=failures"},
        "answers": answers,
    })


def _generate_link_audit(universe) -> None:
    global _VARIANTS
    context = multiprocessing.get_context("fork")
    candidates: Dict[str, str] = {}
    for text, kind, _k in universe:
        if kind in AUDIT_QUERIES:
            # A sweep pins k to 0: the failure is the variant.
            candidates.setdefault(re.sub(r"\s\d+\s*$", " 0", text), kind)
    _VARIANTS = _variants(_NETWORK)
    started = time.perf_counter()
    texts = list(candidates)
    with context.Pool(2) as pool:
        triaged = dict(pool.imap(_triage_variant, [(i, texts) for i in range(len(_VARIANTS))]))
    decided = [
        text for text in texts
        if all(triaged[tag][text] != "inconclusive" for tag, _ in _VARIANTS)
    ]
    chosen: List[str] = []
    for kind, wanted in AUDIT_QUERIES.items():
        chosen.extend([text for text in decided if candidates[text] == kind][:wanted])
    with context.Pool(2) as pool:
        reference = dict(pool.imap(_reference_variant, [(i, chosen) for i in range(len(_VARIANTS))]))
    mapping = {"proven_yes": "satisfied", "proven_no": "unsatisfied"}
    for tag, _ in _VARIANTS:
        for text in chosen:
            if mapping[triaged[tag][text]] != reference[tag][text]:
                print(f"warning: triage and reference disagree on {text} @ {tag}", file=sys.stderr)
    # Timed serially, one query at a time, so the costs compare.
    costs = {text: _triage_ms(text) for text in chosen}
    print(
        f"link_audit: {len(decided)}/{len(texts)} candidates fully triaged, "
        f"{len(chosen)} kept, in {time.perf_counter() - started:.0f}s"
    )
    _write("link_audit.json", {
        "network": "nordunet",
        "reference": "dual engine, triage off, k pinned to 0 on each variant",
        "queries": {
            text: {
                "kind": candidates[text],
                "triage_ms": costs[text],
                "verdicts": {tag: reference[tag][text] for tag, _ in _VARIANTS},
            }
            for text in chosen
        },
    })


def _write(name: str, document: dict) -> None:
    os.makedirs(common.EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(common.EXPECTED_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    generate(sys.argv[1:] or ("nordunet", "link-audit"))
