"""What-if scenario generation: one network → a sweep of farm jobs.

The paper's operators ask families of questions, not single queries:
"does the policy still hold if any one link fails?", "under every pair
of failures?", "for each of these 6,000 queries?". This module turns
those families into explicit, independent :class:`Scenario`s —

* :func:`failure_scenarios` — every ≤ k link-failure combination: each
  combination is baked into a degraded network (the 𝓐 operator of
  §2.4 partially evaluated, via
  :func:`repro.model.srlg.degrade_network`) and the query's failure
  bound is pinned to 0, answering the *deterministic* what-if question
  "given exactly these links are down, does a matching trace exist?";
* :func:`link_audit_scenarios` — the ``k = 1`` survivability audit:
  one scenario per link, the sweep NetKAT-style tools run per
  maintenance window;
* :func:`suite_scenarios` — a query-file suite against the intact
  network (the §4.2 operator workload).

Scenarios sharing a failure combination share one degraded network
object, so :func:`scenarios_to_jobs` serializes each distinct variant
once and hands the built object on to the run with its key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import FarmError
from repro.model.network import MplsNetwork
from repro.model.srlg import degrade_network
from repro.query.ast import Query
from repro.query.parser import named_queries, parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.analysis.diagnostics import Diagnostic
    from repro.prob.enumerate import FailureScenario

#: Queries enter as one text, a list of texts, or (name, text) pairs.
QueriesArg = Union[str, Iterable[Union[str, Tuple[str, str]]]]


@dataclass(frozen=True)
class Scenario:
    """One independent what-if instance: a query on a network variant."""

    name: str
    network: MplsNetwork
    query: str
    #: Links assumed failed in this variant (empty for the baseline).
    failed_links: Tuple[str, ...] = ()
    #: Pre-flight lint findings for the variant (see :func:`analyze`);
    #: populated only when the sweep was built with ``preflight=True``.
    diagnostics: Tuple["Diagnostic", ...] = ()

    def __repr__(self) -> str:
        failed = ",".join(self.failed_links) or "-"
        return f"Scenario({self.name!r}, failed={failed})"


#: Cross-call preflight memo: (rule-set hash, variant content hash) →
#: network-level findings. Degraded variants are rebuilt per sweep, so
#: an id()-keyed memo re-lints content-identical networks on every call;
#: keying by content (and by the registered rule set, so registering or
#: unregistering a rule invalidates naturally) makes repeated sweeps
#: over the same topology lint-free.
_NETWORK_LINT_MEMO: Dict[Tuple[str, str], Tuple["Diagnostic", ...]] = {}

#: (rule-set hash, variant content hash, query text) → DP007 findings.
#: Keyed by the query *text* — scenario names vary per sweep and must
#: not break the memo.
_QUERY_LINT_MEMO: Dict[Tuple[str, str, str], Tuple["Diagnostic", ...]] = {}

#: Memo size caps; oldest entries are evicted first (insertion order).
_MEMO_CAP = 256


def _memo_put(memo: Dict, key: object, value: object) -> None:
    if len(memo) >= _MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value


def clear_preflight_memo() -> None:
    """Drop the cross-call preflight memos (test isolation hook)."""
    _NETWORK_LINT_MEMO.clear()
    _QUERY_LINT_MEMO.clear()


def preflight_scenarios(scenarios: List[Scenario]) -> List[Scenario]:
    """Lint every distinct network variant and attach the findings.

    Scenarios sharing a variant (the common case: one degraded network
    × many queries) are linted once — the lint cost of a sweep is per
    *variant*, not per job — and the results are memoized across calls
    by variant *content*, so re-running a sweep (or sweeping overlapping
    link sets) never re-lints a network whose diagnostics cannot have
    changed. Failure combinations are already baked into the variants,
    so each is linted with an empty assumed-failure set. Each scenario
    additionally gets the query-aware findings (DP007) for its own
    query, memoized per (variant, query text).
    """
    from repro import obs
    from repro.analysis import LintConfig, analyze, rule_codes
    from repro.farm.store import hash_text
    from repro.io.json_format import network_to_json

    ruleset = hash_text(",".join(rule_codes()))
    fingerprint_of: Dict[int, str] = {}
    attached: List[Scenario] = []
    for scenario in scenarios:
        fingerprint = fingerprint_of.get(id(scenario.network))
        if fingerprint is None:
            fingerprint = hash_text(network_to_json(scenario.network))
            fingerprint_of[id(scenario.network)] = fingerprint

        network_key = (ruleset, fingerprint)
        network_findings = _NETWORK_LINT_MEMO.get(network_key)
        if network_findings is None:
            obs.add("farm.preflight.lint_runs")
            network_findings = analyze(scenario.network).diagnostics
            _memo_put(_NETWORK_LINT_MEMO, network_key, network_findings)
        else:
            obs.add("farm.preflight.memo_hits")

        query_findings: Tuple["Diagnostic", ...] = ()
        if "DP007" in rule_codes():
            query_key = (ruleset, fingerprint, scenario.query)
            query_findings = _QUERY_LINT_MEMO.get(query_key)  # type: ignore[assignment]
            if query_findings is None:
                obs.add("farm.preflight.lint_runs")
                query_findings = analyze(
                    scenario.network,
                    config=LintConfig.of(enabled=["DP007"]),
                    queries=[("query", scenario.query)],
                ).diagnostics
                _memo_put(_QUERY_LINT_MEMO, query_key, query_findings)
            else:
                obs.add("farm.preflight.memo_hits")

        findings = network_findings + query_findings
        attached.append(
            replace(scenario, diagnostics=findings) if findings else scenario
        )
    return attached


def preflight_index(
    scenarios: Sequence[Scenario],
) -> Dict[int, Tuple["Diagnostic", ...]]:
    """Map scenario index → findings, for scenarios that have any.

    The farm's job lists are index-aligned with their scenario lists,
    so this is the handoff format :meth:`repro.farm.jobs.JobManager.submit`
    accepts to surface pre-flight findings in run snapshots.
    """
    return {
        index: scenario.diagnostics
        for index, scenario in enumerate(scenarios)
        if scenario.diagnostics
    }


def _named_queries(queries: QueriesArg) -> List[Tuple[str, str]]:
    if isinstance(queries, str):
        return [("query", queries)]
    named = named_queries(queries)
    if not named:
        raise FarmError("a scenario sweep needs at least one query")
    return named


def _pin_failures(query_text: str, max_failures: int = 0) -> str:
    """Rewrite the query's trailing failure bound ``k``.

    Failure combinations are made explicit in the degraded network, so
    the query itself must stop hypothesizing further failures.
    """
    query = parse_query(query_text)
    pinned = Query(query.initial_header, query.path, query.final_header, max_failures)
    return str(pinned)


def sweep_size(
    link_count: int, max_failures: int, query_count: int = 1,
    include_baseline: bool = True,
) -> int:
    """Number of jobs a failure sweep will generate (before building it)."""
    combos = sum(comb(link_count, size) for size in range(1, max_failures + 1))
    if include_baseline:
        combos += 1
    return combos * query_count


def plan_failure_sweep(
    network: MplsNetwork,
    queries: QueriesArg,
    max_failures: int = 1,
    links: Optional[Sequence[str]] = None,
    include_baseline: bool = True,
    limit: Optional[int] = 10_000,
) -> Tuple[List[Tuple[str, str]], List[str], int]:
    """Check a failure sweep before building it; returns the named
    queries with their failure bound pinned to 0, the links that may
    fail, and the job count. A sweep over ``limit`` jobs is a
    :class:`FarmError` that names its size, not a silent truncation.
    """
    named = _named_queries(queries)
    if max_failures < 0:
        raise FarmError("max_failures must be non-negative")
    if links is None:
        candidates = list(network.link_names())
    else:
        known = set(network.link_names())
        candidates = list(links)
        unknown = [name for name in candidates if name not in known]
        if unknown:
            raise FarmError(f"unknown links in sweep: {', '.join(unknown)}")

    total = sweep_size(
        len(candidates), max_failures, len(named), include_baseline
    )
    if limit is not None and total > limit:
        raise FarmError(
            f"failure sweep would generate {total} jobs (> limit {limit}); "
            "restrict the links, lower max_failures, or raise the limit"
        )
    return [(name, _pin_failures(text)) for name, text in named], candidates, total


def _variant(network: MplsNetwork, combo: Tuple[str, ...]) -> Tuple[str, MplsNetwork]:
    """The scenario tag and the network with the links ``combo`` failed."""
    if not combo:
        return "baseline", network
    tag = f"fail({'+'.join(combo)})"
    failed = {network.topology.link(name) for name in combo}
    return tag, degrade_network(network, failed, name=f"{network.name}@{tag}")


def failure_scenarios(
    network: MplsNetwork,
    queries: QueriesArg,
    max_failures: int = 1,
    links: Optional[Sequence[str]] = None,
    include_baseline: bool = True,
    limit: Optional[int] = 10_000,
    preflight: bool = False,
) -> List[Scenario]:
    """All ≤ ``max_failures`` link-failure combinations × queries.

    ``links`` restricts the failure candidates (default: every link);
    ``limit`` guards against combinatorial blow-up (the checks are
    :func:`plan_failure_sweep`'s). ``include_baseline`` adds the
    zero-failure scenario so a sweep also certifies the intact network.
    With ``preflight=True`` each degraded variant is statically linted
    (:func:`repro.analysis.analyze`) and the findings are attached to
    its scenarios.
    """
    pinned, candidates, _total = plan_failure_sweep(
        network, queries, max_failures, links, include_baseline, limit
    )
    combos: List[Tuple[str, ...]] = [()] if include_baseline else []
    for size in range(1, max_failures + 1):
        combos.extend(itertools.combinations(candidates, size))
    scenarios: List[Scenario] = []
    for combo in combos:
        tag, variant = _variant(network, combo)
        for query_name, query_text in pinned:
            scenarios.append(
                Scenario(
                    name=f"{query_name}@{tag}",
                    network=variant,
                    query=query_text,
                    failed_links=combo,
                )
            )
    return preflight_scenarios(scenarios) if preflight else scenarios


def link_audit_scenarios(
    network: MplsNetwork,
    queries: QueriesArg,
    links: Optional[Sequence[str]] = None,
    limit: Optional[int] = 10_000,
    preflight: bool = False,
) -> List[Scenario]:
    """The per-link ``k = 1`` audit: one scenario per single failed link."""
    return failure_scenarios(
        network,
        queries,
        max_failures=1,
        links=links,
        include_baseline=False,
        limit=limit,
        preflight=preflight,
    )


def probabilistic_scenarios(
    network: MplsNetwork,
    query: str,
    failure_scenarios: Sequence["FailureScenario"],
    query_name: str = "query",
) -> Tuple[List[Scenario], List[float]]:
    """Lower probability-ordered failure scenarios to farm scenarios.

    Several enumerated scenarios can fail the *same* link set
    (overlapping SRLGs fire in different combinations); the query's
    verdict only depends on the link set, so each distinct set becomes
    one farm scenario carrying the **sum** of its scenarios'
    probabilities. Returns ``(scenarios, masses)`` index-aligned, with
    distinct link sets in first-seen (i.e. most-likely-first) order —
    the format :func:`repro.prob.sweep.run_probabilistic_sweep` and
    :meth:`repro.farm.jobs.JobManager.submit` consume.
    """
    pinned = _pin_failures(query)
    index_of: Dict[frozenset, int] = {}
    scenarios: List[Scenario] = []
    masses: List[float] = []
    for outcome in failure_scenarios:
        key = outcome.failed_links
        existing = index_of.get(key)
        if existing is not None:
            masses[existing] += outcome.probability
            continue
        combo = tuple(sorted(key))
        tag, variant = _variant(network, combo)
        index_of[key] = len(scenarios)
        scenarios.append(
            Scenario(
                name=f"{query_name}@{tag}",
                network=variant,
                query=pinned,
                failed_links=combo,
            )
        )
        masses.append(outcome.probability)
    return scenarios, masses


def suite_scenarios(
    network: MplsNetwork, queries: QueriesArg, preflight: bool = False
) -> List[Scenario]:
    """A query suite against the intact network, one scenario per query."""
    scenarios = [
        Scenario(name=name, network=network, query=text)
        for name, text in _named_queries(queries)
    ]
    return preflight_scenarios(scenarios) if preflight else scenarios


def scenarios_to_jobs(
    scenarios: Sequence[Scenario],
    config: Optional["EngineConfig"] = None,
    timeout: Optional[float] = None,
) -> Tuple[List["FarmJob"], Dict[str, str], Dict[str, MplsNetwork]]:
    """Lower scenarios to the pool's job representation.

    Returns ``(jobs, payloads, prebuilt)``: the picklable job specs,
    the distinct network JSON payloads keyed by content hash, and the
    already-built network objects under the same keys (handed to forked
    workers for free). Scenarios sharing a network object serialize it
    once.
    """
    from repro.farm.store import hash_text
    from repro.farm.pool import EngineConfig, FarmJob
    from repro.io.json_format import network_to_json

    if config is None:
        config = EngineConfig()
    payloads: Dict[str, str] = {}
    prebuilt: Dict[str, MplsNetwork] = {}
    key_of: Dict[int, str] = {}
    jobs: List[FarmJob] = []
    for scenario in scenarios:
        key = key_of.get(id(scenario.network))
        if key is None:
            payload = network_to_json(scenario.network)
            key = hash_text(payload)
            key_of[id(scenario.network)] = key
            payloads[key] = payload
            prebuilt[key] = scenario.network
        jobs.append(
            FarmJob(
                name=scenario.name,
                query=scenario.query,
                network_key=key,
                config=config,
                timeout=timeout,
            )
        )
    return jobs, payloads, prebuilt
