"""What-if scenario generation: one network → a sweep of farm jobs.

The paper's operators ask families of questions, not single queries:
"does the policy still hold if any one link fails?", "under every pair
of failures?", "for each of these 6,000 queries?". This module turns
those families into explicit, independent :class:`Scenario`s —

* :func:`failure_scenarios` — every ≤ k link-failure combination, as
  the baseline network plus the links failed in it, with the query's
  failure bound pinned to 0: the *deterministic* what-if question
  "given exactly these links are down, does a matching trace exist?";
* :func:`link_audit_scenarios` — the ``k = 1`` survivability audit:
  one scenario per link, the sweep NetKAT-style tools run per
  maintenance window;
* :func:`suite_scenarios` — a query-file suite against the intact
  network (the §4.2 operator workload).

A combination's network (the 𝓐 operator of §2.4 partially evaluated
by :func:`repro.model.srlg.degrade_network`) is built only where it is
read: the farm job that verifies it derives its own, and
:attr:`Scenario.network` builds one that every scenario of the
combination shares. :func:`scenarios_to_jobs` serializes each distinct
baseline once.
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


def _variant_tag(failed_links: Sequence[str]) -> str:
    """The name part of a variant: ``baseline`` or ``fail(a+b)``."""
    return f"fail({'+'.join(failed_links)})" if failed_links else "baseline"


def build_variant(baseline: MplsNetwork, failed_links: Sequence[str]) -> MplsNetwork:
    """``baseline`` with the links ``failed_links`` failed, named
    ``<baseline>@fail(a+b)``; the baseline itself when none fail."""
    if not failed_links:
        return baseline
    failed = {baseline.topology.link(name) for name in failed_links}
    # The module attribute, looked up per call, so a wrapper sees each build.
    return degrade_network(
        baseline, failed, name=f"{baseline.name}@{_variant_tag(failed_links)}"
    )


class Variant:
    """A baseline with some links failed; its network is built on first
    read and shared by every scenario holding this variant."""

    def __init__(self, baseline: MplsNetwork, failed_links: Tuple[str, ...] = ()):
        self.baseline = baseline
        self.failed_links = failed_links
        self._network: Optional[MplsNetwork] = None

    @property
    def network(self) -> MplsNetwork:
        if self._network is None:
            self._network = build_variant(self.baseline, self.failed_links)
        return self._network


@dataclass(frozen=True)
class Scenario:
    """One independent what-if instance: a query on a network variant."""

    name: str
    variant: Variant
    query: str
    #: Pre-flight lint findings for the variant (see :func:`analyze`);
    #: populated only when the sweep was built with ``preflight=True``.
    diagnostics: Tuple["Diagnostic", ...] = ()

    @property
    def failed_links(self) -> Tuple[str, ...]:
        """Links assumed failed in this variant (empty for the baseline)."""
        return self.variant.failed_links

    @property
    def network(self) -> MplsNetwork:
        """The variant's network, built on first read."""
        return self.variant.network


def preflight_scenarios(scenarios: List[Scenario]) -> List[Scenario]:
    """Lint every distinct network variant and attach the findings.

    Reads, and so builds, each scenario's network. Scenarios sharing a
    variant (the common case: one degraded network × many queries) are
    linted once, so the lint cost of a sweep is per *variant*, not per
    job. Failure combinations are already baked into the variants, so
    each is linted with an empty assumed-failure set. Each scenario
    additionally gets the query-aware findings (DP007) for its own
    query, once per (variant, query text).
    """
    from repro import obs
    from repro.analysis import LintConfig, analyze, rule_codes

    found: Dict[Tuple[int, Optional[str]], Tuple["Diagnostic", ...]] = {}

    def lint(network: MplsNetwork, query: Optional[str] = None) -> Tuple["Diagnostic", ...]:
        key = (id(network), query)
        if key not in found:
            obs.add("farm.preflight.lint_runs")
            if query is None:
                found[key] = analyze(network).diagnostics
            else:
                found[key] = analyze(
                    network, config=LintConfig.of(enabled=["DP007"]),
                    queries=[("query", query)],
                ).diagnostics
        return found[key]

    query_rule = "DP007" in rule_codes()
    attached: List[Scenario] = []
    for scenario in scenarios:
        network = scenario.network
        findings = lint(network) + (lint(network, scenario.query) if query_rule else ())
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


def _pin_failures(query_text: str) -> str:
    """Rewrite the query's trailing failure bound ``k`` to 0.

    Failure combinations are made explicit in the variant network, so
    the query itself must stop hypothesizing further failures.
    """
    query = parse_query(query_text)
    return str(Query(query.initial_header, query.path, query.final_header, 0))


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
    No variant network is built here. With ``preflight=True`` each
    variant is built and statically linted
    (:func:`repro.analysis.analyze`), and the findings are attached to
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
        variant = Variant(network, combo)
        tag = _variant_tag(combo)
        for query_name, query_text in pinned:
            scenarios.append(
                Scenario(name=f"{query_name}@{tag}", variant=variant, query=query_text)
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
        index_of[key] = len(scenarios)
        scenarios.append(
            Scenario(
                name=f"{query_name}@{_variant_tag(combo)}",
                variant=Variant(network, combo),
                query=pinned,
            )
        )
        masses.append(outcome.probability)
    return scenarios, masses


def suite_scenarios(
    network: MplsNetwork, queries: QueriesArg, preflight: bool = False
) -> List[Scenario]:
    """A query suite against the intact network, one scenario per query."""
    variant = Variant(network)
    scenarios = [
        Scenario(name=name, variant=variant, query=text)
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
    the distinct *baseline* networks' JSON payloads keyed by content
    hash, and the baseline objects under the same keys (handed to forked
    workers for free). Each job names its baseline's key and its failed
    links; the worker derives the variant. No variant is built or
    serialized here.
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
        baseline = scenario.variant.baseline
        key = key_of.get(id(baseline))
        if key is None:
            payload = network_to_json(baseline)
            key = hash_text(payload)
            key_of[id(baseline)] = key
            payloads[key] = payload
            prebuilt[key] = baseline
        jobs.append(
            FarmJob(
                name=scenario.name,
                query=scenario.query,
                network_key=key,
                config=config,
                timeout=timeout,
                failed_links=scenario.failed_links,
            )
        )
    return jobs, payloads, prebuilt
