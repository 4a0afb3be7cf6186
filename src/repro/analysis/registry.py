"""The lint-rule registry and the :func:`analyze` entry point.

Rules register themselves with the :func:`rule` decorator (one module
per rule, imported by :mod:`repro.analysis`); :func:`analyze` runs the
configured subset over an :class:`~repro.analysis.context.AnalysisContext`
and folds the findings into a :class:`~repro.analysis.diagnostics.LintReport`.

A :class:`LintConfig` selects rules by code: ``enabled`` restricts the
run to an explicit subset, ``suppressed`` removes codes from whatever
is enabled, and ``min_severity`` drops findings below a severity floor
after the rules ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import AnalysisError
from repro.model.network import MplsNetwork
from repro.model.topology import Link
from repro.query.parser import named_queries
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    sort_diagnostics,
)

#: A rule is a pure function from shared context to findings.
RuleFunc = Callable[[AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class RuleInfo:
    """Registry record of one lint rule."""

    code: str
    title: str
    default_severity: Severity
    func: RuleFunc
    description: str


_REGISTRY: Dict[str, RuleInfo] = {}


def rule(
    code: str, title: str, severity: Severity
) -> Callable[[RuleFunc], RuleFunc]:
    """Class decorator registering one rule function under a stable code."""

    def register(func: RuleFunc) -> RuleFunc:
        if code in _REGISTRY:
            raise AnalysisError(f"duplicate lint rule code {code!r}")
        _REGISTRY[code] = RuleInfo(
            code=code,
            title=title,
            default_severity=severity,
            func=func,
            description=(func.__doc__ or "").strip().splitlines()[0]
            if func.__doc__
            else title,
        )
        return func

    return register


def all_rules() -> Tuple[RuleInfo, ...]:
    """Every registered rule, ordered by code."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def rule_codes() -> Tuple[str, ...]:
    """The registered rule codes, sorted."""
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection.

    ``enabled`` of None means "all registered rules"; ``suppressed``
    always wins over ``enabled``. Codes are validated against the
    registry so a typo fails loudly instead of silently linting less.
    """

    enabled: Optional[FrozenSet[str]] = None
    suppressed: FrozenSet[str] = frozenset()
    min_severity: Optional[Severity] = None

    @classmethod
    def of(
        cls,
        enabled: Optional[Iterable[str]] = None,
        suppressed: Iterable[str] = (),
        min_severity: Optional[Union[str, Severity]] = None,
    ) -> "LintConfig":
        """Build a config from loose inputs (CLI/server-friendly)."""
        floor: Optional[Severity] = None
        if min_severity is not None:
            floor = (
                min_severity
                if isinstance(min_severity, Severity)
                else Severity(min_severity)
            )
        return cls(
            enabled=frozenset(enabled) if enabled is not None else None,
            suppressed=frozenset(suppressed),
            min_severity=floor,
        )

    def selected(self) -> Tuple[RuleInfo, ...]:
        """The rules this config runs, in code order."""
        known = set(_REGISTRY)
        requested = self.enabled if self.enabled is not None else known
        unknown = (set(requested) | set(self.suppressed)) - known
        if unknown:
            raise AnalysisError(
                "unknown lint rule code(s): "
                + ", ".join(sorted(unknown))
                + f" (known: {', '.join(sorted(known))})"
            )
        active = set(requested) - set(self.suppressed)
        return tuple(_REGISTRY[code] for code in sorted(active))


#: Links may be given as Link objects or names.
LinksArg = Iterable[Union[str, Link]]

#: Queries may be given as bare texts or (name, text) pairs.
QueryArg = Iterable[Union[str, Tuple[str, str]]]


def _link_names(failed_links: LinksArg) -> FrozenSet[str]:
    return frozenset(
        link if isinstance(link, str) else link.name for link in failed_links
    )


def analyze(
    network: MplsNetwork,
    failed_links: LinksArg = frozenset(),
    config: Optional[LintConfig] = None,
    queries: QueryArg = (),
) -> LintReport:
    """Statically lint a network's routing tables.

    Runs every enabled rule over a shared :class:`AnalysisContext` —
    no pushdown system is ever constructed — and returns a
    :class:`LintReport` with deterministic finding order. With
    ``failed_links`` the analysis assumes those links are down: only the
    then-active traffic-engineering groups are considered, and cells
    whose protection is exhausted surface as black holes (DP001).
    ``queries`` (bare texts or (name, text) pairs) feeds the
    query-aware rules: DP007 flags queries that can never be satisfied
    against this network's label alphabet and topology.
    """
    if config is None:
        config = LintConfig()
    selected = config.selected()
    start = time.perf_counter()
    context = AnalysisContext(
        network, _link_names(failed_links), queries=tuple(named_queries(queries))
    )
    findings: List[Diagnostic] = []
    for info in selected:
        findings.extend(info.func(context))
    if config.min_severity is not None:
        floor = config.min_severity.rank
        findings = [d for d in findings if d.severity.rank >= floor]
    return LintReport(
        network_name=network.name,
        diagnostics=sort_diagnostics(findings),
        failed_links=tuple(sorted(context.failed_links)),
        elapsed_seconds=time.perf_counter() - start,
        rules_run=tuple(info.code for info in selected),
    )
