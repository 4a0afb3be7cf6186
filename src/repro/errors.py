"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still being able to distinguish the subsystem that
failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ModelError(ReproError):
    """An MPLS network model is malformed or used inconsistently."""


class HeaderError(ModelError):
    """A packet header is invalid or an MPLS operation is undefined on it.

    Corresponds to the *undefined* case of the partial header rewrite
    function of Definition 3 in the paper.
    """


class TopologyError(ModelError):
    """A topology element (router, interface, link) is inconsistent."""


class RoutingError(ModelError):
    """A routing-table entry refers to unknown links or invalid operations."""


class RuleValidationError(RoutingError):
    """A forwarding rule failed builder/loader validation.

    Raised at the point the rule is *declared* (builder call or input
    file entry) rather than deep in network compilation, and carries the
    offending coordinates so tooling can point at the routing-table cell.
    """

    def __init__(
        self,
        message: str,
        router: "str | None" = None,
        in_link: "str | None" = None,
        label: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.router = router
        self.in_link = in_link
        self.label = label


class NotFoundError(ReproError):
    """A named resource (built-in network, job run, …) does not exist.

    Distinguished from the other :class:`ReproError` subclasses so the
    HTTP service can answer 404 for genuinely missing resources while
    invalid *input* (loader/validation failures, malformed parameters)
    stays a 400 — previously every ReproError on a GET masqueraded as
    "not found".
    """


class AnalysisError(ReproError):
    """The dataplane linter was misconfigured (unknown rule code, bad
    failure set) — not a lint finding, a usage failure."""


class QueryError(ReproError):
    """Base class for query-language problems."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenized or parsed.

    Carries the offending ``position`` (0-based offset into the query
    string) to support caret diagnostics in the CLI.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class QuerySemanticsError(QueryError):
    """The query parsed but refers to unknown routers, labels or interfaces."""


class WeightError(QueryError):
    """A weight expression is malformed or uses an unknown atomic quantity."""


class PdaError(ReproError):
    """A pushdown system or P-automaton is used inconsistently."""


class VerificationError(ReproError):
    """The verification pipeline failed (not a *negative answer*, a failure)."""


class FormatError(ReproError):
    """An input file (XML / JSON / IS-IS extract) is malformed."""


class VerificationTimeout(VerificationError):
    """A verification run exceeded its time budget."""


class FarmError(ReproError):
    """The verification farm was misconfigured or a sweep is malformed."""


class ProbError(ReproError):
    """A probabilistic what-if analysis was misconfigured (bad failure
    probabilities, oversized exhaustive enumeration, …)."""
