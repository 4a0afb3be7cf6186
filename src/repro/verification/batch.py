"""Batch verification of query suites.

The paper's operator workflow runs thousands of queries against one
dataplane snapshot (§4.2 reports statistics over 6,000). This module
provides that workflow as a first-class API: a :class:`BatchVerifier`
runs a list of (named) queries through one engine, capturing per-query
results, timeouts and errors, and aggregates the §4.2-style statistics
(verdict counts, inconclusive rate, total/worst times).

With ``jobs=N`` the batch fans out over the verification farm
(:mod:`repro.farm`): the queries are shipped to a pool of worker
processes. The parallel path runs the exact same per-query code
(:func:`run_single`) on an engine rebuilt from the same configuration,
so it returns the same verdicts and summary counts as the serial loop —
only the timing fields differ.

The CLI exposes it via ``aalwines --queries-file FILE [--jobs N]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError, VerificationTimeout
from repro.query.parser import named_queries
from repro.verification.engine import VerificationEngine
from repro.verification.results import VerificationResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.diagnostics import Diagnostic


@dataclass
class BatchItem:
    """Outcome of one query in a batch run."""

    name: str
    query: str
    #: "satisfied" / "unsatisfied" / "inconclusive" / "timeout" / "error".
    outcome: str
    seconds: float
    result: Optional[VerificationResult] = None
    error: Optional[str] = None
    #: Static pre-flight lint findings for the network variant this item
    #: ran against (empty unless the run asked for ``preflight``).
    diagnostics: Tuple["Diagnostic", ...] = ()
    #: Triage outcome ("proven_yes" / "proven_no" / "inconclusive") when
    #: the engine ran the static triage tier; None otherwise.
    triage: Optional[str] = None

    @property
    def conclusive(self) -> bool:
        return self.outcome in ("satisfied", "unsatisfied")

    @property
    def triaged(self) -> bool:
        """True when the static triage tier settled this query."""
        return self.triage in ("proven_yes", "proven_no")


@dataclass
class BatchSummary:
    """§4.2-style aggregate statistics over a batch."""

    total: int = 0
    satisfied: int = 0
    unsatisfied: int = 0
    inconclusive: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Queries the static triage tier settled without compilation.
    triaged: int = 0
    total_seconds: float = 0.0
    worst_seconds: float = 0.0
    worst_query: Optional[str] = None

    def add(self, item: BatchItem) -> None:
        """Fold one item into the aggregate."""
        self.total += 1
        self.total_seconds += item.seconds
        if item.triaged:
            self.triaged += 1
        if item.outcome == "satisfied":
            self.satisfied += 1
        elif item.outcome == "unsatisfied":
            self.unsatisfied += 1
        elif item.outcome == "inconclusive":
            self.inconclusive += 1
        elif item.outcome == "timeout":
            self.timeouts += 1
        else:
            self.errors += 1
        if item.seconds > self.worst_seconds:
            self.worst_seconds = item.seconds
            self.worst_query = item.name

    @property
    def inconclusive_rate(self) -> float:
        """Fraction of *answered* queries that were inconclusive (the
        paper reports 8/6000 = 0.13% for the operator network)."""
        answered = self.satisfied + self.unsatisfied + self.inconclusive
        if answered == 0:
            return 0.0
        return self.inconclusive / answered

    def format(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        lines = [
            f"queries:       {self.total}",
            f"satisfied:     {self.satisfied}",
            f"unsatisfied:   {self.unsatisfied}",
            f"inconclusive:  {self.inconclusive} "
            f"({100 * self.inconclusive_rate:.2f}%)",
        ]
        if self.timeouts:
            lines.append(f"timeouts:      {self.timeouts}")
        if self.errors:
            lines.append(f"errors:        {self.errors}")
        if self.triaged:
            lines.append(f"triaged:       {self.triaged} (settled statically)")
        lines.append(f"total time:    {self.total_seconds:.2f}s")
        if self.worst_query is not None:
            lines.append(
                f"slowest query: {self.worst_query} ({self.worst_seconds:.2f}s)"
            )
        return "\n".join(lines)


def summarize(items: Iterable[BatchItem]) -> BatchSummary:
    """Aggregate a finished item list into a :class:`BatchSummary`."""
    summary = BatchSummary()
    for item in items:
        summary.add(item)
    return summary


def run_single(
    engine: VerificationEngine,
    name: str,
    query: str,
    timeout: Optional[float] = None,
) -> BatchItem:
    """Verify one query, capturing failures as items — never raises.

    This is the per-query kernel shared verbatim by the serial loop and
    the farm's worker processes, which is what makes the parallel path
    verdict-equivalent to the serial one.
    """
    start = time.perf_counter()
    try:
        result = engine.verify(query, timeout_seconds=timeout)
        return BatchItem(
            name=name,
            query=query,
            outcome=result.status.value,
            seconds=time.perf_counter() - start,
            result=result,
            triage=result.stats.triage_verdict,
        )
    except VerificationTimeout:
        return BatchItem(
            name=name,
            query=query,
            outcome="timeout",
            seconds=time.perf_counter() - start,
        )
    except ReproError as error:
        return BatchItem(
            name=name,
            query=query,
            outcome="error",
            seconds=time.perf_counter() - start,
            error=str(error),
        )


#: Optional per-item progress callback (index, total, item). The serial
#: path calls it in index order; with ``jobs=N`` it fires in completion
#: order (the index argument stays correct).
ProgressCallback = Callable[[int, int, BatchItem], None]


class BatchVerifier:
    """Runs many queries through one verification engine.

    ``jobs`` selects the execution strategy: 1 (default) runs the
    classic serial loop in-process; N > 1 fans the queries out over N
    farm worker processes. Both paths produce the same items (order,
    names, verdicts) and summary counts; only timings differ.

    With ``preflight=True`` the network is statically linted once
    (:func:`repro.analysis.analyze` — no pushdown system) before any
    verification runs, and the findings are attached to every item's
    ``diagnostics``.
    """

    def __init__(
        self,
        engine: VerificationEngine,
        timeout_per_query: Optional[float] = None,
        jobs: int = 1,
        preflight: bool = False,
    ) -> None:
        self.engine = engine
        self.timeout_per_query = timeout_per_query
        self.jobs = max(1, int(jobs))
        self.preflight = preflight

    def run(
        self,
        queries: Iterable[Union[str, Tuple[str, str]]],
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[List[BatchItem], BatchSummary]:
        """Verify every query; never raises on a per-query failure.

        ``queries`` may be bare query strings or (name, query) pairs.
        """
        named = named_queries(queries)

        diagnostics: Tuple["Diagnostic", ...] = ()
        if self.preflight:
            from repro.analysis import analyze

            diagnostics = analyze(self.engine.network).diagnostics

        if self.jobs > 1 and len(named) > 1 and self.engine.distance_of is None:
            items, summary = self._run_parallel(named, progress)
            for item in items:
                item.diagnostics = diagnostics
            return items, summary

        items: List[BatchItem] = []
        summary = BatchSummary()
        for index, (name, query) in enumerate(named):
            item = self._run_one(name, query)
            item.diagnostics = diagnostics
            items.append(item)
            summary.add(item)
            if progress is not None:
                progress(index, len(named), item)
        return items, summary

    def _run_parallel(
        self,
        named: Sequence[Tuple[str, str]],
        progress: Optional[ProgressCallback],
    ) -> Tuple[List[BatchItem], BatchSummary]:
        """Fan the suite out over the farm's worker pool."""
        from repro.farm.pool import EngineConfig, run_jobs
        from repro.farm.scenarios import scenarios_to_jobs, suite_scenarios

        jobs, payloads, prebuilt = scenarios_to_jobs(
            suite_scenarios(self.engine.network, named),
            EngineConfig.from_engine(self.engine),
            self.timeout_per_query,
        )
        results = run_jobs(
            jobs,
            payloads,
            max_workers=self.jobs,
            progress=progress,
            prebuilt=prebuilt,
        )
        # Without a cancellation hook every slot is filled.
        items = [item for item in results if item is not None]
        return items, summarize(items)

    def _run_one(self, name: str, query: str) -> BatchItem:
        return run_single(self.engine, name, query, self.timeout_per_query)


def parse_query_file(text: str) -> List[Tuple[str, str]]:
    """Parse a query file: one query per line.

    Blank lines and ``#`` comments are skipped; a line may carry an
    optional leading ``name:`` (with the name containing no ``<``).
    """
    queries: List[Tuple[str, str]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name = f"line{line_number}"
        if ":" in line and "<" in line:
            candidate, _, rest = line.partition(":")
            if "<" not in candidate and rest.strip():
                name, line = candidate.strip(), rest.strip()
        queries.append((name, line))
    return queries
