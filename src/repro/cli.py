"""Command-line interface — the library's equivalent of the AalWiNes
binary (and of every function of the web GUI described in §4).

Typical usage::

    # Verify a query on the built-in running example.
    aalwines --builtin example --query "<ip> [.#v0] .* [v3#.] <ip> 0"

    # Quantitative verification with a minimization vector (§3).
    aalwines --builtin example \
        --query "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1" \
        --weight "hops, failures + 3*tunnels"

    # Verify against XML input files (Appendix A).
    aalwines --topology topo.xml --routing route.xml \
        --coordinates loc.json --query "..." --engine moped

    # Parallel what-if sweep: the query under every ≤2-link failure
    # combination, fanned out over 4 farm workers.
    aalwines --builtin example --query "<ip> [.#v0] .* [v3#.] <ip> 0" \
        --sweep-failures 2 --jobs 4

    # Convert an IS-IS extract to the vendor-agnostic format
    # (Appendix A.1's --write-topology / --write-routing flow).
    aalwines --isis mapping.txt --isis-dir extracts/ \
        --write-topology topo.xml --write-routing route.xml

Exit codes: 0 = query satisfied, 1 = not satisfied, 2 = inconclusive,
3 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional

from repro import obs
from repro.datasets.builtins import BUILTIN_NETWORKS, load_builtin
from repro.errors import ReproError, VerificationTimeout
from repro.io.coords import read_coordinates
from repro.io.isis import network_from_isis
from repro.io.json_format import network_to_json, read_network_json, trace_to_json
from repro.io.xml_format import read_network, routing_to_xml, topology_to_xml
from repro.model.network import MplsNetwork
from repro.verification.results import Status, VerificationResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.farm.pool import EngineConfig


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    """The network-source argument group shared by all subcommands."""
    source = parser.add_argument_group("network input")
    source.add_argument("--topology", help="topo.xml file (Appendix A)")
    source.add_argument("--routing", help="route.xml file (Appendix A)")
    source.add_argument("--network", help="single-file JSON network")
    source.add_argument(
        "--builtin",
        choices=BUILTIN_NETWORKS,
        help="use a built-in network (running example / substitutes)",
    )
    source.add_argument(
        "--coordinates", help="router location JSON (Appendix A.2)"
    )
    source.add_argument("--isis", help="IS-IS mapping file (Appendix A.1)")
    source.add_argument(
        "--isis-dir", help="directory containing the per-router IS-IS extracts"
    )


def build_parser() -> argparse.ArgumentParser:
    """The aalwines argument parser (exposed for doc generation)."""
    from repro.model.quantities import DEFAULT_FAILURE_PROBABILITY
    from repro.verification.engine import ENGINE_NAMES, TRIAGE_MODES

    parser = argparse.ArgumentParser(
        prog="aalwines",
        description="Fast quantitative what-if analysis for MPLS networks",
    )
    _add_network_arguments(parser)

    query = parser.add_argument_group("verification")
    query.add_argument("--query", help="query <a> b <c> k (Definition 5)")
    query.add_argument(
        "--queries-file",
        help="verify every query in a file (one per line, optional 'name:' prefix)",
    )
    query.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="dual",
        help="backend engine (default: dual — the AalWiNes engine)",
    )
    query.add_argument(
        "--weight",
        help='minimization vector, e.g. "hops, failures + 3*tunnels" (§3)',
    )
    query.add_argument(
        "--no-reductions",
        action="store_true",
        help="disable the static PDA reductions (§4.2)",
    )
    query.add_argument(
        "--triage",
        choices=TRIAGE_MODES,
        default="off",
        help="static triage tier: 'auto' tries to prove the verdict by "
        "abstract interpretation before building any pushdown system "
        "(falling back to the full engine when inconclusive), 'only' "
        "answers from triage alone and reports INCONCLUSIVE otherwise "
        "(exit 0/1/2, lint-style), 'off' disables it (default)",
    )
    query.add_argument(
        "--timeout", type=float, default=None, help="time budget in seconds"
    )
    query.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify on N parallel farm workers (batch and sweep modes)",
    )
    query.add_argument(
        "--sweep-failures",
        type=int,
        default=None,
        metavar="K",
        help="what-if sweep: verify the query under every combination "
        "of at most K failed links (each baked into a degraded network)",
    )
    query.add_argument(
        "--sweep-limit",
        type=int,
        default=10_000,
        metavar="J",
        help="refuse failure sweeps generating more than J jobs "
        "(default: 10000)",
    )
    query.add_argument(
        "--prob-threshold",
        type=float,
        default=None,
        metavar="P",
        help="probabilistic what-if: decide whether the query holds with "
        "probability ≥ P over independent link failures, ranking "
        "scenarios by likelihood and stopping as soon as the verdict "
        "cannot flip (exit 0 holds / 1 fails / 2 undecided)",
    )
    query.add_argument(
        "--sweep-prob",
        action="store_true",
        help="probabilistic what-if without a threshold: report bounds "
        "on P(query holds) over the most likely failure scenarios",
    )
    query.add_argument(
        "--prob-default",
        type=float,
        default=DEFAULT_FAILURE_PROBABILITY,
        metavar="P",
        help="failure probability assumed for links that do not declare "
        "one (default: 1e-3)",
    )
    query.add_argument(
        "--prob-limit",
        type=int,
        default=512,
        metavar="N",
        help="enumerate at most N failure scenarios, most likely first "
        "(default: 512)",
    )
    query.add_argument(
        "--preflight",
        action="store_true",
        help="lint each degraded sweep variant and report its diagnostics "
        "alongside the verification verdicts",
    )
    query.add_argument(
        "--trace-json", action="store_true", help="print the witness trace as JSON"
    )
    query.add_argument("--stats", action="store_true", help="print engine statistics")
    query.add_argument(
        "--profile",
        action="store_true",
        help="record tracing spans and solver counters during verification "
        "and print the per-phase time table afterwards (repro.obs)",
    )
    query.add_argument(
        "--profile-trace",
        metavar="FILE",
        help="with --profile: also export the recorded spans as a JSON "
        "trace file",
    )

    convert = parser.add_argument_group("conversion")
    convert.add_argument(
        "--write-topology", help="write the loaded network's topo.xml here"
    )
    convert.add_argument(
        "--write-routing", help="write the loaded network's route.xml here"
    )
    convert.add_argument(
        "--write-json", help="write the loaded network as single-file JSON here"
    )
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    """The ``aalwines lint`` argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="aalwines lint",
        description="Statically lint MPLS routing tables — black holes, "
        "loops, stack underflows and failover defects, without building "
        "any pushdown system. Exit code: 0 clean, 1 warnings, 2 errors, "
        "3 usage/input error.",
    )
    _add_network_arguments(parser)
    lint = parser.add_argument_group("linting")
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all registered)",
    )
    lint.add_argument(
        "--suppress",
        metavar="CODES",
        help="comma-separated rule codes to suppress",
    )
    lint.add_argument(
        "--min-severity",
        choices=("info", "warning", "error"),
        default=None,
        help="drop findings below this severity",
    )
    lint.add_argument(
        "--failed-links",
        metavar="LINKS",
        help="comma-separated link names to assume failed (what-if lint)",
    )
    lint.add_argument(
        "--query",
        action="append",
        default=[],
        metavar="QUERY",
        dest="queries",
        help="also lint this query against the network (DP007 flags "
        "statically unsatisfiable queries; repeatable)",
    )
    lint.add_argument(
        "--queries-file",
        metavar="FILE",
        help="lint every query in a file (one per line, optional "
        "'name:' prefix) against the network",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _split_codes(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def lint_main(argv: Optional[list] = None) -> int:
    """Entry point of the ``aalwines lint`` subcommand."""
    from repro.analysis import LintConfig, all_rules, analyze

    parser = build_lint_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for info in all_rules():
            print(
                f"{info.code}  {info.default_severity.value:<8} "
                f"{info.title} — {info.description}"
            )
        return 0
    try:
        network = _load_network(args)
        config = LintConfig.of(
            enabled=_split_codes(args.rules),
            suppressed=_split_codes(args.suppress) or (),
            min_severity=args.min_severity,
        )
        failed = frozenset(_split_codes(args.failed_links) or ())
        queries: list = list(args.queries)
        if args.queries_file:
            queries.extend(_query_file(args.queries_file))
        report = analyze(
            network, failed_links=failed, config=config, queries=queries
        )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return report.exit_code


def _load_network(args: argparse.Namespace) -> MplsNetwork:
    sources = [
        bool(args.builtin),
        bool(args.network),
        bool(args.topology or args.routing),
        bool(args.isis),
    ]
    if sum(sources) != 1:
        raise ReproError(
            "specify exactly one network source: --builtin, --network, "
            "--topology/--routing, or --isis"
        )
    if args.builtin:
        return load_builtin(args.builtin)
    if args.network:
        return read_network_json(args.network)
    if args.isis:
        directory = args.isis_dir or os.path.dirname(args.isis) or "."
        with open(args.isis, "r", encoding="utf-8") as handle:
            mapping_text = handle.read()
        documents: Dict[str, str] = {}
        for file_name in os.listdir(directory):
            if file_name.endswith(".xml"):
                with open(
                    os.path.join(directory, file_name), "r", encoding="utf-8"
                ) as handle:
                    documents[file_name] = handle.read()
        return network_from_isis(mapping_text, documents)
    if not (args.topology and args.routing):
        raise ReproError("--topology and --routing must be given together")
    coordinates = read_coordinates(args.coordinates) if args.coordinates else None
    return read_network(args.topology, args.routing, coordinates=coordinates)


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """The engine settings the verification flags select."""
    from repro.farm.pool import EngineConfig

    return EngineConfig.from_names(
        args.engine, args.weight, args.triage, use_reductions=not args.no_reductions
    )


def _query_file(path: str) -> list:
    """The named queries of a query file (see ``parse_query_file``)."""
    from repro.verification.batch import parse_query_file

    with open(path, "r", encoding="utf-8") as handle:
        return parse_query_file(handle.read())


def _print_result(result: VerificationResult, args: argparse.Namespace) -> None:
    print(result.summary())
    if result.trace is not None:
        print("witness trace:")
        print(result.trace.pretty())
        if args.trace_json:
            print(trace_to_json(result.trace), end="")
    if args.stats:
        stats = result.stats
        if stats.triage_verdict is not None:
            print(
                f"triage:         {stats.triage_seconds:.3f}s  "
                f"verdict={stats.triage_verdict}"
            )
        print(f"compile(over):  {stats.compile_over_seconds:.3f}s "
              f"({stats.over_rules} rules)")
        if stats.used_under_approximation:
            print(
                f"compile(under): {stats.compile_under_seconds:.3f}s "
                f"({stats.under_rules} rules)"
            )
        for phase, solver in (("over", stats.over_solver), ("under", stats.under_solver)):
            if solver is None:
                continue
            print(
                f"solve({phase}):    {solver.elapsed_seconds:.3f}s  "
                f"method={solver.method}  rules={solver.rules_after}  "
                f"iterations={solver.saturation_iterations}  "
                f"early-exit={solver.early_terminated}"
            )


def _print_item(item) -> None:
    print(f"{item.name:<24} {item.outcome:<13} {item.seconds:8.3f}s  {item.query}")


def _run_batch(network: MplsNetwork, args: argparse.Namespace) -> int:
    """Verify a whole query file; exit 0 when everything was answered."""
    from repro.verification.batch import BatchVerifier

    queries = _query_file(args.queries_file)
    engine = _engine_config(args).build(network)
    verifier = BatchVerifier(
        engine,
        timeout_per_query=args.timeout,
        jobs=args.jobs,
        preflight=args.preflight,
    )

    def progress(_index: int, _total: int, item) -> None:
        _print_item(item)

    items, summary = verifier.run(queries, progress=progress)
    if args.preflight and items and items[0].diagnostics:
        print()
        print(f"preflight findings on {network.name}:")
        for diagnostic in items[0].diagnostics:
            print(f"  {diagnostic.format()}")
    print()
    print(summary.format())
    return 0 if summary.timeouts == 0 and summary.errors == 0 else 3


def _run_sweep(network: MplsNetwork, args: argparse.Namespace) -> int:
    """What-if failure sweep: every ≤K link-failure combination, on the
    verification farm when --jobs asks for workers."""
    from repro.farm.pool import run_jobs
    from repro.farm.scenarios import failure_scenarios, scenarios_to_jobs
    from repro.verification.batch import summarize

    if args.queries_file:
        queries = _query_file(args.queries_file)
    elif args.query:
        queries = [("query", args.query)]
    else:
        raise ReproError("--sweep-failures needs --query or --queries-file")

    config = _engine_config(args)
    scenarios = failure_scenarios(
        network,
        queries,
        max_failures=args.sweep_failures,
        limit=args.sweep_limit,
        preflight=args.preflight,
    )
    jobs, payloads, prebuilt = scenarios_to_jobs(
        scenarios, config, timeout=args.timeout
    )
    workers = max(1, args.jobs)
    print(
        f"sweep: {len(jobs)} scenarios "
        f"(≤{args.sweep_failures} failed links × {len(queries)} queries) "
        f"on {workers} worker{'s' if workers != 1 else ''}"
    )
    items = run_jobs(
        jobs,
        payloads,
        max_workers=workers,
        progress=lambda _i, _t, item: _print_item(item),
        prebuilt=prebuilt,
    )
    for scenario, item in zip(scenarios, items):
        if item is not None and scenario.diagnostics:
            item.diagnostics = scenario.diagnostics
    if args.preflight:
        flagged = [s for s in scenarios if s.diagnostics]
        print()
        print(
            f"preflight: {len(flagged)}/{len(scenarios)} scenarios "
            "with lint findings"
        )
        for scenario in flagged:
            codes = ", ".join(sorted({d.code for d in scenario.diagnostics}))
            print(f"  {scenario.name}: {codes}")
    summary = summarize(item for item in items if item is not None)
    print()
    print(summary.format())
    return 0 if summary.timeouts == 0 and summary.errors == 0 else 3


def _run_prob_sweep(network: MplsNetwork, args: argparse.Namespace) -> int:
    """Probabilistic what-if: bounds on P(query holds), ranked scenarios.

    Exit codes mirror the plain verdict codes: 0 the query holds with
    the requested probability, 1 it does not, 2 undecided (no threshold
    given, or the scenario budget ran out before the verdict settled).
    """
    from repro.prob import ProbVerdict, run_probabilistic_sweep

    if not args.query:
        raise ReproError("--prob-threshold/--sweep-prob need --query")
    result = run_probabilistic_sweep(
        network,
        args.query,
        threshold=args.prob_threshold,
        default=args.prob_default,
        max_scenarios=args.prob_limit,
        config=_engine_config(args),
        max_workers=max(1, args.jobs),
        timeout=args.timeout,
    )
    print(result.summary())
    if result.most_likely_witness is not None:
        print(
            "most likely witness scenario "
            f"(p={result.most_likely_witness_probability:.6g}):"
        )
        print(result.most_likely_witness.pretty())
        if args.trace_json:
            print(trace_to_json(result.most_likely_witness), end="")
    if result.most_likely_counterexample is not None:
        failed = ", ".join(result.most_likely_counterexample) or "none"
        print(
            "most likely counterexample "
            f"(p={result.most_likely_counterexample_probability:.6g}): "
            f"failed links {{{failed}}}"
        )
    if result.verdict is ProbVerdict.HOLDS:
        return 0
    if result.verdict is ProbVerdict.FAILS:
        return 1
    return 2


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``aalwines serve`` argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="aalwines serve",
        description="Run the HTTP verification service — multi-worker "
        "pre-fork serving with a shared on-disk artifact store "
        "(see repro.service).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes sharing the listening socket (default 1; "
        "N>1 uses the pre-fork model, POSIX only)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="shared artifact store directory: workers reuse each "
        "other's compiled queries and see each other's job runs "
        "(strongly recommended with --workers)",
    )
    limits = parser.add_argument_group("per-client limits")
    limits.add_argument(
        "--rate-limit",
        action="store_true",
        help="enable the production rate-limit defaults (50 interactive "
        "requests/s with burst 100, 0.5 sweep submissions/s with burst "
        "4, 4 active job runs per client)",
    )
    limits.add_argument(
        "--interactive-rate",
        type=float,
        metavar="R",
        help="sustained interactive requests/second per client "
        "(implies rate limiting)",
    )
    limits.add_argument(
        "--sweep-rate",
        type=float,
        metavar="R",
        help="sustained POST /jobs submissions/second per client "
        "(implies rate limiting)",
    )
    limits.add_argument(
        "--max-active-jobs",
        type=int,
        metavar="N",
        help="max concurrently active job runs per client "
        "(implies rate limiting)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    parser.add_argument(
        "--no-observe",
        action="store_true",
        help="leave the observability registry off (disables /metrics "
        "content; endpoints still respond)",
    )
    return parser


def serve_main(argv: Optional[list] = None) -> int:
    """Entry point of the ``aalwines serve`` subcommand."""
    from repro.service.prefork import serve_forever
    from repro.service.ratelimit import RateLimitConfig

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    overrides = {
        "interactive_rate": args.interactive_rate,
        "sweep_rate": args.sweep_rate,
        "active_jobs_per_client": args.max_active_jobs,
    }
    overrides = {name: value for name, value in overrides.items() if value is not None}
    rate_limit = None
    if args.rate_limit or overrides:
        rate_limit = replace(RateLimitConfig.production_defaults(), **overrides)
    try:
        serve_forever(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store=args.store,
            rate_limit=rate_limit,
            verbose=args.verbose,
            observe=not args.no_observe,
        )
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "verify":
        # Explicit subcommand form; verification is also the default.
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile:
        with obs.recording():
            code = _verify_main(args)
            print()
            print(obs.summary())
            if args.profile_trace:
                obs.write_trace(args.profile_trace)
        return code
    return _verify_main(args)


def _verify_main(args: argparse.Namespace) -> int:
    try:
        network = _load_network(args)
        wrote_something = False
        if args.write_topology:
            with open(args.write_topology, "w", encoding="utf-8") as handle:
                handle.write(topology_to_xml(network.topology))
            wrote_something = True
        if args.write_routing:
            with open(args.write_routing, "w", encoding="utf-8") as handle:
                handle.write(routing_to_xml(network))
            wrote_something = True
        if args.write_json:
            with open(args.write_json, "w", encoding="utf-8") as handle:
                handle.write(network_to_json(network))
            wrote_something = True
        if args.prob_threshold is not None or args.sweep_prob:
            return _run_prob_sweep(network, args)
        if args.sweep_failures is not None:
            return _run_sweep(network, args)
        if args.queries_file:
            return _run_batch(network, args)
        if args.query is None:
            if wrote_something:
                return 0
            print(
                f"loaded {network!r}; give --query to verify "
                "or --write-* to convert",
                file=sys.stderr,
            )
            return 3
        engine = _engine_config(args).build(network)
        result = engine.verify(args.query, timeout_seconds=args.timeout)
    except VerificationTimeout:
        print("TIMEOUT", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    try:
        _print_result(result, args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly with the
        # verdict code, like a well-behaved Unix tool.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    if result.status is Status.SATISFIED:
        return 0
    if result.status is Status.UNSATISFIED:
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
