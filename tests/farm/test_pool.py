"""Tests for the farm worker pool: parity, containment, crashes."""

import concurrent.futures
import functools
import gc
import multiprocessing
import os
import threading
import weakref

import pytest

from repro.datasets.example import EXAMPLE_QUERIES, build_example_network
from repro.errors import FarmError, VerificationError, WeightError
from repro.farm.pool import EngineConfig, FarmJob, execute_job, run_jobs
from repro.farm.scenarios import link_audit_scenarios, scenarios_to_jobs
from repro.farm.store import hash_text
from repro.io.json_format import network_to_json
from repro.verification.engine import dual_engine, weighted_engine


#: Marks a test whose pool workers must inherit the test's patches.
FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patch only under fork",
)


@pytest.fixture(scope="module")
def network():
    return build_example_network()


@pytest.fixture()
def audit(network):
    return link_audit_scenarios(network, [EXAMPLE_QUERIES[0]])


@pytest.fixture(scope="module")
def payloads(network):
    payload = network_to_json(network)
    return {hash_text(payload): payload}


def _jobs_for(payloads, queries, **kwargs):
    (key,) = payloads
    return [
        FarmJob(name=name, query=text, network_key=key, **kwargs)
        for name, text in queries
    ]


class TestEngineConfig:
    def test_from_engine_round_trips_settings(self, network):
        engine = weighted_engine(network, weight="hops, failures + 3*tunnels")
        config = EngineConfig.from_engine(engine)
        assert config.weight == "hops, failures + 3*tunnels"
        rebuilt = config.build(network)
        assert rebuilt.backend == engine.backend
        assert rebuilt.weight_vector == engine.weight_vector

    def test_rejects_unpicklable_distance_callable(self, network):
        engine = dual_engine(network, distance_of=lambda link: 1)
        with pytest.raises(FarmError, match="distance_of"):
            EngineConfig.from_engine(engine)

    @pytest.mark.parametrize(
        "settings, error",
        [
            ({"weight": "bogus"}, WeightError),
            ({"triage": "sometimes"}, VerificationError),
            ({"backend": "moped", "weight": "hops"}, VerificationError),
        ],
    )
    def test_rejects_settings_no_engine_accepts(self, settings, error):
        """The error a worker's engine build would raise, raised once
        when the sweep is built instead of once per job."""
        with pytest.raises(error):
            EngineConfig(**settings)

    def test_from_names_maps_dual_to_poststar(self):
        assert EngineConfig.from_names() == EngineConfig()
        assert EngineConfig.from_names("dual").backend == "poststar"
        for name in ("moped", "poststar", "prestar"):
            assert EngineConfig.from_names(name).backend == name
        config = EngineConfig.from_names(
            "prestar", "hops", "auto", use_reductions=False
        )
        assert config == EngineConfig(
            backend="prestar", use_reductions=False, weight="hops", triage="auto"
        )

    def test_front_ends_share_one_vocabulary(self):
        """argparse choices and the server's schema are the engine
        module's lists, and both front ends build the same config."""
        from repro.cli import _engine_config, build_parser
        from repro.server import FIELDS
        from repro.verification.engine import ENGINE_NAMES, TRIAGE_MODES

        parser = build_parser()
        choices = {action.dest: action.choices for action in parser._actions}
        assert tuple(choices["engine"]) == ENGINE_NAMES
        assert tuple(choices["triage"]) == TRIAGE_MODES
        for fields in (FIELDS["/verify"], FIELDS["/jobs"]):
            by_name = {field.name: field for field in fields}
            assert by_name["engine"].choices == ENGINE_NAMES
            assert by_name["triage"].choices == TRIAGE_MODES
        args = parser.parse_args(
            ["--engine", "dual", "--weight", "hops", "--triage", "auto"]
        )
        assert _engine_config(args) == EngineConfig.from_names("dual", "hops", "auto")


class TestExecuteJob:
    def test_runs_one_job_in_process(self, network, payloads):
        (job,) = _jobs_for(payloads, [("phi0", EXAMPLE_QUERIES[0][1])])
        item = execute_job(job, payloads, {})
        assert item.outcome == "satisfied"
        assert item.result is not None

    def test_unknown_network_key_is_contained(self):
        job = FarmJob(name="q", query="<ip> . <ip> 0", network_key="deadbeef")
        results = run_jobs([job], networks={}, max_workers=1)
        assert results[0].outcome == "error"
        assert "no network registered" in results[0].error


class TestInProcessRuns:
    """``max_workers <= 1`` resolves networks from the run's own
    arguments; the pool's module globals belong to pool workers."""

    def test_leaves_the_pool_globals_alone(self, audit, monkeypatch):
        import repro.farm.pool as pool

        monkeypatch.setattr(pool, "_NETWORK_PAYLOADS", {})
        monkeypatch.setattr(pool, "_PREBUILT", {})
        jobs, payloads, prebuilt = scenarios_to_jobs(audit)
        results = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
        assert all(item.outcome != "error" for item in results)
        assert pool._NETWORK_PAYLOADS == {}
        assert pool._PREBUILT == {}

    def test_concurrent_runs_over_the_same_variants(self, audit):
        """A run that finishes first takes nothing the other still needs."""
        first_done = threading.Event()
        results = {}

        def run(label, progress=None):
            jobs, payloads, prebuilt = scenarios_to_jobs(audit)
            results[label] = run_jobs(
                jobs, payloads, max_workers=1, progress=progress, prebuilt=prebuilt
            )

        def pause_after_first_job(index, _total, _item):
            if index == 0:
                first_done.wait(60)

        second = threading.Thread(target=run, args=("second", pause_after_first_job))
        second.start()
        run("first")
        first_done.set()
        second.join(120)
        assert not second.is_alive()
        outcomes = {
            label: [item.outcome for item in items] for label, items in results.items()
        }
        assert len(outcomes["first"]) == len(audit)
        assert "error" not in outcomes["first"]
        assert outcomes["second"] == outcomes["first"]

    def test_no_variant_outlives_its_run(self):
        """The run keeps its items, but no network or engine: once the
        caller drops its scenarios, jobs and networks, every variant
        network is garbage."""
        network = build_example_network()
        # Variants of their own content, so no artifact kept under an
        # equal content key can stand in for them.
        network.topology.name = "lifetime-probe"
        scenarios = link_audit_scenarios(network, [EXAMPLE_QUERIES[0]])
        variants = [weakref.ref(scenario.network) for scenario in scenarios]
        assert len(variants) == 8
        jobs, payloads, prebuilt = scenarios_to_jobs(scenarios)
        items = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
        del scenarios, jobs, payloads, prebuilt
        gc.collect()
        assert [item.outcome for item in items].count("error") == 0
        assert [ref for ref in variants if ref() is not None] == []


class TestNetworkHandOff:
    """A run's jobs take its pre-built variants; only workers without
    them (``spawn``/``forkserver``) build from the initializer payloads."""

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_prebuilt_variants_are_not_deserialized(
        self, audit, monkeypatch, workers
    ):
        def refuse(_payload):
            raise FarmError("a pre-built variant was deserialized")

        monkeypatch.setattr("repro.io.json_format.network_from_json", refuse)
        jobs, payloads, prebuilt = scenarios_to_jobs(audit)
        results = run_jobs(jobs, payloads, max_workers=workers, prebuilt=prebuilt)
        assert [item.error for item in results if item.outcome == "error"] == []

    def test_spawned_workers_build_from_the_payloads(self, audit, monkeypatch):
        spawning = functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn"),
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)
        jobs, payloads, prebuilt = scenarios_to_jobs(audit)
        serial = run_jobs(jobs, payloads, max_workers=1, prebuilt=prebuilt)
        spawned = run_jobs(jobs, payloads, max_workers=2, prebuilt=prebuilt)
        outcomes = [item.outcome for item in serial]
        assert "error" not in outcomes
        assert [item.outcome for item in spawned] == outcomes


class TestParallelParity:
    def test_verdicts_match_serial(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        serial = run_jobs(jobs, payloads, max_workers=1)
        parallel = run_jobs(jobs, payloads, max_workers=2)
        assert [(i.name, i.outcome) for i in serial] == [
            (i.name, i.outcome) for i in parallel
        ]

    def test_progress_reports_every_index(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        seen = []
        run_jobs(
            jobs,
            payloads,
            max_workers=2,
            progress=lambda index, total, item: seen.append((index, total)),
        )
        assert sorted(index for index, _ in seen) == [0, 1, 2, 3, 4]
        assert all(total == 5 for _, total in seen)

    def test_bad_query_becomes_error_item_in_workers(self, payloads):
        jobs = _jobs_for(
            payloads,
            [("bad", "<ip .* garbage"), ("good", EXAMPLE_QUERIES[0][1])],
        )
        results = run_jobs(jobs, payloads, max_workers=2)
        assert results[0].outcome == "error"
        assert results[1].outcome == "satisfied"

    def test_cancellation_skips_remaining(self, payloads):
        jobs = _jobs_for(payloads, list(EXAMPLE_QUERIES))
        fired = []

        def cancelled():
            return bool(fired)

        def progress(index, total, item):
            fired.append(index)

        results = run_jobs(
            jobs, payloads, max_workers=1, progress=progress, cancelled=cancelled
        )
        assert results[0] is not None
        assert results[-1] is None  # later jobs never ran


class _CrashingConfig(EngineConfig):
    """An engine config whose build kills the worker process outright."""

    def build(self, network):
        os._exit(13)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the test class",
)
def test_worker_crash_surfaces_as_error_items(payloads):
    (key,) = payloads
    jobs = [
        FarmJob(
            name=f"crash{i}",
            query=EXAMPLE_QUERIES[0][1],
            network_key=key,
            config=_CrashingConfig(),
        )
        for i in range(3)
    ]
    results = run_jobs(jobs, payloads, max_workers=2)
    assert all(item is not None for item in results)
    assert all(item.outcome == "error" for item in results)
    assert any("worker failed" in item.error for item in results)


# ----------------------------------------------------------------------
# mid-sweep crash containment
# ----------------------------------------------------------------------

#: Worker-local build counter for the mid-sweep crash injection; each
#: forked worker starts from the parent's (zero) value.
_MID_SWEEP_BUILDS = 0


class _MidSweepCrashConfig(EngineConfig):
    """A config that kills its worker *mid-sweep*: the first variant
    engines build and solve normally, then one build never returns —
    the tightest crash point injectable without reaching into the
    solver."""

    def build(self, network):
        global _MID_SWEEP_BUILDS
        _MID_SWEEP_BUILDS += 1
        if _MID_SWEEP_BUILDS >= 3:
            os._exit(13)
        return super().build(network)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the test class",
)
def test_worker_crash_mid_sweep_is_contained(network):
    """A worker killed mid-variant must surface as error items in the
    run snapshot, and the run must still finish."""
    from repro.farm.jobs import JobManager, RunPlan
    from repro.farm.scenarios import link_audit_scenarios, scenarios_to_jobs

    scenarios = link_audit_scenarios(network, [("phi0", EXAMPLE_QUERIES[0][1])])
    crashing = _MidSweepCrashConfig(triage="off")
    jobs, payloads, prebuilt = scenarios_to_jobs(scenarios, config=crashing)

    manager = JobManager()
    run = manager.submit(
        len(jobs), lambda: RunPlan(jobs, payloads, prebuilt), max_workers=2
    )
    assert run.wait(180)
    snapshot = run.snapshot()
    assert snapshot["state"] == "done"
    assert snapshot["summary"]["errors"] >= 1  # the crash is reported
    assert any(
        item is not None
        and item.outcome == "error"
        and "worker failed" in item.error
        for item in run.items
    )
