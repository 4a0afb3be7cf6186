"""Tests for the farm's content-hash artifact cache."""


from repro import obs
from repro.datasets.example import build_example_network
from repro.farm.cache import ArtifactCache, hash_text, worker_cache
from repro.io.json_format import network_to_json


def test_hash_text_is_stable_and_content_keyed():
    network = build_example_network()
    payload = network_to_json(network)
    assert hash_text(payload) == hash_text(payload)
    assert hash_text(payload) != hash_text(payload + " ")
    assert len(hash_text(payload)) == 64  # sha256 hex


class TestNetworkMemoization:
    def test_builds_once(self):
        cache = ArtifactCache()
        builds = []

        def build():
            builds.append(1)
            return build_example_network()

        with obs.recording():
            first = cache.network("k1", build)
            second = cache.network("k1", build)
            assert obs.counter("farm.cache.network_misses") == 1
            assert obs.counter("farm.cache.network_hits") == 1
        assert first is second
        assert len(builds) == 1

    def test_distinct_keys_build_separately(self):
        cache = ArtifactCache()
        with obs.recording():
            a = cache.network("a", build_example_network)
            b = cache.network("b", build_example_network)
            assert obs.counter("farm.cache.network_misses") == 2
        assert a is not b

    def test_lru_eviction(self):
        cache = ArtifactCache(max_networks=2)
        with obs.recording():
            cache.network("a", build_example_network)
            cache.network("b", build_example_network)
            cache.network("a", build_example_network)  # refresh a
            cache.network("c", build_example_network)  # evicts b (oldest)
            assert obs.counter("farm.cache.evictions") == 1
            cache.network("a", build_example_network)
            assert obs.counter("farm.cache.network_hits") == 2  # a stayed cached


class TestEngineMemoization:
    def test_engine_reused_per_config(self):
        from repro.farm.pool import EngineConfig

        cache = ArtifactCache()
        network = build_example_network()
        dual = EngineConfig()
        weighted = EngineConfig(weight="failures")
        with obs.recording():
            e1 = cache.engine("k", dual, lambda: dual.build(network))
            e2 = cache.engine("k", dual, lambda: dual.build(network))
            e3 = cache.engine("k", weighted, lambda: weighted.build(network))
            assert obs.counter("farm.cache.engine_hits") == 1
            assert obs.counter("farm.cache.engine_misses") == 2
        assert e1 is e2
        assert e1 is not e3

    def test_triage_selection_is_part_of_the_engine_key(self):
        """Regression: configs differing only in the triage mode must
        occupy distinct engine slots. A cache that ignored ``triage=``
        would hand a worker asked for the full pipeline an engine that
        answers from triage alone."""
        from repro.farm.pool import EngineConfig

        cache = ArtifactCache()
        network = build_example_network()
        full = EngineConfig()
        only = EngineConfig(triage="only")
        assert full != only  # frozen dataclass equality keys the cache
        with obs.recording():
            e1 = cache.engine("k", full, lambda: full.build(network))
            e2 = cache.engine("k", only, lambda: only.build(network))
            assert e1 is not e2
            assert e1.triage == "off" and e2.triage == "only"
            assert cache.engine("k", full, lambda: full.build(network)) is e1
            assert cache.engine("k", only, lambda: only.build(network)) is e2
            assert obs.counter("farm.cache.engine_misses") == 2
            assert obs.counter("farm.cache.engine_hits") == 2

    def test_clear_resets_everything(self):
        cache = ArtifactCache()
        first = cache.network("k", build_example_network)
        cache.clear()
        assert len(cache) == 0
        builds = []

        def build():
            builds.append(1)
            return build_example_network()

        assert cache.network("k", build) is not first
        assert builds == [1]  # the next lookup rebuilt


def test_worker_cache_is_a_process_singleton():
    assert worker_cache() is worker_cache()
    assert isinstance(worker_cache(), ArtifactCache)


class TestObservedCounters:
    """The cache reports hits/misses to the observability registry."""

    def test_hit_and_miss_counters(self):
        cache = ArtifactCache()
        with obs.recording():
            cache.network("k", build_example_network)
            cache.network("k", build_example_network)
            assert obs.counter("farm.cache.network_misses") == 1
            assert obs.counter("farm.cache.network_hits") == 1

    def test_repeated_sweep_records_cache_hits(self):
        """One sweep, same variant, many queries → the engine compiles
        once and every later job is a cache hit. Before the farm's
        chunk planner learned to split single-variant groups, the
        equivalent multi-worker sweep also silently serialized on one
        worker — tests/obs/test_farm_merge.py pins that fix."""
        from repro.farm.pool import FarmJob, run_jobs

        network = build_example_network()
        payload = network_to_json(network)
        key = hash_text(payload)
        jobs = [
            FarmJob(name=f"q{i}", query="<ip> [.#v0] .* [v3#.] <ip> 0", network_key=key)
            for i in range(5)
        ]
        worker_cache().clear()
        with obs.recording():
            results = run_jobs(jobs, {key: payload}, max_workers=1)
            assert all(item.outcome == "satisfied" for item in results)
            assert obs.counter("farm.cache.engine_misses") == 1
            assert obs.counter("farm.cache.engine_hits") >= 1
            assert obs.counter("farm.cache.engine_hits") == len(jobs) - 1
        worker_cache().clear()
