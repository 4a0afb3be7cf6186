"""Shared artifact cache for the verification farm.

A what-if sweep turns one network into hundreds of jobs, and many jobs
share setup work: the same degraded network variant appears once per
query of the suite, and every job on a variant needs an engine whose
:class:`~repro.verification.compiler.QueryCompiler` has computed the
same label sets. The farm keys that work by *content hash* — the
SHA-256 of the network's single-file JSON — so any process holding the
same bytes resolves to the same cache slot, and N workers do the
expensive build/compile once per distinct artifact instead of once per
job.

The cache is deliberately small and in-memory: networks and engines
are pure deterministic functions of their inputs, so eviction (LRU,
bounded) is always safe — a re-miss just rebuilds.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Tuple

from repro import obs
from repro.model.network import MplsNetwork


def hash_text(text: str) -> str:
    """Content key of a serialized artifact (SHA-256 hex digest)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactCache:
    """Content-hash-keyed memoization of built networks and engines.

    ``network(key, build)`` memoizes the result of ``build()`` under
    ``key`` (a :func:`hash_text` digest); ``engine(key, config,
    network)`` memoizes one verification engine per (network, engine
    config) pair, which is what makes per-worker engine reuse work: the
    compiler's label-set analysis is paid once per distinct pair.

    Thread-safe; the builder callable runs outside the lock would be
    nicer for concurrency but builders are deterministic, so holding
    the lock keeps the "build once" guarantee simple and exact.
    """

    def __init__(self, max_networks: int = 64, max_engines: int = 256) -> None:
        self.max_networks = max_networks
        self.max_engines = max_engines
        self._networks: "OrderedDict[str, MplsNetwork]" = OrderedDict()
        self._engines: "OrderedDict[Tuple[str, Hashable], object]" = OrderedDict()
        self._lock = threading.Lock()

    def network(self, key: str, build: Callable[[], MplsNetwork]) -> MplsNetwork:
        """The network stored under ``key``, building it on first use."""
        with self._lock:
            cached = self._networks.get(key)
            if cached is not None:
                self._networks.move_to_end(key)
                obs.add("farm.cache.network_hits")
                return cached
            obs.add("farm.cache.network_misses")
            network = build()
            self._networks[key] = network
            while len(self._networks) > self.max_networks:
                self._networks.popitem(last=False)
                obs.add("farm.cache.evictions")
            return network

    def engine(
        self,
        key: str,
        config: Hashable,
        build: Callable[[], object],
    ) -> object:
        """The engine for (network ``key``, ``config``), built on first use."""
        slot = (key, config)
        with self._lock:
            cached = self._engines.get(slot)
            if cached is not None:
                self._engines.move_to_end(slot)
                obs.add("farm.cache.engine_hits")
                return cached
            obs.add("farm.cache.engine_misses")
            engine = build()
            self._engines[slot] = engine
            while len(self._engines) > self.max_engines:
                self._engines.popitem(last=False)
                obs.add("farm.cache.evictions")
            return engine

    def clear(self) -> None:
        """Drop every cached artifact."""
        with self._lock:
            self._networks.clear()
            self._engines.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._networks) + len(self._engines)


#: The per-process cache shared by every farm worker function in this
#: process (each pool worker process gets its own copy).
_PROCESS_CACHE = ArtifactCache()


def worker_cache() -> ArtifactCache:
    """This process's shared :class:`ArtifactCache`."""
    return _PROCESS_CACHE
