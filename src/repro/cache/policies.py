"""Eviction policies for the version-keyed caches.

A policy only decides *which* entry to evict when the store is over its byte
budget; the :class:`~repro.cache.store.CacheStore` owns the entries, the byte
accounting and the statistics.  Two policies are provided:

* :class:`LruPolicy` — classic least-recently-used, the baseline every cache
  paper compares against.
* :class:`GreedyDualPolicy` — a GreedyDual-Size variant that weighs the
  *benefit* of an entry (the bytes that would cross the simulated network if
  the entry had to be re-fetched) against its footprint.  Entries are scored
  ``H = L + benefit / size`` where ``L`` is the running inflation value; on
  eviction ``L`` rises to the victim's score, so entries that have not been
  touched for a long time eventually lose to fresh ones even if their
  per-byte benefit is high.  This is the right shape for the paper's
  retrieval path, where a coordinator record is tiny but saves a whole
  round-trip while a tuple batch is large but saves proportionally many
  bytes.

Both policies are deterministic (ties break by insertion order), keeping the
discrete-event simulation reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable


class EvictionPolicy:
    """Interface the cache store drives; implementations keep their own index."""

    def record_insert(self, key: Hashable, size: int, benefit: float) -> None:
        raise NotImplementedError

    def record_access(self, key: Hashable) -> None:
        raise NotImplementedError

    def record_remove(self, key: Hashable) -> None:
        raise NotImplementedError

    def choose_victim(self) -> Hashable:
        """Key to evict next; only called when at least one entry exists."""
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Evict the least recently used entry (inserts count as uses)."""

    def __init__(self) -> None:
        # dict preserves insertion order; re-inserting moves a key to the end.
        self._recency: dict[Hashable, None] = {}

    def record_insert(self, key: Hashable, size: int, benefit: float) -> None:
        self._recency.pop(key, None)
        self._recency[key] = None

    def record_access(self, key: Hashable) -> None:
        if key in self._recency:
            del self._recency[key]
            self._recency[key] = None

    def record_remove(self, key: Hashable) -> None:
        self._recency.pop(key, None)

    def choose_victim(self) -> Hashable:
        return next(iter(self._recency))


class GreedyDualPolicy(EvictionPolicy):
    """GreedyDual-Size over network-bytes-saved.

    Every entry carries a score ``H = L + benefit / size``; the entry with the
    lowest score is evicted and ``L`` is raised to that score (the classic
    "inflation" trick that ages untouched entries without per-access decay).
    Accessing an entry refreshes its score with the current ``L``.  The heap
    holds lazily invalidated snapshots; ``_scores`` is authoritative.
    """

    def __init__(self) -> None:
        self.inflation = 0.0
        self._scores: dict[Hashable, float] = {}
        self._value_density: dict[Hashable, float] = {}
        self._heap: list[tuple[float, int, Hashable]] = []
        self._counter = itertools.count()

    def _score(self, key: Hashable) -> float:
        return self.inflation + self._value_density[key]

    def _push(self, key: Hashable) -> None:
        score = self._score(key)
        self._scores[key] = score
        heapq.heappush(self._heap, (score, next(self._counter), key))
        # Every access pushes a fresh snapshot and stale ones are normally
        # drained in choose_victim; a store running under its budget never
        # evicts, so compact here once the garbage dominates, keeping the
        # heap O(live entries) on hit-heavy steady-state workloads.
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._scores):
            self._heap = [
                (score, next(self._counter), key)
                for key, score in self._scores.items()
            ]
            heapq.heapify(self._heap)

    def record_insert(self, key: Hashable, size: int, benefit: float) -> None:
        self._value_density[key] = benefit / max(1, size)
        self._push(key)

    def record_access(self, key: Hashable) -> None:
        if key in self._value_density:
            self._push(key)

    def record_remove(self, key: Hashable) -> None:
        self._scores.pop(key, None)
        self._value_density.pop(key, None)

    def choose_victim(self) -> Hashable:
        while self._heap:
            score, _seq, key = self._heap[0]
            if self._scores.get(key) != score:
                heapq.heappop(self._heap)  # stale snapshot
                continue
            self.inflation = max(self.inflation, score)
            return key
        raise LookupError("choose_victim called on an empty policy")


#: Policy names accepted by :class:`~repro.cache.config.CacheConfig`.
POLICY_LRU = "lru"
POLICY_GREEDY_DUAL = "greedy-dual"


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy from its configuration name."""
    if name == POLICY_LRU:
        return LruPolicy()
    if name == POLICY_GREEDY_DUAL:
        return GreedyDualPolicy()
    raise ValueError(f"unknown eviction policy {name!r}")

