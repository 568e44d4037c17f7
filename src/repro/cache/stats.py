"""Hit/miss/byte-saved counters shared by every cache tier.

The counters deliberately mirror what the traffic benchmarks report: a *hit*
records the ``benefit`` of the entry — the bytes that would have crossed the
simulated network on a miss — so ``bytes_saved`` is directly comparable to
the :class:`~repro.net.simnet.TrafficMeter` deltas the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.counters import Counters, counter


@dataclass
class CacheStats(Counters):
    """Counters for one cache store (or an aggregate over several)."""

    hits: int = counter("cache.hits")
    misses: int = counter("cache.misses")
    insertions: int = counter("cache.insertions")
    evictions: int = counter("cache.evictions")
    invalidations: int = counter("cache.invalidations")
    rejected: int = counter("cache.rejected")
    bytes_saved: int = counter("cache.bytes_saved")
    #: Per-kind hit/miss breakdown, keyed by the entry-kind tag (the first
    #: element of namespaced cache keys: "coord", "page", "scan", ...).
    hits_by_kind: dict[str, int] = counter("cache.hits", tag="kind", default_factory=dict)
    misses_by_kind: dict[str, int] = counter("cache.misses", tag="kind", default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def record_hit(self, kind: str, benefit: float) -> None:
        self.hits += 1
        self.bytes_saved += int(benefit)
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1

    def record_miss(self, kind: str) -> None:
        self.misses += 1
        self.misses_by_kind[kind] = self.misses_by_kind.get(kind, 0) + 1

    def to_dict(self) -> dict:
        return {**self.snapshot(), "hit_rate": self.hit_rate}
