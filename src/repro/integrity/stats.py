"""Counters for detection, quarantine, repair and scrub activity.

Declared through :mod:`repro.obs.counters`, so the counters reconcile
exactly with the metrics registry and fold into scenario reports and query
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.counters import Counters, counter


@dataclass
class IntegrityStats(Counters):
    """Live counters of one node's (or the cluster-level scrubber's) activity."""

    #: Detections by verification site: ``tuple``, ``page``, ``scan``,
    #: ``coordinator``, ``cache``, ``replication``, ``scrub``.
    detected: dict[str, int] = counter(
        "integrity.detected", tag="site", default_factory=dict
    )
    #: Repairs by the path that back-filled verified bytes: ``failover``
    #: (read-repair through the replica chase), ``replication`` (anti-entropy
    #: re-copy), ``scrub`` (digest-exchange divergence repair).
    repaired: dict[str, int] = counter(
        "integrity.repaired", tag="source", default_factory=dict
    )
    #: Local copies failed loudly and removed pending repair.
    quarantined: int = counter("integrity.quarantined")
    #: Keys for which no verified copy existed anywhere in the replica group.
    unrepairable: int = counter("integrity.unrepairable", per_query=False)
    #: Scrub rounds executed.
    scrub_rounds: int = counter("scrub.rounds", per_query=False)
    #: Digest entries exchanged by the scrubber.
    scrub_digests: int = counter("scrub.digests", per_query=False)
    #: Scrub wire overhead: digest bytes plus repair-copy bytes.
    scrub_bytes: int = counter("scrub.bytes", per_query=False)

    def note_detected(self, site: str) -> None:
        self.detected[site] = self.detected.get(site, 0) + 1

    def note_repaired(self, source: str) -> None:
        self.repaired[source] = self.repaired.get(source, 0) + 1

    @property
    def detected_total(self) -> int:
        return sum(self.detected.values())

    @property
    def repaired_total(self) -> int:
        return sum(self.repaired.values())

    def to_dict(self) -> dict:
        return {
            **self.snapshot(),
            "detected_total": self.detected_total,
            "repaired_total": self.repaired_total,
        }
