"""Counters for every decision the resilience layer makes.

The observability satellite requires these to reconcile *exactly* with the
``rpc.hedges{outcome=...}`` / ``rpc.retries`` metrics the cluster registry
reports — so this object is the single source of truth and the registry
samples are derived views over it (see :mod:`repro.obs.counters`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.counters import Counters, counter

#: Hedge outcomes: the duplicate attempt won the race, lost it, or was never
#: sent because the retry budget or the target's breaker said no.
HEDGE_OUTCOMES = ("won", "lost", "suppressed_budget", "suppressed_breaker")


@dataclass
class ResilienceStats(Counters):
    """Per-node resilience counters (aggregated cluster-wide by the registry)."""

    #: Primary attempts issued through the hedged-failover helper.
    calls: int = counter()
    #: Failover re-attempts after a definite failure (refused / timed out).
    retries: int = counter("rpc.retries")
    #: Adaptive per-RPC timeouts that fired.
    timeouts: int = counter("rpc.adaptive_timeouts")
    #: Heartbeat probes sent and replies received (background, not per query).
    heartbeats_sent: int = counter("rpc.heartbeats_sent", per_query=False)
    heartbeats_received: int = counter("rpc.heartbeats_received", per_query=False)
    #: Calls skipped because the target's breaker was open.
    breaker_skips: int = counter("rpc.breaker_skips")
    hedges: dict[str, int] = counter(
        "rpc.hedges", tag="outcome",
        default_factory=lambda: {outcome: 0 for outcome in HEDGE_OUTCOMES},
    )

    def record_hedge(self, outcome: str) -> None:
        if outcome not in self.hedges:
            raise ValueError(f"unknown hedge outcome {outcome!r}")
        self.hedges[outcome] += 1

    @property
    def hedges_launched(self) -> int:
        return self.hedges["won"] + self.hedges["lost"]
