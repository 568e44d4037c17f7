"""Per-node resilience facade: health tracking, hedged failover, heartbeats.

:class:`NodeResilience` hangs off one node's RPC endpoint (as
``node.services["resilience"]``) and observes *every* call the node makes —
reply times feed per-peer latency estimators, failures feed per-pair circuit
breakers — so health knowledge accrues from organic traffic for free.  On
top of that it offers the two mechanisms the read paths opt into:

* :meth:`rank_replicas` — stable health-first ordering of a replica
  candidate list.  When every candidate is healthy the order is unchanged,
  which is what keeps a resilience-enabled run on a healthy cluster
  row-identical to a disabled one.
* :meth:`failover_call` — the hedged sequential-failover engine for
  idempotent read RPCs: adaptive per-attempt timeouts, one budgeted hedge
  fired after the peer's observed p95, first reply wins, losers cancelled,
  definite failures advancing to the next candidate.

Heartbeats are *windowed*, not free-running: the simulator's ``run()``
drains the event queue, so a self-rescheduling timer would keep the virtual
clock alive forever.  :meth:`start_heartbeats` schedules a bounded probe
train over an explicit horizon instead — the scenario and bench drivers
start one over their workload window.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Mapping, Sequence

from ..net.simnet import SimNode
from ..net.transport import RpcEndpoint, rpc_endpoint
from .breaker import OPEN, CircuitBreaker, RetryBudget
from .config import ResilienceConfig
from .latency import LatencyEstimator
from .stats import ResilienceStats
from .suspicion import PeerHealth

#: RPC method of the resilience layer's own latency-measuring heartbeat
#: (the transport's ``rpc.ping`` detects silence but does not expose RTTs).
PING_METHOD = "resilience.ping"


class NodeResilience:
    """Resilience state and policies for one simulated node."""

    def __init__(
        self,
        node: SimNode,
        config: ResilienceConfig | None = None,
        peers: Callable[[], Sequence[str]] | None = None,
    ) -> None:
        self.node = node
        self.network = node.network
        self.address = node.address
        self.config = config or ResilienceConfig()
        self.rpc: RpcEndpoint = rpc_endpoint(node)
        self.stats = ResilienceStats()
        self.retry_budget = RetryBudget(
            ratio=self.config.retry_budget_ratio,
            cap=self.config.retry_budget_cap,
            initial=self.config.retry_budget_initial,
        )
        self._peers = peers or (lambda: ())
        self._estimators: dict[str, LatencyEstimator] = {}
        self._health: dict[str, PeerHealth] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Peers currently held by the latency-outlier hysteresis band (see
        #: :meth:`_latency_suspect`).
        self._suspected: set[str] = set()
        #: Horizon (absolute simulated time) up to which heartbeat probes are
        #: scheduled; silence-based suspicion is only meaningful inside it.
        self._heartbeats_until: float | None = None
        self.rpc.reply_observer = self._observe_reply
        self.rpc.failure_observer = self._observe_failure
        self.rpc.register(PING_METHOD, self._on_ping)
        node.services["resilience"] = self

    # -- per-peer state accessors -----------------------------------------------

    def estimator(self, peer: str) -> LatencyEstimator:
        estimator = self._estimators.get(peer)
        if estimator is None:
            estimator = self._estimators[peer] = LatencyEstimator(
                alpha=self.config.ewma_alpha, window=self.config.quantile_window
            )
        return estimator

    def health(self, peer: str) -> PeerHealth:
        health = self._health.get(peer)
        if health is None:
            health = self._health[peer] = PeerHealth(
                alpha=self.config.ewma_alpha,
                expected_interval=self.config.heartbeat_interval,
            )
        return health

    def breaker(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = self._breakers[peer] = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            )
        return breaker

    # -- observation (endpoint hooks) --------------------------------------------

    def _observe_reply(self, peer: str, rtt: float) -> None:
        self.estimator(peer).observe(rtt)
        self.health(peer).heartbeat(self.network.now)
        self.breaker(peer).on_success(self.network.now)

    def _observe_failure(self, peer: str, kind: str) -> None:
        if kind == "timeout":
            self.stats.timeouts += 1
        self.breaker(peer).on_failure(self.network.now)

    # -- adaptive policies --------------------------------------------------------

    def call_timeout(self, peer: str) -> float:
        """Adaptive timeout for one RPC to ``peer`` (seconds).

        Normally ``timeout_multiplier`` times the peer's own observed tail
        latency.  A *consistently* slow peer would inflate that bound together
        with its slowness and never get cut off, so once the peer is a latency
        outlier against the fleet (:meth:`_latency_suspect`) the timeout is
        derived from the fleet's median tail instead — the degraded peer is
        given the patience a healthy one would deserve, no more.
        """
        estimator = self._estimators.get(peer)
        if estimator is None or estimator.count == 0:
            return self.config.default_timeout
        quantile = estimator.quantile(self.config.timeout_quantile)
        if self._latency_suspect(peer):
            reference = self._fleet_reference_quantile(exclude=peer)
            if reference is not None:
                quantile = min(quantile, reference)
        timeout = quantile * self.config.timeout_multiplier
        return min(self.config.max_timeout, max(self.config.min_timeout, timeout))

    def _fleet_reference_quantile(self, exclude: str) -> float | None:
        """Median of the other peers' tail-latency estimates (None if < 3)."""
        tails = sorted(
            est.quantile(self.config.timeout_quantile)
            for address, est in self._estimators.items()
            if address != exclude and est.count >= self.config.min_latency_samples
        )
        if len(tails) < 3:
            return None
        return tails[len(tails) // 2]

    def hedge_delay(self, peer: str) -> float:
        """How long to let ``peer``'s attempt run before hedging elsewhere."""
        estimator = self._estimators.get(peer)
        if estimator is None or estimator.count == 0:
            return self.config.default_hedge_delay
        quantile = estimator.quantile(self.config.hedge_quantile)
        return max(self.config.min_hedge_delay, quantile)

    def suspicion(self, peer: str) -> float:
        """Current phi-accrual suspicion level for ``peer``."""
        health = self._health.get(peer)
        if health is None:
            return 0.0
        return health.phi(self.network.now)

    def _latency_suspect(self, peer: str) -> bool:
        """Whether ``peer`` answers, but markedly slower than its siblings.

        Two-threshold hysteresis: suspicion *enters* at
        ``latency_suspect_ratio`` and only *exits* once the ratio falls below
        half of it.  Without the band, a suspected (and therefore avoided)
        peer keeps answering cheap control RPCs quickly, its smoothed latency
        decays toward the enter threshold, and the verdict flaps — sending a
        slice of real traffic back into the gray node on every oscillation.
        """
        estimator = self._estimators.get(peer)
        if estimator is None or estimator.count < self.config.min_latency_samples:
            return False
        means = sorted(
            est.mean
            for est in self._estimators.values()
            if est.count >= self.config.min_latency_samples
        )
        if len(means) < 3:
            return False  # too few reference peers to call one an outlier
        median = means[len(means) // 2]
        if median <= 0:
            return False
        ratio = estimator.mean / median
        if peer in self._suspected:
            if ratio < max(1.0, self.config.latency_suspect_ratio / 2):
                self._suspected.discard(peer)
                return False
            return True
        if ratio >= self.config.latency_suspect_ratio:
            self._suspected.add(peer)
            return True
        return False

    def healthy(self, peer: str, now: float | None = None) -> bool:
        """Health verdict used for replica ranking (never blocks a last resort)."""
        now = self.network.now if now is None else now
        breaker = self._breakers.get(peer)
        if breaker is not None and breaker.state(now) == OPEN:
            return False
        if self._heartbeats_until is not None and now <= (
            self._heartbeats_until + 2 * self.config.heartbeat_interval
        ):
            # Silence is only evidence while we are actively probing.
            health = self._health.get(peer)
            if (
                health is not None
                and health.phi(now) >= self.config.suspicion_threshold
            ):
                return False
        return not self._latency_suspect(peer)

    def rank_replicas(self, targets: Iterable[str]) -> list[str]:
        """Stable health-first ordering: healthy candidates keep their order.

        With every candidate healthy the result equals the input — replica
        preference only changes when there is evidence against a peer, which
        is what keeps healthy-cluster runs identical to resilience-off runs.
        """
        now = self.network.now
        healthy: list[str] = []
        suspect: list[str] = []
        for target in targets:
            if target == self.address or self.healthy(target, now):
                healthy.append(target)
            else:
                suspect.append(target)
        return healthy + suspect

    def select_target(self, targets: Sequence[str]) -> str:
        """First healthy candidate (or the first, when all are suspect)."""
        ranked = self.rank_replicas(targets)
        return ranked[0]

    # -- hedged sequential failover ----------------------------------------------

    def failover_call(
        self,
        targets: Sequence[str],
        method: str,
        payload: Mapping[str, object],
        size: int,
        on_reply: Callable[[str, Mapping[str, object]], None],
        on_exhausted: Callable[[str | None], None] | None = None,
        hedge: bool | None = None,
    ) -> None:
        """Call ``method`` against ``targets`` in order until one replies.

        Strictly for idempotent reads: attempts may overlap (one hedge) and
        time out adaptively, so a non-idempotent handler could observe
        duplicate executions.  ``on_reply(src, body)`` fires exactly once,
        for the first reply; ``on_exhausted(last_peer)`` fires instead when
        every candidate definitively failed.
        """
        ordered = list(dict.fromkeys(targets))
        if not ordered:
            if on_exhausted is not None:
                on_exhausted(None)
            return
        allow_hedge = self.config.hedging if hedge is None else hedge
        _FailoverCall(
            self, ordered, method, payload, size, on_reply, on_exhausted, allow_hedge
        ).start()

    def chase_call(
        self,
        targets: Sequence[str],
        method: str,
        payload: Mapping[str, object],
        size: int,
        accept: Callable[[str, Mapping[str, object]], bool],
        on_exhausted: Callable[[], None],
        hedge: bool | None = None,
    ) -> None:
        """Hedged failover for searches whose replies may be application misses.

        The storage layer's exhaustive-search pattern ("a replica answering
        'not here' says nothing about the others") needs more than first-
        reply-wins: ``accept(src, body)`` returns True to consume the reply
        and stop, or False to send the chase on to the remaining candidates.
        Candidates are re-ranked by health at each step; every step removes
        the replier from the pool, so the chase always terminates.
        """

        def chase(pool: list[str]) -> None:
            if not pool:
                on_exhausted()
                return

            def on_reply(src: str, body: Mapping[str, object]) -> None:
                if accept(src, body):
                    return
                chase([target for target in pool if target != src])

            self.failover_call(
                self.rank_replicas(pool),
                method,
                payload,
                size,
                on_reply,
                on_exhausted=lambda _addr: on_exhausted(),
                hedge=hedge,
            )

        chase(list(dict.fromkeys(targets)))

    # -- heartbeats ---------------------------------------------------------------

    def start_heartbeats(self, duration: float) -> int:
        """Schedule heartbeat probe rounds over the next ``duration`` seconds.

        Returns the number of rounds scheduled.  The first round is staggered
        by a stable per-address fraction of the interval, so a cluster-wide
        start does not synchronise every node's probe burst onto the same
        instant (the same decorrelation trick as the retransmit jitter).
        """
        interval = self.config.heartbeat_interval
        stagger = interval * ((zlib.crc32(self.address.encode()) % 997) / 997.0)
        incarnation = self.node.incarnation
        rounds = 0
        at = stagger
        while at < duration:
            self.network.schedule(at, lambda inc=incarnation: self._probe_round(inc))
            rounds += 1
            at += interval
        horizon = self.network.now + duration
        if self._heartbeats_until is None or horizon > self._heartbeats_until:
            self._heartbeats_until = horizon
        return rounds

    def _probe_round(self, incarnation: int) -> None:
        if not self.node.alive or self.node.incarnation != incarnation:
            return  # probes scheduled by a previous life of this process
        for peer in self._peers():
            if peer == self.address:
                continue
            self.stats.heartbeats_sent += 1
            self.rpc.call(
                peer,
                PING_METHOD,
                {},
                0,
                on_reply=lambda body, p=peer: self._on_pong(p),
                timeout=self.call_timeout(peer),
            )

    def _on_pong(self, peer: str) -> None:
        # RTT and arrival bookkeeping already happened in the reply observer.
        self.stats.heartbeats_received += 1

    def _on_ping(self, src, payload, respond) -> None:
        # Representative work (see ResilienceConfig.probe_cpu_cost): the pong
        # is held until the node's CPU queue — including this probe's own
        # charge — would have drained, so a CPU-starved peer answers probes as
        # slowly as it serves data.  A bare pong (cost 0) would be answered at
        # full speed by exactly the gray peers this layer exists to catch.
        if not self.config.probe_cpu_cost:
            respond({}, 0)
            return
        self.node.charge_cpu(self.config.probe_cpu_cost)
        delay = self.node.cpu_queue_delay
        if delay > 0:
            self.network.schedule(delay, lambda: respond({}, 0))
        else:
            respond({}, 0)

    # -- lifecycle / introspection -------------------------------------------------

    def reset_volatile(self) -> None:
        """Forget learned peer state after a crash-restart (stats survive)."""
        self._estimators.clear()
        self._health.clear()
        self._breakers.clear()
        self._suspected.clear()
        self.retry_budget.reset()
        self._heartbeats_until = None

    def breaker_states(self) -> dict[str, str]:
        now = self.network.now
        return {peer: breaker.state(now) for peer, breaker in sorted(self._breakers.items())}


class _FailoverCall:
    """State machine for one hedged sequential-failover request."""

    def __init__(
        self,
        resilience: NodeResilience,
        targets: list[str],
        method: str,
        payload: Mapping[str, object],
        size: int,
        on_reply: Callable[[str, Mapping[str, object]], None],
        on_exhausted: Callable[[str | None], None] | None,
        allow_hedge: bool,
    ) -> None:
        self.res = resilience
        self.targets = targets
        self.method = method
        self.payload = payload
        self.size = size
        self.on_reply = on_reply
        self.on_exhausted = on_exhausted
        self.allow_hedge = allow_hedge
        self.tried: set[str] = set()
        self.outstanding: dict[int, str] = {}
        self.done = False
        self.hedge_launched = False
        self.hedge_call_id: int | None = None

    def start(self) -> None:
        self.res.stats.calls += 1
        self.res.retry_budget.on_request()
        primary = self.targets[0]
        self._send(primary)
        if self.allow_hedge and len(self.targets) > 1:
            self.res.network.schedule(self.res.hedge_delay(primary), self._maybe_hedge)

    def _send(self, dst: str) -> int:
        self.tried.add(dst)
        cell: list[int] = []
        call_id = self.res.rpc.call(
            dst,
            self.method,
            self.payload,
            self.size,
            on_reply=lambda body: self._on_branch_reply(cell[0], body),
            on_failure=lambda _addr: self._on_branch_failure(cell[0]),
            timeout=self.res.call_timeout(dst),
        )
        cell.append(call_id)
        self.outstanding[call_id] = dst
        return call_id

    def _on_branch_reply(self, call_id: int, body: Mapping[str, object]) -> None:
        dst = self.outstanding.pop(call_id, None)
        if self.done or dst is None:
            return
        self.done = True
        if self.hedge_launched:
            self.res.stats.record_hedge(
                "won" if call_id == self.hedge_call_id else "lost"
            )
        # The race is decided: withdraw interest in the other branches so a
        # straggling duplicate reply cannot re-trigger the continuation.
        for other in list(self.outstanding):
            self.res.rpc.cancel_call(other)
        self.outstanding.clear()
        self.on_reply(dst, body)

    def _on_branch_failure(self, call_id: int) -> None:
        dst = self.outstanding.pop(call_id, None)
        if self.done or dst is None:
            return
        if self.outstanding:
            return  # the other branch is still racing; let it finish
        nxt = self._next_target()
        if nxt is None:
            self.done = True
            if self.on_exhausted is not None:
                self.on_exhausted(dst)
            return
        self.res.stats.retries += 1
        self._send(nxt)

    def _next_target(self) -> str | None:
        """Next untried candidate, preferring ones whose breaker admits us.

        Failover is *fail-open*: when every remaining breaker is open the
        call still goes somewhere (correctness over protection) — the
        breaker's hard veto applies only to optional duplicates (hedges).
        """
        now = self.res.network.now
        fallback = None
        for target in self.targets:
            if target in self.tried:
                continue
            if fallback is None:
                fallback = target
            if self.res.breaker(target).allow(now):
                return target
            self.res.stats.breaker_skips += 1
        return fallback

    def _maybe_hedge(self) -> None:
        if self.done or self.hedge_launched or not self.outstanding:
            return  # answered, already hedged, or failed over in the meantime
        now = self.res.network.now
        candidate = None
        for target in self.targets:
            if target not in self.tried and self.res.breaker(target).state(now) != OPEN:
                candidate = target
                break
        if candidate is None:
            if any(target not in self.tried for target in self.targets):
                self.res.stats.record_hedge("suppressed_breaker")
            return
        if not self.res.retry_budget.try_spend():
            self.res.stats.record_hedge("suppressed_budget")
            return
        if not self.res.breaker(candidate).allow(now):
            self.res.stats.record_hedge("suppressed_breaker")
            return
        self.hedge_launched = True
        self.hedge_call_id = self._send(candidate)
