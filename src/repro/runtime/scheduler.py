"""Admission-controlled operation scheduler.

Serving heavy traffic means protecting the cluster from its own clients: an
unbounded number of concurrent queries would pile onto the participants'
CPUs and links until every operation's latency explodes.  The
:class:`Scheduler` bounds that with classic admission control:

* a cluster-wide cap on concurrently *running* operations
  (``max_in_flight_total``) plus a per-initiator cap
  (``max_in_flight_per_initiator``) so one tenant cannot monopolise the
  cluster;
* a bounded admission queue — submissions beyond the caps wait, and beyond
  ``queue_capacity`` they are rejected outright (load shedding);
* two dequeue policies: ``fifo`` (global arrival order) and ``fair``
  (round-robin across initiators, so a burst from one tenant does not starve
  the others);
* per-operation timeouts and best-effort cancellation.

The scheduler is event-driven like everything else: admission happens
synchronously at submission when a slot is free — which keeps the
single-operation path byte-identical to the pre-runtime blocking wrappers —
and otherwise inside the completion callback that frees a slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..net.simnet import Network
from ..obs.counters import Counters, counter
from .futures import (
    PENDING,
    QUEUED,
    AdmissionRejectedError,
    DeadlineExceededError,
    OpFuture,
    OpTimeoutError,
)

POLICY_FIFO = "fifo"
POLICY_FAIR = "fair"


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission-control knobs for one :class:`Scheduler`."""

    #: Maximum operations running concurrently, cluster-wide.
    max_in_flight_total: int = 8
    #: Maximum operations running concurrently per initiating node.
    max_in_flight_per_initiator: int = 4
    #: Maximum operations waiting for admission; submissions beyond this are
    #: rejected with :class:`AdmissionRejectedError`.
    queue_capacity: int = 1024
    #: Dequeue policy: ``"fifo"`` or ``"fair"`` (round-robin per initiator).
    policy: str = POLICY_FIFO
    #: Brownout: with the admission queue at or beyond this depth the
    #: scheduler degrades gracefully — deadline-carrying submissions that
    #: cannot also cover the *expected queue wait* are shed at submission.
    #: ``0`` (the default) disables brownout entirely.
    brownout_queue_threshold: int = 0
    #: Queue depth at which brownout ends (defaults to half the entry
    #: threshold, giving the mode hysteresis instead of flapping).
    brownout_exit_threshold: int | None = None
    #: EWMA smoothing for the per-op-type service-time estimates that
    #: deadline shedding judges remaining budgets against.
    service_estimate_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.max_in_flight_total < 1:
            raise ValueError("max_in_flight_total must be at least 1")
        if self.max_in_flight_per_initiator < 1:
            raise ValueError("max_in_flight_per_initiator must be at least 1")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity cannot be negative")
        if self.policy not in (POLICY_FIFO, POLICY_FAIR):
            raise ValueError(f"unknown admission policy {self.policy!r}")
        if self.brownout_queue_threshold < 0:
            raise ValueError("brownout_queue_threshold cannot be negative")
        if (
            self.brownout_exit_threshold is not None
            and not 0 <= self.brownout_exit_threshold <= self.brownout_queue_threshold
        ):
            raise ValueError(
                "brownout_exit_threshold must lie within [0, brownout_queue_threshold]"
            )
        if not 0.0 < self.service_estimate_alpha <= 1.0:
            raise ValueError("service_estimate_alpha must be within (0, 1]")

    @property
    def brownout_exit(self) -> int:
        if self.brownout_exit_threshold is not None:
            return self.brownout_exit_threshold
        return self.brownout_queue_threshold // 2


@dataclass
class SchedulerStats(Counters):
    """Counters for everything the scheduler decided."""

    submitted: int = counter("scheduler.submitted")
    admitted: int = counter("scheduler.admitted")
    completed: int = counter("scheduler.completed")
    failed: int = counter("scheduler.failed")
    rejected: int = counter("scheduler.rejected")
    cancelled: int = counter("scheduler.cancelled")
    timed_out: int = counter("scheduler.timed_out")
    #: Currently running / currently waiting operations.
    in_flight: int = counter("scheduler.in_flight")
    queued: int = counter("scheduler.queued")
    #: High-water marks, the quantities the admission caps are judged by.
    max_in_flight: int = counter("scheduler.max_in_flight")
    peak_queued: int = counter("scheduler.peak_queued")
    #: Deadline-aware shedding: entries dropped because their remaining
    #: budget could not cover the estimated service time (``shed_deadline``)
    #: or, under brownout, the service time plus the expected queue wait
    #: (``shed_brownout``).  Both are sub-reasons of ``failed``.
    shed_deadline: int = counter("scheduler.shed", tags={"reason": "deadline"})
    shed_brownout: int = counter("scheduler.shed", tags={"reason": "brownout"})
    #: Times the scheduler entered brownout, and whether it is in it now.
    brownouts: int = counter("scheduler.brownouts")
    brownout_active: bool = counter("scheduler.brownout_active", default=False)
    admitted_by_initiator: dict[str, int] = counter(
        "scheduler.admitted", tag="initiator", default_factory=dict
    )

    @property
    def shed(self) -> int:
        return self.shed_deadline + self.shed_brownout


@dataclass
class _QueuedOp:
    future: OpFuture
    launch: Callable[[], None]


class Scheduler:
    """Admission control over asynchronous cluster operations."""

    def __init__(
        self,
        network: Network,
        config: SchedulerConfig | None = None,
        metrics=None,
    ) -> None:
        self.network = network
        self.config = config or SchedulerConfig()
        self.stats = SchedulerStats()
        #: Virtual-time end-to-end latency histogram, one series per
        #: ``{kind, initiator}`` tag set — the scheduler is the one place
        #: every operation passes through, so it observes for all of them.
        self._op_latency = (
            metrics.histogram("op.latency") if metrics is not None else None
        )
        self._running: set[OpFuture] = set()
        self._running_per_initiator: dict[str, int] = {}
        #: FIFO queue (also the arrival-order ground truth for ``fair``'s
        #: per-initiator sub-queues, which are views keyed by initiator).
        self._queue: list[_QueuedOp] = []
        self._per_initiator_queues: dict[str, list[_QueuedOp]] = {}
        #: Round-robin cursor over initiator names for the fair policy.
        self._fair_cursor = 0
        #: EWMA service-time estimate per op type, fed by every resolved
        #: running operation; the basis for deadline-aware shedding.
        self._service_estimates: dict[str, float] = {}

    # -- deadline-aware shedding --------------------------------------------------

    def _observe_service_time(self, future: OpFuture) -> None:
        # Runs inside ``_resolve`` before the future's ``completed_at`` is
        # stamped, so the sample is measured against the clock directly.
        if future.admitted_at is None:
            return
        sample = self.network.now - future.admitted_at
        current = self._service_estimates.get(future.op_type)
        if current is None:
            self._service_estimates[future.op_type] = sample
        else:
            alpha = self.config.service_estimate_alpha
            self._service_estimates[future.op_type] = current + alpha * (
                sample - current
            )

    def _update_brownout(self) -> None:
        threshold = self.config.brownout_queue_threshold
        if threshold <= 0:
            return
        if not self.stats.brownout_active and self.stats.queued >= threshold:
            self.stats.brownout_active = True
            self.stats.brownouts += 1
        elif self.stats.brownout_active and self.stats.queued <= self.config.brownout_exit:
            self.stats.brownout_active = False

    def _should_shed(self, future: OpFuture, queued_ahead: int) -> str | None:
        """Reason to shed ``future`` now, or None if its deadline is feasible.

        The base test sheds only the definitely-doomed: remaining budget
        below the estimated service time.  Brownout stiffens it with the
        expected queue wait (estimate x queue depth over the concurrency
        cap), trading borderline work away early to keep the rest inside
        their deadlines instead of timing everything out together.
        """
        if future.deadline is None:
            return None
        estimate = self._service_estimates.get(future.op_type)
        if estimate is None:
            return None  # nothing observed yet; admit and let the watchdog judge
        remaining = future.deadline - self.network.now
        if remaining < estimate:
            return "deadline"
        if self.stats.brownout_active:
            expected_wait = estimate * (
                queued_ahead / self.config.max_in_flight_total
            )
            if remaining < estimate + expected_wait:
                return "brownout"
        return None

    def _shed(self, future: OpFuture, reason: str) -> None:
        if reason == "deadline":
            self.stats.shed_deadline += 1
        else:
            self.stats.shed_brownout += 1
        self.stats.failed += 1
        self._resolve(
            future,
            lambda now: future._set_error(
                DeadlineExceededError(
                    f"{future.describe()} shed ({reason}): remaining deadline "
                    "budget cannot cover the estimated service time"
                ),
                now,
            ),
        )

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        future: OpFuture,
        launch: Callable[[], None],
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> OpFuture:
        """Admit ``future`` (launching it) or queue it, by the configured caps.

        ``launch`` starts the underlying protocol; its completion callbacks
        must resolve the future through :meth:`complete` / :meth:`fail`.
        ``timeout`` (simulated seconds, measured from submission) fails the
        operation with :class:`OpTimeoutError` if it has not finished in time.
        ``deadline`` (also relative seconds) additionally opts the operation
        into deadline-aware shedding: if the remaining budget cannot cover
        the estimated service time — judged at submission and again at every
        admission — the operation fails immediately with
        :class:`DeadlineExceededError` instead of holding resources until the
        watchdog fires.  A deadline with no explicit timeout arms the
        watchdog at the deadline.
        """
        future._scheduler = self
        future._mark_submitted(self.network.now)
        self.stats.submitted += 1
        if deadline is not None:
            future.deadline = self.network.now + deadline
            if timeout is None:
                timeout = deadline
        if timeout is not None:
            future._timeout_event = self.network.schedule(
                timeout, lambda: self._on_timeout(future)
            )
        if self._has_slot_for(future.initiator):
            reason = self._should_shed(future, queued_ahead=0)
            if reason is not None:
                self._shed(future, reason)
                return future
            self._start(future, launch)
            return future
        self._update_brownout()
        reason = self._should_shed(future, queued_ahead=self.stats.queued)
        if reason is not None:
            self._shed(future, reason)
            return future
        if self.stats.queued >= self.config.queue_capacity:
            self.stats.rejected += 1
            future._set_error(
                AdmissionRejectedError(
                    f"admission queue full ({self.config.queue_capacity} waiting); "
                    f"{future.describe()} rejected"
                ),
                self.network.now,
            )
            return future
        entry = _QueuedOp(future, launch)
        future._mark_queued()
        self._queue.append(entry)
        self._per_initiator_queues.setdefault(future.initiator, []).append(entry)
        self.stats.queued += 1
        self.stats.peak_queued = max(self.stats.peak_queued, self.stats.queued)
        return future

    # -- resolution (called by the sessions' completion callbacks) --------------

    def complete(self, future: OpFuture, result: object) -> None:
        """Resolve ``future`` with ``result`` and free its admission slot.

        A completion arriving after the future already finished (timeout or
        cancellation won the race) is discarded — the slot was freed then.
        """
        if future.done():
            return
        self.stats.completed += 1
        self._resolve(future, lambda now: future._set_result(result, now))

    def fail(self, future: OpFuture, error: Exception) -> None:
        """Resolve ``future`` with ``error`` and free its admission slot."""
        if future.done():
            return
        self.stats.failed += 1
        self._resolve(future, lambda now: future._set_error(error, now))

    def _resolve(self, future: OpFuture, apply: Callable[[float], None]) -> None:
        """Free the future's admission slot, settle it, then admit the queue.

        The slot is freed *before* ``apply`` fires the done-callbacks so a
        closed-loop client chaining its next operation from the callback sees
        accurate in-flight accounting; queued operations are admitted after,
        preserving their arrival-order priority over anything the callbacks
        just submitted.
        """
        if future._timeout_event is not None:
            # The watchdog is moot now; cancelling it keeps the event loop
            # from idling the virtual clock out to the unused deadline.
            future._timeout_event.cancel()
        was_queued = future.state == QUEUED
        was_running = future in self._running
        if was_queued:
            self.stats.queued -= 1  # dead entries are skipped lazily on dequeue
        elif was_running:
            self._free_slot(future)
            self._admit_next()
        root_span = getattr(future, "_root_span", None)
        if root_span is not None and self.network.tracer is not None:
            self.network.tracer.end_span(root_span, self.network.now)
        if was_running:
            self._observe_service_time(future)
        if self._op_latency is not None and future.submitted_at is not None:
            self._op_latency.observe(
                self.network.now - future.submitted_at,
                kind=future.op_type,
                initiator=future.initiator,
            )
        apply(self.network.now)

    # -- timeouts / cancellation ------------------------------------------------

    def _on_timeout(self, future: OpFuture) -> None:
        if future.done():
            return
        self.stats.timed_out += 1
        self._resolve(
            future,
            lambda now: future._set_error(
                OpTimeoutError(f"{future.describe()} timed out"), now
            ),
        )

    def _cancel(self, future: OpFuture) -> bool:
        if future.done():
            return False
        self.stats.cancelled += 1
        self._resolve(future, lambda now: future._set_cancelled(now))
        return True

    def fail_initiator_ops(self, initiator: str, error: Exception) -> int:
        """Fail every queued or running operation initiated from ``initiator``.

        Called when the initiating node crashes: its client-side protocol
        state died with it, so the operations can never complete on their own
        — resolving them here is what keeps the conservation invariant (every
        submitted operation resolves exactly once) under crash-restart.
        Queued entries are failed first so freeing the running ops' slots does
        not launch doomed work from the same initiator.  Returns the number
        of operations failed.
        """
        queued = [
            entry.future
            for entry in self._queue
            if entry.future.initiator == initiator and entry.future.state == QUEUED
        ]
        running = [f for f in self._running if f.initiator == initiator]
        count = 0
        for future in queued + running:
            if future.done():
                continue
            count += 1
            self.fail(future, error)
        return count

    # -- internals --------------------------------------------------------------

    def _has_slot_for(self, initiator: str) -> bool:
        return (
            len(self._running) < self.config.max_in_flight_total
            and self._running_per_initiator.get(initiator, 0)
            < self.config.max_in_flight_per_initiator
        )

    def _start(self, future: OpFuture, launch: Callable[[], None]) -> None:
        self._running.add(future)
        self._running_per_initiator[future.initiator] = (
            self._running_per_initiator.get(future.initiator, 0) + 1
        )
        self.stats.admitted += 1
        self.stats.in_flight = len(self._running)
        self.stats.max_in_flight = max(self.stats.max_in_flight, self.stats.in_flight)
        by_initiator = self.stats.admitted_by_initiator
        by_initiator[future.initiator] = by_initiator.get(future.initiator, 0) + 1
        future._mark_running(self.network.now)
        tracer = self.network.tracer
        token = None
        if tracer is not None:
            # One operation = one trace.  The root span is opened fresh (not
            # parented on whatever message handler the submission happened to
            # run inside) so chained operations do not merge into one tree.
            name = f"{future.op_type}:{future.label}" if future.label else future.op_type
            span = tracer.start_trace(
                name,
                future.initiator,
                self.network.now,
                attrs={"kind": future.op_type, "initiator": future.initiator},
            )
            future._root_span = span
            future.trace_id = span.trace_id
            token = tracer.activate(span)
        try:
            try:
                launch()
            finally:
                if token is not None:
                    tracer.deactivate(token)
        except Exception as exc:
            # A launch that blows up synchronously must not leak its
            # admission slot (nor, when admitted from the queue inside
            # another op's completion, abort that drain): the error becomes
            # the operation's result.
            if future.done():
                raise
            self.fail(future, exc)

    def _free_slot(self, future: OpFuture) -> None:
        self._running.discard(future)
        remaining = self._running_per_initiator.get(future.initiator, 0) - 1
        if remaining > 0:
            self._running_per_initiator[future.initiator] = remaining
        else:
            self._running_per_initiator.pop(future.initiator, None)
        self.stats.in_flight = len(self._running)

    def _admit_next(self) -> None:
        while self.stats.queued > 0:
            entry = (
                self._pop_fair() if self.config.policy == POLICY_FAIR else self._pop_fifo()
            )
            if entry is None:
                return  # nothing admissible under the per-initiator caps
            self.stats.queued -= 1
            self._update_brownout()
            # Re-judge the deadline with the time actually spent queued: an
            # entry that became infeasible while waiting is shed here, and
            # the freed slot goes to the next queued operation instead.
            reason = self._should_shed(entry.future, queued_ahead=self.stats.queued)
            if reason is not None:
                # Already popped and accounted for: leave the QUEUED state
                # before resolving so ``_resolve`` does not decrement the
                # queue gauge a second time.
                entry.future.state = PENDING
                self._shed(entry.future, reason)
                continue
            self._start(entry.future, entry.launch)

    def _pop_fifo(self) -> _QueuedOp | None:
        """First live entry, in arrival order, whose initiator has a free slot."""
        index = 0
        while index < len(self._queue):
            entry = self._queue[index]
            if entry.future.state != QUEUED:
                # Cancelled or timed out while waiting: drop it in passing.
                del self._queue[index]
                self._drop_from_initiator_queue(entry)
                continue
            if self._has_slot_for(entry.future.initiator):
                del self._queue[index]
                self._drop_from_initiator_queue(entry)
                return entry
            index += 1
        return None

    def _pop_fair(self) -> _QueuedOp | None:
        """Next admissible entry by round-robin over the initiators."""
        initiators = sorted(self._per_initiator_queues.keys())
        if not initiators:
            return None
        start = self._fair_cursor % len(initiators)
        for offset in range(len(initiators)):
            initiator = initiators[(start + offset) % len(initiators)]
            queue = self._per_initiator_queues[initiator]
            while queue and queue[0].future.state != QUEUED:
                stale = queue.pop(0)
                self._drop_from_fifo_queue(stale)
            if not queue:
                self._per_initiator_queues.pop(initiator, None)
                continue
            if not self._has_slot_for(initiator):
                continue
            entry = queue.pop(0)
            if not queue:
                self._per_initiator_queues.pop(initiator, None)
            self._drop_from_fifo_queue(entry)
            # Advance the cursor past the initiator just served.
            self._fair_cursor = (start + offset + 1) % max(1, len(initiators))
            return entry
        return None

    def _drop_from_initiator_queue(self, entry: _QueuedOp) -> None:
        queue = self._per_initiator_queues.get(entry.future.initiator)
        if queue is None:
            return
        if entry in queue:
            queue.remove(entry)
        if not queue:
            self._per_initiator_queues.pop(entry.future.initiator, None)

    def _drop_from_fifo_queue(self, entry: _QueuedOp) -> None:
        if entry in self._queue:
            self._queue.remove(entry)

    # -- introspection ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._running)
