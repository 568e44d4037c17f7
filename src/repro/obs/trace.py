"""Distributed tracing on the simulator's virtual clock.

The design is Dapper with the randomness removed.  A :class:`Tracer` hangs
off the :class:`~repro.net.simnet.Network` (``network.tracer``, ``None`` by
default); when present, every ``Network.send`` opens a :class:`Span` for the
message and stamps a :class:`TraceContext` onto it, and every handler
executes *inside* its message's span (the network activates the context
around ``_dispatch``), so sends made while handling a message become its
children without any per-call-site plumbing.  Operation root spans are
opened by the admission scheduler around each launch, which makes one
publish/retrieve/query submission exactly one trace.

Determinism: trace and span ids are sequential integers from per-tracer
counters — no wall clock, no :mod:`random` — so a traced run is replayable
and two runs of the same seed produce identical trees.

Honest accounting under faults:

* a span's ``bytes`` are accumulated at the same call sites that feed the
  :class:`~repro.net.simnet.TrafficMeter` (including lost attempts that the
  reliable channel retries), so span byte totals reconcile with metered
  wire bytes;
* retransmissions and duplicate deliveries *annotate* the one span for the
  logical message (``retransmits`` / ``duplicates`` counters) instead of
  creating new spans — a retried message is still one hop;
* spans record the sender's **incarnation**.  A crash-restart bumps the
  incarnation, and the network already discards deliveries addressed to a
  dead incarnation, so a restarted node can never execute inside — and
  therefore never parent onto — a span tree of its previous life.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Wire cost of a propagated trace context: trace id + span id + parent id,
#: eight bytes each.  Charged into ``Message.size`` for remote sends only
#: when tracing is enabled (local deliveries never touch the wire).
CONTEXT_WIRE_BYTES = 24

#: Payload keys lifted onto spans at send time; the profile builder and the
#: exporters key on these.  Both the payload envelope and an RPC ``body``
#: are inspected.
_ATTR_KEYS = ("query_id", "exchange_id", "scan_op_id", "call_id", "relation")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagated identity of one span: which trace, which span."""

    trace_id: int
    span_id: int


@dataclass(slots=True)
class Span:
    """One traced unit of work, stamped in virtual time.

    Message spans run from ``sent_at`` to delivery; operation root spans run
    from admission to resolution.  ``end`` stays ``None`` for a message that
    was never delivered (lost past the retransmit budget, or addressed to an
    incarnation that died first) — the exporters render those as zero-width
    and mark ``delivered: false``.
    """

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    node: str
    begin: float
    end: float | None = None
    src: str = ""
    dst: str = ""
    bytes: int = 0
    incarnation: int = 0
    retransmits: int = 0
    duplicates: int = 0
    delivered: bool = False
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return (self.end - self.begin) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "begin": self.begin,
            "end": self.end,
            "src": self.src,
            "dst": self.dst,
            "bytes": self.bytes,
            "incarnation": self.incarnation,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "delivered": self.delivered,
            "attrs": dict(self.attrs) if self.attrs else {},
        }


@dataclass(slots=True)
class OperatorSummary:
    """Runtime-operator counters one node emits at fragment teardown.

    The span tree knows bytes and timing per exchange; rows and batches live
    in the runtime operators, so each participant reports them here when its
    fragment is torn down and the profile builder joins the two by
    ``(query_id, op_id)``.
    """

    query_id: str
    node: str
    op_id: int
    op_type: str
    counters: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Span store, deterministic id source, and active-context stack.

    The simulator is single-threaded and handlers run to completion, so the
    active context is a plain stack: the network pushes a message's context
    before dispatching it and pops it after, and the scheduler does the same
    around operation launches.
    """

    context_wire_bytes = CONTEXT_WIRE_BYTES

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.max_spans = max_spans
        self.spans: dict[int, Span] = {}
        self.summaries: list[OperatorSummary] = []
        #: First trace id seen per query id (restarts of a query reuse the
        #: submission's trace, so later query ids map to the same trace).
        self.query_traces: dict[str, int] = {}
        #: Spans not recorded because ``max_spans`` was reached.
        self.dropped_spans = 0
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._traces: dict[int, list[int]] = {}
        self._stack: list[TraceContext] = []

    # -- active context --------------------------------------------------------

    def current(self) -> TraceContext | None:
        """The context new sends parent onto, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def activate(self, span: Span) -> TraceContext:
        """Push ``span`` as the active context; returns the pop token."""
        context = TraceContext(span.trace_id, span.span_id)
        self._stack.append(context)
        return context

    def deactivate(self, token: TraceContext) -> None:
        if self._stack and self._stack[-1] == token:
            self._stack.pop()

    # -- span lifecycle --------------------------------------------------------

    def start_trace(
        self, name: str, node: str, at: float, attrs: dict | None = None
    ) -> Span:
        """Open a fresh root span (always a new trace, ignoring any active
        context) — used by the scheduler so each operation is one trace even
        when it is submitted from inside another operation's callback."""
        return self.open_span(name, node, at, attrs=attrs)

    def open_span(
        self,
        name: str,
        node: str,
        at: float,
        trace_id: int | None = None,
        parent_id: int | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Open a span explicitly — in an existing trace when ``trace_id`` is
        given (how restart/recovery phases re-enter a query's trace from a
        context-free callback), in a fresh trace otherwise."""
        if trace_id is None:
            trace_id = next(self._trace_ids)
        return self._record(trace_id, parent_id, name, node, at, node, "", 0, attrs)

    def end_span(self, span: Span, at: float) -> None:
        span.end = at
        span.delivered = True

    # -- network hooks (all cheap no-ops when tracing is off: the network
    # -- guards every call behind ``self.tracer is not None``) -----------------

    def on_send(self, message, now: float, incarnation: int) -> None:
        """Open a span for a freshly sent message and stamp its context.

        The span parents onto the active context — the span of the message
        whose handler (or the operation whose launch) performed this send —
        or starts a new trace for spontaneous sends (gossip timers, drivers).
        """
        parent = self.current()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(self._trace_ids), None
        attrs = self._extract_attrs(message.payload)
        span = self._record(
            trace_id,
            parent_id,
            message.kind,
            message.src,
            now,
            message.src,
            message.dst,
            incarnation,
            attrs,
        )
        if attrs:
            query_id = attrs.get("query_id")
            if query_id is not None:
                self.query_traces.setdefault(query_id, trace_id)
        message.trace = TraceContext(trace_id, span.span_id)

    def on_transmit(self, message) -> None:
        """Charge one wire transmission (including lost attempts) to the
        message's span — mirrors every ``TrafficMeter.record`` call."""
        span = self._span_of(message)
        if span is not None:
            span.bytes += message.size

    def on_retransmit(self, message) -> None:
        span = self._span_of(message)
        if span is not None:
            span.retransmits += 1

    def on_duplicate(self, message) -> None:
        span = self._span_of(message)
        if span is not None:
            span.duplicates += 1

    def begin_delivery(self, message, now: float) -> TraceContext | None:
        """Close the hop span at delivery time and make it the active
        context for the handler about to run.  Returns the token for
        :meth:`end_delivery` (``None`` when the message carries no context)."""
        context = message.trace
        if context is None:
            return None
        span = self.spans.get(context.span_id)
        if span is not None:
            if span.end is None:
                span.end = now
            span.delivered = True
        self._stack.append(context)
        return context

    def end_delivery(self, token: TraceContext | None) -> None:
        if token is not None:
            self.deactivate(token)

    # -- operator summaries ----------------------------------------------------

    def record_operator_summary(
        self,
        query_id: str,
        node: str,
        op_id: int,
        op_type: str,
        counters: dict[str, int],
    ) -> None:
        self.summaries.append(
            OperatorSummary(query_id, node, op_id, op_type, dict(counters))
        )

    def summaries_for(self, query_ids: Iterable[str]) -> list[OperatorSummary]:
        wanted = set(query_ids)
        return [summary for summary in self.summaries if summary.query_id in wanted]

    # -- queries ---------------------------------------------------------------

    def spans_of(self, trace_id: int) -> list[Span]:
        """The spans of one trace, in creation (== send) order."""
        ids = self._traces.get(trace_id, ())
        return [self.spans[span_id] for span_id in ids if span_id in self.spans]

    def all_spans(self) -> list[Span]:
        return list(self.spans.values())

    def query_ids_of(self, trace_id: int) -> set[str]:
        """Every query id observed in a trace — a restarted query appears
        under both its original and relaunched ids."""
        return {
            query_id
            for query_id, owner in self.query_traces.items()
            if owner == trace_id
        }

    # -- internals -------------------------------------------------------------

    def _record(
        self,
        trace_id: int,
        parent_id: int | None,
        name: str,
        node: str,
        begin: float,
        src: str,
        dst: str,
        incarnation: int,
        attrs: dict | None,
    ) -> Span:
        span = Span(
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            name=name,
            node=node,
            begin=begin,
            src=src,
            dst=dst,
            incarnation=incarnation,
            attrs=attrs,
        )
        if len(self.spans) < self.max_spans:
            self.spans[span.span_id] = span
            self._traces.setdefault(trace_id, []).append(span.span_id)
        else:
            self.dropped_spans += 1
        return span

    def _span_of(self, message) -> Span | None:
        context = message.trace
        if context is None:
            return None
        return self.spans.get(context.span_id)

    @staticmethod
    def _extract_attrs(payload) -> dict | None:
        if not isinstance(payload, Mapping):
            return None
        attrs = {}
        body = payload.get("body")
        sources = (payload, body) if isinstance(body, Mapping) else (payload,)
        for source in sources:
            for key in _ATTR_KEYS:
                value = source.get(key)
                if value is not None and key not in attrs:
                    attrs[key] = value
        return attrs or None
