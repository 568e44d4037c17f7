"""Connection-oriented messaging on top of the raw simulator.

The paper's engine keeps a direct TCP connection between every pair of nodes
(Section III-B): with at most a few hundred participants a full mesh is cheap,
gives single-hop routing, and — crucially for Section V-A — makes failures
visible almost immediately because the TCP connection to a crashed peer drops.

:class:`RpcEndpoint` models that connection layer for one node.  It provides:

* request/response messaging with correlation IDs (``call``), so the storage
  layer can express its coordinator → index-node → data-node protocols;
* one-way messages (``cast``), used by the push-style query dataflow;
* failure notification for outstanding requests: when the peer a request was
  sent to fails, the request's ``on_failure`` callback fires instead of its
  reply callback (the dropped-connection signal);
* periodic application-level pings to detect "hung" peers, as described in
  Section V-C.  In the crash-stop simulation a hung node is modelled as a
  failed node whose failure-detection delay is long, so pings are what bound
  the detection time when connection drops are slow to surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from ..common.errors import NodeFailedError
from .simnet import Message, Network, SimNode

#: RPC handler signature: ``handler(src_address, payload, respond)`` where
#: ``respond(payload, size)`` sends the reply.  Handlers may also ignore
#: ``respond`` for one-way casts.
RpcHandler = Callable[[str, Mapping[str, object], Callable[[Mapping[str, object], int], None]], None]

_RPC_REQUEST = "rpc.request"
_RPC_RESPONSE = "rpc.response"
_RPC_CAST = "rpc.cast"
_PING = "rpc.ping"
_PONG = "rpc.pong"


@dataclass
class _PendingCall:
    dst: str
    on_reply: Callable[[Mapping[str, object]], None]
    on_failure: Callable[[str], None] | None
    #: Simulated send time, for the endpoint's reply-time observer.
    sent_at: float = 0.0


class RpcEndpoint:
    """Request/response and one-way messaging for a single simulated node."""

    #: Wire size of an empty control message (headers + correlation id).
    CONTROL_SIZE = 16

    def __init__(self, node: SimNode) -> None:
        self.node = node
        self.network: Network = node.network
        self.address = node.address
        self._methods: dict[str, RpcHandler] = {}
        self._pending: dict[int, _PendingCall] = {}
        self._call_ids = itertools.count(1)
        #: Optional measurement hooks (installed by the resilience layer):
        #: ``reply_observer(dst, rtt)`` fires for every reply received,
        #: ``failure_observer(dst, kind)`` for every failed call, with
        #: ``kind`` in ``{"refused", "failed", "timeout"}``.  ``None`` (the
        #: default) keeps the endpoint byte-identical to the unhooked one.
        self.reply_observer: Callable[[str, float], None] | None = None
        self.failure_observer: Callable[[str, str], None] | None = None
        self._ping_seq = itertools.count(1)
        self._ping_outstanding: dict[int, str] = {}
        node.register_handler(_RPC_REQUEST, self._on_request)
        node.register_handler(_RPC_RESPONSE, self._on_response)
        node.register_handler(_RPC_CAST, self._on_cast)
        node.register_handler(_PING, self._on_ping)
        node.register_handler(_PONG, self._on_pong)
        node.add_failure_listener(self._on_peer_failure)
        node.services["rpc"] = self

    # -- registration ----------------------------------------------------------

    def register(self, method: str, handler: RpcHandler) -> None:
        """Register the handler for RPC method ``method``."""
        self._methods[method] = handler

    def reset_volatile(self) -> None:
        """Drop per-connection state after a crash-restart.

        Outstanding calls and pings died with the process; registered method
        handlers survive (they are part of the program, not of a connection).
        A reply to a pre-crash call that somehow arrives later finds no
        pending entry and is ignored.
        """
        self._pending.clear()
        self._ping_outstanding.clear()

    # -- outgoing --------------------------------------------------------------

    def call(
        self,
        dst: str,
        method: str,
        payload: Mapping[str, object],
        size: int,
        on_reply: Callable[[Mapping[str, object]], None],
        on_failure: Callable[[str], None] | None = None,
        timeout: float | None = None,
    ) -> int:
        """Send a request to ``dst`` and invoke ``on_reply`` with the response.

        If ``dst`` fails before replying, ``on_failure`` (if given) is invoked
        with the failed address; otherwise the failure is silently dropped and
        the caller is expected to learn about it through its own failure
        listener (this matches how the query layer reacts: the recovery
        manager, not each individual call site, drives compensation).

        ``timeout`` (simulated seconds) bounds the wait for the reply: when it
        elapses first, ``on_failure`` fires and a reply arriving later is
        discarded — which is only safe for idempotent requests, since the
        peer may still execute the handler.  The resilience layer uses this
        for its adaptively-timed read RPCs.

        A call to a peer that *already* crashed fails fast: the failure
        notification for that peer has fired (or will fire) exactly once, so a
        request issued afterwards — typically from an operation still holding
        a pre-crash routing snapshot — would otherwise wait forever for a
        reply that cannot come.  This models the immediate connection-refused
        a new TCP connection to a dead host gets.
        """
        call_id = next(self._call_ids)
        self._pending[call_id] = _PendingCall(
            dst, on_reply, on_failure, sent_at=self.network.now
        )
        if timeout is not None:

            def expire() -> None:
                if not self.node.alive:
                    return
                pending = self._pending.pop(call_id, None)
                if pending is None:
                    return  # answered (or failed) in time
                if self.failure_observer is not None:
                    self.failure_observer(dst, "timeout")
                if pending.on_failure is not None:
                    pending.on_failure(dst)

            self.network.schedule(timeout, expire)
        destination = self.network.nodes.get(dst)
        if destination is not None and not destination.alive:
            tracer = self.network.tracer
            if tracer is not None:
                # No message is ever sent, but the refused attempt is still an
                # event the trace should show: a zero-byte span closed at the
                # (simulated) moment the connection refusal surfaces.
                parent = tracer.current()
                now = self.network.now
                span = tracer.open_span(
                    "rpc.refused", self.address, now,
                    trace_id=parent.trace_id if parent is not None else None,
                    parent_id=parent.span_id if parent is not None else None,
                    attrs={"call_id": call_id, "method": method},
                )
                span.dst = dst
                tracer.end_span(
                    span, now + self.network.link_latency(self.address, dst)
                )

            def refuse() -> None:
                if not self.node.alive:
                    return  # the caller crashed too; nothing to resume
                pending = self._pending.pop(call_id, None)
                if pending is None:
                    return
                if self.failure_observer is not None:
                    self.failure_observer(dst, "refused")
                if pending.on_failure is not None:
                    pending.on_failure(dst)

            self.network.schedule(self.network.link_latency(self.address, dst), refuse)
            return call_id
        self.node.send(
            dst,
            _RPC_REQUEST,
            {"method": method, "call_id": call_id, "body": payload},
            size + self.CONTROL_SIZE,
        )
        return call_id

    def cast(self, dst: str, method: str, payload: Mapping[str, object], size: int) -> None:
        """Send a one-way message (no response expected)."""
        self.node.send(dst, _RPC_CAST, {"method": method, "body": payload}, size + self.CONTROL_SIZE)

    def ping(self, dst: str, on_timeout: Callable[[str], None], timeout: float = 1.0) -> None:
        """Application-level liveness probe.

        If no pong arrives within ``timeout`` simulated seconds, ``on_timeout``
        is invoked with the probed address.  This is the background ping of
        Section V-C used to detect hung machines.
        """
        seq = next(self._ping_seq)
        self._ping_outstanding[seq] = dst
        self.node.send(dst, _PING, {"seq": seq}, self.CONTROL_SIZE)

        def check() -> None:
            if seq in self._ping_outstanding:
                del self._ping_outstanding[seq]
                on_timeout(dst)

        self.network.schedule(timeout, check)

    # -- incoming --------------------------------------------------------------

    def _on_request(self, message: Message) -> None:
        method = message.payload["method"]
        call_id = message.payload["call_id"]
        handler = self._methods.get(method)
        if handler is None:
            raise NodeFailedError(
                self.address, f"no RPC handler registered for method {method!r}"
            )

        def respond(payload: Mapping[str, object], size: int) -> None:
            self.node.send(
                message.src,
                _RPC_RESPONSE,
                {"call_id": call_id, "body": payload},
                size + self.CONTROL_SIZE,
            )

        handler(message.src, message.payload["body"], respond)

    def cancel_call(self, call_id: int) -> bool:
        """Withdraw interest in an outstanding call (hedged-race loser).

        The request may still execute remotely; its reply, if it arrives,
        finds no pending entry and is discarded.  Returns whether the call
        was still pending.
        """
        return self._pending.pop(call_id, None) is not None

    def _on_response(self, message: Message) -> None:
        call_id = message.payload["call_id"]
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return  # response to a call already failed over
        if self.reply_observer is not None:
            self.reply_observer(pending.dst, self.network.now - pending.sent_at)
        pending.on_reply(message.payload["body"])

    def _on_cast(self, message: Message) -> None:
        method = message.payload["method"]
        handler = self._methods.get(method)
        if handler is None:
            raise NodeFailedError(
                self.address, f"no RPC handler registered for method {method!r}"
            )
        handler(message.src, message.payload["body"], lambda payload, size: None)

    def _on_ping(self, message: Message) -> None:
        self.node.send(message.src, _PONG, {"seq": message.payload["seq"]}, self.CONTROL_SIZE)

    def _on_pong(self, message: Message) -> None:
        self._ping_outstanding.pop(message.payload["seq"], None)

    def _on_peer_failure(self, failed_address: str) -> None:
        affected = [cid for cid, call in self._pending.items() if call.dst == failed_address]
        for call_id in affected:
            call = self._pending.pop(call_id)
            if self.failure_observer is not None:
                self.failure_observer(failed_address, "failed")
            if call.on_failure is not None:
                call.on_failure(failed_address)


def rpc_endpoint(node: SimNode) -> RpcEndpoint:
    """Return the node's RPC endpoint, creating it if necessary."""
    existing = node.services.get("rpc")
    if isinstance(existing, RpcEndpoint):
        return existing
    return RpcEndpoint(node)
