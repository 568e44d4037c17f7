"""Host-time tracing of the layers under ``src/repro/``, from the outside.

Nothing in the program is edited: :func:`install` rebinds, for the life of
this process, the functions at each package's public boundary to timing
wrappers.  A wrapper opens a *span* — (name, layer, start, end, parent, op) —
on an in-memory stack; a span's **self time** is its duration minus the time
its child spans cover, so the layer totals add up to the traced wall time
with nothing counted twice.

Work that a layer defers keeps the layer of whoever deferred it: a callback
passed to ``Network.schedule`` or to ``RpcEndpoint.call`` is wrapped at that
moment with the layer of the span that was open, so a storage reply handler
is storage time although the transport invokes it.

Every wrapper costs host time of its own.  :func:`Recorder.calibrate`
measures that cost on a no-op — the part that lands inside the span and the
part that lands in its parent — and :meth:`Recorder.by_layer` subtracts
it, per call, from the reported self times.
"""

from __future__ import annotations

import sys
import time
from array import array

#: Layer of the benchmark's own code: the part of the timed wall that no
#: layer of the program accounts for (``trace.coverage_share`` is 1 minus
#: its share).
BENCH = "bench"

_now = time.perf_counter_ns

#: Full spans kept per run (six array slots each): the first cycle, or this
#: many of it — a round of ``mixed_layers_on`` alone makes 200,000.
_DETAIL_LIMIT = 6 * 50_000

#: RPC method prefix -> layer, for handlers wrapped at registration.
_HANDLER_LAYERS = (
    ("store.retrieve_manifest", "storage.client"),
    ("store.retrieve_result", "storage.client"),
    ("store.", "storage.service"),
    ("query.", "query.service"),
    ("member.", "overlay"),
    ("gossip.", "overlay"),
    ("resilience.", "resilience"),
    ("rpc.", "transport"),
)


def handler_layer(kind: str) -> str:
    for prefix, layer in _HANDLER_LAYERS:
        if kind.startswith(prefix):
            return layer
    return "transport"


class Recorder:
    """The span stack and what finished spans add up to."""

    def __init__(self) -> None:
        self.active = False
        #: Keep full spans (not just totals) while set: the first timed cycle.
        self.detail = False
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        #: (name id of the binding span, what) -> name id of the bound span.
        self._bound_ids: dict[tuple[int, str], int] = {}
        #: Per name id: [calls, self ns, direct child spans, callbacks bound].
        self.totals: list[list[int]] = []
        #: Running sums of the span open now: [ns its finished children took,
        #: child spans, callbacks bound, its name id, its span index].
        self.state: list[int] = [0, 0, 0, -1, -1]
        #: Flat (index, parent index, name id, start, end, op) per detailed span.
        self.spans = array("q")
        self.next_span = 0
        self.op = -1
        #: Calibrated wrapper cost: ns inside the span, ns in the parent, and
        #: ns per callback bound (paid by the span that was open).
        self.inside_ns = 0.0
        self.outside_ns = 0.0
        self.bind_ns = 0.0
        #: Named plain counters fed by the few wrappers that read arguments.
        self.counts: dict[str, int] = {}

    def intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        index = self._ids.get(key)
        if index is None:
            index = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.totals.append([0, 0, 0, 0])
        return index

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, func, name: str, layer: str, new_op: bool = False):
        """``func`` timed as one span called ``name`` of ``layer``."""
        traced = self._span(func, self.intern(name, layer), new_op)
        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _span(self, func, nid: int, new_op: bool = False):
        rec = self
        totals = self.totals[nid]
        state = self.state

        def traced(*args, **kwargs):
            if not rec.active:
                return func(*args, **kwargs)
            if new_op:
                rec.op += 1
            # Save the enclosing span's running sums and start this span's at
            # zero; on the way out, what the children added is theirs and this
            # span's whole duration is added to the enclosing sums.  No frame
            # object is allocated per span.
            child_ns, children, binds, parent_nid, parent_index = state
            index = rec.next_span
            rec.next_span = index + 1
            state[:] = (0, 0, 0, nid, index)
            start = _now()
            try:
                return func(*args, **kwargs)
            finally:
                end = _now()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - state[0]
                totals[2] += state[1]
                totals[3] += state[2]
                state[:] = (child_ns + duration, children + 1, binds, parent_nid, parent_index)
                if rec.detail and len(rec.spans) < _DETAIL_LIMIT:
                    rec.spans.extend((index, parent_index, nid, start, end, rec.op))

        return traced

    def bind(self, callback, what: str):
        """``callback`` timed under the layer of the span open *now*."""
        state = self.state
        if callback is None or not self.active or state[3] < 0:
            return callback
        state[2] += 1
        key = (state[3], what)
        nid = self._bound_ids.get(key)
        if nid is None:
            layer = self.layers[state[3]]
            nid = self._bound_ids[key] = self.intern(f"{layer}:{what}", layer)
        return self._span(callback, nid)

    # -- calibration ----------------------------------------------------------------

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Price the wrappers on a no-op, taking the quietest of ``rounds``.

        ``inside_ns`` is the part of one wrapper's cost that lands inside its
        own span, ``outside_ns`` the part that lands in its parent, and
        ``bind_ns`` what binding one callback costs the span that binds it.
        """

        def noop(first=None, second=None):
            return None

        inner = self.wrap(noop, "calibration.noop", BENCH)
        noop_totals = self.totals[self.intern("calibration.noop", BENCH)]

        def bare_loop():
            for _ in range(calls):
                noop(calls, None)

        def span_loop():
            for _ in range(calls):
                inner(calls, None)

        def bind_loop():
            for _ in range(calls):
                self.bind(noop, "calibration")

        def timed(func) -> int:
            started = _now()
            func()
            return _now() - started

        span_outer = self.wrap(span_loop, "calibration.spans", BENCH)
        bind_outer = self.wrap(bind_loop, "calibration.binds", BENCH)
        was_active, self.active = self.active, True
        try:
            bare = min(timed(bare_loop) for _ in range(rounds))
            best_spans = best_inside = None
            for _ in range(rounds):
                before = noop_totals[1]
                elapsed = timed(span_outer)
                if best_spans is None or elapsed < best_spans:
                    best_spans, best_inside = elapsed, noop_totals[1] - before
            binds = min(timed(bind_outer) for _ in range(rounds))
        finally:
            self.active = was_active
        # A span's own duration still holds the bare call; what is left of it
        # is wrapper cost inside the span, the rest lands in the parent.
        self.inside_ns = max(0.0, (best_inside - bare) / calls)
        self.outside_ns = max(0.0, (best_spans - bare) / calls - self.inside_ns)
        self.bind_ns = max(0.0, (binds - bare) / calls)
        for nid, name in enumerate(self.names):
            if "calibration" in name:
                self.totals[nid][:] = [0, 0, 0, 0]

    # -- reading ----------------------------------------------------------------------

    def snapshot(self) -> list[tuple[int, int, int, int]]:
        return [tuple(total) for total in self.totals]

    def _since(self, nid: int, since) -> tuple[int, float]:
        """(calls, self ns with the wrapper cost taken out) of one span name,
        counted from the ``since`` snapshot (or from the start)."""
        calls, self_ns, children, binds = self.totals[nid]
        if since is not None and nid < len(since):
            base = since[nid]
            calls, self_ns = calls - base[0], self_ns - base[1]
            children, binds = children - base[2], binds - base[3]
        cost = calls * self.inside_ns + children * self.outside_ns + binds * self.bind_ns
        return calls, max(0.0, self_ns - cost)

    def by_layer(self, since=None) -> dict[str, dict[str, float]]:
        """layer -> {"self_ns", "calls"} with the wrapper cost taken out."""
        out: dict[str, dict[str, float]] = {}
        for nid, layer in enumerate(self.layers):
            calls, self_ns = self._since(nid, since)
            if calls:
                entry = out.setdefault(layer, {"self_ns": 0.0, "calls": 0})
                entry["self_ns"] += self_ns
                entry["calls"] += calls
        return out

    def by_name(self) -> list[dict]:
        """One row per span name that ran, heaviest self time first."""
        rows = []
        for nid, name in enumerate(self.names):
            calls, self_ns = self._since(nid, None)
            if calls:
                rows.append({"name": name, "layer": self.layers[nid], "calls": calls,
                             "self_ms": self_ns / 1e6})
        rows.sort(key=lambda row: -row["self_ms"])
        return rows

    def calls(self, name: str) -> int:
        """Calls of every span called ``name`` (in whichever layer)."""
        return sum(
            self.totals[nid][0] for nid, span_name in enumerate(self.names) if span_name == name
        )

    def detailed_spans(self) -> list[dict]:
        flat = self.spans
        return [
            {
                "id": flat[i], "parent": flat[i + 1], "name": self.names[flat[i + 2]],
                "layer": self.layers[flat[i + 2]], "start_ns": flat[i + 3],
                "end_ns": flat[i + 4], "op": flat[i + 5],
            }
            for i in range(0, len(flat), 6)
        ]


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _wrap_attribute(rec: Recorder, cls: type, attribute: str, name: str, layer: str,
                    **options):
    """Rebind one function ``cls`` defines to a span called ``name``."""
    raw = cls.__dict__[attribute]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(rec.wrap(raw.__func__, name, layer, **options))
    else:
        wrapped = rec.wrap(raw, name, layer, **options)
    setattr(cls, attribute, wrapped)


def _wrap_class(rec: Recorder, cls: type, layer: str, only=None):
    """Wrap functions ``cls`` itself defines: those in ``only``, else the public ones."""
    label = cls.__name__
    for attribute, raw in list(cls.__dict__.items()):
        if attribute not in only if only is not None else attribute.startswith("_"):
            continue
        plain = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(plain) or isinstance(plain, type) or not hasattr(plain, "__code__"):
            continue
        if plain.__code__.co_flags & 0x20:  # a generator: timing the call says nothing
            continue
        _wrap_attribute(rec, cls, attribute, f"{label}.{attribute}", layer)


#: Packages of the opt-in layers.  What they call in the shared codec and
#: hashing helpers for their own bookkeeping (checksums over the encoded form,
#: say) stays their time: the question asked of them is what switching the
#: layer on costs, so those helpers are left unwrapped inside them.
_OPT_IN_PACKAGES = ("repro.cache", "repro.integrity", "repro.obs", "repro.resilience")


def _wrap_function(rec: Recorder, module, attribute: str, layer: str):
    """Wrap a module-level function, and every ``repro`` module's copy of it."""
    original = getattr(module, attribute)
    wrapped = rec.wrap(original, f"{module.__name__.rsplit('.', 1)[-1]}.{attribute}", layer)
    for other in list(sys.modules.values()):
        name = getattr(other, "__name__", "")
        if not name.startswith("repro") or name.startswith(_OPT_IN_PACKAGES):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapped)


def install(rec: Recorder) -> None:
    """Rebind the boundary functions of every layer to spans on ``rec``.

    ``workloads`` has imported the whole program by now, the opt-in packages
    included, so every module that holds a from-import of a wrapped function
    is there to be rebound (modules loaded later import the wrapper anyway).
    """
    import workloads
    from repro.cache.node import NodeCache
    from repro.cache.result import SemanticResultCache
    from repro.cdss.mappings import UpdateExchange
    from repro.cdss.participant import Participant
    from repro.cdss.reconciliation import Reconciler
    from repro.common import hashing, serialization, types
    from repro.integrity.guard import NodeIntegrity
    from repro.net.simnet import Network, SimNode
    from repro.net.transport import RpcEndpoint
    from repro.obs.trace import Tracer
    from repro.optimizer import planner
    from repro.overlay import replication
    from repro.overlay.gossip import EpochGossip
    from repro.overlay.membership import MembershipView
    from repro.query import operators, provenance, sql
    from repro.query.service import QueryService
    from repro.resilience import service as resilience_service
    from repro.runtime.scheduler import Scheduler
    from repro.runtime.session import Session
    from repro.storage.client import StorageClient

    # -- benchmark's own code: one span per operation -----------------------------
    _wrap_attribute(rec, workloads.Workload, "_timed", "op", BENCH, new_op=True)
    _wrap_attribute(rec, workloads.CdssExchange, "_timed_call", "op", BENCH, new_op=True)
    _wrap_attribute(rec, workloads.MixedLayersOn, "run_cycle", "op:round", BENCH, new_op=True)
    _wrap_attribute(rec, workloads.MixedLayersOn, "_submit_op", "bench.submit_op", BENCH)

    # -- net: the event loop, sends, and deferred work ------------------------------
    _wrap_attribute(rec, Network, "run", "net.loop", "net")
    _wrap_attribute(rec, Network, "send", "net.send", "net")
    plain_schedule = Network.schedule

    def schedule(self, delay, action):
        return plain_schedule(self, delay, rec.bind(action, "scheduled"))

    Network.schedule = schedule

    # -- transport: calls, casts, and every registered handler ----------------------
    traced_call = rec.wrap(RpcEndpoint.call, "transport.call", "transport")

    def call(self, dst, method, payload, size, on_reply, on_failure=None, timeout=None):
        # Bound before the transport span opens: the callbacks belong to the
        # layer that makes the call.
        return traced_call(
            self, dst, method, payload, size,
            rec.bind(on_reply, "reply"), rec.bind(on_failure, "failure"), timeout,
        )

    RpcEndpoint.call = call
    _wrap_attribute(rec, RpcEndpoint, "cast", "transport.cast", "transport")
    plain_register = RpcEndpoint.register

    def register(self, method, handler):
        plain_register(self, method, rec.wrap(handler, method, handler_layer(method)))

    RpcEndpoint.register = register
    plain_register_handler = SimNode.register_handler

    def register_handler(self, msg_type, handler):
        plain_register_handler(
            self, msg_type, rec.wrap(handler, msg_type, handler_layer(msg_type))
        )

    SimNode.register_handler = register_handler

    # -- overlay ----------------------------------------------------------------------
    _wrap_class(rec, MembershipView, "overlay", only={"snapshot", "rejoin"})
    _wrap_class(rec, EpochGossip, "overlay", only={"announce", "pull"})
    _wrap_function(rec, replication, "replica_set", "overlay")

    # -- storage client (the service side is its store.* handlers) --------------------
    _wrap_class(rec, StorageClient, "storage.client", only={
        "publish", "retrieve", "fetch_catalog_epochs", "resolve_epoch", "fetch_coordinator",
    })

    # -- query: service entry points, operators, optimizer ----------------------------
    _wrap_class(rec, QueryService, "query.service", only={
        "execute", "send_data", "send_eos", "send_eos_summary",
    })
    operator_methods = {
        "accept", "end_of_stream", "finish", "deliver_tuples", "deliver_key_rows",
        "complete", "sender_eos", "flush_all",
    }
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.RuntimeOperator):
            _wrap_class(rec, cls, "query.operators", only=operator_methods)
    plain_deliver = operators.ScanSource.deliver_tuples

    def deliver_tuples(self, tuples):
        if rec.active:
            rec.counts["rows_scanned"] = rec.counts.get("rows_scanned", 0) + len(tuples)
        return plain_deliver(self, tuples)

    operators.ScanSource.deliver_tuples = deliver_tuples
    _wrap_function(rec, planner, "compile_query", "optimizer")
    _wrap_function(rec, sql, "parse_query", "optimizer")

    # -- codecs (encode / decode / size estimates) and hashing -----------------------
    batches = (serialization.TupleBatch, serialization.EncodedTupleBatch,
               serialization.EncodedScanBatch)
    _wrap_function(rec, serialization, "encode_values", "codec.encode")
    for cls in batches:
        _wrap_class(rec, cls, "codec.encode",
                    only={"build", "marshal", "compressed_payload", "from_tuples"})
    _wrap_function(rec, serialization, "decode_values", "codec.decode")
    for cls in batches:
        _wrap_class(rec, cls, "codec.decode", only={
            "unmarshal", "decode_rows", "decode_rows_at", "decode_tuples", "decode_tuples_at",
        })
    _wrap_function(rec, types, "estimate_values_size", "codec.size")
    _wrap_function(rec, provenance, "batch_size", "codec.size")
    _wrap_function(rec, hashing, "sha1_key", "hashing")
    _wrap_function(rec, types, "partition_hash", "hashing")

    # -- runtime ------------------------------------------------------------------------
    _wrap_class(rec, Session, "runtime",
                only={"submit_publish", "submit_retrieve", "submit_query"})
    _wrap_class(rec, Scheduler, "runtime")

    # -- the four opt-in layers: the methods other layers call into ---------------------
    _wrap_class(rec, NodeCache, "cache")
    _wrap_class(rec, SemanticResultCache, "cache")
    _wrap_class(rec, NodeIntegrity, "integrity")
    _wrap_class(rec, resilience_service.NodeResilience, "resilience", only={
        "failover_call", "chase_call", "select_target", "call_timeout", "start_heartbeats",
        "_observe_reply", "_observe_failure",
    })
    _wrap_class(rec, Tracer, "obs", only={
        "on_send", "on_transmit", "on_retransmit", "on_duplicate", "begin_delivery",
        "end_delivery", "start_trace", "open_span", "end_span", "activate", "deactivate",
        "record_operator_summary",
    })

    # -- cdss ------------------------------------------------------------------------------
    _wrap_class(rec, Participant, "cdss", only={"modify", "publish", "import_updates"})
    _wrap_class(rec, UpdateExchange, "cdss", only={"compute_deltas"})
    _wrap_class(rec, Reconciler, "cdss", only={"reconcile"})
