"""Runtime (per-node) query operators — the engine side of Table I.

Every node participating in a query instantiates the same *fragment*: one
runtime operator per physical operator in the plan, wired parent-to-child
exactly as in the plan, with exchanges (rehash / ship) split into a sender
half (on the producing side) and a receiver half (on the consuming side).
Data flows bottom-up in a push style: sources call ``emit`` which invokes the
parent's ``accept``; when a source finishes it calls ``end_of_stream`` on its
parent, and the notification cascades to the exchange senders, which forward
it over the network.

All operators carry the provenance and phase machinery of Section V-D:

* every :class:`~repro.query.provenance.TaggedRow` carries the set of nodes
  that processed it;
* stateful operators (join hash tables, aggregate groups, exchange caches) can
  ``purge_tainted`` state derived from failed nodes;
* ``reset_for_phase`` re-arms end-of-stream tracking so the same fragment can
  run additional incremental-recovery phases.

Vectorized execution
--------------------
Operators process batches column-at-a-time wherever the work is per-row
bookkeeping rather than per-row semantics: predicates and projections are
compiled once per attribute signature into positional closures over the raw
value tuples (:func:`~repro.query.expressions.compile_expression`), join and
group keys are extracted through precomputed column-index tuples, and taint
tracking takes a batch-level fast path — a batch is only examined row by row
when a failure is actually active (``context.failed_nodes`` non-empty).  All
of this changes *how fast* a batch is processed, never *what* is emitted:
batch boundaries, emitted rows, CPU charges and wire bytes are identical to
the row-at-a-time implementation (the figure benchmarks are byte-compared).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Protocol, Sequence

from ..common.errors import PlanError
from ..common.types import Row, Value, partition_hash
from ..common.types import VersionedTuple
from ..common.types import attribute_index
from ..common.types import concat_attributes as _concat_attributes
from .expressions import (
    AggregateSpec,
    Expression,
    compile_columnar,
    compile_expression,
)
from .physical import (
    PhysAggregate,
    PhysHashJoin,
    PhysProject,
    PhysRehash,
    PhysScan,
    PhysSelect,
    PhysShip,
    PhysicalOperator,
    PhysicalPlan,
)
from .provenance import TaggedRow

# Per-row CPU costs (seconds) for the simulator's cost accounting.  They are
# calibrated so that single-node runs of the scaled workloads land in the same
# order of magnitude as the paper's figures; only relative behaviour matters.
COST_SELECT_PER_ROW = 0.15e-6
COST_PROJECT_PER_ROW = 0.25e-6
COST_JOIN_PER_ROW = 0.6e-6
COST_AGGREGATE_PER_ROW = 0.5e-6
COST_REHASH_PER_ROW = 0.35e-6
COST_SCAN_PER_ROW = 0.8e-6


class FragmentContext(Protocol):
    """What runtime operators need from their host (implemented by the query
    service's per-query node context)."""

    address: str
    phase: int
    failed_nodes: set[str]
    provenance_enabled: bool
    #: True when the cluster is large enough that rehash end-of-stream for
    #: destinations that never received data is relayed through the initiator
    #: (one summary per sender, one aggregated marker per destination) instead
    #: of a direct O(n²) fan-out of empty-pair EOS messages.
    eos_relay_enabled: bool

    def charge_cpu(self, seconds: float) -> None: ...

    def destination_for(self, hash_key: int) -> str: ...

    def participants(self) -> list[str]: ...

    def initiator(self) -> str: ...

    def send_rows(
        self, destination: str, exchange_id: int, rows: list[TaggedRow], eos: bool = False
    ) -> None: ...

    def send_eos(self, destination: str, exchange_id: int) -> None: ...

    def send_eos_summary(self, exchange_id: int, zero_destinations: list[str]) -> None: ...


class RuntimeOperator:
    """Base class of all per-node runtime operators."""

    def __init__(self, context: FragmentContext, op_id: int, num_inputs: int = 1) -> None:
        self.context = context
        self.op_id = op_id
        self.num_inputs = num_inputs
        self.parent: "RuntimeOperator | None" = None
        self.parent_input = 0
        self._inputs_done: set[int] = set()
        self.finished = False

    # -- wiring ------------------------------------------------------------------

    def connect(self, parent: "RuntimeOperator", parent_input: int = 0) -> None:
        self.parent = parent
        self.parent_input = parent_input

    def emit(self, rows: list[TaggedRow]) -> None:
        if rows and self.parent is not None:
            self.parent.accept(rows, self.parent_input)

    def emit_eos(self) -> None:
        if self.parent is not None:
            self.parent.end_of_stream(self.parent_input)

    # -- dataflow -----------------------------------------------------------------

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        raise NotImplementedError

    def end_of_stream(self, input_index: int = 0) -> None:
        self._inputs_done.add(input_index)
        if len(self._inputs_done) >= self.num_inputs and not self.finished:
            self.finished = True
            self.finish()

    def finish(self) -> None:
        """Called once all inputs reached end-of-stream; default: propagate."""
        self.emit_eos()

    # -- recovery -------------------------------------------------------------------

    def purge_tainted(self, failed: set[str]) -> int:
        """Drop state derived from ``failed`` nodes; returns dropped item count."""
        return 0

    def reset_for_phase(self, phase: int) -> None:
        """Re-arm end-of-stream tracking for a new recovery phase."""
        self._inputs_done.clear()
        self.finished = False

    # -- teardown -------------------------------------------------------------------

    def release(self) -> None:
        """Cut the links that tie this operator into its fragment.

        ``operator → context → fragment → operator`` is a reference cycle;
        without this, everything a finished query accumulated (join tables,
        exchange caches, emitted-ID sets) waits for the cycle collector.
        A released operator is inert: ``emit``/``emit_eos`` go nowhere.
        """
        self.parent = None
        self.context = None


# ---------------------------------------------------------------------------
# Leaf: scan source
# ---------------------------------------------------------------------------


_TUPLE_ID = attrgetter("tuple_id")
_TUPLE_VALUES = attrgetter("values")
_KEY_VALUES = attrgetter("key_values")


class _DeliveryPlan:
    """What one input form of a scan (full tuples, or key rows) needs per
    batch, resolved once: which input columns the residual reads, the
    residual compiled over just those, and the output projection (a function
    from the batch's value tuples to the projected ones, None for identity)."""

    __slots__ = ("residual", "residual_columns", "project", "output_attributes")

    def __init__(
        self, spec: PhysScan, attributes: tuple[str, ...], columns: tuple[str, ...]
    ) -> None:
        if spec.residual is None:
            self.residual = None
            self.residual_columns: tuple[int, ...] = ()
        else:
            # Transposing a batch costs one pass per column, so the residual
            # is compiled against the columns it references only (two or
            # three of lineitem's sixteen, typically).
            referenced = spec.residual.references()
            self.residual_columns = tuple(
                index for index, name in enumerate(attributes) if name in referenced
            )
            self.residual = compile_columnar(
                spec.residual, tuple(attributes[i] for i in self.residual_columns)
            )
        if columns == attributes:
            self.output_attributes = attributes
            self.project = None
            return
        self.output_attributes = columns
        try:
            positions = [attributes.index(name) for name in columns]
        except ValueError:
            # Columns outside the key: only covering scans deliver key rows,
            # and a covering plan never selects such columns.  The failure
            # surfaces on delivery, once a row survives dedup and the
            # residual.
            def outside_key(_rows: list[tuple]):
                raise KeyError(
                    f"covering scan of {spec.schema.name!r} selects "
                    f"columns outside the key attributes {attributes}"
                )

            self.project = outside_key
            return
        getter = itemgetter(*positions)
        if len(positions) > 1:
            self.project = lambda rows: map(getter, rows)
        else:
            # itemgetter of one position yields the bare value; zip wraps
            # each into the 1-tuple a row's values must be.
            self.project = lambda rows: zip(map(getter, rows))


class ScanSource(RuntimeOperator):
    """Entry point of scanned tuples into the local fragment.

    Tuples are delivered either by the local data-storage role (distributed
    scan) or by the local index-node role (covering scan).  Delivery is
    idempotent per tuple ID, which makes recovery rescans safe: a tuple that
    was already produced by this node is silently skipped.

    A batch is processed as a batch: de-duplication is set algebra, the
    residual runs column-at-a-time over the columns it reads, and projection
    and row construction are C-level maps.  What comes out — rows, their
    order, the shared attributes tuple, the CPU charge — is exactly what the
    tuple-at-a-time loop produced (``tests/query/reference_scan.py`` keeps
    that loop as the differential reference).
    """

    def __init__(self, context: FragmentContext, spec: PhysScan) -> None:
        super().__init__(context, spec.op_id, num_inputs=1)
        self.spec = spec
        self._emitted_ids: set = set()
        self.rows_produced = 0
        #: Delivery plans by input attribute tuple, compiled on first use: a
        #: scan is either covering or distributed, so only one form is ever
        #: delivered and only that one is compiled.
        self._plans: dict[tuple[str, ...], _DeliveryPlan] = {}

    def deliver_tuples(self, tuples: Sequence[VersionedTuple]) -> None:
        """Distributed scan: full tuples delivered at the data storage node."""
        self._deliver(
            self.spec.schema.attributes,
            list(map(_TUPLE_ID, tuples)),
            list(map(_TUPLE_VALUES, tuples)),
        )

    def deliver_key_rows(self, tuple_ids: Sequence) -> None:
        """Covering index scan: rows built from tuple IDs at the index node."""
        self._deliver(
            self.spec.schema.key, tuple_ids, list(map(_KEY_VALUES, tuple_ids))
        )

    def _deliver(
        self, attributes: tuple[str, ...], tuple_ids: Sequence, values: list[tuple]
    ) -> None:
        context = self.context
        if context is None:
            return  # torn down: a late replica-chase reply has nowhere to go
        delivered = len(values)
        emitted = self._emitted_ids
        fresh_ids = set(tuple_ids)
        if len(fresh_ids) == delivered and emitted.isdisjoint(fresh_ids):
            emitted |= fresh_ids
        else:
            # A recovery rescan re-delivering what this node already produced
            # (or an ID repeated within the batch): first occurrence wins.
            keep = []
            for tuple_id in tuple_ids:
                keep.append(tuple_id not in emitted)
                emitted.add(tuple_id)
            values = list(compress(values, keep))
        if not values:
            return
        plan = self._plans.get(attributes)
        if plan is None:
            plan = self._plans[attributes] = _DeliveryPlan(
                self.spec, attributes, self.spec.output_attributes()
            )
        if plan.residual is not None:
            # IDs the residual rejects stay recorded as emitted, above.
            columns = [list(map(itemgetter(i), values)) for i in plan.residual_columns]
            values = list(compress(values, plan.residual(columns, len(values))))
            if not values:
                return
        if plan.project is not None:
            values = plan.project(values)
        rows = map(Row.unchecked, repeat(plan.output_attributes), values)
        fresh = list(map(
            TaggedRow, rows, repeat(frozenset({context.address})), repeat(context.phase)
        ))
        self.rows_produced += len(fresh)
        context.charge_cpu(COST_SCAN_PER_ROW * delivered)
        self.emit(fresh)

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:  # pragma: no cover
        raise PlanError("ScanSource has no operator inputs")

    def complete(self) -> None:
        """Called by the query service when all scan producers are done."""
        self.end_of_stream(0)


# ---------------------------------------------------------------------------
# Stateless operators
# ---------------------------------------------------------------------------


class SelectOperator(RuntimeOperator):
    """Selection on intermediate results.

    The predicate is compiled once per input attribute signature into a
    *columnar* evaluator (:func:`~repro.query.expressions.compile_columnar`):
    the batch is transposed into column lists with one C-level ``zip``, the
    predicate produces a boolean mask column, and the mask filters the tagged
    rows.  Rows of one batch share one attribute list by construction (they
    are one operator's output for one destination).
    """

    def __init__(self, context: FragmentContext, spec: PhysSelect) -> None:
        super().__init__(context, spec.op_id)
        self.predicate: Expression = spec.predicate
        self._compiled: dict[tuple[str, ...], Callable] = {}

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        self.context.charge_cpu(COST_SELECT_PER_ROW * len(rows))
        if not rows:
            return
        attributes = rows[0].row.attributes
        predicate = self._compiled.get(attributes)
        if predicate is None:
            predicate = self._compiled[attributes] = compile_columnar(
                self.predicate, attributes
            )
        count = len(rows)
        columns = list(zip(*[tagged.row.values for tagged in rows]))
        mask = predicate(columns, count)
        self.emit([tagged for tagged, keep in zip(rows, mask) if keep])


class ProjectOperator(RuntimeOperator):
    """Projection / scalar function evaluation (Project and Compute-function).

    Output expressions are compiled per input attribute signature into
    columnar evaluators; a batch is transposed once, each output column is
    computed as a list, and the output columns are zipped straight back into
    value tuples.  Output rows share one attributes tuple object.
    """

    def __init__(self, context: FragmentContext, spec: PhysProject) -> None:
        super().__init__(context, spec.op_id)
        self.outputs = list(spec.outputs)
        self._attributes = tuple(name for name, _ in self.outputs)
        self._compiled: dict[tuple[str, ...], tuple[Callable, ...]] = {}

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        self.context.charge_cpu(COST_PROJECT_PER_ROW * len(rows) * max(1, len(self.outputs)))
        if not rows:
            return
        attributes = rows[0].row.attributes
        compiled = self._compiled.get(attributes)
        if compiled is None:
            compiled = self._compiled[attributes] = tuple(
                compile_columnar(expr, attributes) for _name, expr in self.outputs
            )
        count = len(rows)
        columns = list(zip(*[tagged.row.values for tagged in rows]))
        out_attributes = self._attributes
        unchecked = Row.unchecked
        if compiled:
            output_columns = [fn(columns, count) for fn in compiled]
            value_rows: Sequence[tuple] = list(zip(*output_columns))
        else:
            value_rows = [()] * count  # zero outputs: one empty row per input
        projected = [
            TaggedRow(unchecked(out_attributes, values), tagged.nodes, tagged.phase)
            for tagged, values in zip(rows, value_rows)
        ]
        self.emit(projected)


# ---------------------------------------------------------------------------
# Pipelined hash join
# ---------------------------------------------------------------------------


class HashJoinOperator(RuntimeOperator):
    """Symmetric (pipelined) hash join.

    Both inputs are kept in hash tables keyed by their join-key values, so the
    operator produces results incrementally as rows arrive from either side —
    and, for recovery, retains the in-memory snapshot needed to re-produce
    results without rescanning (Section V-D).
    """

    def __init__(self, context: FragmentContext, spec: PhysHashJoin) -> None:
        super().__init__(context, spec.op_id, num_inputs=2)
        self.spec = spec
        self._tables: tuple[dict, dict] = ({}, {})
        self._key_attrs = (spec.left_keys, spec.right_keys)
        #: (side, input attributes) -> column positions of the join keys.
        self._key_indexes: dict[tuple[int, tuple[str, ...]], tuple[int, ...]] = {}
        self.rows_joined = 0

    def _key_positions(self, side: int, attributes: tuple[str, ...]) -> tuple[int, ...]:
        cache_key = (side, attributes)
        positions = self._key_indexes.get(cache_key)
        if positions is None:
            lookup = attribute_index(attributes)
            positions = self._key_indexes[cache_key] = tuple(
                lookup[name] for name in self._key_attrs[side]
            )
        return positions

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        if input_index not in (0, 1):
            raise PlanError("hash join has exactly two inputs")
        self.context.charge_cpu(COST_JOIN_PER_ROW * len(rows))
        if not rows:
            return
        positions = self._key_positions(input_index, rows[0].row.attributes)
        single_key = positions[0] if len(positions) == 1 else None
        own_table = self._tables[input_index]
        other_table = self._tables[1 - input_index]
        this_is_left = input_index == 0
        output: list[TaggedRow] = []
        append = output.append
        unchecked = Row.unchecked
        #: attributes of the joined rows, resolved on the first match of the
        #: batch (both sides' attribute tuples are fixed per plan).
        joined_attributes: tuple[str, ...] | None = None
        for tagged in rows:
            row = tagged.row
            values = row.values
            if single_key is not None:
                key = (values[single_key],)
            else:
                key = tuple([values[i] for i in positions])
            bucket = own_table.get(key)
            if bucket is None:
                own_table[key] = [tagged]
            else:
                bucket.append(tagged)
            matches = other_table.get(key)
            if not matches:
                continue
            # Inlined merge + concat: per output row this costs one tuple
            # add, one provenance union (skipped when both sides carry the
            # same node set) and two slotted allocations.
            nodes = tagged.nodes
            phase = tagged.phase
            if joined_attributes is None:
                other_attributes = matches[0].row.attributes
                if this_is_left:
                    joined_attributes = _concat_attributes(
                        row.attributes, other_attributes
                    )
                else:
                    joined_attributes = _concat_attributes(
                        other_attributes, row.attributes
                    )
            for match in matches:
                match_nodes = match.nodes
                if nodes is match_nodes or nodes == match_nodes:
                    merged_nodes = nodes
                else:
                    merged_nodes = nodes | match_nodes
                merged_phase = phase if phase >= match.phase else match.phase
                if this_is_left:
                    joined_values = values + match.row.values
                else:
                    joined_values = match.row.values + values
                append(TaggedRow(
                    unchecked(joined_attributes, joined_values),
                    merged_nodes, merged_phase,
                ))
        if output:
            self.rows_joined += len(output)
            self.context.charge_cpu(COST_JOIN_PER_ROW * len(output))
            self.emit(output)

    def purge_tainted(self, failed: set[str]) -> int:
        dropped = 0
        for table in self._tables:
            for key in list(table.keys()):
                kept = [row for row in table[key] if not row.tainted_by(failed)]
                dropped += len(table[key]) - len(kept)
                if kept:
                    table[key] = kept
                else:
                    del table[key]
        return dropped


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class _SubGroup:
    """Aggregate state for one (group key, contributing node set) pair.

    Partitioning each group into per-node-set sub-groups is what allows
    recovery to drop exactly the contributions of failed nodes without
    touching the rest of the group (Section V-D).
    """

    nodes: frozenset[str]
    states: list[Value]
    phase: int = 0


class AggregateOperator(RuntimeOperator):
    """Blocking hash aggregation with re-aggregation support.

    ``merge_partials`` selects whether the input consists of raw rows (apply
    ``add``) or of partial aggregate states produced by an upstream aggregate
    (apply ``merge``).  Groups are internally partitioned into sub-groups per
    contributing node set to support taint purging.
    """

    def __init__(self, context: FragmentContext, spec: PhysAggregate) -> None:
        super().__init__(context, spec.op_id)
        self.spec = spec
        self.group_by = spec.group_by
        self.aggregates: tuple[AggregateSpec, ...] = spec.aggregates
        self.merge_partials = spec.merge_partials
        # group key -> {node set -> _SubGroup}
        self._groups: dict[tuple, dict[frozenset, _SubGroup]] = {}
        self._dirty: set[tuple] = set()
        self._has_emitted = False
        self._output_attributes = spec.output_attributes()
        #: input attributes -> (group-key column positions, argument closures)
        self._compiled: dict[tuple[str, ...], tuple] = {}

    # -- input ----------------------------------------------------------------------

    def _compiled_for(self, attributes: tuple[str, ...]) -> tuple:
        compiled = self._compiled.get(attributes)
        if compiled is None:
            lookup = attribute_index(attributes)
            key_positions = tuple(lookup[name] for name in self.group_by)
            steps = tuple(
                (
                    index,
                    compile_expression(spec.argument, attributes),
                    spec.function.merge if self.merge_partials else spec.function.add,
                )
                for index, spec in enumerate(self.aggregates)
            )
            initials = tuple(spec.function for spec in self.aggregates)
            compiled = self._compiled[attributes] = (key_positions, steps, initials)
        return compiled

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        self.context.charge_cpu(COST_AGGREGATE_PER_ROW * len(rows) * max(1, len(self.aggregates)))
        if not rows:
            return
        key_positions, steps, initials = self._compiled_for(rows[0].row.attributes)
        single_key = key_positions[0] if len(key_positions) == 1 else None
        groups = self._groups
        dirty = self._dirty
        for tagged in rows:
            values = tagged.row.values
            if single_key is not None:
                group_key = (values[single_key],)
            else:
                group_key = tuple([values[i] for i in key_positions])
            subgroups = groups.get(group_key)
            if subgroups is None:
                subgroups = groups[group_key] = {}
            nodes = tagged.nodes
            subgroup = subgroups.get(nodes)
            if subgroup is None:
                subgroup = subgroups[nodes] = _SubGroup(
                    nodes=nodes,
                    states=[function.initial() for function in initials],
                    phase=tagged.phase,
                )
            if tagged.phase > subgroup.phase:
                subgroup.phase = tagged.phase
            states = subgroup.states
            for index, argument, combine in steps:
                states[index] = combine(states[index], argument(values))
            dirty.add(group_key)

    # -- output ----------------------------------------------------------------------

    def finish(self) -> None:
        """Emit aggregate rows.

        On the first completion every group is emitted.  On later completions
        (incremental-recovery phases) only the groups whose state changed
        since the previous emission are re-emitted; the downstream collector
        replaces the previous values for those groups.

        Partial aggregates emit **one row per sub-group** (per contributing
        node set) rather than merging sub-groups: the downstream aggregate or
        collector merges them anyway, and keeping them separate means a later
        taint purge drops exactly the failed nodes' contributions instead of
        entangling them with healthy ones (the point of the sub-group scheme
        in Section V-D).
        """
        groups_to_emit = (
            set(self._groups.keys()) if not self._has_emitted else set(self._dirty)
        )
        output: list[TaggedRow] = []
        for group_key in sorted(groups_to_emit, key=repr):
            subgroups = self._groups.get(group_key)
            if not subgroups:
                continue
            if self.merge_partials:
                merged_states = [spec.function.initial() for spec in self.aggregates]
                contributing: frozenset[str] = frozenset()
                for subgroup in subgroups.values():
                    contributing |= subgroup.nodes
                    for index, spec in enumerate(self.aggregates):
                        merged_states[index] = spec.function.merge(
                            merged_states[index], subgroup.states[index]
                        )
                values = tuple(group_key) + tuple(
                    spec.function.result(state)
                    for spec, state in zip(self.aggregates, merged_states)
                )
                row = Row(self._output_attributes, values)
                output.append(TaggedRow(
                    row, contributing | {self.context.address}, self.context.phase
                ))
            else:
                # Partial aggregation: one row of mergeable states per sub-group.
                for subgroup in subgroups.values():
                    values = tuple(group_key) + tuple(subgroup.states)
                    row = Row(self._output_attributes, values)
                    output.append(TaggedRow(
                        row,
                        subgroup.nodes | {self.context.address},
                        self.context.phase,
                    ))
        self._has_emitted = True
        self._dirty.clear()
        if not self.merge_partials:
            # Partial aggregates emit deltas: once shipped, the accumulated
            # state must not be re-shipped in a later phase, so clear it.
            self._groups.clear()
        self.emit(output)
        self.emit_eos()

    # -- recovery ---------------------------------------------------------------------

    def purge_tainted(self, failed: set[str]) -> int:
        dropped = 0
        for group_key in list(self._groups.keys()):
            subgroups = self._groups[group_key]
            for node_set in list(subgroups.keys()):
                if node_set & failed:
                    del subgroups[node_set]
                    dropped += 1
                    self._dirty.add(group_key)
            if not subgroups:
                del self._groups[group_key]
        return dropped

    def group_count(self) -> int:
        return len(self._groups)


# ---------------------------------------------------------------------------
# Exchanges: rehash and ship senders, exchange receivers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _CachedRow:
    """A sent row remembered for possible re-transmission during recovery."""

    tagged: TaggedRow
    destination: str
    hash_key: int | None


class ExchangeSender(RuntimeOperator):
    """Common machinery of the rehash and ship senders: batching, caching of
    sent rows (the downstream cache of Section V-D) and end-of-stream fan-out."""

    BATCH_ROWS = 256

    def __init__(self, context: FragmentContext, op_id: int) -> None:
        super().__init__(context, op_id)
        self._buffers: dict[str, list[TaggedRow]] = {}
        self._cache: list[_CachedRow] = []
        #: Destinations this sender has shipped at least one data batch to, in
        #: any phase.  Deliberately never reset across recovery phases: a
        #: destination with prior-phase data may still have batches in flight
        #: on the pair channel, so its EOS must ride the same channel (FIFO)
        #: rather than the initiator relay, which could overtake them.
        self._sent_destinations: set[str] = set()
        self.rows_sent = 0
        self.batches_sent = 0

    # Subclasses decide where a row goes.
    def route(self, tagged: TaggedRow) -> tuple[str, int | None]:
        raise NotImplementedError

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        self.context.charge_cpu(COST_REHASH_PER_ROW * len(rows))
        if not rows:
            return
        route = self.route_batch(rows)
        buffers = self._buffers
        cache_append = self._cache.append
        batch_limit = self.BATCH_ROWS
        for tagged, (destination, hash_key) in zip(rows, route):
            cache_append(_CachedRow(tagged, destination, hash_key))
            buffer = buffers.get(destination)
            if buffer is None:
                buffer = buffers[destination] = []
            buffer.append(tagged)
            if len(buffer) >= batch_limit:
                self._flush_destination(destination)

    def route_batch(self, rows: list[TaggedRow]) -> list[tuple[str, int | None]]:
        """Route a whole batch; subclasses override with columnar fast paths.

        The default delegates to :meth:`route` row by row, so custom senders
        that only implement ``route`` keep working.
        """
        return [self.route(tagged) for tagged in rows]

    def _flush_destination(self, destination: str) -> None:
        buffer = self._buffers.get(destination)
        if buffer:
            self._sent_destinations.add(destination)
            self.context.send_rows(destination, self.op_id, buffer)
            self.rows_sent += len(buffer)
            self.batches_sent += 1
            self._buffers[destination] = []

    def flush_all(self) -> None:
        for destination in list(self._buffers.keys()):
            self._flush_destination(destination)

    def finish(self) -> None:
        # End-of-stream piggybacks on the final residual batch where one
        # exists: a separate EOS message is mostly fixed per-message framing,
        # so folding the marker into the last ``query.data`` cast (a one-byte
        # flag) saves a whole control message per (sender, destination) pair.
        # Destinations with nothing left buffered still get an explicit EOS —
        # directly when data went to them earlier (the EOS must trail that
        # data on the pair channel), or via the initiator relay for
        # destinations that never saw a row from this sender, turning the
        # O(n²) empty-pair fan-out into O(n) summaries on large clusters.
        needs_eos = set(self.eos_destinations())
        for destination in list(self._buffers.keys()):
            buffer = self._buffers.get(destination)
            if buffer and destination in needs_eos:
                needs_eos.discard(destination)
                self._sent_destinations.add(destination)
                self.context.send_rows(destination, self.op_id, buffer, eos=True)
                self.rows_sent += len(buffer)
                self.batches_sent += 1
                self._buffers[destination] = []
        self.flush_all()
        relay = self.use_eos_summary()
        zero: list[str] = []
        for destination in self.eos_destinations():
            if destination not in needs_eos:
                continue
            if relay and destination not in self._sent_destinations:
                zero.append(destination)
            else:
                self.context.send_eos(destination, self.op_id)
        if relay:
            # Always reported, even with an empty zero list: the initiator
            # relays a destination's aggregated marker only once *every*
            # expected sender has reported, so silence would stall the relay.
            self.context.send_eos_summary(self.op_id, zero)

    def eos_destinations(self) -> list[str]:
        raise NotImplementedError

    def use_eos_summary(self) -> bool:
        """Whether end-of-stream for never-sent-to destinations goes through
        the initiator relay (rehash senders on large clusters only)."""
        return False

    # -- recovery -----------------------------------------------------------------------

    def purge_tainted(self, failed: set[str]) -> int:
        before = len(self._cache)
        self._cache = [entry for entry in self._cache if not entry.tagged.tainted_by(failed)]
        for destination, buffer in self._buffers.items():
            self._buffers[destination] = [
                row for row in buffer if not row.tainted_by(failed)
            ]
        return before - len(self._cache)

    def resend_for_failed(self, failed: set[str]) -> int:
        """Re-transmit cached rows whose original destination failed.

        The rows are re-routed under the *current* snapshot (the context
        already holds the post-failure routing) and stamped with the current
        phase.  Returns the number of rows re-sent.
        """
        resent: dict[str, list[TaggedRow]] = {}
        for entry in self._cache:
            if entry.destination not in failed:
                continue
            new_destination, new_hash = self._reroute(entry)
            refreshed = entry.tagged.with_phase(self.context.phase)
            resent.setdefault(new_destination, []).append(refreshed)
            entry.destination = new_destination
            entry.tagged = refreshed
        count = 0
        for destination, rows in resent.items():
            self._sent_destinations.add(destination)
            self.context.send_rows(destination, self.op_id, rows)
            count += len(rows)
            self.rows_sent += len(rows)
            self.batches_sent += 1
        return count

    def _reroute(self, entry: _CachedRow) -> tuple[str, int | None]:
        return self.route(entry.tagged)


class RehashSender(ExchangeSender):
    """Partition the input across all participants by hashing key attributes.

    Routing a batch extracts the key columns through precomputed positions
    and resolves each distinct key's ring position once per batch — repeated
    keys (skewed joins, group-bys) hit the per-batch memo, and the
    ``partition_hash`` memo absorbs repeats across batches.
    """

    def __init__(self, context: FragmentContext, spec: PhysRehash) -> None:
        super().__init__(context, spec.op_id)
        self.keys = spec.keys
        self._key_indexes: dict[tuple[str, ...], tuple[int, ...]] = {}

    def route(self, tagged: TaggedRow) -> tuple[str, int]:
        key_values = tuple(tagged.row[attr] for attr in self.keys)
        hash_key = partition_hash(key_values)
        return self.context.destination_for(hash_key), hash_key

    def route_batch(self, rows: list[TaggedRow]) -> list[tuple[str, int]]:
        attributes = rows[0].row.attributes
        positions = self._key_indexes.get(attributes)
        if positions is None:
            lookup = attribute_index(attributes)
            positions = self._key_indexes[attributes] = tuple(
                lookup[name] for name in self.keys
            )
        single_key = positions[0] if len(positions) == 1 else None
        destination_for = self.context.destination_for
        routed: dict[tuple, tuple[str, int]] = {}
        result: list[tuple[str, int]] = []
        append = result.append
        for tagged in rows:
            values = tagged.row.values
            if single_key is not None:
                key_values = (values[single_key],)
            else:
                key_values = tuple([values[i] for i in positions])
            target = routed.get(key_values)
            if target is None:
                hash_key = partition_hash(key_values)
                target = routed[key_values] = (destination_for(hash_key), hash_key)
            append(target)
        return result

    def eos_destinations(self) -> list[str]:
        return self.context.participants()

    def use_eos_summary(self) -> bool:
        return self.context.eos_relay_enabled


class ShipSender(ExchangeSender):
    """Send every input row to the query initiator."""

    def __init__(self, context: FragmentContext, spec: PhysShip) -> None:
        super().__init__(context, spec.op_id)

    def route(self, tagged: TaggedRow) -> tuple[str, None]:
        return self.context.initiator(), None

    def route_batch(self, rows: list[TaggedRow]) -> list[tuple[str, None]]:
        return [(self.context.initiator(), None)] * len(rows)

    def eos_destinations(self) -> list[str]:
        return [self.context.initiator()]


class ExchangeReceiver(RuntimeOperator):
    """Receiving half of a rehash exchange on one node.

    Incoming rows are tagged with the local node (they have now been processed
    here) and forwarded to the exchange's parent operator.  The receiver
    tracks end-of-stream notifications from every sender; when all expected
    senders for the current phase are done it signals end-of-stream upward.
    """

    def __init__(self, context: FragmentContext, exchange_id: int) -> None:
        super().__init__(context, exchange_id, num_inputs=1)
        self.exchange_id = exchange_id
        #: End-of-stream notifications received, as (sender, phase) pairs.
        #: Stale phase-0 notifications that are still in flight when recovery
        #: starts must not count towards the recovery phase's completion.
        self._eos_senders: set[tuple[str, int]] = set()
        self._expected_senders: set[str] = set(context.participants())
        #: Expected senders still outstanding for ``_pending_phase``, kept
        #: incrementally so the per-EOS completion check stays O(1) instead
        #: of rebuilding two O(participants) sets each time.  Invalidated on
        #: phase change and on reset_for_phase.
        self._pending: set[str] | None = None
        self._pending_phase = -1
        self.rows_received = 0

    def accept(self, rows: list[TaggedRow], input_index: int = 0) -> None:
        failed = self.context.failed_nodes
        if not failed:
            # Batch fast path: no active failure, nothing can be tainted.
            live = rows
        elif any(row.nodes & failed for row in rows):
            # A failure intersects this batch: fall back to per-row taint.
            live = [row for row in rows if not row.nodes & failed]
        else:
            live = rows
        if not live:
            return
        self.rows_received += len(live)
        # Rows of a batch share a handful of distinct provenance sets; the
        # per-batch memo tags each distinct set with this node once.
        address = self.context.address
        retagged: dict[frozenset, frozenset] = {}
        tagged_here: list[TaggedRow] = []
        append = tagged_here.append
        for row in live:
            nodes = row.nodes
            new_nodes = retagged.get(nodes)
            if new_nodes is None:
                new_nodes = retagged[nodes] = (
                    nodes if address in nodes else nodes | {address}
                )
            append(row if new_nodes is nodes else TaggedRow(row.row, new_nodes, row.phase))
        self.emit(tagged_here)

    def sender_eos(self, senders: Sequence[str], phase: int = 0) -> None:
        """Credit end-of-stream from ``senders`` — one sender's own EOS, or
        an initiator relay's set — with one completion check per call."""
        self._eos_senders.update((sender, phase) for sender in senders)
        if self._pending is not None and self._pending_phase == phase:
            self._pending.difference_update(senders)
        self._check_done()

    def _check_done(self) -> None:
        if self.finished:
            return
        # Equivalent to (expected - failed) <= received(current phase),
        # restated as pending <= failed with pending := expected - received.
        phase = self.context.phase
        pending = self._pending
        if pending is None or self._pending_phase != phase:
            received = {s for s, p in self._eos_senders if p == phase}
            pending = {s for s in self._expected_senders if s not in received}
            self._pending = pending
            self._pending_phase = phase
        if pending:
            failed = self.context.failed_nodes
            if len(pending) > len(failed) or pending - failed:
                return
        self.finished = True
        self.emit_eos()

    def reset_for_phase(self, phase: int) -> None:
        super().reset_for_phase(phase)
        self._expected_senders = {
            address for address in self.context.participants()
            if address not in self.context.failed_nodes
        }
        self._pending = None


# ---------------------------------------------------------------------------
# Fragment assembly
# ---------------------------------------------------------------------------


@dataclass
class Fragment:
    """All runtime operators of one query on one node."""

    operators: dict[int, RuntimeOperator]
    scan_sources: dict[int, ScanSource]
    senders: dict[int, ExchangeSender]
    receivers: dict[int, ExchangeReceiver]

    def purge_tainted(self, failed: set[str]) -> int:
        return sum(op.purge_tainted(failed) for op in self.operators.values())

    def reset_for_phase(self, phase: int) -> None:
        for op in self.operators.values():
            op.reset_for_phase(phase)

    def release(self) -> None:
        """Unlink every operator and empty the fragment (query teardown).

        Afterwards the operators' state dies by reference counting as soon
        as the last outside holder lets go, and a late lookup in any of the
        four maps finds nothing.
        """
        for op in self.operators.values():
            op.release()
        self.operators.clear()
        self.scan_sources.clear()
        self.senders.clear()
        self.receivers.clear()


def build_fragment(plan: PhysicalPlan, context: FragmentContext) -> Fragment:
    """Instantiate the runtime operators of ``plan`` for one node."""
    operators: dict[int, RuntimeOperator] = {}
    scan_sources: dict[int, ScanSource] = {}
    senders: dict[int, ExchangeSender] = {}
    receivers: dict[int, ExchangeReceiver] = {}

    def build(op: PhysicalOperator) -> RuntimeOperator:
        """Build the runtime operator for ``op``; returns the operator whose
        output feeds ``op``'s parent (for exchanges this is the receiver)."""
        if isinstance(op, PhysScan):
            runtime: RuntimeOperator = ScanSource(context, op)
            scan_sources[op.op_id] = runtime  # type: ignore[assignment]
        elif isinstance(op, PhysSelect):
            runtime = SelectOperator(context, op)
            build(op.child).connect(runtime, 0)
        elif isinstance(op, PhysProject):
            runtime = ProjectOperator(context, op)
            build(op.child).connect(runtime, 0)
        elif isinstance(op, PhysHashJoin):
            runtime = HashJoinOperator(context, op)
            build(op.left).connect(runtime, 0)
            build(op.right).connect(runtime, 1)
        elif isinstance(op, PhysAggregate):
            runtime = AggregateOperator(context, op)
            build(op.child).connect(runtime, 0)
        elif isinstance(op, PhysRehash):
            sender = RehashSender(context, op)
            build(op.child).connect(sender, 0)
            senders[op.op_id] = sender
            operators[-op.op_id] = sender  # keep sender reachable for purging
            receiver = ExchangeReceiver(context, op.op_id)
            receivers[op.op_id] = receiver
            runtime = receiver
        elif isinstance(op, PhysShip):
            sender = ShipSender(context, op)
            build(op.child).connect(sender, 0)
            senders[op.op_id] = sender
            runtime = sender
        else:
            raise PlanError(f"unknown physical operator {type(op).__name__}")
        operators[op.op_id] = runtime
        return runtime

    build(plan.root)
    # ``build`` refers to itself through its own closure cell, and that cell
    # sits beside the ones holding the four maps: left alone, the function
    # would keep the whole fragment alive until the cycle collector ran.
    del build
    return Fragment(operators, scan_sources, senders, receivers)
