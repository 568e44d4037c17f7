"""The tuple-at-a-time ``ScanSource`` that the vectorised one replaced.

``deliver_tuples`` / ``deliver_key_rows`` and the constructor state they read
are kept verbatim from the PR 12 tree (class renamed) as the reference for
``test_scan_source_differential.py``.  Not imported by anything under
``src/``.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.types import Row, VersionedTuple
from repro.query.expressions import compile_expression
from repro.query.operators import COST_SCAN_PER_ROW, FragmentContext, RuntimeOperator
from repro.query.physical import PhysScan
from repro.query.provenance import TaggedRow

#: Sentinel for a key-row projection onto columns outside the key.
_INVALID_PROJECTION: tuple = (-1,)


class ReferenceScanSource(RuntimeOperator):
    """Entry point of scanned tuples into the local fragment (row at a time)."""

    def __init__(self, context: FragmentContext, spec: PhysScan) -> None:
        super().__init__(context, spec.op_id, num_inputs=1)
        self.spec = spec
        self._emitted_ids: set = set()
        self.rows_produced = 0
        schema = spec.schema
        columns = spec.output_attributes()
        self._columns = columns
        self._schema_attributes = schema.attributes
        self._key_attributes = schema.key
        self._full_projection = (
            None if columns == schema.attributes
            else tuple(schema.index_of(name) for name in columns)
        )
        if columns == schema.key:
            self._key_projection = None
        else:
            try:
                self._key_projection = tuple(
                    schema.key.index(name) for name in columns
                )
            except ValueError:
                self._key_projection = _INVALID_PROJECTION
        self._residual_full = (
            None if spec.residual is None
            else compile_expression(spec.residual, schema.attributes)
        )
        self._residual_key = (
            None if spec.residual is None
            else compile_expression(spec.residual, schema.key)
        )

    def deliver_tuples(self, tuples: Sequence[VersionedTuple]) -> None:
        """Distributed scan: full tuples delivered at the data storage node."""
        emitted = self._emitted_ids
        residual = self._residual_full
        projection = self._full_projection
        attributes = self._schema_attributes
        columns = self._columns
        origin = frozenset({self.context.address})
        phase = self.context.phase
        fresh: list[TaggedRow] = []
        append = fresh.append
        for tup in tuples:
            tuple_id = tup.tuple_id
            if tuple_id in emitted:
                continue
            emitted.add(tuple_id)
            values = tup.values
            if residual is not None and not residual(values):
                continue
            if projection is not None:
                row = Row.unchecked(columns, tuple(values[i] for i in projection))
            else:
                row = Row.unchecked(attributes, values)
            append(TaggedRow(row, origin, phase))
        if fresh:
            self.rows_produced += len(fresh)
            self.context.charge_cpu(COST_SCAN_PER_ROW * len(tuples))
            self.emit(fresh)

    def deliver_key_rows(self, tuple_ids: Sequence) -> None:
        """Covering index scan: rows built from tuple IDs at the index node."""
        emitted = self._emitted_ids
        residual = self._residual_key
        projection = self._key_projection
        key_attributes = self._key_attributes
        columns = self._columns
        origin = frozenset({self.context.address})
        phase = self.context.phase
        fresh: list[TaggedRow] = []
        append = fresh.append
        for tid in tuple_ids:
            if tid in emitted:
                continue
            emitted.add(tid)
            key_values = tid.key_values
            if residual is not None and not residual(key_values):
                continue
            if projection is not None:
                if projection is _INVALID_PROJECTION:
                    raise KeyError(
                        f"covering scan of {self.spec.schema.name!r} selects "
                        f"columns outside the key attributes {key_attributes}"
                    )
                row = Row.unchecked(columns, tuple(key_values[i] for i in projection))
            else:
                row = Row.unchecked(key_attributes, key_values)
            append(TaggedRow(row, origin, phase))
        if fresh:
            self.rows_produced += len(fresh)
            self.context.charge_cpu(COST_SCAN_PER_ROW * len(tuple_ids))
            self.emit(fresh)

    def accept(self, rows, input_index: int = 0) -> None:  # pragma: no cover
        raise AssertionError("a scan source has no operator inputs")
