"""The list-walking participant that the keyed replica replaced, kept as the
reference for ``test_replica_differential.py``.  Not imported by anything
under ``src/``.

``ReferenceParticipant`` keeps each replica relation as a ``RelationData``
row list; its ``insert``, ``modify``, ``delete`` and ``import_updates`` and
``reference_compute_deltas`` are the previous implementations verbatim
(``compute_deltas`` as a function over the mappings).  It subclasses
``Participant`` only to share ``publish`` and the pending batches, which did
not change.
"""

from __future__ import annotations

from typing import Mapping

from repro.cdss.mappings import ImportDelta, SchemaMapping
from repro.cdss.participant import ImportReport, Participant
from repro.cdss.reconciliation import CandidateUpdate
from repro.common.errors import CDSSError, MappingError
from repro.common.types import RelationData, Value
from repro.query.logical import LogicalQuery


def reference_compute_deltas(
    mappings: list[SchemaMapping],
    run_query,
    local_state: Mapping[str, RelationData],
) -> list[ImportDelta]:
    deltas: list[ImportDelta] = []
    for mapping in mappings:
        rows = run_query(mapping.to_query())
        target = mapping.target
        existing: dict[tuple[Value, ...], tuple[Value, ...]] = {}
        local = local_state.get(target.name)
        if local is not None:
            for values in local.rows:
                existing[target.key_of(values)] = tuple(values)
        delta = ImportDelta(relation=target.name)
        seen_keys: set[tuple[Value, ...]] = set()
        for values in rows:
            values = tuple(values)
            if len(values) != target.arity:
                raise MappingError(
                    f"mapping {mapping.name!r} produced {len(values)} values for "
                    f"{target.arity}-ary target {target.name!r}"
                )
            key = target.key_of(values)
            if key in seen_keys:
                continue  # duplicate derivations of the same target tuple
            seen_keys.add(key)
            current = existing.get(key)
            if current is None:
                delta.inserts.append(values)
            elif current != values:
                delta.modifications.append(values)
            else:
                delta.unchanged += 1
        deltas.append(delta)
    return deltas


class ReferenceParticipant(Participant):
    def __init__(self, name, schemas, mappings=(), trust=None) -> None:
        super().__init__(name, schemas, mappings=mappings, trust=trust)
        self.local_database = {schema.name: RelationData(schema) for schema in schemas}

    def insert(self, relation: str, *values: Value) -> None:
        self.local_database[relation].add(*values)
        self._pending_batch(relation).inserts.append(tuple(values))

    def modify(self, relation: str, *values: Value) -> None:
        schema = self.schema(relation)
        key = schema.key_of(values)
        data = self.local_database[relation]
        data.rows = [
            tuple(values) if schema.key_of(row) == key else row for row in data.rows
        ]
        self._pending_batch(relation).modifications.append(tuple(values))

    def delete(self, relation: str, *key_values: Value) -> None:
        schema = self.schema(relation)
        data = self.local_database[relation]
        data.rows = [row for row in data.rows if schema.key_of(row) != tuple(key_values)]
        self._pending_batch(relation).deletes.append(tuple(key_values))

    def import_updates(self, epoch: int | None = None) -> ImportReport:
        if self.orchestra is None:
            raise CDSSError(f"participant {self.name!r} has not joined a CDSS")
        cluster = self.orchestra.cluster
        epoch = epoch if epoch is not None else cluster.current_epoch
        report = ImportReport(epoch=epoch)

        def run_query(query: LogicalQuery) -> list[tuple[Value, ...]]:
            return cluster.query(query, epoch=epoch).rows

        deltas = reference_compute_deltas(
            self.update_exchange.mappings, run_query, self.local_database
        )
        report.deltas = deltas

        candidates: list[CandidateUpdate] = []
        for delta in deltas:
            schema = self.schema(delta.relation)
            for values in delta.inserts + delta.modifications:
                candidates.append(
                    CandidateUpdate(delta.relation, schema.key_of(values), tuple(values), "import")
                )
            local = self.local_database[delta.relation]
            for values in local.rows:
                candidates.append(
                    CandidateUpdate(delta.relation, schema.key_of(values), tuple(values), self.name)
                )
        outcome = self.reconciler.reconcile(candidates)
        report.reconciliation = outcome

        for delta in deltas:
            schema = self.schema(delta.relation)
            accepted = {
                key: candidate.values
                for (rel, key), candidate in outcome.accepted.items()
                if rel == delta.relation
            }
            existing_keys = {schema.key_of(row) for row in self.local_database[delta.relation].rows}
            data = self.local_database[delta.relation]
            data.rows = [
                accepted.get(schema.key_of(row), row) for row in data.rows
            ]
            for key, values in accepted.items():
                if key not in existing_keys:
                    data.rows.append(values)
        self.last_import_epoch = epoch
        return report
