"""Participants and the ORCHESTRA publish / import cycle (Figure 1).

A :class:`Participant` owns a local database (its replica, in its own schema),
makes local edits, and interacts with the rest of the confederation in two
steps:

* **publish** — push the log of local changes to the shared versioned storage,
  advancing the global epoch;
* **import** — run *update exchange* (the schema-mapping queries of
  :mod:`repro.cdss.mappings`) over a consistent epoch of the global state,
  *reconcile* conflicting values using its trust priorities, and apply the
  result to the local replica.

:class:`Orchestra` is the facade that wires a set of participants to one
simulated cluster — the complete CDSS of Figure 1 with the storage and query
subsystem of this paper underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..cluster import Cluster
from ..common.errors import CDSSError
from ..common.types import RelationData, Schema, Value
from ..net.profiles import LAN_GIGABIT, NetworkProfile
from ..query.logical import LogicalQuery
from ..storage.client import UpdateBatch
from .mappings import ImportDelta, SchemaMapping, UpdateExchange
from .reconciliation import CandidateUpdate, Reconciler, ReconciliationOutcome
from .replica import KeyedRelation


@dataclass
class ImportReport:
    """Result of one import (update exchange + reconciliation).

    ``reconciliation`` covers only the keys this import touched: each key an
    imported row carries, competing with the local row for that key.  Keys
    no mapping row reached are neither candidates nor ``accepted`` entries.
    """

    epoch: int
    deltas: list[ImportDelta] = field(default_factory=list)
    reconciliation: ReconciliationOutcome | None = None

    def total_changes(self) -> int:
        return sum(delta.change_count() for delta in self.deltas)


class Participant:
    """One collaborator: a local replica plus mappings and trust priorities.

    Each replica relation is a :class:`KeyedRelation`, so the cycle costs
    what it changes, not what the replica holds:

    * :meth:`insert`, :meth:`modify` and :meth:`delete` are O(1);
    * :meth:`publish` is O(pending changes) here, plus the storage publish;
    * :meth:`import_updates` is O(mapping answer) to diff it against the
      replica, plus O(t log t) to reconcile and apply the ``t`` keys the
      answer changed — on top of running the mapping queries.
    """

    def __init__(
        self,
        name: str,
        schemas: Sequence[Schema],
        mappings: Sequence[SchemaMapping] = (),
        trust: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.local_database: dict[str, KeyedRelation] = {
            schema.name: KeyedRelation(schema) for schema in schemas
        }
        self.update_exchange = UpdateExchange(mappings)
        self.reconciler = Reconciler(trust or {})
        #: Changes made locally since the last publish, per relation.
        self._pending: dict[str, UpdateBatch] = {}
        self.orchestra: "Orchestra | None" = None
        self.last_import_epoch = 0

    # -- local edits -------------------------------------------------------------

    def _replica(self, relation: str) -> KeyedRelation:
        try:
            return self.local_database[relation]
        except KeyError:
            raise CDSSError(f"participant {self.name!r} has no relation {relation!r}") from None

    def schema(self, relation: str) -> Schema:
        return self._replica(relation).schema

    def insert(self, relation: str, *values: Value) -> None:
        """Insert a row; a key the replica already holds raises :class:`CDSSError`."""
        self._replica(relation).add(*values)
        self._pending_batch(relation).inserts.append(tuple(values))

    def modify(self, relation: str, *values: Value) -> None:
        """Replace the row for ``values``' key in place (a new key appends)."""
        values = tuple(values)
        self._replica(relation).put(values)
        self._pending_batch(relation).modifications.append(values)

    def delete(self, relation: str, *key_values: Value) -> None:
        self._replica(relation).discard(tuple(key_values))
        self._pending_batch(relation).deletes.append(tuple(key_values))

    def _pending_batch(self, relation: str) -> UpdateBatch:
        if relation not in self._pending:
            self._pending[relation] = UpdateBatch(self.schema(relation))
        return self._pending[relation]

    def pending_changes(self) -> int:
        return sum(batch.change_count() for batch in self._pending.values())

    # -- publish / import ----------------------------------------------------------

    def publish(self) -> int:
        """Publish all pending local changes as one new epoch."""
        if self.orchestra is None:
            raise CDSSError(f"participant {self.name!r} has not joined a CDSS")
        if not self._pending:
            return self.orchestra.cluster.current_epoch
        epoch = self.orchestra.cluster.next_epoch()
        for batch in self._pending.values():
            self.orchestra.cluster.publish(batch, epoch=epoch)
        self._pending.clear()
        return epoch

    def import_updates(self, epoch: int | None = None) -> ImportReport:
        """Run update exchange and reconciliation at ``epoch`` and apply locally."""
        if self.orchestra is None:
            raise CDSSError(f"participant {self.name!r} has not joined a CDSS")
        cluster = self.orchestra.cluster
        epoch = epoch if epoch is not None else cluster.current_epoch
        report = ImportReport(epoch=epoch)

        def run_query(query: LogicalQuery) -> list[tuple[Value, ...]]:
            return cluster.query(query, epoch=epoch).rows

        deltas = self.update_exchange.compute_deltas(run_query, self.local_database)
        report.deltas = deltas

        # Reconciliation: the imported values compete with the local replica's
        # current values; the local participant is just another publisher with
        # its own (typically highest) trust priority.  Only the keys an
        # imported row touches can conflict or change, so only they are
        # offered: each delta offers its imported rows, then the local row of
        # every key that any delta of its relation touched.
        touched: dict[str, dict[tuple[Value, ...], None]] = {}
        for delta in deltas:
            keys = touched.setdefault(delta.relation, {})
            key_of = self.schema(delta.relation).key_of
            for values in delta.inserts + delta.modifications:
                keys[key_of(values)] = None
        candidates: list[CandidateUpdate] = []
        for delta in deltas:
            local = self.local_database[delta.relation]
            key_of = local.schema.key_of
            for values in delta.inserts + delta.modifications:
                candidates.append(
                    CandidateUpdate(delta.relation, key_of(values), tuple(values), "import")
                )
            for key in touched[delta.relation]:
                values = local.get(key)
                if values is not None:
                    candidates.append(CandidateUpdate(delta.relation, key, values, self.name))
        outcome = self.reconciler.reconcile(candidates)
        report.reconciliation = outcome

        # A held key keeps its position and a new one appends, in the order
        # reconcile returns them.
        for (relation, _key), candidate in outcome.accepted.items():
            self.local_database[relation].put(candidate.values)
        self.last_import_epoch = epoch
        return report


class Orchestra:
    """The CDSS facade: participants sharing one simulated storage/query cluster."""

    def __init__(
        self,
        num_nodes: int,
        profile: NetworkProfile = LAN_GIGABIT,
        replication_factor: int = 3,
    ) -> None:
        self.cluster = Cluster(num_nodes, profile=profile, replication_factor=replication_factor)
        self.participants: dict[str, Participant] = {}

    def add_participant(self, participant: Participant) -> Participant:
        if participant.name in self.participants:
            raise CDSSError(f"participant {participant.name!r} already joined")
        participant.orchestra = self
        self.participants[participant.name] = participant
        return participant

    def participant(self, name: str) -> Participant:
        return self.participants[name]

    def publish_all(self) -> int:
        """Publish every participant's pending changes (one epoch per participant)."""
        epoch = self.cluster.current_epoch
        for participant in self.participants.values():
            if participant.pending_changes():
                epoch = participant.publish()
        return epoch

    def current_epoch(self) -> int:
        return self.cluster.current_epoch

    def run_query(self, query, epoch: int | None = None):
        """Ad-hoc analytical query over the shared versioned storage."""
        return self.cluster.query(query, epoch=epoch)


def share_relations(participant: Participant, relations: Iterable[RelationData]) -> None:
    """Seed a participant's local replica (and pending publish) with data.

    The rows are copied into the replica; ``relations`` is never kept or
    changed.  Every key is checked first, against the replica and against
    the other rows shared in this call: a key held twice raises
    :class:`CDSSError` and leaves the replica and the pending batch as they
    were.
    """
    relations = list(relations)
    shared: dict[str, set[tuple[Value, ...]]] = {}
    for data in relations:
        name = data.schema.name
        held = participant.local_database.get(name, ())
        keys = shared.setdefault(name, set())
        for values in data.rows:
            key = data.schema.key_of(values)
            if key in keys or key in held:
                raise CDSSError(f"relation {name!r} would hold two rows for key {key!r}")
            keys.add(key)
    for data in relations:
        name = data.schema.name
        replica = participant.local_database.setdefault(name, KeyedRelation(data.schema))
        for values in data.rows:
            replica.add(*values)
        participant._pending_batch(name).inserts.extend(tuple(values) for values in data.rows)
