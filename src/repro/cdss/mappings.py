"""Schema mappings and update exchange (the CDSS layer above the storage engine).

The paper's storage and query subsystem exists to serve ORCHESTRA's update
exchange and reconciliation (Section II, refs [2] and [3]): each participant
owns a local DBMS with its own schema, publishes its update log to the
versioned distributed storage, and imports others' updates by running the
queries generated from *schema mappings* over a consistent epoch of the global
state.

This module implements the slice of that machinery the storage/query layer is
exercised by:

* :class:`SchemaMapping` — a named project/join view from one or two source
  relations into a participant's target relation (the GAV-style mappings the
  STBenchmark scenarios correspond to), compiled to a
  :class:`~repro.query.logical.LogicalQuery` and executed by the distributed
  engine at a chosen epoch;
* :class:`UpdateExchange` — runs a participant's mappings at an epoch and
  turns the answers into the insert/modify batches to apply to the local
  replica, by diffing against what the participant already imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..common.errors import MappingError
from ..common.types import Schema, Value
from ..query.expressions import Expression, col
from ..query.logical import (
    LogicalJoin,
    LogicalProject,
    LogicalQuery,
    LogicalScan,
    LogicalSelect,
)
from .replica import KeyedRelation


@dataclass(frozen=True)
class SchemaMapping:
    """A mapping from source relation(s) to a participant's target schema.

    ``outputs`` gives one expression per target attribute, evaluated over the
    (optionally joined and filtered) source relations.  ``join`` is a list of
    attribute pairs between the first and second source relation.
    """

    name: str
    target: Schema
    sources: tuple[Schema, ...]
    outputs: tuple[tuple[str, Expression], ...]
    join: tuple[tuple[str, str], ...] = ()
    filter: Expression | None = None

    def __init__(
        self,
        name: str,
        target: Schema,
        sources: Sequence[Schema],
        outputs: Sequence[tuple[str, Expression]] | None = None,
        join: Sequence[tuple[str, str]] = (),
        filter: Expression | None = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sources", tuple(sources))
        if not self.sources or len(self.sources) > 2:
            raise MappingError("a schema mapping needs one or two source relations")
        if len(self.sources) == 2 and not join:
            raise MappingError("a two-source mapping needs a join condition")
        if outputs is None:
            # Default: copy attributes positionally from the first source.
            source = self.sources[0]
            if source.arity < target.arity:
                raise MappingError(
                    f"cannot derive default outputs: {source.name!r} has fewer "
                    f"attributes than {target.name!r}"
                )
            outputs = [
                (target_attr, col(source.attributes[index]))
                for index, target_attr in enumerate(target.attributes)
            ]
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "join", tuple(join))
        object.__setattr__(self, "filter", filter)
        missing = [name for name, _ in self.outputs if name not in target.attributes]
        if missing:
            raise MappingError(f"mapping outputs {missing} are not attributes of {target.name!r}")

    def to_query(self) -> LogicalQuery:
        """The single-block query implementing this mapping (update exchange
        executes it over the distributed versioned storage)."""
        plan = LogicalScan(self.sources[0])
        if len(self.sources) == 2:
            plan = LogicalJoin(plan, LogicalScan(self.sources[1]), list(self.join))
        if self.filter is not None:
            plan = LogicalSelect(plan, self.filter)
        plan = LogicalProject(plan, list(self.outputs))
        return LogicalQuery(plan, name=f"mapping_{self.name}")

    def referenced_relations(self) -> set[str]:
        return {schema.name for schema in self.sources}


@dataclass
class ImportDelta:
    """What update exchange decided to apply to a participant's local replica."""

    relation: str
    inserts: list[tuple[Value, ...]] = field(default_factory=list)
    modifications: list[tuple[Value, ...]] = field(default_factory=list)
    unchanged: int = 0

    def is_empty(self) -> bool:
        return not self.inserts and not self.modifications

    def change_count(self) -> int:
        return len(self.inserts) + len(self.modifications)


class UpdateExchange:
    """Runs a participant's mappings and computes local import deltas."""

    def __init__(self, mappings: Sequence[SchemaMapping]) -> None:
        self.mappings = list(mappings)

    def required_relations(self) -> set[str]:
        required: set[str] = set()
        for mapping in self.mappings:
            required |= mapping.referenced_relations()
        return required

    def compute_deltas(
        self,
        run_query,
        local_state: Mapping[str, KeyedRelation],
    ) -> list[ImportDelta]:
        """Execute every mapping and diff the answers against ``local_state``.

        ``run_query`` is a callable ``(LogicalQuery) -> list[row tuples]`` —
        the participant passes a closure that executes the query on the
        distributed engine at its import epoch.  Rows whose key is new become
        inserts; rows whose key exists with different values become
        modifications; identical rows are counted as unchanged.  Each answer
        row is one probe of the keyed replica.
        """
        deltas: list[ImportDelta] = []
        for mapping in self.mappings:
            rows = run_query(mapping.to_query())
            target = mapping.target
            local = local_state.get(target.name)
            existing = local.get if local is not None else {}.get
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
                current = existing(key)
                if current is None:
                    delta.inserts.append(values)
                elif current != values:
                    delta.modifications.append(values)
                else:
                    delta.unchanged += 1
            deltas.append(delta)
        return deltas
