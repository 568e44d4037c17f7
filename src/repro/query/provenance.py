"""Provenance (taint) tags and phase counters for incremental recovery.

Section V-D: to make it possible to discard exactly the state that depends on
a failed node, "we tag each tuple in the system with the set of nodes that
have processed it (or any tuple used to create it), and maintain these sets of
nodes as the tuples propagate their way through the operator graph."  Tuples
are additionally stamped with the *phase* of the computation that produced
them (initial execution is phase 0; each incremental-recovery invocation
increments the phase), which lets operators distinguish stale in-flight data
from freshly recomputed results.

:class:`TaggedRow` is the unit that flows between runtime operators: the row
itself, its provenance node-set and its phase.  The module also provides the
helpers used when shipping rows across the network (tags add a small,
measurable overhead to every message — the "overhead of incremental
recomputation" quantified in Section VI-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..common.types import Row, Value, estimate_values_size


@dataclass(slots=True)
class TaggedRow:
    """A row plus its provenance node-set and production phase.

    Slotted and deliberately *not* ``frozen``: one TaggedRow is allocated per
    row per operator hop, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` per field) costs ~3x a plain slotted init on this
    hottest allocation of the engine.  Treat instances as immutable — every
    transformation (``with_node``, ``with_phase``, ``merge``) returns a new
    one — and equality/hashing remain field-based as before.
    """

    row: Row
    nodes: frozenset[str]
    phase: int = 0

    def __hash__(self) -> int:
        return hash((self.row, self.nodes, self.phase))

    def tainted_by(self, failed: Iterable[str]) -> bool:
        """Whether any of ``failed`` contributed to this row."""
        failed_set = failed if isinstance(failed, (set, frozenset)) else set(failed)
        return bool(self.nodes & failed_set)

    def with_node(self, address: str) -> "TaggedRow":
        """The same row after being processed by ``address``."""
        if address in self.nodes:
            return self
        return TaggedRow(self.row, self.nodes | {address}, self.phase)

    def with_phase(self, phase: int) -> "TaggedRow":
        if phase == self.phase:
            return self
        return TaggedRow(self.row, self.nodes, phase)

    def merge(self, other: "TaggedRow", row: Row) -> "TaggedRow":
        """A derived row combining this row and ``other`` (e.g. a join result)."""
        nodes = self.nodes
        other_nodes = other.nodes
        if nodes is not other_nodes and nodes != other_nodes:
            nodes = nodes | other_nodes
        phase = self.phase
        if other.phase > phase:
            phase = other.phase
        return TaggedRow(row, nodes, phase)

    def estimated_size(self, with_provenance: bool = True) -> int:
        """Wire size of the row, optionally including the provenance tag.

        The provenance tag is encoded as a small bitmap over the participating
        nodes (one bit per contributing node, dozens to hundreds of
        participants) plus a phase byte, so it costs only a few bytes per
        tuple; disabling it models running the engine without incremental-
        recovery support (the baseline of the Section VI-E overhead
        experiment).
        """
        base = estimate_values_size(self.row.values)
        if not with_provenance:
            return base
        return base + 2 + (len(self.nodes) + 7) // 8 + 1  # header + bitmap + phase


def tag_rows(
    attributes: Sequence[str],
    value_rows: Iterable[Sequence[Value]],
    node: str,
    phase: int = 0,
) -> list[TaggedRow]:
    """Tag freshly scanned value tuples as originating at ``node``."""
    origin = frozenset({node})
    return [TaggedRow(Row(attributes, values), origin, phase) for values in value_rows]


def batch_size(rows: Iterable[TaggedRow], with_provenance: bool = True) -> int:
    """Estimated wire size of a batch of tagged rows."""
    return sum(row.estimated_size(with_provenance) for row in rows)


def provenance_overhead(rows: Iterable[TaggedRow]) -> int:
    """Wire bytes the provenance tags add to a batch.

    Exactly ``batch_size(rows, True) - batch_size(rows, False)`` — header,
    node bitmap and phase byte per row — computed without estimating the
    value payload twice (the hot send path only needs the tag delta on top of
    the real compressed batch size).
    """
    return sum(3 + (len(row.nodes) + 7) // 8 for row in rows)
