"""The dataclass ``TupleId`` that ``repro.common.types.TupleId`` replaced.

Kept verbatim (PR 12 tree, class renamed) as the reference for
``test_tuple_id_differential.py``: the tuple-subclass ID must sort, compare,
hash, print and copy exactly like this one.  Not imported by anything under
``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.types import Value, partition_hash


@dataclass(frozen=True, order=True)
class ReferenceTupleId:
    """Unique identifier of a stored tuple version: key values + epoch."""

    key_values: tuple[Value, ...]
    epoch: int
    partition_width: int = 0

    def __init__(self, key_values: Sequence[Value], epoch: int, partition_width: int = 0):
        object.__setattr__(self, "key_values", tuple(key_values))
        object.__setattr__(self, "epoch", int(epoch))
        width = int(partition_width)
        if width <= 0 or width > len(self.key_values):
            width = len(self.key_values)
        object.__setattr__(self, "partition_width", width)

    @property
    def partition_values(self) -> tuple[Value, ...]:
        return self.key_values[: self.partition_width]

    @property
    def hash_key(self) -> int:
        cached = self.__dict__.get("_hash_key")
        if cached is None:
            cached = partition_hash(self.key_values[: self.partition_width])
            object.__setattr__(self, "_hash_key", cached)
        return cached

    def with_epoch(self, epoch: int) -> "ReferenceTupleId":
        return ReferenceTupleId(self.key_values, epoch, self.partition_width)

    def __repr__(self) -> str:
        key_repr = ", ".join(repr(v) for v in self.key_values)
        return f"⟨{key_repr} @ {self.epoch}⟩"
