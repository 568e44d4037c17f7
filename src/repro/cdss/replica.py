"""One relation of a participant's local replica, addressed by primary key.

Every step of the CDSS cycle names the rows it touches by key: a local edit
replaces or drops one key, update exchange probes the replica for each mapped
row, and an import writes back only the keys it reconciled.  Keeping the
replica as an insertion-ordered ``primary key → row`` dict makes each of those
a dict operation, so a cycle costs what it changes rather than what the
relation holds.
"""

from __future__ import annotations

from typing import Iterator

from ..common.errors import CDSSError
from ..common.types import Schema, Value

Row = tuple[Value, ...]


class KeyedRelation:
    """An insertion-ordered ``primary key → row`` map for one relation.

    Rows keep the order in which their keys first arrived: replacing a row
    keeps its position, a new key appends.  A key appears at most once —
    :meth:`add` refuses a key the relation already holds.
    """

    __slots__ = ("schema", "_rows")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._rows: dict[Row, Row] = {}

    @property
    def rows(self) -> tuple[Row, ...]:
        """A read-only snapshot of the rows, in replica order."""
        return tuple(self._rows.values())

    def add(self, *values: Value) -> None:
        """Add a row for a key the relation does not hold yet."""
        values = tuple(values)
        key = self.schema.key_of(values)
        if key in self._rows:
            raise CDSSError(
                f"relation {self.schema.name!r} already holds a row for key {key!r}"
            )
        self._rows[key] = values

    def put(self, values: Row) -> None:
        """Set the row for ``values``' key, appending it if the key is new."""
        self._rows[self.schema.key_of(values)] = values

    def discard(self, key: Row) -> None:
        """Drop the row for ``key``, if there is one."""
        self._rows.pop(key, None)

    def get(self, key: Row) -> Row | None:
        return self._rows.get(key)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())
