"""Core data model shared by the storage, query and CDSS layers.

The paper stores *relational* data: every relation has a schema with a set of
key attributes, and each stored tuple is identified by a :class:`TupleId`
consisting of the tuple's key attribute values plus the epoch in which the
tuple was last modified (Section IV, Example 4.1: ``⟨f, 1⟩`` identifies the
version of ``R(f, ...)`` written in epoch 1).  The hash key used to place a
tuple on the ring is derived from the key attributes only, so that a tuple can
always be located given its ID.

Types defined here:

* :class:`Schema` — relation name, attribute names, key attributes.
* :class:`TupleId` — key values + epoch, hashable and orderable.
* :class:`VersionedTuple` — a stored tuple: its ID plus all attribute values.
* :class:`Row` — a light-weight mapping view used by the query engine for
  intermediate results (attribute name → value).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import SchemaError
from .hashing import sha1_key

#: Attribute values are restricted to types with deterministic hashing and
#: serialization.  ``None`` models SQL NULL.
Value = object


def partition_hash(values: Sequence[Value]) -> int:
    """Ring position derived from a tuple's partition-key values.

    This is the *single* hash function used for data placement everywhere in
    the system: base tuples are stored at ``partition_hash`` of their
    partition-key values, and the rehash operator routes intermediate tuples
    with the same function, so a rehash on a join key co-locates the stream
    with base data partitioned on that key.
    """
    return sha1_key(("tuple", tuple(values)))


@dataclass(frozen=True)
class Schema:
    """Schema of a stored relation.

    Parameters
    ----------
    name:
        Relation name, unique within a CDSS instance.
    attributes:
        Ordered attribute names.
    key:
        Names of the (unique) key attributes — a subset of ``attributes``.
        Together with the epoch they form the tuple ID.
    partition_key:
        The prefix of ``key`` used for hash partitioning.  Defaults to the
        first key attribute, matching the paper's "partitioning on their key
        attribute (first key attribute, if more than one attribute was
        present)"; relations whose natural partitioning spans several
        attributes (e.g. a value-correspondence table) can override it.
    """

    name: str
    attributes: tuple[str, ...]
    key: tuple[str, ...]
    partition_key: tuple[str, ...]

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        key: Sequence[str] | None = None,
        partition_key: Sequence[str] | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        if not self.attributes:
            raise SchemaError(f"schema {name!r} must have at least one attribute")
        object.__setattr__(self, "key", tuple(key) if key is not None else (self.attributes[0],))
        object.__setattr__(
            self,
            "partition_key",
            tuple(partition_key) if partition_key is not None else (self.key[0],),
        )
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attribute names in schema {name!r}")
        missing = [k for k in self.key if k not in self.attributes]
        if missing:
            raise SchemaError(f"key attributes {missing} not present in schema {name!r}")
        if self.partition_key != self.key[: len(self.partition_key)]:
            raise SchemaError(
                f"partition key {self.partition_key} must be a prefix of the key "
                f"{self.key} in schema {name!r}"
            )

    # -- helpers -------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def index_of(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(f"attribute {attribute!r} not in schema {self.name!r}") from None

    def key_indexes(self) -> tuple[int, ...]:
        # Schemas are immutable; the key positions are computed once and
        # reused by every publish/lookup on the relation (hot path).
        cached = self.__dict__.get("_key_indexes")
        if cached is None:
            cached = tuple(self.index_of(a) for a in self.key)
            object.__setattr__(self, "_key_indexes", cached)
        return cached

    def key_of(self, values: Sequence[Value]) -> tuple[Value, ...]:
        """Extract the key attribute values from a full value tuple."""
        if len(values) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} expects {self.arity} values, got {len(values)}"
            )
        return tuple(values[i] for i in self.key_indexes())

    def tuple_id_for(self, values: Sequence[Value], epoch: int) -> "TupleId":
        """Tuple ID (key values + epoch) of a full value tuple at ``epoch``."""
        return TupleId(self.key_of(values), epoch, partition_width=len(self.partition_key))

    def tuple_id_for_key(self, key_values: Sequence[Value], epoch: int) -> "TupleId":
        """Tuple ID built from key values only (used for deletes)."""
        if len(key_values) != len(self.key):
            raise SchemaError(
                f"relation {self.name!r} expects {len(self.key)} key values, "
                f"got {len(key_values)}"
            )
        return TupleId(tuple(key_values), epoch, partition_width=len(self.partition_key))

    def partition_hash_of(self, values: Sequence[Value]) -> int:
        """Ring position of a full value tuple."""
        return self.tuple_id_for(values, 0).hash_key

    def project(self, attributes: Sequence[str], new_name: str | None = None) -> "Schema":
        """Schema of a projection onto ``attributes`` (key becomes all attributes)."""
        return Schema(new_name or self.name, tuple(attributes), tuple(attributes)[:1])

    def rename(self, new_name: str) -> "Schema":
        return Schema(new_name, self.attributes, self.key)


class TupleId(tuple):
    """Unique identifier of a stored tuple version: key values + epoch.

    The ID hash (``hash_key``) is derived from the tuple's *partition-key*
    values — a prefix of the key values — so two versions of the same logical
    tuple land on the same ring position and a tuple can be fetched knowing
    only its ID (Section IV: "a tuple's hash key must be derived from
    (possibly a subset of) the attributes in its ID").

    A ``tuple`` subclass over ``(key_values, epoch, partition_width)``: tuple
    IDs are set members, dict keys and B+-tree keys on every hot path, so
    hashing, equality and ordering run in C.  Field order, sort order and the
    hash value are those of the frozen dataclass this replaces (which hashed
    exactly this 3-tuple), so set iteration order — and with it message
    order — is unchanged.  One property differs: a ``TupleId`` now compares
    equal to a *bare* 3-tuple with the same fields, where a dataclass never
    equalled a tuple.  Nothing compares the two (IDs only ever meet IDs), and
    buying the distinction back would take a Python-level ``__eq__`` on the
    hottest comparison in the system.
    """

    # No __slots__: a tuple subclass cannot declare any, and the instance
    # ``__dict__`` is where ``cached_property`` keeps ``hash_key`` (after the
    # first access the attribute is a plain C-level instance-dict hit).

    def __new__(cls, key_values: Sequence[Value], epoch: int, partition_width: int = 0):
        key_values = tuple(key_values)
        width = int(partition_width)
        if width <= 0 or width > len(key_values):
            width = len(key_values)
        return tuple.__new__(cls, (key_values, int(epoch), width))

    def __getnewargs__(self):
        # copy/pickle rebuild through __new__, which takes the three fields.
        return tuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    key_values: tuple[Value, ...] = property(itemgetter(0))  # type: ignore[assignment]
    epoch: int = property(itemgetter(1))  # type: ignore[assignment]
    partition_width: int = property(itemgetter(2))  # type: ignore[assignment]

    @property
    def partition_values(self) -> tuple[Value, ...]:
        return self[0][: self[2]]

    @cached_property
    def hash_key(self) -> int:
        """Ring position of the tuple, derived from its partition-key values.

        Computed lazily once per instance: tuple IDs are compared, routed and
        stored by hash key constantly (B+-tree keys, scan routing, page
        assignment), and the SHA-1 is pure, so the first result is kept.
        """
        return partition_hash(self[0][: self[2]])

    def with_epoch(self, epoch: int) -> "TupleId":
        return TupleId(self[0], epoch, self[2])

    def __repr__(self) -> str:
        key_repr = ", ".join(repr(v) for v in self[0])
        return f"⟨{key_repr} @ {self[1]}⟩"


class VersionedTuple:
    """A fully materialised tuple version as stored at a data storage node.

    Immutable value object (field-wise equality and hash).  Slotted: one
    instance exists per stored tuple version per replica, so the layout —
    not a per-instance ``__dict__`` — is what the resident set pays for.
    """

    __slots__ = ("relation", "tuple_id", "values", "deleted", "_estimated_size")

    def __init__(
        self,
        relation: str,
        tuple_id: TupleId,
        values: Sequence[Value],
        deleted: bool = False,
    ):
        set_field = object.__setattr__
        set_field(self, "relation", relation)
        set_field(self, "tuple_id", tuple_id)
        set_field(self, "values", tuple(values))
        set_field(self, "deleted", bool(deleted))
        set_field(self, "_estimated_size", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.relation, self.tuple_id, self.values, self.deleted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return (
            f"VersionedTuple(relation={self.relation!r}, tuple_id={self.tuple_id!r}, "
            f"values={self.values!r}, deleted={self.deleted!r})"
        )

    @property
    def epoch(self) -> int:
        return self.tuple_id.epoch

    @property
    def hash_key(self) -> int:
        return self.tuple_id.hash_key

    def estimated_size(self) -> int:
        """Rough wire size in bytes; used by the traffic accounting.

        Cached per instance: the same stored tuple is re-sized on every
        store/lookup/replication touch, and the instance is immutable.
        """
        cached = self._estimated_size
        if cached is None:
            cached = estimate_values_size(self.values) + 8 + len(self.relation)
            object.__setattr__(self, "_estimated_size", cached)
        return cached


#: Shared attribute-name → position maps, one per distinct attribute tuple.
#: A handful of plans/schemas produce millions of rows, so the map is built
#: once per attribute list and every ``row[name]`` becomes one dict lookup
#: instead of a linear ``tuple.index`` scan.
_ATTRIBUTE_INDEXES: dict[tuple[str, ...], dict[str, int]] = {}
#: Hard caps on the shared attribute caches: one entry per distinct schema /
#: plan signature in normal runs, but long-lived processes generating ad-hoc
#: schemas (chaos sweeps) must not grow them without limit.  Past the cap new
#: signatures simply skip the memo.
_ATTRIBUTE_CACHE_MAX = 1 << 12
#: Concatenated attribute tuples (join outputs), keyed by the input pair so
#: every joined row of one join shares one attributes tuple object.
_CONCAT_ATTRIBUTES: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[str, ...]] = {}


def concat_attributes(
    left: tuple[str, ...], right: tuple[str, ...]
) -> tuple[str, ...]:
    """The concatenation ``left + right``, shared per input pair.

    Join outputs concatenate the same two attribute tuples for every matched
    row; sharing one result object keeps downstream per-batch compiled-plan
    lookups hitting the same key.
    """
    pair = (left, right)
    attributes = _CONCAT_ATTRIBUTES.get(pair)
    if attributes is None:
        attributes = left + right
        if len(_CONCAT_ATTRIBUTES) < _ATTRIBUTE_CACHE_MAX:
            _CONCAT_ATTRIBUTES[pair] = attributes
    return attributes


def attribute_index(attributes: tuple[str, ...]) -> dict[str, int]:
    lookup = _ATTRIBUTE_INDEXES.get(attributes)
    if lookup is None:
        lookup = {}
        for index, name in enumerate(attributes):
            # First occurrence wins, matching tuple.index on duplicate
            # attribute names (join outputs may repeat a name).
            if name not in lookup:
                lookup[name] = index
        if len(_ATTRIBUTE_INDEXES) < _ATTRIBUTE_CACHE_MAX:
            _ATTRIBUTE_INDEXES[attributes] = lookup
    return lookup


class Row(Mapping[str, Value]):
    """An immutable attribute-name → value mapping over a value tuple.

    The query engine manipulates rows rather than raw value tuples so that
    operators can address attributes by (possibly qualified) name after joins
    and projections.  ``Row`` is a thin view: it shares the underlying value
    tuple and only stores the attribute ordering once per schema.
    """

    __slots__ = ("_attributes", "_values", "_lookup")

    def __init__(self, attributes: Sequence[str], values: Sequence[Value]):
        if len(attributes) != len(values):
            raise SchemaError(
                f"row has {len(values)} values for {len(attributes)} attributes"
            )
        self._attributes = tuple(attributes)
        self._values = tuple(values)
        self._lookup = None

    @classmethod
    def unchecked(cls, attributes: tuple[str, ...], values: tuple[Value, ...]) -> "Row":
        """Construct without re-validating lengths (operator inner loops).

        Callers must guarantee ``len(attributes) == len(values)``; the query
        operators do, because both come from one compiled plan step.
        """
        row = object.__new__(cls)
        row._attributes = attributes
        row._values = values
        row._lookup = None
        return row

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Value]) -> "Row":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def values(self) -> tuple[Value, ...]:
        return self._values

    def __getitem__(self, key: str) -> Value:
        # The name → position map is shared per attribute tuple and attached
        # lazily: rows that are only ever read positionally (the vectorized
        # operators) never pay for it.
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = attribute_index(self._attributes)
        try:
            return self._values[lookup[key]]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __hash__(self) -> int:
        return hash((self._attributes, self._values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._attributes == other._attributes and self._values == other._values
        return NotImplemented

    def project(self, attributes: Sequence[str]) -> "Row":
        return Row(tuple(attributes), tuple(self[a] for a in attributes))

    def concat(self, other: "Row") -> "Row":
        return Row.unchecked(
            concat_attributes(self._attributes, other._attributes),
            self._values + other._values,
        )

    def estimated_size(self) -> int:
        return estimate_values_size(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in zip(self._attributes, self._values))
        return f"Row({inner})"


def estimate_values_size(values: Iterable[Value]) -> int:
    """Estimate the serialized size of a value tuple in bytes.

    The simulator charges network transfer time proportional to this estimate;
    it intentionally mirrors a compact binary encoding (4-byte ints, 8-byte
    floats, UTF-8 strings with a 2-byte length prefix) rather than Python's
    in-memory sizes.
    """
    total = 2  # arity header
    for value in values:
        if value is None:
            total += 1
        elif isinstance(value, bool):
            total += 1
        elif isinstance(value, int):
            total += 5
        elif isinstance(value, float):
            total += 9
        elif isinstance(value, str):
            total += 2 + len(value.encode("utf-8"))
        elif isinstance(value, bytes):
            total += 2 + len(value)
        elif isinstance(value, tuple):
            total += estimate_values_size(value)
        else:
            total += 16
    return total


@dataclass
class RelationData:
    """An in-memory relation instance: schema plus a list of value tuples.

    Workload generators produce ``RelationData`` objects which are then
    published into the versioned distributed storage; the reference (oracle)
    query evaluator used in tests also runs directly over them.
    """

    schema: Schema
    rows: list[tuple[Value, ...]] = field(default_factory=list)

    def add(self, *values: Value) -> None:
        if len(values) != self.schema.arity:
            raise SchemaError(
                f"relation {self.schema.name!r} expects {self.schema.arity} values, "
                f"got {len(values)}"
            )
        self.rows.append(tuple(values))

    def extend(self, rows: Iterable[Sequence[Value]]) -> None:
        for values in rows:
            self.add(*values)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def estimated_size(self) -> int:
        return sum(estimate_values_size(r) for r in self.rows)
