"""Content checksums over the canonical serialized form of stored objects.

Every checksum is a CRC-32 over the deterministic wire encoding
(:func:`~repro.common.serialization.encode_values`) of the object's logical
content — the same bytes two honest replicas of the same version would
serialize — so equal content always yields an equal checksum and any value
mutation, dropped tuple id or re-pointed page reference changes it.

Tuple versions are checksummed a batch at a time: :func:`tuple_checksums`
encodes the whole batch column by column through
:func:`~repro.common.serialization.encode_rows`, and the tuple-ID lists of
pages and scan batches go through the same encoder.  The batch form is a
wall-clock optimisation only: it hashes **exactly the bytes** the
value-at-a-time encoder produced, so every CRC — recorded, compared or
exchanged by the scrubber — is unchanged.  The value-at-a-time functions are
kept as the oracle of that contract in
``tests/integrity/reference_checksum.py``.
"""

from __future__ import annotations

import zlib
from operator import attrgetter
from typing import Any, Sequence

from ..common.serialization import (
    EncodedScanBatch,
    encode_columns,
    encode_column_tuples,
    encode_rows,
    encode_values,
)
from ..common.types import TupleId, VersionedTuple
from ..storage.pages import CoordinatorRecord, IndexPage

_RELATION = attrgetter("relation")
_TUPLE_ID = attrgetter("tuple_id")
_DELETED = attrgetter("deleted")
_VALUES = attrgetter("values")


def _id_columns(tuple_ids: Sequence[TupleId]) -> list:
    """The ``key_values`` and ``epoch`` columns of ``tuple_ids``, transposed in
    one pass: a ``TupleId`` is the tuple ``(key_values, epoch, width)``."""
    return list(zip(*tuple_ids))[:2] if tuple_ids else [(), ()]


def tuple_checksums(tuples: Sequence[VersionedTuple]) -> list[int]:
    """One CRC per tuple version over its identity, liveness flag and values.

    The header ``(relation, key_values, epoch, deleted)`` and the values are
    each encoded for the whole batch in one column-at-a-time pass; the CRC of
    a tuple's values continues the CRC of its header.  A ``VersionedTuple``
    holds its values as a tuple and its flag as a bool already.
    """
    keys, epochs = _id_columns(list(map(_TUPLE_ID, tuples)))
    headers = encode_columns(
        [list(map(_RELATION, tuples)), keys, epochs, list(map(_DELETED, tuples))],
        len(tuples),
    )
    bodies = encode_rows(list(map(_VALUES, tuples)))
    return list(map(zlib.crc32, bodies, map(zlib.crc32, headers)))


def tuple_checksum(tup: VersionedTuple) -> int:
    """CRC over a tuple version's identity, liveness flag and values."""
    return tuple_checksums([tup])[0]


def _encode_ids(tuple_ids: Sequence[TupleId]) -> bytes:
    """The ``(key_values, epoch)`` list of ``tuple_ids``, encoded."""
    return encode_column_tuples(_id_columns(tuple_ids), len(tuple_ids))


def page_checksum(page: IndexPage) -> int:
    """CRC over a page's identity, hash range and tuple-ID list."""
    pid = page.page_id
    header = (
        pid.relation,
        pid.epoch,
        pid.sequence,
        page.hash_range.start,
        page.hash_range.end,
    )
    return zlib.crc32(encode_values(header) + _encode_ids(page.tuple_ids))


def record_checksum(record: CoordinatorRecord) -> int:
    """CRC over a coordinator record's identity and page-reference list."""
    pages = tuple(
        (
            ref.page_id.relation,
            ref.page_id.epoch,
            ref.page_id.sequence,
            ref.hash_range.start,
            ref.hash_range.end,
        )
        for ref in record.pages
    )
    return zlib.crc32(
        encode_values((record.relation, record.epoch)) + encode_values(pages)
    )


def scan_batch_checksum(batch: EncodedScanBatch) -> int:
    """CRC over a cached scan batch: ids, deleted positions, encoded payload.

    The encoded payload is deterministic (codec selection is content-driven),
    so two batches built from the same tuple versions checksum identically
    and any value mutation — even one applied by re-encoding — differs.
    """
    meta = (batch.relation, tuple(sorted(batch.deleted_positions)))
    return zlib.crc32(
        encode_values(meta)
        + _encode_ids(batch.tuple_ids)
        + batch.batch.compressed_payload()
    )


def checksum_of(value: Any) -> int | None:
    """Checksum dispatch by stored-object type; None for unchecked kinds."""
    if isinstance(value, VersionedTuple):
        return tuple_checksum(value)
    if isinstance(value, IndexPage):
        return page_checksum(value)
    if isinstance(value, CoordinatorRecord):
        return record_checksum(value)
    if isinstance(value, EncodedScanBatch):
        return scan_batch_checksum(value)
    return None
