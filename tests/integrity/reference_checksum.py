"""The value-at-a-time checksums that ``repro.integrity.checksum`` replaced,
kept verbatim from the tree before the column-at-a-time encoder as the oracle
of ``test_checksum_differential.py``.  Not imported by anything under
``src/``.
"""

from __future__ import annotations

import zlib

from repro.common.serialization import EncodedScanBatch, encode_values
from repro.common.types import VersionedTuple
from repro.storage.pages import IndexPage


def tuple_checksum(tup: VersionedTuple) -> int:
    """CRC over a tuple version's identity, liveness flag and values."""
    header = (
        tup.relation,
        tuple(tup.tuple_id.key_values),
        tup.tuple_id.epoch,
        bool(tup.deleted),
    )
    return zlib.crc32(encode_values(header) + encode_values(tuple(tup.values)))


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
    ids = tuple((tuple(tid.key_values), tid.epoch) for tid in page.tuple_ids)
    return zlib.crc32(encode_values(header) + encode_values(ids))


def scan_batch_checksum(batch: EncodedScanBatch) -> int:
    """CRC over a cached scan batch: ids, deleted positions, encoded payload.

    The encoded payload is deterministic (codec selection is content-driven),
    so two batches built from the same tuple versions checksum identically
    and any value mutation — even one applied by re-encoding — differs.
    """
    ids = tuple((tuple(tid.key_values), tid.epoch) for tid in batch.tuple_ids)
    meta = (batch.relation, tuple(sorted(batch.deleted_positions)))
    return zlib.crc32(
        encode_values(meta)
        + encode_values(ids)
        + batch.batch.compressed_payload()
    )
