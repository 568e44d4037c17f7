"""End-to-end data integrity: checksums, quarantine, read-repair, scrubbing.

The storage layer trusts every byte it holds; this package closes the
silent-corruption gap the way production storage systems do:

* content checksums (CRC over the canonical serialized form) are computed at
  publish/replication time and stored beside tuple versions, index pages and
  coordinator records in :class:`~repro.storage.localstore.LocalStore`;
* every storage-service read and every :class:`~repro.cache.node.NodeCache`
  fill/serve re-verifies the checksum; a mismatch fails the local copy loudly
  (counter + trace span), quarantines it, and lets the existing replica
  failover paths transparently read-repair from a verified copy;
* a background scrubber (:class:`IntegrityScrubber`) upgrades the
  replicator's Bloom exchange to per-range digests over ``(key, version,
  checksum)`` so replicas detect *divergent* — not just absent — copies,
  resolving by epoch then checksum quorum.

Everything is off by default: pass ``integrity_config=IntegrityConfig()`` to
:class:`~repro.cluster.Cluster` to opt in (the PR 6/PR 9 convention), so wire
vectors and traffic gates stay byte-identical for clean runs.
"""

from .checksum import (
    checksum_of,
    record_checksum,
    scan_batch_checksum,
    tuple_checksum,
    tuple_checksums,
    page_checksum,
)
from .config import IntegrityConfig
from .corruption import (
    corrupt_value,
    corrupted_page,
    corrupted_record,
    corrupted_scan_batch,
    corrupted_tuple,
)
from .guard import NodeIntegrity
from .scrubber import DigestEntry, IntegrityScrubber, ScrubReport
from .stats import IntegrityStats

__all__ = [
    "IntegrityConfig",
    "IntegrityStats",
    "NodeIntegrity",
    "IntegrityScrubber",
    "ScrubReport",
    "DigestEntry",
    "checksum_of",
    "tuple_checksum",
    "tuple_checksums",
    "page_checksum",
    "record_checksum",
    "scan_batch_checksum",
    "corrupt_value",
    "corrupted_tuple",
    "corrupted_page",
    "corrupted_record",
    "corrupted_scan_batch",
]
