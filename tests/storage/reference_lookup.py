"""The tuple-at-a-time ``StorageService.lookup_tuples`` that the batched one
replaced, kept verbatim from the PR 12 tree (as a function over the service)
as the reference for ``test_batched_lookup.py``.  Not imported by anything
under ``src/``.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.types import TupleId, VersionedTuple
from repro.storage.service import DATA_SCAN_COST_PER_TUPLE, StorageService

_TUPLE_TREE = "tuples"


def reference_lookup_tuples(
    self: StorageService, relation: str, tuple_ids: Iterable[TupleId]
) -> tuple[list[VersionedTuple], list[TupleId]]:
    """Local point lookups; returns (found tuples, missing IDs)."""
    found: list[VersionedTuple] = []
    missing: list[TupleId] = []
    count = 0
    for tid in tuple_ids:
        tup = self.store.get(_TUPLE_TREE, (relation, tid.hash_key, tid))
        tup = self._verified(_TUPLE_TREE, (relation, tid.hash_key, tid), tup, "tuple")
        count += 1
        if tup is None:
            missing.append(tid)
        else:
            found.append(tup)
    self.node.charge_cpu(DATA_SCAN_COST_PER_TUPLE * count)
    self.node.charge_disk_read(sum(t.estimated_size() for t in found))
    return found, missing
