"""The linear ``_PublishOperation._find_current_id`` that the per-page
``key values → newest ID`` map replaced, kept verbatim (as a function over the
operation) as the reference for ``test_find_current_differential.py`` and
``tests/cdss/test_replica_differential.py``.  Not imported by anything under
``src/``.
"""

from __future__ import annotations

from repro.common.types import TupleId, Value
from repro.storage.client import _PublishOperation
from repro.storage.pages import PageRef


def reference_find_current_id(
    self: _PublishOperation, ref: PageRef, key_values: tuple[Value, ...]
) -> TupleId | None:
    page = self._previous_pages.get(ref.page_id)
    if page is None:
        return None
    candidates = [tid for tid in page.tuple_ids if tid.key_values == key_values]
    if not candidates:
        return None
    return max(candidates, key=lambda tid: tid.epoch)
