"""One counters protocol for the per-layer stats objects.

Each layer keeps its counters as plain attributes of a dataclass deriving
from :class:`Counters`, so the hot path pays one attribute write per event.
Every field is declared with :func:`counter`, which says what the counter
means to the rest of the system:

* ``metric`` — the registry series it feeds (``None``: kept, not exported);
* ``tag`` — for a ``dict`` counter, the tag its keys are reported under
  (``rpc.hedges{outcome=...}``); ``tags`` — fixed tags of a scalar
  (``scheduler.shed{reason=deadline}``);
* ``per_query`` — whether a query's statistics attribute the counter's
  movement while the query ran.  Background work (heartbeats, scrubbing)
  is declared ``per_query=False``.

From those declarations :class:`Counters` derives, for every layer,
``merge`` (cluster totals), ``snapshot``/``to_dict``,
``metric_series`` (the registry collector's samples) and ``query_snapshot``,
whose launch/finish pair :func:`fold_delta` turns into the query's
per-layer attribution.
"""

from __future__ import annotations

import dataclasses
import functools


def counter(
    metric: str | None = None,
    *,
    tag: str | None = None,
    tags: dict | None = None,
    per_query: bool = True,
    default=0,
    default_factory=None,
):
    """Declare one :class:`Counters` field (``default_factory`` for dicts)."""
    metadata = {"metric": metric, "tag": tag, "tags": tags or {}, "per_query": per_query}
    if default_factory is not None:
        return dataclasses.field(default_factory=default_factory, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@functools.cache
def _per_query(cls: type) -> tuple[str, ...]:
    """Names of ``cls``'s ``per_query`` fields (read twice per query)."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.metadata["per_query"])


def _copy(value):
    return dict(value) if type(value) is dict else value


class Counters:
    """Base of the layer stats dataclasses (see the module docstring)."""

    __slots__ = ()

    def merge(self, other: "Counters") -> "Counters":
        """Add ``other``'s counters into this object; returns ``self``."""
        totals = self.__dict__
        for name, value in other.__dict__.items():
            if type(value) is dict:
                into = totals[name]
                for key, count in value.items():
                    into[key] = into.get(key, 0) + count
            else:
                totals[name] += value
        return self

    def snapshot(self) -> dict:
        """Every counter by field name (dict counters copied)."""
        return {f.name: _copy(getattr(self, f.name)) for f in dataclasses.fields(self)}

    def to_dict(self) -> dict:
        """Common stats-serialization protocol (see :mod:`repro.obs.metrics`)."""
        return self.snapshot()

    def query_snapshot(self) -> dict:
        """The ``per_query`` counters, for :func:`fold_delta`."""
        return {name: _copy(getattr(self, name)) for name in _per_query(type(self))}

    def metric_series(self, **tags):
        """Registry samples of every exported counter, all carrying ``tags``."""
        samples = []
        for f in dataclasses.fields(self):
            metric = f.metadata["metric"]
            if metric is None:
                continue
            value = getattr(self, f.name)
            series_tags = {**tags, **f.metadata["tags"]}
            tag = f.metadata["tag"]
            if tag is None:
                samples.append((metric, series_tags, int(value) if type(value) is bool else value))
                continue
            for key in sorted(value):
                samples.append((metric, {**series_tags, tag: key}, value[key]))
        return samples


def fold_delta(into: dict, before: dict, after: dict) -> None:
    """Add ``after - before`` of two query snapshots into ``into``.

    Nothing that did not move appears: a scalar enters ``into`` only with a
    non-zero delta, a dict counter only once one of its keys moved.  Keys new
    in ``after`` count from zero.
    """
    for name, value in after.items():
        if type(value) is dict:
            previous = before.get(name, {})
            moved = {
                key: count - previous.get(key, 0)
                for key, count in value.items()
                if count != previous.get(key, 0)
            }
            if moved:
                folded = into.setdefault(name, {})
                for key, delta in moved.items():
                    folded[key] = folded.get(key, 0) + delta
        else:
            delta = value - before.get(name, 0)
            if delta:
                into[name] = into.get(name, 0) + delta
