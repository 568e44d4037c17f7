"""A tagged metrics registry over the existing stats objects.

Instruments are Prometheus-shaped: a named :class:`Counter`, :class:`Gauge`
or :class:`Histogram` holds one value per *tag set* (``rpc.bytes{kind=...}``,
``scheduler.admitted{initiator=...}``, ``cache.hits{tier=...}``).  Histogram
buckets are **fixed** and in virtual seconds — simulated latencies are
deterministic, so adaptive buckets would only make runs harder to diff.

The stats objects the hot path writes keep plain attributes — the
simulator's inner loop should not pay instrument lookups — and instead
expose a ``metric_series()`` view: the ``TrafficMeter`` by hand, and the
six layer stats (``ResilienceStats``, ``IntegrityStats``, ``CacheStats``,
``SchedulerStats``, ``FaultStats``, ``EncodingStats``) derived from their
field declarations by :mod:`repro.obs.counters`.  The registry pulls those
views through registered *collectors* at snapshot time, so
``Cluster.observability()`` presents one uniformly-named view without a
single extra instruction on the message path.

Every stats object also speaks the common ``to_dict()`` protocol
(:class:`SupportsToDict`); the registry's own export uses it too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

#: One collected sample: ``(name, tags, value)``.
Series = tuple[str, dict, object]

#: Fixed virtual-time latency buckets (seconds).  They span the regimes the
#: simulator produces: sub-millisecond RPCs up to multi-second scans.
DEFAULT_TIME_BUCKETS = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
    5.0,
)


@runtime_checkable
class SupportsToDict(Protocol):
    """The common serialization protocol all stats objects implement."""

    def to_dict(self) -> dict:  # pragma: no cover - protocol signature
        ...


def format_series(name: str, tags: dict) -> str:
    """Render ``name{k=v,...}`` with sorted tag keys (stable across runs)."""
    if not tags:
        return name
    inner = ",".join(f"{key}={tags[key]}" for key in sorted(tags))
    return f"{name}{{{inner}}}"


def _tag_key(tags: dict) -> tuple:
    return tuple(sorted(tags.items()))


class _Instrument:
    """Base: one named instrument holding a value per tag set."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[tuple, object] = {}
        self._tags: dict[tuple, dict] = {}

    def _slot(self, tags: dict) -> tuple:
        key = _tag_key(tags)
        if key not in self._tags:
            self._tags[key] = dict(tags)
        return key

    def series(self) -> list[Series]:
        return [
            (self.name, self._tags[key], self._values[key])
            for key in sorted(self._values)
        ]

    def to_dict(self) -> dict:
        return {format_series(self.name, tags): value for _, tags, value in self.series()}


class Counter(_Instrument):
    """Monotonically increasing count per tag set."""

    def inc(self, amount: int = 1, **tags) -> None:
        key = self._slot(tags)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **tags) -> int:
        return self._values.get(_tag_key(tags), 0)

    def total(self) -> int:
        return sum(self._values.values())


class Gauge(_Instrument):
    """Last-written value per tag set."""

    def set(self, value: float, **tags) -> None:
        self._values[self._slot(tags)] = value

    def value(self, **tags) -> float | None:
        return self._values.get(_tag_key(tags))


class Histogram(_Instrument):
    """Fixed-bucket histogram per tag set.

    Each tag set's value is ``{"count", "sum", "min", "max", "buckets"}``
    where ``buckets`` maps each upper bound (plus ``inf``) to a cumulative
    count, Prometheus-style.
    """

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(name)
        self.buckets = tuple(buckets)

    def observe(self, value: float, **tags) -> None:
        key = self._slot(tags)
        state = self._values.get(key)
        if state is None:
            state = {
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
                "buckets": {bound: 0 for bound in self.buckets},
            }
            state["buckets"][float("inf")] = 0
            self._values[key] = state
        state["count"] += 1
        state["sum"] += value
        state["min"] = min(state["min"], value)
        state["max"] = max(state["max"], value)
        for bound in self.buckets:
            if value <= bound:
                state["buckets"][bound] += 1
        state["buckets"][float("inf")] += 1

    def count(self, **tags) -> int:
        state = self._values.get(_tag_key(tags))
        return state["count"] if state else 0


class MetricsRegistry:
    """Named instruments plus pull-style collectors.

    ``snapshot()`` merges both sources into one flat, uniformly named view;
    ``to_dict()`` is the JSON-ready form the exporters and
    ``Cluster.observability()`` use.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], Iterable[Series]]] = []

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(name, buckets)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}")
        return instrument

    def register_collector(self, collector: Callable[[], Iterable[Series]]) -> None:
        """Register a pull source: a callable returning ``(name, tags,
        value)`` samples at snapshot time."""
        self._collectors.append(collector)

    def series(self) -> list[Series]:
        samples: list[Series] = []
        for name in sorted(self._instruments):
            samples.extend(self._instruments[name].series())
        for collector in self._collectors:
            samples.extend(collector())
        return samples

    def snapshot(self) -> dict[str, object]:
        """The flat ``{"name{tags}": value}`` view with uniform naming."""
        return {
            format_series(name, tags): value for name, tags, value in self.series()
        }

    def to_dict(self) -> dict:
        return {"metrics": self.snapshot()}

    def _get(self, name: str, cls) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}")
        return instrument
