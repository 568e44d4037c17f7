"""Unified observability: virtual-time tracing, metrics, query profiles.

Three pillars, all on the simulator's virtual clock:

* :mod:`repro.obs.trace` — Dapper-style distributed tracing.  A
  :class:`~repro.obs.trace.TraceContext` rides on every
  :class:`~repro.net.simnet.Message` (charged honestly into the wire size,
  and **off by default** so golden wire vectors and committed traffic
  numbers stay byte-identical), and every handler runs inside its message's
  span, so one operation yields one complete span tree.
* :mod:`repro.obs.metrics` — a tagged Counter/Gauge/Histogram registry the
  stats objects export through with uniform naming
  (``rpc.bytes{kind=...}``, ``scheduler.admitted{initiator=...}``,
  ``cache.hits{tier=...}``); snapshot it with ``Cluster.observability()``.
  The per-layer stats declare their counters once with
  :mod:`repro.obs.counters`, which derives their merge, snapshots,
  registry samples and per-query attribution.
* :mod:`repro.obs.profile` — per-operator rows/batches/bytes/virtual-time
  attributed from the span tree, via ``QueryStatistics.profile()``.

:mod:`repro.obs.export` converts traces to Chrome-trace/Perfetto JSON, and
``python -m repro.obs.report`` runs a figure query with tracing on and dumps
the trace, the metrics snapshot, and the execution profile.
"""

from .export import chrome_trace, validate_chrome_trace, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import QueryProfile, build_profile, format_profile
from .trace import Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryProfile",
    "Span",
    "TraceContext",
    "Tracer",
    "build_profile",
    "chrome_trace",
    "format_profile",
    "validate_chrome_trace",
    "write_chrome_trace",
]
