"""Per-query execution profiles, attributed from the span tree.

A profile joins two sources over one query's trace:

* **spans** give bytes, message counts and virtual-time activity per
  operator: data/EOS messages carry the ``exchange_id`` of the exchange
  they belong to and scan-protocol messages carry the ``scan_op_id``, and
  any span without its own marker (replica chases, tuple fetches spawned
  while handling a scan message) inherits the attribution of its nearest
  marked ancestor;
* **operator summaries** give rows and batches: each participant reports
  its runtime-operator counters to the tracer when a fragment is torn
  down, and the builder aggregates them by ``(op_id)`` across nodes.

A restarted query keeps its submission's trace, so the profile spans all
attempts — ``query_ids`` lists every id the trace executed under.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import Span, Tracer

#: Span kinds that belong to the query as a whole rather than any operator.
_OVERHEAD_KINDS = (
    "query.start",
    "query.recover",
    "query.abort",
    "query.restart",
    "query.recovery",
)


@dataclass
class OperatorProfileRow:
    """One operator's aggregated runtime footprint."""

    op_id: int
    depth: int
    label: str
    rows: int | None = None
    batches: int | None = None
    bytes: int = 0
    messages: int = 0
    busy_from: float | None = None
    busy_until: float | None = None

    @property
    def busy_seconds(self) -> float:
        if self.busy_from is None or self.busy_until is None:
            return 0.0
        return self.busy_until - self.busy_from

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "depth": self.depth,
            "label": self.label,
            "rows": self.rows,
            "batches": self.batches,
            "bytes": self.bytes,
            "messages": self.messages,
            "busy_from": self.busy_from,
            "busy_until": self.busy_until,
        }


@dataclass
class QueryProfile:
    """The per-operator breakdown of one traced query."""

    trace_id: int
    query_ids: tuple[str, ...]
    operators: list[OperatorProfileRow] = field(default_factory=list)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    #: Columnar-encoding footprint of the query (per-codec encoded bytes and
    #: batch counters), copied from the statistics when available.
    encoding: dict = field(default_factory=dict)
    #: Resilience activity during the query (hedges by outcome, retries,
    #: breaker skips), copied from the statistics when available.
    resilience: dict = field(default_factory=dict)
    #: Integrity activity during the query (corruptions detected by site,
    #: read-repairs by source), copied from the statistics when available.
    integrity: dict = field(default_factory=dict)
    overhead_bytes: int = 0
    total_bytes: int = 0
    span_count: int = 0
    begin: float | None = None
    end: float | None = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "query_ids": list(self.query_ids),
            "operators": [row.to_dict() for row in self.operators],
            "bytes_by_kind": dict(self.bytes_by_kind),
            "messages_by_kind": dict(self.messages_by_kind),
            "encoding": dict(self.encoding),
            "resilience": dict(self.resilience),
            "integrity": dict(self.integrity),
            "overhead_bytes": self.overhead_bytes,
            "total_bytes": self.total_bytes,
            "span_count": self.span_count,
            "begin": self.begin,
            "end": self.end,
        }

    def format(self) -> str:
        return format_profile(self)


def build_profile(
    tracer: Tracer, trace_id: int, plan, encoding: dict | None = None,
    resilience: dict | None = None, integrity: dict | None = None,
) -> QueryProfile:
    """Assemble the profile of ``trace_id`` over ``plan``'s operator tree."""
    spans = tracer.spans_of(trace_id)
    query_ids = tuple(sorted(tracer.query_ids_of(trace_id)))
    profile = QueryProfile(trace_id=trace_id, query_ids=query_ids)
    if encoding:
        profile.encoding = dict(encoding)
    if resilience:
        profile.resilience = dict(resilience)
    if integrity:
        profile.integrity = dict(integrity)
    profile.span_count = len(spans)

    rows: list[OperatorProfileRow] = []
    by_op: dict[int, OperatorProfileRow] = {}

    def visit(op, depth: int) -> None:
        row = OperatorProfileRow(op_id=op.op_id, depth=depth, label=repr(op))
        rows.append(row)
        by_op[op.op_id] = row
        for child in op.children():
            visit(child, depth + 1)

    visit(plan.root, 0)
    profile.operators = rows

    attribution: dict[int, int | None] = {}
    for span in spans:
        op_id = _attribute(span, attribution, tracer.spans)
        if profile.begin is None or span.begin < profile.begin:
            profile.begin = span.begin
        if span.end is not None and (profile.end is None or span.end > profile.end):
            profile.end = span.end
        profile.total_bytes += span.bytes
        if span.bytes or span.name:
            profile.bytes_by_kind[span.name] = (
                profile.bytes_by_kind.get(span.name, 0) + span.bytes
            )
            profile.messages_by_kind[span.name] = (
                profile.messages_by_kind.get(span.name, 0) + 1
            )
        row = by_op.get(op_id) if op_id is not None else None
        if row is None:
            profile.overhead_bytes += span.bytes
            continue
        row.bytes += span.bytes
        row.messages += 1
        if row.busy_from is None or span.begin < row.busy_from:
            row.busy_from = span.begin
        if span.end is not None and (row.busy_until is None or span.end > row.busy_until):
            row.busy_until = span.end

    for summary in tracer.summaries_for(query_ids):
        row = by_op.get(summary.op_id)
        if row is None:
            continue
        produced = _rows_of(summary.counters)
        if produced is not None:
            row.rows = (row.rows or 0) + produced
        batches = summary.counters.get("batches_sent")
        if batches is not None:
            row.batches = (row.batches or 0) + batches

    return profile


def format_profile(profile: QueryProfile) -> str:
    """Render the profile as an indented operator tree."""
    ids = ", ".join(profile.query_ids) or "?"
    header = (
        f"profile of {ids} (trace {profile.trace_id}, "
        f"{profile.span_count} spans, {profile.total_bytes} wire bytes)"
    )
    lines = [header]
    for row in profile.operators:
        cells = []
        if row.rows is not None:
            cells.append(f"rows={row.rows}")
        if row.batches is not None:
            cells.append(f"batches={row.batches}")
        if row.messages:
            cells.append(f"msgs={row.messages}")
            cells.append(f"bytes={row.bytes}")
        if row.busy_from is not None and row.busy_until is not None:
            cells.append(
                f"t=[{row.busy_from * 1e3:.3f}ms..{row.busy_until * 1e3:.3f}ms]"
            )
        suffix = ("  [" + " ".join(cells) + "]") if cells else ""
        lines.append("  " * row.depth + row.label + suffix)
    if profile.overhead_bytes:
        lines.append(f"(+ {profile.overhead_bytes} bytes of dissemination/control)")
    encoded = profile.encoding.get("encoded_bytes") if profile.encoding else None
    if encoded:
        per_codec = " ".join(
            f"{codec}={encoded[codec]}" for codec in sorted(encoded)
        )
        lines.append(
            f"(encoded columns: {per_codec}; "
            f"{profile.encoding.get('batches_encoded', 0)} batches encoded, "
            f"{profile.encoding.get('batches_skipped', 0)} skipped undecoded)"
        )
    if profile.resilience:
        hedges = profile.resilience.get("hedges", {})
        launched = sum(
            hedges.get(outcome, 0) for outcome in ("won", "lost")
        )
        lines.append(
            f"(resilience: {launched} hedges launched "
            f"({hedges.get('won', 0)} won), "
            f"{profile.resilience.get('retries', 0)} retries, "
            f"{profile.resilience.get('breaker_skips', 0)} breaker skips)"
        )
    if profile.integrity:
        detected = profile.integrity.get("detected", {})
        repaired = profile.integrity.get("repaired", {})
        sites = " ".join(f"{site}={detected[site]}" for site in sorted(detected))
        lines.append(
            f"(integrity: {sum(detected.values())} corruptions detected"
            + (f" ({sites})" if sites else "")
            + f", {sum(repaired.values())} read-repaired)"
        )
    return "\n".join(lines)


def _attribute(
    span: Span, cache: dict[int, int | None], spans: dict[int, Span]
) -> int | None:
    """The operator a span belongs to: its own exchange/scan marker, or the
    nearest marked ancestor's (memoised per span)."""
    if span.span_id in cache:
        return cache[span.span_id]
    op_id: int | None = None
    attrs = span.attrs or {}
    if span.name in _OVERHEAD_KINDS:
        op_id = None
    elif "exchange_id" in attrs:
        op_id = attrs["exchange_id"]
    elif "scan_op_id" in attrs:
        op_id = attrs["scan_op_id"]
    elif span.parent_id is not None:
        parent = spans.get(span.parent_id)
        if parent is not None:
            op_id = _attribute(parent, cache, spans)
    cache[span.span_id] = op_id
    return op_id


def _rows_of(counters: dict[str, int]) -> int | None:
    """The 'rows' a summary contributes: rows produced for regular operators,
    rows sent for exchange senders (the receiver side reports
    ``rows_received``, which would double-count the same tuples)."""
    for key in ("rows_out", "rows_sent"):
        if key in counters:
            return counters[key]
    return None
