"""Differential test: the vectorised ``ScanSource`` against the row loop.

The leaf scan is where every scanned tuple enters a query, and everything
downstream — batch boundaries, row order, wire bytes, the virtual clock — is
pinned by committed numbers, so the batch-at-a-time ``ScanSource`` has one
contract: for any sequence of deliveries it emits exactly what the
tuple-at-a-time loop emitted.  That loop lives on, verbatim, in
``reference_scan.py``; both are driven here with the same deliveries and
compared on everything observable:

* the emitted batches — how many, their sizes, each ``TaggedRow``'s values,
  attributes, provenance set and phase, in order;
* per batch, one shared attributes tuple and one shared provenance set (the
  downstream operators key compiled plans on the former);
* ``_emitted_ids``, ``rows_produced`` and the exact sequence of CPU charges.
"""

import random

import pytest

from reference_scan import ReferenceScanSource

from repro.common.errors import ExpressionError
from repro.common.types import Schema, TupleId, VersionedTuple
from repro.query.expressions import and_, col, lit, not_, or_
from repro.query.operators import RuntimeOperator, ScanSource
from repro.query.physical import PhysScan
from repro.workloads import tpch


class RecordingContext:
    """The slice of ``FragmentContext`` a scan source touches."""

    def __init__(self, address: str = "node-3") -> None:
        self.address = address
        self.phase = 0
        self.charges: list[float] = []

    def charge_cpu(self, seconds: float) -> None:
        self.charges.append(seconds)


class Sink(RuntimeOperator):
    """Parent operator that keeps every batch it is handed."""

    def __init__(self, context) -> None:
        super().__init__(context, op_id=-99)
        self.batches: list[list] = []

    def accept(self, rows, input_index: int = 0) -> None:
        self.batches.append(rows)


def build(cls, spec: PhysScan):
    context = RecordingContext()
    source = cls(context, spec)
    sink = Sink(context)
    source.connect(sink)
    return source, sink, context


class Pair:
    """The production source and the reference, fed identically."""

    def __init__(self, spec: PhysScan) -> None:
        self.new, self.new_sink, self.new_context = build(ScanSource, spec)
        self.old, self.old_sink, self.old_context = build(ReferenceScanSource, spec)
        self._checked = 0  # batches already compared

    def set_phase(self, phase: int) -> None:
        self.new_context.phase = self.old_context.phase = phase

    def deliver_tuples(self, tuples) -> None:
        self.new.deliver_tuples(list(tuples))
        self.old.deliver_tuples(list(tuples))
        self.check()

    def deliver_key_rows(self, tuple_ids) -> None:
        self.new.deliver_key_rows(list(tuple_ids))
        self.old.deliver_key_rows(list(tuple_ids))
        self.check()

    def check(self) -> None:
        assert len(self.new_sink.batches) == len(self.old_sink.batches)
        fresh = slice(self._checked, None)
        self._checked = len(self.new_sink.batches)
        for got, expected in zip(self.new_sink.batches[fresh], self.old_sink.batches[fresh]):
            assert len(got) == len(expected) > 0
            assert [t.row.values for t in got] == [t.row.values for t in expected]
            assert [t.phase for t in got] == [t.phase for t in expected]
            assert [t.nodes for t in got] == [t.nodes for t in expected]
            assert got[0].row.attributes == expected[0].row.attributes
            # One attributes tuple and one provenance set per batch, shared by
            # every row (as the reference does), not one copy per row.
            assert all(t.row.attributes is got[0].row.attributes for t in got)
            assert all(t.nodes is got[0].nodes for t in got)
            assert got == expected
        assert self.new._emitted_ids == self.old._emitted_ids
        assert self.new.rows_produced == self.old.rows_produced
        assert self.new_context.charges == self.old_context.charges

    @property
    def batches(self) -> list[list]:
        return self.new_sink.batches


def scan(schema: Schema, columns=(), residual=None, covering=False) -> PhysScan:
    return PhysScan(
        op_id=1, schema=schema, columns=tuple(columns), residual=residual,
        covering=covering,
    )


def versioned(schema: Schema, rows, epoch: int = 1) -> list[VersionedTuple]:
    return [
        VersionedTuple(schema.name, schema.tuple_id_for(values, epoch), values)
        for values in rows
    ]


# ---------------------------------------------------------------------------
# TPC-H lineitem: the batches and scan shapes the benchmark queries ship
# ---------------------------------------------------------------------------

LINEITEM = tpch.LINEITEM
LINEITEM_ROWS = tpch.generate(0.5, seed=11).relations["lineitem"].rows

Q6_RESIDUAL = and_(
    col("l_shipdate").ge(19940101),
    col("l_shipdate").lt(19950101),
    col("l_discount").ge(0.02),
    col("l_discount").le(0.08),
    col("l_quantity").lt(24),
)

LINEITEM_SCANS = {
    "all-columns": scan(LINEITEM),
    "q6": scan(LINEITEM, ["l_extendedprice", "l_discount"], Q6_RESIDUAL),
    "q3": scan(
        LINEITEM, ["l_orderkey", "l_extendedprice", "l_discount"],
        col("l_shipdate").gt(19950315),
    ),
    "single-column": scan(LINEITEM, ["l_quantity"], col("l_returnflag").eq("R")),
    "key-only": scan(LINEITEM, ["l_orderkey", "l_linenumber"]),
    "reordered": scan(LINEITEM, ["l_comment", "l_orderkey"], not_(col("l_tax").lt(0.03))),
    "residual-without-projection": scan(
        LINEITEM, residual=or_(col("l_shipmode").eq("AIR"), col("l_quantity").gt(45))
    ),
}


@pytest.mark.parametrize("name", sorted(LINEITEM_SCANS))
@pytest.mark.parametrize("batch_size", [1, 7, 64, 190, 750])
def test_lineitem_batches(name, batch_size):
    pair = Pair(LINEITEM_SCANS[name])
    tuples = versioned(LINEITEM, LINEITEM_ROWS)
    rng = random.Random(batch_size)
    rng.shuffle(tuples)
    for start in range(0, len(tuples), batch_size):
        pair.deliver_tuples(tuples[start:start + batch_size])
    assert pair.new.rows_produced > 0


# ---------------------------------------------------------------------------
# De-duplication: in-batch repeats and recovery re-delivery
# ---------------------------------------------------------------------------

PAIRS = Schema("pairs", ["k", "a", "b", "kind"], key=["k"])


def pairs_rows(rng: random.Random, count: int):
    return [
        (k, rng.choice([None, 0, 1, 2, 5]), rng.choice([None, 0.5, 2.0]),
         rng.choice(["n", "s"]))
        for k in rng.sample(range(10_000), count)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_duplicates_within_and_across_batches(seed):
    rng = random.Random(seed)
    spec = scan(PAIRS, ["k", "b"], col("a").ge(1) if seed % 2 else None)
    pair = Pair(spec)
    tuples = versioned(PAIRS, pairs_rows(rng, 400))
    delivered: list[VersionedTuple] = []
    for phase in range(5):
        pair.set_phase(phase)  # a recovery phase re-delivers what was produced
        batch = rng.sample(tuples, 120)
        batch += rng.choices(batch, k=25)       # repeats inside the batch
        batch += rng.choices(delivered or batch, k=25)  # ... and of earlier batches
        rng.shuffle(batch)
        pair.deliver_tuples(batch)
        delivered.extend(batch)
    # A pure re-delivery produces nothing and charges nothing.
    charges = list(pair.new_context.charges)
    batches = len(pair.batches)
    pair.deliver_tuples(delivered[:200])
    assert pair.new_context.charges == charges and len(pair.batches) == batches


def test_an_id_the_residual_rejected_is_not_produced_on_redelivery():
    pair = Pair(scan(PAIRS, residual=col("a").eq(1)))
    rejected, accepted = versioned(PAIRS, [(1, 0, 0.5, "n"), (2, 1, 0.5, "n")])
    pair.deliver_tuples([rejected, accepted])
    assert [t.row.values for t in pair.batches[-1]] == [accepted.values]
    # Same ID, new version that would pass: still a duplicate delivery.
    passing_now = VersionedTuple("pairs", rejected.tuple_id, (1, 1, 0.5, "n"))
    pair.deliver_tuples([passing_now])
    assert len(pair.batches) == 1
    assert rejected.tuple_id in pair.new._emitted_ids


def test_residual_rejecting_every_row_charges_and_emits_nothing():
    pair = Pair(scan(PAIRS, ["k"], col("a").gt(100)))
    tuples = versioned(PAIRS, pairs_rows(random.Random(3), 300))
    pair.deliver_tuples(tuples)
    assert pair.batches == [] and pair.new_context.charges == []
    assert pair.new.rows_produced == 0
    assert pair.new._emitted_ids == {t.tuple_id for t in tuples}


def test_empty_batch():
    pair = Pair(scan(PAIRS, ["k"], col("a").gt(0)))
    pair.deliver_tuples([])
    pair.deliver_key_rows([])
    assert pair.batches == [] and pair.new_context.charges == []


def test_the_charge_counts_delivered_tuples_not_surviving_rows():
    pair = Pair(scan(PAIRS, residual=col("kind").eq("n")))
    tuples = versioned(PAIRS, [(i, 1, 1.0, "n" if i % 4 == 0 else "s") for i in range(40)])
    pair.deliver_tuples(tuples + tuples[:8])
    assert len(pair.batches[0]) == 10
    assert pair.new_context.charges == pair.old_context.charges
    assert len(pair.new_context.charges) == 1


# ---------------------------------------------------------------------------
# Residual semantics: NULLs and short-circuit evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("residual", [
    col("a").gt(0),                                   # NULL comparison is false
    not_(col("a").gt(0)),                             # ... and its negation true
    (col("a") * col("b")).ge(1.0),                    # NULL arithmetic propagates
    or_(col("a").eq(0), col("b").lt(1.0)),
    and_(col("a").ge(0), or_(col("b").gt(1.0), col("kind").eq("s"))),
    col("a"),                                         # a bare column as predicate
    lit(True), lit(False), lit(None),
], ids=repr)
def test_null_bearing_residuals(residual):
    pair = Pair(scan(PAIRS, ["k", "a", "b"], residual))
    rng = random.Random(5)
    rows = pairs_rows(rng, 600)
    for start in range(0, len(rows), 97):
        pair.deliver_tuples(versioned(PAIRS, rows[start:start + 97]))


def test_a_later_conjunct_never_sees_rows_an_earlier_one_rejected():
    """``10 / a`` raises on ``a == 0`` and ``a < 3`` raises on strings: both
    are guarded by an earlier conjunct, row by row in the reference and
    batch-wise (sub-batch of survivors) in the columnar evaluator."""
    mixed = Schema("mixed", ["k", "kind", "a"], key=["k"])
    rows = [(i, "n", i % 5) for i in range(200)] + [(1000 + i, "s", "text") for i in range(50)]
    random.Random(8).shuffle(rows)
    guarded_division = and_(
        col("kind").eq("n"), col("a").gt(0), (lit(10) / col("a")).gt(2.4)
    )
    guarded_or = or_(col("kind").eq("s"), col("a").lt(3))
    for residual in (guarded_division, guarded_or):
        pair = Pair(scan(mixed, ["k"], residual))
        for start in range(0, len(rows), 64):
            pair.deliver_tuples(versioned(mixed, rows[start:start + 64]))
        assert pair.new.rows_produced > 0


def test_an_unguarded_raising_conjunct_raises_in_both():
    mixed = Schema("mixed", ["k", "a"], key=["k"])
    tuples = versioned(mixed, [(1, 2), (2, 0), (3, 1)])
    spec = scan(mixed, ["k"], (lit(10) / col("a")).gt(1))
    for cls in (ScanSource, ReferenceScanSource):
        source, _sink, _context = build(cls, spec)
        with pytest.raises(ZeroDivisionError):
            source.deliver_tuples(tuples)


def test_a_residual_over_a_missing_attribute_fails_at_delivery_in_both():
    spec = scan(PAIRS, ["k"], col("nope").eq(1))
    tuples = versioned(PAIRS, [(1, 1, 1.0, "n")])
    for cls in (ScanSource, ReferenceScanSource):
        source, sink, _context = build(cls, spec)
        with pytest.raises(ExpressionError, match="nope"):
            source.deliver_tuples(tuples)
        assert sink.batches == []


# ---------------------------------------------------------------------------
# Covering scans: rows built from tuple IDs
# ---------------------------------------------------------------------------

COMPOSITE = Schema("composite", ["x", "y", "z", "payload"], key=["x", "y", "z"])
#: A relation that *is* its key: a covering scan of it needs no projection.
KEY_ONLY = Schema("composite", COMPOSITE.key, key=COMPOSITE.key)


def composite_ids(rng: random.Random, count: int) -> list[TupleId]:
    return [
        COMPOSITE.tuple_id_for_key((rng.randrange(50), f"y{rng.randrange(9)}", i), 2)
        for i in range(count)
    ]


@pytest.mark.parametrize("columns,residual", [
    ((), None),
    (("x", "y", "z"), None),
    (("z", "x"), col("x").lt(25)),
    (("y",), and_(col("x").ge(10), col("y").eq("y3"))),
    (("x", "y", "z"), col("x").gt(1000)),
], ids=repr)
def test_key_rows(columns, residual):
    schema = COMPOSITE if columns else KEY_ONLY
    pair = Pair(scan(schema, columns, residual, covering=True))
    rng = random.Random(len(columns))
    ids = composite_ids(rng, 500)
    for phase, start in enumerate(range(0, len(ids), 130)):
        pair.set_phase(phase)
        batch = ids[start:start + 130] + rng.choices(ids[:start + 130], k=20)
        pair.deliver_key_rows(batch)


def test_key_rows_onto_non_key_columns_fail_only_once_a_row_survives():
    spec = scan(COMPOSITE, ["x", "payload"], col("x").lt(10), covering=True)
    ids = composite_ids(random.Random(4), 300)
    rejected = [tid for tid in ids if not tid.key_values[0] < 10]
    for cls in (ScanSource, ReferenceScanSource):
        source, sink, context = build(cls, spec)
        source.deliver_key_rows(rejected)         # nothing survives: no error
        source.deliver_key_rows(rejected[:5])     # duplicates: no error
        assert sink.batches == [] and context.charges == []
        with pytest.raises(KeyError, match="outside the key attributes"):
            source.deliver_key_rows(ids)


# ---------------------------------------------------------------------------
# The satellite fix: one compiled residual per scan, for the form delivered
# ---------------------------------------------------------------------------


def test_only_the_delivered_form_is_compiled(monkeypatch):
    from repro.query import operators

    compiled: list[tuple] = []
    real = operators.compile_columnar

    def counting(expression, attributes):
        compiled.append(tuple(attributes))
        return real(expression, attributes)

    monkeypatch.setattr(operators, "compile_columnar", counting)
    source, _sink, _context = build(ScanSource, LINEITEM_SCANS["q6"])
    assert compiled == []  # nothing at construction: most fragments never scan
    tuples = versioned(LINEITEM, LINEITEM_ROWS[:300])
    source.deliver_tuples(tuples[:150])
    source.deliver_tuples(tuples[150:])
    # Once, and over the three columns the residual reads — not lineitem's 15.
    assert compiled == [("l_quantity", "l_discount", "l_shipdate")]
