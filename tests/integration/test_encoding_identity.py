"""End-to-end byte identity of the encoding pipeline, pinned as constants.

The column encoder is free to change *how* it analyses a column, never what
it emits: every retrieve response and every exchange batch is charged at the
compressed size of its encoded form, so a different codec choice anywhere
moves the committed traffic figures.  The unit-level contract is enforced
against a reference implementation in ``tests/common``; this test pins the
other end — an 8-node cluster with TPC-H loaded, one full ``lineitem``
retrieve, one predicate-pushed ``orders`` retrieve and Q3 must encode the same
number of batches into the same per-codec bytes and put the same bytes on the
wire as they did when the constants below were recorded (on the commit before
the single-pass encoder, and unchanged by it).  ``wire_bytes`` was re-pinned
once on purpose: ``query.start`` carries a 16-byte routing-snapshot digest
instead of 32 bytes per range, 240 bytes less per remote start of Q3's seven.

Message order follows set iteration order, which follows the string hash
seed, so the scenario runs in a child interpreter under ``PYTHONHASHSEED=0``.
"""

import json
import os
import subprocess
import sys

import repro

SCENARIO = """
import json
from repro.cluster import Cluster
from repro.common.serialization import ENCODING_STATS
from repro.query.expressions import col
from repro.query.service import QueryOptions
from repro.workloads import tpch

instance = tpch.generate(2.0, 0)
cluster = Cluster(8)
cluster.publish_relations(instance.relation_list())
cluster.enable_query_processing()
prices = sorted(row[3] for row in instance.relations["orders"].rows)
ENCODING_STATS.reset()
before = cluster.traffic_snapshot()
lineitem = cluster.retrieve("lineitem")
orders = cluster.retrieve(
    "orders", predicate=col("o_totalprice").gt(prices[len(prices) * 3 // 4])
)
q3 = cluster.query(tpch.query("Q3"), options=QueryOptions(use_result_cache=False))
traffic = before.delta(cluster.traffic_snapshot())
stats = ENCODING_STATS.snapshot()
print(json.dumps({
    "rows": [len(lineitem.rows()), len(orders.rows()), len(q3.rows)],
    "batches_encoded": stats["batches_encoded"],
    "encoded_bytes": stats["encoded_bytes"],
    "wire_bytes": traffic.total_bytes,
    "wire_messages": traffic.total_messages,
}))
"""

PINNED = {
    "rows": [6000, 374, 4],
    "batches_encoded": 138,
    "encoded_bytes": {"dict": 20308, "rle": 10537, "for": 106209, "raw": 9231},
    "wire_bytes": 268201,
    "wire_messages": 211,
}


def test_retrieves_and_q3_encode_to_the_pinned_bytes():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=source_root)
    completed = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.strip().splitlines()[-1]) == PINNED
