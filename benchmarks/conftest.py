"""Shared configuration for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper's evaluation
(Section VI) on a *scaled-down* workload: the simulator runs the same
protocols and queries, but with roughly 1/1000 of the paper's tuple counts so
that the full suite completes in minutes.  The constants below are the single
place where those scales are defined, so they are also the record of the
scale behind every series a benchmark prints.

Each benchmark prints the full series it measured (the same rows the paper's
figure plots) and asserts the qualitative *shape* of the paper's result —
who wins, what grows, where the knee is — rather than absolute numbers.
"""

import pytest

from repro.workloads import tpch as _tpch

#: Node counts for the local-cluster experiments (the paper uses 1–16).
LAN_NODE_COUNTS = (1, 2, 4, 8, 16)
#: Node counts for the EC2-scale experiments (the paper uses 10–100).
EC2_NODE_COUNTS = (10, 25, 50, 100)
#: STBenchmark tuples per relation (stands in for the paper's 800 K).
STB_TUPLES = 800
#: STBenchmark data-size sweep (stands in for 100 K – 1.6 M tuples/relation).
#: Sized so per-tuple work dominates the fixed per-query cost at the smallest
#: point, as it does at the paper's 100 K-tuple smallest point.
STB_DATA_SWEEP = (800, 1600, 3200, 6400)
#: TPC-H scale factors; the generator's built-in scaling keeps these laptop sized.
TPCH_SF_NODE_SWEEP = 0.5
TPCH_SF_DATA_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0)
TPCH_SF_EC2 = 10.0
TPCH_SF_WAN = 2.0
TPCH_SF_FAILURE = 2.0

# The node-count sweeps (Figures 10-12 and 18-20) generate a larger fraction
# of the official TPC-H row counts than the default 1/2000.  Control traffic
# (plan dissemination, routing snapshots, end-of-stream markers) has a fixed
# absolute cost per node, so at 1/2000 of the paper's data it would dominate
# the traffic figures — a regime the paper never operates in.  Running the
# sweeps at 1/62.5 (LAN) and 1/250 (EC2) of TPC-H keeps the data:control ratio
# in the paper's regime while the full suite still finishes in minutes.
TPCH_SCALING_DEFAULT = _tpch.DEFAULT_SCALING
TPCH_SCALING_LAN_SWEEP = _tpch.DEFAULT_SCALING * 32
TPCH_SCALING_EC2 = _tpch.DEFAULT_SCALING * 4
#: Per-node bandwidths (KB/s) for the WAN experiment (paper: 100–3200 KB/s).
WAN_BANDWIDTHS = (200, 400, 800, 1600, 3200)
#: Added latencies (ms) for the latency observation of Section VI-C.
LATENCIES_MS = (0.1, 50, 100, 200)
#: Failure injection offsets (simulated seconds after query start).
FAILURE_TIMES = (0.001, 0.003, 0.005)


@pytest.fixture
def print_series(capsys):
    """Print a result table so it is visible in the benchmark output."""

    def _print(title, text):
        with capsys.disabled():
            print(f"\n=== {title} ===")
            print(text)

    return _print


def run_once(benchmark, function, *args, **kwargs):
    """Run a sweep exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def series(rows, key, label_field, label, x_field):
    """Extract one series (label → sorted x/y pairs) from sweep rows."""
    points = [r for r in rows if r[label_field] == label]
    return {r[x_field]: r[key] for r in sorted(points, key=lambda r: r[x_field])}
