"""Figure 20: per-node traffic on the EC2 profile, 10-100 nodes."""

from conftest import EC2_NODE_COUNTS, TPCH_SCALING_EC2, TPCH_SF_EC2, run_once, series
from repro.bench import format_table, run_tpch_sweep


def test_fig20_ec2_per_node_traffic_vs_nodes(benchmark, print_series):
    rows = run_once(benchmark, run_tpch_sweep, EC2_NODE_COUNTS, TPCH_SF_EC2,
                    ("Q1", "Q3", "Q5", "Q6", "Q10"), "ec2", scaling=TPCH_SCALING_EC2)
    print_series("Figure 20: TPC-H SF 10 per-node traffic (MB) on EC2 profile vs nodes",
                 format_table(rows, ["query", "nodes", "per_node_mb"]))
    # Shape: per-node traffic decreases as nodes are added, for the queries
    # whose data volume dominates (Q3, Q5) and for Q10, which moves little
    # data at the scaled-down workload: its per-node traffic is mostly control
    # cost, and no per-participant control message grows with the node count
    # (query.start carries a 16-byte routing-snapshot digest, not the
    # snapshot).  Measured Q10: 0.01033 / 0.008551 / 0.006269 / 0.004371 MB at
    # 10 / 25 / 50 / 100 nodes.
    for query in ("Q3", "Q5", "Q10"):
        per_node = series(rows, "per_node_mb", "query", query, "nodes")
        assert per_node[max(EC2_NODE_COUNTS)] < per_node[min(EC2_NODE_COUNTS)]
