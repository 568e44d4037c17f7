"""The perf harness: structure of BENCH_perf.json and the regression check.

The timing itself is machine-dependent and never asserted; what is pinned is
the document layout (future PRs extend the trajectory against it), the
determinism of the seeded workloads, and the ``--check`` comparison logic
(machine-speed normalisation, variance floor, tolerance).
"""

import json

from repro.bench import perf


def test_smoke_suite_structure(tmp_path):
    document = perf.run_suite(seed=0, repeat=1, scale="smoke", include_e2e=False,
                              include_traffic=False)
    benches = document["benchmarks"]
    for name in (
        "calibration.spin",
        "serialization.encode_tpch",
        "serialization.encode_stb",
        "serialization.decode_tpch",
        "serialization.values_roundtrip",
        "hashing.partition_hash",
        "hashing.tuple_id_hash_key",
        "hashing.sha1_identifiers",
        "operators.select_project",
        "operators.hash_join",
        "operators.aggregate",
        "operators.scan_source",
        "storage.lookup_tuples",
    ):
        assert name in benches, name
        entry = benches[name]
        assert entry["seconds"] > 0
        assert entry["ops"] > 0
        assert entry["us_per_op"] > 0
    assert document["meta"]["scale"] == "smoke"
    # The document is JSON-serialisable as produced.
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(document))
    assert json.loads(path.read_text())["benchmarks"]


def test_workloads_are_deterministic():
    assert perf._tpch_like_rows(50, 3) == perf._tpch_like_rows(50, 3)
    assert perf._stb_like_rows(50, 3) == perf._stb_like_rows(50, 3)
    assert perf._mixed_value_tuples(50, 3) == perf._mixed_value_tuples(50, 3)
    assert perf._tpch_like_rows(50, 3) != perf._tpch_like_rows(50, 4)


def _doc(spins, **benches):
    return {
        "benchmarks": {
            "calibration.spin": {"seconds": spins, "ops": 1, "us_per_op": 1.0},
            **{
                name: {"seconds": seconds, "ops": 1, "us_per_op": 1.0}
                for name, seconds in benches.items()
            },
        }
    }


def test_check_passes_within_tolerance():
    reference = _doc(1.0, x=1.0)
    fresh = _doc(1.0, x=1.2)
    assert perf.check_regressions(reference, fresh, tolerance=0.25) == []


def test_check_fails_beyond_tolerance():
    reference = _doc(1.0, x=1.0)
    fresh = _doc(1.0, x=1.3)
    failures = perf.check_regressions(reference, fresh, tolerance=0.25)
    assert failures and "x" in failures[0]


def test_check_normalises_by_machine_speed():
    # The fresh machine is 2x slower (calibration 2.0 vs 1.0); a benchmark
    # that is 1.8x slower in wall time is *faster* after normalisation.
    reference = _doc(1.0, x=1.0)
    fresh = _doc(2.0, x=1.8)
    assert perf.check_regressions(reference, fresh, tolerance=0.25) == []


def test_check_applies_variance_floor():
    # 10 ms vs 40 ms is a 4x regression but below the 50 ms floor: ignored.
    reference = _doc(1.0, x=0.010)
    fresh = _doc(1.0, x=0.040)
    assert perf.check_regressions(reference, fresh, tolerance=0.25) == []


def test_check_reports_missing_benchmarks():
    reference = _doc(1.0, x=1.0)
    fresh = _doc(1.0)
    failures = perf.check_regressions(reference, fresh)
    assert failures and "not in this run" in failures[0]


def test_cli_writes_output(tmp_path):
    output = tmp_path / "BENCH_perf.json"
    code = perf.main([
        "--scale", "smoke", "--repeat", "1", "--no-e2e", "--no-traffic",
        "--output", str(output),
    ])
    assert code == 0
    document = json.loads(output.read_text())
    assert "benchmarks" in document and "meta" in document


def test_cli_check_against_own_output_passes(tmp_path):
    output = tmp_path / "BENCH_perf.json"
    assert perf.main([
        "--scale", "smoke", "--repeat", "1", "--no-e2e",
        "--output", str(output),
    ]) == 0
    # A fresh run checked against its own numbers is within tolerance — the
    # traffic bytes in particular reproduce *exactly*.
    assert perf.main([
        "--scale", "smoke", "--repeat", "2", "--no-e2e",
        "--check", str(output),
    ]) == 0


# ---------------------------------------------------------------------------
# Wire-traffic section
# ---------------------------------------------------------------------------


def test_traffic_suite_structure_and_determinism(tmp_path):
    first = perf.run_traffic_suite(seed=0, nodes=5, scale_factor=0.5)
    second = perf.run_traffic_suite(seed=0, nodes=5, scale_factor=0.5)
    assert set(first["queries"]) == set(perf.TRAFFIC_QUERIES)
    for name, entry in first["queries"].items():
        assert entry["bytes_pushdown"] > 0
        assert entry["bytes_baseline"] >= entry["bytes_pushdown"], name
        assert entry["messages_pushdown"] > 0
        assert entry["pages_total"] > 0
    # Simulated byte counts are exact: two runs agree to the byte.
    assert first["queries"] == second["queries"]
    # The pruning query actually prunes; the figure queries cannot (their
    # predicates filter non-key attributes).
    assert first["queries"]["PRUNE"]["pages_pruned"] > 0
    path = tmp_path / "traffic.json"
    path.write_text(json.dumps(first))
    assert json.loads(path.read_text())["queries"]


def _traffic_doc(**queries):
    return {
        "benchmarks": {},
        "traffic": {"queries": {
            name: {"bytes_pushdown": pushed, "bytes_baseline": base,
                   "reduction": round(1 - pushed / base, 4)}
            for name, (pushed, base) in queries.items()
        }},
    }


def test_traffic_check_passes_when_bytes_hold():
    reference = _traffic_doc(Q3=(60_000, 120_000))
    fresh = _traffic_doc(Q3=(61_000, 120_000))
    assert perf.check_regressions(reference, fresh, tolerance=0.25) == []


def test_traffic_check_fails_on_byte_regression():
    # No variance floor: traffic bytes are deterministic, so a 30% growth is
    # a real regression even though the absolute numbers are small.
    reference = _traffic_doc(Q3=(10_000, 20_000))
    fresh = _traffic_doc(Q3=(13_000, 20_000))
    failures = perf.check_regressions(reference, fresh, tolerance=0.25)
    assert failures and "traffic.Q3" in failures[0]


def test_traffic_check_fails_when_reduction_collapses():
    # Bytes within tolerance but the pushdown edge is gone: the optimizer
    # stopped pushing (e.g. both runs now execute the baseline plan).
    reference = _traffic_doc(Q3=(100_000, 200_000))
    fresh = _traffic_doc(Q3=(120_000, 122_000))
    failures = perf.check_regressions(reference, fresh, tolerance=0.25)
    assert failures and "stopped pushing" in failures[0]


def test_traffic_check_reports_individually_missing_queries():
    reference = _traffic_doc(Q3=(100, 200), Q5=(100, 200))
    fresh = _traffic_doc(Q5=(100, 200))
    failures = perf.check_regressions(reference, fresh)
    assert failures and "traffic.Q3" in failures[0]


def test_check_skips_sections_the_fresh_run_omitted():
    # --no-traffic: the traffic section is absent wholesale — intentional.
    reference = _traffic_doc(Q3=(100, 200))
    reference["benchmarks"] = _doc(1.0, x=1.0)["benchmarks"]
    timing_only = {"benchmarks": _doc(1.0, x=1.0)["benchmarks"]}
    assert perf.check_regressions(reference, timing_only) == []
    # --traffic-only: the timing section is empty — also intentional.
    traffic_only = _traffic_doc(Q3=(100, 200))
    assert perf.check_regressions(reference, traffic_only) == []


# ---------------------------------------------------------------------------
# Gray-failure section
# ---------------------------------------------------------------------------


def _gray_doc(clean=1.0, hedged=2.0, unhedged=15.0, failed=0):
    return {
        "gray": {
            "meta": {"seed": 11, "modes": ["clean", "hedged-degraded",
                                           "unhedged-degraded"]},
            "modes": {
                "clean": {"p50_ms": clean, "p95_ms": clean, "p99_ms": clean,
                          "p99_vs_clean": 1.0, "failed": failed},
                "hedged-degraded": {
                    "p50_ms": hedged, "p95_ms": hedged, "p99_ms": hedged,
                    "p99_vs_clean": hedged / clean, "failed": failed,
                },
                "unhedged-degraded": {
                    "p50_ms": unhedged, "p95_ms": unhedged, "p99_ms": unhedged,
                    "p99_vs_clean": unhedged / clean, "failed": failed,
                },
            },
        },
    }


def test_gray_check_passes_when_ratios_hold():
    assert perf.check_gray_regressions(_gray_doc(), _gray_doc(), 0.25) == []


def test_gray_check_fails_when_hedged_ratio_blows_past_the_cap():
    failures = perf.check_gray_regressions(
        _gray_doc(), _gray_doc(hedged=4.0), 0.25
    )
    assert failures and any("hedged" in line for line in failures)


def test_gray_check_fails_when_the_unhedged_tail_collapses():
    # If the bare system stops hurting, the hedged number proves nothing.
    failures = perf.check_gray_regressions(
        _gray_doc(), _gray_doc(unhedged=5.0), 0.25
    )
    assert failures and any("unhedged" in line for line in failures)


def test_gray_check_fails_on_failed_operations():
    failures = perf.check_gray_regressions(
        _gray_doc(), _gray_doc(failed=2), 0.25
    )
    assert failures and any("failed" in line for line in failures)


def test_gray_check_skips_an_omitted_section_but_not_a_missing_mode():
    reference = _gray_doc()
    assert perf.check_gray_regressions(reference, {}, 0.25) == []  # --no-gray
    partial = _gray_doc()
    del partial["gray"]["modes"]["unhedged-degraded"]
    failures = perf.check_gray_regressions(reference, partial, 0.25)
    assert failures and any("not in this run" in line for line in failures)


def test_cli_gray_only_checks_just_the_gray_section(tmp_path):
    output = tmp_path / "BENCH_gray.json"
    assert perf.main(["--gray-only", "--output", str(output)]) == 0
    document = json.loads(output.read_text())
    assert "gray" in document and "benchmarks" not in document
    # Checked against a reference that also carries timing and traffic
    # sections, only the gray section is compared (the nightly job's gate).
    reference = _gray_doc()
    reference["gray"] = document["gray"]
    reference["benchmarks"] = _doc(1.0, x=1.0)["benchmarks"]
    reference_path = tmp_path / "BENCH_ref.json"
    reference_path.write_text(json.dumps(reference))
    assert perf.main(["--gray-only", "--check", str(reference_path)]) == 0
