"""Smoke test of the benchmark itself, at ``--scale 0.05`` (about two minutes).

Run with ``python -m pytest perfbench -q``; it is not part of the tier-1
``testpaths``.  It checks the contract between ``run.py`` and
``BENCHMARK.json`` (every named metric is emitted, by every workload, with the
declared unit), that the simulated metrics are a function of the seed alone,
and that ``compare.py`` calls a document the same as itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run_suite(tmp_path_factory, seed: int, trace: int) -> dict:
    output = tmp_path_factory.mktemp("perfbench") / f"seed{seed}-trace{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05", "--seed", str(seed),
         "--trace", str(trace), "--output", str(output)],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600,
    )
    return json.loads(output.read_text())


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    return run_suite(tmp_path_factory, 0, 0)


@pytest.fixture(scope="module")
def seed0_again(tmp_path_factory):
    return run_suite(tmp_path_factory, 0, 0)


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    return run_suite(tmp_path_factory, 1, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_suite(tmp_path_factory, 0, 1)


def test_contract_names_are_well_formed():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("section, fixture", [("end_to_end", "seed0"), ("per_layer", "traced")])
def test_every_workload_emits_every_named_metric(section, fixture, request):
    document = request.getfixturevalue(fixture)
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
    assert set(document["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}
    for name, entry in document["workloads"].items():
        emitted = {metric: value["unit"] for metric, value in entry["metrics"].items()}
        assert emitted == expected, name
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1, name


def test_end_to_end_metrics_are_never_zero(seed0):
    for name, entry in seed0["workloads"].items():
        for metric, value in entry["metrics"].items():
            assert value["value"] > 0, (name, metric)


def test_opt_in_layers_read_zero_unless_switched_on(traced):
    for name, entry in traced["workloads"].items():
        busy = {
            metric for metric, value in entry["metrics"].items()
            if metric.split(".")[0] in ("cache", "obs", "resilience", "integrity")
            and value["value"]
        }
        if name == "mixed_layers_on":
            assert {"cache.self_ms_per_op", "obs.self_ms_per_op",
                    "resilience.self_ms_per_op", "integrity.self_ms_per_op"} <= busy
        else:
            assert not busy, name
        cdss = entry["metrics"]["cdss.self_ms_per_op"]["value"]
        assert (cdss > 0) == (name == "cdss_exchange"), name


def test_simulated_metrics_depend_on_the_seed_alone(seed0, seed0_again, seed1):
    for name, entry in seed0["workloads"].items():
        for metric in compare.SIMULATED:
            value = entry["metrics"][metric]["value"]
            assert value == seed0_again["workloads"][name]["metrics"][metric]["value"], (
                name, metric)
        assert any(
            entry["metrics"][metric]["value"] != seed1["workloads"][name]["metrics"][metric]["value"]
            for metric in compare.SIMULATED
        ), name


def test_compare_calls_a_document_the_same_as_itself(seed0):
    rows = compare.compare(seed0, seed0, CONTRACT)
    assert len(rows) == len(CONTRACT["workloads"]) * len(CONTRACT["end_to_end"])
    assert {row[-1] for row in rows} == {"same"}
