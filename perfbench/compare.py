#!/usr/bin/env python3
"""Compare two perfbench results documents (``run.py --output``).

    python3 perfbench/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the ratio B/A (A is
the base), and a verdict against the bound ``BENCHMARK.json`` fixes for the
metric:

``same``        B is within the bound of A (simulated metrics of the same
                seed: bit-identical)
``better``      B beats A by more than the bound (simulated, same seed: at all)
``worse``       B loses to A by more than the bound (simulated, same seed: at all)
``unresolved``  the run-to-run spread of either side (``--repeat`` quartiles) is
                wider than the bound, or ``wall_ms_p95`` rests on fewer than
                200 timed operations — the files cannot settle it

Exit status is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics read off the simulator's own clock and counters over the counted
#: prefix: they repeat bit-for-bit for a seed, so between two documents of
#: the same seed *any* difference is a change in behaviour.
SIMULATED = frozenset({
    "virt_ms_p50", "virt_ms_p95", "wire_bytes_per_op", "messages_per_op",
    "stored_bytes_per_user_byte",
})
MIN_P95_OPS = 200


def spread(metric: dict) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(name: str, spec: dict, a: dict, b: dict, same_seed: bool,
            enough_ops: bool) -> str:
    old, new = a["value"], b["value"]
    gain = (new - old) if spec["better"] == "higher" else (old - new)
    if gain == 0:
        return "same"
    if name in SIMULATED and same_seed:
        return "better" if gain > 0 else "worse"
    bound = spec["bound"]
    if max(spread(a), spread(b)) > bound or (name == "wall_ms_p95" and not enough_ops):
        return "unresolved"
    relative = gain / abs(old) if old else 0.0
    if relative > bound:
        return "better"
    return "worse" if relative < -bound else "same"


def compare(a: dict, b: dict, contract: dict) -> list[tuple]:
    specs = {metric["name"]: metric for metric in contract["end_to_end"]}
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    rows = []
    for workload, left in a["workloads"].items():
        right = b["workloads"].get(workload)
        if right is None:
            continue
        enough_ops = min(left["attempted"], right["attempted"]) >= MIN_P95_OPS
        for name, spec in specs.items():
            if name not in left["metrics"] or name not in right["metrics"]:
                continue
            old, new = left["metrics"][name], right["metrics"][name]
            ratio = new["value"] / old["value"] if old["value"] else float("nan")
            rows.append((
                workload, name, old["value"], new["value"], spec["unit"], ratio,
                verdict(name, spec, old, new, same_seed, enough_ops),
            ))
        if left["failed"] or right["failed"]:
            rows.append((workload, "failed_ops", left["failed"], right["failed"], "count",
                         float("nan"), "worse" if right["failed"] > left["failed"] else "same"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv[1:])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, contract)
    print(f"{'workload':<18}{'metric':<28}{'A':>14}{'B':>14} {'unit':<6}"
          f"{'B/A (base A)':>14}  verdict")
    for workload, name, old, new, unit, ratio, result in rows:
        print(f"{workload:<18}{name:<28}{old:>14.6g}{new:>14.6g} {unit:<6}{ratio:>14.4f}  {result}")
    bad = sum(1 for row in rows if row[-1] in ("worse", "unresolved"))
    print(f"{len(rows)} rows, {bad} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
