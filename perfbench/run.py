#!/usr/bin/env python3
"""perfbench: the repo's referee benchmark.

One workload, as the driver runs it (the last line of stdout is the result)::

    python3 perfbench/run.py --workload tpch_query --seed 3 --seconds 10 --trace 0

Every workload, each in a fresh subprocess, with a table and a results file::

    python3 perfbench/run.py [--seed N] [--repeat N] [--trace 1] [--output FILE]

``--trace 0`` (the default) is the untraced run and prints the end-to-end
metrics; ``--trace 1`` is the separate traced run, prints the per-layer
metrics and writes ``perfbench/out/trace-<workload>.json``.  ``--scale F``
multiplies both the time limit and the 200-operation floor (never data sizes
or node counts); ``--scale 0.05`` is the smoke size.  Metric names, units,
directions and bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(contract: dict, trace: int) -> dict[str, str]:
    section = contract["per_layer"] if trace else contract["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def parse_args(contract: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="time limit of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies --seconds and the 200-op floor")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (all-workloads mode); reports quartiles")
    parser.add_argument("--output", type=Path, help="write the results document here")
    return parser.parse_args()


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_one(args: argparse.Namespace, contract: dict) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order (and with it message order) follows the string
        # hash seed; pin it so the simulated metrics repeat bit-for-bit.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is not here: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    seconds = args.seconds * args.scale
    if args.trace:
        result = harness.measure_traced(workload_cls, args.seed, seconds)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps(result.pop("trace")))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        min_ops = max(1, round(harness.MIN_TIMED_OPS * args.scale))
        result = harness.measure(workload_cls, args.seed, seconds, min_ops)
        if result["attempted"] < harness.MIN_TIMED_OPS:
            print(f"note: {result['attempted']} timed ops < {harness.MIN_TIMED_OPS}: "
                  "wall_ms_p95 has fewer than ten samples beyond it and is not a "
                  "referee number at this --scale", file=sys.stderr)

    metrics = result["metrics"]
    expected = expected_metrics(contract, args.trace)
    emitted = {name: unit for name, (_value, unit) in metrics.items()}
    if emitted != expected:
        odd = sorted(set(emitted.items()) ^ set(expected.items()))
        print(f"error: metrics differ from BENCHMARK.json: {odd}", file=sys.stderr)
        return 2
    print(f"{args.workload}  seed={args.seed}  ops={result['attempted']}  "
          f"failed={result['failed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for problem in result["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, one fresh subprocess each
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args: argparse.Namespace, contract: dict) -> int:
    document = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace, "repeat": args.repeat, "workloads": {},
    }
    status = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        runs = []
        for _ in range(args.repeat):
            # One simulator process at a time: the box has two cores and the
            # second is left to the OS.
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", str(args.scale)],
                env={**os.environ, "PYTHONHASHSEED": "0"},
                stdout=subprocess.PIPE, text=True, check=False,
            )
            if child.returncode:
                status = 1
            lines = child.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"error: {name} printed no result (exit {child.returncode})",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(lines[-1]))
        entry = {
            "correct": all(run["correct"] for run in runs),
            "attempted": min(run["attempted"] for run in runs),
            "failed": max(run["failed"] for run in runs),
            "metrics": {},
        }
        print(f"\n{name}: {workload['why']}")
        print(f"  ops={entry['attempted']}  failed={entry['failed']}  runs={len(runs)}")
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            entry["metrics"][metric] = {
                "value": median, "unit": first["unit"], "q1": q1, "q3": q3, "runs": values,
            }
            spread = f"   [q1 {q1:.6g}  q3 {q3:.6g}]" if len(runs) > 1 else ""
            print(f"  {metric:<40} {median:>16.6g} {first['unit']}{spread}")
        document["workloads"][name] = entry
    if args.output:
        args.output.write_text(json.dumps(document, indent=1) + "\n")
        print(f"\nresults written to {args.output}")
    return status


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
