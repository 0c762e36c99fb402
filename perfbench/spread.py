"""Run the benchmark several times per workload and report the spread of each metric.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--first-seed 1]
                                [--baseline perfbench/baseline.json]

Each run is ``perfbench/run.py --workload NAME --seed S --seconds <run_seconds>
--trace 0`` with its own seed.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
their distance as a share of the median, next to a third of the metric's
bound.  ``--baseline`` writes these figures to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    elapsed = time.perf_counter() - start
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    report = {"run_seconds": manifest["run_seconds"], "runs": args.runs, "workloads": {}}
    all_steady = True
    for name in names:
        results, elapsed = [], []
        for k in range(args.runs):
            result, took = one_run(name, args.first_seed + k, manifest["run_seconds"])
            results.append(result)
            elapsed.append(took)
            print(f"{name} seed {args.first_seed + k}: {took:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
        figures = {}
        for spec in manifest["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < spec["bound"] / 3 or spec["name"] == "setup_s"
            all_steady &= steady
            figures[spec["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": spec["unit"], "values": values,
            }
            print(f"  {spec['name']:<12} median {median:.5g} {spec['unit']:<6} spread {spread:.4f}"
                  f"  (a third of the bound: {spec['bound'] / 3:.4f}){'' if steady else '  NOT STEADY'}")
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "seconds_per_run": {"median": statistics.median(elapsed), "max": max(elapsed)},
            "metrics": figures,
        }
        print(f"  seconds per run: median {statistics.median(elapsed):.1f}, max {max(elapsed):.1f}")
    if args.baseline:
        with open(args.baseline, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
