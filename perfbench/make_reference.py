"""Write perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload at the reference seed four times: twice with the shipped
defaults, once with one BLAS thread (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1)
and once with one sweep thread (COMPLIM_THREADS=1).  The first default run
is the reference.  Each value's absolute tolerance is the larger of
DEVIATION_FACTOR times the largest deviation seen across the four runs and
RTOL_FLOOR times the value's magnitude (SLOPE_FLOOR for fitted slopes).  The
floor admits a reordering of floating-point work, which moves these outputs
by far less than any change to the discretization would.  The worst
energy-ledger entry is roundoff, so it gets a ceiling instead: the larger of
DEVIATION_FACTOR times the largest value seen and LEDGER_FLOOR.  The observed
deviations are stored next to the tolerances.

At n=16 the probe dictionary changes with the BLAS thread count: the kernel
basis is not unique inside degenerate Stokes eigenspaces, so probe_max moves
by up to ~10% between the variants and its tolerance is wide there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as bench
from workloads import REFERENCE_SEED, WORKLOADS

DEVIATION_FACTOR = 10.0
RTOL_FLOOR = 1e-9
SLOPE_FLOOR = 1e-9
LEDGER_FLOOR = 1e-13
VARIANTS = {
    "default": {},
    "default_rerun": {},
    "blas_1_thread": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    "sweep_1_thread": {"COMPLIM_THREADS": "1"},
}


def outputs_under(name: str, extra_env: dict) -> dict:
    run = bench.Run(name, REFERENCE_SEED, reference=None)
    run.env.update(extra_env)
    try:
        run.workload_run(traced=False)
        if run.problems:
            raise SystemExit(f"{name} {extra_env}: {run.problems}")
        return run.outputs
    finally:
        run.close()


def reference_for(name: str) -> dict:
    runs = [outputs_under(name, env) for env in VARIANTS.values()]
    first = runs[0]

    def pair(values: list[float], floor: float) -> list[float]:
        deviation = max(abs(v - values[0]) for v in values)
        return [values[0], max(DEVIATION_FACTOR * deviation, floor), deviation]

    ref: dict = {"seed": REFERENCE_SEED, "variants": list(VARIANTS)}
    if "columns" in first:
        ref["columns"] = {
            col: [
                pair([r["columns"][col][i] for r in runs], RTOL_FLOOR * abs(v))
                for i, v in enumerate(values)
            ]
            for col, values in first["columns"].items()
        }
        ref["slopes"] = {
            fit: pair([r["slopes"][fit] for r in runs], SLOPE_FLOOR) for fit in first["slopes"]
        }
    else:
        ref["values"] = {
            key: pair([r["values"][key] for r in runs], RTOL_FLOOR * abs(v))
            for key, v in first["values"].items()
        }
        ref["nodes"] = first["nodes"]
        ref["worst_ledger"] = max(
            DEVIATION_FACTOR * max(r["worst_ledger"] for r in runs), LEDGER_FLOOR
        )
        ref["worst_ledger_seen"] = [r["worst_ledger"] for r in runs]
        ref["flags"] = first["flags"]
        if any(r["nodes"] != ref["nodes"] or r["flags"] != ref["flags"] for r in runs):
            raise SystemExit(f"{name}: node count or flags differ between variants")
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    path = os.path.join(bench.HERE, "reference.json")
    existing = {}
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    for name in args.workload or sorted(WORKLOADS):
        existing[name] = reference_for(name)
        print(f"{name}: done", file=sys.stderr)
    with open(path, "w") as handle:
        json.dump(existing, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
