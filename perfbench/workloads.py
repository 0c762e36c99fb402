"""The benchmark's workloads and the check of their outputs against the reference.

Each workload starts from a shipped config, overrides a few keys and writes
the result into the run's scratch directory.  The workload seed goes into the
config's ``seed`` key (the probe dictionary) and changes nothing else.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

REFERENCE_SEED = 1312
# sweep.csv columns that depend on the seed; checked only at REFERENCE_SEED
SEED_COLUMNS = ("probe_max",)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # child.py mode: "sweep" or "audit"
    base_config: str  # shipped config, relative to the checkout root
    overrides: dict = field(default_factory=dict)  # {section: {key: value}}


WORKLOADS = {
    w.name: w
    for w in (
        # many cheap steps (m = 209, 6 rows of 10,053 steps, one thread per row):
        # bound by per-step Python overhead, node-wise pressure recovery and
        # the thread pool; assemble costs next to nothing here
        Workload("sweep_pressure_n8", "sweep", "configs/pressure_strong.cfg"),
        # few expensive steps (m = 1,777, 3,016 steps) with a body force: bound
        # by assemble, the LU factor and memory-bound matvecs; no thread pool
        Workload("audit_n24", "audit", "configs/simulate.cfg", {"basis": {"n_u": "24", "n_p": "24"}}),
        # the sweep engine again, but each step is a BLAS call that releases the
        # GIL, so row threads compete with OpenBLAS's own threads.  Not listed in
        # BENCHMARK.json: on 2 vCPUs one process swings by about +-20%, so the
        # spread of ten runs (14-17%) sits too close to the largest allowed bound
        # for a regression gate; run it by name or with --all.
        Workload(
            "sweep_velocity_n16",
            "sweep",
            "configs/strong_velocity.cfg",
            {
                "basis": {"n_u": "16", "n_p": "16"},
                "sweep": {"alphas": "1e-1 1e-2 3.1622776601683794e-3"},
            },
        ),
    )
}


def override_config(text: str, overrides: dict) -> str:
    """Replace ``key = value`` lines per section; add keys and sections that are missing."""
    pending = {section: dict(keys) for section, keys in overrides.items()}
    lines: list[str] = []
    section = None

    def flush(name):
        for key, value in pending.pop(name, {}).items():
            lines.append(f"{key} = {value}")

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            flush(section)
            section = line[1:-1].strip().lower()
        elif "=" in line and section in pending:
            key = line.partition("=")[0].strip()
            if key in pending[section]:
                raw = f"{key} = {pending[section].pop(key)}"
        lines.append(raw)
    flush(section)
    for name in list(pending):
        lines += ["", f"[{name}]"]
        flush(name)
    return "\n".join(lines) + "\n"


def config_text(root: str, workload: Workload, seed: int, out_dir: str) -> str:
    with open(os.path.join(root, workload.base_config)) as handle:
        text = handle.read()
    overrides = {section: dict(keys) for section, keys in workload.overrides.items()}
    overrides.setdefault("sweep", {})["seed"] = str(seed)
    overrides.setdefault("output", {})["directory"] = out_dir
    return override_config(text, overrides)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def read_columns(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def sweep_outputs(out_dir: str) -> dict:
    """The checked values of one sweep: sweep.csv columns and fitted slopes."""
    with open(os.path.join(out_dir, "sweep_meta.json")) as handle:
        meta = json.load(handle)
    return {
        "columns": read_columns(os.path.join(out_dir, "sweep.csv")),
        "slopes": {name: fit["slope"] for name, fit in meta["fits"].items()},
        "row_errors": meta["row_errors"],
    }


def audit_outputs(out_dir: str, summary: dict) -> dict:
    """The checked values of one audited run, read back from its CSV files."""
    trajectory = read_columns(os.path.join(out_dir, "trajectory.csv"))
    ledger = read_columns(os.path.join(out_dir, "ledger.csv"))
    incompressible = read_columns(os.path.join(out_dir, "incompressible.csv"))
    return {
        "values": {
            "final_energy": trajectory["I"][-1],
            "final_mass": trajectory["mass"][-1],
            "incompressible_final_energy": incompressible["I"][-1],
        },
        "nodes": len(trajectory["t"]),
        "worst_ledger": max(abs(v) for v in ledger["per_step"]),
        "flags": summary["flags"],
    }


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def check(outputs: dict, reference: dict, seed: int) -> list[str]:
    """Differences between one run's outputs and the stored reference, as messages.

    Every reference value is stored as ``[value, absolute tolerance, observed
    deviation]``; the worst energy-ledger entry has a ceiling instead.
    """
    problems = []
    if outputs.get("row_errors"):
        problems.append(f"failed sweep rows: {outputs['row_errors']}")
    for name, pairs in reference.get("columns", {}).items():
        if name in SEED_COLUMNS and seed != REFERENCE_SEED:
            continue
        got = outputs["columns"].get(name)
        if got is None or len(got) != len(pairs):
            problems.append(f"sweep.csv column {name}: expected {len(pairs)} values, got {got}")
            continue
        for row, (value, (want, tol, *_)) in enumerate(zip(got, pairs)):
            if not _close(value, want, tol):
                problems.append(f"sweep.csv {name}[{row}] = {value!r}, reference {want!r} +- {tol:.3g}")
    for group in ("slopes", "values"):
        for name, (want, tol, *_) in reference.get(group, {}).items():
            value = outputs[group].get(name, math.nan)
            if not _close(value, want, tol):
                problems.append(f"{name} = {value!r}, reference {want!r} +- {tol:.3g}")
    if "nodes" in reference and outputs["nodes"] != reference["nodes"]:
        problems.append(f"trajectory.csv has {outputs['nodes']} nodes, reference {reference['nodes']}")
    if "worst_ledger" in reference and not outputs["worst_ledger"] <= reference["worst_ledger"]:
        problems.append(
            f"worst energy-ledger entry {outputs['worst_ledger']!r} above {reference['worst_ledger']!r}"
        )
    if "flags" in reference and outputs["flags"] != reference["flags"]:
        problems.append(f"a-priori flags {outputs['flags']}, reference {reference['flags']}")
    return problems
