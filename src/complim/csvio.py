"""CSV and JSON emission. Numbers carry 17 significant digits so files
round-trip doubles exactly; files are written to a temp name and renamed,
so readers never observe partial output; each file gets the mode a plain
open gives under the caller's umask.

A table is a header and its columns, each with one value per node (the
file's data rows, counted from 0); a 2-D array is a block of consecutive
columns.  write_tables writes a command's tables only once every value in
them is finite."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .compressible import stored_states

__all__ = [
    "fmt17",
    "atomic_write_text",
    "write_csv",
    "write_tables",
    "read_csv_columns",
    "read_numeric_columns",
    "write_trajectory_csv",
    "write_incompressible_csv",
    "write_coefficients_csv",
    "trajectory_table",
    "incompressible_table",
    "coefficients_table",
    "sweep_line",
    "write_sweep_csv",
    "write_json",
]

TABLE_SLAB = 64  # rows of a table made Python floats at once, which write_csv formats fastest
TRAJECTORY_HEADER = ["t", "I", "h01_norm", "div_norm", "mass", "energy_residual"]
SWEEP_HEADER = [
    "alpha",
    "err_vel_L2H1",
    "err_vel_LinfL2",
    "err_pres_LinfL2",
    "x_alpha",
    "x_limit",
    "probe_max",
]


def fmt17(x) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # created by open, so it gets the caller's umask (mkstemp's files are 0600)
    tmp = os.path.join(directory, f".tmp_{os.getpid()}_{os.path.basename(path)}.part")
    try:
        with open(tmp, "x", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in map(tuple, rows):
        try:  # fmt17's cells in one format; a string cell refuses it and goes cell by cell
            lines.append(",".join(["%.17g"] * len(row)) % row)
        except TypeError:
            lines.append(",".join(cell if isinstance(cell, str) else fmt17(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _blocks(columns) -> list:
    """A table's columns as 2-D blocks, one row per node."""
    return [np.asarray(column).reshape(len(column), -1) for column in columns]


def _check_finite(path: str, header, columns) -> None:
    """Raise ValueError at the table's first value that is not finite, naming path, column and node.

    First means in reading order: the lowest node, then the leftmost column.
    """
    first = None  # (node, column index, value)
    start = 0
    for block in _blocks(columns):
        bad = np.argwhere(~np.isfinite(block))
        if bad.size and (first is None or bad[0, 0] < first[0]):
            node, k = bad[0]
            first = (node, start + k, block[node, k])
        start += block.shape[1]
    if first is not None:
        node, k, value = first
        raise ValueError(f"{path}: {header[k]} is {fmt17(value)} at node {node}")


def _write_table(path: str, header, columns) -> None:
    blocks = _blocks(columns)
    starts = range(0, len(blocks[0]), TABLE_SLAB)
    slabs = (np.hstack([block[k : k + TABLE_SLAB] for block in blocks]).tolist() for k in starts)
    write_csv(path, header, itertools.chain.from_iterable(slabs))


def write_tables(directory: str, tables: dict) -> None:
    """Write each ``name: (header, columns)`` table as directory/name, or none if a value is not finite.

    Every value of every table is checked (_check_finite) before the first file is written.
    """
    for name, (header, columns) in tables.items():
        _check_finite(os.path.join(directory, name), header, columns)
    for name, (header, columns) in tables.items():
        _write_table(os.path.join(directory, name), header, columns)


def read_csv_columns(path: str) -> dict:
    """Columns by header name: float arrays, or string arrays where a cell is not a number."""
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            data = [line.strip().split(",") for line in handle if line.strip()]
    except UnicodeDecodeError as exc:  # a ValueError whose message names no file
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for k, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {k} has {len(row)} cells, the header {len(header)}")
    columns = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in data]
        try:
            columns[name] = np.array([float(cell) for cell in cells])
        except ValueError:
            columns[name] = np.array(cells)
    return columns


def read_numeric_columns(path: str, names) -> list:
    """The named columns as float arrays; ValueError if one is missing, not numeric or empty."""
    cols = read_csv_columns(path)
    for name in names:
        if name not in cols:
            raise ValueError(f"{path}: no {name} column")
        if cols[name].dtype.kind != "f" or cols[name].size == 0:
            raise ValueError(f"{path}: column {name} has no rows or a cell that is not a number")
    return [cols[name] for name in names]


def _node_residuals(per_step: np.ndarray, n_nodes: int) -> np.ndarray:
    out = np.zeros(n_nodes)
    out[1:] = per_step
    return out


def trajectory_table(traj, per_step_residual) -> tuple:
    res = _node_residuals(np.asarray(per_step_residual), len(traj.times))
    return TRAJECTORY_HEADER, [traj.times, traj.energy, traj.h01, traj.div, traj.mass, res]


def incompressible_table(traj) -> tuple:
    res = _node_residuals(np.asarray(traj.energy_residual), len(traj.times))
    header = [name for name in TRAJECTORY_HEADER if name != "mass"]
    return header, [traj.times, traj.energy, traj.h01, traj.div, res]


def coefficients_table(traj) -> tuple:
    c, q = stored_states(traj)
    header = ["t"] + [f"c_{i}" for i in range(c.shape[1])] + [f"q_{k}" for k in range(q.shape[1])]
    return header, [traj.times, c, q]


def write_trajectory_csv(path: str, traj, per_step_residual) -> None:
    _write_table(path, *trajectory_table(traj, per_step_residual))


def write_incompressible_csv(path: str, traj) -> None:
    _write_table(path, *incompressible_table(traj))


def write_coefficients_csv(path: str, traj) -> None:
    _write_table(path, *coefficients_table(traj))


def sweep_line(row, x_limit: float) -> list:
    """A sweep row's values in sweep.csv, in SWEEP_HEADER order."""
    return [
        row.alpha,
        row.err_vel_l2h1,
        row.err_vel_linf_l2,
        row.err_pres_linf_l2,
        row.x_alpha,
        x_limit,
        row.probe_max,
    ]


def write_sweep_csv(path: str, result) -> None:
    write_csv(path, SWEEP_HEADER, [sweep_line(row, result.x_limit) for row in result.rows])


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
