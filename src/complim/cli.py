"""Command-line surface tying the modules into reproducible experiments.

Subcommands: simulate, simulate-incompressible, decompose, sweep (which
writes sweep.csv, sweep_meta.json and probe_deltas.csv), verify.  Exit
codes: 0 success, 1 configuration error, 2 solver failure, 3 certificate
failure.  Diagnostics go to stderr; result files go to the
configured output directory.

run_cli sets up every command but verify (which reads no config) in one place: it loads the
config, takes its basis, runs the memory pre-flight, pins BLAS for a sweep or a system below
ONE_BLAS_THREAD_BELOW unknowns and assembles the basis's operators, which a _cmd_* function takes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import csvio, presets
from .basis import PressureCoeffs, VelocityCoeffs, build_basis, coefficients_of, norms
from .blas import one_blas_thread
from .compressible import (
    STEP_CHUNK,
    CompressibleParams,
    InvalidParams,
    StepFailure,
    default_dt,
    energy_ledger,
    simulate_compressible,
)
from .config import (
    ConfigError,
    ExpressionError,
    RunConfig,
    parse_config,
    realize_scalar_field,
    realize_vector_field,
)
from .incompressible import EmptyKernel, initial_pressure, nullspace_basis, simulate_incompressible
from .inequalities import ScalarTrajectory, verify_mixed
from .limits import sweep_alpha, sweep_workers
from .operators import assemble, leray_project

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATE = 3

# A command whose step systems have fewer unknowns than this (m = m_u + m_p) runs numpy's
# OpenBLAS, complim's only BLAS, on one thread.  Below it the per-step products are too small
# to split, and the workers that the few per-chunk products wake spin through the steps that
# follow.  simulate on simulate.cfg's physics at OPENBLAS_NUM_THREADS=2 (2 vCPUs, whole
# process, medians of 7 alternating runs a side) took 0.42, 0.50 and 0.76 s CPU pinned against
# 0.50, 0.67 and 1.04 s unpinned at n_u = n_p = 8, 12 and 15, in no more wall time (0.29, 0.36
# and 0.62 s against 0.30, 0.40 and 0.65 s).  From m = 801 (n = 16) an unpinned run steps its
# two blocks on threads of their own and ends sooner: 0.78 s against 0.88 s at n = 16, 1.49 s
# against 2.13 s at n = 20 (5 runs a side).  The outputs were byte-identical either way.
# `sweep` runs on one thread at every size: its rows march in worker processes that pin
# themselves, and the few products left in the calling process (the operators, Z,
# compatible_p0) cost the same on one thread up to n = 24 (assemble: 0.42-0.46 s either way), not
# at n = 32 (1.91-2.31 s on one thread against 1.45-1.92 s on two, two sessions of 3 runs each).
ONE_BLAS_THREAD_BELOW = 801

# Peak memory of writing a CSV file, per value in it: csvio holds the row strings, the
# joined text and the final text at once.  Writing the 2.1 million values (23.1 B of text
# each) of simulate.cfg's coefficients.csv at dt = 1e-4 raised peak RSS by 69 B per value
# beyond its 16.7 MB of stored states; 80 B covers the widest cells (25 B) at that ratio.
CSV_BYTES_PER_VALUE = 80


def _err(message: str) -> None:
    print(f"complim: {message}", file=sys.stderr)


def _check_memory(cfg: RunConfig, command: str) -> float:
    """Refuse, before anything is built, a run whose dense arrays exceed physical memory,
    and return the estimate in bytes.

    A command peaks at the larger of its set-up and its march, on top of what stays resident
    through both: B, B's kept SVD factors and Z (b_vt r m_u values, Z m_V m_u, r + m_V = m_u),
    the m_u x m_u vt of assemble's full SVD of B[1:] (freed, but the allocator keeps its
    pages), and 2^19 values (4 MiB) that the first LAPACK calls and lazily imported modules
    keep (a command grows RSS by 2.9-3.4 MB at n = 2).  The set-up adds the rest of assemble's
    transient: the SVD's u (m_p^2) and LAPACK's copies of B[1:] and vt with its workspace
    (m_p m_u + m_u^2 + 5 m_p^2).  Against assemble's RSS growth at n = 16, 24, 32 and 40
    (15.4, 67.3, 196 and 463 MB) the set-up counts 17.5, 69.4, 207 and 494 MB; it is all
    that decompose builds, for it reads E through its tables.  The march adds, per
    Crank-Nicolson system (m = m_u + m_p), at most 2 dense m x m matrices (the right-hand
    matrices and LU factors of its blocks) and its chunk buffers, 2 for a constant load
    and 3 for a time-dependent one.  A single run holds the 9 series of its Trajectory,
    (N+1) values each, and stores its (N+1) m states only to write coefficients.csv
    (dump_coefficients).  A sweep stores no states: its n_alpha rows march in
    sweep_workers(n_alpha) worker processes, each in lockstep with its own Stokes
    reference.  It counts n_alpha row systems with their chunk buffers and each row's
    (N+1)(probes + 4) series, on the grid of its smallest alpha, and per worker one
    reference: its pressure map (m_u m_p at most, built in chunks) and 6 chunk-sized
    arrays of width m_u (1.9-5.1 measured in all at n = 8, 16 and 24, a time-dependent
    load's third buffer included; from n = 16 on the map's build is the peak).
    simulate-incompressible counts one such reference (its reductions go a slab at a time),
    its 4 series and, with dump_coefficients, its stored y, q and the c = Z y that
    coefficients.csv is written from.  Both phases count the text
    of the largest CSV file the command writes, at CSV_BYTES_PER_VALUE: coefficients.csv
    ((N+1)(m+1) values) or trajectory.csv (6 (N+1)) for a single run, probe_deltas.csv for
    a sweep, decompose.csv (7 m_u) for decompose.
    """
    spec = build_basis(cfg.n_u, cfg.n_p)
    try:
        m_u, m_p = float(spec.m_u), float(spec.m_p)
        m = m_u + m_p
        alpha = min(cfg.alphas) if command == "sweep" else cfg.alpha
        dt = cfg.dt if cfg.dt is not None else default_dt(alpha, cfg.n_u, cfg.T)
        nodes = max(1.0, cfg.T / dt) + 1.0
        chunk = (2.0 + bool(cfg.s_time or cfg.sigma_time)) * (STEP_CHUNK + 1.0) * m  # states, rhs, w
        reference = _reference_values(m_u, m_p)
        if command == "sweep":
            rows = len(cfg.alphas)
            march = rows * (2.0 * m * m + chunk + nodes * (cfg.probes + 4.0))
            march += sweep_workers(rows) * reference
            csv = rows * cfg.probes * 4.0
        elif command == "decompose":
            march, csv = 0.0, 7.0 * m_u
        else:
            stored = (2.0 * m_u + m_p) * cfg.dump_coefficients  # y, q and c = Z y, m_V <= m_u
            if command == "simulate-incompressible":  # builds no step matrix
                march = reference + nodes * (4.0 + stored)
            else:
                march = 2.0 * m * m + chunk + nodes * (9.0 + m * cfg.dump_coefficients)
            csv = nodes * (m + 1.0 if cfg.dump_coefficients else 6.0)
        kept = 2.0 * m_u * m_u + m_p * m_p + m_p * m_u + 2.0**19
        setup = m_p * m_p + (m_p * m_u + m_u * m_u + 5.0 * m_p * m_p)  # u; LAPACK's copies, workspace
        need = 8.0 * (kept + max(setup, march)) + CSV_BYTES_PER_VALUE * csv
    except OverflowError:  # a basis size beyond the float range
        need = float("inf")
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InvalidParams(
            f"n_u = {cfg.n_u}, n_p = {cfg.n_p} needs about {need / 2**30:.3g} GiB for its dense "
            f"matrices, stored states and CSV text, more than the {have / 2**30:.3g} GiB of "
            "physical memory"
        )
    return need


def _reference_values(m_u: float, m_p: float) -> float:
    """The values one Stokes reference holds at its peak beyond the operators (_check_memory)."""
    return 6.0 * (STEP_CHUNK + 1.0) * m_u + m_u * m_p


def _velocity(text: str, operator_set) -> VelocityCoeffs:
    """A u0 entry as coefficients: a preset by name, else its projected field (zeros for a zero)."""
    if text in presets.VELOCITY_PRESETS:
        return presets.velocity_preset(text, operator_set)
    spec = operator_set.spec
    return VelocityCoeffs(spec, coefficients_of(spec, realize_vector_field(text)))


def _build_params(cfg: RunConfig, operator_set) -> CompressibleParams:
    """The problem a config states, with u0 (read by _velocity) and p0 as coefficients.

    ``p0 = compatible_p0`` is the Stokes initial pressure of the problem.  An
    empty or absent ``s`` is unset, and the homogeneous problem's momentum
    source s = rho0 f applies; a written zero ``s`` is the zero source.
    """
    spec = operator_set.spec
    f = realize_vector_field(cfg.f)
    s = realize_vector_field(cfg.s, cfg.s_time)
    if not cfg.s.strip() and f is not None:
        s = f.scaled(cfg.rho0)
    params = CompressibleParams(
        rho0=cfg.rho0,
        mu=cfg.mu,
        eta=cfg.eta,
        alpha=cfg.alpha,
        T=cfg.T,
        dt=cfg.dt,
        f=f,
        sigma=realize_scalar_field(cfg.sigma, cfg.sigma_time),
        s=s,
        u0=_velocity(cfg.u0, operator_set),
    )
    if cfg.p0 == "compatible_p0":  # initial_pressure reads no p0
        return dataclasses.replace(params, p0=initial_pressure(operator_set, params))
    p0 = coefficients_of(spec, realize_scalar_field(cfg.p0), pressure=True)
    return dataclasses.replace(params, p0=PressureCoeffs(spec, p0))


def _cmd_simulate(cfg: RunConfig, operator_set, args) -> int:
    params = _build_params(cfg, operator_set)
    traj = simulate_compressible(operator_set.spec, operator_set, params, store_states=cfg.dump_coefficients)
    ledger = energy_ledger(operator_set, params, traj)
    ledger_header = ["t_mid", "per_step", "cumulative", "dissipation", "work"]
    ledger_columns = [ledger.interval_midpoints, ledger.per_step, ledger.cumulative]
    ledger_columns += [ledger.dissipation, ledger.work]
    tables = {
        "trajectory.csv": csvio.trajectory_table(traj, ledger.per_step),
        "ledger.csv": (ledger_header, ledger_columns),
    }
    if cfg.dump_coefficients:
        tables["coefficients.csv"] = csvio.coefficients_table(traj)
    out = cfg.directory
    csvio.write_tables(out, tables)
    print(f"wrote {out}/trajectory.csv ({traj.n_steps} steps, dt={traj.dt:.6g})")
    return EXIT_OK


def _cmd_simulate_incompressible(cfg: RunConfig, operator_set, args) -> int:
    params = _build_params(cfg, operator_set)
    kernel = nullspace_basis(operator_set)
    traj = simulate_incompressible(
        operator_set.spec, operator_set, kernel, params, store_states=cfg.dump_coefficients
    )
    tables = {"trajectory.csv": csvio.incompressible_table(traj)}
    if cfg.dump_coefficients:
        tables["coefficients.csv"] = csvio.coefficients_table(traj)
    out = cfg.directory
    csvio.write_tables(out, tables)
    print(f"wrote {out}/trajectory.csv ({traj.n_steps} steps, dt={traj.dt:.6g})")
    return EXIT_OK


def _cmd_decompose(cfg: RunConfig, operator_set, args) -> int:
    spec = operator_set.spec
    coeffs = _velocity(args.field if args.field is not None else cfg.u0, operator_set)
    parts = leray_project(operator_set, coeffs)
    summary = {
        name: norms(operator_set, VelocityCoeffs(spec, vec))
        for name, vec in (
            ("input", coeffs.values),
            ("solenoidal", parts.solenoidal.values),
            ("gradient", parts.gradient.values),
        )
    }
    out = cfg.directory
    norms_path = os.path.join(out, "decompose_norms.json")
    for name, vals in summary.items():  # checked, like decompose.csv, before either is written
        for key, value in vals.items():
            if not np.isfinite(value):
                raise ValueError(f"{norms_path}: {name} {key} is {csvio.fmt17(value)}")
    modes = [spec.velocity_mode(flat) for flat in range(spec.m_u)]
    columns = [np.arange(spec.m_u), np.array(modes), coeffs.values]
    columns += [parts.solenoidal.values, parts.gradient.values]
    header = ["flat", "component", "i", "j", "input", "solenoidal", "gradient"]
    csvio.write_tables(out, {"decompose.csv": (header, columns)})
    csvio.write_json(norms_path, summary)
    for name, vals in summary.items():
        print(f"{name}: l2={vals['l2']:.12g} h01={vals['h01']:.12g} div_l2={vals['div_l2']:.12g}")
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, operator_set, args) -> int:
    params = _build_params(cfg, operator_set)
    result = sweep_alpha(operator_set, params, cfg.alphas, probes=cfg.probes, seed=cfg.seed)
    meta = {
        "config": {
            f.name: (list(getattr(cfg, f.name)) if f.name == "alphas" else getattr(cfg, f.name))
            for f in dataclasses.fields(cfg)
        },
        "seed": result.seed,
        "dt": result.params.dt,
        "n_u": cfg.n_u,
        "n_p": cfg.n_p,
        "x_limit": result.x_limit if np.isfinite(result.x_limit) else None,  # JSON has no NaN
        "probe_labels": result.probe_labels,
        "fits": {
            name: {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual}
            for name, fit in result.fits.items()
        },
        "row_errors": {csvio.fmt17(r.alpha): r.error for r in result.rows if r.failed},
    }
    out = cfg.directory
    csvio.write_sweep_csv(os.path.join(out, "sweep.csv"), result)
    csvio.write_json(os.path.join(out, "sweep_meta.json"), meta)
    csvio.write_csv(
        os.path.join(out, "probe_deltas.csv"),
        ["alpha", "probe", "label", "delta"],
        (
            [row.alpha, str(k), result.probe_labels[k], delta]
            for row in result.rows
            for k, delta in enumerate(row.probe_deltas)
        ),
    )
    print(f"wrote {out}/sweep.csv ({len(result.rows)} rows, dt={result.params.dt:.6g})")
    failed = [r for r in result.rows if r.failed]
    if failed:  # one stderr line; sweep_meta.json's row_errors holds every row's error
        _err(
            f"{len(failed)} of {len(result.rows)} rows failed; first alpha={failed[0].alpha:g}: "
            f"{failed[0].error}"
        )
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = ("i", "j", "a", "b", "c")
    if args.energy is None and any(getattr(args, name) is None for name in names):
        _err("verify needs either --energy or all of --i --j --a --b --c")
        return EXIT_CONFIG
    if args.energy is not None and not 0 <= args.tol < np.inf:  # NaN fails too; inf passes any ledger
        _err(f"--tol must be finite and >= 0, got {args.tol}")
        return EXIT_CONFIG
    try:
        if args.energy is not None:
            (residual,) = csvio.read_numeric_columns(args.energy, ("energy_residual",))
        else:
            series = [
                ScalarTrajectory(
                    *csvio.read_numeric_columns(getattr(args, name), ("t", "value")), label=name.upper()
                )
                for name in names
            ]
            report = verify_mixed(*series)
    except ValueError as exc:  # a malformed input file, or series on different time grids
        _err(str(exc))
        return EXIT_CONFIG
    if args.energy is not None:
        # a ledger that overflows, or holds inf and -inf, sums to inf or nan and fails the check
        total = float(np.sum(residual))
        worst = float(np.abs(residual).max())
        print(f"cumulative residual {total:.3e}, worst step {worst:.3e}, tol {args.tol:.1e}")
        # per-step residuals of opposite sign cancel in the sum, so the worst step is gated too
        return EXIT_OK if abs(total) <= args.tol and worst <= args.tol else EXIT_CERTIFICATE
    print(
        f"hypothesis: {'ok' if report.hypothesis_ok else 'VIOLATED'} "
        f"(margin {report.hypothesis_margin:.3e}, tol {report.hypothesis_tol:.3e})"
    )
    if report.hypothesis_ok:
        print(f"|J|_L2 = {report.j_l2:.6g} <= {report.j_l2_bound:.6g} (margin {report.j_l2_margin:.3e})")
        print(f"|I|_inf = {report.i_inf:.6g} <= {report.i_inf_bound:.6g} (margin {report.i_inf_margin:.3e})")
    return EXIT_OK if report.ok else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complim",
        description="spectral Galerkin experiments for the low-compressibility limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("simulate", _cmd_simulate),
        ("simulate-incompressible", _cmd_simulate_incompressible),
        ("sweep", _cmd_sweep),
        ("decompose", _cmd_decompose),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a run configuration")
        p.set_defaults(fn=fn)
        if name == "decompose":
            p.add_argument("--field", help="vector expression 'ex ; ey' (default: the u0 entry)")

    p = sub.add_parser("verify")
    p.add_argument("--energy", help="trajectory CSV whose energy ledger to certify")
    p.add_argument("--tol", type=float, default=1e-6)
    for name in ("i", "j", "a", "b", "c"):
        p.add_argument(f"--{name}", help=f"CSV t,value series for {name.upper()}")
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        # non-finite values are reported by the step-residual gates and the
        # certificates, each in one line, so numpy's warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "verify":  # reads no config
                return _cmd_verify(args)
            try:
                with open(args.config, encoding="utf-8") as handle:
                    cfg = parse_config(handle.read())
            except UnicodeDecodeError as exc:  # a ValueError whose message names no file
                raise ConfigError([f"{args.config}: not UTF-8 text ({exc.reason})"]) from None
            spec = build_basis(cfg.n_u, cfg.n_p)  # two integers: its arrays are built on first read
            _check_memory(cfg, args.command)
            with one_blas_thread(args.command == "sweep" or spec.m_u + spec.m_p < ONE_BLAS_THREAD_BELOW):
                return args.fn(cfg, assemble(spec), args)
    except (ConfigError, ExpressionError, OSError, EmptyKernel, InvalidParams) as exc:
        for issue in exc.issues if isinstance(exc, ConfigError) else [str(exc)]:
            _err(issue)
        return EXIT_CONFIG
    except (StepFailure, ValueError) as exc:
        _err(str(exc))
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
