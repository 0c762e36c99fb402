"""Command-line surface tying the modules into reproducible experiments.

Subcommands: simulate, simulate-incompressible, decompose, sweep (which
writes sweep.csv, sweep_meta.json and probe_deltas.csv), verify.  Exit
codes: 0 success, 1 configuration error, 2 solver failure, 3 certificate
failure.  Diagnostics go to stderr; result files go to the
configured output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import csvio, presets
from .basis import PressureCoeffs, VelocityCoeffs, build_basis, norms
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
from .inequalities import GridMismatch, ScalarTrajectory, verify_mixed
from .limits import sweep_alpha
from .operators import assemble, leray_project

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATE = 3


def _err(message: str) -> None:
    print(f"complim: {message}", file=sys.stderr)


def _load_config(path: str) -> RunConfig:
    with open(path) as handle:
        return parse_config(handle.read())


def _check_memory(cfg: RunConfig, sweep: bool = False, march: bool = True) -> None:
    """Refuse, before anything is built, a run whose dense arrays exceed physical memory.

    Counts E, B and B's SVD factors, which is all that march=False (decompose)
    builds, and, per Crank-Nicolson system (m = m_u + m_p), its 2 dense m x m
    matrices (the right-hand matrix and the LU factor of the step matrix) and
    its chunk buffers.  A single run also stores its (N+1) m states.  A sweep
    marches its n_alpha rows and the Stokes reference in lockstep and stores
    no states: it counts n_alpha row systems, the chunk buffers of the rows
    and the reference, and each row's (N+1)(probes + 4) series, on the grid
    of its smallest alpha.
    """
    try:
        m_u, m_p = 2.0 * cfg.n_u**2, (cfg.n_p + 1.0) ** 2
        m = m_u + m_p
        alpha = min(cfg.alphas) if sweep else cfg.alpha
        dt = cfg.dt if cfg.dt is not None else default_dt(alpha, cfg.n_u, cfg.T)
        nodes = max(1.0, cfg.T / dt) + 1.0
        chunk = 4.0 * (STEP_CHUNK + 1.0) * m  # states, right-hand sides, loads, residuals
        need = 2.0 * m_u * m_u + m_p * m_p + m_p * m_u
        if sweep:
            rows = len(cfg.alphas)
            need += rows * (2.0 * m * m + chunk + nodes * (cfg.probes + 4.0)) + chunk
        elif march:
            need += 2.0 * m * m + chunk + nodes * m
        need *= 8.0
    except OverflowError:  # a basis size beyond the float range
        need = float("inf")
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InvalidParams(
            f"n_u = {cfg.n_u}, n_p = {cfg.n_p} needs about {need / 2**30:.3g} GiB for its dense "
            f"matrices and stored states, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _initial_data(text: str):
    """A u0 entry as a preset name, a sampled field, or None for zero."""
    return text if text in presets.VELOCITY_PRESETS else realize_vector_field(text)


def _build_params(cfg: RunConfig, operator_set) -> CompressibleParams:
    """The problem a config states, with u0 and p0 as coefficients.

    An empty or absent ``s`` is unset, and the homogeneous problem's momentum
    source s = rho0 f applies; a written zero ``s`` is the zero source.
    ``p0 = compatible_p0`` is the Stokes initial pressure of the problem.
    """
    spec = operator_set.spec
    f = realize_vector_field(cfg.f)
    s = realize_vector_field(cfg.s, cfg.s_time)
    if not cfg.s.strip() and f is not None:
        s = f.scaled(cfg.rho0)
    compatible = cfg.p0 in presets.PRESSURE_PRESETS
    p0 = None if compatible else realize_scalar_field(cfg.p0)  # compatible_p0 needs the problem
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
        u0=VelocityCoeffs(spec, presets.resolve(_initial_data(cfg.u0), operator_set)),
        p0=PressureCoeffs(spec, presets.resolve(p0, operator_set, pressure=True)),
    )
    if compatible:
        params = dataclasses.replace(params, p0=initial_pressure(operator_set, params))
    return params


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_memory(cfg)
    spec = build_basis(cfg.n_u, cfg.n_p)
    operator_set = assemble(spec)
    params = _build_params(cfg, operator_set)
    traj = simulate_compressible(spec, operator_set, params)
    ledger = energy_ledger(operator_set, params, traj)
    out = cfg.directory
    csvio.write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj, ledger.per_step)
    csvio.write_csv(
        os.path.join(out, "ledger.csv"),
        ["t_mid", "per_step", "cumulative", "dissipation", "work"],
        zip(
            ledger.interval_midpoints,
            ledger.per_step,
            ledger.cumulative,
            ledger.dissipation,
            ledger.work,
        ),
    )
    if cfg.dump_coefficients:
        csvio.write_coefficients_csv(os.path.join(out, "coefficients.csv"), traj)
    print(f"wrote {out}/trajectory.csv ({traj.n_steps} steps, dt={traj.dt:.6g})")
    return EXIT_OK


def _cmd_simulate_incompressible(args) -> int:
    cfg = _load_config(args.config)
    _check_memory(cfg)
    spec = build_basis(cfg.n_u, cfg.n_p)
    operator_set = assemble(spec)
    params = _build_params(cfg, operator_set)
    traj = simulate_incompressible(spec, operator_set, nullspace_basis(operator_set), params)
    out = cfg.directory
    csvio.write_incompressible_csv(os.path.join(out, "trajectory.csv"), traj)
    if cfg.dump_coefficients:
        csvio.write_coefficients_csv(os.path.join(out, "coefficients.csv"), traj)
    print(f"wrote {out}/trajectory.csv ({traj.n_steps} steps, dt={traj.dt:.6g})")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    cfg = _load_config(args.config)
    _check_memory(cfg, march=False)
    spec = build_basis(cfg.n_u, cfg.n_p)
    operator_set = assemble(spec)
    source = args.field if args.field is not None else cfg.u0
    coeffs = VelocityCoeffs(spec, presets.resolve(_initial_data(source), operator_set))
    parts = leray_project(operator_set, coeffs)
    out = cfg.directory
    rows = []
    for flat in range(spec.m_u):
        comp, i, j = spec.velocity_mode(flat)
        rows.append(
            [
                str(flat),
                str(comp),
                str(i),
                str(j),
                coeffs.values[flat],
                parts.solenoidal.values[flat],
                parts.gradient.values[flat],
            ]
        )
    csvio.write_csv(
        os.path.join(out, "decompose.csv"),
        ["flat", "component", "i", "j", "input", "solenoidal", "gradient"],
        rows,
    )
    summary = {
        name: norms(operator_set, VelocityCoeffs(spec, vec))
        for name, vec in (
            ("input", coeffs.values),
            ("solenoidal", parts.solenoidal.values),
            ("gradient", parts.gradient.values),
        )
    }
    csvio.write_json(os.path.join(out, "decompose_norms.json"), summary)
    for name, vals in summary.items():
        print(
            f"{name}: l2={vals['l2']:.12g} h01={vals['h01']:.12g} div_l2={vals['div_l2']:.12g}"
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_memory(cfg, sweep=True)
    spec = build_basis(cfg.n_u, cfg.n_p)
    operator_set = assemble(spec)
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
        "x_limit": result.x_limit,
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
    try:
        if args.energy is not None:
            (residual,) = csvio.read_numeric_columns(args.energy, ("energy_residual",))
        else:
            series = [
                ScalarTrajectory(*csvio.read_series_csv(getattr(args, name)), label=name.upper())
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
    if report.conclusions_checked:
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
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a run configuration")
        p.set_defaults(fn=fn)

    p = sub.add_parser("decompose")
    p.add_argument("--config", required=True)
    p.add_argument("--field", help="vector expression 'ex ; ey' (default: the u0 entry)")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify")
    p.add_argument("--energy", help="trajectory CSV whose energy ledger to certify")
    p.add_argument("--tol", type=float, default=1e-6)
    for name in ("i", "j", "a", "b", "c"):
        p.add_argument(f"--{name}", help=f"CSV t,value series for {name.upper()}")
    p.set_defaults(fn=_cmd_verify)
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
            return args.fn(args)
    except (ConfigError, ExpressionError, OSError, EmptyKernel) as exc:
        if isinstance(exc, ConfigError):
            for issue in exc.issues:
                _err(issue)
        else:
            _err(str(exc))
        return EXIT_CONFIG
    except (InvalidParams,) as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except (StepFailure, GridMismatch, ValueError) as exc:
        _err(str(exc))
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
