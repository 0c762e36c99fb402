"""One benchmark process: set-up only, or one workload run, optionally traced.

    python3 perfbench/child.py setup --config CFG
    python3 perfbench/child.py sweep --config CFG --summary OUT.json [--spans SPANS.json]
    python3 perfbench/child.py audit --config CFG --summary OUT.json [--spans SPANS.json]

It imports complim from the ``src`` directory next to ``perfbench`` and
refuses to run against any other copy.  ``sweep`` is the ``complim sweep``
command through ``complim.cli.run_cli``.  ``audit`` is an audited single run
through the library: simulate_compressible, energy_ledger, apriori_check,
simulate_incompressible and the CSV writes.  The summary holds the values the
parent checks and the BLAS threads this process actually used.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXIT_WRONG_TREE = 4


def _import_complim():
    sys.path.insert(0, SRC)
    import complim

    if not os.path.abspath(complim.__file__).startswith(SRC + os.sep):
        print(f"complim imported from {complim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_WRONG_TREE)
    return complim


def blas_info() -> list[dict]:
    """OpenBLAS builds loaded in this process, with the thread count each uses."""
    found = []
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                found.append(
                    {
                        "library": os.path.basename(path),
                        "config": config().decode(errors="replace").strip(),
                        "threads": threads(),
                    }
                )
                break
    return found


# ---------------------------------------------------------------------------
# trace patch points: (module, attribute, span name, hook)
# ---------------------------------------------------------------------------


def _on_trajectory(tracer, args, kwargs, traj):
    tracer.observe("compressible.trajectory", [traj.n_steps, traj.spec.m_u + traj.spec.m_p])


def _on_sweep(tracer, args, kwargs, result):
    tracer.observe("limits.rows", [len(result.rows), sum(r.failed for r in result.rows)])


def _on_write(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.observe("csvio.bytes", len(text.encode()))


def _patches():
    def at(name, modules, attr, hook=None):
        return [(module, attr, name, hook) for module in modules]

    return (
        at("config.parse_config", ["complim.cli", "complim.config"], "parse_config")
        + at("operators.assemble", ["complim.cli", "complim.limits", "complim.operators"], "assemble")
        + at("operators.coupling_matrix", ["complim.compressible", "complim.operators"], "coupling_matrix")
        + at("operators.grad_inverse", ["complim.incompressible", "complim.operators"], "grad_inverse")
        + at(
            "compressible.simulate",
            ["complim.cli", "complim.limits", "complim.compressible"],
            "simulate_compressible",
            _on_trajectory,
        )
        + at("compressible.energy_ledger", ["complim.cli", "complim.compressible"], "energy_ledger")
        + at("compressible.apriori_check", ["complim.compressible"], "apriori_check")
        + at(
            "inequalities.verify_mixed",
            ["complim.cli", "complim.compressible", "complim.inequalities"],
            "verify_mixed",
        )
        + at(
            "incompressible.simulate",
            ["complim.cli", "complim.limits", "complim.incompressible"],
            "simulate_incompressible",
        )
        + at("limits.sweep", ["complim.cli", "complim.limits"], "sweep_alpha", _on_sweep)
        + at("limits.x_alpha", ["complim.limits"], "x_alpha")
        + at("limits.weak_probe", ["complim.limits"], "weak_probe")
        + [
            ("complim.csvio", attr, "csvio.write", None)
            for attr in (
                "write_csv",
                "write_trajectory_csv",
                "write_incompressible_csv",
                "write_coefficients_csv",
                "write_sweep_csv",
                "write_json",
            )
        ]
        + at("csvio.atomic_write", ["complim.csvio"], "atomic_write_text", _on_write)
        + at("scipy.lu_factor", ["scipy.linalg"], "lu_factor")
        + at("scipy.lu_solve", ["scipy.linalg"], "lu_solve")
    )


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _setup(config_path: str) -> int:
    complim = _import_complim()
    with open(config_path) as handle:
        cfg = complim.parse_config(handle.read())
    operator_set = complim.assemble(complim.build_basis(cfg.n_u, cfg.n_p))
    complim.nullspace_basis(operator_set)
    return 0


def _sweep(config_path: str) -> tuple[int, dict]:
    from complim.cli import run_cli

    return run_cli(["sweep", "--config", config_path]), {}


def _audit(config_path: str) -> tuple[int, dict]:
    import dataclasses

    import numpy as np

    import complim
    from complim import csvio
    from complim.config import realize_scalar_field, realize_vector_field

    with open(config_path) as handle:
        cfg = complim.config.parse_config(handle.read())
    spec = complim.build_basis(cfg.n_u, cfg.n_p)
    operator_set = complim.operators.assemble(spec)
    f = realize_vector_field(cfg.f)
    s = realize_vector_field(cfg.s, cfg.s_time)
    if s is None and f is not None:
        # the homogeneous problem's momentum source is rho0 * f, as in `complim simulate`
        s = dataclasses.replace(
            f, spatial=lambda x, y, _f=f.spatial: cfg.rho0 * np.asarray(_f(x, y))
        )
    params = complim.CompressibleParams(
        rho0=cfg.rho0,
        mu=cfg.mu,
        eta=cfg.eta,
        alpha=cfg.alpha,
        T=cfg.T,
        dt=cfg.dt,
        f=f,
        sigma=realize_scalar_field(cfg.sigma, cfg.sigma_time),
        s=s,
        u0=realize_vector_field(cfg.u0),
        p0=realize_scalar_field(cfg.p0),
    )
    compressible = complim.compressible
    traj = compressible.simulate_compressible(spec, operator_set, params)
    ledger = compressible.energy_ledger(operator_set, params, traj)
    report = compressible.apriori_check(operator_set, params, traj)
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
    incompressible = complim.incompressible
    reference = incompressible.simulate_incompressible(
        spec, operator_set, incompressible.nullspace_basis(operator_set), params
    )
    csvio.write_incompressible_csv(os.path.join(out, "incompressible.csv"), reference)
    flags = {
        "est1_ok": report.est1_ok,
        "est2_ok": report.est2_ok,
        "certificate_ok": report.certificate.ok,
        "ok": report.ok,
    }
    return 0, {"flags": flags}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep", "audit"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--summary")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return _setup(args.config)

    _import_complim()
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(_patches())
    run = _sweep if args.mode == "sweep" else _audit
    code, summary = run(args.config)
    if tracer is not None:
        tracer.dump(args.spans)
    summary["exit"] = code
    summary["blas"] = blas_info()
    with open(args.summary, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
