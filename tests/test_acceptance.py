"""Acceptance suite: every criterion as a test that prints one pass/fail line.

Desk scale throughout: n_u = n_p = 8, T = 1, rho0 = 1, eta in {0, 0.5}.
Criteria 1-7 and 10 run at mu = 1 on the default alpha grid; the rate
criteria 8 and 9 state mu = 0.25 and sweep the geometric grid
10^-1.5 .. 10^-4, which keeps every participating acoustic mode in the
underdamped regime where the half-order rate is visible (the default grid's
top decade sits in the damping crossover and flattens the fit).
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import complim as cl
from complim.cli import run_cli
from complim.config import realize_scalar_field
from complim.csvio import read_csv_columns
from complim.presets import velocity_preset

from test_blas_threads import run_command
from test_compressible import exp_reference
from test_inequalities import equality_case_instance

SEED = 1312
RATE_ALPHAS = tuple(10.0**e for e in (-1.5, -2.0, -2.5, -3.0, -3.5, -4.0))
GENERIC_P0 = "0.1 + 0.4*cos(pi*x) + 0.3*cos(pi*y)"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def desk():
    spec = cl.build_basis(8, 8)
    ops = cl.assemble(spec)
    return spec, ops, cl.nullspace_basis(ops)


def desk_problem(ops, u0, **physics):
    """CompressibleParams of a desk-scale sweep started from the u0 preset."""
    return cl.CompressibleParams(u0=velocity_preset(u0, ops), **physics)


@pytest.fixture(scope="module")
def dichotomy_sweeps(desk):
    _, ops, _ = desk
    out = {}
    for preset in ("gradient_u0", "solenoidal_u0", "mixed_u0"):
        params = desk_problem(ops, preset)
        out[preset] = cl.sweep_alpha(ops, params, seed=SEED)
    return out


@pytest.fixture(scope="module")
def pressure_weak_sweep(desk):
    _, ops, _ = desk
    params = desk_problem(ops, "solenoidal_u0", mu=0.25, p0=realize_scalar_field(GENERIC_P0))
    return cl.sweep_alpha(ops, params, RATE_ALPHAS, seed=SEED)


@pytest.fixture(scope="module")
def pressure_strong_sweep(desk):
    _, ops, _ = desk
    params = desk_problem(ops, "solenoidal_u0", mu=0.25)
    p0 = cl.initial_pressure(ops, params)
    return cl.sweep_alpha(ops, replace(params, p0=p0), RATE_ALPHAS, seed=SEED)


def test_criterion_01_operator_identities(desk):
    spec, ops, kernel = desk
    rng = np.random.default_rng(SEED)
    checks = []

    c = rng.standard_normal(spec.m_u)
    parts = cl.leray_project(ops, cl.VelocityCoeffs(spec, c))
    again = cl.leray_project(ops, parts.solenoidal)
    checks.append(np.abs(again.solenoidal.values - parts.solenoidal.values).max() <= 1e-12)

    m = ops.mass_diag
    total = c @ (m * c)
    split = parts.solenoidal.values @ (m * parts.solenoidal.values) + (
        parts.gradient.values @ (m * parts.gradient.values)
    )
    checks.append(abs(total - split) <= 1e-10 * total)

    q = np.zeros(spec.m_p)
    q[1:] = rng.standard_normal(spec.m_p - 1)
    grad = (ops.div_coupling.T @ q) / m
    killed = cl.leray_project(ops, cl.VelocityCoeffs(spec, grad)).solenoidal.values
    checks.append(np.abs(killed).max() <= 1e-10 * max(1.0, np.abs(grad).max()))

    qstar = np.zeros(spec.m_p)
    qstar[1:] = ops.div_coupling[1:] @ rng.standard_normal(spec.m_u)
    recovered = cl.grad_inverse(ops, -(ops.div_coupling.T @ qstar))
    checks.append(np.abs(recovered.values - qstar).max() <= 1e-10 * np.abs(qstar).max())

    fq = np.zeros(spec.m_p)
    fq[1:] = ops.div_coupling[1:] @ rng.standard_normal(spec.m_u)
    lifted, residual = cl.bogovskii(ops, cl.PressureCoeffs(spec, fq))
    div_residual = np.linalg.norm(ops.div_coupling @ lifted.values - fq)
    checks.append(residual <= 1e-8 * np.linalg.norm(fq))
    checks.append(div_residual <= 1e-8 * np.linalg.norm(fq))

    report(1, "operator identities", all(checks), f"{sum(checks)}/6 identities hold")


def test_criterion_02_matrix_exponential_oracles():
    details = []
    ok = True
    for n in (1, 2):
        spec = cl.build_basis(n, n)
        ops = cl.assemble(spec)
        rng = np.random.default_rng(SEED + n)
        u0 = cl.VelocityCoeffs(spec, rng.standard_normal(spec.m_u))
        p0 = cl.PressureCoeffs(spec, rng.standard_normal(spec.m_p))
        errs = []
        for dt in (0.02, 0.01):
            params = cl.CompressibleParams(
                rho0=1.0, mu=1.0, eta=0.5, alpha=0.05, T=1.0, dt=dt, u0=u0, p0=p0
            )
            traj = cl.simulate_compressible(spec, ops, params, store_states=True)
            ref = exp_reference(spec, ops, params, traj.times)
            errs.append(np.abs(np.hstack([traj.c, traj.q]) - ref).max())
        ratio = errs[0] / errs[1]
        details.append(f"comp n={n} ratio={ratio:.2f}")
        ok &= 3.5 <= ratio <= 4.5

    # n_u = n_p = 1 leaves no discrete solenoidal mode (recorded boundary case)
    with pytest.raises(cl.EmptyKernel):
        cl.nullspace_basis(cl.assemble(cl.build_basis(1, 1)))

    spec = cl.build_basis(2, 2)
    ops = cl.assemble(spec)
    kernel = cl.nullspace_basis(ops)
    errs = []
    for dt in (0.02, 0.01):
        params = cl.CompressibleParams(
            rho0=1.0, mu=1.0, alpha=0.05, T=1.0, dt=dt,
            u0=cl.VelocityCoeffs(spec, kernel[:, 0].copy()),
        )
        traj = cl.simulate_incompressible(spec, ops, kernel, params, store_states=True)
        stiff = kernel.T @ kernel
        ref = np.array(
            [scipy.linalg.expm(-params.mu * stiff * t) @ traj.y[0] for t in traj.times]
        )
        errs.append(np.abs(traj.y - ref).max())
    ratio = errs[0] / errs[1]
    details.append(f"inc n=2 ratio={ratio:.2f}")
    ok &= 3.5 <= ratio <= 4.5
    report(2, "matrix-exponential oracles", ok, ", ".join(details))


def test_criterion_03_energy_identities_and_mass(desk):
    spec, ops, kernel = desk
    u0 = cl.SampledField.of_vector(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: 0.0 * x
    )
    p0 = cl.SampledField.scalar(lambda x, y: 0.3 * np.cos(np.pi * x))
    f = cl.SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x))
    s = cl.SampledField.of_vector(
        lambda x, y: 0.6 * np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y),
        time_factor=lambda t: 1.0 + 0.5 * t * t,
    )
    sigma = cl.SampledField.scalar(lambda x, y: 0.4 * np.cos(np.pi * y), time_factor=np.cos)

    cums = []
    d0 = cl.default_dt(1e-2, 8, 1.0)
    for dt in (None, d0 / 2):
        params = cl.CompressibleParams(
            rho0=1.0, mu=1.0, eta=0.5, alpha=1e-2, T=1.0, dt=dt,
            f=f, sigma=sigma, s=s, u0=u0, p0=p0,
        )
        traj = cl.simulate_compressible(spec, ops, params)
        ledger = cl.energy_ledger(ops, params, traj)
        cums.append(np.abs(ledger.cumulative).max())
    comp_ratio = cums[0] / cums[1]

    inc_cums = []
    f_timed = cl.SampledField(spatial=f.spatial, vector=True, time_factor=lambda t: 1 + t * t)
    for dt in (d0, d0 / 2):
        params = cl.CompressibleParams(
            rho0=1.0, mu=1.0, alpha=1e-2, T=1.0, dt=dt, s=f_timed, u0=u0  # s = rho0 f
        )
        traj = cl.simulate_incompressible(spec, ops, kernel, params)
        inc_cums.append(np.abs(np.cumsum(traj.energy_residual)).max())
    inc_ratio = inc_cums[0] / inc_cums[1]

    params = cl.CompressibleParams(
        rho0=1.0, mu=1.0, eta=0.5, alpha=1e-2, T=1.0, f=f, s=s, u0=u0, p0=p0
    )
    traj = cl.simulate_compressible(spec, ops, params)
    mass_drift = np.abs(traj.mass - traj.mass[0]).max()

    ok = (
        cums[0] <= 1e-6
        and inc_cums[0] <= 1e-6
        and 3.5 <= comp_ratio <= 4.5
        and 3.5 <= inc_ratio <= 4.5
        and mass_drift <= 1e-10
    )
    report(
        3,
        "discrete energy equalities and mass conservation",
        ok,
        f"cum={cums[0]:.2e} ratio={comp_ratio:.2f}, inc cum={inc_cums[0]:.2e} "
        f"ratio={inc_ratio:.2f}, mass drift={mass_drift:.2e}",
    )


def test_criterion_04_apriori_estimates_randomized(desk):
    spec, ops, _ = desk
    failures = []
    for case in range(20):
        rng = np.random.default_rng(SEED + 100 + case)
        alpha = 10.0 ** rng.uniform(-4, -1)
        mu = rng.uniform(0.1, 2.0)
        eta = float(rng.choice([0.0, 0.5]))

        c0 = np.zeros(spec.m_u)
        q0 = np.zeros(spec.m_p)
        for comp in (0, 1):
            for i in (1, 2):
                for j in (1, 2):
                    c0[spec.velocity_index(comp, i, j)] = rng.uniform(-1, 1)
        for k in range(3):
            for l in range(3):
                q0[spec.pressure_index(k, l)] = rng.uniform(-1, 1)

        fx, fy = rng.uniform(-1, 1, 2)
        f = cl.SampledField.of_vector(
            lambda x, y, a=fx: a * np.cos(np.pi * x), lambda x, y, a=fy: a * np.cos(np.pi * y)
        )
        amp_s, slope = rng.uniform(0, 1), rng.uniform(-0.5, 0.5)
        s = cl.SampledField.of_vector(
            lambda x, y, a=amp_s: a * np.sin(np.pi * x) * np.sin(np.pi * y),
            lambda x, y: 0.0 * x,
            time_factor=lambda t, c=slope: 1.0 + c * t,
        )
        amp_sig = rng.uniform(0, 1)
        sigma = cl.SampledField.scalar(lambda x, y, a=amp_sig: a * np.cos(np.pi * x))

        params = cl.CompressibleParams(
            rho0=1.0, mu=mu, eta=eta, alpha=alpha, T=1.0,
            f=f, sigma=sigma, s=s,
            u0=cl.VelocityCoeffs(spec, c0), p0=cl.PressureCoeffs(spec, q0),
        )
        traj = cl.simulate_compressible(spec, ops, params)
        rep = cl.apriori_check(ops, params, traj)
        if not rep.ok:
            failures.append(case)
    report(4, "a-priori estimate chain on 20 randomized runs", not failures,
           f"violations: {failures or 'none'}")


def test_criterion_05_mixed_certificates():
    constants = cl.mixed_constants(0.0)
    exact = constants.c_a == 1.0 and constants.c_a_tilde == 2.5
    bad = []
    for seed in range(100):
        I, J, a, b, c = equality_case_instance(seed)
        rep = cl.verify_mixed(I, J, a, b, c)
        if not rep.ok:
            bad.append(seed)
    report(5, "mixed-inequality certificates (100 equality cases)",
           exact and not bad, f"A=0 constants exact: {exact}, failures: {bad or 'none'}")


def test_criterion_06_strong_limit_dichotomy(dichotomy_sweeps):
    details = []
    ok = True

    res = dichotomy_sweeps["gradient_u0"]
    x_small = res.rows[-1].x_alpha
    ok &= abs(x_small - res.x_limit) <= 0.05 * res.x_limit
    details.append(f"gradient: X={x_small:.4f} vs L={res.x_limit:.4f}")

    res = dichotomy_sweeps["solenoidal_u0"]
    ok &= res.rows[-1].x_alpha <= 1e-2  # rho0 |u0|^2 = 1 for the preset
    details.append(f"solenoidal: X={res.rows[-1].x_alpha:.2e}")

    res = dichotomy_sweeps["mixed_u0"]
    gaps = np.abs(res.column("x_alpha") - res.x_limit)
    ok &= gaps[-1] <= 0.05 * max(res.x_limit, 2.0 * 1e-3)
    ok &= np.all(np.diff(gaps) < 0.0)  # monotone approach where it is genuine
    details.append(f"mixed: X={res.rows[-1].x_alpha:.4f} vs L={res.x_limit:.4f}, monotone")

    report(6, "strong-limit dichotomy", ok, "; ".join(details))


def test_criterion_07_weak_convergence_where_strong_fails(dichotomy_sweeps):
    res = dichotomy_sweeps["gradient_u0"]
    deltas = np.stack([r.probe_deltas for r in res.rows])  # (n_alpha, K)
    monotone = bool(np.all(np.diff(deltas, axis=0) < 0.0))
    vanishing = bool(np.all(deltas[-1] <= 1e-2 * deltas[0]))
    floor = 0.5 * np.sqrt(res.x_limit / res.params.rho0)
    strong_fails = bool(np.all(res.column("err_vel_linf_l2") >= floor))
    report(
        7,
        "weak probes vanish while the strong error persists",
        monotone and vanishing and strong_fails,
        f"monotone={monotone}, smallest/largest<=1e-2: {vanishing}, "
        f"LinfL2 >= {floor:.3f}: {strong_fails}",
    )


def test_criterion_08_pressure_weak_rate_and_obstruction(pressure_weak_sweep, desk):
    spec, ops, kernel = desk
    res = pressure_weak_sweep
    slope = res.fits["err_vel_l2h1"].slope
    err_p = res.column("err_pres_linf_l2")
    bounded = bool(err_p.max() <= 1.05 * err_p[0])

    q0 = cl.project_pressure(spec, realize_scalar_field(GENERIC_P0)).values
    # the sweep's reference pressure at t = 0, shifted to mean(p0) as the sweep shifts it
    p_ref0 = cl.initial_pressure(ops, res.params).values
    p_ref0[0] = q0[0]
    obstruction = np.linalg.norm(q0 - p_ref0)
    above_floor = bool(np.all(err_p >= obstruction - 1e-3))

    ok = slope >= 0.45 and bounded and above_floor
    report(
        8,
        "velocity rate and pressure obstruction with incompatible p0",
        ok,
        f"slope={slope:.3f}, errP bounded: {bounded}, errP >= {obstruction:.4f}-1e-3: {above_floor}",
    )


def test_criterion_09_pressure_strong_rate(pressure_strong_sweep):
    res = pressure_strong_sweep
    slope = res.fits["err_pres_linf_l2"].slope
    err_p = res.column("err_pres_linf_l2")
    decay = err_p[-1] / err_p[0]
    ok = slope >= 0.45 and decay <= 0.1
    report(9, "strong pressure convergence with compatible p0", ok,
           f"slope={slope:.3f}, smallest/largest={decay:.3f}")


REPRO_CFG = """
[basis]
n_u = 3
n_p = 3

[physics]
T = 0.4

[data]
u0 = mixed_u0

[sweep]
alphas = 1e-1 1e-2 1e-3
probes = 4
seed = 11

[output]
directory = {out}
"""


def test_criterion_10_reproducibility(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(REPRO_CFG.format(out=out))

    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    first_csv = (out / "sweep.csv").read_bytes()
    first_meta = (out / "sweep_meta.json").read_bytes()

    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    same_seed = (
        (out / "sweep.csv").read_bytes() == first_csv
        and (out / "sweep_meta.json").read_bytes() == first_meta
    )

    # a short configs/pressure_strong.cfg (n=8) in fresh processes at 1 and 2 BLAS
    # threads, and on one usable CPU, where its rows march in one worker process
    strong = tmp_path / "pressure_strong.cfg"
    text = (CONFIGS / "pressure_strong.cfg").read_text().replace("T = 1.0", "T = 0.25")
    strong.write_text(re.sub(r"(?m)^alphas = .*$", "alphas = 1e-2 1e-3 1e-4", text))
    files = ("sweep.csv", "sweep_meta.json", "probe_deltas.csv")
    outputs = []
    for threads, one_cpu in ((1, False), (2, False), (2, True)):
        run_command(["sweep", "--config", str(strong)], threads, tmp_path, one_cpu)
        outputs.append([(tmp_path / "out" / "pressure_strong" / name).read_bytes() for name in files])
    same_threads = outputs[0] == outputs[1]
    same_cpus = outputs[1] == outputs[2]
    report(10, "byte-identical sweeps across reruns, BLAS thread counts and usable CPUs",
           same_seed and same_threads and same_cpus,
           f"rerun: {same_seed}, 1 vs 2 threads: {same_threads}, one CPU vs all: {same_cpus}")
