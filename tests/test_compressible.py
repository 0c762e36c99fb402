import dataclasses
import itertools
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import complim.compressible as compressible
import complim.csvio as csvio
import complim.incompressible as incompressible
import complim.limits as limits
from complim import (
    CompressibleParams,
    InvalidParams,
    StepFailure,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    apriori_check,
    assemble,
    blas,
    build_basis,
    default_dt,
    energy_ledger,
    simulate_compressible,
    simulate_incompressible,
    sweep_alpha,
)
from complim.basis import pressure_load_vector, velocity_load_vector
from complim.cli import _build_params
from complim.config import parse_config, realize_vector_field
from complim.operators import coupling_matrix, div_gram
from complim.presets import velocity_preset

from conftest import PARITY_N_P, PARITY_N_U, parity_grid_ops


def random_state(spec, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (
        VelocityCoeffs(spec, scale * rng.standard_normal(spec.m_u)),
        PressureCoeffs(spec, scale * rng.standard_normal(spec.m_p)),
    )


def exp_reference(spec, ops, params, times):
    """Dense matrix-exponential oracle for the homogeneous coefficient system."""
    m_u, m_p = spec.m_u, spec.m_p
    K = np.zeros((m_u + m_p, m_u + m_p))
    K[:m_u, :m_u] = -(params.mu * np.eye(m_u) + params.eta * div_gram(ops, np.arange(m_u)))
    K[:m_u, m_u:] = ops.div_coupling.T
    K[m_u:, :m_u] = -params.rho0 * ops.div_coupling
    a_inv = np.concatenate(
        [1.0 / (params.rho0 * ops.mass_diag), np.full(m_p, 1.0 / params.alpha)]
    )
    L = a_inv[:, None] * K
    y0 = np.concatenate([params.u0.values, params.p0.values])
    return np.array([scipy.linalg.expm(L * t) @ y0 for t in times])


def test_zero_data_gives_zero_trajectory(spec2, ops2):
    params = CompressibleParams(alpha=0.05, T=0.5, dt=0.01)
    traj = simulate_compressible(spec2, ops2, params, store_states=True)
    assert np.all(traj.c == 0.0)
    assert np.all(traj.q == 0.0)
    assert np.all(traj.energy == 0.0)


def test_unforced_energy_nonincreasing_any_dt(spec2, ops2):
    u0, p0 = random_state(spec2, seed=1)
    for dt in (0.3, 0.05, 0.004):
        params = CompressibleParams(alpha=0.02, eta=0.5, T=0.9, dt=dt, u0=u0, p0=p0)
        traj = simulate_compressible(spec2, ops2, params)
        assert np.all(np.diff(traj.energy) <= 1e-14 * traj.energy[0])


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_exponential_oracle(n):
    spec = build_basis(n, n)
    ops = assemble(spec)
    u0, p0 = random_state(spec, seed=5)
    errs = []
    for dt in (0.02, 0.01):
        params = CompressibleParams(
            rho0=1.2, mu=0.8, eta=0.3, alpha=0.05, T=1.0, dt=dt, u0=u0, p0=p0
        )
        traj = simulate_compressible(spec, ops, params, store_states=True)
        ref = exp_reference(spec, ops, params, traj.times)
        errs.append(np.abs(np.hstack([traj.c, traj.q]) - ref).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_trajectory_is_linear_in_data(spec2, ops2):
    u0, p0 = random_state(spec2, seed=2)
    s = SampledField.of_vector(lambda x, y: np.cos(np.pi * x), lambda x, y: 0.2 * np.ones_like(x))
    base = dict(alpha=0.03, eta=0.1, T=0.4, dt=0.005, s=s)
    traj1 = simulate_compressible(
        spec2, ops2, CompressibleParams(u0=u0, p0=p0, **base), store_states=True
    )
    s2 = SampledField.of_vector(lambda x, y: 2 * np.cos(np.pi * x), lambda x, y: 0.4 * np.ones_like(x))
    traj2 = simulate_compressible(
        spec2,
        ops2,
        CompressibleParams(
            u0=VelocityCoeffs(spec2, 2 * u0.values),
            p0=PressureCoeffs(spec2, 2 * p0.values),
            alpha=0.03,
            eta=0.1,
            T=0.4,
            dt=0.005,
            s=s2,
        ),
        store_states=True,
    )
    scale = np.abs(traj2.c).max()
    assert np.abs(traj2.c - 2 * traj1.c).max() <= 1e-10 * scale
    assert np.abs(traj2.q - 2 * traj1.q).max() <= 1e-10 * np.abs(traj2.q).max()


def test_determinism_bitwise(spec2, ops2):
    u0, p0 = random_state(spec2, seed=3)
    params = CompressibleParams(alpha=0.02, T=0.5, dt=0.01, u0=u0, p0=p0)
    t1 = simulate_compressible(spec2, ops2, params, store_states=True)
    t2 = simulate_compressible(spec2, ops2, params, store_states=True)
    assert np.array_equal(t1.c, t2.c) and np.array_equal(t1.q, t2.q)


def test_constant_pressure_mode_conservation(spec2, ops2):
    u0, p0 = random_state(spec2, seed=4)
    params = CompressibleParams(alpha=0.05, T=1.0, dt=0.01, u0=u0, p0=p0)
    traj = simulate_compressible(spec2, ops2, params, store_states=True)
    assert np.abs(np.diff(traj.q[:, 0])).max() <= 1e-12


def test_mass_series_conserved_and_forced(spec2, ops2):
    u0, p0 = random_state(spec2, seed=5)
    params = CompressibleParams(alpha=0.05, T=1.0, dt=0.01, u0=u0, p0=p0)
    traj = simulate_compressible(spec2, ops2, params)
    m = traj.mass
    assert np.abs(m - m[0]).max() <= 1e-10

    sigma = SampledField.scalar(lambda x, y: 0.7 * np.ones_like(x))
    params = CompressibleParams(alpha=0.05, T=1.0, dt=0.01, u0=u0, p0=p0, sigma=sigma)
    traj = simulate_compressible(spec2, ops2, params)
    m = traj.mass
    assert np.abs((m - m[0]) - 0.7 * traj.times).max() <= 1e-8

    # alpha -> 0 at fixed p: M -> rho0
    params = CompressibleParams(alpha=1e-9, T=0.05, dt=0.01, p0=p0)
    traj = simulate_compressible(spec2, ops2, params)
    assert np.abs(traj.mass - params.rho0).max() <= 1e-8


def test_energy_ledger_zero_and_exact(spec2, ops2):
    params = CompressibleParams(alpha=0.05, T=0.5, dt=0.01)
    traj = simulate_compressible(spec2, ops2, params)
    led = energy_ledger(ops2, params, traj)
    assert np.all(led.per_step == 0.0)

    # constant sources: the trapezoidal step satisfies the identity to roundoff
    u0, p0 = random_state(spec2, seed=6)
    f = SampledField.of_vector(lambda x, y: np.cos(np.pi * x), lambda x, y: 0.1 * np.ones_like(x))
    s = SampledField.of_vector(lambda x, y: 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: 0.0 * x)
    sigma = SampledField.scalar(lambda x, y: 0.3 * np.cos(np.pi * y))
    params = CompressibleParams(alpha=0.05, eta=0.4, T=0.5, dt=0.005, u0=u0, p0=p0, f=f, s=s, sigma=sigma)
    traj = simulate_compressible(spec2, ops2, params)
    led = energy_ledger(ops2, params, traj)
    scale = max(1.0, np.abs(traj.energy).max())
    assert np.abs(led.cumulative).max() <= 1e-12 * scale


def test_energy_ledger_second_order_in_dt(spec2, ops2):
    u0, p0 = random_state(spec2, seed=7)
    s = SampledField.of_vector(
        lambda x, y: 0.6 * np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.0 * x,
        time_factor=lambda t: 1.0 + 0.5 * t * t,
    )
    sigma = SampledField.scalar(lambda x, y: 0.4 * np.cos(np.pi * y), time_factor=np.cos)
    cums = []
    for dt in (0.01, 0.005):
        params = CompressibleParams(alpha=0.05, eta=0.2, T=1.0, dt=dt, u0=u0, p0=p0, s=s, sigma=sigma)
        traj = simulate_compressible(spec2, ops2, params)
        led = energy_ledger(ops2, params, traj)
        cums.append(np.abs(led.cumulative).max())
    assert 3.5 <= cums[0] / cums[1] <= 4.5


def test_ledger_and_apriori_refuse_a_trajectory_of_another_basis(spec4, ops4):
    params = CompressibleParams(alpha=0.05, T=0.05, dt=0.01)
    traj = simulate_compressible(spec4, ops4, params)
    ops3 = assemble(build_basis(3, 3))
    for audit in (energy_ledger, apriori_check):
        with pytest.raises(ValueError, match="trajectory does not match the operator set"):
            audit(ops3, params, traj)
        # the series were reduced with traj.params; an equal copy is another run's params
        with pytest.raises(ValueError, match="params are not the ones the trajectory was run with"):
            audit(ops4, dataclasses.replace(params), traj)


def test_apriori_zero_data(spec2, ops2):
    params = CompressibleParams(alpha=0.05, T=0.5, dt=0.01)
    traj = simulate_compressible(spec2, ops2, params)
    report = apriori_check(ops2, params, traj)
    assert report.e_data == 0.0
    assert report.ok


def _simulate_cfg_audit():
    """simulate.cfg's run (n = 8, eta > 0, a body force) with its a-priori report."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg"
    cfg = parse_config(path.read_text())
    assert (cfg.n_u, cfg.n_p) == (8, 8) and cfg.eta > 0.0 and cfg.f.strip() != "0"
    spec = build_basis(cfg.n_u, cfg.n_p)
    ops = assemble(spec)
    params = _build_params(cfg, ops)
    traj = simulate_compressible(spec, ops, params)
    return ops, params, traj, apriori_check(ops, params, traj)


def _assert_same_report(report, svd):
    assert report.est2_constant == pytest.approx(svd.est2_constant, rel=1e-12, abs=0.0)
    flags = lambda r: (r.est1_ok, r.est2_ok, r.certificate.ok, r.ok)  # noqa: E731
    assert flags(report) == flags(svd)


def test_apriori_e_norm_by_eigvalsh_matches_the_svd_norm(monkeypatch):
    """|E|_2 as the largest eigenvalue over the four velocity classes is E's 2-norm through a
    full SVD, as it was taken before, and the report is the one each class's SVD norm gives."""
    ops, params, traj, report = _simulate_cfg_audit()
    u_class, m_p = ops.spec.parity_classes()[: ops.spec.m_u], ops.spec.m_p
    E = div_gram(ops, np.arange(ops.spec.m_u))
    classes = [np.flatnonzero(u_class == c) for c in range(4)]
    svd_norm = np.linalg.norm(E, 2)
    assert max(np.linalg.norm(E[np.ix_(b, b)], 2) for b in classes) == pytest.approx(svd_norm, rel=1e-12, abs=0.0)
    assert m_p not in [len(b) for b in classes]  # G'G is the one (m_p, m_p) matrix
    eigvalsh, by_svd = np.linalg.eigvalsh, []

    def class_norm_by_svd(a):
        if a.shape == (m_p, m_p):
            return eigvalsh(a)
        by_svd.append(len(a))
        return np.array([np.linalg.norm(a, 2)])

    monkeypatch.setattr(np.linalg, "eigvalsh", class_norm_by_svd)
    _assert_same_report(report, apriori_check(ops, params, traj))
    assert by_svd == [len(b) for b in classes] == [32] * 4


def test_apriori_g_norm_by_eigvalsh_matches_the_svd_norm(monkeypatch):
    ops, params, traj, report = _simulate_cfg_audit()
    G = traj.coupling
    svd_norm = np.linalg.norm(G, 2)  # |G| through a full SVD, as it was taken before
    assert svd_norm > 0.0
    assert np.sqrt(np.linalg.eigvalsh(G.T @ G)[-1]) == pytest.approx(svd_norm, rel=1e-12, abs=0.0)
    eigvalsh = np.linalg.eigvalsh  # G'G is the one (m_p, m_p) matrix it is called with
    monkeypatch.setattr(
        np.linalg,
        "eigvalsh",
        lambda a: np.array([svd_norm**2]) if a.shape == (G.shape[1],) * 2 else eigvalsh(a),
    )
    _assert_same_report(report, apriori_check(ops, params, traj))


def test_apriori_homogeneity_degree_one(spec2, ops2):
    u0, p0 = random_state(spec2, seed=8, scale=0.5)
    sigma = SampledField.scalar(lambda x, y: 0.2 * np.cos(np.pi * x))
    base = dict(alpha=0.04, T=0.5, dt=0.005, sigma=sigma)
    params1 = CompressibleParams(u0=u0, p0=p0, **base)
    traj1 = simulate_compressible(spec2, ops2, params1)
    rep1 = apriori_check(ops2, params1, traj1)
    params2 = CompressibleParams(
        u0=VelocityCoeffs(spec2, 2 * u0.values),
        p0=PressureCoeffs(spec2, 2 * p0.values),
        alpha=0.04,
        T=0.5,
        dt=0.005,
        sigma=SampledField.scalar(lambda x, y: 0.4 * np.cos(np.pi * x)),
    )
    traj2 = simulate_compressible(spec2, ops2, params2)
    rep2 = apriori_check(ops2, params2, traj2)
    assert rep2.e_data == pytest.approx(2 * rep1.e_data, rel=1e-12)
    assert rep2.est1_lhs == pytest.approx(2 * rep1.est1_lhs, rel=1e-9)
    assert rep1.ok and rep2.ok


def test_invalid_params_rejected(spec2, ops2):
    with pytest.raises(InvalidParams):
        simulate_compressible(spec2, ops2, CompressibleParams(mu=0.0))
    with pytest.raises(InvalidParams):
        simulate_compressible(spec2, ops2, CompressibleParams(alpha=0.0))
    with pytest.raises(InvalidParams):
        simulate_compressible(spec2, ops2, CompressibleParams(eta=-0.1))
    with pytest.raises(InvalidParams):
        simulate_compressible(spec2, ops2, CompressibleParams(T=1.0, dt=2.0))
    f_t = SampledField.of_vector(
        lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x), time_factor=lambda t: 1 + t
    )
    with pytest.raises(InvalidParams):
        simulate_compressible(spec2, ops2, CompressibleParams(f=f_t))


@pytest.mark.parametrize("key", ["rho0", "mu", "eta", "alpha", "T"])
def test_nonfinite_params_rejected(spec2, ops2, key):
    with pytest.raises(InvalidParams, match="finite"):
        simulate_compressible(spec2, ops2, CompressibleParams(**{key: np.inf}))


def test_default_dt_policy():
    assert default_dt(1e-2, 8, 1.0) == pytest.approx(0.1 / (4 * np.pi * 8))
    assert default_dt(0.9, 1, 1.0) == pytest.approx(1.0 / 200.0)


def test_density_diagnostic(spec2, ops2):
    p0 = PressureCoeffs(spec2, np.zeros(spec2.m_p))
    p0.values[0] = 2.0
    params = CompressibleParams(rho0=1.5, alpha=0.1, T=0.1, dt=0.01, p0=p0)
    traj = simulate_compressible(spec2, ops2, params, store_states=True)
    rho = traj.density(0, np.array([[0.25, 0.5]]))
    assert rho[0] == pytest.approx(1.5 + 0.1 * 2.0, abs=1e-12)


def test_initial_node_is_projection_of_data(spec2, ops2):
    u0 = SampledField.of_vector(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: 0.0 * x
    )
    p0 = SampledField.scalar(lambda x, y: 0.4 * np.cos(np.pi * y))
    params = CompressibleParams(alpha=0.05, T=0.1, dt=0.01, u0=u0, p0=p0)
    traj = simulate_compressible(spec2, ops2, params, store_states=True)
    from complim import project_pressure, project_velocity

    assert np.array_equal(traj.c[0], project_velocity(spec2, u0).values)
    assert np.array_equal(traj.q[0], project_pressure(spec2, p0).values)


def lu_solve_march(spec, ops, params, dt):
    """Step-by-step Crank-Nicolson loop through scipy.linalg.lu_solve (test oracle)."""
    m_u, m_p = spec.m_u, spec.m_p
    m = m_u + m_p
    n_steps = round(params.T / dt)
    G = coupling_matrix(ops, params.f) if params.f is not None else np.zeros((m_u, m_p))
    K = np.zeros((m, m))
    K[:m_u, :m_u] = -params.eta * div_gram(ops, np.arange(m_u))
    K[:m_u, :m_u] -= params.mu * np.eye(m_u)
    K[:m_u, m_u:] = ops.div_coupling.T + params.alpha * G
    K[m_u:, :m_u] = -params.rho0 * ops.div_coupling
    a_diag = np.concatenate([params.rho0 * ops.mass_diag, np.full(m_p, params.alpha)])
    lhs = np.diag(a_diag) - 0.5 * dt * K
    rhs_mat = np.diag(a_diag) + 0.5 * dt * K
    lu = scipy.linalg.lu_factor(lhs)
    f_vec = velocity_load_vector(spec, params.s)
    s_vec = pressure_load_vector(spec, params.sigma)

    def load(t):
        return np.concatenate([f_vec * params.s.at_time(t), s_vec * params.sigma.at_time(t)])

    y = np.concatenate([params.u0.values, params.p0.values])
    states = [y]
    for n in range(n_steps):
        rhs = rhs_mat @ y + 0.5 * dt * (load(n * dt) + load((n + 1) * dt))
        y = scipy.linalg.lu_solve(lu, rhs)
        states.append(y)
    return np.array(states)


def stepper_params(spec, time_dependent):
    u0, p0 = random_state(spec, seed=11)
    s = SampledField.of_vector(
        lambda x, y: 0.6 * np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.2 * np.cos(np.pi * x),
        time_factor=(lambda t: 1.0 + 0.5 * t * t) if time_dependent else None,
    )
    sigma = SampledField.scalar(
        lambda x, y: 0.4 * np.cos(np.pi * y), time_factor=np.cos if time_dependent else None
    )
    f = SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x))
    # 549 steps: more than two residual-gate chunks and not a multiple of the chunk size
    dt = 1.0 / 549
    assert 549 > 2 * compressible.STEP_CHUNK and 549 % compressible.STEP_CHUNK
    params = CompressibleParams(
        alpha=0.03, eta=0.3, T=1.0, dt=dt, u0=u0, p0=p0, f=f, s=s, sigma=sigma
    )
    return params, dt


def test_stepper_bitwise_equal_to_lu_solve_loop_for_constant_loads(ops2, ops8):
    """Also at n = 8 without a body force, whose four parity blocks (48-56 unknowns) and
    constant pressure mode are merged back into one system below STEP_BLOCK_MIN."""
    params2, dt = stepper_params(ops2.spec, time_dependent=False)
    params8 = dataclasses.replace(stepper_params(ops8.spec, time_dependent=False)[0], f=None)
    for ops, params in ((ops2, params2), (ops8, params8)):
        traj = simulate_compressible(ops.spec, ops, params, store_states=True)
        expected = lu_solve_march(ops.spec, ops, params, dt)
        assert traj.n_steps == 549
        assert np.array_equal(np.hstack([traj.c, traj.q]), expected)


@pytest.mark.parametrize("constant", [None, "s", "sigma"], ids=["both_timed", "sigma_timed", "s_timed"])
def test_stepper_matches_lu_solve_loop_for_time_dependent_loads(spec2, ops2, constant):
    """Both sources timed, or one timed and the other constant: crank_nicolson's pieces."""
    params, dt = stepper_params(spec2, time_dependent=True)
    if constant is not None:
        field = getattr(params, constant)
        params = dataclasses.replace(params, **{constant: dataclasses.replace(field, time_factor=None)})
    traj = simulate_compressible(spec2, ops2, params, store_states=True)
    expected = lu_solve_march(spec2, ops2, params, dt)
    assert np.abs(np.hstack([traj.c, traj.q]) - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("time_dependent", [False, True])
def test_split_stepper_matches_lu_solve_loop(ops8, monkeypatch, time_dependent):
    """stepper_params' force couples the n = 8 system's parity blocks into two of 104 and
    105 unknowns, which the march factors and steps apart."""
    params, dt = stepper_params(ops8.spec, time_dependent)
    expected = lu_solve_march(ops8.spec, ops8, params, dt)
    getrf, factored = blas.getrf, []
    monkeypatch.setattr(blas, "getrf", lambda a: factored.append(len(a)) or getrf(a))
    traj = simulate_compressible(ops8.spec, ops8, params, store_states=True)
    assert factored == [104, 105]
    assert np.abs(np.hstack([traj.c, traj.q]) - expected).max() <= 1e-12 * np.abs(expected).max()


def graph_blocks(pattern):
    """The components of the square boolean ``pattern | pattern.T`` by breadth-first search, as
    ascending index arrays in the order of their first indices, those under STEP_BLOCK_MIN
    merged into one last array (test oracle of the step system's blocks)."""
    pattern = pattern | pattern.T
    blocks, small, unseen = [], [], np.ones(len(pattern), dtype=bool)
    while unseen.any():
        reach = front = np.arange(len(pattern)) == unseen.argmax()
        while front.any():
            front = pattern[front].any(axis=0) & ~reach
            reach |= front
        unseen &= ~reach
        (blocks if reach.sum() >= compressible.STEP_BLOCK_MIN else small).append(reach)
    return [np.flatnonzero(b) for b in blocks + [np.logical_or.reduce(small)] * bool(small)]


def _step_block_forces():
    """No force, configs/simulate.cfg's f and an f with no parity symmetry."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg").read_text()
    skew = SampledField.of_vector(lambda x, y: np.exp(x + 0.3 * y * y), lambda x, y: x * y + 0.2 * x)
    return {"none": None, "simulate_cfg": realize_vector_field(parse_config(text).f), "skew": skew}


@pytest.mark.parametrize("n_u", PARITY_N_U)
def test_step_blocks_are_the_components_of_the_coupling_pattern(n_u):
    """The blocks the parity classes give are the graph search's on K's coupling pattern (E when
    eta > 0, B and G), array for array and in order, over n_p, eta and three forces."""
    forces = _step_block_forces()
    for n_p in PARITY_N_P:
        ops = parity_grid_ops(n_u, n_p)
        spec, E, B = ops.spec, div_gram(ops, np.arange(ops.spec.m_u)), ops.div_coupling
        for name, f in forces.items():
            G = coupling_matrix(ops, f) if f is not None else np.zeros((spec.m_u, spec.m_p))
            for eta in (0.0, 0.5):
                pressure_rows = np.zeros((spec.m_p, spec.m_u + spec.m_p), bool)
                pattern = np.block([[(E != 0) & (eta > 0), (B.T != 0) | (G != 0)], [pressure_rows]])
                blocks = compressible._step_blocks(spec, eta, B, G)
                assert [b.tolist() for b in blocks] == [b.tolist() for b in graph_blocks(pattern)], (n_p, name, eta)
                if (n_u, n_p, eta) == (16, 16, 0.0):  # the three forces give three block structures
                    sizes = {"none": [200, 192, 208, 200, 1], "simulate_cfg": [400, 401], "skew": [801]}
                    assert [len(b) for b in blocks] == sizes[name], name


def test_march_with_uncoupled_modes_matches_lu_solve_loop(monkeypatch):
    """At (n_u, n_p) = (16, 12) with eta = 0 and no force, B leaves the velocity modes it does
    not reach and the constant pressure mode uncoupled: they are stepped as one diagonal
    remainder after the four parity blocks, elementwise with no factor, to the bits of the
    same blocks stepped as dense matrices."""
    ops = assemble(build_basis(16, 12))
    params, dt = stepper_params(ops.spec, time_dependent=False)
    params = dataclasses.replace(params, eta=0.0, f=None)
    expected = lu_solve_march(ops.spec, ops, params, dt)
    getrf, factored = blas.getrf, []
    monkeypatch.setattr(blas, "getrf", lambda a: factored.append(len(a)) or getrf(a))
    traj = simulate_compressible(ops.spec, ops, params, store_states=True)
    assert factored == [138, 132, 144, 138]
    assert np.abs(np.hstack([traj.c, traj.q]) - expected).max() <= 1e-12 * np.abs(expected).max()
    march = compressible.crank_nicolson

    def dense(a, blocks, *args):
        return march(a, [(b, np.diag(half) if half.ndim == 1 else half) for b, half in blocks], *args)

    monkeypatch.setattr(compressible, "crank_nicolson", dense)
    dense_traj = simulate_compressible(ops.spec, ops, params, store_states=True)
    assert factored[4:] == [138, 132, 144, 138, 129]
    assert np.array_equal(dense_traj.c, traj.c) and np.array_equal(dense_traj.q, traj.q)


def test_step_residual_gate_reports_first_step(spec2, ops2, monkeypatch):
    params, _ = stepper_params(spec2, time_dependent=False)
    monkeypatch.setattr(compressible, "STEP_RESIDUAL_RTOL", 0.0)
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_compressible(spec2, ops2, params)


def test_nonfinite_state_raises_step_failure(spec2, ops2):
    u0, p0 = random_state(spec2, seed=12)
    u0.values[3] = np.nan
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_compressible(spec2, ops2, CompressibleParams(alpha=0.05, T=0.1, u0=u0, p0=p0))


def corrupt_solve(monkeypatch, step, size=None, nth=None, value=lambda x: x * (1.0 + 1e-6)):
    """Make the solvers that blas.getrs binds leave value(x) in the row at their step-th solve
    (1-based): the solver of each LU factor of size x size, of any size when size is None, or
    only of the nth (0-based) of those factors when nth is given.  The factor is picked by its
    size: blocks marched on threads of their own race for their first solves."""
    bind, bound = blas.getrs, itertools.count()

    def getrs(lu, piv, rows):
        solve = bind(lu, piv, rows)
        if size not in (None, len(lu)) or (nth is not None and next(bound) != nth):
            return solve
        solves = itertools.count(1)

        def corrupted(k):
            info = solve(k)
            if next(solves) == step:
                rows[k] = value(rows[k])
            return info

        return corrupted

    monkeypatch.setattr(blas, "getrs", getrs)


@pytest.mark.parametrize("time_dependent", [False, True])
# inside the first chunk, its last step, the second chunk's first and last, the march's last
@pytest.mark.parametrize("step", [100, 256, 257, 512, 549])
def test_step_residual_gate_names_a_corrupted_solve(ops2, ops8, monkeypatch, step, time_dependent):
    """The last step of a chunk is gated on the product carried into the next chunk.  At
    n = 8 stepper_params' force splits the system in two blocks, and the solve is corrupted
    in the second (105 unknowns), in line or on a thread of its own."""
    for ops, block in ((ops2, None), (ops8, 105)):
        params, dt = stepper_params(ops.spec, time_dependent)
        message = f"step {step} at t = {step * dt:.6g}: relative residual "
        with monkeypatch.context() as patch:
            corrupt_solve(patch, step, size=block)
            with pytest.raises(StepFailure, match="^" + re.escape(message)):
                simulate_compressible(ops.spec, ops, params)


@pytest.mark.memory
def test_later_chunks_allocate_no_chunk_sized_array(spec4, ops4, ops8):
    """The march allocates its chunk buffers once, with its first chunk, under constant and
    time-dependent loads.  The latter run at n = 8: numpy's ufuncs writing a time-dependent
    load into its strided column block take about 198 KB of iterator buffers per call, at any
    chunk size, which is more than an n = 4 chunk."""
    for ops, time_dependent in ((ops4, False), (ops8, True)):
        params, _ = stepper_params(ops.spec, time_dependent)
        params = dataclasses.replace(params, dt=1.0 / (4 * compressible.STEP_CHUNK))
        _, times, _, chunks = compressible.compressible_chunks(ops, params)
        assert len(times) == 4 * compressible.STEP_CHUNK + 1
        next(chunks)
        tracemalloc.start()
        try:
            pulled = sum(1 for _ in chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pulled == 3
        chunk = 8 * compressible.STEP_CHUNK * (ops.spec.m_u + ops.spec.m_p)
        assert peak < chunk, (time_dependent, peak / chunk)


def _sweep_problem(n, **physics):
    """Operators at n_u = n_p = n and a sweep's CompressibleParams started from solenoidal_u0."""
    ops = assemble(build_basis(n, n))
    return ops, CompressibleParams(**physics, u0=velocity_preset("solenoidal_u0", ops))


def test_nonfinite_row_recorded_as_failed_sweep_row(monkeypatch):
    original = limits.compressible_chunks

    def nan_in_u0(ops, params):
        if params.alpha == 1e-2:
            u0 = params.u0.values.copy()
            u0[0] = np.nan
            params = dataclasses.replace(params, u0=VelocityCoeffs(ops.spec, u0))
        return original(ops, params)

    monkeypatch.setattr(limits, "compressible_chunks", nan_in_u0)
    res = sweep_alpha(*_sweep_problem(3, T=0.5), (1e-1, 1e-2, 1e-3), probes=4)
    assert [r.failed for r in res.rows] == [False, True, False]
    assert res.rows[1].error.startswith("StepFailure: step 1 at t = ")


def _whole_array_ledger(ops, params, traj):
    """(per_step, dissipation, work) of the energy ledger, formed over the stored trajectory
    as energy_ledger did before the march reduced its series (test oracle)."""
    dt = traj.dt
    c_mid = 0.5 * (traj.c[1:] + traj.c[:-1])
    q_mid = 0.5 * (traj.q[1:] + traj.q[:-1])
    t_mid = 0.5 * (traj.times[1:] + traj.times[:-1])
    h01_sq = np.einsum("ni,ni->n", c_mid, c_mid)
    div_sq = np.einsum("ni,ij,nj->n", c_mid, div_gram(ops, np.arange(ops.spec.m_u)), c_mid, optimize=True)
    dissipation = dt * (params.mu * h01_sq + params.eta * div_sq)
    G = coupling_matrix(ops, params.f)
    work = params.alpha * np.einsum("nk,nk->n", c_mid @ G, q_mid)
    work += (c_mid @ velocity_load_vector(ops.spec, params.s)) * np.array([params.s.at_time(t) for t in t_mid])
    sigma_t = np.array([params.sigma.at_time(t) for t in t_mid])
    work += (q_mid @ pressure_load_vector(ops.spec, params.sigma)) * sigma_t / params.rho0
    work *= dt
    return np.diff(traj.energy) + dissipation - work, dissipation, work


def _whole_array_est2_lhs(ops, params, traj):
    """est2's left-hand side with M dc/dt formed over the stored trajectory (test oracle)."""
    G = coupling_matrix(ops, params.f)
    s_factors = np.array([params.s.at_time(t) for t in traj.times])
    momentum = (
        traj.q @ ops.div_coupling
        - params.mu * traj.c
        - params.eta * (traj.c @ div_gram(ops, np.arange(ops.spec.m_u)))
        + params.alpha * (traj.q @ G.T)
        + np.outer(s_factors, velocity_load_vector(ops.spec, params.s))
    ) / params.rho0
    ut_dual = np.linalg.norm(momentum, axis=1)
    u_l2h1 = np.sqrt(np.trapezoid(np.linalg.norm(traj.c, axis=1) ** 2, traj.times))
    return u_l2h1 + np.sqrt(np.trapezoid(ut_dual**2, traj.times))


def test_reduced_series_match_the_whole_array_audits(ops4, ops8):
    # f, time-dependent s and sigma, eta > 0, and 549 steps: three chunks of the march,
    # which at n = 8 steps two blocks.  The march reduces the series chunk by chunk, its
    # c E and q B through the 1-D tables and its intervals from c_n + c_{n+1} against both
    # ends' c E and q G', not as the dense whole-trajectory products and midpoint averages
    # below: the sums round differently, which moves the last bits, hence 1e-12 relative.
    # per_step is a difference of terms of size |dI| + dissipation + |work| and is
    # compared at that scale.
    for ops in (ops4, ops8):
        params, _ = stepper_params(ops.spec, time_dependent=True)
        traj = simulate_compressible(ops.spec, ops, params, store_states=True)
        ledger = energy_ledger(ops, params, traj)
        per_step, dissipation, work = _whole_array_ledger(ops, params, traj)
        assert np.abs(per_step).min() > 1e-12  # O(dt^3) with time-dependent sources, not roundoff
        scale = np.abs(np.diff(traj.energy)) + np.abs(dissipation) + np.abs(work)
        assert np.all(np.abs(ledger.per_step - per_step) <= 1e-12 * scale)
        assert np.all(np.abs(ledger.dissipation - dissipation) <= 1e-12 * np.abs(dissipation))
        assert np.all(np.abs(ledger.work - work) <= 1e-12 * np.abs(work))
        report = apriori_check(ops, params, traj)
        expected = _whole_array_est2_lhs(ops, params, traj)
        assert report.est2_lhs == pytest.approx(expected, rel=1e-12, abs=0.0), ops.spec.n_u


@pytest.mark.memory
@pytest.mark.parametrize("n", [8, 16, 24])
def test_a_chunk_reduction_peaks_below_five_chunk_arrays(n):
    """Trajectory reduces a 257-node chunk of simulate.cfg's physics (f, eta > 0) with at
    most c E, q B, q G' and one buffer live, each (257, m_u), and no midpoint copies: its traced
    peak after a warm-up call stays below five such arrays."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg"
    text = re.sub(r"(?m)^(n_[up]) = .*$", rf"\1 = {n}", path.read_text())
    ops = assemble(build_basis(n, n))
    params = _build_params(parse_config(text), ops)
    dt, times, G, chunks = compressible.compressible_chunks(ops, params)
    chunks.close()
    rng = np.random.default_rng(n)
    c = rng.standard_normal((compressible.STEP_CHUNK + 1, ops.spec.m_u))
    q = rng.standard_normal((compressible.STEP_CHUNK + 1, ops.spec.m_p))
    traj = compressible.Trajectory(ops, params, dt, times, G)
    assert G.any() and params.eta > 0
    traj(0, c, q)
    tracemalloc.start()
    try:
        traj(compressible.STEP_CHUNK, c, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = 8 * c.size
    assert peak < 5 * chunk, peak / chunk


@pytest.mark.memory
@pytest.mark.parametrize("time_dependent", [False, True])
def test_setting_up_a_march_builds_no_m_by_m_matrix(ops16, time_dependent):
    """At n = 16 (m = 801) the step system's blocks of 400 and 401 unknowns are the parity
    classes that G joins, and each one's (dt/2) K is built alone: an m x m float64 K beside G
    would take the traced peak of the set-up to 8 m^2 + |G| bytes at least."""
    params, _ = stepper_params(ops16.spec, time_dependent)
    compressible.compressible_chunks(ops16, params)[3].close()  # first calls outside the trace
    tracemalloc.start()
    try:
        _, _, G, chunks = compressible.compressible_chunks(ops16, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunks.close()
    m = ops16.spec.m_u + ops16.spec.m_p
    assert G.any() and peak < 8 * m * m + G.nbytes, peak / (8 * m * m)


@pytest.mark.memory
def test_finding_the_step_blocks_allocates_less_than_an_m_by_m_boolean(ops16):
    """The blocks come from the parity classes and a check of G per velocity class, whose
    largest temporary (one class's rows of G, 2 m_u m_p bytes) is under the m^2 bytes of the
    m x m boolean coupling pattern that a graph search over K reads."""
    params, _ = stepper_params(ops16.spec, time_dependent=False)
    G, B = coupling_matrix(ops16, params.f), ops16.div_coupling
    compressible._step_blocks(ops16.spec, params.eta, B, G)  # first calls outside the trace
    tracemalloc.start()
    try:
        blocks = compressible._step_blocks(ops16.spec, params.eta, B, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = ops16.spec.m_u + ops16.spec.m_p
    assert [len(b) for b in blocks] == [400, 401] and peak < m * m, peak / (m * m)


@pytest.mark.memory
@pytest.mark.parametrize("n", [8, 16])
def test_slab_reductions_are_the_bits_of_one_call(n, request, monkeypatch):
    """A Trajectory reduces each chunk in slabs of REDUCTION_SLAB intervals that share their
    end nodes.  Under f, eta > 0 and time-dependent s and sigma its series are those of one
    call over all 550 nodes, bit for bit, and a 257-node chunk's reduction peaks below two
    (257, m_u) arrays (the whole chunk at once took over four)."""
    ops = request.getfixturevalue(f"ops{n}")
    params, _ = stepper_params(ops.spec, time_dependent=True)
    slabbed = simulate_compressible(ops.spec, ops, params, store_states=True)
    chunk = slice(0, compressible.STEP_CHUNK + 1)
    traj = compressible.Trajectory(ops, params, slabbed.dt, slabbed.times, slabbed.coupling)
    traj(0, slabbed.c[chunk], slabbed.q[chunk])  # a warm-up outside the trace
    tracemalloc.start()
    try:
        traj(0, slabbed.c[chunk], slabbed.q[chunk])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * slabbed.c[chunk].nbytes, peak / slabbed.c[chunk].nbytes
    monkeypatch.setattr(compressible, "REDUCTION_SLAB", len(slabbed.times))
    whole = compressible.Trajectory(ops, params, slabbed.dt, slabbed.times, slabbed.coupling)
    whole(0, slabbed.c, slabbed.q)
    assert len(slabbed.times) == 550
    for name in ("kinetic", "acoustic", "energy", "h01", "div", "mass", "momentum", "dissipation", "work"):
        assert np.array_equal(getattr(slabbed, name), getattr(whole, name)), name


@pytest.mark.memory
def test_simulate_compressible_holds_no_state_history(ops8):
    """10,001 nodes at n = 8: unless it stores its states the run's peak stays below one
    (N+1) x m array, the states it no longer stores (16.7 MB)."""
    params = dataclasses.replace(stepper_params(ops8.spec, time_dependent=True)[0], dt=1e-4)
    tracemalloc.start()
    try:
        traj = simulate_compressible(ops8.spec, ops8, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    history = len(traj.times) * (ops8.spec.m_u + ops8.spec.m_p) * 8
    assert len(traj.times) == 10001 and traj.c is None and traj.q is None
    assert peak < history, peak / history


def test_stored_states_are_the_chunks_of_the_march(ops8):
    params, _ = stepper_params(ops8.spec, time_dependent=True)
    traj = simulate_compressible(ops8.spec, ops8, params, store_states=True)
    _, times, _, chunks = compressible.compressible_chunks(ops8, params)
    # each later chunk's row 0 is the previous chunk's last node
    starts, states = zip(*((start, np.hstack([c, q])[min(start, 1) :]) for start, c, q in chunks))
    assert starts == (0, 256, 512)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(np.hstack([traj.c, traj.q]), np.vstack(states))


def assert_chunks_share_their_boundary_node(chunks):
    """A 549-step march's chunks start at nodes 0, 256 and 512, and each later chunk's row 0
    is the previous chunk's last row, bit for bit, in every array that the chunk yields."""
    starts, last = [], None
    for start, *arrays in chunks:
        if last is not None:
            assert [array[0].tobytes() for array in arrays] == last, start
        starts.append(start)
        last = [array[-1].tobytes() for array in arrays]
    assert starts == [0, compressible.STEP_CHUNK, 2 * compressible.STEP_CHUNK]


@pytest.mark.parametrize("time_dependent", [False, True])
def test_chunks_share_their_boundary_node(ops4, ops8, time_dependent):
    """At n = 4 the step system is one block; at n = 8 stepper_params' force splits it in two."""
    for ops in (ops4, ops8):
        params, _ = stepper_params(ops.spec, time_dependent)
        assert_chunks_share_their_boundary_node(compressible.compressible_chunks(ops, params)[3])


@pytest.mark.parametrize("step", [1, 256, 257, 300, 549])
@pytest.mark.parametrize("source", ["s", "sigma"])
def test_nan_load_factor_fails_the_march_at_its_step(ops4, source, step):
    """A load factor that is NaN at node k reaches w_{k-1} and w_k, and step k is the first to
    read it: the gate names step k, also where step k - 1 is in the same chunk."""
    params, _ = stepper_params(ops4.spec, time_dependent=True)
    field = getattr(params, source)
    nan_at_step = lambda t: np.nan if round(549 * t) == step else field.time_factor(t)  # noqa: E731
    params = dataclasses.replace(params, **{source: dataclasses.replace(field, time_factor=nan_at_step)})
    with pytest.raises(StepFailure, match=f"^step {step} at t = {step / 549:.6g}: relative residual nan"):
        simulate_compressible(ops4.spec, ops4, params)


def test_storing_the_states_changes_no_series_ledger_or_verdict(ops8):
    params, _ = stepper_params(ops8.spec, time_dependent=True)
    stored = simulate_compressible(ops8.spec, ops8, params, store_states=True)
    reduced = simulate_compressible(ops8.spec, ops8, params)
    assert reduced.c is None and reduced.q is None
    for name in ("energy", "h01", "div", "mass"):
        assert np.array_equal(getattr(stored, name), getattr(reduced, name)), name
    ledgers = [energy_ledger(ops8, params, traj) for traj in (stored, reduced)]
    for name in ("interval_midpoints", "per_step", "cumulative", "dissipation", "work"):
        assert np.array_equal(getattr(ledgers[0], name), getattr(ledgers[1], name)), name
    reports = [apriori_check(ops8, params, traj) for traj in (stored, reduced)]
    verdicts = [(r.est1_ok, r.est2_ok, r.certificate.ok, r.e_data) for r in reports]
    assert verdicts[0] == verdicts[1] and reports[0].ok
    # e_data's initial norms come from the series, at roundoff from the stored node 0
    c0, q0 = stored.c[0], stored.q[0]
    u0_l2, p0_l2 = np.sqrt(c0 @ (ops8.mass_diag * c0)), np.linalg.norm(q0)
    assert np.sqrt(reduced.kinetic[0]) == pytest.approx(u0_l2, rel=1e-15)
    assert np.sqrt(reduced.acoustic[0]) == pytest.approx(p0_l2, rel=1e-15)


def test_a_run_that_stored_no_states_refuses_its_state_readers_in_one_line(spec4, ops4):
    kernel = ops4.kernel
    params = CompressibleParams(alpha=0.05, T=0.3, dt=0.01, u0=VelocityCoeffs(spec4, kernel[:, 0].copy()))
    traj = simulate_compressible(spec4, ops4, params)
    ref = simulate_incompressible(spec4, ops4, kernel, params)
    probes = limits.probe_dictionary(ops4, 2, seed=1)
    readers = {
        "pressure_at": lambda: traj.pressure_at(0),
        "density": lambda: traj.density(0, np.array([[0.25, 0.5]])),
        "x_alpha": lambda: limits.x_alpha(ops4, params, traj, ref),
        "weak_probe": lambda: limits.weak_probe(traj, ref, probes, ops4),
        "coefficients_table": lambda: csvio.coefficients_table(traj),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match="store_states=True") as raised:
            read()
        assert "\n" not in str(raised.value), name


def test_a_time_factor_of_one_gives_the_bits_of_no_time_factor(ops4, ops8, monkeypatch):
    """A load whose time factor is 1 takes crank_nicolson's path for timed sources and the Stokes
    march's trapezoid of factors; one without takes the constant vector and the plain w.  So does
    the whole load g as one piece, [(g, one)] against [(g, None)], on the two blocks of the n = 8
    system and the Stokes diagonal block."""
    one = lambda t: 1.0  # noqa: E731

    def with_factors(params, s_fac, sigma_fac):
        return dataclasses.replace(
            params,
            s=dataclasses.replace(params.s, time_factor=s_fac),
            sigma=dataclasses.replace(params.sigma, time_factor=sigma_fac),
        )

    for ops in (ops4, ops8):
        params = stepper_params(ops.spec, time_dependent=False)[0]
        plain = simulate_compressible(ops.spec, ops, params, store_states=True)
        for s_fac, sigma_fac in ((one, None), (None, one), (one, one)):
            factored = with_factors(params, s_fac, sigma_fac)
            traj = simulate_compressible(ops.spec, ops, factored, store_states=True)
            for name in ("c", "q", "energy", "work"):
                assert np.array_equal(getattr(traj, name), getattr(plain, name)), (ops.spec.n_u, name)
        limit = dataclasses.replace(params, sigma=None)
        plain = simulate_incompressible(ops.spec, ops, ops.kernel, limit, store_states=True)
        factored = dataclasses.replace(with_factors(params, one, None), sigma=None)  # the limit has no sigma
        traj = simulate_incompressible(ops.spec, ops, ops.kernel, factored, store_states=True)
        for name in ("y", "q", "energy_residual"):
            assert np.array_equal(getattr(traj, name), getattr(plain, name)), (ops.spec.n_u, name)

    params = stepper_params(ops8.spec, time_dependent=False)[0]
    march, runs = compressible.crank_nicolson, []
    for fac in (None, one):

        def joined(a, blocks, y0, times, sources, fac=fac):
            return march(a, blocks, y0, times, [(np.concatenate([vec for vec, _ in sources]), fac)])

        with monkeypatch.context() as patch:
            for module in (compressible, incompressible):
                patch.setattr(module, "crank_nicolson", joined)
            traj = simulate_compressible(ops8.spec, ops8, params, store_states=True)
            limit = dataclasses.replace(params, sigma=None)
            stokes = simulate_incompressible(ops8.spec, ops8, ops8.kernel, limit, store_states=True)
            runs.append((traj.c, traj.q, stokes.y))
    for name, plain, factored in zip(("c", "q", "y"), *runs):
        assert np.array_equal(factored, plain), name
