import dataclasses

import numpy as np
import pytest
import scipy.linalg

import complim.compressible as compressible
from complim import (
    CompressibleParams,
    EmptyKernel,
    StepFailure,
    SampledField,
    VelocityCoeffs,
    assemble,
    build_basis,
    grad_inverse,
    initial_pressure,
    leray_project,
    nullspace_basis,
    shift_pressure_mean,
    simulate_incompressible,
)
from complim.basis import eval_field, velocity_load_vector


def test_nullspace_invariants(ops4, kernel4):
    z = kernel4.z
    assert np.abs(ops4.div_coupling[1:] @ z).max() <= 1e-12
    gram = z.T @ (ops4.mass_diag[:, None] * z)
    assert np.abs(gram - np.eye(kernel4.m_v)).max() <= 1e-12


def test_nullspace_dimension_matches_rank_nullity(ops4):
    null = scipy.linalg.null_space(ops4.div_coupling[1:])
    assert nullspace_basis(ops4).m_v == null.shape[1]
    assert nullspace_basis(ops4).m_v == ops4.spec.m_u - ops4.b_rank


def test_empty_kernel_at_smallest_truncation():
    ops = assemble(build_basis(1, 1))
    with pytest.raises(EmptyKernel):
        nullspace_basis(ops)


def test_zero_run(spec4, ops4, kernel4):
    params = CompressibleParams(T=0.3, dt=0.01)
    traj = simulate_incompressible(spec4, ops4, kernel4, params)
    assert np.all(traj.c == 0.0)
    assert np.all(traj.q == 0.0)


def test_matrix_exponential_oracle_unforced():
    spec = build_basis(2, 2)
    ops = assemble(spec)
    basis = nullspace_basis(ops)
    errs = []
    for dt in (0.02, 0.01):
        params = CompressibleParams(
            rho0=1.2, mu=0.8, alpha=0.05, T=1.0, dt=dt,
            u0=VelocityCoeffs(spec, basis.z[:, 0].copy()),
        )
        traj = simulate_incompressible(spec, ops, basis, params)
        stiff = basis.z.T @ basis.z
        ref = np.array(
            [scipy.linalg.expm(-params.mu / params.rho0 * stiff * t) @ traj.y[0] for t in traj.times]
        )
        errs.append(np.abs(traj.y - ref).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_matrix_exponential_oracle_forced():
    # (2,1) has a 5-dimensional kernel; force with a linear-in-time factor and
    # compare with the augmented-exponential solution of the affine system
    spec = build_basis(2, 1)
    ops = assemble(spec)
    basis = nullspace_basis(ops)
    f = SampledField.of_vector(
        lambda x, y: np.cos(np.pi * x), lambda x, y: 0.3 * np.ones_like(x),
        time_factor=lambda t: 1.0 + t,
    )
    rng = np.random.default_rng(3)
    u0 = VelocityCoeffs(spec, basis.z @ rng.standard_normal(basis.m_v))
    errs = []
    for dt in (0.02, 0.01):
        params = CompressibleParams(rho0=1.2, mu=0.8, alpha=0.05, T=1.0, dt=dt, s=f.scaled(1.2), u0=u0)
        traj = simulate_incompressible(spec, ops, basis, params)
        stiff = basis.z.T @ basis.z
        m_v = basis.m_v
        load = basis.z.T @ velocity_load_vector(spec, f)  # rho0 cancels in y' = ... / rho0
        aug = np.zeros((m_v + 2, m_v + 2))
        aug[:m_v, :m_v] = -params.mu / params.rho0 * stiff
        aug[:m_v, m_v] = load
        aug[:m_v, m_v + 1] = load
        aug[m_v + 1, m_v] = 1.0
        y0 = np.concatenate([traj.y[0], [1.0], [0.0]])
        ref = np.array([(scipy.linalg.expm(aug * t) @ y0)[:m_v] for t in traj.times])
        errs.append(np.abs(traj.y - ref).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def forced_params(dt, time_factor=None):
    # rotational force (nonzero curl), so it actually works on solenoidal fields;
    # the Stokes system reads its momentum source s = rho0 f
    f = SampledField.of_vector(
        lambda x, y: np.cos(np.pi * y),
        lambda x, y: 0.4 * np.cos(np.pi * x),
        time_factor=time_factor,
    )
    u0 = SampledField.of_vector(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: 0.0 * x
    )
    return CompressibleParams(rho0=1.1, mu=0.7, alpha=0.05, T=1.0, dt=dt, s=f.scaled(1.1), u0=u0)


def test_stokes_source_is_s_not_f(spec4, ops4, kernel4):
    # f only couples the pressure in the compressible step; the Stokes limit reads s
    params = forced_params(0.01)
    with_f = dataclasses.replace(params, f=params.s.scaled(1.0 / params.rho0))
    assert np.array_equal(
        simulate_incompressible(spec4, ops4, kernel4, with_f).q,
        simulate_incompressible(spec4, ops4, kernel4, params).q,
    )


def test_energy_equality_exact_for_static_force(spec4, ops4, kernel4):
    traj = simulate_incompressible(spec4, ops4, kernel4, forced_params(0.005))
    scale = max(1.0, traj.energy.max())
    assert np.abs(np.cumsum(traj.energy_residual)).max() <= 1e-12 * scale


def test_energy_equality_second_order(spec4, ops4, kernel4):
    cums = []
    for dt in (0.01, 0.005):
        traj = simulate_incompressible(
            spec4, ops4, kernel4, forced_params(dt, time_factor=lambda t: 1.0 + t * t)
        )
        cums.append(np.abs(np.cumsum(traj.energy_residual)).max())
    assert 3.5 <= cums[0] / cums[1] <= 4.5


def test_solenoidality_preserved_and_monotone_decay(spec4, ops4, kernel4):
    rng = np.random.default_rng(9)
    u0 = VelocityCoeffs(spec4, rng.standard_normal(spec4.m_u))
    params = CompressibleParams(T=0.8, dt=0.01, u0=u0)
    traj = simulate_incompressible(spec4, ops4, kernel4, params)
    assert np.abs(ops4.div_coupling[1:] @ traj.c.T).max() <= 1e-10
    l2 = np.linalg.norm(traj.y, axis=1)
    assert np.all(np.diff(l2) <= 1e-14)
    # the initial node is the Leray projection of the projected data
    expected0 = leray_project(ops4, u0).solenoidal.values
    assert np.abs(traj.c[0] - expected0).max() <= 1e-12


def test_pressure_recovery_galerkin_orthogonal(spec4, ops4, kernel4):
    traj = simulate_incompressible(spec4, ops4, kernel4, forced_params(0.01))
    params = forced_params(0.01)
    z = kernel4.z
    stiff = z.T @ z
    load = velocity_load_vector(spec4, params.s)
    for n in (0, 17, traj.n_steps):
        ydot = (z.T @ load - params.mu * stiff @ traj.y[n]) / params.rho0
        g = load - params.rho0 * ops4.mass_diag * (z @ ydot) - params.mu * traj.c[n]
        residual = g + ops4.div_coupling.T @ traj.q[n]
        assert np.abs(z.T @ residual).max() <= 1e-10


def test_initial_pressure_trivial_and_constructed(spec4, ops4):
    zero = initial_pressure(ops4, CompressibleParams(u0=VelocityCoeffs(spec4, np.zeros(spec4.m_u))))
    assert np.all(zero.values == 0.0)

    # force chosen so the t=0 momentum residual is exactly -B'q*
    rng = np.random.default_rng(12)
    qstar = np.zeros(spec4.m_p)
    qstar[1:] = ops4.div_coupling[1:] @ rng.standard_normal(spec4.m_u)
    load_target = -(ops4.div_coupling.T @ qstar)
    coeffs = VelocityCoeffs(spec4, load_target / ops4.mass_diag)

    def component(k):
        def fn(x, y):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            pts = np.stack([np.broadcast_to(x, shape), np.broadcast_to(y, shape)], axis=-1)
            return eval_field(spec4, coeffs, pts)[..., k]

        return fn

    f = SampledField.of_vector(component(0), component(1))
    u0 = VelocityCoeffs(spec4, np.zeros(spec4.m_u))
    q0 = initial_pressure(ops4, CompressibleParams(rho0=1.0, mu=1.0, s=f, u0=u0))
    assert np.abs(q0.values - qstar).max() <= 1e-8 * max(1.0, np.abs(qstar).max())


def test_initial_pressure_matches_short_time_limit(spec4, ops4, kernel4):
    u0 = VelocityCoeffs(spec4, kernel4.z[:, 0].copy())
    q0 = initial_pressure(ops4, CompressibleParams(rho0=1.0, mu=1.0, u0=u0))
    gaps = []
    for dt in (0.02, 0.01, 0.005):
        params = CompressibleParams(T=1.0, dt=dt, u0=u0)
        traj = simulate_incompressible(spec4, ops4, kernel4, params)
        assert np.abs(traj.q[0] - q0.values).max() <= 1e-12
        gaps.append(np.linalg.norm(traj.q[1] - q0.values))
    assert gaps[0] > gaps[1] > gaps[2]


def test_initial_pressure_rejects_nonsolenoidal(spec4, ops4):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        initial_pressure(
            ops4, CompressibleParams(u0=VelocityCoeffs(spec4, rng.standard_normal(spec4.m_u)))
        )


def test_shift_pressure_mean(spec4, ops4, kernel4):
    traj = simulate_incompressible(spec4, ops4, kernel4, forced_params(0.01))
    same = shift_pressure_mean(traj, 0.0)
    assert np.array_equal(same.q, traj.q)
    shifted = shift_pressure_mean(traj, 2.5)
    assert np.all(shifted.q[:, 0] == 2.5)
    twice = shift_pressure_mean(shifted, 2.5)
    assert np.array_equal(twice.q, shifted.q)
    # the represented gradient is untouched
    assert np.abs(
        ops4.div_coupling.T @ shifted.q.T - ops4.div_coupling.T @ traj.q.T
    ).max() == 0.0


def reduced_march(basis, ops, params, dt):
    z = basis.z
    stiff = z.T @ z
    lhs = params.rho0 * np.eye(basis.m_v) + 0.5 * dt * params.mu * stiff
    rhs_mat = params.rho0 * np.eye(basis.m_v) - 0.5 * dt * params.mu * stiff
    lu = scipy.linalg.lu_factor(lhs)
    f_vec = velocity_load_vector(basis.spec, params.s)
    c0 = leray_project(ops, VelocityCoeffs(basis.spec, params.u0.values)).solenoidal.values
    y = z.T @ (ops.mass_diag * c0)
    ys = [y]
    for n in range(round(params.T / dt)):
        g_prev = z.T @ (f_vec * params.s.at_time(n * dt))
        g_next = z.T @ (f_vec * params.s.at_time((n + 1) * dt))
        rhs = rhs_mat @ y + 0.5 * dt * (g_prev + g_next)
        y = scipy.linalg.lu_solve(lu, rhs)
        ys.append(y)
    return np.array(ys)


def long_forced_params(spec, time_factor=None):
    # 549 steps: more than two residual-gate chunks and not a multiple of the chunk size
    assert 549 > 2 * compressible.STEP_CHUNK and 549 % compressible.STEP_CHUNK
    params = forced_params(1.0 / 549, time_factor)
    rng = np.random.default_rng(21)
    return dataclasses.replace(params, u0=VelocityCoeffs(spec, rng.standard_normal(spec.m_u)))


def test_stepper_bitwise_equal_to_lu_solve_loop_for_constant_force(spec4, ops4, kernel4):
    params = long_forced_params(spec4)
    traj = simulate_incompressible(spec4, ops4, kernel4, params)
    assert traj.n_steps == 549
    assert np.array_equal(traj.y, reduced_march(kernel4, ops4, params, 1.0 / 549))


def test_stepper_matches_lu_solve_loop_for_time_dependent_force(spec4, ops4, kernel4):
    params = long_forced_params(spec4, time_factor=lambda t: np.cos(3.0 * t))
    traj = simulate_incompressible(spec4, ops4, kernel4, params)
    expected = reduced_march(kernel4, ops4, params, 1.0 / 549)
    assert np.abs(traj.y - expected).max() <= 1e-12 * np.abs(expected).max()


def test_step_residual_gate_reports_first_step(spec4, ops4, kernel4, monkeypatch):
    monkeypatch.setattr(compressible, "STEP_RESIDUAL_RTOL", 0.0)
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_incompressible(spec4, ops4, kernel4, forced_params(0.01))


def test_nonfinite_state_raises_step_failure(spec4, ops4, kernel4):
    u0 = VelocityCoeffs(spec4, kernel4.z[:, 0].copy())
    u0.values[2] = np.nan
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_incompressible(spec4, ops4, kernel4, CompressibleParams(T=0.1, dt=0.01, u0=u0))


def test_batched_pressure_recovery_matches_nodewise_grad_inverse(spec4, ops4, kernel4):
    params = long_forced_params(spec4, time_factor=lambda t: 1.0 + t)
    traj = simulate_incompressible(spec4, ops4, kernel4, params)
    z = kernel4.z
    stiff = z.T @ z
    load = velocity_load_vector(spec4, params.s)
    for n in range(0, traj.n_steps + 1, 7):
        F = load * params.s.at_time(traj.times[n])
        ydot = (z.T @ F - params.mu * (stiff @ traj.y[n])) / params.rho0
        g = F - params.rho0 * ops4.mass_diag * (z @ ydot) - params.mu * traj.c[n]
        g -= ops4.mass_diag * (z @ (z.T @ g))
        expected = grad_inverse(ops4, g).values
        assert np.abs(traj.q[n] - expected).max() <= 1e-12 * np.abs(expected).max()
