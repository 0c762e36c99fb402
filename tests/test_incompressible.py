import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import complim.compressible as compressible
import complim.incompressible as incompressible
from complim import (
    CompressibleParams,
    EmptyKernel,
    StepFailure,
    SampledField,
    VelocityCoeffs,
    assemble,
    blas,
    build_basis,
    grad_inverse,
    initial_pressure,
    leray_project,
    nullspace_basis,
    simulate_incompressible,
    sweep_alpha,
)
from complim.basis import eval_field, velocity_load_vector
from complim.presets import velocity_preset

from test_compressible import assert_chunks_share_their_boundary_node


def test_nullspace_invariants(ops4, kernel4):
    z = kernel4
    assert np.abs(ops4.div_coupling[1:] @ z).max() <= 1e-12
    gram = z.T @ (ops4.mass_diag[:, None] * z)
    assert np.abs(gram - np.eye(kernel4.shape[1])).max() <= 1e-12


def test_nullspace_dimension_matches_rank_nullity(ops4):
    null = scipy.linalg.null_space(ops4.div_coupling[1:])
    assert nullspace_basis(ops4).shape[1] == null.shape[1]
    assert nullspace_basis(ops4).shape[1] == ops4.spec.m_u - ops4.b_rank


def test_empty_kernel_at_smallest_truncation():
    ops = assemble(build_basis(1, 1))
    params = CompressibleParams(T=0.1, dt=0.01)
    # every path to the kernel goes through nullspace_basis's check
    for reach_kernel in (
        lambda: nullspace_basis(ops),
        lambda: simulate_incompressible(ops.spec, ops, ops.kernel, params),
        lambda: initial_pressure(ops, params),
        lambda: sweep_alpha(ops, params, (1e-1, 1e-2, 1e-3)),
        lambda: velocity_preset("solenoidal_u0", ops),
        lambda: velocity_preset("mixed_u0", ops),
    ):
        with pytest.raises(EmptyKernel, match="no solenoidal modes"):
            reach_kernel()


def test_zero_run(spec4, ops4, kernel4):
    params = CompressibleParams(T=0.3, dt=0.01)
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
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
            u0=VelocityCoeffs(spec, basis[:, 0].copy()),
        )
        traj = simulate_incompressible(spec, ops, basis, params, store_states=True)
        stiff = basis.T @ basis
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
    u0 = VelocityCoeffs(spec, basis @ rng.standard_normal(basis.shape[1]))
    errs = []
    for dt in (0.02, 0.01):
        params = CompressibleParams(rho0=1.2, mu=0.8, alpha=0.05, T=1.0, dt=dt, s=f.scaled(1.2), u0=u0)
        traj = simulate_incompressible(spec, ops, basis, params, store_states=True)
        stiff = basis.T @ basis
        m_v = basis.shape[1]
        load = basis.T @ velocity_load_vector(spec, f)  # rho0 cancels in y' = ... / rho0
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
        simulate_incompressible(spec4, ops4, kernel4, with_f, store_states=True).q,
        simulate_incompressible(spec4, ops4, kernel4, params, store_states=True).q,
    )


def test_energy_equality_exact_for_static_force(spec4, ops4, kernel4):
    traj = simulate_incompressible(spec4, ops4, kernel4, forced_params(0.005))
    scale = max(1.0, traj.energy.max())
    assert np.abs(np.cumsum(traj.energy_residual)).max() <= 1e-12 * scale


def test_energy_residual_is_the_compressible_ledger_identity(spec4, ops4, kernel4):
    # I(t_{n+1}) - I(t_n) + dt mu |u_mid|^2_H10 - dt (s(t_mid), u_mid), recomputed from
    # traj.c over 500 steps (two chunks of the march); the time-dependent source keeps
    # the defect O(dt^3) above roundoff, so a multiple of it would not pass
    params = forced_params(0.002, time_factor=lambda t: 1.0 + t * t)
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    energy = 0.5 * params.rho0 * np.einsum("ni,i,ni->n", traj.c, ops4.mass_diag, traj.c)
    c_mid = 0.5 * (traj.c[1:] + traj.c[:-1])
    t_mid = 0.5 * (traj.times[1:] + traj.times[:-1])
    dissipation = traj.dt * params.mu * np.einsum("ni,ni->n", c_mid, c_mid)
    s_t = np.array([params.s.at_time(t) for t in t_mid])
    work = traj.dt * (c_mid @ velocity_load_vector(spec4, params.s)) * s_t
    defect = np.diff(energy) + dissipation - work
    # I from c'Mc rounds otherwise than from y'y, by a few ulps of I itself
    scale = np.abs(np.diff(energy)) + dissipation + np.abs(work) + energy[1:]
    assert np.all(np.abs(defect) > 1e-12 * scale)
    assert np.all(np.abs(traj.energy_residual - defect) <= 1e-12 * scale)


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
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    assert np.abs(ops4.div_coupling[1:] @ traj.c.T).max() <= 1e-10
    l2 = np.linalg.norm(traj.y, axis=1)
    assert np.all(np.diff(l2) <= 1e-14)
    # the initial node is the Leray projection of the projected data
    expected0 = leray_project(ops4, u0).solenoidal.values
    assert np.abs(traj.c[0] - expected0).max() <= 1e-12


def test_pressure_recovery_galerkin_orthogonal(spec4, ops4, kernel4):
    traj = simulate_incompressible(spec4, ops4, kernel4, forced_params(0.01), store_states=True)
    params = forced_params(0.01)
    z = kernel4
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


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("timed", [False, True], ids=["s_constant", "s_timed"])
def test_initial_pressure_is_the_node0_pressure_bit_for_bit(n, timed):
    ops = assemble(build_basis(n, n))
    force = SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x))
    s = SampledField(spatial=force.spatial, vector=True, time_factor=(lambda t: 1.5 + t) if timed else None)
    u0 = velocity_preset("solenoidal_u0", ops)
    params = CompressibleParams(rho0=2.0, mu=0.5, T=0.3, dt=0.001, s=s, u0=u0)
    traj = simulate_incompressible(ops.spec, ops, ops.kernel, params, store_states=True)
    assert traj.n_steps > incompressible.STEP_CHUNK
    assert np.array_equal(initial_pressure(ops, params).values, traj.q[0])
    assert not np.signbit(traj.q[:, 0]).any() and np.all(traj.q[:, 0] == 0.0)  # the mean prints as 0


def test_initial_pressure_does_not_read_dt(ops8):
    """Node 0 of the one-step march that initial_pressure takes does not depend on dt."""
    params = long_forced_params(ops8.spec, time_factor=lambda t: 1.5 + t)
    params = dataclasses.replace(params, u0=velocity_preset("solenoidal_u0", ops8))
    bits = [initial_pressure(ops8, dataclasses.replace(params, dt=dt)).values.tobytes() for dt in (None, 1e-3, 0.37)]
    assert bits[0] == bits[1] == bits[2]
    assert np.any(np.frombuffer(bits[0]) != 0.0)


def test_load_in_the_span_of_m_z_has_no_pressure(spec4, ops4, kernel4):
    # s = M Z a (built as in test_initial_pressure_trivial_and_constructed) is a solenoidal load:
    # its residual s - M Z Z's is roundoff, which the map keeps at exact zeros
    rng = np.random.default_rng(5)
    coeffs = VelocityCoeffs(spec4, kernel4 @ rng.standard_normal(kernel4.shape[1]))

    def component(k):
        def fn(x, y):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            pts = np.stack([np.broadcast_to(x, shape), np.broadcast_to(y, shape)], axis=-1)
            return eval_field(spec4, coeffs, pts)[..., k]

        return fn

    s = SampledField.of_vector(component(0), component(1))
    s_vec = velocity_load_vector(spec4, s)
    assert np.abs(kernel4.T @ s_vec).max() > 0.1
    lam = np.einsum("ij,ij->j", kernel4, kernel4)
    _, q_s = incompressible._pressure_map(ops4, lam, 0.7, s_vec)
    assert np.all(q_s == 0.0)
    u0 = VelocityCoeffs(spec4, np.zeros(spec4.m_u))
    assert np.all(initial_pressure(ops4, CompressibleParams(mu=0.7, s=s, u0=u0)).values == 0.0)


def test_initial_pressure_matches_short_time_limit(spec4, ops4, kernel4):
    u0 = VelocityCoeffs(spec4, kernel4[:, 0].copy())
    q0 = initial_pressure(ops4, CompressibleParams(rho0=1.0, mu=1.0, u0=u0))
    gaps = []
    for dt in (0.02, 0.01, 0.005):
        params = CompressibleParams(T=1.0, dt=dt, u0=u0)
        traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
        assert np.abs(traj.q[0] - q0.values).max() <= 1e-12
        gaps.append(np.linalg.norm(traj.q[1] - q0.values))
    assert gaps[0] > gaps[1] > gaps[2]


def test_initial_pressure_rejects_nonsolenoidal(spec4, ops4):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        initial_pressure(
            ops4, CompressibleParams(u0=VelocityCoeffs(spec4, rng.standard_normal(spec4.m_u)))
        )


def reduced_march(z, ops, params, dt):
    stiff = z.T @ z
    lhs = params.rho0 * np.eye(z.shape[1]) + 0.5 * dt * params.mu * stiff
    rhs_mat = params.rho0 * np.eye(z.shape[1]) - 0.5 * dt * params.mu * stiff
    lu = scipy.linalg.lu_factor(lhs)
    f_vec = velocity_load_vector(ops.spec, params.s)
    c0 = leray_project(ops, VelocityCoeffs(ops.spec, params.u0.values)).solenoidal.values
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


def test_stepper_matches_lu_solve_loop_for_constant_force(spec4, ops4, kernel4):
    # the march steps each mode with the diagonal of Z'Z, to which the dense Z'Z
    # of the LU loop is equal up to roundoff, hence 1e-12 relative, not bitwise
    params = long_forced_params(spec4)
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    assert traj.n_steps == 549
    expected = reduced_march(kernel4, ops4, params, 1.0 / 549)
    assert np.abs(traj.y - expected).max() <= 1e-12 * np.abs(expected).max()


def test_stepper_matches_lu_solve_loop_for_time_dependent_force(spec4, ops4, kernel4):
    params = long_forced_params(spec4, time_factor=lambda t: np.cos(3.0 * t))
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    expected = reduced_march(kernel4, ops4, params, 1.0 / 549)
    assert np.abs(traj.y - expected).max() <= 1e-12 * np.abs(expected).max()


def elementwise_stokes_march(ops, params):
    """The Stokes march as its own loop stepped it, mode by mode: den y_{n+1} = num y_n + w_n,
    den, num = rho0 +- dt mu lam / 2 with lam = |Z_j|^2, w_n = dt/2 (fac(t_n) + fac(t_{n+1})) Z's,
    and w_n = dt Z's for a load without a time factor.  (y, fac(t)) at every node."""
    z, spec = ops.kernel, ops.spec
    dt, times = compressible.time_grid(params.validate(spec.n_u), params.T)
    s_vec = np.zeros(spec.m_u) if params.s is None else velocity_load_vector(spec, params.s)
    s_fac = getattr(params.s, "time_factor", None)
    fac = np.array([1.0 if s_fac is None else s_fac(t) for t in times])
    lam = np.einsum("ij,ij->j", z, z)
    half = 0.5 * dt * params.mu * lam
    den, num = params.rho0 + half, params.rho0 - half
    w = dt * (z.T @ s_vec)
    c0 = leray_project(ops, VelocityCoeffs(spec, params.u0.values)).solenoidal.values
    y = np.empty((len(times), len(lam)))
    y[0] = z.T @ (ops.mass_diag * c0)
    for k in range(len(times) - 1):
        rhs = num * y[k]
        rhs += w if s_fac is None else 0.5 * (fac[k] + fac[k + 1]) * w
        np.divide(rhs, den, out=y[k + 1])
    return y, fac


@pytest.mark.parametrize("load", ["no_s", "s", "s_timed"])
@pytest.mark.parametrize("n_u, n_p", [(3, 3), (4, 4), (5, 3), (8, 8)])
def test_stokes_chunks_follow_the_elementwise_march(n_u, n_p, load):
    """stokes_chunks' y, c = Z y and q = y Q + fac(t) q_s against the elementwise recurrence over
    549 steps (three chunks), c and q formed from it chunk by chunk as the march forms them: bit
    for bit without a time factor.  With s(t) = (1 + t) s(x) the march forms w as
    dt/2 (fac(t_n) Z's + fac(t_{n+1}) Z's), which rounds otherwise: 549 steps of it left y within
    5 ulps of each mode's largest value, c within 5 and q within 1 ulp of its largest entry (c's
    columns mix modes, some cancelling to roundoff), so the bound is 8 ulps."""
    ops = assemble(build_basis(n_u, n_p))
    params = long_forced_params(ops.spec, (lambda t: 1.0 + t) if load == "s_timed" else None)
    params = dataclasses.replace(params, s=None) if load == "no_s" else params
    y, fac = elementwise_stokes_march(ops, params)
    s_vec = np.zeros(ops.spec.m_u) if params.s is None else velocity_load_vector(ops.spec, params.s)
    lam = np.einsum("ij,ij->j", ops.kernel, ops.kernel)
    Q, q_s = incompressible._pressure_map(ops, lam, params.mu, s_vec)
    q0 = y[0] @ Q + fac[0] * q_s
    _, _, chunks = incompressible.stokes_chunks(ops, params)
    c, q = y @ ops.kernel.T, y @ Q + fac[:, None] * q_s  # the timed load's scales only
    scales = {"y": np.abs(y).max(axis=0), "c": np.abs(c).max(), "q": np.abs(q).max()}
    for start, *arrays in chunks:
        rows = slice(start, start + len(arrays[0]))
        q = np.vstack([q0, y[rows][1:] @ Q + fac[rows][1:, None] * q_s])
        q0 = q[-1]
        for name, have, want in zip("ycq", arrays, (y[rows], y[rows] @ ops.kernel.T, q)):
            if load != "s_timed":
                assert np.array_equal(have, want), (name, start)
            else:
                assert np.all(np.abs(have - want) <= 8 * np.spacing(scales[name])), (name, start)


def test_step_residual_gate_reports_first_step(spec4, ops4, kernel4, monkeypatch):
    # a per-mode step can leave a residual of exactly 0, so 0 is not a failing tolerance
    monkeypatch.setattr(compressible, "STEP_RESIDUAL_RTOL", -1.0)
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_incompressible(spec4, ops4, kernel4, forced_params(0.01))


@pytest.mark.parametrize("step", [1, 256, 257, 300, 549])
def test_nan_load_factor_fails_the_reference_at_its_step(spec4, ops4, kernel4, step):
    """A load factor that is NaN at node k fails step k, and a failing reference aborts a sweep."""
    params = long_forced_params(spec4, time_factor=lambda t: np.nan if round(549 * t) == step else np.cos(t))
    message = f"^step {step} at t = {step / 549:.6g}: relative residual "
    with pytest.raises(StepFailure, match=message):
        simulate_incompressible(spec4, ops4, kernel4, params)
    with pytest.raises(StepFailure, match=message):
        sweep_alpha(ops4, params, (1e-1, 1e-2, 1e-3), probes=4)


def test_simulate_incompressible_factors_and_solves_nothing(spec4, ops4, kernel4, monkeypatch):
    """The Stokes march is one crank_nicolson block whose (dt/2) K is a vector, with no factor."""
    calls = []
    for name in ("getrf", "getrs"):
        monkeypatch.setattr(blas, name, lambda *args, name=name: calls.append(name))

    def march(a, blocks, *args):
        calls.append([half.ndim for _, half in blocks])
        return compressible.crank_nicolson(a, blocks, *args)

    monkeypatch.setattr(incompressible, "crank_nicolson", march)
    params = long_forced_params(spec4, np.cos)
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    assert calls == [[1]] and np.all(np.isfinite(traj.q))


def test_nonfinite_state_raises_step_failure(spec4, ops4, kernel4):
    u0 = VelocityCoeffs(spec4, kernel4[:, 0].copy())
    u0.values[2] = np.nan
    with pytest.raises(StepFailure, match="step 1 at t = "):
        simulate_incompressible(spec4, ops4, kernel4, CompressibleParams(T=0.1, dt=0.01, u0=u0))


def test_batched_pressure_recovery_matches_nodewise_grad_inverse(spec4, ops4, kernel4):
    params = long_forced_params(spec4, time_factor=lambda t: 1.0 + t)
    traj = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    z = kernel4
    stiff = z.T @ z
    load = velocity_load_vector(spec4, params.s)
    for n in range(0, traj.n_steps + 1, 7):
        F = load * params.s.at_time(traj.times[n])
        ydot = (z.T @ F - params.mu * (stiff @ traj.y[n])) / params.rho0
        g = F - params.rho0 * ops4.mass_diag * (z @ ydot) - params.mu * traj.c[n]
        g -= ops4.mass_diag * (z @ (z.T @ g))
        expected = grad_inverse(ops4, g).values
        assert np.abs(traj.q[n] - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("pinned", [False, True], ids=["default_threads", "one_thread"])
@pytest.mark.parametrize("n", [8, 16])
def test_trajectory_c_is_the_chunks_c_bit_for_bit(n, pinned, request):
    """The trajectory stores y and forms c = y Z' on access; over 549 steps (three chunks)
    that is the stacked c of stokes_chunks, bit for bit, which the CSVs were written from."""
    ops = request.getfixturevalue(f"ops{n}")
    params = long_forced_params(ops.spec, time_factor=np.cos)
    with blas.one_blas_thread() if pinned else contextlib.nullcontext():
        traj = simulate_incompressible(ops.spec, ops, ops.kernel, params, store_states=True)
        _, _, chunks = incompressible.stokes_chunks(ops, params)
        stacked = np.vstack([c[min(start, 1) :] for start, _, c, _ in chunks])  # row 0 repeats a node
    assert traj.kernel is ops.kernel and traj.c.shape == (550, ops.spec.m_u)
    assert np.array_equal(traj.c, stacked)


@pytest.mark.parametrize("time_factor", [None, np.cos], ids=["s_constant", "s_timed"])
def test_stokes_chunks_share_their_boundary_node(ops8, time_factor):
    """In y, c = Z y and q alike."""
    _, _, chunks = incompressible.stokes_chunks(ops8, long_forced_params(ops8.spec, time_factor))
    assert_chunks_share_their_boundary_node(chunks)


@pytest.mark.memory
def test_simulate_incompressible_holds_no_velocity_history(spec8, ops8):
    """10,001 nodes at n = 8: beyond the stored y and q the run's peak stays below one
    (N+1) x m_u array, the c it no longer stores (10.2 MB)."""
    params = forced_params(1e-4, time_factor=lambda t: 1.0 + t)
    tracemalloc.start()
    try:
        traj = simulate_incompressible(spec8, ops8, ops8.kernel, params, store_states=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    history = len(traj.times) * spec8.m_u * 8
    assert len(traj.times) == 10001 and peak < traj.y.nbytes + traj.q.nbytes + history


@pytest.mark.memory
@pytest.mark.parametrize("time_factor", [None, lambda t: 1.0 + t], ids=["s_constant", "s_timed"])
def test_a_stokes_run_without_states_keeps_the_series_bits(spec8, ops8, monkeypatch, time_factor):
    """Without store_states the run stores no y or q and forms no pressure map: over 10,001
    nodes at n = 8 its series are the stateful run's, bit for bit, its traced peak stays below a
    quarter of the y and q it no longer stores (10.4 MB), and stored_states refuses it in one line."""
    params = forced_params(1e-4, time_factor=time_factor)
    stored = simulate_incompressible(spec8, ops8, ops8.kernel, params, store_states=True)

    def no_pressure_map(*args):
        raise AssertionError("a run without states formed the pressure map")

    monkeypatch.setattr(incompressible, "_pressure_map", no_pressure_map)
    tracemalloc.start()
    try:
        bare = simulate_incompressible(spec8, ops8, ops8.kernel, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bare.y is None and bare.q is None and bare.c is None
    for name in ("times", "energy", "h01", "div", "energy_residual"):
        assert np.array_equal(getattr(bare, name), getattr(stored, name)), name
    states = stored.y.nbytes + stored.q.nbytes
    assert len(bare.times) == 10001 and peak < states / 4, peak / states
    with pytest.raises(ValueError, match="store_states=True") as raised:
        compressible.stored_states(bare)
    assert "\n" not in str(raised.value)
