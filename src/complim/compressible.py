"""Time integration of the linearized compressible system in coefficient space.

With c(t) the velocity coefficients and q(t) the pressure coefficients the
Galerkin equations read

    alpha dq/dt = sigma_vec(t) - rho0 B c,
    rho0 M dc/dt = B' q - mu c - eta E c + alpha G q + F(t),

where sigma_vec_k = (sigma, pressure mode k), F_i = <s, velocity mode i>
and G couples the pressure to the momentum through the body force f.  The
homogeneous problem is recovered by sigma = 0, s = rho0 f.

Stepping is trapezoidal (Crank-Nicolson): A-stable, so the acoustic block
with frequencies ~ 1/sqrt(alpha) imposes no stability restriction, second
order, and exactly dissipative on the unforced system.  One stepper,
:func:`crank_nicolson`, serves this system and the reduced Stokes system of
:mod:`complim.incompressible`: it holds two dense matrices, the LU factor
of the step matrix and the right-hand matrix, marches with one LAPACK
``getrs`` solve per step, checks the step residuals as one matrix product
per chunk of steps and hands each chunk of states to its caller.  The
caller pulls the chunks: :func:`simulate_compressible` stores them, and a
sweep row (:func:`compressible_chunks`) reduces them on the fly in
lockstep with the Stokes reference.  The discretization is the
``OperatorSet`` alone: its ``spec`` is the basis of every function here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np
import scipy.linalg

from .basis import (
    BasisSpec,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    coefficients_of,
    pressure_load_vector,
    velocity_load_vector,
)
from .inequalities import MixedConstants, ScalarTrajectory, mixed_bounds, verify_mixed
from .operators import OperatorSet, coupling_matrix

__all__ = [
    "CompressibleParams",
    "Trajectory",
    "EnergyLedger",
    "EstimateReport",
    "InvalidParams",
    "StepFailure",
    "default_dt",
    "crank_nicolson",
    "compressible_chunks",
    "simulate_compressible",
    "energy_ledger",
    "apriori_check",
]

STEP_RESIDUAL_RTOL = 1e-9
# steps per block of the residual gate and of the time-dependent loads
STEP_CHUNK = 256


class InvalidParams(ValueError):
    """Physical parameters violate their constraints."""


class StepFailure(RuntimeError):
    """A time-step linear solve exceeded the residual tolerance or produced non-finite values."""


def default_dt(alpha: float, n_u: int, T: float) -> float:
    """Step size resolving the fastest retained acoustic mode: min(T/200, sqrt(alpha)/(4 pi n_u))."""
    return min(T / 200.0, np.sqrt(alpha) / (4.0 * np.pi * n_u))


def time_grid(dt_req: float, T: float) -> tuple[float, np.ndarray]:
    """The uniform grid over [0, T] whose step is nearest to dt_req: (dt, times)."""
    n_steps = max(1, round(T / dt_req))
    dt = T / n_steps
    return dt, dt * np.arange(n_steps + 1)


def crank_nicolson(
    a: np.ndarray, half_k: np.ndarray, y0: np.ndarray, times: np.ndarray, load
) -> Iterator[tuple[int, np.ndarray]]:
    """March diag(a) dy/dt = K y + g(t) with Crank-Nicolson steps over a uniform grid.

    ``half_k`` is (dt/2) K, and the march takes it over: it becomes
    rhs_mat = diag(a) + (dt/2) K, and lhs = diag(a) - (dt/2) K is built
    once and LU-factored in place, so the march holds these two m x m
    matrices and no others.  Each step solves
    lhs y_{n+1} = rhs_mat y_n + dt/2 (g_n + g_{n+1}).  ``load`` is the
    constant vector g or maps k times to the (k, m) loads at them.

    A generator: it marches STEP_CHUNK steps at a time and yields
    ``(start, states)`` per chunk, states[k] being y at node start + k, a
    view of one chunk buffer that the next chunk overwrites.  The first
    chunk begins with y0 at node 0 and each later one at the node after the
    previous chunk's last, so the chunks tile nodes 0..N.  Before a chunk is
    yielded its residuals are checked as one matrix product; as lhs =
    2 diag(a) - rhs_mat, a step's residual is 2 a y_{n+1} - rhs_mat y_{n+1}
    - rhs_n.  StepFailure names the first step whose residual is not at most
    STEP_RESIDUAL_RTOL |rhs_n|, which includes non-finite states.
    """
    m = len(y0)
    half_diag = half_k.diagonal().copy()
    # 0 - x and x + 0 are exact and give +0.0 for a zero of either sign, as
    # diag(a) -/+ (dt/2) K do off the diagonal
    lhs = np.subtract(0.0, half_k, order="F")  # Fortran order: getrf factors it in place
    np.fill_diagonal(lhs, a - half_diag)
    lu, piv = scipy.linalg.lu_factor(lhs, overwrite_a=True)
    rhs_mat = np.add(half_k, 0.0, out=half_k)
    np.fill_diagonal(rhs_mat, a + half_diag)
    two_a = 2.0 * a
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    n_steps = len(times) - 1
    dt = float(times[1] - times[0])
    buf = np.empty((min(STEP_CHUNK, n_steps) + 1, m))
    buf[0] = y0
    rhs = np.empty((min(STEP_CHUNK, n_steps), m))
    for start in range(0, n_steps, STEP_CHUNK):
        stop = min(start + STEP_CHUNK, n_steps)
        count = stop - start
        states = buf[: count + 1]  # states[0] is the node the chunk starts from
        nodes = times[start : stop + 1]
        g = load(nodes) if callable(load) else np.broadcast_to(load, (nodes.size, m))
        w = 0.5 * dt * (g[:-1] + g[1:])
        for k, n in enumerate(range(start, stop)):
            np.matmul(rhs_mat, states[k], out=rhs[k])
            rhs[k] += w[k]
            states[k + 1], info = getrs(lu, piv, rhs[k])
            if info:
                raise StepFailure(f"step {n + 1}: getrs returned info = {info}")
        _check_residuals(two_a * states[1:] - states[1:] @ rhs_mat.T, rhs[:count], times, start)
        del g, w  # a suspended march holds its two matrices and two chunk buffers only
        yield (0, states) if start == 0 else (start + 1, states[1:])
        buf[0] = states[count]


def _check_residuals(lhs_y: np.ndarray, rhs: np.ndarray, times: np.ndarray, start: int) -> None:
    """StepFailure for the first step of a chunk whose |lhs y - rhs| exceeds STEP_RESIDUAL_RTOL |rhs|."""
    residual = np.linalg.norm(lhs_y - rhs, axis=1)
    scale = np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    bad = np.flatnonzero(~(residual <= STEP_RESIDUAL_RTOL * scale))
    if bad.size:
        k = bad[0]
        raise StepFailure(
            f"step {start + k + 1} at t = {times[start + k + 1]:.6g}: relative residual "
            f"{residual[k] / scale[k]:.3e} exceeds {STEP_RESIDUAL_RTOL:.0e}"
        )


@dataclass(frozen=True)
class CompressibleParams:
    """Physical constants and data of one compressible run.

    ``u0``/``p0`` may be sampled fields (projected on entry) or coefficient
    vectors (used as given).  ``sigma`` and ``s`` default to zero.  ``s`` is
    the momentum source of both systems (rho0 f for the homogeneous problem);
    ``f`` enters only the compressible step matrix, through G, so it must not
    carry a time factor there.
    """

    rho0: float = 1.0
    mu: float = 1.0
    eta: float = 0.0
    alpha: float = 1e-2
    T: float = 1.0
    dt: Optional[float] = None  # None: default_dt policy
    f: Optional[SampledField] = None
    sigma: Optional[SampledField] = None
    s: Optional[SampledField] = None
    u0: Union[SampledField, VelocityCoeffs, None] = None
    p0: Union[SampledField, PressureCoeffs, None] = None

    def validate(self, n_u: int) -> float:
        if not all(0 < v < np.inf for v in (self.rho0, self.mu, self.alpha, self.T)):
            raise InvalidParams("rho0, mu, alpha and T must be positive and finite")
        if not 0 <= self.eta < np.inf:
            raise InvalidParams("eta must be nonnegative and finite")
        dt = self.dt if self.dt is not None else default_dt(self.alpha, n_u, self.T)
        if not 0 < dt <= self.T:
            raise InvalidParams(f"dt = {dt} must lie in (0, T]")
        return dt


@dataclass
class Trajectory:
    """Coefficient time series of one compressible run with per-node diagnostics.

    ``energy`` holds I(t) = (rho0 c'Mc + (alpha/rho0) q'q)/2, ``mass`` holds
    M(t) = rho0 + alpha q_0 (the domain has unit area), and the density
    field rho = rho0 + alpha p is available through :meth:`density`.
    """

    spec: BasisSpec
    params: CompressibleParams
    dt: float
    times: np.ndarray  # (N+1,)
    c: np.ndarray  # (N+1, m_u)
    q: np.ndarray  # (N+1, m_p)
    energy: np.ndarray  # (N+1,)
    h01: np.ndarray  # (N+1,)
    div: np.ndarray  # (N+1,)
    mass: np.ndarray  # (N+1,)
    coupling: Optional[np.ndarray] = None  # G of params.f, (m_u, m_p), if computed

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def pressure_at(self, node: int) -> PressureCoeffs:
        return PressureCoeffs(self.spec, self.q[node].copy())

    def density(self, node: int, points) -> np.ndarray:
        from .basis import eval_field

        p = eval_field(self.spec, self.pressure_at(node), points)
        return self.params.rho0 + self.params.alpha * p


def _forcing_terms(spec: BasisSpec, params: CompressibleParams):
    """Static load vectors and time factors of s and sigma: (s_vec, s_fac, sigma_vec, sigma_fac)."""
    if params.s is not None:
        s_vec = velocity_load_vector(spec, params.s)
        s_fac = params.s.time_factor
    else:
        s_vec, s_fac = np.zeros(spec.m_u), None
    if params.sigma is not None:
        sigma_vec = pressure_load_vector(spec, params.sigma)
        sigma_fac = params.sigma.time_factor
    else:
        sigma_vec, sigma_fac = np.zeros(spec.m_p), None
    return s_vec, s_fac, sigma_vec, sigma_fac


def _time_values(fac: Optional[Callable[[float], float]], t) -> np.ndarray:
    """A load's time factor at each of the times t; ones for a load without one."""
    t = np.asarray(t, dtype=float)
    return np.ones_like(t) if fac is None else np.array([fac(x) for x in t], dtype=float)


def compressible_chunks(
    operator_set: OperatorSet, params: CompressibleParams
) -> tuple[float, np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """Set up one compressible run on its grid: (dt, times, G, chunks).

    The requested dt is rounded to the nearest uniform grid hitting T
    exactly, and G is the body-force coupling of ``params.f``.  ``chunks``
    is the run's crank_nicolson march: pulled chunk by chunk, it yields
    ``(start, c, q)``, the velocity and pressure coefficients at nodes
    start, start + 1, ... (views that the next chunk overwrites), and raises
    StepFailure when the relative residual of a step solve exceeds 1e-9.
    """
    spec = operator_set.spec
    dt, times = time_grid(params.validate(spec.n_u), params.T)
    if params.f is not None and params.f.time_dependent:
        raise InvalidParams(
            "a time-dependent body force f would change the step matrix every "
            "step; fold the time dependence into s instead"
        )
    m_u, m_p = spec.m_u, spec.m_p
    m = m_u + m_p

    G = (
        coupling_matrix(operator_set, params.f)
        if params.f is not None
        else np.zeros((m_u, m_p))
    )
    K = np.zeros((m, m))
    np.multiply(-params.eta, operator_set.div_gram, out=K[:m_u, :m_u])
    K[np.arange(m_u), np.arange(m_u)] -= params.mu
    K[:m_u, m_u:] = operator_set.div_coupling.T + params.alpha * G
    K[m_u:, :m_u] = -params.rho0 * operator_set.div_coupling
    K *= 0.5 * dt
    a_diag = np.concatenate(
        [params.rho0 * operator_set.mass_diag, np.full(m_p, params.alpha)]
    )

    s_vec, s_fac, sigma_vec, sigma_fac = _forcing_terms(spec, params)

    def load(t: np.ndarray) -> np.ndarray:
        g = np.empty((t.size, m))
        np.multiply.outer(_time_values(s_fac, t), s_vec, out=g[:, :m_u])
        np.multiply.outer(_time_values(sigma_fac, t), sigma_vec, out=g[:, m_u:])
        return g

    y0 = np.concatenate(
        [coefficients_of(spec, params.u0), coefficients_of(spec, params.p0, pressure=True)]
    )
    states = crank_nicolson(a_diag, K, y0, times, load)
    return dt, times, G, ((start, y[:, :m_u], y[:, m_u:]) for start, y in states)


def simulate_compressible(
    spec: BasisSpec, operator_set: OperatorSet, params: CompressibleParams
) -> Trajectory:
    """Integrate the compressible system over [0, T] with Crank-Nicolson steps.

    The whole march of :func:`compressible_chunks`, stored, with its per-node
    diagnostics.  ``spec`` is not read; it goes away once the benchmark's
    workload process stops passing it.
    """
    spec = operator_set.spec
    dt, times, G, chunks = compressible_chunks(operator_set, params)
    states = np.empty((len(times), spec.m_u + spec.m_p))
    c, q = states[:, : spec.m_u], states[:, spec.m_u :]
    for start, c_k, q_k in chunks:
        c[start : start + len(c_k)] = c_k
        q[start : start + len(q_k)] = q_k

    kinetic = np.einsum("ni,i,ni->n", c, operator_set.mass_diag, c)
    acoustic = np.einsum("nk,nk->n", q, q)
    return Trajectory(
        spec=spec,
        params=params,
        dt=dt,
        times=times,
        c=c,
        q=q,
        energy=0.5 * (params.rho0 * kinetic + params.alpha / params.rho0 * acoustic),
        h01=np.linalg.norm(c, axis=1),
        div=np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", c, operator_set.div_gram, c, optimize=True), 0.0)),
        mass=params.rho0 + params.alpha * q[:, 0],
        coupling=G,
    )


def _coupling(operator_set: OperatorSet, params: CompressibleParams, traj: Trajectory) -> np.ndarray:
    """G of params.f, reused from the trajectory when it was computed for the same force."""
    if traj.coupling is not None and params.f is traj.params.f:
        return traj.coupling
    if params.f is None:
        return np.zeros((operator_set.spec.m_u, operator_set.spec.m_p))
    return coupling_matrix(operator_set, params.f)


@dataclass
class EnergyLedger:
    """Per-interval residuals of the discrete energy identity.

    residual_n = I(t_{n+1}) - I(t_n) + dissipation_n - work_n, where the
    time integrals use midpoint quadrature (averaged coefficient vectors,
    sources at mid-interval times).  Zero for Crank-Nicolson up to roundoff
    when the sources are time independent, O(dt^2) otherwise.
    """

    interval_midpoints: np.ndarray  # (N,)
    per_step: np.ndarray  # (N,)
    cumulative: np.ndarray  # (N,) running sums
    dissipation: np.ndarray  # (N,)
    work: np.ndarray  # (N,)

    @property
    def total(self) -> float:
        return float(self.cumulative[-1]) if len(self.cumulative) else 0.0


def energy_ledger(
    operator_set: OperatorSet, params: CompressibleParams, traj: Trajectory
) -> EnergyLedger:
    """Audit the energy identity of a compressible trajectory of ``operator_set``, per interval."""
    spec = operator_set.spec
    if traj.c.shape[1] != spec.m_u or traj.q.shape[1] != spec.m_p:
        raise ValueError("trajectory does not match the operator set")
    dt = traj.dt
    c_mid = 0.5 * (traj.c[1:] + traj.c[:-1])
    q_mid = 0.5 * (traj.q[1:] + traj.q[:-1])
    t_mid = 0.5 * (traj.times[1:] + traj.times[:-1])

    delta_energy = np.diff(traj.energy)
    h01_sq = np.einsum("ni,ni->n", c_mid, c_mid)
    div_sq = np.einsum("ni,ij,nj->n", c_mid, operator_set.div_gram, c_mid, optimize=True)
    dissipation = dt * (params.mu * h01_sq + params.eta * div_sq)

    work = np.zeros(len(t_mid))
    if params.f is not None:
        G = _coupling(operator_set, params, traj)
        work += params.alpha * np.einsum("nk,nk->n", c_mid @ G, q_mid)
    s_vec, s_fac, sigma_vec, sigma_fac = _forcing_terms(spec, params)
    if s_vec.any():
        work += (c_mid @ s_vec) * _time_values(s_fac, t_mid)
    if sigma_vec.any():
        work += (q_mid @ sigma_vec) * _time_values(sigma_fac, t_mid) / params.rho0
    work *= dt

    per_step = delta_energy + dissipation - work
    return EnergyLedger(
        interval_midpoints=t_mid,
        per_step=per_step,
        cumulative=np.cumsum(per_step),
        dissipation=dissipation,
        work=work,
    )


@dataclass
class EstimateReport:
    """Evaluation of the a-priori bounds along one trajectory.

    All quantities use the discrete norms of the truncated spans (the dual
    norm of a momentum functional is the Euclidean norm of its pairing
    vector).  Violations set the ``ok`` flags, nothing is raised.
    """

    e_data: float
    a_const: float
    constants: MixedConstants
    certificate: object  # CertificateReport of the underlying differential inequality
    j_l2_bound: float
    i_inf_bound: float
    est1_lhs: float
    est1_constant: float
    est1_rhs: float
    est1_ok: bool
    est2_lhs: float
    est2_constant: float
    est2_rhs: float
    est2_ok: bool

    @property
    def ok(self) -> bool:
        return self.est1_ok and self.est2_ok and self.certificate.ok


def _sup_norm_on_grid(spec: BasisSpec, fld: Optional[SampledField]) -> float:
    if fld is None:
        return 0.0
    grid = np.linspace(0.0, 1.0, 4 * spec.quad_order + 1)
    vals = fld.spatial(grid[:, None], grid[None, :])
    if fld.vector:
        vals = np.broadcast_to(vals, (2, grid.size, grid.size))
        return float(np.sqrt((vals**2).sum(axis=0)).max())
    return float(np.abs(vals).max())


def apriori_check(
    operator_set: OperatorSet, params: CompressibleParams, traj: Trajectory
) -> EstimateReport:
    """Check the data-to-solution bounds with the explicit Gronwall-chain constants.

    The instrumented scalar series I(t), J(t) = sqrt(mu) |u|_{H10} together
    with a = 1 + sqrt(alpha) |f|_inf, b = |s|_{-1}/sqrt(mu) and
    c = |sigma|^2/(2 rho0 alpha) satisfy I' + J^2 <= aI + bJ + c; the bounds
    follow with C_a = 1 + A e^A, A = aT.
    """
    spec = operator_set.spec
    if traj.c.shape[1] != spec.m_u or traj.q.shape[1] != spec.m_p:
        raise ValueError("trajectory does not match the operator set")
    rho0, mu, eta, alpha, T = params.rho0, params.mu, params.eta, params.alpha, params.T
    times = traj.times

    s_vec, s_fac, sigma_vec, sigma_fac = _forcing_terms(spec, params)
    s_factors = _time_values(s_fac, times)
    s_dual = np.linalg.norm(s_vec) * np.abs(s_factors)  # |<s(t), .>| in the dual norm
    sigma_l2 = np.linalg.norm(sigma_vec) * np.abs(_time_values(sigma_fac, times))

    f_sup = _sup_norm_on_grid(spec, params.f)
    a_const = 1.0 + np.sqrt(alpha) * f_sup
    i_series = ScalarTrajectory(times, traj.energy, label="I")
    j_series = ScalarTrajectory(times, np.sqrt(mu) * traj.h01, label="J")
    a_series = ScalarTrajectory(times, np.full_like(times, a_const), label="a")
    b_series = ScalarTrajectory(times, s_dual / np.sqrt(mu), label="b")
    c_series = ScalarTrajectory(times, sigma_l2**2 / (2.0 * rho0 * alpha), label="c")
    certificate = verify_mixed(i_series, j_series, a_series, b_series, c_series)

    u0_l2 = np.sqrt(traj.c[0] @ (operator_set.mass_diag * traj.c[0]))
    p0_l2 = np.linalg.norm(traj.q[0])
    sigma_l2l2 = np.sqrt(np.trapezoid(sigma_l2**2, times))
    s_l2h = np.sqrt(np.trapezoid(s_dual**2, times))
    e_data = u0_l2 + np.sqrt(alpha) * p0_l2 + sigma_l2l2 / np.sqrt(alpha) + s_l2h

    bounds = mixed_bounds(float(traj.energy[0]), a_series, b_series, c_series)
    constants = bounds.constants

    # (est1): |u|_{L2 H10} + |u|_{Linf L2} + sqrt(alpha) |p|_{Linf L2} <= C E
    u_l2h1 = np.sqrt(np.trapezoid(traj.h01**2, times))
    u_linf = np.sqrt(
        np.max(np.einsum("ni,i,ni->n", traj.c, operator_set.mass_diag, traj.c))
    )
    p_linf = np.max(np.linalg.norm(traj.q, axis=1))
    est1_lhs = u_l2h1 + u_linf + np.sqrt(alpha) * p_linf
    k1 = max(np.sqrt(rho0 / 2.0), np.sqrt(1.0 / (2.0 * rho0)), 1.0 / np.sqrt(mu))
    k2 = max(rho0 / 2.0, 1.0 / (2.0 * rho0), 1.0 / mu)
    est1_constant = constants.c_a * k1 / np.sqrt(mu) + (
        np.sqrt(2.0 / rho0) + np.sqrt(2.0 * rho0)
    ) * np.sqrt(constants.c_a_tilde * k2)
    est1_rhs = est1_constant * e_data
    est1_ok = bool(est1_lhs <= est1_rhs + 1e-12 * max(1.0, est1_rhs))

    # (est2): |u|_{L2 H10} + |du/dt|_{L2 H-1} <= (1/sqrt(alpha)) C~ E,
    # with M dc/dt read off the momentum equation at the nodes.
    G = _coupling(operator_set, params, traj)
    momentum = (
        traj.q @ operator_set.div_coupling
        - mu * traj.c
        - eta * (traj.c @ operator_set.div_gram)
        + alpha * (traj.q @ G.T)
        + np.outer(s_factors, s_vec)
    ) / rho0
    ut_dual = np.linalg.norm(momentum, axis=1)
    est2_lhs = u_l2h1 + np.sqrt(np.trapezoid(ut_dual**2, times))
    b_norm = float(operator_set.b_s[0]) if operator_set.b_s.size else 0.0
    e_norm = float(np.linalg.eigvalsh(operator_set.div_gram)[-1])  # E is symmetric PSD
    g_norm = float(np.linalg.norm(G, 2)) if G.any() else 0.0
    bj = constants.c_a * k1  # bound on |J|_{L2} / E
    bi = constants.c_a_tilde * k2  # bound on |I|_{Linf} / E^2
    est2_constant = (
        (b_norm + alpha * g_norm) * np.sqrt(2.0 * rho0 * T * bi) / rho0
        + np.sqrt(alpha) * ((mu + eta * e_norm) * bj / np.sqrt(mu) + 1.0) / rho0
        + np.sqrt(alpha) * bj / np.sqrt(mu)
    )
    est2_rhs = est2_constant * e_data / np.sqrt(alpha)
    est2_ok = bool(est2_lhs <= est2_rhs + 1e-12 * max(1.0, est2_rhs))

    return EstimateReport(
        e_data=float(e_data),
        a_const=float(a_const),
        constants=constants,
        certificate=certificate,
        j_l2_bound=bounds.j_l2_bound,
        i_inf_bound=bounds.i_inf_bound,
        est1_lhs=float(est1_lhs),
        est1_constant=float(est1_constant),
        est1_rhs=float(est1_rhs),
        est1_ok=est1_ok,
        est2_lhs=float(est2_lhs),
        est2_constant=float(est2_constant),
        est2_rhs=float(est2_rhs),
        est2_ok=est2_ok,
    )
