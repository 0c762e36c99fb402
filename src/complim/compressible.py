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
order, and exactly dissipative on the unforced system.  The stepper,
:func:`crank_nicolson`, marches each block of the step system (modes of
matching parity) with one matrix-vector product and one ``getrs`` solve in
numpy's OpenBLAS (:mod:`.blas`) per step, on threads of their own when it
has several, checks each chunk's step residuals from the products the steps form
(:func:`_check_steps` gates the Stokes march too) and hands the chunk of
states to its caller, its first row the node the previous chunk ended on.
:func:`simulate_compressible` hands the chunks to the run's :class:`Trajectory`,
which stores them only if asked and reduces each one alone to the series that
trajectory.csv, the energy ledger and the a-priori check read; a sweep row
(:func:`compressible_chunks`) reduces them in lockstep with the Stokes
reference.  The discretization is the ``OperatorSet`` alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from . import blas
from .basis import (
    BasisSpec,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    coefficients_of,
    eval_field,
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
    "stored_states",
    "energy_ledger",
    "apriori_check",
]

STEP_RESIDUAL_RTOL = 1e-9
# steps per block of the residual gate and of the time-dependent loads
STEP_CHUNK = 256
# smaller blocks of the step system are merged into one: at n = 8 two blocks of 104-105 step
# faster apart than as one system, four parity blocks of 48-56 slower (README, "Library")
STEP_BLOCK_MIN = 64


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


def _check_steps(start: int, times: np.ndarray, residual: np.ndarray, scale: np.ndarray) -> None:
    """Raise StepFailure at the first step of the chunk from node ``start`` whose residual norm
    exceeds STEP_RESIDUAL_RTOL times its scale |rhs|, or is not finite: both marches' gate."""
    scale = np.maximum(scale, 1e-300)
    bad = np.flatnonzero(~(residual <= STEP_RESIDUAL_RTOL * scale))
    if bad.size:
        k = bad[0]
        raise StepFailure(
            f"step {start + k + 1} at t = {times[start + k + 1]:.6g}: relative residual "
            f"{residual[k] / scale[k]:.3e} exceeds {STEP_RESIDUAL_RTOL:.0e}"
        )


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """The components of the square boolean ``pattern | pattern.T`` as ascending index arrays,
    those under STEP_BLOCK_MIN merged into one last array: a single one is arange(m)."""
    pattern = pattern | pattern.T
    blocks, small, unseen = [], [], np.ones(len(pattern), dtype=bool)
    while unseen.any():
        reach = front = np.arange(len(pattern)) == unseen.argmax()
        while front.any():
            front = pattern[front].any(axis=0) & ~reach
            reach |= front
        unseen &= ~reach
        (blocks if reach.sum() >= STEP_BLOCK_MIN else small).append(reach)
    return [np.flatnonzero(b) for b in blocks + [np.logical_or.reduce(small)] * bool(small)]


def crank_nicolson(
    a: np.ndarray, half_k: np.ndarray, y0: np.ndarray, times: np.ndarray, load
) -> Iterator[tuple[int, np.ndarray]]:
    """March diag(a) dy/dt = K y + g(t), a > 0, with Crank-Nicolson steps over a uniform grid.

    ``half_k`` is (dt/2) K, and the march takes it over: per block of
    :func:`_blocks` on K's pattern it becomes rhs_mat = diag(a) + (dt/2) K,
    and lhs = diag(a) - (dt/2) K is built once and LU-factored in place, so
    the march holds at most two m x m matrices.  Each step solves, block by
    block, lhs y_{n+1} = rhs_n = rhs_mat y_n + w_n, w_n = dt/2 (g_n + g_{n+1}).
    ``load`` is the constant vector g, whose w is one vector, or
    ``load(t, out)`` fills the (k, m) chunk buffer out with the loads at k
    times, and the march turns it into w.

    A generator: it marches STEP_CHUNK steps at a time and yields ``(start, states)``
    per chunk, start = 0, STEP_CHUNK, ..., states[k] being y at node start + k: a
    chunk's row 0 is the node the previous one ended on, bit for bit.  The blocks
    march in one chunk buffer, each one's unknowns contiguous, and each step turns
    the products rhs_mat y_n of another into its rhs_n; the last row of both becomes
    the next chunk's row 0.  states views a third, into which the chunk is un-permuted
    and which the next chunk overwrites.  Before a chunk is yielded its residuals
    are checked in place: as lhs = 2 diag(a) - rhs_mat, a step's residual is
    2 a y_{n+1} - rhs_mat y_{n+1} - rhs_n,
    the product read back as rhs_{n+1} - w_{n+1}, and :func:`_check_steps`
    gates it on |rhs_n|.

    Several blocks, with more than one OpenBLAS thread in force, step each chunk at
    once on a thread per block, up to that many, that ends with the chunk; numpy's
    OpenBLAS stays on one thread from before the factors until the generator is
    exhausted, closed or raises, the caller's work between chunks included: exhaust
    or ``close()`` it, and enter or leave no ``one_blas_thread`` block while it is
    suspended.  The states are the in-line march's, bit for bit.
    """
    blocks = _blocks(half_k != 0)
    perm = np.concatenate(blocks)  # one block: perm = arange(m)
    workers = min(len(blocks), blas.blas_threads())
    with blas.one_blas_thread(workers > 1):  # from before the factors until the generator finishes
        halves = [half_k[np.ix_(b, b)] for b in blocks]
        del half_k  # before any lhs exists: at most two m x m matrices at once
        a, y0, load = a[perm], y0[perm], load if callable(load) else load[perm]
        n_steps = len(times) - 1
        # the states, right-hand sides, un-permuted states and a time-dependent load's w, allocated once
        states, rhs, unpermuted, *loads = np.empty((3 + callable(load), min(STEP_CHUNK, n_steps) + 1, len(y0)))
        systems = []  # per block: its columns, rhs_mat and the solver of lhs in its rows of states
        for half, stop in zip(halves, np.cumsum([len(b) for b in blocks])):
            cols = slice(stop - len(half), stop)
            half_diag = half.diagonal().copy()
            # 0 - x and x + 0 are exact and give +0.0 for a zero of either sign, as
            # diag(a) -/+ (dt/2) K do off the diagonal
            lhs = np.subtract(0.0, half, order="F")  # Fortran order: getrf factors it in place
            np.fill_diagonal(lhs, a[cols] - half_diag)
            piv, _ = blas.getrf(lhs)  # an exactly singular factor (info > 0) fails step 1's gate
            rhs_mat = np.add(half, 0.0, out=half)
            np.fill_diagonal(rhs_mat, a[cols] + half_diag)
            systems.append((cols, rhs_mat, blas.getrs(lhs, piv, states[:, cols])))
        two_a = 2.0 * a
        dt = float(times[1] - times[0])
        if not callable(load):  # the bits of a time-dependent load's trapezoid below
            w = np.broadcast_to(0.5 * dt * (load + load), (STEP_CHUNK, len(y0)))
        inverse = np.argsort(perm)
        states[0] = y0
        for cols, rhs_mat, _ in systems:
            np.matmul(rhs_mat, y0[cols], out=rhs[0, cols])

        def march(system):  # the chunk's steps of one block
            cols, rhs_mat, solve = system
            y, r, w_b = states[:, cols], rhs[:, cols], w[:, cols]
            for k in range(count):
                r[k] += w_b[k]
                y[k + 1] = r[k]  # solved in place
                if info := solve(k + 1):
                    raise StepFailure(f"step {start + k + 1}: getrs returned info = {info}")
                np.matmul(rhs_mat, y[k + 1], out=r[k + 1])

        for start in range(0, n_steps, STEP_CHUNK):
            count = min(STEP_CHUNK, n_steps - start)
            if loads:
                w = loads[0][: count + 1]
                # the load comes in the original order, into the free un-permuted buffer
                load(times[start : start + count + 1], unpermuted[: count + 1])
                np.take(unpermuted[: count + 1], perm, axis=1, out=w, mode="clip")
                w[:-1] += w[1:]
                w[:-1] *= 0.5 * dt
            if workers > 1:  # its threads end with the chunk; map raises the lowest block's failure
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(march, systems))
            else:
                for system in systems:
                    march(system)
            # the residuals overwrite the right-hand sides, with no chunk-sized temporary:
            # 2a y_{k+1} - rhs_mat y_{k+1} - rhs_k = 2a (y_{k+1} - (rhs_k + rhs_{k+1} - w_{k+1}) / 2a)
            scale = np.sqrt(np.vecdot(rhs[:count], rhs[:count]))
            d = rhs[:count]
            d += rhs[1 : count + 1]  # numpy reads the overlapping rows as they were before
            d[:-1] -= w[1:count]  # the last product is rhs[count] itself
            d /= two_a
            d -= states[1 : count + 1]
            d *= two_a
            _check_steps(start, times, np.sqrt(np.vecdot(d, d)), scale)
            # mode="clip": "raise" would buffer out
            np.take(states[: count + 1], inverse, axis=1, out=unpermuted[: count + 1], mode="clip")
            yield start, unpermuted[: count + 1]
            states[0], rhs[0] = states[count], rhs[count]


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


def _forcing_terms(spec: BasisSpec, params: CompressibleParams):
    """Static load vectors and time factors of s and sigma: (s_vec, s_fac, sigma_vec, sigma_fac)."""
    s, sigma = params.s, params.sigma
    s_vec = np.zeros(spec.m_u) if s is None else velocity_load_vector(spec, s)
    sigma_vec = np.zeros(spec.m_p) if sigma is None else pressure_load_vector(spec, sigma)
    return s_vec, getattr(s, "time_factor", None), sigma_vec, getattr(sigma, "time_factor", None)


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
    Exhaust or ``close()`` a march that steps its blocks on threads (:func:`crank_nicolson`).
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

    def load(t: np.ndarray, g: np.ndarray) -> None:
        np.multiply.outer(_time_values(s_fac, t), s_vec, out=g[:, :m_u])
        np.multiply.outer(_time_values(sigma_fac, t), sigma_vec, out=g[:, m_u:])

    y0 = np.concatenate(
        [coefficients_of(spec, params.u0), coefficients_of(spec, params.p0, pressure=True)]
    )
    # a constant load goes to the march as one vector
    g = np.concatenate([s_vec, sigma_vec]) if s_fac is None and sigma_fac is None else load
    states = crank_nicolson(a_diag, K, y0, times, g)
    return dt, times, G, ((start, y[:, :m_u], y[:, m_u:]) for start, y in states)


class Trajectory:
    """One compressible run: the series reduced from its march's chunks, and its states if stored.

    Called with each ``(start, c, q)`` chunk, it stores the chunk as ``c`` and
    ``q`` (with ``store_states``; otherwise both are None and the run holds no
    (N+1) x m array) and reduces it.  Per node: c'Mc and q'q (the kinetic and
    acoustic parts of I), I(t) = (rho0 c'Mc + (alpha/rho0) q'q)/2, |c|,
    sqrt(c'Ec), the mass M(t) = rho0 + alpha q_0 (the domain has unit area) and
    the dual norm |M dc/dt| of the momentum equation that est2 reads.  Per
    interval: the energy identity's dissipation and work by midpoint quadrature
    (averaged coefficients, sources at mid-interval times).  c E is formed once
    per chunk for c'Ec, the momentum and, averaged, the midpoint E term;
    averaged q G' gives the body force's work.  A chunk's row 0 is the node the
    previous chunk ended on, so each chunk is reduced alone: it rewrites that
    node's series with the same bits and holds every interval it covers.  The
    density field rho = rho0 + alpha p (:meth:`density`) reads the stored
    states.
    """

    def __init__(
        self, operator_set: OperatorSet, params: CompressibleParams, dt: float, times, G,
        store_states: bool = False,
    ):
        n, spec = len(times), operator_set.spec
        self.operator_set, self.spec, self.params, self.dt, self.times = operator_set, spec, params, dt, times
        self.coupling = G  # of params.f, (m_u, m_p)
        self.kinetic, self.acoustic, self.energy = np.empty(n), np.empty(n), np.empty(n)
        self.h01, self.div, self.mass, self.momentum = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        self.dissipation, self.work = np.empty(n - 1), np.empty(n - 1)
        self.forcing = _forcing_terms(spec, params)
        states = np.empty((n, spec.m_u + spec.m_p)) if store_states else None
        self.c, self.q = (states[:, : spec.m_u], states[:, spec.m_u :]) if store_states else (None, None)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def __call__(self, start: int, c: np.ndarray, q: np.ndarray) -> None:
        """Store (if asked) and reduce the coefficients (c, q) at nodes start, start + 1, ...
        and the intervals between."""
        ops, p = self.operator_set, self.params
        s_vec, s_fac, sigma_vec, sigma_fac = self.forcing
        nodes = slice(start, start + len(c))
        if self.c is not None:
            self.c[nodes], self.q[nodes] = c, q
        cE, qG = c @ ops.div_gram, q @ self.coupling.T
        self.kinetic[nodes] = np.einsum("ni,i,ni->n", c, ops.mass_diag, c)
        self.acoustic[nodes] = np.einsum("nk,nk->n", q, q)
        self.energy[nodes] = 0.5 * (p.rho0 * self.kinetic[nodes] + p.alpha / p.rho0 * self.acoustic[nodes])
        self.h01[nodes] = np.linalg.norm(c, axis=1)
        self.div[nodes] = np.sqrt(np.maximum(np.einsum("ni,ni->n", cE, c), 0.0))
        self.mass[nodes] = p.rho0 + p.alpha * q[:, 0]
        momentum = q @ ops.div_coupling - p.mu * c - p.eta * cE + p.alpha * qG
        momentum += np.outer(_time_values(s_fac, self.times[nodes]), s_vec)
        self.momentum[nodes] = np.linalg.norm(momentum / p.rho0, axis=1)

        t_mid, c_mid, q_mid, cE_mid, qG_mid = (0.5 * (r[1:] + r[:-1]) for r in (self.times[nodes], c, q, cE, qG))
        steps = slice(start, nodes.stop - 1)
        h01_sq, div_sq = np.einsum("ni,ni->n", c_mid, c_mid), np.einsum("ni,ni->n", c_mid, cE_mid)
        self.dissipation[steps] = self.dt * (p.mu * h01_sq + p.eta * div_sq)
        # a source that is absent contributes 0, which leaves a nonzero work unchanged
        self.work[steps] = self.dt * (
            p.alpha * np.einsum("ni,ni->n", c_mid, qG_mid)
            + (c_mid @ s_vec) * _time_values(s_fac, t_mid)
            + (q_mid @ sigma_vec) * _time_values(sigma_fac, t_mid) / p.rho0
        )

    def pressure_at(self, node: int) -> PressureCoeffs:
        return PressureCoeffs(self.spec, stored_states(self)[1][node].copy())

    def density(self, node: int, points) -> np.ndarray:
        p = eval_field(self.spec, self.pressure_at(node), points)
        return self.params.rho0 + self.params.alpha * p


def stored_states(traj) -> tuple[np.ndarray, np.ndarray]:
    """The states (c, q) of a run; ValueError for a compressible run that stored none."""
    c, q = traj.c, traj.q  # a Stokes trajectory forms c on each access
    if c is None:
        raise ValueError("the run stored no states; simulate it with store_states=True to read them")
    return c, q


def simulate_compressible(
    spec: BasisSpec, operator_set: OperatorSet, params: CompressibleParams, *, store_states: bool = False
) -> Trajectory:
    """Integrate the compressible system over [0, T] with Crank-Nicolson steps.

    The whole march of :func:`compressible_chunks`, each chunk handed to the
    run's :class:`Trajectory`, which stores it only with ``store_states`` and
    reduces it.  ``spec`` is not read; it goes away once the benchmark's
    workload process stops passing it.
    """
    dt, times, G, chunks = compressible_chunks(operator_set, params)
    traj = Trajectory(operator_set, params, dt, times, G, store_states)
    for chunk in chunks:
        traj(*chunk)
    return traj


def _series(operator_set: OperatorSet, params: CompressibleParams, traj: Trajectory) -> Trajectory:
    """traj itself; ValueError unless it is a run of operator_set's basis with params."""
    if (traj.spec.m_u, traj.spec.m_p) != (operator_set.spec.m_u, operator_set.spec.m_p):
        raise ValueError("trajectory does not match the operator set")
    if params is not traj.params:
        raise ValueError("params are not the ones the trajectory was run with")
    return traj


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


def energy_ledger(
    operator_set: OperatorSet, params: CompressibleParams, traj: Trajectory
) -> EnergyLedger:
    """Audit the energy identity of a compressible trajectory of ``operator_set``, per interval."""
    traj = _series(operator_set, params, traj)
    per_step = np.diff(traj.energy) + traj.dissipation - traj.work
    return EnergyLedger(
        interval_midpoints=0.5 * (traj.times[1:] + traj.times[:-1]),
        per_step=per_step,
        cumulative=np.cumsum(per_step),
        dissipation=traj.dissipation,
        work=traj.work,
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
    traj = _series(operator_set, params, traj)
    rho0, mu, eta, alpha, T = params.rho0, params.mu, params.eta, params.alpha, params.T
    times = traj.times

    s_vec, s_fac, sigma_vec, sigma_fac = traj.forcing
    s_dual = np.linalg.norm(s_vec) * np.abs(_time_values(s_fac, times))  # |<s(t), .>| in the dual norm
    sigma_l2 = np.linalg.norm(sigma_vec) * np.abs(_time_values(sigma_fac, times))

    f_sup = _sup_norm_on_grid(operator_set.spec, params.f)
    a_const = 1.0 + np.sqrt(alpha) * f_sup
    i_series = ScalarTrajectory(times, traj.energy, label="I")
    j_series = ScalarTrajectory(times, np.sqrt(mu) * traj.h01, label="J")
    a_series = ScalarTrajectory(times, np.full_like(times, a_const), label="a")
    b_series = ScalarTrajectory(times, s_dual / np.sqrt(mu), label="b")
    c_series = ScalarTrajectory(times, sigma_l2**2 / (2.0 * rho0 * alpha), label="c")
    certificate = verify_mixed(i_series, j_series, a_series, b_series, c_series)

    u0_l2, p0_l2 = np.sqrt(traj.kinetic[0]), np.sqrt(traj.acoustic[0])
    sigma_l2l2 = np.sqrt(np.trapezoid(sigma_l2**2, times))
    s_l2h = np.sqrt(np.trapezoid(s_dual**2, times))
    e_data = u0_l2 + np.sqrt(alpha) * p0_l2 + sigma_l2l2 / np.sqrt(alpha) + s_l2h

    bounds = mixed_bounds(float(traj.energy[0]), a_series, b_series, c_series)
    constants = bounds.constants

    # (est1): |u|_{L2 H10} + |u|_{Linf L2} + sqrt(alpha) |p|_{Linf L2} <= C E
    u_l2h1 = np.sqrt(np.trapezoid(traj.h01**2, times))
    u_linf = np.sqrt(np.max(traj.kinetic))
    p_linf = np.sqrt(np.max(traj.acoustic))
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
    est2_lhs = u_l2h1 + np.sqrt(np.trapezoid(traj.momentum**2, times))
    b_norm = float(operator_set.b_s[0]) if operator_set.b_s.size else 0.0
    E, blocks = operator_set.div_gram, _blocks(operator_set.div_gram != 0)  # symmetric PSD
    e_norm = max(np.linalg.eigvalsh(E[np.ix_(b, b)] if len(blocks) > 1 else E)[-1] for b in blocks)
    G = traj.coupling  # |G|_2 from the largest eigenvalue of G'G, without G's full SVD
    g_norm = float(np.sqrt(np.linalg.eigvalsh(G.T @ G)[-1])) if G.any() else 0.0
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
