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
order, and exactly dissipative on the unforced system.  The stepper of both
systems, :func:`crank_nicolson`, marches each block of the step system (the parity
classes of the basis that G joins) with one matrix-vector product and one ``getrs``
solve in numpy's OpenBLAS (:mod:`.blas`) per step, on threads of their own when it
has several, and a diagonal block (the Stokes modes, the unknowns K leaves uncoupled)
elementwise, checks each chunk's step residuals from the products the steps form,
and hands the chunk of states to its caller, its first row the node the previous
chunk ended on.
:func:`simulate_compressible` hands the chunks to the run's :class:`Trajectory`,
which stores them only if asked and reduces each one alone, E and B applied
through their 1-D tables, to the series that trajectory.csv, the energy ledger
and the a-priori check read; a sweep row (:func:`compressible_chunks`) reduces
them in lockstep with the Stokes reference.  The discretization is the
``OperatorSet`` alone.
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
from .operators import OperatorSet, apply_B, apply_E, coupling_matrix, div_gram

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
# intervals per slab of a Trajectory's reductions: at n = 24 as fast as whole chunks (README, "Library")
REDUCTION_SLAB = 64
# smaller blocks of the step system join its uncoupled unknowns in one: at n = 8 two blocks of
# 104-105 step faster apart than as one system, four parity blocks of 48-56 slower (README, "Library")
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


def _step_blocks(spec: BasisSpec, eta: float, B: np.ndarray, G: np.ndarray) -> list[np.ndarray]:
    """K's diagonal blocks, off which it vanishes, as ascending index arrays in the order of
    their first unknowns: the unions of the parity classes that G joins (E and B join none)
    without the unknowns that K leaves uncoupled, which go with the unions under
    STEP_BLOCK_MIN into one last array.  A single one is arange(m)."""
    classes = spec.parity_classes()
    u_class, p_class = classes[: spec.m_u], classes[spec.m_u :]
    group = np.arange(5)  # per class, the union that G puts it in
    for c in range(4):
        for d in set(p_class[G[u_class == c].any(axis=0)]):  # np.unique would import numpy.ma
            group[group == group[d]] = group[c]
    # uncoupled: a velocity mode with a zero column of B and row of G unless eta > 0 (E couples
    # every velocity mode once n_u >= 2), a pressure mode with a zero row of B and column of G
    u_coupled = B.any(axis=0) | G.any(axis=1) | (eta > 0 and spec.n_u > 1)
    coupled = np.concatenate([u_coupled, B.any(axis=1) | G.any(axis=0)])
    label = np.where(coupled, group[classes], 5)  # 5: the last array
    label[np.bincount(label, minlength=6)[label] < STEP_BLOCK_MIN] = 5
    blocks = sorted(filter(len, (np.flatnonzero(label == g) for g in range(5))), key=lambda b: b[0])
    return blocks + [np.flatnonzero(label == 5)] * (5 in label)


def crank_nicolson(
    a: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]], y0: np.ndarray, times: np.ndarray,
    sources: list[tuple[np.ndarray, Optional[Callable[[float], float]]]],
) -> Iterator[tuple[int, np.ndarray]]:
    """March diag(a) dy/dt = K y + g(t), a > 0, with Crank-Nicolson steps over a uniform grid.

    ``blocks`` holds K's diagonal blocks, off which K vanishes, as ``(indices, half)``
    pairs: the ascending unknowns of one block and (dt/2) K on them, a matrix (a block of
    :func:`_step_blocks`) or, where K is diagonal on the block, the vector of its diagonal.
    The march takes each half over: it becomes rhs_mat = diag(a) + (dt/2) K_b, and
    lhs = diag(a) - (dt/2) K_b is built once and LU-factored in place, or for a vector is
    a vector that steps divide by.  Each step solves, block by block,
    lhs y_{n+1} = rhs_n = rhs_mat y_n + w_n, w_n = dt/2 (g_n + g_{n+1}).  ``sources`` is g
    as ``(vector, time_factor)`` pieces that follow one another over the unknowns in their
    original order: g(t) stacks each vector times its factor at t, a factor of None being 1.
    Without a factor g is constant and w one vector; otherwise each chunk's loads at its
    times fill its (k, m) buffer piece by piece, and the march turns them into w.

    A generator: it marches STEP_CHUNK steps at a time and yields ``(start, states)``
    per chunk, start = 0, STEP_CHUNK, ..., states[k] being y at node start + k: a
    chunk's row 0 is the node the previous one ended on, bit for bit.  The blocks
    march in one chunk buffer, each one's unknowns contiguous, and keep the products
    rhs_mat y_n in another; the last row of both becomes the next chunk's row 0.  Before
    a chunk is yielded, the first step whose residual 2a y_{n+1} - rhs_mat y_{n+1} - rhs_n
    (lhs = 2 diag(a) - rhs_mat) exceeds STEP_RESIDUAL_RTOL |rhs_n|, or is not finite, raises
    StepFailure; rhs_n is formed again, in a time-dependent load's buffer, so a load not
    finite at node k fails step k.  states views the products' buffer, into which the chunk
    is un-permuted and which the next chunk overwrites (its loads first, if time-dependent).

    Several blocks, with more than one OpenBLAS thread in force, step each chunk at
    once on a thread per block, up to that many, that ends with the chunk; numpy's
    OpenBLAS stays on one thread from before the factors until the generator is
    exhausted, closed or raises, the caller's work between chunks included: exhaust
    or ``close()`` it, and enter or leave no ``one_blas_thread`` block while it is
    suspended.  The states are the in-line march's, bit for bit.
    """
    perm = np.concatenate([b for b, _ in blocks])  # one block: perm = arange(m)
    workers = min(len(blocks), blas.blas_threads())
    timed = any(fac is not None for _, fac in sources)
    with blas.one_blas_thread(workers > 1):  # from before the factors until the generator finishes
        a, y0 = a[perm], y0[perm]
        n_steps = len(times) - 1
        # the states, the products rhs_mat y and a time-dependent load's w, allocated once
        states, rhs, *loads = np.empty((2 + timed, min(STEP_CHUNK, n_steps) + 1, len(y0)))
        systems = []  # per block: its columns, rhs_mat, its product with y and lhs's solver in states
        for (_, half), stop in zip(blocks, np.cumsum([len(b) for b, _ in blocks])):
            cols = slice(stop - len(half), stop)
            if half.ndim == 1:  # K diagonal on the block: rhs_mat and lhs are vectors
                def solve(k, y=states[:, cols], lhs=a[cols] - half):  # getrs's info 0: None
                    np.divide(y[k], lhs, out=y[k])
                systems.append((cols, a[cols] + half, np.multiply, solve))
                continue
            half_diag = half.diagonal().copy()
            # 0 - x and x + 0 are exact and give +0.0 for a zero of either sign, as
            # diag(a) -/+ (dt/2) K do off the diagonal
            lhs = np.subtract(0.0, half, order="F")  # Fortran order: getrf factors it in place
            np.fill_diagonal(lhs, a[cols] - half_diag)
            piv, _ = blas.getrf(lhs)  # an exactly singular factor (info > 0) fails step 1's gate
            rhs_mat = np.add(half, 0.0, out=half)
            np.fill_diagonal(rhs_mat, a[cols] + half_diag)
            systems.append((cols, rhs_mat, np.matmul, blas.getrs(lhs, piv, states[:, cols])))
        two_a = 2.0 * a
        dt = float(times[1] - times[0])
        if not timed:  # the bits of a time-dependent load's trapezoid below
            g = np.concatenate([vec for vec, _ in sources])[perm]
            w = np.broadcast_to(0.5 * dt * (g + g), (STEP_CHUNK, len(y0)))
        ends = np.cumsum([len(vec) for vec, _ in sources])  # each piece's last unknown + 1
        inverse = np.argsort(perm)
        states[0] = y0
        carry = np.empty(len(y0))  # rhs_mat y at the node a chunk starts from
        for cols, rhs_mat, product, _ in systems:
            product(rhs_mat, y0[cols], out=carry[cols])

        def march(system):  # the chunk's steps of one block
            cols, rhs_mat, product, solve = system
            y, r, w_b = states[:, cols], rhs[:, cols], w[:, cols]
            for k in range(count):
                np.add(r[k], w_b[k], out=y[k + 1])  # rhs_k, solved in place
                if info := solve(k + 1):
                    raise StepFailure(f"step {start + k + 1}: getrs returned info = {info}")
                product(rhs_mat, y[k + 1], out=r[k + 1])

        for start in range(0, n_steps, STEP_CHUNK):
            count = min(STEP_CHUNK, n_steps - start)
            if loads:
                w, t = loads[0][: count + 1], times[start : start + count + 1]
                # the loads come piece by piece in the original order, into the products' buffer
                for (vec, fac), end in zip(sources, ends):
                    np.multiply.outer(_time_values(fac, t), vec, out=rhs[: count + 1, end - len(vec) : end])
                np.take(rhs[: count + 1], perm, axis=1, out=w, mode="clip")
                w[:-1] += w[1:]
                w[:-1] *= 0.5 * dt
            rhs[0] = carry
            if workers > 1:  # its threads end with the chunk; map raises the lowest block's failure
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(march, systems))
            else:
                for system in systems:
                    march(system)
            # the residuals, with no chunk-sized temporary: d takes rhs_n = rhs_mat y_n + w_n, as the
            # steps solved it, then 2a y_{n+1} - rhs_mat y_{n+1} - rhs_n =
            # 2a (y_{n+1} - (rhs_n + rhs_mat y_{n+1}) / 2a)
            d = loads[0][:count] if loads else rhs[:count]
            np.add(rhs[:count], w[:count], out=d)
            scale = np.maximum(np.sqrt(np.vecdot(d, d)), 1e-300)
            d += rhs[1 : count + 1]  # numpy reads the overlapping rows as they were before
            if not loads:  # d read rhs_{n+1} for rhs_mat y_{n+1}; one w is finite at every node or none
                d[:-1] -= w[1:count]
            d /= two_a
            d -= states[1 : count + 1]
            d *= two_a
            ratio = np.sqrt(np.vecdot(d, d)) / scale
            if (bad := np.flatnonzero(~(ratio <= STEP_RESIDUAL_RTOL))).size:
                k = start + bad[0] + 1
                raise StepFailure(
                    f"step {k} at t = {times[k]:.6g}: relative residual "
                    f"{ratio[bad[0]]:.3e} exceeds {STEP_RESIDUAL_RTOL:.0e}"
                )
            carry[:] = rhs[count]
            # mode="clip": "raise" would buffer out
            np.take(states[: count + 1], inverse, axis=1, out=rhs[: count + 1], mode="clip")
            yield start, rhs[: count + 1]
            states[0] = states[count]


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
    """The sources as crank_nicolson's pieces: [(s_vec, s_fac), (sigma_vec, sigma_fac)], the
    static load vectors of s and sigma and their time factors."""
    s, sigma = params.s, params.sigma
    s_vec = np.zeros(spec.m_u) if s is None else velocity_load_vector(spec, s)
    sigma_vec = np.zeros(spec.m_p) if sigma is None else pressure_load_vector(spec, sigma)
    return [(s_vec, getattr(s, "time_factor", None)), (sigma_vec, getattr(sigma, "time_factor", None))]


def _time_values(fac: Optional[Callable[[float], float]], t) -> np.ndarray:
    """A load's time factor at each of the times t; ones for a load without one."""
    t = np.asarray(t, dtype=float)
    return np.ones_like(t) if fac is None else np.array([fac(x) for x in t], dtype=float)


def compressible_chunks(
    operator_set: OperatorSet, params: CompressibleParams
) -> tuple[float, np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """Set up one compressible run on its grid: (dt, times, G, chunks).

    The requested dt is rounded to the nearest uniform grid hitting T
    exactly, and G is the body-force coupling of ``params.f``.  ``chunks`` is
    the run's crank_nicolson march on the blocks of (dt/2) K that
    :func:`_step_blocks` finds, each built alone: pulled chunk by chunk, it
    yields ``(start, c, q)``, the velocity and pressure coefficients at nodes
    start, start + 1, ... (views that the next chunk overwrites), and raises
    StepFailure when the relative residual of a step solve exceeds 1e-9.
    Exhaust or ``close()`` a march that steps its blocks on threads
    (:func:`crank_nicolson`).
    """
    spec = operator_set.spec
    dt, times = time_grid(params.validate(spec.n_u), params.T)
    if params.f is not None and params.f.time_dependent:
        raise InvalidParams(
            "a time-dependent body force f would change the step matrix every "
            "step; fold the time dependence into s instead"
        )
    m_u, m_p = spec.m_u, spec.m_p
    G = coupling_matrix(operator_set, params.f) if params.f is not None else np.zeros((m_u, m_p))
    B = operator_set.div_coupling

    def half_k(b):  # (dt/2) K on the unknowns b, K = [-eta E - mu I, B' + alpha G; -rho0 B, 0],
        # or its diagonal where K couples none of them, which the march steps elementwise
        u, p = b[b < m_u], b[b >= m_u] - m_u
        K = np.zeros((len(b), len(b)))
        np.multiply(-params.eta, div_gram(operator_set, u), out=K[: len(u), : len(u)])
        K[np.arange(len(u)), np.arange(len(u))] -= params.mu
        K[: len(u), len(u) :] = B.T[np.ix_(u, p)] + params.alpha * G[np.ix_(u, p)]
        K[len(u) :, : len(u)] = -params.rho0 * B[np.ix_(p, u)]
        diagonal = np.multiply(K, 0.5 * dt, out=K).diagonal()
        return K if np.count_nonzero(K) > np.count_nonzero(diagonal) else diagonal.copy()

    a_diag = np.concatenate([params.rho0 * operator_set.mass_diag, np.full(m_p, params.alpha)])

    y0 = np.concatenate([coefficients_of(spec, params.u0), coefficients_of(spec, params.p0, pressure=True)])
    blocks = [(b, half_k(b)) for b in _step_blocks(spec, params.eta, B, G)]
    states = crank_nicolson(a_diag, blocks, y0, times, _forcing_terms(spec, params))
    return dt, times, G, ((start, y[:, :m_u], y[:, m_u:]) for start, y in states)


class Trajectory:
    """One compressible run: the series reduced from its march's chunks, and its states if stored.

    Called with each ``(start, c, q)`` chunk, it stores the chunk as ``c`` and ``q`` (with
    ``store_states``; otherwise both are None and the run holds no (N+1) x m array) and
    reduces it.  Per node: c'Mc and q'q (the kinetic and acoustic parts of I),
    I(t) = (rho0 c'Mc + (alpha/rho0) q'q)/2, |c|, sqrt(c'Ec), the mass M(t) = rho0 + alpha q_0
    (the domain has unit area) and the dual norm |M dc/dt| of the momentum equation that est2
    reads.  Per interval: the energy identity's dissipation and work by midpoint quadrature
    (averaged coefficients, sources at mid-interval times), from c_n + c_{n+1} against both
    ends' c E and q G', with no midpoint copies.  c E and q B come from the
    1-D tables (:func:`.operators.apply_E`, ``apply_B``).  A chunk's row 0 is the node the
    previous chunk ended on, so each chunk is reduced alone: it rewrites that node's series
    with the same bits and holds every interval it covers.  The density field
    rho = rho0 + alpha p (:meth:`density`) reads the stored states.
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
        and the intervals between, in slabs of REDUCTION_SLAB intervals that share end nodes."""
        if self.c is not None:
            self.c[start : start + len(c)], self.q[start : start + len(c)] = c, q
        for i in range(0, max(len(c) - 1, 1), REDUCTION_SLAB):
            self._reduce(start + i, c[i : i + REDUCTION_SLAB + 1], q[i : i + REDUCTION_SLAB + 1])

    def _reduce(self, start: int, c: np.ndarray, q: np.ndarray) -> None:
        ops, p, nodes = self.operator_set, self.params, slice(start, start + len(c))
        (s_vec, s_fac), (sigma_vec, sigma_fac) = self.forcing
        cE = apply_E(ops, c)
        self.kinetic[nodes] = np.einsum("ni,i,ni->n", c, ops.mass_diag, c)
        self.acoustic[nodes] = np.einsum("nk,nk->n", q, q)
        self.energy[nodes] = 0.5 * (p.rho0 * self.kinetic[nodes] + p.alpha / p.rho0 * self.acoustic[nodes])
        self.h01[nodes] = np.linalg.norm(c, axis=1)
        self.div[nodes] = np.sqrt(np.maximum(np.einsum("ni,ni->n", cE, c), 0.0))
        self.mass[nodes] = p.rho0 + p.alpha * q[:, 0]
        # M dc/dt = q B - mu c - eta c E + alpha q G' + s(t) in place, through one buffer
        momentum, buf, qG = apply_B(ops, q), np.empty_like(c), q @ self.coupling.T
        for factor, term in ((-p.mu, c), (-p.eta, cE), (p.alpha, qG)):
            momentum += np.multiply(factor, term, out=buf)
        momentum += np.multiply.outer(_time_values(s_fac, self.times[nodes]), s_vec, out=buf)
        momentum /= p.rho0
        self.momentum[nodes] = np.sqrt(np.square(momentum, out=momentum).sum(axis=1))  # np.linalg.norm's bits

        # per interval, from cs = 2 c_mid = c_n + c_{n+1}: c_mid x_mid = cs (x_n + x_{n+1}) / 4
        t_mid, steps = 0.5 * (self.times[nodes][1:] + self.times[nodes][:-1]), slice(start, nodes.stop - 1)
        cs = np.add(c[1:], c[:-1], out=buf[:-1])
        def mid(x):  # c_mid x_mid for x at the nodes: c E or q G'
            return 0.25 * (np.einsum("ni,ni->n", cs, x[:-1]) + np.einsum("ni,ni->n", cs, x[1:]))
        self.dissipation[steps] = self.dt * (p.mu * 0.25 * np.einsum("ni,ni->n", cs, cs) + p.eta * mid(cE))
        q_sigma = q @ sigma_vec
        # a source that is absent contributes 0, which leaves a nonzero work unchanged
        work = (cs @ s_vec) * _time_values(s_fac, t_mid)
        work += (q_sigma[1:] + q_sigma[:-1]) * _time_values(sigma_fac, t_mid) / p.rho0
        self.work[steps] = self.dt * (0.5 * work + p.alpha * mid(qG))

    def pressure_at(self, node: int) -> PressureCoeffs:
        return PressureCoeffs(self.spec, stored_states(self)[1][node].copy())

    def density(self, node: int, points) -> np.ndarray:
        p = eval_field(self.spec, self.pressure_at(node), points)
        return self.params.rho0 + self.params.alpha * p


def stored_states(traj) -> tuple[np.ndarray, np.ndarray]:
    """The states (c, q) of a compressible or Stokes run; ValueError for a run that stored none."""
    if traj.q is None:
        raise ValueError("the run stored no states; simulate it with store_states=True to read them")
    return traj.c, traj.q  # a Stokes trajectory forms c on each access


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

    (s_vec, s_fac), (sigma_vec, sigma_fac) = traj.forcing
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
    u_class = operator_set.spec.parity_classes()[: operator_set.spec.m_u]
    classes = filter(len, (np.flatnonzero(u_class == c) for c in range(4)))  # E keeps to each one
    e_norm = max(np.linalg.eigvalsh(div_gram(operator_set, b))[-1] for b in classes)  # E is symmetric PSD
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
