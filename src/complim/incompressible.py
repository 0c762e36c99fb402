"""Nonsteady Stokes flow in the discrete solenoidal subspace.

The state is reduced to coordinates y with c = Z y, where Z is the kernel
that ``assemble`` stores in the OperatorSet: its columns span {c : B c = 0}
and are M-orthonormal, so the evolution is simply

    rho0 dy/dt + mu (Z'Z) y = Z' F(t),      F_i = <s, velocity mode i>,

with s the momentum source of the compressible runs (rho0 f for the
homogeneous problem): the Stokes limit keeps s and drops the alpha p f
coupling.  Solenoidality therefore holds exactly at every step.  As
``assemble`` orders Z by eigh(Z'Z), Z'Z is diagonal up to roundoff, so each
mode evolves on its own: the march is :func:`.compressible.crank_nicolson` on one
diagonal block, stepped elementwise with no matrix factor and no matrix-vector
product.  The pressure is recovered from
the momentum residual through the inverse of the pressure gradient: with
dc/dt read off the reduced equation (not from finite differences, which
would lose an order), q(t_n) = grad_inverse(F(t_n) - rho0 M dc/dt - mu c).
That is linear in y and the load's time factor: one map, built once per run
(:func:`_pressure_map`), gives q(t_n) = y_n Q + fac(t_n) q_s, one product per
slab, mean zero and shiftable afterwards to any target mean.  The march is a
slab source, :func:`stokes_chunks`, which yields each slab of steps that
crank_nicolson hands out with its velocity and recovered pressure, its first row
the node the previous slab ended on: :func:`simulate_incompressible` hands each
slab to the run's :class:`IncompressibleTrajectory`, which stores and reduces it as
a compressible :class:`.compressible.Trajectory` does; an alpha sweep reduces each
slab against its rows and drops it, and :func:`initial_pressure` is node 0 of a
one-step march.
Every function takes the OperatorSet and reads Z through
:func:`nullspace_basis`, the one check for an empty solenoidal space.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

import numpy as np

from .basis import BasisSpec, PressureCoeffs, VelocityCoeffs, coefficients_of
from .compressible import STEP_CHUNK, CompressibleParams, InvalidParams, crank_nicolson, time_grid
from .compressible import REDUCTION_SLAB, _forcing_terms, _time_values
from .operators import OperatorSet, apply_E, grad_inverse_rows, leray_project
from .operators import grad_inverse  # noqa: F401  unused; perfbench traces it under this module

__all__ = [
    "IncompressibleTrajectory",
    "EmptyKernel",
    "nullspace_basis",
    "stokes_chunks",
    "simulate_incompressible",
    "initial_pressure",
]


class EmptyKernel(RuntimeError):
    """The discrete solenoidal space is trivial for this truncation."""


def nullspace_basis(operator_set: OperatorSet) -> np.ndarray:
    """The discrete solenoidal basis Z = ``operator_set.kernel``, (m_u, m_V), B Z = 0, Z'MZ = I.

    Raises EmptyKernel when no discrete solenoidal field exists, which does
    happen at the smallest truncations (n_u = n_p = 1 leaves m_V = 0).
    """
    if operator_set.kernel.shape[1] == 0:
        raise EmptyKernel(
            f"no solenoidal modes for n_u={operator_set.spec.n_u}, n_p={operator_set.spec.n_p}"
        )
    return operator_set.kernel


class IncompressibleTrajectory:
    """One Stokes run: the series reduced from its march's slabs, and y and q if stored.

    Called with each ``(start, y, c, q)`` slab of :func:`stokes_chunks` (nodes start,
    start + 1, ...), it stores y (N+1, m_V) and the mean-zero q (N+1, m_p) with
    ``store_states`` (otherwise both are None, as is c) and reduces the slab whole and alone,
    as a compressible Trajectory does.  Per node:
    energy I = rho0 |u|^2 / 2 = rho0 y'y / 2 (Z'MZ = I), h01 = |c| and div = sqrt(c'Ec), c E
    through :func:`.operators.apply_E`.  Per interval: the energy_residual
    I(t_{n+1}) - I(t_n) + dt mu |c_mid|^2 - dt (s(t_mid), c_mid), the compressible ledger's
    identity without its pressure and eta terms.
    """

    def __init__(self, operator_set: OperatorSet, params: CompressibleParams, dt, times, store_states=False):
        n, spec, m_V = len(times), operator_set.spec, operator_set.kernel.shape[1]
        self.operator_set, self.spec, self.params, self.dt, self.times = operator_set, spec, params, dt, times
        self.energy, self.h01, self.div, self.energy_residual = (np.empty(k) for k in (n, n, n, n - 1))
        (self.s_vec, self.s_fac), _ = _forcing_terms(spec, params)
        self.y, self.q = (np.empty((n, m_V)), np.empty((n, spec.m_p))) if store_states else (None, None)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def c(self) -> Optional[np.ndarray]:
        """c = Z y, (N+1, m_u), formed on each access (None without y): the slabs' c, bit for bit."""
        return None if self.y is None else self.y @ self.operator_set.kernel.T

    def __call__(self, start: int, y: np.ndarray, c: np.ndarray, q: Optional[np.ndarray]) -> None:
        p, nodes = self.params, slice(start, start + len(c))
        if self.y is not None:
            self.y[nodes], self.q[nodes] = y, q
        self.energy[nodes] = 0.5 * p.rho0 * np.einsum("ni,ni->n", y, y)
        self.h01[nodes] = np.linalg.norm(c, axis=1)
        self.div[nodes] = np.sqrt(np.maximum(np.einsum("ni,ni->n", apply_E(self.operator_set, c), c), 0.0))
        c_mid, t_mid = (0.5 * (row[1:] + row[:-1]) for row in (c, self.times[nodes]))
        work = self.dt * (c_mid @ self.s_vec) * _time_values(self.s_fac, t_mid)
        dissipation = self.dt * p.mu * np.einsum("ni,ni->n", c_mid, c_mid)
        self.energy_residual[start : nodes.stop - 1] = np.diff(self.energy[nodes]) + dissipation - work


def stokes_chunks(
    operator_set: OperatorSet, params: CompressibleParams, *, pressure: bool = True
) -> tuple[float, np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]]]:
    """Set up the Stokes march driven by ``params.s`` on the compressible grid policy.

    Returns (dt, times, chunks).  ``chunks`` is the march of the reduced
    system: pulled slab by slab, it yields ``(start, y, c, q)`` at nodes start,
    start + 1, ..., with :func:`crank_nicolson`'s starts and its row 0 the previous
    slab's last row, bit for bit: the reduced coordinates, the velocity c = Z y and
    the pressure y Q + fac(t) q_s of :func:`_pressure_map`, mean zero, one product
    per slab over its new nodes.  y views the march's chunk buffer, c and q slab
    buffers, which the next chunk and slab overwrite; node 0's pressure is
    :func:`initial_pressure`.  Without ``pressure`` no pressure map is formed, and
    the slabs' q are None.

    With lam = |Z_j|^2, the diagonal of Z'Z, and s = fac(t) s(x), it is crank_nicolson's
    march of rho0 dy/dt = -mu diag(lam) y + fac(t) Z's, a step
    (rho0 + dt mu lam / 2) y_{n+1} = (rho0 - dt mu lam / 2) y_n + w_n elementwise, under its
    residual gate.

    The initial velocity is projected onto the span and then Leray-projected,
    so an initial condition with a gradient part starts from its solenoidal
    component.  ``params.alpha`` only enters through the default dt policy,
    keeping the grid aligned with a compressible companion run, and
    ``params.f`` not at all.  A mass source ``params.sigma`` has no place in
    the solenoidal limit and raises InvalidParams.
    """
    spec = operator_set.spec
    Z = nullspace_basis(operator_set)
    dt, times = time_grid(params.validate(spec.n_u), params.T)
    if params.sigma is not None:
        raise InvalidParams("the incompressible limit has no mass source; leave sigma unset")

    (s_vec, s_fac), _ = _forcing_terms(spec, params)
    lam = np.einsum("ij,ij->j", Z, Z)
    Q, q_s = _pressure_map(operator_set, lam, params.mu, s_vec) if pressure else (None, None)
    c0 = leray_project(operator_set, VelocityCoeffs(spec, coefficients_of(spec, params.u0)))
    y0 = Z.T @ (operator_set.mass_diag * c0.solenoidal.values)

    # K = -mu diag(lam) is diagonal, so (dt/2) K goes to the march as a vector
    block = (np.arange(len(lam)), -(0.5 * dt * params.mu * lam))
    states = crank_nicolson(np.full(len(lam), params.rho0), [block], y0, times, [(Z.T @ s_vec, s_fac)])
    rows = min(REDUCTION_SLAB, len(times) - 1) + 1
    c, q = np.empty((rows, spec.m_u)), np.empty((rows, spec.m_p)) if pressure else None
    if pressure:
        q[0] = y0 @ Q + _time_values(s_fac, times[:1]) * q_s

    def chunks():
        for start, y in states:
            if pressure:  # column 0 of the product: BLAS sums y_j * +0.0 from +0.0
                np.matmul(y[1:], Q, out=q[1 : len(y)])
                q[1 : len(y)] += _time_values(s_fac, times[start + 1 : start + len(y)])[:, None] * q_s
            yield start, y, np.matmul(y, Z.T, out=c[: len(y)]), q[: len(y)] if pressure else None
            if pressure:
                q[0] = q[len(y) - 1]

    return dt, times, chunks()


def simulate_incompressible(
    spec: BasisSpec,
    operator_set: OperatorSet,
    kernel: np.ndarray,
    params: CompressibleParams,
    *,
    store_states: bool = False,
) -> IncompressibleTrajectory:
    """Integrate the Stokes system: the whole march of :func:`stokes_chunks`, each slab
    handed to the run's :class:`IncompressibleTrajectory`, which stores its y and q only with
    ``store_states`` (else no pressure is formed) and reduces it.  ``spec`` and ``kernel`` are
    not read; both go away once the benchmark's workload process stops passing them.
    """
    dt, times, chunks = stokes_chunks(operator_set, params, pressure=store_states)
    traj = IncompressibleTrajectory(operator_set, params, dt, times, store_states)
    for chunk in chunks:
        traj(*chunk)
    return traj


def _pressure_map(operator_set: OperatorSet, lam: np.ndarray, mu: float, s_vec: np.ndarray):
    """The map (Q, q_s) from a node's kernel coordinates y and load factor fac(t) to its pressure
    y Q + fac(t) q_s, mean zero (rho0 cancels).  The momentum residual is y R + fac(t) r_s, row j
    of R being mu (lam_j M - I) Z_j and r_s = s - M Z Z's.  Each row loses its roundoff kernel
    component, becomes exact zeros if it is roundoff of its terms (1e-13 of the larger), and goes
    through grad_inverse_rows, STEP_CHUNK rows at a time so that the temporaries are chunk-sized.
    """
    Z, mass = operator_set.kernel, operator_set.mass_diag

    def solve(g, terms):
        g -= mass * ((g @ Z) @ Z.T)
        g[np.linalg.norm(g, axis=1) <= 1e-13 * terms] = 0.0
        return grad_inverse_rows(operator_set, g)  # column 0, the mean, is +0.0

    Q = np.empty((len(lam), operator_set.spec.m_p))
    for rows in (slice(j, j + STEP_CHUNK) for j in range(0, len(lam), STEP_CHUNK)):
        mz = Z.T[rows] * mass
        terms = np.maximum(lam[rows] * np.linalg.norm(mz, axis=1), np.linalg.norm(Z[:, rows], axis=0))
        Q[rows] = solve(mu * (lam[rows, None] * mz - Z.T[rows]), mu * terms)
    zs = mass * (Z @ (Z.T @ s_vec))
    return Q, solve((s_vec - zs)[None], max(np.linalg.norm(s_vec), np.linalg.norm(zs)))[0]


def initial_pressure(operator_set: OperatorSet, params: CompressibleParams) -> PressureCoeffs:
    """The Stokes initial pressure p'(0) of the problem: the ``compatible_p0`` of a config.

    Node 0's pressure of a one-step :func:`stokes_chunks` march (dt = T), which
    no other dt changes: the node-0 pressure of simulate_incompressible, bit for
    bit, for the problem's ``u0``, momentum source ``s`` and ``mu`` (``rho0``
    cancels).  ``sigma`` and ``dt`` are not read.  ``u0`` must be discretely
    solenoidal (InvalidParams otherwise) and the solenoidal space nontrivial
    (EmptyKernel otherwise); the result is mean zero.
    """
    c0 = coefficients_of(operator_set.spec, params.u0)
    kernel_defect = np.linalg.norm(operator_set.div_coupling[1:] @ c0)
    if kernel_defect > 1e-8 * max(1.0, np.linalg.norm(c0)):
        raise InvalidParams(
            "the Stokes initial pressure (compatible_p0) needs a discretely solenoidal u0 "
            f"(|B u0| = {kernel_defect:.3e})"
        )
    _, _, chunks = stokes_chunks(operator_set, replace(params, sigma=None, dt=params.T))
    return PressureCoeffs(operator_set.spec, next(chunks)[3][0].copy())

