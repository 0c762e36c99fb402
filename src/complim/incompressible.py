"""Nonsteady Stokes flow in the discrete solenoidal subspace.

The state is reduced to coordinates y with c = Z y, where Z is the kernel
that ``assemble`` stores in the OperatorSet: its columns span {c : B c = 0}
and are M-orthonormal, so the evolution is simply

    rho0 dy/dt + mu (Z'Z) y = Z' F(t),      F_i = <s, velocity mode i>,

with s the momentum source of the compressible runs (rho0 f for the
homogeneous problem): the Stokes limit keeps s and drops the alpha p f
coupling.  Solenoidality therefore holds exactly at every step.  The
pressure is recovered in chunks of nodes from the momentum residual through
the inverse of the pressure gradient: with dc/dt read off the reduced
equation (not from finite differences, which would lose an order),

    q(t_n) = grad_inverse(F(t_n) - rho0 M dc/dt - mu c),

mean zero by construction and shiftable afterwards to any target mean; the
initial pressure is the same recovery at t = 0.  The march is a chunk
source, :func:`stokes_chunks`, which yields each chunk of steps with its
velocity and recovered pressure: :func:`simulate_incompressible` stores the
chunks and reduces each one, in the same loop, to the per-node columns and
the per-interval energy-identity defect of its trajectory.csv, and an alpha
sweep reduces each one against its rows and drops it.
Every function takes the OperatorSet and reads Z through
:func:`nullspace_basis`, the one check for an empty solenoidal space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .basis import BasisSpec, PressureCoeffs, VelocityCoeffs, coefficients_of
from .compressible import (
    CompressibleParams,
    InvalidParams,
    _forcing_terms,
    _time_values,
    crank_nicolson,
    time_grid,
)
from .operators import ANNIHILATION_TOL, AnnihilationError, OperatorSet, leray_project
from .operators import grad_inverse  # noqa: F401  unused; perfbench traces it under this module

__all__ = [
    "IncompressibleTrajectory",
    "EmptyKernel",
    "nullspace_basis",
    "stokes_chunks",
    "simulate_incompressible",
    "initial_pressure",
    "shift_pressure_mean",
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


@dataclass
class IncompressibleTrajectory:
    """Reduced coefficients, reconstructed velocity and recovered pressure per node."""

    spec: BasisSpec
    params: CompressibleParams
    dt: float
    times: np.ndarray  # (N+1,)
    y: np.ndarray  # (N+1, m_V)
    c: np.ndarray  # (N+1, m_u), c = Z y
    q: np.ndarray  # (N+1, m_p), mean zero before shifting
    energy: np.ndarray  # (N+1,), rho0 |u|^2 / 2
    h01: np.ndarray
    div: np.ndarray
    energy_residual: np.ndarray  # (N,), per-interval defect of the energy identity

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def stokes_chunks(
    operator_set: OperatorSet, params: CompressibleParams
) -> tuple[float, np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """Set up the Stokes march driven by ``params.s`` on the compressible grid policy.

    Returns (dt, times, chunks).  ``chunks`` is the crank_nicolson march of
    the reduced system: pulled chunk by chunk, it yields ``(start, y, c, q)``
    at nodes start, start + 1, ...: the reduced coordinates (a view that the
    next chunk overwrites), the velocity c = Z y and the pressure recovered
    from the momentum residual, mean zero.

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

    c0 = coefficients_of(spec, params.u0)
    c0 = leray_project(operator_set, VelocityCoeffs(spec, c0)).solenoidal.values
    y0 = Z.T @ (operator_set.mass_diag * c0)

    s_vec, s_fac, _, _ = _forcing_terms(spec, params)

    def loads(t: np.ndarray) -> np.ndarray:  # F at k times, (k, m_u)
        return np.outer(_time_values(s_fac, t), s_vec)

    stiff = Z.T @ Z  # ((Zy, Zy')) in reduced coordinates
    states = crank_nicolson(
        np.full(Z.shape[1], params.rho0),
        (-0.5 * dt * params.mu) * stiff,
        y0,
        times,
        Z.T @ s_vec if s_fac is None else lambda t: loads(t) @ Z,
    )

    def chunks():
        for start, y in states:
            c = y @ Z.T
            F = s_vec if s_fac is None else loads(times[start : start + len(y)])
            yield start, y, c, _recover_pressure(operator_set, stiff, params, F, y, c)

    return dt, times, chunks()


def simulate_incompressible(
    spec: BasisSpec,
    operator_set: OperatorSet,
    kernel: np.ndarray,
    params: CompressibleParams,
) -> IncompressibleTrajectory:
    """Integrate the Stokes system: the whole march of :func:`stokes_chunks`, stored.

    Each chunk is reduced as it is stored: I = rho0 |u|^2 / 2, |u|_{H10},
    |div u| and the defect of the energy identity
    I(t_{n+1}) - I(t_n) + dt mu |c_mid|^2 - dt (s(t_mid), c_mid) per interval,
    the compressible ledger's identity without its pressure and eta terms.
    ``spec`` and ``kernel`` are not read; both go away once the benchmark's
    workload process stops passing them.
    """
    spec = operator_set.spec
    dt, times, chunks = stokes_chunks(operator_set, params)
    n = len(times)
    y, c, q = (np.empty((n, m)) for m in (operator_set.kernel.shape[1], spec.m_u, spec.m_p))
    energy, h01, div, residuals = np.empty(n), np.empty(n), np.empty(n), np.empty(n - 1)
    s_vec, s_fac, _, _ = _forcing_terms(spec, params)
    for start, y_k, c_k, q_k in chunks:
        rows = slice(start, start + len(y_k))
        y[rows], c[rows], q[rows] = y_k, c_k, q_k
        energy[rows] = 0.5 * params.rho0 * np.einsum("ni,ni->n", y_k, y_k)  # Z'MZ = I
        h01[rows] = np.linalg.norm(c_k, axis=1)
        div[rows] = np.sqrt(np.maximum(np.einsum("ni,ni->n", c_k @ operator_set.div_gram, c_k), 0.0))
        steps = slice(max(start - 1, 0), rows.stop - 1)  # the intervals ending in this chunk
        c_mid = 0.5 * (c[steps.start + 1 : rows.stop] + c[steps])
        t_mid = 0.5 * (times[steps.start + 1 : rows.stop] + times[steps])
        work = dt * (c_mid @ s_vec) * _time_values(s_fac, t_mid)
        dissipation = dt * params.mu * np.einsum("ni,ni->n", c_mid, c_mid)
        residuals[steps] = np.diff(energy[steps.start : rows.stop]) + dissipation - work

    return IncompressibleTrajectory(
        spec=spec,
        params=params,
        dt=dt,
        times=times,
        y=y,
        c=c,
        q=q,
        energy=energy,
        h01=h01,
        div=div,
        energy_residual=residuals,
    )


def _recover_pressure(operator_set, stiff, params, F, y, c) -> np.ndarray:
    """Pressure at the nodes of the rows of y and c, from the momentum residual.

    The residual annihilates the kernel by Galerkin orthogonality, so its
    roundoff kernel component is removed; rows whose residual is roundoff of
    its terms stay zero, the others get grad_inverse's annihilation check.
    """
    Z, rho0, mu, mass = operator_set.kernel, params.rho0, params.mu, operator_set.mass_diag
    ydot = (F @ Z - mu * (y @ stiff.T)) / rho0
    terms = (np.broadcast_to(F, c.shape), rho0 * mass * (ydot @ Z.T), mu * c)
    g = terms[0] - terms[1] - terms[2]
    g -= mass * ((g @ Z) @ Z.T)
    norm_g = np.linalg.norm(g, axis=1)
    keep = norm_g > 1e-13 * np.max([np.linalg.norm(t, axis=1) for t in terms], axis=0)
    defect = np.linalg.norm(g @ Z, axis=1)
    bad = np.flatnonzero(keep & (defect > ANNIHILATION_TOL * norm_g))
    if bad.size:
        raise AnnihilationError(
            f"functional has a solenoidal component ({defect[bad[0]]:.3e} > "
            f"{ANNIHILATION_TOL:.0e} * |g|)"
        )
    q = np.zeros((len(c), operator_set.spec.m_p))
    q[keep, 1:] = ((-g[keep] @ operator_set.b_vt.T) / operator_set.b_s) @ operator_set.b_u.T
    return q


def initial_pressure(operator_set: OperatorSet, params: CompressibleParams) -> PressureCoeffs:
    """The Stokes initial pressure p'(0) of the problem: the ``compatible_p0`` of a config.

    The node-0 pressure recovery of simulate_incompressible for the problem's
    ``u0``, momentum source ``s``, ``rho0`` and ``mu``; the rest of
    ``params`` (``sigma`` included) is not read.  ``u0`` must be discretely
    solenoidal (InvalidParams otherwise) and the solenoidal space nontrivial
    (EmptyKernel otherwise); the result is mean zero.
    """
    spec = operator_set.spec
    c0 = coefficients_of(spec, params.u0)
    kernel_defect = np.linalg.norm(operator_set.div_coupling[1:] @ c0)
    if kernel_defect > 1e-8 * max(1.0, np.linalg.norm(c0)):
        raise InvalidParams(
            "the Stokes initial pressure (compatible_p0) needs a discretely solenoidal u0 "
            f"(|B u0| = {kernel_defect:.3e})"
        )
    s_vec, s_fac, _, _ = _forcing_terms(spec, replace(params, sigma=None))
    Z = nullspace_basis(operator_set)
    y0 = Z.T @ (operator_set.mass_diag * c0)
    F0 = np.outer(_time_values(s_fac, [0.0]), s_vec)
    q0 = _recover_pressure(operator_set, Z.T @ Z, params, F0, y0[None], c0[None])
    return PressureCoeffs(spec, q0[0])


def shift_pressure_mean(traj: IncompressibleTrajectory, A: float) -> IncompressibleTrajectory:
    """Shift the recovered pressure so its mean equals A at every node.

    Only the constant-mode entry changes; the represented gradient B'q is
    untouched because the constant row of B vanishes.
    """
    q = traj.q.copy()
    q[:, 0] = A
    return replace(traj, q=q)
