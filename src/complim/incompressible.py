"""Nonsteady Stokes flow in the discrete solenoidal subspace.

The state is reduced to coordinates y with c = Z y, where the columns of Z
span {c : B c = 0} and are M-orthonormal, so the evolution is simply

    rho0 dy/dt + mu (Z'Z) y = Z' F(t),      F_i = <s, velocity mode i>,

with s the momentum source of the compressible runs (rho0 f for the
homogeneous problem): the Stokes limit keeps s and drops the alpha p f
coupling.  Solenoidality therefore holds exactly at every step.  The
pressure is recovered in chunks of nodes from the momentum residual through
the inverse of the pressure gradient: with dc/dt read off the reduced
equation (not from finite differences, which would lose an order),

    q(t_n) = grad_inverse(F(t_n) - rho0 M dc/dt - mu c),

mean zero by construction and shiftable afterwards to any target mean; the
initial pressure is the same recovery at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .basis import BasisSpec, PressureCoeffs, SampledField, VelocityCoeffs, coefficients_of
from .compressible import (
    STEP_CHUNK,
    CompressibleParams,
    InvalidParams,
    _forcing_terms,
    _time_values,
    march,
    time_grid,
)
from .operators import ANNIHILATION_TOL, AnnihilationError, OperatorSet, leray_project
from .operators import grad_inverse  # noqa: F401  unused; perfbench traces it under this module

__all__ = [
    "SolenoidalBasis",
    "IncompressibleTrajectory",
    "EmptyKernel",
    "nullspace_basis",
    "simulate_incompressible",
    "initial_pressure",
    "shift_pressure_mean",
]


class EmptyKernel(RuntimeError):
    """The discrete solenoidal space is trivial for this truncation."""


@dataclass(frozen=True)
class SolenoidalBasis:
    """M-orthonormal basis Z of the discrete solenoidal space (B Z = 0, Z'MZ = I)."""

    spec: BasisSpec
    z: np.ndarray  # (m_u, m_V)

    @property
    def m_v(self) -> int:
        return self.z.shape[1]


def nullspace_basis(operator_set: OperatorSet) -> SolenoidalBasis:
    """Kernel basis of the divergence coupling, M-orthonormalized.

    Raises EmptyKernel when no discrete solenoidal field exists, which does
    happen at the smallest truncations (n_u = n_p = 1 leaves m_V = 0).
    """
    if operator_set.kernel.shape[1] == 0:
        raise EmptyKernel(
            f"no solenoidal modes for n_u={operator_set.spec.n_u}, n_p={operator_set.spec.n_p}"
        )
    return SolenoidalBasis(spec=operator_set.spec, z=operator_set.kernel)


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
    energy_residual: np.ndarray  # (N,), per-interval identity defect

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def simulate_incompressible(
    spec: BasisSpec,
    operator_set: OperatorSet,
    solenoidal: SolenoidalBasis,
    params: CompressibleParams,
) -> IncompressibleTrajectory:
    """Integrate the Stokes system driven by ``params.s`` on the compressible grid policy.

    The initial velocity is projected onto the span and then Leray-projected,
    so an initial condition with a gradient part starts from its solenoidal
    component.  ``params.alpha`` only enters through the default dt policy,
    keeping the grid aligned with a compressible companion run, and
    ``params.f`` not at all.  A mass source ``params.sigma`` has no place in
    the solenoidal limit and raises InvalidParams.
    """
    Z = solenoidal.z
    dt, times = time_grid(params.validate(spec.n_u), params.T)
    if params.sigma is not None:
        raise InvalidParams("the incompressible limit has no mass source; leave sigma unset")
    m_v = Z.shape[1]

    c0 = coefficients_of(spec, params.u0)
    c0 = leray_project(operator_set, VelocityCoeffs(spec, c0)).solenoidal.values
    y0 = Z.T @ (operator_set.mass_diag * c0)

    s_vec, s_fac, _, _ = _forcing_terms(spec, params)

    def loads(t: np.ndarray) -> np.ndarray:  # F at k times, (k, m_u)
        return np.outer(_time_values(s_fac, t), s_vec)

    stiff = Z.T @ Z  # ((Zy, Zy')) in reduced coordinates
    lhs = params.rho0 * np.eye(m_v) + 0.5 * dt * params.mu * stiff
    rhs_mat = params.rho0 * np.eye(m_v) - 0.5 * dt * params.mu * stiff
    ys = march(lhs, rhs_mat, y0, times, Z.T @ s_vec if s_fac is None else lambda t: loads(t) @ Z)
    c = ys @ Z.T
    q = np.zeros((len(times), spec.m_p))
    for start in range(0, len(times), STEP_CHUNK):
        rows = slice(start, start + STEP_CHUNK)
        F = s_vec if s_fac is None else loads(times[rows])
        q[rows] = _recover_pressure(operator_set, Z, stiff, params, F, ys[rows], c[rows])

    # energy identity audit: rho0 d|u|^2/dt + 2 mu |u|^2_{H10} = 2 (s, u)
    y_mid = 0.5 * (ys[1:] + ys[:-1])
    t_mid = 0.5 * (times[1:] + times[:-1])
    diss = 2.0 * params.mu * dt * np.einsum("ni,ij,nj->n", y_mid, stiff, y_mid, optimize=True)
    work = 2.0 * dt * (y_mid @ (Z.T @ s_vec)) * _time_values(s_fac, t_mid)
    l2_sq = np.einsum("ni,ni->n", ys, ys)
    residuals = params.rho0 * np.diff(l2_sq) + diss - work

    return IncompressibleTrajectory(
        spec=spec,
        params=params,
        dt=dt,
        times=times,
        y=ys,
        c=c,
        q=q,
        energy=0.5 * params.rho0 * l2_sq,
        h01=np.linalg.norm(c, axis=1),
        div=np.sqrt(
            np.maximum(np.einsum("ni,ij,nj->n", c, operator_set.div_gram, c, optimize=True), 0.0)
        ),
        energy_residual=residuals,
    )


def _recover_pressure(operator_set, Z, stiff, params, F, y, c) -> np.ndarray:
    """Pressure at the nodes of the rows of y and c, from the momentum residual.

    The residual annihilates the kernel by Galerkin orthogonality, so its
    roundoff kernel component is removed; rows whose residual is roundoff of
    its terms stay zero, the others get grad_inverse's annihilation check.
    """
    rho0, mu, mass = params.rho0, params.mu, operator_set.mass_diag
    ydot = (F @ Z - mu * (y @ stiff.T)) / rho0
    terms = (np.broadcast_to(F, c.shape), rho0 * mass * (ydot @ Z.T), mu * c)
    g = terms[0] - terms[1] - terms[2]
    g -= mass * ((g @ Z) @ Z.T)
    norm_g = np.linalg.norm(g, axis=1)
    keep = norm_g > 1e-13 * np.max([np.linalg.norm(t, axis=1) for t in terms], axis=0)
    defect = np.linalg.norm(g @ operator_set.kernel, axis=1)
    bad = np.flatnonzero(keep & (defect > ANNIHILATION_TOL * norm_g))
    if bad.size:
        raise AnnihilationError(
            f"functional has a solenoidal component ({defect[bad[0]]:.3e} > "
            f"{ANNIHILATION_TOL:.0e} * |g|)"
        )
    q = np.zeros((len(c), operator_set.spec.m_p))
    q[keep, 1:] = ((-g[keep] @ operator_set.b_vt.T) / operator_set.b_s) @ operator_set.b_u.T
    return q


def initial_pressure(
    spec: BasisSpec,
    operator_set: OperatorSet,
    solenoidal: SolenoidalBasis,
    u0_solenoidal: VelocityCoeffs,
    s: Optional[SampledField] = None,
    *,
    rho0: float = 1.0,
    mu: float = 1.0,
) -> PressureCoeffs:
    """Well-defined initial pressure of the Stokes problem driven by the momentum source s.

    The node-0 pressure recovery of simulate_incompressible for the reduced
    evolution started from ``u0_solenoidal``, which must be discretely
    solenoidal; the result is mean zero.
    """
    c0 = np.asarray(u0_solenoidal.values, dtype=float)
    kernel_defect = np.linalg.norm(operator_set.div_coupling[1:] @ c0)
    if kernel_defect > 1e-8 * max(1.0, np.linalg.norm(c0)):
        raise ValueError(
            f"u0 is not discretely solenoidal (|B u0| = {kernel_defect:.3e})"
        )
    params = CompressibleParams(rho0=rho0, mu=mu, s=s)
    s_vec, s_fac, _, _ = _forcing_terms(spec, params)
    Z = solenoidal.z
    y0 = Z.T @ (operator_set.mass_diag * c0)
    F0 = np.outer(_time_values(s_fac, [0.0]), s_vec)
    q0 = _recover_pressure(operator_set, Z, Z.T @ Z, params, F0, y0[None], c0[None])
    return PressureCoeffs(spec, q0[0])


def shift_pressure_mean(traj: IncompressibleTrajectory, A: float) -> IncompressibleTrajectory:
    """Shift the recovered pressure so its mean equals A at every node.

    Only the constant-mode entry changes; the represented gradient B'q is
    untouched because the constant row of B vanishes.
    """
    q = traj.q.copy()
    q[:, 0] = A
    return replace(traj, q=q)
