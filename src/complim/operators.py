"""Galerkin matrices and coefficient-space realizations of the flow operators.

Assembles, from closed-form 1-D integrals only:

    M  (m_u x m_u)  diagonal velocity mass matrix,
    E  (m_u x m_u)  div-div Gram matrix, E_ij = (div e_i, div e_j), not kept dense,
    B  (m_p x m_u)  divergence coupling, B_kj = (div e_j, pressure mode k).

Per-state products take :func:`apply_E` and :func:`apply_B`, O(n^3) a row against O(n^4),
from the kept 1-D table S(a, b) = int_0^1 sin(a pi t) cos(b pi t) dt.  Where a matrix of E is
needed (a step block, |E|_2) :func:`div_gram` builds it on the given unknowns from the same
table; dense B serves the steps and the SVD.

The row of B belonging to the constant pressure mode vanishes identically
(fields with zero trace have mean-zero divergence).  On top of these the
module provides the Leray projector, the inverse of the pressure gradient,
and a minimum-norm right inverse of the divergence, all through one
rank-revealing SVD of B restricted to the mean-zero pressure modes.

At equal truncations (n_p == n_u) that restriction is rank deficient by
one; every solve here is therefore rank-aware with relative tolerance
RANK_RTOL instead of assuming full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    cos_cos_integral,
    sin_cos_integral,
    velocity_mass_diagonal,
)

__all__ = [
    "OperatorSet",
    "HelmholtzParts",
    "AnnihilationError",
    "MeanNotZero",
    "assemble",
    "div_gram",
    "apply_E",
    "apply_B",
    "coupling_matrix",
    "leray_project",
    "grad_inverse",
    "grad_inverse_rows",
    "bogovskii",
    "operator_norm_estimates",
]

RANK_RTOL = 1e-11
ANNIHILATION_TOL = 1e-8
# G entries up to this times max|G| are quadrature roundoff (exact to ~1e-14) at parity zeros
COUPLING_ZERO_RTOL = 1e-14


class AnnihilationError(ValueError):
    """Functional handed to grad_inverse does not vanish on the solenoidal space."""


class MeanNotZero(ValueError):
    """Pressure-side datum handed to bogovskii has a nonzero mean."""


@dataclass(frozen=True)
class OperatorSet:
    """M's diagonal, B, the 1-D tables E is read from, and the cached factorization of B[1:].

    The stiffness matrix is the identity by basis normalization and is kept
    implicit, and E is read through :func:`apply_E` and :func:`div_gram`, so no
    array here has m_u x m_u entries.  ``b_u, b_s, b_vt`` hold the thin SVD of
    B[1:] truncated at ``b_rank``; ``kernel`` spans null(B[1:]) and is M-orthonormal.
    """

    spec: BasisSpec
    mass_diag: np.ndarray  # (m_u,)
    div_coupling: np.ndarray  # B, (m_p, m_u)
    sin_cos: np.ndarray  # S(a, b) at [a - 1, b], a = 1..n_u, b = 0..max(n_u, n_p)
    div_leads: np.ndarray  # (2, n_u, n_u): n_ij i pi and n_ij j pi, of div e_(1,i,j) and div e_(2,i,j)
    b_u: np.ndarray  # (m_p-1, r)
    b_s: np.ndarray  # (r,)
    b_vt: np.ndarray  # (r, m_u)
    b_rank: int
    kernel: np.ndarray  # Z, (m_u, m_V) with Z' M Z = I
    full_row_rank: bool


def assemble(spec: BasisSpec) -> OperatorSet:
    """Assemble M, B and E's tables for the given basis and factor the mean-zero block of B."""
    n = spec.n_u
    mass_diag = velocity_mass_diagonal(spec)
    idx = np.arange(1, n + 1)
    norms = spec.vel_norms  # n_ij at [i-1, j-1]
    leads = np.stack((norms * idx[:, None] * np.pi, norms * idx[None, :] * np.pi))
    half = n * n
    # Broadcast products of the 1-D closed forms S(a, b) (a = 1..n), C(a, k) and
    # c_kl, in the factor order of the per-entry formulas; "+ 0.0" stores the
    # signed zeros of vanishing integrals as +0.0.
    ks = range(spec.n_p + 1)
    s_tab = np.array([[sin_cos_integral(a, b) for b in range(max(n, spec.n_p) + 1)] for a in idx])
    c_tab = np.array([[cos_cos_integral(a, k) for k in ks] for a in idx])

    # B on axes (k, l, i, j): component 1 pairs C(i, k) S(j, l), component 2 S(i, k) C(j, l)
    c_p, s_p = c_tab.T, s_tab[:, : spec.n_p + 1].T  # at [k, i-1]
    lead = norms * spec.pres_norms[:, :, None, None]  # c_kl at [k, l]
    v1 = lead * idx[:, None] * np.pi * c_p[:, None, :, None] * s_p[:, None, :] + 0.0
    v2 = lead * idx * np.pi * s_p[:, None, :, None] * c_p[:, None, :] + 0.0
    B = np.concatenate([v1.reshape(spec.m_p, half), v2.reshape(spec.m_p, half)], axis=1)

    u, s, vt = np.linalg.svd(B[1:], full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * (s[0] if s.size else 1.0)))
    null = vt[rank:].T  # Euclidean-orthonormal kernel of B[1:]
    if null.shape[1] > 0:
        gram = null.T @ (mass_diag[:, None] * null)
        kernel = null @ np.linalg.inv(np.linalg.cholesky(gram)).T
        # order by smoothness: diagonalize the H10 Gram on the kernel, so the
        # columns are discrete Stokes modes with ascending Rayleigh quotients
        # (M-orthonormality is preserved) and "first kernel vector" is the
        # fundamental solenoidal mode.
        _, vecs = np.linalg.eigh(kernel.T @ kernel)
        kernel = kernel @ vecs
        flips = np.sign(kernel[np.abs(kernel).argmax(axis=0), np.arange(kernel.shape[1])])
        kernel *= np.where(flips == 0.0, 1.0, flips)
    else:
        kernel = null.copy()
    return OperatorSet(
        spec=spec,
        mass_diag=mass_diag,
        div_coupling=B,
        sin_cos=s_tab,
        div_leads=leads,
        b_u=u[:, :rank].copy(),
        b_s=s[:rank].copy(),
        b_vt=vt[:rank].copy(),  # copies: a view of its first rows would keep all of vt alive
        b_rank=rank,
        kernel=kernel,
        full_row_rank=rank == spec.m_p - 1,
    )


def div_gram(operator_set: OperatorSet, modes: np.ndarray) -> np.ndarray:
    """E[np.ix_(modes, modes)] for ascending velocity unknowns, entry by entry from the tables:
    lead^2 / 4 on the diagonal, zero elsewhere within a component, and between the components
    (div e_(1,i,j), div e_(2,i',j')) = n_ij n_i'j' pi^2 i j' S(i',i) S(j,j'), + 0.0 as in B."""
    n, s = operator_set.spec.n_u, operator_set.sin_cos
    comp, i, j = np.unravel_index(modes, (2, n, n))  # i - 1, j - 1
    h, norms, k = np.searchsorted(comp, 1), operator_set.spec.vel_norms[i, j], len(modes)
    (i1, j1, n1), (i2, j2, n2) = (i[:h, None], j[:h, None], norms[:h, None]), (i[h:], j[h:], norms[h:])
    cross = n1 * n2 * np.pi**2 * (i1 + 1) * (j2 + 1) * s[i2, i1 + 1] * s[j1, j2 + 1] + 0.0
    E = np.zeros((k, k))
    E[:h, h:], E[h:, :h] = cross, cross.T
    E[np.arange(k), np.arange(k)] = operator_set.div_leads[comp, i, j] ** 2 / 4.0
    return E


def apply_E(operator_set: OperatorSet, rows: np.ndarray) -> np.ndarray:
    """rows @ E for a (k, m_u) array: per velocity component lead^2 / 4 on the diagonal, and from the
    cross block lead_1 S'(lead_2 c_2)S' for component 1 and lead_2 S(lead_1 c_1)S for component 2."""
    k, n = len(rows), operator_set.spec.n_u
    s, leads, r = operator_set.sin_cos[:, 1 : n + 1], operator_set.div_leads, rows.reshape(k, 2, n, n)
    out = np.empty((k, 2, n, n))
    for comp, (w, m) in enumerate(((r[:, 1] * leads[1], s.T), (r[:, 0] * leads[0], s))):  # m w m, per row
        y = (w.reshape(k * n, n) @ m).reshape(k, n, n).transpose(0, 2, 1).reshape(k * n, n)
        out[:, comp] = (y @ m.T).reshape(k, n, n).transpose(0, 2, 1)
    out *= leads
    out += r * (leads**2 / 4.0)  # the diagonal
    return out.reshape(rows.shape)


def apply_B(operator_set: OperatorSet, q_rows: np.ndarray) -> np.ndarray:
    """q_rows @ B for a (k, m_p) array.  With C(i, k) = delta_ik / 2 a velocity component's block
    of B is n_ij i pi c_il S(j, l) / 2 (component 1; j pi and S(i, k) for 2), one product with S."""
    spec, k = operator_set.spec, len(q_rows)
    n, n_p, r = spec.n_u, spec.n_p, min(spec.n_u, spec.n_p)
    s_t = operator_set.sin_cos[:, : n_p + 1].T  # S(a, b) at [b, a - 1]
    p = q_rows.reshape(k, n_p + 1, n_p + 1) * (0.5 * spec.pres_norms)
    out = np.zeros((k, 2, n, n))  # on (i, j): component 2 is filled on (j, i), from p on (l, k)
    for o, p_c in zip((out[:, 0], out[:, 1].transpose(0, 2, 1)), (p, p.transpose(0, 2, 1))):
        o[:, :r] = (p_c[:, 1 : r + 1].reshape(k * r, n_p + 1) @ s_t).reshape(k, r, n)
    out *= operator_set.div_leads
    return out.reshape(k, spec.m_u)


def coupling_matrix(operator_set: OperatorSet, f: SampledField) -> np.ndarray:
    """Force coupling G with G_ik = int_D (pressure mode k) (f . velocity mode i) dx, its
    roundoff zeroed at COUPLING_ZERO_RTOL; a G with a non-finite entry is returned as is.  The
    quadrature factors through the 1-D table sc[(i, k), a] = w_a sin(i pi x_a) cos(k pi x_a):
    a component's block is sc F sc', two GEMMs, moved from (i, k), (j, l) to (i, j), (k, l)."""
    if not f.vector:
        raise ValueError("coupling_matrix expects a 2-vector force field")
    spec = operator_set.spec
    x, w = spec.quad_rule()
    fvals = f(x[:, None], x[None, :])  # (2, Q, Q), spatial part
    sin_w = spec.velocity_sine_table(x) * w  # (N_u, Q)
    sc = (sin_w[:, None] * spec.pressure_cosine_table(x)).reshape(-1, x.size)  # (N_u (N_p+1), Q)
    ik = (spec.n_u, spec.n_p + 1)
    G = np.empty((2, spec.n_u, spec.n_u, spec.n_p + 1, spec.n_p + 1))
    for comp in (0, 1):
        G[comp] = ((sc @ fvals[comp]) @ sc.T).reshape(ik + ik).transpose(0, 2, 1, 3)
    G *= np.multiply.outer(spec.vel_norms, spec.pres_norms)
    G = G.reshape(spec.m_u, spec.m_p)
    if np.isfinite(scale := np.abs(G).max()):
        G[np.abs(G) <= COUPLING_ZERO_RTOL * scale] = 0.0
    return G


@dataclass
class HelmholtzParts:
    """L^2-orthogonal split of a velocity field into weakly solenoidal and gradient parts."""

    solenoidal: VelocityCoeffs
    gradient: VelocityCoeffs


def leray_project(operator_set: OperatorSet, c: VelocityCoeffs) -> HelmholtzParts:
    """Project onto the discrete solenoidal space {c : B c = 0}, minimizing L^2 distance.

    Equivalent to the saddle system M c~ + B' lambda = M c, B c~ = 0 with the
    constant pressure row dropped; solved through the M-orthonormal kernel
    basis, which stays well defined when B is rank deficient.
    """
    values = np.asarray(c.values, dtype=float)
    if values.shape != (operator_set.spec.m_u,):
        raise ValueError("coefficient length does not match the operator set")
    Z = operator_set.kernel
    sol = Z @ (Z.T @ (operator_set.mass_diag * values))
    spec = operator_set.spec
    return HelmholtzParts(
        solenoidal=VelocityCoeffs(spec, sol),
        gradient=VelocityCoeffs(spec, values - sol),
    )


def grad_inverse(operator_set: OperatorSet, g: np.ndarray) -> PressureCoeffs:
    """Recover the mean-zero pressure q with -B' q = g from a momentum functional.

    ``g`` holds the duality pairings of the functional with the velocity
    basis.  It must annihilate the discrete solenoidal space; otherwise no
    pressure gradient can represent it and AnnihilationError is raised.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (operator_set.spec.m_u,):
        raise ValueError("functional vector length does not match the velocity span")
    return PressureCoeffs(operator_set.spec, grad_inverse_rows(operator_set, g[None])[0])


def grad_inverse_rows(operator_set: OperatorSet, g: np.ndarray) -> np.ndarray:
    """grad_inverse of each row of the (k, m_u) array g, as a (k, m_p) array; zero rows give zeros."""
    defect = np.linalg.norm(g @ operator_set.kernel, axis=1)
    bad = np.flatnonzero(defect > ANNIHILATION_TOL * np.linalg.norm(g, axis=1))
    if bad.size:  # the first row with a solenoidal component
        raise AnnihilationError(
            f"functional has a solenoidal component ({defect[bad[0]]:.3e} > {ANNIHILATION_TOL:.0e} * |g|)"
        )
    # min-norm least squares for B[1:]' q = -g via the cached SVD
    q = np.zeros((len(g), operator_set.spec.m_p))
    np.matmul((g @ operator_set.b_vt.T) / -operator_set.b_s, operator_set.b_u.T, out=q[:, 1:])
    return q


def bogovskii(operator_set: OperatorSet, fq: PressureCoeffs) -> tuple[VelocityCoeffs, float]:
    """Minimum-H^1_0-norm velocity c with B c = fq, plus the attained residual |Bc - fq|.

    The datum must be mean zero, mirroring the domain of the continuous
    right inverse of the divergence.
    """
    values = np.asarray(fq.values, dtype=float)
    spec = operator_set.spec
    if values.shape != (spec.m_p,):
        raise ValueError("pressure coefficient length does not match the operator set")
    if abs(values[0]) > 1e-12:
        raise MeanNotZero(f"datum has mean {values[0]:.3e}, expected 0")
    rhs = values[1:]
    c = operator_set.b_vt.T @ ((operator_set.b_u.T @ rhs) / operator_set.b_s)
    residual = float(np.linalg.norm(operator_set.div_coupling[1:] @ c - rhs))
    return VelocityCoeffs(spec, c), residual


def operator_norm_estimates(operator_set: OperatorSet) -> dict:
    """Discrete operator norms realized by the factorization of B.

    Both the divergence right inverse (L^2 -> H^1_0) and the gradient
    inverse (dual norm -> L^2) attain 1/sigma_min over the effective range,
    where sigma_min is the smallest singular value above the rank cut.
    """
    s_min = float(operator_set.b_s[-1])
    return {
        "bogovskii_norm": 1.0 / s_min,
        "grad_inverse_norm": 1.0 / s_min,
        "b_min_singular_value": s_min,
        "b_rank": operator_set.b_rank,
        "full_row_rank": operator_set.full_row_rank,
    }
