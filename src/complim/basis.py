"""Tensor trigonometric bases on the unit square D = (0,1)^2.

Each velocity component is expanded in sine modes

    e_(k,i,j) = n_ij * sin(i*pi*x) * sin(j*pi*y)   in component k, 0 in the other,

with n_ij = 2/(pi*sqrt(i^2+j^2)) so that the basis is orthonormal in the
H^1_0 dot product ((u,v)) = int grad u : grad v.  The pressure is expanded
in cosine modes

    e_(k,l) = c_kl * cos(k*pi*x) * cos(l*pi*y),

orthonormal in L^2 and including the constant mode (k = l = 0), so the
mean-zero subspace is exactly "every mode except flat index 0".

All products between these families reduce to the 1-D integrals

    S(m,n) = int_0^1 sin(m pi t) cos(n pi t) dt = m (1-(-1)^(m+n)) / (pi (m^2-n^2)),  m != n
    C(m,n) = int_0^1 cos(m pi t) cos(n pi t) dt = delta_mn / 2             for m,n >= 1

which keeps every constant-coefficient Galerkin matrix exact.  Integrals
against arbitrary sampled fields use a tensor Gauss-Legendre rule with
2*max(N_u, N_p) + 12 points per axis, enough to keep projections of
in-span fields exact to ~1e-14 after the inverse-mass amplification.
BasisSpec(N_u, N_p), whose public name is build_basis, derives all of this from its two sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BasisSpec",
    "VelocityCoeffs",
    "PressureCoeffs",
    "SampledField",
    "build_basis",
    "project_velocity",
    "project_pressure",
    "coefficients_of",
    "norms",
    "velocity_load_vector",
    "pressure_load_vector",
    "sin_cos_integral",
    "cos_cos_integral",
]


def sin_cos_integral(m: int, n: int) -> float:
    """Closed form of int_0^1 sin(m*pi*t) cos(n*pi*t) dt for integer m >= 1, n >= 0."""
    if (m + n) % 2 == 0:
        return 0.0
    return m * (1.0 - (-1.0) ** (m + n)) / (np.pi * (m * m - n * n))


def cos_cos_integral(m: int, n: int) -> float:
    """Closed form of int_0^1 cos(m*pi*t) cos(n*pi*t) dt for integers m, n >= 0."""
    if m != n:
        return 0.0
    return 1.0 if m == 0 else 0.5


@dataclass(frozen=True)
class BasisSpec:
    """Discrete function spaces for one (N_u, N_p) truncation, a value of its two sizes.

    m_u = 2*N_u^2 velocity degrees of freedom (component-major flat order),
    m_p = (N_p+1)^2 pressure degrees of freedom with flat index 0 reserved
    for the constant mode.  The rest derives from n_u and n_p, the arrays on first read, so a
    basis costs nothing until one is read; bases of equal sizes are equal and hash alike.
    """

    n_u: int  # largest 1-D sine index per velocity component, >= 1
    n_p: int  # largest 1-D cosine index for the pressure, >= 0

    def __post_init__(self) -> None:
        for name, least in (("n_u", 1), ("n_p", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))

    m_u = property(lambda self: 2 * self.n_u**2)
    m_p = property(lambda self: (self.n_p + 1) ** 2)
    quad_order = property(lambda self: 2 * max(self.n_u, self.n_p) + 12)  # Gauss-Legendre points per axis

    @cached_property
    def vel_norms(self) -> np.ndarray:
        """(N_u, N_u); entry [i-1, j-1] = n_ij."""
        i = np.arange(1, self.n_u + 1)
        return 2.0 / (np.pi * np.sqrt(i[:, None] ** 2 + i[None, :] ** 2))

    @cached_property
    def pres_norms(self) -> np.ndarray:
        """(N_p+1, N_p+1); entry [k, l] = c_kl."""
        pres_norms = np.full((self.n_p + 1, self.n_p + 1), 2.0)
        pres_norms[0, :] = np.sqrt(2.0)
        pres_norms[:, 0] = np.sqrt(2.0)
        pres_norms[0, 0] = 1.0
        return pres_norms

    @cached_property
    def mass_diag(self) -> np.ndarray:
        """Diagonal of the velocity L^2 mass matrix M: entry 1/(pi^2 (i^2+j^2)) per mode."""
        i = np.arange(1, self.n_u + 1)
        per_mode = 1.0 / (np.pi**2 * (i[:, None] ** 2 + i[None, :] ** 2))
        return np.tile(per_mode.ravel(), 2)

    # -- index maps ----------------------------------------------------
    def velocity_index(self, comp: int, i: int, j: int) -> int:
        """Flat index of the velocity mode (component, i, j); comp in {0, 1}, 1 <= i,j <= N_u."""
        if comp not in (0, 1) or not (1 <= i <= self.n_u and 1 <= j <= self.n_u):
            raise IndexError(f"velocity mode ({comp}, {i}, {j}) out of range")
        return comp * self.n_u**2 + (i - 1) * self.n_u + (j - 1)

    def velocity_mode(self, flat: int) -> tuple[int, int, int]:
        if not 0 <= flat < self.m_u:
            raise IndexError(f"velocity flat index {flat} out of range")
        comp, rest = divmod(flat, self.n_u**2)
        i, j = divmod(rest, self.n_u)
        return comp, i + 1, j + 1

    def pressure_index(self, k: int, l: int) -> int:
        """Flat index of the pressure mode (k, l); 0 <= k,l <= N_p."""
        if not (0 <= k <= self.n_p and 0 <= l <= self.n_p):
            raise IndexError(f"pressure mode ({k}, {l}) out of range")
        return k * (self.n_p + 1) + l

    def parity_classes(self) -> np.ndarray:
        """Each unknown's parity class (0-4), velocity modes first: class 2a + b holds
        component 1's modes (i, j) with (i mod 2, 1 - j mod 2) = (a, b), component 2's with
        (1 - i mod 2, j mod 2) = (a, b) and the pressure modes (k, l) with (k mod 2, l mod 2)
        = (a, b); class 4 is the constant pressure mode.  E, B and the mass matrix couple no
        two modes of different classes."""
        i, j = np.divmod(np.arange(self.n_u**2), self.n_u)  # mode (i + 1, j + 1)
        k, l = np.divmod(np.arange(self.m_p), self.n_p + 1)
        pressure = 2 * (k % 2) + l % 2
        pressure[0] = 4
        return np.concatenate([2 * (1 - i % 2) + j % 2, 2 * (i % 2) + 1 - j % 2, pressure])

    # -- quadrature -----------------------------------------------------
    def quad_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [0, 1] (quad_order points)."""
        nodes, weights = np.polynomial.legendre.leggauss(self.quad_order)
        return 0.5 * (nodes + 1.0), 0.5 * weights

    def velocity_sine_table(self, x: np.ndarray) -> np.ndarray:
        """sin(i*pi*x) for i = 1..N_u, shape (N_u, len(x))."""
        i = np.arange(1, self.n_u + 1)
        return np.sin(np.pi * np.outer(i, x))

    def pressure_cosine_table(self, x: np.ndarray) -> np.ndarray:
        """cos(k*pi*x) for k = 0..N_p, shape (N_p+1, len(x))."""
        k = np.arange(0, self.n_p + 1)
        return np.cos(np.pi * np.outer(k, x))


@dataclass
class VelocityCoeffs:
    """Coefficient vector of a velocity field in the H^1_0-orthonormal basis."""

    spec: BasisSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.m_u,):
            raise ValueError(
                f"velocity coefficient vector has length {self.values.shape}, expected ({self.spec.m_u},)"
            )


@dataclass
class PressureCoeffs:
    """Coefficient vector of a pressure field in the L^2-orthonormal cosine basis.

    Entry 0 equals the mean of the field (the domain has unit area).
    """

    spec: BasisSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.m_p,):
            raise ValueError(
                f"pressure coefficient vector has length {self.values.shape}, expected ({self.spec.m_p},)"
            )


@dataclass(frozen=True)
class SampledField:
    """Closed-form scalar or 2-vector field on D with an optional separable time factor.

    ``spatial(x, y)`` must broadcast over arrays; vector fields return an array
    of shape (2,) + x.shape.  ``time_factor`` multiplies the whole field and
    must be evaluable on [0, T].
    """

    spatial: Callable[[np.ndarray, np.ndarray], np.ndarray]
    vector: bool
    time_factor: Optional[Callable[[float], float]] = None

    @property
    def time_dependent(self) -> bool:
        return self.time_factor is not None

    def at_time(self, t: float) -> float:
        return 1.0 if self.time_factor is None else float(self.time_factor(t))

    def __call__(self, x, y, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = np.asarray(self.spatial(x, y), dtype=float)
        want = ((2,) + shape) if self.vector else shape
        out = np.broadcast_to(out, want).astype(float)
        return out * self.at_time(t)

    def scaled(self, factor: float) -> "SampledField":
        """The field times a constant, with the same time factor (e.g. s = rho0 f)."""
        return SampledField(
            spatial=lambda x, y: factor * np.asarray(self.spatial(x, y)),
            vector=self.vector,
            time_factor=self.time_factor,
        )

    @staticmethod
    def scalar(fn, time_factor=None) -> "SampledField":
        return SampledField(spatial=fn, vector=False, time_factor=time_factor)

    @staticmethod
    def of_vector(fx, fy, time_factor=None) -> "SampledField":
        def spatial(x, y):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            return np.stack([np.broadcast_to(fx(x, y), shape),
                             np.broadcast_to(fy(x, y), shape)])

        return SampledField(spatial=spatial, vector=True, time_factor=time_factor)


build_basis = BasisSpec  # the discrete spaces for the given 1-D mode limits, by their public name


def velocity_load_vector(spec: BasisSpec, fld: SampledField) -> np.ndarray:
    """L^2 pairings (fld, e_i) with every velocity basis function (spatial part only)."""
    if not fld.vector:
        raise ValueError("expected a 2-vector field")
    x, w = spec.quad_rule()
    values = fld.spatial(x[:, None], x[None, :])
    values = np.broadcast_to(values, (2, x.size, x.size))
    sin_w = spec.velocity_sine_table(x) * w
    rhs = np.einsum("ia,kab,jb->kij", sin_w, values, sin_w, optimize=True)
    return rhs.reshape(-1) * np.tile(spec.vel_norms.ravel(), 2)


def pressure_load_vector(spec: BasisSpec, fld: SampledField) -> np.ndarray:
    """L^2 pairings (fld, e_k) with every pressure basis function (spatial part only)."""
    if fld.vector:
        raise ValueError("expected a scalar field")
    x, w = spec.quad_rule()
    values = np.broadcast_to(fld.spatial(x[:, None], x[None, :]), (x.size, x.size))
    cos_w = spec.pressure_cosine_table(x) * w
    coeffs = np.einsum("ka,ab,lb->kl", cos_w, values, cos_w, optimize=True)
    return (coeffs * spec.pres_norms).ravel()


def project_velocity(spec: BasisSpec, fld: SampledField) -> VelocityCoeffs:
    """L^2-orthogonal projection of a 2-vector field onto the velocity span."""
    rhs = velocity_load_vector(spec, fld) * fld.at_time(0.0)
    return VelocityCoeffs(spec, rhs / spec.mass_diag)


def project_pressure(spec: BasisSpec, fld: SampledField) -> PressureCoeffs:
    """L^2-orthogonal projection of a scalar field onto the pressure span."""
    return PressureCoeffs(spec, pressure_load_vector(spec, fld) * fld.at_time(0.0))


def coefficients_of(spec: BasisSpec, data, pressure: bool = False) -> np.ndarray:
    """Coefficient vector of velocity (or pressure) data.

    None gives zeros, coefficient objects of the basis's length are copied, sampled fields
    of the matching kind are projected; any other data raises one ValueError.
    """
    if pressure:
        coeffs_type, project, size, kind = PressureCoeffs, project_pressure, spec.m_p, "scalar"
    else:
        coeffs_type, project, size, kind = VelocityCoeffs, project_velocity, spec.m_u, "vector"
    if data is None:
        return np.zeros(size)
    if isinstance(data, coeffs_type) and data.values.shape == (size,):
        return data.values.copy()
    if isinstance(data, SampledField) and data.vector != pressure:
        return project(spec, data).values
    got = type(data).__name__
    if isinstance(data, coeffs_type):
        got = f"{len(data.values)} coefficients"
    elif isinstance(data, SampledField):
        got = f"a {'vector' if pressure else 'scalar'} SampledField"
    name = "pressure" if pressure else "velocity"
    raise ValueError(f"{name} data must be None, {size} coefficients or a {kind} SampledField, not {got}")


def norms(operator_set, coeffs) -> dict:
    """Norms of the represented field; velocity also reports h01 and div_l2.

    For velocity coefficients c: l2 = sqrt(c' M c), h01 = |c|, div_l2 =
    sqrt(c' E c); for pressure coefficients the L^2 norm is Euclidean.
    ``operator_set`` is the assembled OperatorSet of the coefficients' basis.
    """
    from .operators import apply_E  # operators imports this module

    spec = operator_set.spec
    if isinstance(coeffs, VelocityCoeffs):
        c = coeffs.values
        if c.shape != (spec.m_u,):
            raise ValueError("velocity coefficient length mismatch")
        return {
            "l2": float(np.sqrt(c @ (operator_set.mass_diag * c))),
            "h01": float(np.linalg.norm(c)),
            "div_l2": float(np.sqrt(max(apply_E(operator_set, c[None])[0] @ c, 0.0))),
        }
    if isinstance(coeffs, PressureCoeffs):
        q = coeffs.values
        if q.shape != (spec.m_p,):
            raise ValueError("pressure coefficient length mismatch")
        return {"l2": float(np.linalg.norm(q))}
    raise TypeError(f"unsupported coefficient type {type(coeffs).__name__}")
