"""Named data presets used by the convergence experiments.

The strong-limit dichotomy needs initial velocities with a prescribed split
between the discrete solenoidal space and its M-orthogonal complement, and
the strong pressure experiment needs the initial pressure of the Stokes
flow from the run's own initial velocity.  These cannot be written down as
closed-form fields (the discrete gradient space is not spanned by
elementary expressions), so they are constructed from the assembled
operators.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .basis import BasisSpec, PressureCoeffs, SampledField, VelocityCoeffs, coefficients_of
from .compressible import InvalidParams
from .incompressible import initial_pressure, nullspace_basis
from .operators import OperatorSet

__all__ = ["VELOCITY_PRESETS", "PRESSURE_PRESETS", "velocity_preset", "pressure_preset", "resolve"]

VELOCITY_PRESETS = ("gradient_u0", "solenoidal_u0", "mixed_u0", "zero")
PRESSURE_PRESETS = ("compatible_p0", "zero")


def _gradient_unit(name: str, spec: BasisSpec, operator_set: OperatorSet) -> np.ndarray:
    """Unit-L2-norm velocity in the discrete gradient space G(D), for the preset ``name``.

    Image of the two lowest mean-zero pressure modes under M^-1 B', i.e. the
    discrete gradient pattern of cos(pi x) + cos(pi y).  Its acoustic
    response is dominated by one frequency pair, which keeps weak-probe
    pairings envelope-dominated (monotone in alpha) instead of
    interference-dominated.  At n_p = 0 G(D) is {0}: InvalidParams.
    """
    if spec.n_p < 1:
        raise InvalidParams(
            f"the {name} preset needs n_p >= 1: at n_p = 0 the discrete gradient space is {{0}}"
        )
    qstar = np.zeros(spec.m_p)
    qstar[spec.pressure_index(1, 0)] = 1.0
    qstar[spec.pressure_index(0, 1)] = 1.0
    g = (operator_set.div_coupling.T @ qstar) / operator_set.mass_diag
    return g / np.sqrt(g @ (operator_set.mass_diag * g))


def velocity_preset(name: str, spec: BasisSpec, operator_set: OperatorSet) -> VelocityCoeffs:
    """Resolve a named initial-velocity preset to coefficients.

    gradient_u0 and solenoidal_u0 have unit L^2 norm; mixed_u0 is their sum,
    so its squared norm is 2 and its gradient-part energy is exactly 1.
    """
    if name == "zero":
        return VelocityCoeffs(spec, np.zeros(spec.m_u))
    if name == "gradient_u0":
        return VelocityCoeffs(spec, _gradient_unit(name, spec, operator_set))
    if name == "solenoidal_u0":
        z = nullspace_basis(operator_set).z
        return VelocityCoeffs(spec, z[:, 0].copy())
    if name == "mixed_u0":
        z = nullspace_basis(operator_set).z
        return VelocityCoeffs(spec, _gradient_unit(name, spec, operator_set) + z[:, 0])
    raise KeyError(f"unknown velocity preset {name!r}; known: {VELOCITY_PRESETS}")


def pressure_preset(
    name: str,
    spec: BasisSpec,
    operator_set: OperatorSet,
    *,
    u0=None,
    s: Optional[SampledField] = None,
    rho0: float = 1.0,
    mu: float = 1.0,
) -> PressureCoeffs:
    """Resolve a named initial-pressure preset to coefficients.

    compatible_p0 is the well-defined Stokes initial pressure belonging to
    the initial velocity u0 (anything basis.coefficients_of reads; None is
    zero) and the momentum source s (rho0 f for the homogeneous problem).
    It needs a discretely solenoidal u0: InvalidParams otherwise.
    """
    if name == "zero":
        return PressureCoeffs(spec, np.zeros(spec.m_p))
    if name == "compatible_p0":
        u0 = VelocityCoeffs(spec, coefficients_of(spec, u0))
        basis = nullspace_basis(operator_set)
        return initial_pressure(spec, operator_set, basis, u0, s, rho0=rho0, mu=mu)
    raise KeyError(f"unknown pressure preset {name!r}; known: {PRESSURE_PRESETS}")


def resolve(
    data,
    spec: BasisSpec,
    operator_set: OperatorSet,
    *,
    pressure: bool = False,
    u0=None,
    s: Optional[SampledField] = None,
    rho0: float = 1.0,
    mu: float = 1.0,
) -> np.ndarray:
    """Coefficient vector of velocity (or pressure) initial data.

    ``data`` is a preset name, a sampled field, a coefficient object or
    None; everything but a name goes through basis.coefficients_of.  The
    initial velocity u0, the momentum source and the constants only matter
    for compatible_p0.
    """
    if not isinstance(data, str):
        return coefficients_of(spec, data, pressure=pressure)
    if pressure:
        return pressure_preset(data, spec, operator_set, u0=u0, s=s, rho0=rho0, mu=mu).values
    return velocity_preset(data, spec, operator_set).values
