"""Named initial data used by the convergence experiments.

The strong-limit dichotomy needs initial velocities with a prescribed split
between the discrete solenoidal space and its M-orthogonal complement.
These cannot be written down as closed-form fields (the discrete gradient
space is not spanned by elementary expressions), so they are constructed
from the assembled operators.  The one named pressure, compatible_p0, is
the Stokes initial pressure of the whole problem, so it is not resolved
here: it is ``incompressible.initial_pressure(operator_set, params)``.
"""

from __future__ import annotations

import numpy as np

from .basis import VelocityCoeffs, coefficients_of
from .compressible import InvalidParams
from .incompressible import nullspace_basis
from .operators import OperatorSet

__all__ = ["VELOCITY_PRESETS", "PRESSURE_PRESETS", "velocity_preset", "resolve"]

VELOCITY_PRESETS = ("gradient_u0", "solenoidal_u0", "mixed_u0")
PRESSURE_PRESETS = ("compatible_p0",)


def _gradient_unit(name: str, operator_set: OperatorSet) -> np.ndarray:
    """Unit-L2-norm velocity in the discrete gradient space G(D), for the preset ``name``.

    Image of the two lowest mean-zero pressure modes under M^-1 B', i.e. the
    discrete gradient pattern of cos(pi x) + cos(pi y).  Its acoustic
    response is dominated by one frequency pair, which keeps weak-probe
    pairings envelope-dominated (monotone in alpha) instead of
    interference-dominated.  At n_p = 0 G(D) is {0}: InvalidParams.
    """
    spec = operator_set.spec
    if spec.n_p < 1:
        raise InvalidParams(
            f"the {name} preset needs n_p >= 1: at n_p = 0 the discrete gradient space is {{0}}"
        )
    qstar = np.zeros(spec.m_p)
    qstar[spec.pressure_index(1, 0)] = 1.0
    qstar[spec.pressure_index(0, 1)] = 1.0
    g = (operator_set.div_coupling.T @ qstar) / operator_set.mass_diag
    return g / np.sqrt(g @ (operator_set.mass_diag * g))


def velocity_preset(name: str, operator_set: OperatorSet) -> VelocityCoeffs:
    """Resolve a named initial-velocity preset to coefficients.

    gradient_u0 and solenoidal_u0 have unit L^2 norm; mixed_u0 is their sum,
    so its squared norm is 2 and its gradient-part energy is exactly 1.
    """
    spec = operator_set.spec
    if name == "gradient_u0":
        return VelocityCoeffs(spec, _gradient_unit(name, operator_set))
    if name == "solenoidal_u0":
        return VelocityCoeffs(spec, nullspace_basis(operator_set)[:, 0].copy())
    if name == "mixed_u0":
        z = nullspace_basis(operator_set)
        return VelocityCoeffs(spec, _gradient_unit(name, operator_set) + z[:, 0])
    raise KeyError(f"unknown velocity preset {name!r}; known: {VELOCITY_PRESETS}")


def resolve(data, operator_set: OperatorSet, *, pressure: bool = False) -> np.ndarray:
    """Coefficient vector of velocity (or pressure) initial data.

    ``data`` is a velocity preset name, a sampled field, a coefficient object
    or None; everything but a name goes through basis.coefficients_of.  No
    name is pressure data: compatible_p0 depends on the whole problem.
    """
    if not isinstance(data, str):
        return coefficients_of(operator_set.spec, data, pressure=pressure)
    if pressure:
        raise KeyError(f"{data!r} is not pressure data; compatible_p0 is initial_pressure()")
    return velocity_preset(data, operator_set).values
