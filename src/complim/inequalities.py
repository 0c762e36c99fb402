"""Executable form of the mixed integral inequality behind the a-priori estimates.

Two classical steps, the convex root bound (J^2 <= a + bJ implies
J <= b + sqrt(a)) and Gronwall (I' <= phi I + psi implies
I(t) <= e^{int phi} (I(0) + int psi)), combine into the mix
I' + J^2 <= aI + bJ + c implies

    |J|_{L2}   <= C_a (sqrt(I(0)) + sqrt(|c|_{L1}) + |b|_{L2}),
    |I|_{Linf} <= C~_a (I(0) + |c|_{L1} + |b|^2_{L2}),

with C_a = 1 + A e^A, C~_a = e^A (1 + (3/2) C_a^2), A = |a|_{L1}.

mixed_constants and mixed_bounds evaluate the right-hand sides;
verify_mixed turns the mix into a trajectory certificate: it checks the
hypothesis interval by interval with a finite-difference derivative and, if
it holds, evaluates both conclusions with trapezoidal time norms, reporting
margins rather than bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarTrajectory",
    "MixedConstants",
    "MixedBounds",
    "CertificateReport",
    "GridMismatch",
    "mixed_constants",
    "mixed_bounds",
    "verify_mixed",
]

HYPOTHESIS_RTOL = 1e-6


class GridMismatch(ValueError):
    """Scalar trajectories do not share a time grid."""


def _trapz(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


@dataclass
class ScalarTrajectory:
    """Nonnegative samples on a uniform time grid, tagged by their role (I, J, a, b or c)."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if len(self.times) < 2:
            raise ValueError("a scalar trajectory needs at least two samples")
        steps = np.diff(self.times)
        if not (steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps[0]):  # NaN steps fail too
            raise ValueError("time grid must be uniform and increasing")
        if self.values.min() < -1e-12 * max(1.0, np.abs(self.values).max()):
            raise ValueError(f"trajectory {self.label!r} has negative samples")
        self.values = np.maximum(self.values, 0.0)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def grid_matches(self, other: "ScalarTrajectory") -> bool:
        return self.times.shape == other.times.shape and bool(
            np.allclose(self.times, other.times, rtol=0.0, atol=1e-12 * max(1.0, self.times[-1]))
        )


def _require_common_grid(*trajs: ScalarTrajectory) -> None:
    first = trajs[0]
    for t in trajs[1:]:
        if not first.grid_matches(t):
            raise GridMismatch(
                f"trajectories {first.label!r} and {t.label!r} are on different grids"
            )


@dataclass(frozen=True)
class MixedConstants:
    """Constants of the mixed inequality for a given A = |a|_{L1(0,T)}."""

    c_a: float
    c_a_tilde: float


def mixed_constants(A: float) -> MixedConstants:
    """C_a = 1 + A e^A and C~_a = e^A (1 + (3/2) C_a^2)."""
    if A < 0:
        raise ValueError("A must be nonnegative")
    c_a = 1.0 + A * np.exp(A)
    return MixedConstants(c_a=c_a, c_a_tilde=np.exp(A) * (1.0 + 1.5 * c_a**2))


@dataclass(frozen=True)
class MixedBounds:
    j_l2_bound: float
    i_inf_bound: float
    constants: MixedConstants


def mixed_bounds(
    I0: float, a: ScalarTrajectory, b: ScalarTrajectory, c: ScalarTrajectory
) -> MixedBounds:
    """Data-side bounds of the mixed inequality with trapezoidal norms."""
    if I0 < 0:
        raise ValueError("I0 must be nonnegative")
    _require_common_grid(a, b, c)
    constants = mixed_constants(_trapz(a.values, a.times))
    c_l1 = _trapz(c.values, c.times)
    b_l2 = np.sqrt(_trapz(b.values**2, b.times))
    return MixedBounds(
        j_l2_bound=float(constants.c_a * (np.sqrt(I0) + np.sqrt(c_l1) + b_l2)),
        i_inf_bound=float(constants.c_a_tilde * (I0 + c_l1 + b_l2**2)),
        constants=constants,
    )


@dataclass
class CertificateReport:
    """Structured outcome of a mixed-inequality certificate with margins."""

    hypothesis_ok: bool
    hypothesis_margin: float  # most negative slack over all intervals
    hypothesis_tol: float
    conclusions_checked: bool
    j_l2: float = np.nan
    j_l2_bound: float = np.nan
    j_l2_margin: float = np.nan
    i_inf: float = np.nan
    i_inf_bound: float = np.nan
    i_inf_margin: float = np.nan

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.conclusions_checked and (
            self.j_l2_margin >= 0.0 and self.i_inf_margin >= 0.0
        )


@np.errstate(over="ignore", invalid="ignore")  # non-finite values fail the comparisons below
def verify_mixed(
    I: ScalarTrajectory,
    J: ScalarTrajectory,
    a: ScalarTrajectory,
    b: ScalarTrajectory,
    c: ScalarTrajectory,
) -> CertificateReport:
    """Certify the mixed inequality along sampled trajectories.

    The hypothesis I' + J^2 <= aI + bJ + c is tested on every interval with
    the forward difference of I against interval-averaged samples of the
    right side, within a tolerance that scales with the magnitudes of I and
    J^2; a J whose square overflows cannot be certified.  Conclusions are
    only asserted when the hypothesis holds.
    """
    _require_common_grid(I, J, a, b, c)
    dt = I.dt

    def mid(x: ScalarTrajectory) -> np.ndarray:
        return 0.5 * (x.values[1:] + x.values[:-1])

    i_prime = np.diff(I.values) / dt
    j_mid = mid(J)
    slack = mid(a) * mid(I) + mid(b) * j_mid + mid(c) - i_prime - j_mid**2
    scale = max(float(I.values.max()), float(np.square(J.values.max())))
    tol = HYPOTHESIS_RTOL * max(scale, 1e-300)
    hypothesis_margin = float(slack.min())
    hypothesis_ok = bool(np.isfinite(tol) and hypothesis_margin >= -tol)
    if not hypothesis_ok:
        return CertificateReport(
            hypothesis_ok=False,
            hypothesis_margin=hypothesis_margin,
            hypothesis_tol=tol,
            conclusions_checked=False,
        )

    bounds = mixed_bounds(float(I.values[0]), a, b, c)
    j_l2 = np.sqrt(_trapz(J.values**2, J.times))
    i_inf = float(I.values.max())
    return CertificateReport(
        hypothesis_ok=True,
        hypothesis_margin=hypothesis_margin,
        hypothesis_tol=tol,
        conclusions_checked=True,
        j_l2=float(j_l2),
        j_l2_bound=bounds.j_l2_bound,
        j_l2_margin=float(bounds.j_l2_bound - j_l2),
        i_inf=i_inf,
        i_inf_bound=bounds.i_inf_bound,
        i_inf_margin=float(bounds.i_inf_bound - i_inf),
    )
