import numpy as np
import pytest

from complim import (
    ScalarTrajectory,
    mixed_bounds,
    mixed_constants,
    verify_mixed,
)
from complim.inequalities import GridMismatch


def grid(n=101, T=1.0):
    return np.linspace(0.0, T, n)


def make(values, T=1.0, label=""):
    values = np.asarray(values, dtype=float)
    return ScalarTrajectory(np.linspace(0.0, T, len(values)), values, label=label)


# -- mixed constants and bounds ----------------------------------------------


def test_mixed_constants_zero_case_exact():
    constants = mixed_constants(0.0)
    assert constants.c_a == 1.0
    assert constants.c_a_tilde == 2.5


def test_mixed_constants_at_one():
    constants = mixed_constants(1.0)
    assert constants.c_a == pytest.approx(1.0 + np.e, rel=1e-15)
    assert constants.c_a_tilde == pytest.approx(np.e * (1 + 1.5 * (1 + np.e) ** 2), rel=1e-15)
    assert constants.c_a_tilde == pytest.approx(59.09, rel=1e-3)


def test_mixed_constants_monotone_and_reject_negative():
    values = [mixed_constants(a) for a in (0.0, 0.5, 1.0, 2.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi.c_a > lo.c_a and hi.c_a_tilde > lo.c_a_tilde
    with pytest.raises(ValueError):
        mixed_constants(-0.1)


def test_mixed_bounds_zero_case():
    t = grid()
    z = make(np.zeros_like(t))
    bounds = mixed_bounds(1.0, z, z, z)
    assert bounds.j_l2_bound == 1.0
    assert bounds.i_inf_bound == 2.5
    bounds = mixed_bounds(0.0, z, z, z)
    assert bounds.j_l2_bound == 0.0 and bounds.i_inf_bound == 0.0


def equality_case_instance(seed, n=401, T=1.0):
    """Integrate I' = aI + bJ + c - J^2 exactly in the discrete sense.

    The recursion uses interval-averaged samples with an implicit I-average,
    which is the same discretization verify_mixed tests, so the hypothesis
    margin of the instance is zero up to roundoff.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, T, n)

    def smooth(amplitude):
        w = rng.uniform(1.0, 6.0, 3)
        ph = rng.uniform(0, 2 * np.pi, 3)
        base = sum(np.sin(w[k] * t + ph[k]) for k in range(3))
        return amplitude * (1.2 + base / 3.0)

    a = smooth(rng.uniform(0.1, 1.5))
    b = smooth(rng.uniform(0.0, 1.0))
    c = smooth(rng.uniform(0.0, 1.0))
    J = smooth(rng.uniform(0.0, 1.2))
    I0 = rng.uniform(0.0, 2.0)

    dt = t[1] - t[0]
    I = np.empty(n)
    I[0] = I0
    for k in range(n - 1):
        a_m = 0.5 * (a[k] + a[k + 1])
        b_m = 0.5 * (b[k] + b[k + 1])
        c_m = 0.5 * (c[k] + c[k + 1])
        j_m = 0.5 * (J[k] + J[k + 1])
        rhs = b_m * j_m + c_m - j_m**2
        I[k + 1] = ((1 + 0.5 * dt * a_m) * I[k] + dt * rhs) / (1 - 0.5 * dt * a_m)
    if I.min() < 0:  # keep the instance in the lemma's nonnegative class
        I = I - I.min()
        I0 = I[0]
    return (
        ScalarTrajectory(t, I, "I"),
        ScalarTrajectory(t, J, "J"),
        ScalarTrajectory(t, a, "a"),
        ScalarTrajectory(t, b, "b"),
        ScalarTrajectory(t, c, "c"),
    )


def test_mixed_bounds_hold_on_equality_cases():
    for seed in range(100):
        I, J, a, b, c = equality_case_instance(seed)
        bounds = mixed_bounds(float(I.values[0]), a, b, c)
        j_l2 = np.sqrt(np.trapezoid(J.values**2, J.times))
        assert j_l2 <= bounds.j_l2_bound + 1e-9
        assert I.values.max() <= bounds.i_inf_bound + 1e-9


def test_verify_mixed_equality_case_margin_near_zero():
    I, J, a, b, c = equality_case_instance(7)
    report = verify_mixed(I, J, a, b, c)
    assert report.hypothesis_ok
    assert abs(report.hypothesis_margin) <= report.hypothesis_tol
    assert report.conclusions_checked and report.ok


def test_verify_mixed_flags_violation_and_skips_conclusions():
    t = grid(201)
    spike = np.zeros_like(t)
    spike[100:] = 1.0  # I jumps up while the right side stays zero
    z = np.zeros_like(t)
    report = verify_mixed(
        ScalarTrajectory(t, spike, "I"),
        ScalarTrajectory(t, z, "J"),
        ScalarTrajectory(t, z, "a"),
        ScalarTrajectory(t, z, "b"),
        ScalarTrajectory(t, z, "c"),
    )
    assert not report.hypothesis_ok
    assert not report.conclusions_checked
    assert not report.ok


def test_scalar_trajectory_validation():
    with pytest.raises(ValueError):
        ScalarTrajectory(np.array([0.0, 0.1, 0.3]), np.zeros(3))  # non-uniform
    with pytest.raises(ValueError, match="uniform and increasing"):
        ScalarTrajectory(np.full(5, np.nan), np.zeros(5))  # NaN grid
    with pytest.raises(ValueError):
        ScalarTrajectory(grid(11), np.full(11, -1.0))  # negative samples
    with pytest.raises(GridMismatch):
        verify_mixed(
            make(np.zeros(11)), make(np.zeros(11)), make(np.zeros(11)),
            make(np.zeros(11)), make(np.zeros(12)),
        )
