import functools

import numpy as np
import pytest

from complim import VelocityCoeffs, assemble, build_basis, nullspace_basis

# truncations (n_u, n_p) over which the parity classes are checked: n_u != n_p, n_p = 0
# (the constant pressure mode alone) and odd sizes, whose classes differ in size
PARITY_N_U = (1, 2, 3, 4, 5, 8, 9, 12, 16)
PARITY_N_P = (0, 1, 2, 3, 4, 5, 8, 9, 12, 16)


def pytest_collection_modifyitems(config, items):
    """A test marked slow is skipped unless the -m expression names it (pytest -m slow)."""
    if "slow" in config.getoption("markexpr"):
        return
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(pytest.mark.skip(reason="slow: select it with -m slow"))


@functools.cache
def parity_grid_ops(n_u, n_p):
    """The operators at (n_u, n_p), assembled once per session for the tests over the
    PARITY_N_U x PARITY_N_P grid (90 truncations, 74 MB in all)."""
    return assemble(build_basis(n_u, n_p))


@pytest.fixture(scope="session")
def spec2():
    return build_basis(2, 2)


@pytest.fixture(scope="session")
def ops2(spec2):
    return assemble(spec2)


@pytest.fixture(scope="session")
def spec4():
    return build_basis(4, 4)


@pytest.fixture(scope="session")
def ops4(spec4):
    return assemble(spec4)


@pytest.fixture(scope="session")
def kernel4(ops4):
    return nullspace_basis(ops4)


@pytest.fixture(scope="session")
def spec8():
    return build_basis(8, 8)


@pytest.fixture(scope="session")
def ops8(spec8):
    return assemble(spec8)


@pytest.fixture(scope="session")
def kernel8(ops8):
    return nullspace_basis(ops8)


@pytest.fixture(scope="session")
def ops16():
    """n = 16, m = 801: the force of configs/simulate.cfg (and of test_compressible's
    stepper_params) splits its step system into blocks of 400 and 401 unknowns, so a march
    on 2 BLAS threads steps them on threads of their own."""
    return assemble(build_basis(16, 16))


def gauss_grid(order):
    """Independent tensor Gauss-Legendre rule on [0,1]^2 for test oracles."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    return x, w


def quad2d(fn, order=40):
    """Tensor quadrature of fn(x, y) over the unit square (oracle path)."""
    x, w = gauss_grid(order)
    vals = fn(x[:, None], x[None, :])
    return float(np.einsum("a,ab,b->", w, vals, w))


def eval_field(spec, coeffs, x, y):
    """The expansion at the points (x, y) of [0,1]^2, broadcast (oracle path): shape (2,) + shape
    for velocity coefficients, as a vector SampledField's spatial part, and shape for pressure."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    x, y = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (x, y))
    if isinstance(coeffs, VelocityCoeffs):
        sx, sy = spec.velocity_sine_table(x), spec.velocity_sine_table(y)  # (N_u, P)
        c = (coeffs.values * np.tile(spec.vel_norms.ravel(), 2)).reshape(2, spec.n_u, spec.n_u)
        return np.einsum("kij,ip,jp->kp", c, sx, sy, optimize=True).reshape((2,) + shape)
    cx, cy = spec.pressure_cosine_table(x), spec.pressure_cosine_table(y)
    q = coeffs.values.reshape(spec.n_p + 1, spec.n_p + 1) * spec.pres_norms
    return np.einsum("kl,kp,lp->p", q, cx, cy, optimize=True).reshape(shape)
