import functools

import numpy as np
import pytest

from complim import assemble, build_basis, nullspace_basis

# truncations (n_u, n_p) over which the parity classes are checked: n_u != n_p, n_p = 0
# (the constant pressure mode alone) and odd sizes, whose classes differ in size
PARITY_N_U = (1, 2, 3, 4, 5, 8, 9, 12, 16)
PARITY_N_P = (0, 1, 2, 3, 4, 5, 8, 9, 12, 16)


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
