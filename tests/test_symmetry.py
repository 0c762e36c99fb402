"""The square's diagonal swap sigma(x, y) = (y, x) as a test oracle that reads no reference.

The swap maps velocity mode (component c, i, j) to (1 - c, j, i) and pressure mode (k, l) to
(l, k), with equal normalizations, so it acts on coefficients as a permutation.  A run on the
swapped data (u0, p0 and the force f_sigma(x, y) = (f_y(y, x), f_x(y, x))) must give the
swapped states, and every series of the run must be the same.  The permutation is built from
the basis's index maps alone, not from ``parity_classes``, which is checked against it.

RTOL is a fixed multiple, about 12, of the largest miss measured over SIZES and both etas
(one BLAS thread or two): the compressible states miss by at most 1.1e-14 of their largest
entry and its series by 3.4e-15, the Stokes c and q by 1.7e-14 (c = Z y goes through a kernel
that eigh rotates freely inside each equal-lambda pair) and its series by 6.2e-15.  The wrong
map, components swapped with (i, j) left in place, misses by 0.18 to 1.6.
"""

import numpy as np
import pytest

from complim import (
    CompressibleParams,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    assemble,
    build_basis,
    simulate_compressible,
    simulate_incompressible,
)

SIZES = [(6, 6), (8, 5), (9, 9), (12, 12)]
RTOL = 2e-13
COMPRESSIBLE_SERIES = (
    "kinetic", "acoustic", "energy", "h01", "div", "mass", "momentum", "dissipation", "work"
)
STOKES_SERIES = ("energy", "h01", "div")


def swap_permutation(spec, transpose=True):
    """(velocity, pressure) index arrays p with image = values[p]: (c, i, j) -> (1 - c, j, i) and
    (k, l) -> (l, k); with ``transpose`` false the wrong map (c, i, j) -> (1 - c, i, j), (k, l)."""
    n, n_p = spec.n_u, spec.n_p
    vel = np.empty(spec.m_u, dtype=int)
    for c in (0, 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a, b = (j, i) if transpose else (i, j)
                vel[spec.velocity_index(1 - c, a, b)] = spec.velocity_index(c, i, j)
    pres = np.empty(spec.m_p, dtype=int)
    for k in range(n_p + 1):
        for l in range(n_p + 1):
            a, b = (l, k) if transpose else (k, l)
            pres[spec.pressure_index(a, b)] = spec.pressure_index(k, l)
    return vel, pres


def force(swapped):
    """A force with no symmetry of its own, or its swap image (f_y(y, x), f_x(y, x))."""
    def fx(x, y):
        return np.cos(np.pi * y) + x * y * y

    def fy(x, y):
        return 0.5 * np.cos(np.pi * x) + np.sin(2 * np.pi * x) * y

    if swapped:
        return SampledField.of_vector(lambda x, y: fy(y, x), lambda x, y: fx(y, x))
    return SampledField.of_vector(fx, fy)


def problem_pair(spec, eta, perm):
    """Params of a random problem and of its image under the coefficient permutation perm."""
    rng = np.random.default_rng(spec.n_u * 100 + spec.n_p)
    u0, p0 = rng.standard_normal(spec.m_u), rng.standard_normal(spec.m_p)
    pair = []
    for swapped, (u, p) in ((False, (u0, p0)), (True, (u0[perm[0]], p0[perm[1]]))):
        f = force(swapped)
        pair.append(CompressibleParams(
            rho0=1.3, mu=0.7, eta=eta, alpha=0.05, T=0.05, dt=0.005, f=f, s=f.scaled(1.3),
            u0=VelocityCoeffs(spec, u), p0=PressureCoeffs(spec, p),
        ))
    return pair


def miss(a, b):
    """max |a - b| on the scale of max |a|."""
    return float(np.abs(a - b).max() / np.abs(a).max())


def compressible_misses(ops, eta, perm):
    """The largest relative miss of the swapped run's states and of its series."""
    params, image = problem_pair(ops.spec, eta, perm)
    vel, pres = perm
    run = simulate_compressible(ops.spec, ops, params, store_states=True)
    swapped = simulate_compressible(ops.spec, ops, image, store_states=True)
    states = max(miss(run.c[:, vel], swapped.c), miss(run.q[:, pres], swapped.q))
    series = max(miss(getattr(run, name), getattr(swapped, name)) for name in COMPRESSIBLE_SERIES)
    return states, series


def stokes_misses(ops, eta, perm):
    """As compressible_misses for the Stokes run: c and q, not y, whose kernel coordinates
    depend on how eigh rotates each equal-lambda pair; energy_residual on the scale of max I."""
    params, image = problem_pair(ops.spec, eta, perm)
    vel, pres = perm
    run = simulate_incompressible(ops.spec, ops, ops.kernel, params, store_states=True)
    swapped = simulate_incompressible(ops.spec, ops, ops.kernel, image, store_states=True)
    states = max(miss(run.c[:, vel], swapped.c), miss(run.q[:, pres], swapped.q))
    series = max(miss(getattr(run, name), getattr(swapped, name)) for name in STOKES_SERIES)
    residual = np.abs(run.energy_residual - swapped.energy_residual).max() / run.energy.max()
    return states, max(series, residual)


@pytest.fixture(scope="module", params=SIZES, ids=lambda nn: f"n{nn[0]}_{nn[1]}")
def ops(request):
    return assemble(build_basis(*request.param))


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_compressible_run_commutes_with_the_swap(ops, eta):
    states, series = compressible_misses(ops, eta, swap_permutation(ops.spec))
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_stokes_run_commutes_with_the_swap(ops, eta):
    states, series = stokes_misses(ops, eta, swap_permutation(ops.spec))
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("run", [compressible_misses, stokes_misses], ids=["compressible", "stokes"])
def test_the_wrong_map_misses_by_far_more_than_the_tolerance(run):
    # the whole check run with the map that does not transpose (i, j): the force is still swapped
    ops = assemble(build_basis(8, 5))
    states, series = run(ops, 0.5, swap_permutation(ops.spec, transpose=False))
    assert states > 1e-2 and series > 1e-3, (states, series)


def test_the_swap_exchanges_parity_classes_1_and_2_and_fixes_the_others(ops):
    vel, pres = swap_permutation(ops.spec)
    classes = ops.spec.parity_classes()
    image = classes[np.concatenate([vel, ops.spec.m_u + pres])]
    assert np.array_equal(image, np.array([0, 2, 1, 3, 4])[classes])
