"""The square's symmetries as a test oracle that reads no reference.

The diagonal swap sigma(x, y) = (y, x) maps velocity mode (component c, i, j) to (1 - c, j, i)
and pressure mode (k, l) to (l, k), with equal normalizations, so it acts on coefficients as a
permutation.  The reflection x -> 1 - x keeps every mode and multiplies it by the parity of its
1-D factor along x, sin(i pi (1 - x)) = (-1)^(i+1) sin(i pi x) and cos(k pi (1 - x)) =
(-1)^k cos(k pi x); a vector field is reflected as (sigma u)(x) = P u(sigma x) with
P = diag(-1, 1), so component 1 takes one more sign.  y -> 1 - y likewise.  Together these
generate the square's group D4.  A run on the mapped data (u0, p0 and the force f, and the
source s = rho0 f) must give the mapped states, and every series of the run must be the same.
The maps are built from the basis's index maps and from parities read off samples of sin and
cos, not from ``parity_classes``, which is checked against them.

RTOL is a fixed multiple of the largest miss measured over SIZES, both etas and every map (one
BLAS thread or two): the compressible states miss by at most 1.1e-14 of their largest entry and
its series by 3.8e-15, the Stokes c and q by 4.0e-14 under a quarter turn and 1.7e-14 under the
swap (c = Z y goes through a kernel that eigh rotates freely inside each equal-lambda pair) and
its series by 1.3e-14.  The wrong swap, components swapped with (i, j) left in place, misses by
0.18 to 1.6; a reflection that leaves out the sign of the velocity component along its axis
misses by 0.59 to 1.28 in the states and 0.07 to 0.70 in the series at (8, 5).
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


def parity(f, m):
    """+1 or -1, the parity of t -> f(m pi t) about t = 1/2: f(m pi (1 - t)) = parity f(m pi t)."""
    t = np.linspace(0.0, 1.0, 101)
    return int(np.sign(np.dot(f(m * np.pi * (1.0 - t)), f(m * np.pi * t))))


def reflection_signs(spec, axis, mirror=True):
    """(velocity, pressure) signs of the reflection of coordinate ``axis`` (0: x -> 1 - x, 1: y -> 1 - y),
    which keeps every index: the parity of each mode's sine or cosine along the axis, times -1 for
    the velocity component along it; without ``mirror`` that component keeps its sign (wrong)."""
    vel = np.empty(spec.m_u)
    for c in (0, 1):
        for i in range(1, spec.n_u + 1):
            for j in range(1, spec.n_u + 1):
                flip = -1 if mirror and c == axis else 1
                vel[spec.velocity_index(c, i, j)] = flip * parity(np.sin, (i, j)[axis])
    pres = np.empty(spec.m_p)
    for k in range(spec.n_p + 1):
        for l in range(spec.n_p + 1):
            pres[spec.pressure_index(k, l)] = parity(np.cos, (k, l)[axis])
    return vel, pres


# each generator on a vector field (f_x, f_y): (sigma f)(x) = P f(sigma x)
FIELD_MAPS = {
    "swap": lambda fx, fy: (lambda x, y: fy(y, x), lambda x, y: fx(y, x)),
    "flip_x": lambda fx, fy: (lambda x, y: -fx(1 - x, y), lambda x, y: fy(1 - x, y)),
    "flip_y": lambda fx, fy: (lambda x, y: fx(x, 1 - y), lambda x, y: -fy(x, 1 - y)),
}
# the reflections and their compositions with the swap (the quarter turns)
REFLECTIONS = {
    "flip_x": ("flip_x",),
    "flip_y": ("flip_y",),
    "swap_flip_x": ("swap", "flip_x"),
    "swap_flip_y": ("swap", "flip_y"),
}


def signed_map(spec, names, transpose=True, mirror=True):
    """The generators ``names``, applied in order, on coefficients: (velocity index, velocity
    sign, pressure index, pressure sign) with image = sign * values[index]."""
    keep, ones = (np.arange(spec.m_u), np.arange(spec.m_p)), (np.ones(spec.m_u), np.ones(spec.m_p))
    generators = {
        "swap": (swap_permutation(spec, transpose), ones),
        "flip_x": (keep, reflection_signs(spec, 0, mirror)),
        "flip_y": (keep, reflection_signs(spec, 1, mirror)),
    }
    (vel, pres), (vel_sign, pres_sign) = keep, ones
    for name in names:
        (v, p), (vs, ps) = generators[name]
        vel, vel_sign, pres, pres_sign = vel[v], vs * vel_sign[v], pres[p], ps * pres_sign[p]
    return vel, vel_sign, pres, pres_sign


def force(names):
    """A force with no symmetry of its own, mapped by the generators ``names`` in order."""
    def fx(x, y):
        return np.cos(np.pi * y) + x * y * y

    def fy(x, y):
        return 0.5 * np.cos(np.pi * x) + np.sin(2 * np.pi * x) * y

    for name in names:
        fx, fy = FIELD_MAPS[name](fx, fy)
    return SampledField.of_vector(fx, fy)


def problem_pair(spec, eta, names, smap):
    """Params of a random problem and of its image under the generators ``names``, whose action
    on coefficients is ``smap`` (right or wrong)."""
    rng = np.random.default_rng(spec.n_u * 100 + spec.n_p)
    u0, p0 = rng.standard_normal(spec.m_u), rng.standard_normal(spec.m_p)
    vel, vel_sign, pres, pres_sign = smap
    pair = []
    for mapped, u, p in (((), u0, p0), (names, vel_sign * u0[vel], pres_sign * p0[pres])):
        f = force(mapped)
        pair.append(CompressibleParams(
            rho0=1.3, mu=0.7, eta=eta, alpha=0.05, T=0.05, dt=0.005, f=f, s=f.scaled(1.3),
            u0=VelocityCoeffs(spec, u), p0=PressureCoeffs(spec, p),
        ))
    return pair


def miss(a, b):
    """max |a - b| on the scale of max |a|."""
    return float(np.abs(a - b).max() / np.abs(a).max())


def compressible_misses(ops, eta, names, **wrong):
    """The largest relative miss of the mapped run's states and of its series."""
    smap = signed_map(ops.spec, names, **wrong)
    params, image = problem_pair(ops.spec, eta, names, smap)
    vel, vel_sign, pres, pres_sign = smap
    run = simulate_compressible(ops.spec, ops, params, store_states=True)
    mapped = simulate_compressible(ops.spec, ops, image, store_states=True)
    states = max(miss(vel_sign * run.c[:, vel], mapped.c), miss(pres_sign * run.q[:, pres], mapped.q))
    series = max(miss(getattr(run, name), getattr(mapped, name)) for name in COMPRESSIBLE_SERIES)
    return states, series


def stokes_misses(ops, eta, names, **wrong):
    """As compressible_misses for the Stokes run: c and q, not y, whose kernel coordinates
    depend on how eigh rotates each equal-lambda pair; energy_residual on the scale of max I."""
    smap = signed_map(ops.spec, names, **wrong)
    params, image = problem_pair(ops.spec, eta, names, smap)
    vel, vel_sign, pres, pres_sign = smap
    run = simulate_incompressible(ops.spec, ops, ops.kernel, params, store_states=True)
    mapped = simulate_incompressible(ops.spec, ops, ops.kernel, image, store_states=True)
    states = max(miss(vel_sign * run.c[:, vel], mapped.c), miss(pres_sign * run.q[:, pres], mapped.q))
    series = max(miss(getattr(run, name), getattr(mapped, name)) for name in STOKES_SERIES)
    residual = np.abs(run.energy_residual - mapped.energy_residual).max() / run.energy.max()
    return states, max(series, residual)


@pytest.fixture(scope="module", params=SIZES, ids=lambda nn: f"n{nn[0]}_{nn[1]}")
def ops(request):
    return assemble(build_basis(*request.param))


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_compressible_run_commutes_with_the_swap(ops, eta):
    states, series = compressible_misses(ops, eta, ("swap",))
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_stokes_run_commutes_with_the_swap(ops, eta):
    states, series = stokes_misses(ops, eta, ("swap",))
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("names", REFLECTIONS.values(), ids=REFLECTIONS.keys())
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_compressible_run_commutes_with_the_reflections(ops, eta, names):
    states, series = compressible_misses(ops, eta, names)
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("names", REFLECTIONS.values(), ids=REFLECTIONS.keys())
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_a_stokes_run_commutes_with_the_reflections(ops, eta, names):
    states, series = stokes_misses(ops, eta, names)
    assert states <= RTOL and series <= RTOL, (states, series)


@pytest.mark.parametrize("run", [compressible_misses, stokes_misses], ids=["compressible", "stokes"])
def test_the_wrong_map_misses_by_far_more_than_the_tolerance(run):
    # the whole check run with the map that does not transpose (i, j): the force is still swapped
    ops = assemble(build_basis(8, 5))
    states, series = run(ops, 0.5, ("swap",), transpose=False)
    assert states > 1e-2 and series > 1e-3, (states, series)


@pytest.mark.parametrize("run", [compressible_misses, stokes_misses], ids=["compressible", "stokes"])
@pytest.mark.parametrize("names", [("flip_x",), ("swap", "flip_y")], ids=["flip_x", "swap_flip_y"])
def test_a_sign_error_misses_by_far_more_than_the_tolerance(run, names):
    # the reflection that leaves out the velocity component's own sign: the force is still mapped
    ops = assemble(build_basis(8, 5))
    states, series = run(ops, 0.5, names, mirror=False)
    assert states > 1e-2 and series > 1e-3, (states, series)


def test_the_swap_exchanges_parity_classes_1_and_2_and_fixes_the_others(ops):
    vel, pres = swap_permutation(ops.spec)
    classes = ops.spec.parity_classes()
    image = classes[np.concatenate([vel, ops.spec.m_u + pres])]
    assert np.array_equal(image, np.array([0, 2, 1, 3, 4])[classes])


def test_the_parity_classes_are_the_characters_of_the_reflections(ops):
    # class 2a + b takes the sign (-1)^a under x -> 1 - x and (-1)^b under y -> 1 - y
    classes = ops.spec.parity_classes()
    for axis, character in ((0, (-1) ** (classes // 2)), (1, (-1) ** (classes % 2))):
        assert np.array_equal(np.concatenate(reflection_signs(ops.spec, axis)), character)
