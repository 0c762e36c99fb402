import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from complim import (
    AnnihilationError,
    MeanNotZero,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    assemble,
    bogovskii,
    build_basis,
    coupling_matrix,
    grad_inverse,
    leray_project,
    operator_norm_estimates,
)
from complim.config import parse_config, realize_vector_field
from complim.operators import apply_B, apply_E, div_gram, grad_inverse_rows

from conftest import quad2d


def div_mode(spec, flat):
    comp, i, j = spec.velocity_mode(flat)
    n = spec.vel_norms[i - 1, j - 1]
    if comp == 0:
        return lambda x, y: n * i * np.pi * np.cos(i * np.pi * x) * np.sin(j * np.pi * y)
    return lambda x, y: n * j * np.pi * np.sin(i * np.pi * x) * np.cos(j * np.pi * y)


def test_mass_matrix_n1():
    spec = build_basis(1, 1)
    ops = assemble(spec)
    assert np.allclose(ops.mass_diag, np.full(2, 1.0 / (2.0 * np.pi**2)), atol=1e-16)


def test_constant_pressure_row_vanishes(ops4):
    assert np.all(ops4.div_coupling[0] == 0.0)


def test_div_gram_diagonal_entry():
    spec = build_basis(1, 1)
    ops = assemble(spec)
    flat = spec.velocity_index(0, 1, 1)
    assert div_gram(ops, np.arange(spec.m_u))[flat, flat] == pytest.approx(0.5, abs=1e-14)


def test_div_gram_matches_quadrature(spec2, ops2):
    E = div_gram(ops2, np.arange(spec2.m_u))
    for a in range(spec2.m_u):
        for b in range(a, spec2.m_u):
            da, db = div_mode(spec2, a), div_mode(spec2, b)
            oracle = quad2d(lambda x, y: da(x, y) * db(x, y))
            assert E[a, b] == pytest.approx(oracle, abs=1e-12)


def test_div_coupling_matches_quadrature(spec2, ops2):
    for k in range(spec2.m_p):
        ka, la = spec2.pressure_mode(k)
        c = spec2.pres_norms[ka, la]
        for b in range(spec2.m_u):
            db = div_mode(spec2, b)
            oracle = c * quad2d(
                lambda x, y: db(x, y) * np.cos(ka * np.pi * x) * np.cos(la * np.pi * y)
            )
            assert ops2.div_coupling[k, b] == pytest.approx(oracle, abs=1e-12)


def test_div_gram_spd_and_dominates_coupling(ops4):
    E = div_gram(ops4, np.arange(ops4.spec.m_u))
    assert np.abs(E - E.T).max() == 0.0
    eigs = np.linalg.eigvalsh(E)
    assert eigs.min() > -1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(ops4.spec.m_u)
        assert c @ E @ c >= np.linalg.norm(ops4.div_coupling @ c) ** 2 - 1e-10


def test_coupling_matrix_constant_force(spec2, ops2):
    f = SampledField.of_vector(lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x))
    G = coupling_matrix(ops2, f)
    for flat in range(spec2.m_u):
        comp, i, j = spec2.velocity_mode(flat)
        if comp == 1:
            expected = 0.0
        elif i % 2 == 1 and j % 2 == 1:
            n = spec2.vel_norms[i - 1, j - 1]
            expected = n * (2.0 / (i * np.pi)) * (2.0 / (j * np.pi))
        else:
            expected = 0.0
        assert G[flat, 0] == pytest.approx(expected, abs=1e-12)


def test_coupling_matrix_linearity_and_errors(spec2, ops2):
    f = SampledField.of_vector(lambda x, y: np.cos(np.pi * x), lambda x, y: x * y)
    f2 = SampledField.of_vector(lambda x, y: 2 * np.cos(np.pi * x), lambda x, y: 2 * x * y)
    assert np.allclose(coupling_matrix(ops2, f2), 2 * coupling_matrix(ops2, f), atol=1e-14)
    with pytest.raises(ValueError):
        coupling_matrix(ops2, SampledField.zero(vector=False))


@pytest.mark.parametrize(
    "fx, fy",
    [
        (lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x)),
        (lambda x, y: np.exp(x * y), lambda x, y: np.sin(2.0 * x + y * y)),
    ],
    ids=["simulate_cfg", "non_separable"],
)
def test_coupling_matrix_matches_entrywise_2d_quadrature(ops4, fx, fy):
    """Each G_ik against its own 40 x 40 Gauss rule of p_k (f . e_i) on the unit square."""
    spec = ops4.spec
    G = coupling_matrix(ops4, SampledField.of_vector(fx, fy))
    oracle = np.empty_like(G)
    for i in range(spec.m_u):
        comp, a, b = spec.velocity_mode(i)
        n_ab = spec.vel_norms[a - 1, b - 1]
        f_i = fx if comp == 0 else fy
        for k in range(spec.m_p):
            kx, ky = spec.pressure_mode(k)
            oracle[i, k] = quad2d(
                lambda x, y: n_ab * np.sin(a * np.pi * x) * np.sin(b * np.pi * y) * f_i(x, y)
                * spec.pres_norms[kx, ky] * np.cos(kx * np.pi * x) * np.cos(ky * np.pi * y)
            )
    assert np.abs(G - oracle).max() <= 1e-13 * np.abs(G).max()


@pytest.mark.memory
def test_coupling_matrix_builds_no_per_mode_table(ops16):
    """At n = 16 the contraction peaks below one (m_p, Q, Q) table (4.5 MB), the per-pressure-mode
    samples a 2-D quadrature would hold."""
    spec = ops16.spec
    f = SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x))
    tracemalloc.start()
    try:
        G = coupling_matrix(ops16, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.shape == (spec.m_u, spec.m_p) and peak < spec.m_p * spec.quad_order**2 * 8


@pytest.mark.memory
@pytest.mark.parametrize("n_u,n_p", [(1, 1), (8, 4), (8, 8)])
def test_no_operator_array_keeps_a_larger_base_alive(n_u, n_p):
    """Every array of an OperatorSet owns its data or views a base no larger than itself: a view
    of vt's first rows as b_vt would keep the whole m_u x m_u vt of B's SVD alive.  (1, 1) has
    an empty kernel, (8, 4) a B[1:] of full row rank, (8, 8) one deficient by one."""
    ops = assemble(build_basis(n_u, n_p))
    arrays = {f.name: getattr(ops, f.name) for f in dataclasses.fields(ops)}
    arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
    assert {"b_u", "b_s", "b_vt", "kernel"} <= set(arrays)
    for name, array in arrays.items():
        base = array
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert base.nbytes <= array.nbytes, (name, base.nbytes, array.nbytes)


def test_leray_fixed_point_on_kernel(ops4):
    z = ops4.kernel[:, 0]
    parts = leray_project(ops4, VelocityCoeffs(ops4.spec, z))
    assert np.abs(parts.solenoidal.values - z).max() <= 1e-12
    assert np.abs(parts.gradient.values).max() <= 1e-12


def test_leray_kills_discrete_gradients(ops4):
    rng = np.random.default_rng(11)
    q = np.zeros(ops4.spec.m_p)
    q[1:] = rng.standard_normal(ops4.spec.m_p - 1)
    grad = (ops4.div_coupling.T @ q) / ops4.mass_diag
    parts = leray_project(ops4, VelocityCoeffs(ops4.spec, grad))
    assert np.abs(parts.solenoidal.values).max() <= 1e-10 * max(1.0, np.abs(grad).max())


def test_leray_pythagoras_against_dense_oracle(ops4):
    spec = ops4.spec
    rng = np.random.default_rng(5)
    c = rng.standard_normal(spec.m_u)
    parts = leray_project(ops4, VelocityCoeffs(spec, c))
    m = ops4.mass_diag
    total = c @ (m * c)
    split = parts.solenoidal.values @ (m * parts.solenoidal.values) + parts.gradient.values @ (
        m * parts.gradient.values
    )
    assert abs(total - split) <= 1e-10 * total
    # dense oracle: projector from an independent nullspace factorization
    null = scipy.linalg.null_space(ops4.div_coupling[1:])
    proj = null @ np.linalg.solve(null.T @ (m[:, None] * null), null.T @ (m * c))
    assert np.abs(parts.solenoidal.values - proj).max() <= 1e-10


def test_leray_idempotent_and_complementary(ops4):
    rng = np.random.default_rng(6)
    c = rng.standard_normal(ops4.spec.m_u)
    parts = leray_project(ops4, VelocityCoeffs(ops4.spec, c))
    again = leray_project(ops4, parts.solenoidal)
    assert np.abs(again.solenoidal.values - parts.solenoidal.values).max() <= 1e-12
    reconstruction = parts.solenoidal.values + parts.gradient.values
    assert np.abs(reconstruction - c).max() <= 1e-15 * max(1.0, np.abs(c).max())


def test_grad_inverse_recovers_range_pressure(ops4):
    rng = np.random.default_rng(1)
    # q* in the range of the mean-zero coupling block: exactly recoverable
    qstar = np.zeros(ops4.spec.m_p)
    qstar[1:] = ops4.div_coupling[1:] @ rng.standard_normal(ops4.spec.m_u)
    g = -(ops4.div_coupling.T @ qstar)
    q = grad_inverse(ops4, g)
    assert np.abs(q.values - qstar).max() <= 1e-10 * max(1.0, np.abs(qstar).max())
    assert q.values[0] == 0.0


def test_grad_inverse_full_row_rank_inverts_everything():
    spec = build_basis(8, 4)
    ops = assemble(spec)
    assert ops.full_row_rank
    rng = np.random.default_rng(2)
    qstar = np.zeros(spec.m_p)
    qstar[1:] = rng.standard_normal(spec.m_p - 1)
    q = grad_inverse(ops, -(ops.div_coupling.T @ qstar))
    assert np.abs(q.values - qstar).max() <= 1e-10


def test_grad_inverse_zero_and_annihilation(ops4):
    assert np.all(grad_inverse(ops4, np.zeros(ops4.spec.m_u)).values == 0.0)
    g = ops4.kernel[:, 0].copy()  # purely solenoidal functional
    with pytest.raises(AnnihilationError):
        grad_inverse(ops4, g)
    # the row-wise form: zero rows map to zeros, and one solenoidal row among gradients raises
    rng = np.random.default_rng(3)
    qstar = np.zeros((2, ops4.spec.m_p))
    qstar[:, 1:] = rng.standard_normal((2, ops4.spec.m_u)) @ ops4.div_coupling[1:].T
    gradients = -(qstar @ ops4.div_coupling)
    assert np.all(grad_inverse_rows(ops4, np.zeros((3, ops4.spec.m_u))) == 0.0)
    q = grad_inverse_rows(ops4, gradients)
    assert np.abs(q - qstar).max() <= 1e-10 * np.abs(qstar).max()
    with pytest.raises(AnnihilationError):
        grad_inverse_rows(ops4, np.vstack([gradients, g]))


def test_bogovskii_zero_and_mean_check(ops4):
    coeffs, residual = bogovskii(ops4, PressureCoeffs(ops4.spec, np.zeros(ops4.spec.m_p)))
    assert np.all(coeffs.values == 0.0)
    assert residual == 0.0
    bad = np.zeros(ops4.spec.m_p)
    bad[0] = 1e-6
    with pytest.raises(MeanNotZero):
        bogovskii(ops4, PressureCoeffs(ops4.spec, bad))


def test_bogovskii_right_inverse_on_range(ops4):
    rng = np.random.default_rng(8)
    fq = np.zeros(ops4.spec.m_p)
    fq[1:] = ops4.div_coupling[1:] @ rng.standard_normal(ops4.spec.m_u)
    coeffs, residual = bogovskii(ops4, PressureCoeffs(ops4.spec, fq))
    assert residual <= 1e-8 * np.linalg.norm(fq)
    assert np.linalg.norm(ops4.div_coupling @ coeffs.values - fq) <= 1e-8 * np.linalg.norm(fq)


def test_bogovskii_linearity(ops4):
    rng = np.random.default_rng(9)
    q1 = np.zeros(ops4.spec.m_p)
    q2 = np.zeros(ops4.spec.m_p)
    q1[1:] = rng.standard_normal(ops4.spec.m_p - 1)
    q2[1:] = rng.standard_normal(ops4.spec.m_p - 1)
    c1, _ = bogovskii(ops4, PressureCoeffs(ops4.spec, q1))
    c2, _ = bogovskii(ops4, PressureCoeffs(ops4.spec, q2))
    c12, _ = bogovskii(ops4, PressureCoeffs(ops4.spec, q1 + q2))
    assert np.abs(c12.values - c1.values - c2.values).max() <= 1e-10


def test_operator_norms_singular_value_identity(ops4):
    est = operator_norm_estimates(ops4)
    assert est["bogovskii_norm"] > 0 and np.isfinite(est["bogovskii_norm"])
    assert est["grad_inverse_norm"] > 0 and np.isfinite(est["grad_inverse_norm"])
    # oracle: smallest positive singular value from an independent SVD
    s = np.linalg.svd(ops4.div_coupling[1:], compute_uv=False)
    s_min = s[ops4.b_rank - 1]
    assert abs(est["grad_inverse_norm"] * s_min - 1.0) <= 1e-10


def test_operator_norms_recorded_over_sizes():
    # recorded, not asserted: the discrete constants over a small size sweep
    values = []
    for n in (2, 4, 6):
        est = operator_norm_estimates(assemble(build_basis(n, n)))
        values.append(est["bogovskii_norm"])
        assert np.isfinite(est["bogovskii_norm"])
    print("bogovskii norm over n=2,4,6:", values)


def entrywise_div_gram(spec):
    """E entry by entry from the closed forms (test oracle): (n_ij i pi)^2 / 4 and (n_ij j pi)^2 / 4
    on the diagonal, n_ij n_i'j' pi^2 i j' S(i',i) S(j,j') between (1,i,j) and (2,i',j')."""
    from complim.basis import sin_cos_integral

    n, norms, half = spec.n_u, spec.vel_norms, spec.n_u**2
    E = np.zeros((spec.m_u, spec.m_u))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = (i - 1) * n + j - 1
            E[a, a] = (norms[i - 1, j - 1] * i * np.pi) ** 2 / 4.0
            E[half + a, half + a] = (norms[i - 1, j - 1] * j * np.pi) ** 2 / 4.0
            for ip in range(1, n + 1):
                for jp in range(1, n + 1):
                    E[a, half + (ip - 1) * n + jp - 1] = E[half + (ip - 1) * n + jp - 1, a] = (
                        norms[i - 1, j - 1] * norms[ip - 1, jp - 1] * np.pi**2 * i * jp
                        * sin_cos_integral(ip, i) * sin_cos_integral(j, jp)
                    )
    return E


@pytest.mark.parametrize("n_u,n_p", [(3, 3), (2, 3)])
def test_assembled_blocks_match_entrywise_closed_forms(n_u, n_p):
    from complim.basis import cos_cos_integral, pressure_normalization, sin_cos_integral

    spec = build_basis(n_u, n_p)
    ops = assemble(spec)
    norms = spec.vel_norms
    half = n_u * n_u
    cross = entrywise_div_gram(spec)[:half, half:]
    E = div_gram(ops, np.arange(spec.m_u))
    B = np.zeros((spec.m_p, spec.m_u))
    for k in range(n_p + 1):
        for l in range(n_p + 1):
            c_kl = pressure_normalization(k, l)
            for i in range(1, n_u + 1):
                for j in range(1, n_u + 1):
                    n_ij = norms[i - 1, j - 1]
                    B[spec.pressure_index(k, l), spec.velocity_index(0, i, j)] = (
                        n_ij * c_kl * i * np.pi * cos_cos_integral(i, k) * sin_cos_integral(j, l)
                    )
                    B[spec.pressure_index(k, l), spec.velocity_index(1, i, j)] = (
                        n_ij * c_kl * j * np.pi * sin_cos_integral(i, k) * cos_cos_integral(j, l)
                    )
    assert np.array_equal(E[:half, half:], cross)
    assert np.array_equal(E[half:, :half], cross.T)
    assert np.array_equal(ops.div_coupling, B)
    # vanishing integrals are stored as +0.0
    assert not np.signbit(E[E == 0.0]).any()
    assert not np.signbit(ops.div_coupling[ops.div_coupling == 0.0]).any()


@pytest.mark.parametrize("n_u,n_p", [(1, 1), (2, 3), (3, 3), (5, 3), (8, 8)])
def test_div_gram_blocks_match_entrywise_closed_forms(n_u, n_p):
    """div_gram on each velocity parity class and on a seeded ascending subset is the entrywise
    oracle's block exactly, its vanishing entries +0.0."""
    spec = build_basis(n_u, n_p)
    ops, oracle = assemble(spec), entrywise_div_gram(spec)
    u_class = spec.parity_classes()[: spec.m_u]
    subset = np.sort(np.random.default_rng(n_u * 10 + n_p).permutation(spec.m_u)[: spec.m_u // 2 + 1])
    for b in [np.flatnonzero(u_class == c) for c in range(4)] + [subset]:
        E = div_gram(ops, b)
        assert np.array_equal(E, oracle[np.ix_(b, b)]), b
        assert not np.signbit(E[E == 0.0]).any()


@pytest.mark.parametrize("n_u,n_p", [(8, 8), (16, 16)])
def test_no_operator_array_has_m_u_squared_entries(n_u, n_p):
    """E is read through its tables and div_gram, so the OperatorSet keeps nothing of its size."""
    ops = assemble(build_basis(n_u, n_p))
    for f in dataclasses.fields(ops):
        array = getattr(ops, f.name)
        assert not isinstance(array, np.ndarray) or array.size < ops.spec.m_u**2, f.name


@pytest.mark.parametrize("n_u,n_p", [(3, 3), (8, 8), (16, 16), (3, 5), (5, 3)])
def test_factored_products_match_the_dense_ones(n_u, n_p):
    """apply_E and apply_B against rows @ E and q @ B within 1e-14 of max|dense|.  Unequal bases
    take C(i, k) at k > n_p (zero rows of B's velocity blocks) and the reverse; no rows give none."""
    ops = assemble(build_basis(n_u, n_p))
    rng = np.random.default_rng(n_u * 10 + n_p)
    rows, q = rng.standard_normal((7, ops.spec.m_u)), rng.standard_normal((7, ops.spec.m_p))
    E = div_gram(ops, np.arange(ops.spec.m_u))
    for factored, dense in ((apply_E(ops, rows), rows @ E), (apply_B(ops, q), q @ ops.div_coupling)):
        assert factored.shape == dense.shape
        assert np.abs(factored - dense).max(initial=0.0) <= 1e-14 * np.abs(dense).max(initial=0.0)
    assert apply_E(ops, rows[:0]).shape == (0, ops.spec.m_u)
    assert apply_B(ops, q[:0]).shape == (0, ops.spec.m_u)


def test_coupling_matrix_stores_parity_zeros_exactly_and_keeps_a_nonfinite_g(ops8):
    """simulate.cfg's f = (cos(pi y), cos(pi x) / 2) couples velocity mode (comp, i, j) to
    pressure mode (k, l) only where i + k + comp is odd and j + l + comp is even.  Its
    quadrature leaves roundoff of ~1e-16 max|G| at the other entries, which must be exact
    zeros for the step system to split; a force whose samples overflow must keep its
    non-finite G, and a force near the float range whose G is representable gets it finite."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg"
    f = realize_vector_field(parse_config(path.read_text()).f)
    spec = ops8.spec
    G = coupling_matrix(ops8, f)
    pressure_modes = [spec.pressure_mode(k) for k in range(spec.m_p)]
    allowed = np.array(
        [
            [(i + k + comp) % 2 == 1 and (j + l + comp) % 2 == 0 for k, l in pressure_modes]
            for comp, i, j in map(spec.velocity_mode, range(spec.m_u))
        ]
    )
    assert np.all(G[~allowed] == 0.0)
    assert np.all(G[allowed] != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = SampledField.of_vector(
            lambda x, y: 1e308 * 1e308 * np.cos(np.pi * y),
            lambda x, y: 1e308 * 1e308 * np.cos(np.pi * x),
        )
        G = coupling_matrix(ops8, overflow)
    assert np.isinf(G).any() and np.isnan(G).any()
    # entries near 8.6e306: the 1-D contraction sums weights of total 1 per axis, so no partial
    # sum overflows and G is 1e308 times the unit force's, parity zeros included
    unit = SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: np.cos(np.pi * x))
    big = SampledField.of_vector(
        lambda x, y: 1e308 * np.cos(np.pi * y), lambda x, y: 1e308 * np.cos(np.pi * x)
    )
    G, G_unit = coupling_matrix(ops8, big), coupling_matrix(ops8, unit)
    assert np.isfinite(G).all() and np.array_equal(G == 0.0, G_unit == 0.0)
    assert np.abs(G - 1e308 * G_unit).max() <= 2e-15 * np.abs(G).max()
