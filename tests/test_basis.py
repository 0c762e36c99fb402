import dataclasses
import tracemalloc

import numpy as np
import pytest

from complim import (
    BasisSpec,
    CompressibleParams,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    build_basis,
    initial_pressure,
    limits,
    norms,
    nullspace_basis,
    project_pressure,
    project_velocity,
    simulate_compressible,
    simulate_incompressible,
    sweep_alpha,
)
from complim.operators import div_gram

from conftest import PARITY_N_P, PARITY_N_U, eval_field, parity_grid_ops, quad2d


def vel_mode(i, j):
    return lambda x, y: np.sin(i * np.pi * x) * np.sin(j * np.pi * y)


def grad_sq(i, j):
    def fn(x, y):
        dx = i * np.pi * np.cos(i * np.pi * x) * np.sin(j * np.pi * y)
        dy = j * np.pi * np.sin(i * np.pi * x) * np.cos(j * np.pi * y)
        return dx**2 + dy**2

    return fn


def test_build_basis_small_counts():
    spec = build_basis(1, 1)
    assert spec.m_u == 2
    assert spec.m_p == 4
    assert spec.vel_norms[0, 0] == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-15)
    # quadrature oracle: |grad(sin pi x sin pi y)|^2 integrates to pi^2/2
    assert quad2d(grad_sq(1, 1)) == pytest.approx(np.pi**2 / 2, abs=1e-12)


def test_build_basis_constant_pressure_mode():
    spec = build_basis(1, 0)
    assert spec.m_p == 1
    assert spec.pres_norms[0, 0] == 1.0
    val = eval_field(spec, PressureCoeffs(spec, np.array([1.0])), 0.3, 0.8)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_build_basis_default_counts():
    spec = build_basis(8, 8)
    assert spec.m_u == 128
    assert spec.m_p == 81


def test_build_basis_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_basis(0, 1)
    with pytest.raises(ValueError):
        build_basis(2, -1)


def test_a_basis_is_the_value_of_its_two_sizes():
    assert [f.name for f in dataclasses.fields(BasisSpec)] == ["n_u", "n_p"]
    assert build_basis(3, 3) == build_basis(3, 3) and hash(build_basis(3, 3)) == hash(build_basis(3, 3))
    assert build_basis(3, 3) != build_basis(3, 2)
    assert build_basis(np.int64(3), 2) == build_basis(3, 2) and type(build_basis(np.int64(3), 2).n_u) is int


@pytest.mark.memory
def test_a_basis_builds_no_array_until_one_is_read():
    # its sizes are read without the n^2 arrays behind them: 40 billion norms here
    tracemalloc.start()
    try:
        spec = build_basis(200000, 200000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 and spec.m_u == 80_000_000_000


def test_velocity_basis_h1_normalized(spec4):
    # every retained mode has H10 norm exactly 1 (quadrature oracle)
    for i in range(1, spec4.n_u + 1):
        for j in range(1, spec4.n_u + 1):
            n_ij = spec4.vel_norms[i - 1, j - 1]
            val = n_ij**2 * quad2d(grad_sq(i, j))
            assert abs(val - 1.0) <= 1e-12


def test_velocity_basis_l2_orthogonal(spec2):
    # quadrature Gram of the full velocity basis is diagonal with the known entries
    modes = [(c, i, j) for c in (0, 1) for i in (1, 2) for j in (1, 2)]
    gram = np.zeros((len(modes), len(modes)))
    for a, (ca, ia, ja) in enumerate(modes):
        for b, (cb, ib, jb) in enumerate(modes):
            if ca != cb:
                continue  # different components are orthogonal by structure
            na = spec2.vel_norms[ia - 1, ja - 1]
            nb = spec2.vel_norms[ib - 1, jb - 1]
            gram[a, b] = na * nb * quad2d(
                lambda x, y: vel_mode(ia, ja)(x, y) * vel_mode(ib, jb)(x, y)
            )
    expected = np.diag(spec2.mass_diag[: len(modes)])
    # reorder: modes list above follows the flat index layout already
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-14
    assert np.allclose(np.diag(gram), spec2.mass_diag[[0, 1, 2, 3, 0, 1, 2, 3]], atol=1e-14)


def test_pressure_basis_orthonormal(spec4):
    n = spec4.n_p
    flat = spec4.m_p
    gram = np.zeros((flat, flat))
    for a in range(flat):
        ka, la = divmod(a, n + 1)
        for b in range(a, flat):
            kb, lb = divmod(b, n + 1)
            ca = spec4.pres_norms[ka, la]
            cb = spec4.pres_norms[kb, lb]
            gram[a, b] = gram[b, a] = ca * cb * quad2d(
                lambda x, y: np.cos(ka * np.pi * x)
                * np.cos(la * np.pi * y)
                * np.cos(kb * np.pi * x)
                * np.cos(lb * np.pi * y)
            )
    assert np.abs(gram - np.eye(flat)).max() <= 1e-12


def test_project_velocity_reproduces_basis_function(spec4):
    flat = spec4.velocity_index(0, 1, 1)
    n11 = spec4.vel_norms[0, 0]
    fld = SampledField.of_vector(
        lambda x, y: n11 * vel_mode(1, 1)(x, y), lambda x, y: np.zeros_like(x)
    )
    coeffs = project_velocity(spec4, fld)
    expected = np.zeros(spec4.m_u)
    expected[flat] = 1.0
    assert np.abs(coeffs.values - expected).max() <= 1e-12


def test_project_velocity_zero_field(spec4):
    coeffs = project_velocity(spec4, SampledField(lambda x, y: 0 * x, vector=True))
    assert np.all(coeffs.values == 0.0)


def test_project_velocity_mode_outside_span():
    spec = build_basis(2, 2)
    fld = SampledField.of_vector(vel_mode(3, 1), lambda x, y: np.zeros_like(x))
    coeffs = project_velocity(spec, fld)
    assert np.abs(coeffs.values).max() <= 1e-12


def test_project_velocity_rejects_scalar(spec4):
    with pytest.raises(ValueError):
        project_velocity(spec4, SampledField.scalar(lambda x, y: 0 * x))


def test_project_pressure_constant(spec4):
    fld = SampledField.scalar(lambda x, y: np.ones_like(x))
    coeffs = project_pressure(spec4, fld)
    expected = np.zeros(spec4.m_p)
    expected[0] = 1.0
    assert np.abs(coeffs.values - expected).max() <= 1e-12


def test_project_pressure_single_cosine(spec4):
    coeffs = project_pressure(spec4, SampledField.scalar(lambda x, y: np.cos(np.pi * x)))
    expected = np.zeros(spec4.m_p)
    expected[spec4.pressure_index(1, 0)] = 1.0 / np.sqrt(2.0)
    assert np.abs(coeffs.values - expected).max() <= 1e-12


def test_project_pressure_against_quadrature_oracle():
    spec = build_basis(4, 4)
    fld = SampledField.scalar(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    coeffs = project_pressure(spec, fld)
    for flat in range(spec.m_p):
        k, l = divmod(flat, spec.n_p + 1)
        c_kl = spec.pres_norms[k, l]
        oracle = c_kl * quad2d(
            lambda x, y: np.sin(np.pi * x)
            * np.sin(np.pi * y)
            * np.cos(k * np.pi * x)
            * np.cos(l * np.pi * y)
        )
        assert coeffs.values[flat] == pytest.approx(oracle, abs=1e-12)


def test_eval_field_velocity_point_value(spec4):
    values = np.zeros(spec4.m_u)
    values[spec4.velocity_index(0, 1, 1)] = 1.0
    out = eval_field(spec4, VelocityCoeffs(spec4, values), 0.5, 0.5)
    assert out[0] == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-14)
    assert out[1] == 0.0


def test_eval_field_zero(spec4):
    x, y = np.random.default_rng(0).uniform(size=(2, 5))
    assert np.all(eval_field(spec4, VelocityCoeffs(spec4, np.zeros(spec4.m_u)), x, y) == 0.0)


def test_norms_unit_velocity_mode(spec4, ops4):
    values = np.zeros(spec4.m_u)
    values[spec4.velocity_index(0, 1, 1)] = 1.0
    result = norms(ops4, VelocityCoeffs(spec4, values))
    assert result["h01"] == pytest.approx(1.0, abs=1e-15)
    assert result["l2"] == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)), abs=1e-15)


def test_norms_zero_and_pressure(spec4, ops4):
    zero = norms(ops4, VelocityCoeffs(spec4, np.zeros(spec4.m_u)))
    assert zero == {"l2": 0.0, "h01": 0.0, "div_l2": 0.0}
    q = np.zeros(spec4.m_p)
    q[spec4.pressure_index(2, 1)] = 1.0
    assert norms(ops4, PressureCoeffs(spec4, q))["l2"] == pytest.approx(1.0)


def test_parseval_on_span(spec2, ops2):
    rng = np.random.default_rng(42)
    values = rng.standard_normal(spec2.m_u)
    coeffs = VelocityCoeffs(spec2, values)

    l2_sq = quad2d(lambda x, y: (eval_field(spec2, coeffs, x, y) ** 2).sum(axis=0))
    reported = norms(ops2, coeffs)
    assert np.sqrt(l2_sq) == pytest.approx(reported["l2"], abs=1e-10)


def test_projection_idempotent_on_span(spec2):
    rng = np.random.default_rng(7)
    coeffs = VelocityCoeffs(spec2, rng.standard_normal(spec2.m_u))

    fld = SampledField(lambda x, y: eval_field(spec2, coeffs, x, y), vector=True)
    again = project_velocity(spec2, fld)
    assert np.abs(again.values - coeffs.values).max() <= 1e-12


def test_index_maps_are_bijections(spec4):
    seen = set()
    for comp in (0, 1):
        for i in range(1, spec4.n_u + 1):
            for j in range(1, spec4.n_u + 1):
                flat = spec4.velocity_index(comp, i, j)
                assert spec4.velocity_mode(flat) == (comp, i, j)
                seen.add(flat)
    assert seen == set(range(spec4.m_u))
    seen = set()
    for k in range(spec4.n_p + 1):
        for l in range(spec4.n_p + 1):
            flat = spec4.pressure_index(k, l)
            assert divmod(flat, spec4.n_p + 1) == (k, l)
            seen.add(flat)
    assert seen == set(range(spec4.m_p))
    with pytest.raises(IndexError):
        spec4.velocity_index(2, 1, 1)
    with pytest.raises(IndexError):
        spec4.pressure_index(spec4.n_p + 1, 0)


def test_project_pressure_rejects_vector(spec4):
    with pytest.raises(ValueError):
        project_pressure(spec4, SampledField(lambda x, y: 0 * x, vector=True))


def _run_with(target, ops, field, data, monkeypatch):
    params = CompressibleParams(T=0.01, dt=0.005, **{field: data})
    if target == "simulate_compressible":
        simulate_compressible(ops.spec, ops, params)
    elif target == "simulate_incompressible":
        simulate_incompressible(ops.spec, ops, nullspace_basis(ops), params)
    elif target == "sweep_alpha":
        def fork():
            raise AssertionError("the sweep forked before it resolved its initial data")

        monkeypatch.setattr(limits.os, "fork", fork)
        sweep_alpha(ops, params, (1e-1, 1e-2, 1e-3), probes=2)
    else:
        initial_pressure(ops, params)


@pytest.mark.parametrize(
    "data",
    ["other_basis", "other_kind", "other_field", "array"],
)
@pytest.mark.parametrize(
    "target, field",
    [
        ("simulate_compressible", "u0"),
        ("simulate_compressible", "p0"),
        ("simulate_incompressible", "u0"),
        ("sweep_alpha", "u0"),
        ("sweep_alpha", "p0"),
        ("initial_pressure", "u0"),
    ],
)
def test_initial_data_of_the_wrong_kind_or_basis_fails_in_one_line(ops4, monkeypatch, target, field, data):
    """coefficients_of, the one resolver of u0 and p0, raises one ValueError for coefficients
    of another basis or the other kind, a field of the other kind and anything else."""
    pressure = field == "p0"
    spec3 = build_basis(3, 3)
    value = {
        "other_basis": (PressureCoeffs(spec3, np.ones(spec3.m_p)) if pressure
                        else VelocityCoeffs(spec3, np.ones(spec3.m_u))),
        "other_kind": (VelocityCoeffs(ops4.spec, np.ones(ops4.spec.m_u)) if pressure
                       else PressureCoeffs(ops4.spec, np.ones(ops4.spec.m_p))),
        "other_field": SampledField(lambda x, y: 0 * x, vector=pressure),
        "array": np.zeros(ops4.spec.m_p if pressure else ops4.spec.m_u),
    }[data]
    kind = "pressure" if pressure else "velocity"
    with pytest.raises(ValueError, match=f"^{kind} data must be None, "):
        _run_with(target, ops4, field, value, monkeypatch)


@pytest.mark.parametrize("n_u", PARITY_N_U)
def test_no_entry_of_E_or_B_crosses_a_parity_class(n_u):
    """Each unknown's class is the one its mode's indices give, and neither E (velocity by
    velocity) nor B (pressure by velocity) has a nonzero entry between two classes."""
    for n_p in PARITY_N_P:
        ops = parity_grid_ops(n_u, n_p)
        spec, E, B = ops.spec, div_gram(ops, np.arange(ops.spec.m_u)), ops.div_coupling
        classes = spec.parity_classes()
        u, p = classes[: spec.m_u], classes[spec.m_u :]
        for flat in range(spec.m_u):
            comp, i, j = spec.velocity_mode(flat)
            a, b = (i % 2, 1 - j % 2) if comp == 0 else (1 - i % 2, j % 2)
            assert u[flat] == 2 * a + b, (comp, i, j)
        for flat in range(1, spec.m_p):
            k, l = divmod(flat, spec.n_p + 1)
            assert p[flat] == 2 * (k % 2) + l % 2, (k, l)
        assert p[0] == 4 and len(classes) == spec.m_u + spec.m_p
        assert not E[u[:, None] != u].any(), (n_u, n_p)
        assert not B[p[:, None] != u].any(), (n_u, n_p)
        # not vacuous: E couples the two components within a class from n_u = 2 on
        assert (np.count_nonzero(E) > spec.m_u) == (n_u > 1)
