from dataclasses import replace

import numpy as np
import pytest

from complim import (
    CompressibleParams,
    EmptyKernel,
    InvalidParams,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    assemble,
    build_basis,
    initial_pressure,
    nullspace_basis,
    project_pressure,
    project_velocity,
    simulate_incompressible,
)
from complim.basis import coefficients_of
from complim.presets import VELOCITY_PRESETS, velocity_preset

FORCE = SampledField.of_vector(lambda x, y: np.cos(np.pi * y), lambda x, y: 0.5 * np.cos(np.pi * x))


def bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", VELOCITY_PRESETS)
def test_velocity_preset_passes_through_coefficients_of(spec4, ops4, name):
    preset = velocity_preset(name, ops4)
    got = coefficients_of(spec4, preset)
    assert bitwise(got, preset.values) and got is not preset.values
    assert bitwise(velocity_preset(name, ops4).values, preset.values)


def test_initial_pressure_reads_source_and_constants_from_params(ops4):
    # compatible_p0 is a function of the problem's u0, s, rho0 and mu alone
    u0 = velocity_preset("solenoidal_u0", ops4)
    problem = CompressibleParams(rho0=2.0, mu=0.5, s=FORCE.scaled(2.0), u0=u0)
    expected = initial_pressure(ops4, problem).values
    sigma = SampledField.scalar(lambda x, y: np.cos(np.pi * x))
    others = dict(eta=0.5, alpha=0.1, T=0.3, dt=0.01, f=FORCE, sigma=sigma)
    got = initial_pressure(ops4, replace(problem, **others, p0=PressureCoeffs(ops4.spec, expected)))
    assert bitwise(got.values, expected)
    for changed in (dict(mu=1.0), dict(s=FORCE)):  # rho0 cancels from the t = 0 recovery
        moved = initial_pressure(ops4, replace(problem, **changed)).values
        assert np.abs(moved - expected).max() > 1e-3 * np.abs(expected).max()


def test_coefficients_of_fields_coefficients_and_none(spec4):
    u = SampledField.of_vector(lambda x, y: x * (1 - x) * y, lambda x, y: np.sin(np.pi * x) * y)
    p = SampledField.scalar(lambda x, y: 0.3 * np.cos(np.pi * x) + x * y)
    assert bitwise(coefficients_of(spec4, u), project_velocity(spec4, u).values)
    assert bitwise(coefficients_of(spec4, p, pressure=True), project_pressure(spec4, p).values)

    c = VelocityCoeffs(spec4, np.arange(spec4.m_u, dtype=float))
    q = PressureCoeffs(spec4, np.arange(spec4.m_p, dtype=float))
    got_c, got_q = coefficients_of(spec4, c), coefficients_of(spec4, q, pressure=True)
    assert bitwise(got_c, c.values) and got_c is not c.values
    assert bitwise(got_q, q.values) and got_q is not q.values

    assert bitwise(coefficients_of(spec4, None), np.zeros(spec4.m_u))
    assert bitwise(coefficients_of(spec4, None, pressure=True), np.zeros(spec4.m_p))


def test_velocity_preset_rejects_unknown_names(ops4):
    # the zero field is spelled as a field ("0", "zero"), not as a preset; no pressure is a preset
    for name in ("zero", "compatible_p0"):
        with pytest.raises(KeyError):
            velocity_preset(name, ops4)


def test_scaled_field_keeps_time_factor_and_kind():
    s = FORCE.scaled(2.0)
    x, y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 5))
    assert bitwise(s.spatial(x, y), 2.0 * np.asarray(FORCE.spatial(x, y)))
    assert s.vector and s.time_factor is None
    timed = SampledField.scalar(lambda x, y: x + y, time_factor=np.cos, label="x+y").scaled(3.0)
    assert timed.time_factor is np.cos and timed.label == "3*(x+y)" and not timed.vector


def test_compatible_p0_from_s_is_the_node0_stokes_pressure(spec4, ops4):
    # a time-dependent source at rho0 != 1: compatible_p0 is the t = 0 recovery of the run it seeds
    s = SampledField(spatial=FORCE.spatial, vector=True, time_factor=lambda t: 1.5 + t)
    u0 = velocity_preset("solenoidal_u0", ops4)
    params = CompressibleParams(rho0=2.0, mu=0.5, T=0.1, dt=0.01, s=s, u0=u0)
    q0 = initial_pressure(ops4, params).values
    traj = simulate_incompressible(spec4, ops4, nullspace_basis(ops4), params, store_states=True)
    assert np.abs(q0).max() > 0.1
    assert np.abs(traj.q[0] - q0).max() <= 1e-12 * np.abs(q0).max()


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("timed", [False, True], ids=["s_none", "s_timed"])
def test_compatible_p0_of_solenoidal_u0_is_the_preset_pressure_as_before(n, timed):
    # compatible_p0 used to be the Stokes pressure of the solenoidal_u0 preset whatever u0 the
    # run had, computed from (u0, s, rho0, mu) alone; given that preset as u0, the pressure of
    # a whole problem must stay that value bit for bit
    ops = assemble(build_basis(n, n))
    s = None
    if timed:
        s = SampledField(spatial=FORCE.spatial, vector=True, time_factor=lambda t: 1.5 + t)
    u0 = velocity_preset("solenoidal_u0", ops)
    before = initial_pressure(ops, CompressibleParams(rho0=2.0, mu=0.5, s=s, u0=u0)).values
    problem = CompressibleParams(rho0=2.0, mu=0.5, eta=0.5, alpha=1e-3, T=0.5, f=FORCE, s=s, u0=u0)
    got = initial_pressure(ops, problem).values
    assert bitwise(got, before)


@pytest.mark.parametrize("u0", ["gradient_u0", "mixed_u0"])
def test_compatible_p0_needs_a_solenoidal_u0(spec4, ops4, u0):
    with pytest.raises(InvalidParams, match="compatible_p0.*solenoidal u0"):
        initial_pressure(ops4, CompressibleParams(u0=velocity_preset(u0, ops4)))


def test_compatible_p0_needs_solenoidal_modes():
    # at n_u = n_p = 1 the discrete solenoidal space is {0}; u0 = 0 is solenoidal
    with pytest.raises(EmptyKernel, match="no solenoidal modes"):
        initial_pressure(assemble(build_basis(1, 1)), CompressibleParams())
