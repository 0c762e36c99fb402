import dataclasses
import tracemalloc

import numpy as np
import pytest

import complim.limits as limits
from complim import (
    CompressibleParams,
    InvalidParams,
    SweepConfig,
    Trajectory,
    VelocityCoeffs,
    build_basis,
    fit_rate,
    probe_dictionary,
    shift_pressure_mean,
    simulate_compressible,
    simulate_incompressible,
    sweep_alpha,
    weak_probe,
    x_alpha,
)
from complim.compressible import STEP_CHUNK
from complim.limits import ProbePair
from complim.presets import pressure_preset, velocity_preset


SMALL = dict(n_u=3, n_p=3, T=0.5, alphas=(1e-1, 1e-2, 1e-3), probes=4, seed=3)


def test_fit_rate_exact_half_order_line():
    fit = fit_rate([1e-2, 1e-3, 1e-4], [1e-1, 10**-1.5, 1e-2])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual <= 1e-12


def test_fit_rate_constant_and_rejections():
    assert fit_rate([1e-1, 1e-2, 1e-3], [2.0, 2.0, 2.0]).slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([1e-1, 1e-2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1e-1, 1e-2, 1e-3], [1.0, -2.0, 1.0])


def test_presets_structure(spec8, ops8, kernel8):
    g = velocity_preset("gradient_u0", spec8, ops8)
    s = velocity_preset("solenoidal_u0", spec8, ops8)
    m = velocity_preset("mixed_u0", spec8, ops8)
    md = ops8.mass_diag
    assert g.values @ (md * g.values) == pytest.approx(1.0, abs=1e-12)
    assert s.values @ (md * s.values) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(m.values - g.values - s.values).max() <= 1e-15 * np.abs(m.values).max()
    # gradient preset is M-orthogonal to the kernel; solenoidal preset lies in it
    assert np.abs(kernel8.z.T @ (md * g.values)).max() <= 1e-12
    assert np.abs(ops8.div_coupling[1:] @ s.values).max() <= 1e-12
    p = pressure_preset("compatible_p0", spec8, ops8, s=None, rho0=1.0, mu=1.0)
    assert p.values[0] == 0.0
    with pytest.raises(KeyError):
        velocity_preset("nope", spec8, ops8)


def test_probe_dictionary_properties(ops4):
    pairs = probe_dictionary(ops4, 5, T=1.0, seed=42)
    again = probe_dictionary(ops4, 5, T=1.0, seed=42)
    for a, b in zip(pairs, again):
        assert np.array_equal(a.v, b.v)
    vs = np.stack([p.v for p in pairs], axis=1)
    assert np.abs(vs.T @ vs - np.eye(5)).max() <= 1e-12
    assert np.abs(ops4.div_coupling[1:] @ vs).max() <= 1e-12


def test_weak_probe_zero_linearity_and_rejection(spec4, ops4, kernel4):
    params = CompressibleParams(T=0.3, dt=0.01, u0=VelocityCoeffs(spec4, kernel4.z[:, 0].copy()))
    ref = simulate_incompressible(spec4, ops4, kernel4, params)
    embedded = Trajectory(
        spec=spec4, params=params, dt=ref.dt, times=ref.times, c=ref.c.copy(),
        q=np.zeros((len(ref.times), spec4.m_p)), energy=ref.energy.copy(),
        h01=ref.h01.copy(), div=ref.div.copy(), mass=np.ones(len(ref.times)),
    )
    pairs = probe_dictionary(ops4, 3, T=0.3, seed=1)
    deltas = weak_probe(embedded, ref, pairs, ops4)
    assert np.all(deltas == 0.0)

    # a genuinely different compressible run: doubling the probe doubles the pairing
    params_c = CompressibleParams(
        alpha=0.05, T=0.3, dt=0.01, u0=VelocityCoeffs(spec4, np.ones(spec4.m_u))
    )
    from complim import simulate_compressible

    traj = simulate_compressible(spec4, ops4, params_c)
    one = weak_probe(traj, ref, pairs)
    doubled = [ProbePair(2 * p.v, p.phi, p.label, p.phi_prime) for p in pairs]
    two = weak_probe(traj, ref, doubled)
    assert np.allclose(two, 2 * one, rtol=1e-12)

    bad = [ProbePair(np.ones(spec4.m_u), lambda t: np.ones_like(t), "bad")]
    with pytest.raises(ValueError):
        weak_probe(traj, ref, bad, ops4)


def test_sweep_row_count_and_shapes():
    res = sweep_alpha(SweepConfig(u0="mixed_u0", kind="strong_velocity", **SMALL))
    assert len(res.rows) == 3
    assert [r.alpha for r in res.rows] == [1e-1, 1e-2, 1e-3]
    for row in res.rows:
        assert not row.failed
        assert row.probe_deltas.shape == (4,)
        assert row.err_vel_l2h1 >= 0.0
    assert res.x_limit == pytest.approx(1.0, abs=1e-10)


def test_sweep_config_validation():
    with pytest.raises(InvalidParams):
        sweep_alpha(SweepConfig(kind="bogus", **SMALL))
    bad = dict(SMALL)
    bad["alphas"] = (1e-1, 1e-2)
    with pytest.raises(InvalidParams):
        sweep_alpha(SweepConfig(**bad))
    bad["alphas"] = (1e-2, 1e-1, 1e-3)
    with pytest.raises(InvalidParams):
        sweep_alpha(SweepConfig(**bad))
    bad["alphas"] = (2.0, 1e-1, 1e-2)
    with pytest.raises(InvalidParams):
        sweep_alpha(SweepConfig(**bad))


def test_pressure_sweep_requires_solenoidal_u0():
    with pytest.raises(InvalidParams):
        sweep_alpha(SweepConfig(u0="gradient_u0", kind="pressure_weak", **SMALL))


def test_sweep_thread_count_does_not_change_results():
    cfg = SweepConfig(u0="solenoidal_u0", kind="strong_velocity", **SMALL)
    res1 = sweep_alpha(cfg)
    res3 = sweep_alpha(cfg)
    for a, b in zip(res1.rows, res3.rows):
        assert a.err_vel_l2h1 == b.err_vel_l2h1
        assert a.x_alpha == b.x_alpha
        assert np.array_equal(a.probe_deltas, b.probe_deltas)


def test_failed_row_recorded_not_fatal(monkeypatch):
    original = limits.compressible_chunks

    def sometimes_fail(spec, ops, params):
        if params.alpha == 1e-2:
            raise RuntimeError("synthetic failure")
        return original(spec, ops, params)

    monkeypatch.setattr(limits, "compressible_chunks", sometimes_fail)
    res = sweep_alpha(SweepConfig(u0="solenoidal_u0", kind="strong_velocity", **SMALL))
    assert [r.failed for r in res.rows] == [False, True, False]
    assert "synthetic failure" in res.rows[1].error
    assert np.isnan(res.rows[1].x_alpha)


def test_row_failing_mid_march_leaves_the_lockstep(monkeypatch):
    cfg = SweepConfig(u0="solenoidal_u0", kind="strong_velocity", **dict(SMALL, T=1.0, dt=1e-3))
    clean = sweep_alpha(cfg)
    original = limits.compressible_chunks
    pulled = []

    def fail_on_third_chunk(spec, ops, params):
        dt, times, G, chunks = original(spec, ops, params)

        def failing():
            for k, chunk in enumerate(chunks):
                if params.alpha == 1e-2 and k == 2:
                    raise RuntimeError("synthetic failure")
                pulled.append(params.alpha)
                yield chunk

        return dt, times, G, failing()

    monkeypatch.setattr(limits, "compressible_chunks", fail_on_third_chunk)
    res = sweep_alpha(cfg)
    assert [r.failed for r in res.rows] == [False, True, False]
    assert "synthetic failure" in res.rows[1].error
    assert np.isnan(res.rows[1].x_alpha) and res.rows[1].probe_deltas.size == 0
    # the failed row is pulled no further; the others finish as in a sweep without it
    assert pulled.count(1e-2) == 2 and pulled.count(1e-1) == pulled.count(1e-3) == 4
    for k in (0, 2):
        assert res.rows[k].x_alpha == clean.rows[k].x_alpha
        assert np.array_equal(res.rows[k].probe_deltas, clean.rows[k].probe_deltas)


def test_x_alpha_identical_trajectories_vanish(spec4, ops4, kernel4):
    params = CompressibleParams(alpha=0.05, T=0.3, dt=0.01,
                                u0=VelocityCoeffs(spec4, kernel4.z[:, 0].copy()))
    ref = simulate_incompressible(spec4, ops4, kernel4, params)
    embedded = Trajectory(
        spec=spec4, params=params, dt=ref.dt, times=ref.times, c=ref.c.copy(),
        q=np.zeros((len(ref.times), spec4.m_p)), energy=ref.energy.copy(),
        h01=ref.h01.copy(), div=ref.div.copy(), mass=np.ones(len(ref.times)),
    )
    assert x_alpha(ops4, params, embedded, ref) == 0.0


def test_weak_kind_runs():
    res = sweep_alpha(SweepConfig(u0="gradient_u0", kind="weak", **SMALL))
    assert len(res.rows) == 3 and not any(r.failed for r in res.rows)


def _x_alpha_full(ops, params, traj, ref):
    """x_alpha over whole stored trajectories, as the rows computed it before they streamed."""
    d = traj.c - ref.c
    value = (
        params.rho0 * (d[-1] @ (ops.mass_diag * d[-1]))
        + params.alpha / params.rho0 * float(traj.q[-1] @ traj.q[-1])
        + 2.0 * params.mu * np.trapezoid(np.einsum("ni,ni->n", d, d), traj.times)
    )
    if params.eta > 0.0:
        div_sq = np.einsum("ni,ij,nj->n", d, ops.div_gram, d, optimize=True)
        value += 2.0 * params.eta * np.trapezoid(div_sq, traj.times)
    return float(value)


def _weak_probe_full(traj, ref, dictionary):
    """Probe deltas over whole stored trajectories, one GEMV per probe over all nodes."""
    d, t = traj.c - ref.c, traj.times
    deltas = []
    for pair in dictionary:
        signal = d @ pair.v
        value = np.trapezoid(signal * pair.phi(t), t) - (t[1] - t[0]) ** 2 / 12.0 * (
            signal[-1] * pair.phi_prime(t[-1]) - signal[0] * pair.phi_prime(t[0])
        )
        deltas.append(abs(value))
    return np.array(deltas)


@pytest.mark.parametrize(
    "kind, u0, eta",
    [
        ("weak", "gradient_u0", 0.0),
        ("strong_velocity", "mixed_u0", 0.0),
        ("strong_velocity", "mixed_u0", 0.5),
        ("pressure_weak", "solenoidal_u0", 0.0),
        ("pressure_strong", "solenoidal_u0", 0.0),
    ],
)
def test_streamed_rows_match_full_trajectory_reductions(monkeypatch, kind, u0, eta):
    original_rows, original_reference = limits.compressible_chunks, limits.stokes_chunks
    runs, reference_args = [], []

    def record(spec, ops, params):
        runs.append((ops, params, simulate_compressible(spec, ops, params)))
        return original_rows(spec, ops, params)

    def record_reference(*args):
        reference_args.append(args)
        return original_reference(*args)

    monkeypatch.setattr(limits, "compressible_chunks", record)
    monkeypatch.setattr(limits, "stokes_chunks", record_reference)
    cfg = SweepConfig(
        n_u=4, n_p=4, T=0.5, alphas=(1e-1, 1e-2, 1e-3), probes=4, seed=5, kind=kind, u0=u0, eta=eta
    )
    res = sweep_alpha(cfg)
    # the whole reference the sweep streamed, its pressure mean aligned with p0 as the sweep does
    ref = shift_pressure_mean(
        simulate_incompressible(*reference_args[0]), float(runs[0][1].p0.values[0])
    )
    assert len(runs) == 3 and runs[-1][2].n_steps > 2 * STEP_CHUNK
    for row, (ops, params, traj) in zip(res.rows, runs):
        assert not row.failed
        d, t = traj.c - ref.c, traj.times
        assert row.err_vel_l2h1 == float(np.sqrt(np.trapezoid(np.einsum("ni,ni->n", d, d), t)))
        assert row.err_vel_linf_l2 == float(
            np.sqrt(np.max(np.einsum("ni,i,ni->n", d, ops.mass_diag, d)))
        )
        assert row.err_pres_linf_l2 == float(np.max(np.linalg.norm(traj.q - ref.q, axis=1)))
        full = _x_alpha_full(ops, params, traj, ref)
        if eta == 0.0:
            assert row.x_alpha == x_alpha(ops, params, traj, ref) == full
        else:  # the div term's GEMM may sum a chunk in another order
            assert row.x_alpha == pytest.approx(full, rel=1e-12, abs=0.0)
            assert x_alpha(ops, params, traj, ref) == full
        dictionary = probe_dictionary(ops, cfg.probes, cfg.T, cfg.seed)
        expected = weak_probe(traj, ref, dictionary)
        assert np.array_equal(expected, _weak_probe_full(traj, ref, dictionary))
        # a chunk's GEMV may split its rows differently from one over all nodes
        assert row.probe_deltas == pytest.approx(expected, rel=1e-12, abs=0.0)


def _traced_peak(cfg):
    tracemalloc.start()
    try:
        res = sweep_alpha(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in res.rows)
    return peak


def test_streamed_rows_hold_no_trajectory():
    """A sweep holds its rows' series and a few chunks of states per system, not (N+1) m doubles."""
    cfg = SweepConfig(
        n_u=4, n_p=4, T=1.0, dt=2e-4, alphas=(1e-1, 1e-2, 1e-3), probes=4, u0="mixed_u0"
    )
    peak = _traced_peak(cfg)
    spec = build_basis(cfg.n_u, cfg.n_p)
    m, nodes = spec.m_u + spec.m_p, round(cfg.T / cfg.dt) + 1
    assert nodes >= 2000
    series = 8 * nodes * (3 + cfg.probes)  # |d|^2, d'Md, |dq| and one signal per probe
    chunk = 8 * (STEP_CHUNK + 1) * m
    # per row its series and three chunks (states, right-hand sides, its time
    # grid and step matrices); shared, the transient loads and residual
    # products and the reference's chunk.  One stored trajectory would add
    # 8 (N+1) m bytes, about 20 chunks here
    rows = len(cfg.alphas)
    assert peak < rows * (series + 3 * chunk) + 10 * chunk, (peak - rows * series) / chunk


def test_sweep_memory_does_not_grow_with_the_step_count():
    """Doubling T doubles the rows' per-node series and nothing else."""
    short = SweepConfig(
        n_u=4, n_p=4, T=0.5, dt=2e-4, alphas=(1e-1, 1e-2, 1e-3), probes=4, u0="mixed_u0"
    )
    long = dataclasses.replace(short, T=2 * short.T)
    growth = _traced_peak(long) - _traced_peak(short)
    added = round(long.T / long.dt) - round(short.T / short.dt)
    # per row its series and time grid, and the reference's time grid
    series = 8 * added * ((4 + short.probes) * len(short.alphas) + 1)
    spec = build_basis(short.n_u, short.n_p)
    # a stored reference would add 8 (m_V + m_u + m_p) per node, about 1.9 MB here
    slack = 8 * (STEP_CHUNK + 1) * (spec.m_u + spec.m_p)
    assert growth <= series + slack, (growth, series, slack)
