import dataclasses
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

import complim.limits as limits
from complim import (
    CompressibleParams,
    InvalidParams,
    PressureCoeffs,
    Trajectory,
    VelocityCoeffs,
    assemble,
    build_basis,
    fit_rate,
    initial_pressure,
    probe_dictionary,
    simulate_compressible,
    simulate_incompressible,
    sweep_alpha,
    weak_probe,
    x_alpha,
)
from complim.cli import run_cli
from complim.compressible import STEP_CHUNK, StepFailure
from complim.config import realize_scalar_field
from complim.operators import div_gram
from complim.presets import velocity_preset

from test_cli import SWEEP_CFG, write_cfg
from test_compressible import corrupt_solve


SMALL = dict(alphas=(1e-1, 1e-2, 1e-3), probes=4, seed=3)


def _in_the_caller(march, groups):
    return [march(group) for group in groups]


@pytest.fixture
def marched_here(monkeypatch):
    """Each group of rows marches in the calling process, where a test's recorders and traces see it."""
    monkeypatch.setattr(limits, "_march_in_workers", _in_the_caller)


def _problem(u0, n=3, **physics):
    """Operators at n_u = n_p = n and the CompressibleParams of a sweep from the u0 preset."""
    ops = assemble(build_basis(n, n))
    params = CompressibleParams(**{"T": 0.5, **physics}, u0=velocity_preset(u0, ops))
    return ops, params


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
    g = velocity_preset("gradient_u0", ops8)
    s = velocity_preset("solenoidal_u0", ops8)
    m = velocity_preset("mixed_u0", ops8)
    md = ops8.mass_diag
    assert g.values @ (md * g.values) == pytest.approx(1.0, abs=1e-12)
    assert s.values @ (md * s.values) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(m.values - g.values - s.values).max() <= 1e-15 * np.abs(m.values).max()
    # gradient preset is M-orthogonal to the kernel; solenoidal preset lies in it
    assert np.abs(kernel8.T @ (md * g.values)).max() <= 1e-12
    assert np.abs(ops8.div_coupling[1:] @ s.values).max() <= 1e-12
    p = initial_pressure(ops8, CompressibleParams(rho0=1.0, mu=1.0, u0=s))
    assert p.values[0] == 0.0
    with pytest.raises(KeyError):
        velocity_preset("nope", ops8)


def test_probe_dictionary_properties(ops4):
    probes = probe_dictionary(ops4, 5, seed=42)
    again = probe_dictionary(ops4, 5, seed=42)
    assert probes.shape == (5, ops4.kernel.shape[0])
    assert np.array_equal(probes, again)
    assert np.abs(probes @ probes.T - np.eye(5)).max() <= 1e-12
    assert np.abs(ops4.div_coupling[1:] @ probes.T).max() <= 1e-12


def test_probe_count_is_bounded_by_the_solenoidal_dimension(ops4):
    m_v = ops4.kernel.shape[1]
    for k in (0, m_v + 1):
        with pytest.raises(InvalidParams, match=f"probes = {k} .* {m_v} "):
            probe_dictionary(ops4, k, seed=7)
    probes = probe_dictionary(ops4, m_v, seed=7)
    assert probes.shape == (m_v, ops4.kernel.shape[0])
    assert np.abs(probes @ probes.T - np.eye(m_v)).max() <= 1e-12
    assert np.abs(ops4.div_coupling[1:] @ probes.T).max() <= 1e-12


def test_negative_seed_is_invalid(ops4):
    with pytest.raises(InvalidParams, match="seed = -1 must be >= 0"):
        probe_dictionary(ops4, 2, seed=-1)
    with pytest.raises(InvalidParams, match="seed = -1 must be >= 0"):
        sweep_alpha(*_problem("solenoidal_u0"), **dict(SMALL, seed=-1))


def test_weak_probe_zero_linearity_and_rejection(spec4, ops4, kernel4):
    params = CompressibleParams(T=0.3, dt=0.01, u0=VelocityCoeffs(spec4, kernel4[:, 0].copy()))
    ref = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    no_force = np.zeros((spec4.m_u, spec4.m_p))
    embedded = Trajectory(ops4, params, ref.dt, ref.times, no_force, store_states=True)
    embedded(0, ref.c, np.zeros((len(ref.times), spec4.m_p)))
    probes = probe_dictionary(ops4, 3, seed=1)
    deltas = weak_probe(embedded, ref, probes, ops4)
    assert np.all(deltas == 0.0)

    # a genuinely different compressible run: doubling the probe doubles the pairing
    params_c = CompressibleParams(
        alpha=0.05, T=0.3, dt=0.01, u0=VelocityCoeffs(spec4, np.ones(spec4.m_u))
    )
    from complim import simulate_compressible

    traj = simulate_compressible(spec4, ops4, params_c, store_states=True)
    one = weak_probe(traj, ref, probes, ops4)
    two = weak_probe(traj, ref, 2 * probes, ops4)
    assert np.allclose(two, 2 * one, rtol=1e-12)

    bad = np.ones((1, spec4.m_u))
    with pytest.raises(ValueError):
        weak_probe(traj, ref, bad, ops4)


def test_sweep_row_count_and_shapes():
    res = sweep_alpha(*_problem("mixed_u0"), **SMALL)
    assert len(res.rows) == 3
    assert [r.alpha for r in res.rows] == [1e-1, 1e-2, 1e-3]
    for row in res.rows:
        assert not row.failed
        assert row.probe_deltas.shape == (4,)
        assert row.err_vel_l2h1 >= 0.0
    assert res.x_limit == pytest.approx(1.0, abs=1e-10)


def test_sweep_rejects_bad_alphas():
    ops, params = assemble(build_basis(3, 3)), CompressibleParams(T=0.5)  # zero initial data
    bad = dict(SMALL)
    bad["alphas"] = (1e-1, 1e-2)
    with pytest.raises(InvalidParams):
        sweep_alpha(ops, params, **bad)
    bad["alphas"] = (1e-2, 1e-1, 1e-3)
    with pytest.raises(InvalidParams):
        sweep_alpha(ops, params, **bad)
    bad["alphas"] = (2.0, 1e-1, 1e-2)
    with pytest.raises(InvalidParams):
        sweep_alpha(ops, params, **bad)


def test_two_sweeps_give_the_same_rows():
    ops, params = _problem("solenoidal_u0")
    res1 = sweep_alpha(ops, params, **SMALL)
    res3 = sweep_alpha(ops, params, **SMALL)
    for a, b in zip(res1.rows, res3.rows):
        assert a.err_vel_l2h1 == b.err_vel_l2h1
        assert a.x_alpha == b.x_alpha
        assert np.array_equal(a.probe_deltas, b.probe_deltas)


def test_failed_row_recorded_not_fatal(monkeypatch):
    original = limits.compressible_chunks

    def sometimes_fail(ops, params):
        if params.alpha == 1e-2:
            raise RuntimeError("synthetic failure")
        return original(ops, params)

    monkeypatch.setattr(limits, "compressible_chunks", sometimes_fail)
    res = sweep_alpha(*_problem("solenoidal_u0"), **SMALL)
    assert [r.failed for r in res.rows] == [False, True, False]
    assert "synthetic failure" in res.rows[1].error
    assert np.isnan(res.rows[1].x_alpha)


def test_row_failing_mid_march_leaves_the_lockstep(monkeypatch, marched_here):
    ops, params = _problem("solenoidal_u0", T=1.0, dt=1e-3)
    clean = sweep_alpha(ops, params, **SMALL)
    original = limits.compressible_chunks
    pulled = []

    def fail_on_third_slab(ops, params):
        dt, times, G, chunks = original(ops, params)

        def failing():
            for k, chunk in enumerate(chunks):
                if params.alpha == 1e-2 and k == 2:
                    raise RuntimeError("synthetic failure")
                pulled.append(params.alpha)
                yield chunk

        return dt, times, G, failing()

    monkeypatch.setattr(limits, "compressible_chunks", fail_on_third_slab)
    res = sweep_alpha(ops, params, **SMALL)
    assert [r.failed for r in res.rows] == [False, True, False]
    assert "synthetic failure" in res.rows[1].error
    assert np.isnan(res.rows[1].x_alpha) and res.rows[1].probe_deltas.size == 0
    # the failed row is pulled no further; the others finish as in a sweep without it
    assert pulled.count(1e-2) == 2 and pulled.count(1e-1) == pulled.count(1e-3) == 16
    for k in (0, 2):
        assert res.rows[k].x_alpha == clean.rows[k].x_alpha
        assert np.array_equal(res.rows[k].probe_deltas, clean.rows[k].probe_deltas)


def test_row_turning_nan_mid_march_fails_alone(monkeypatch, marched_here):
    ops, params = _problem("solenoidal_u0", T=1.0, dt=1e-3)
    clean = sweep_alpha(ops, params, **SMALL)
    _usable_cpus(monkeypatch, 1)  # one group: its reference marches first, then its rows in order
    m = ops.spec.m_u + ops.spec.m_p
    nan = lambda x: np.full_like(x, np.nan)  # noqa: E731
    corrupt_solve(monkeypatch, 300, size=m, nth=1, value=nan)  # the second row, in its second chunk
    res = sweep_alpha(ops, params, **SMALL)
    assert [r.failed for r in res.rows] == [False, True, False]
    assert res.rows[1].error.startswith(f"StepFailure: step 300 at t = {0.3:.6g}: relative residual nan")
    for k in (0, 2):
        assert res.rows[k].x_alpha == clean.rows[k].x_alpha
        assert np.array_equal(res.rows[k].probe_deltas, clean.rows[k].probe_deltas)


def test_x_alpha_identical_trajectories_vanish(spec4, ops4, kernel4):
    params = CompressibleParams(alpha=0.05, T=0.3, dt=0.01,
                                u0=VelocityCoeffs(spec4, kernel4[:, 0].copy()))
    ref = simulate_incompressible(spec4, ops4, kernel4, params, store_states=True)
    no_force = np.zeros((spec4.m_u, spec4.m_p))
    embedded = Trajectory(ops4, params, ref.dt, ref.times, no_force, store_states=True)
    embedded(0, ref.c, np.zeros((len(ref.times), spec4.m_p)))
    assert x_alpha(ops4, params, embedded, ref) == 0.0


def test_weak_kind_runs():
    res = sweep_alpha(*_problem("gradient_u0"), **SMALL)
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
        div_sq = np.einsum("ni,ij,nj->n", d, div_gram(ops, np.arange(ops.spec.m_u)), d, optimize=True)
        value += 2.0 * params.eta * np.trapezoid(div_sq, traj.times)
    return float(value)


def _weak_probe_full(traj, ref, probes):
    """Probe deltas over whole stored trajectories, one GEMV per probe over all nodes."""
    d, t = traj.c - ref.c, traj.times
    deltas = []
    for v in probes:
        signal = d @ v
        value = np.trapezoid(signal * t**2, t) - (t[1] - t[0]) ** 2 / 12.0 * (
            signal[-1] * (2.0 * t[-1]) - signal[0] * (2.0 * t[0])
        )
        deltas.append(abs(value))
    return np.array(deltas)


@pytest.mark.parametrize(
    "u0, p0, eta",
    [  # each case is named after the experiment whose data it sweeps
        pytest.param("gradient_u0", "zero", 0.0, id="weak-gradient_u0-0.0"),
        pytest.param("mixed_u0", "zero", 0.0, id="strong_velocity-mixed_u0-0.0"),
        pytest.param("mixed_u0", "zero", 0.5, id="strong_velocity-mixed_u0-0.5"),
        pytest.param("solenoidal_u0", "zero", 0.0, id="pressure_weak-solenoidal_u0-0.0"),
        pytest.param("solenoidal_u0", "compatible_p0", 0.0, id="pressure_strong-solenoidal_u0-0.0"),
    ],
)
def test_streamed_rows_match_full_trajectory_reductions(monkeypatch, marched_here, u0, p0, eta):
    original_rows, original_reference = limits.compressible_chunks, limits.stokes_chunks
    runs, reference_args = [], []

    def record(ops, params):
        runs.append((ops, params, simulate_compressible(ops.spec, ops, params, store_states=True)))
        return original_rows(ops, params)

    def record_reference(*args):
        reference_args.append(args)
        return original_reference(*args)

    monkeypatch.setattr(limits, "compressible_chunks", record)
    monkeypatch.setattr(limits, "stokes_chunks", record_reference)
    ops, params = _problem(u0, n=4, T=0.5, eta=eta)
    if p0 == "compatible_p0":
        params = dataclasses.replace(params, p0=initial_pressure(ops, params))
    else:
        params = dataclasses.replace(params, p0=PressureCoeffs(ops.spec, np.zeros(ops.spec.m_p)))
    res = sweep_alpha(ops, params, (1e-1, 1e-2, 1e-3), probes=4, seed=5)
    # the whole reference the sweep streamed, its pressure mean aligned with p0 as the sweep does
    ref_ops, ref_params = reference_args[0]
    ref = simulate_incompressible(ref_ops.spec, ref_ops, ref_ops.kernel, ref_params, store_states=True)
    ref.q[:, 0] = runs[0][1].p0.values[0]
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
        probes = probe_dictionary(ops, 4, 5)
        expected = weak_probe(traj, ref, probes, ops)
        assert np.array_equal(expected, _weak_probe_full(traj, ref, probes))
        # a chunk's GEMV may split its rows differently from one over all nodes
        assert row.probe_deltas == pytest.approx(expected, rel=1e-12, abs=0.0)


def _traced_peak(ops, params, alphas, probes):
    tracemalloc.start()
    try:
        res = sweep_alpha(ops, params, alphas, probes=probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in res.rows)
    return peak


@pytest.mark.memory
def test_streamed_rows_hold_no_trajectory(marched_here):
    """A sweep holds its rows' series and a few chunks of states per system, not (N+1) m doubles."""
    alphas, probes = (1e-1, 1e-2, 1e-3), 4
    ops, params = _problem("mixed_u0", n=4, T=1.0, dt=2e-4)  # assembled outside the trace
    peak = _traced_peak(ops, params, alphas, probes)
    spec = ops.spec
    m, nodes = spec.m_u + spec.m_p, round(params.T / params.dt) + 1
    assert nodes >= 2000
    series = 8 * nodes * (3 + probes)  # |d|^2, d'Md, |dq| and one signal per probe
    chunk = 8 * (STEP_CHUNK + 1) * m
    # per row its series and three chunks (states, right-hand sides, its time
    # grid and step matrices); shared, the transient loads and residual
    # products and the reference's chunk.  One stored trajectory would add
    # 8 (N+1) m bytes, about 20 chunks here
    rows = len(alphas)
    assert peak < rows * (series + 3 * chunk) + 10 * chunk, (peak - rows * series) / chunk


@pytest.mark.memory
def test_sweep_memory_does_not_grow_with_the_step_count(marched_here):
    """Doubling T doubles the rows' per-node series and nothing else."""
    alphas, probes = (1e-1, 1e-2, 1e-3), 4
    ops, short = _problem("mixed_u0", n=4, T=0.5, dt=2e-4)  # assembled outside the trace
    long = dataclasses.replace(short, T=2 * short.T)
    growth = _traced_peak(ops, long, alphas, probes) - _traced_peak(ops, short, alphas, probes)
    added = round(long.T / long.dt) - round(short.T / short.dt)
    # per row its series and time grid, and the reference's time grid
    series = 8 * added * ((4 + probes) * len(alphas) + 1)
    spec = ops.spec
    # a stored reference would add 8 (m_V + m_u + m_p) per node, about 1.9 MB here
    slack = 8 * (STEP_CHUNK + 1) * (spec.m_u + spec.m_p)
    assert growth <= series + slack, (growth, series, slack)


# the worker processes


def _usable_cpus(monkeypatch, k):
    """Make sweep_workers see k usable CPUs."""
    monkeypatch.setattr(limits.os, "sched_getaffinity", lambda pid: set(range(k)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_rows_do_not_depend_on_the_worker_count(monkeypatch, eta):
    ops, params = _problem("mixed_u0", n=4, T=0.3, eta=eta)
    alphas = (1e-1, 1e-2, 1e-3, 1e-4)  # at k = 3 the groups hold 1, 1 and 2 rows
    results = []
    for k in (1, 2, 3):
        _usable_cpus(monkeypatch, k)
        assert limits.sweep_workers(len(alphas)) == k
        results.append(sweep_alpha(ops, params, alphas, probes=4, seed=3))
    _assert_no_child_left()
    first = results[0]
    assert not any(r.failed for r in first.rows)
    for other in results[1:]:
        assert other.x_limit == first.x_limit and other.fits == first.fits
        for a, b in zip(first.rows, other.rows):
            assert dataclasses.replace(a, probe_deltas=None) == dataclasses.replace(b, probe_deltas=None)
            assert np.array_equal(a.probe_deltas, b.probe_deltas)


KILLED = f"worker process killed by signal {int(signal.SIGKILL)} ({signal.strsignal(signal.SIGKILL)})"


def _kill_worker_at(monkeypatch, alpha):
    """Make the worker that sets up the row at alpha SIGKILL itself."""
    caller, original = os.getpid(), limits.compressible_chunks

    def killing(ops, params):
        if params.alpha == alpha:
            assert os.getpid() != caller, "the row marches in the calling process"
            os.kill(os.getpid(), signal.SIGKILL)
        return original(ops, params)

    monkeypatch.setattr(limits, "compressible_chunks", killing)


def test_killed_worker_fails_its_rows_only(monkeypatch):
    ops, params = _problem("solenoidal_u0")
    _usable_cpus(monkeypatch, 2)  # groups (1e-1,) and (1e-2, 1e-3)
    clean = sweep_alpha(ops, params, **SMALL)
    _kill_worker_at(monkeypatch, 1e-2)
    res = sweep_alpha(ops, params, **SMALL)
    _assert_no_child_left()
    assert [r.failed for r in res.rows] == [False, True, True]
    for row in res.rows[1:]:
        assert row.error == KILLED
        assert np.isnan(row.x_alpha) and row.probe_deltas.size == 0
    assert res.rows[0].x_alpha == clean.rows[0].x_alpha
    assert np.array_equal(res.rows[0].probe_deltas, clean.rows[0].probe_deltas)
    assert res.fits == {}


def test_killed_worker_is_a_solver_failure_of_the_cli(tmp_path, capsys, monkeypatch):
    _usable_cpus(monkeypatch, 3)
    _kill_worker_at(monkeypatch, 1e-2)
    cfg, out = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"complim: 1 of 3 rows failed; first alpha=0.01: {KILLED}"]
    assert (out / "sweep.csv").exists()
    _assert_no_child_left()


class _Unpicklable(RuntimeError):
    def __reduce__(self):
        raise TypeError("not picklable")


def _failing_reference(kind):
    """A problem whose Stokes reference fails, and the stokes_chunks that makes it fail."""
    ops, params = _problem("solenoidal_u0", T=0.5, dt=1e-3)
    original = limits.stokes_chunks
    if kind == "mass source":  # refused when the reference is set up
        return ops, dataclasses.replace(params, sigma=realize_scalar_field("cos(pi*x)")), original

    def failing(ops, params):
        dt, times, chunks = original(ops, params)

        def march():
            yield next(chunks)
            raise (StepFailure if kind == "step" else _Unpicklable)("step 300: synthetic failure")

        return dt, times, march()

    return ops, params, failing


@pytest.mark.parametrize("kind", ["mass source", "step", "unpicklable"])
def test_failing_reference_raises_as_in_the_calling_process(monkeypatch, kind):
    ops, params, stokes_chunks = _failing_reference(kind)
    monkeypatch.setattr(limits, "stokes_chunks", stokes_chunks)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(Exception) as forked:
        sweep_alpha(ops, params, **SMALL)
    _assert_no_child_left()
    with monkeypatch.context() as here:
        here.setattr(limits, "_march_in_workers", _in_the_caller)
        with pytest.raises(Exception) as serial:
            sweep_alpha(ops, params, **SMALL)
    if kind == "unpicklable":  # the message crosses the pipe, not the type
        assert type(serial.value) is _Unpicklable and type(forked.value) is RuntimeError
    else:
        assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


def test_interrupted_sweep_leaves_no_worker(monkeypatch):
    ops, params = _problem("solenoidal_u0")
    original = limits.compressible_chunks

    def stalling(ops, params):
        if params.alpha == 1e-3:
            time.sleep(60)
        return original(ops, params)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(limits, "compressible_chunks", stalling)
    _usable_cpus(monkeypatch, 3)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            sweep_alpha(ops, params, **SMALL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30.0
    _assert_no_child_left()
