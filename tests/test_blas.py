"""complim.blas binds LAPACK's LU factor and solve in numpy's own OpenBLAS.

scipy's LU routines, in the OpenBLAS copy that scipy bundles, are the
oracle: the factors and solves of the step matrices that crank_nicolson
hands to getrf match them bit for bit at n = 8 and to 1e-13 at n = 16.
complim's runtime imports no scipy.
"""

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg

import complim.compressible as compressible
from complim import CompressibleParams, blas, default_dt
from complim.config import parse_config

from test_cli import SIM_CFG, SWEEP_CFG, write_cfg
from test_compressible import stepper_params

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CONFIGS = os.path.join(os.path.dirname(SRC), "configs")


def step_matrices(monkeypatch, ops, params):
    """Copies of the lhs of each block as crank_nicolson hands it to getrf."""
    getrf, lhs = blas.getrf, []
    with monkeypatch.context() as patch:
        patch.setattr(blas, "getrf", lambda a: lhs.append(a.copy(order="F")) or getrf(a))
        chunks = compressible.compressible_chunks(ops, params)[3]
        next(chunks)
        chunks.close()
    return lhs


def factor_and_solve(lhs, rhs):
    """(LU, 1-based pivots, solutions of lhs x = each row of rhs) through complim.blas."""
    lu = lhs.copy(order="F")
    piv, info = blas.getrf(lu)
    assert info == 0
    wide = np.zeros((len(rhs), len(lhs) + 3))  # rows of a wider buffer, as the march's states
    rows = wide[:, 1 : len(lhs) + 1]
    rows[:] = rhs
    solve = blas.getrs(lu, piv, rows)
    assert [solve(k) for k in range(len(rows))] == [0] * len(rows)
    assert not wide[:, 0].any() and not wide[:, -2:].any()
    return lu, piv, rows


def scipy_factor_and_solve(lhs, rhs):
    lu, piv = scipy.linalg.lu_factor(lhs)
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    solutions = []
    for b in rhs:
        x, info = getrs(lu, piv, b)
        assert info == 0
        solutions.append(x)
    return lu, piv + 1, np.array(solutions)


def test_lu_of_the_pressure_strong_step_matrix_is_scipys_bit_for_bit(ops8, monkeypatch):
    with open(os.path.join(CONFIGS, "pressure_strong.cfg")) as handle:
        cfg = parse_config(handle.read())
    alpha = min(cfg.alphas)
    params = CompressibleParams(
        rho0=cfg.rho0, mu=cfg.mu, eta=cfg.eta, alpha=alpha, T=cfg.T, dt=default_dt(alpha, cfg.n_u, cfg.T)
    )
    (lhs,) = step_matrices(monkeypatch, ops8, params)
    assert lhs.shape == (209, 209)
    rhs = np.random.default_rng(3).standard_normal((4, 209))
    for ours, theirs in zip(factor_and_solve(lhs, rhs), scipy_factor_and_solve(lhs, rhs)):
        assert np.array_equal(ours, theirs)


def test_lu_of_the_split_n16_step_matrix_matches_scipys(ops16, monkeypatch):
    """The blocks of 400 and 401 unknowns that configs/simulate.cfg's force leaves at n = 16."""
    lhs = step_matrices(monkeypatch, ops16, stepper_params(ops16.spec, time_dependent=False)[0])
    assert [len(a) for a in lhs] == [400, 401]
    for a in lhs:
        rhs = np.random.default_rng(len(a)).standard_normal((3, len(a)))
        (lu, piv, x), (lu_ref, piv_ref, x_ref) = factor_and_solve(a, rhs), scipy_factor_and_solve(a, rhs)
        assert np.array_equal(piv, piv_ref)
        assert np.abs(lu - lu_ref).max() <= 1e-13 * np.abs(lu_ref).max()
        assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


def test_binding_refuses_arrays_it_cannot_pass():
    a = np.eye(3)  # C order
    with pytest.raises(ValueError, match="Fortran-ordered"):
        blas.getrf(a)
    with pytest.raises(ValueError, match="Fortran-ordered"):
        blas.getrf(np.eye(3, 4, order="F"))
    lu = np.asfortranarray(a)
    piv, _ = blas.getrf(lu)
    for rows in (np.zeros((2, 4)), np.zeros((2, 3), dtype=np.float32), np.zeros((3, 2)).T, np.zeros(3)):
        with pytest.raises(ValueError, match="contiguous"):
            blas.getrs(lu, piv, rows)


def test_the_solver_keeps_its_rows_alive_and_a_march_leaves_no_garbage(ops8):
    """The binding's pointers hold their arrays and sit in no reference cycle, so a march's
    buffers are freed when it ends rather than when the cyclic collector next runs."""
    gc.collect()
    gc.disable()
    try:
        lu = np.asfortranarray(2.0 * np.eye(3))
        piv, _ = blas.getrf(lu)
        rows = np.ones((2, 3))
        held = weakref.ref(rows)
        solve = blas.getrs(lu, piv, rows)
        del rows
        assert held() is not None and solve(1) == 0
        assert np.array_equal(held(), [[1.0] * 3, [0.5] * 3])
        del solve
        assert held() is None
        params = stepper_params(ops8.spec, time_dependent=True)[0]
        with blas.one_blas_thread():  # in line: the count is of the binding's objects, not a pool's
            compressible.simulate_compressible(ops8.spec, ops8, params)
        assert gc.collect() == 0
    finally:
        gc.enable()


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )


def test_a_numpy_without_the_lapack_symbols_fails_the_import_in_one_line(tmp_path):
    done = run_python("import ctypes, numpy\nctypes.CDLL = lambda path: object()\nimport complim", tmp_path)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ImportError: complim needs a numpy whose bundled OpenBLAS exports scipy_dgetrf_64_, "
        "scipy_dgetrs_64_, scipy_openblas_get_num_threads64_, scipy_openblas_set_num_threads64_"
    )


def test_simulate_and_sweep_run_with_no_scipy_importable(tmp_path):
    sim, _ = write_cfg(tmp_path, SIM_CFG.replace("{out}", "{out}/simulate"))
    sweep, _ = write_cfg(tmp_path, SWEEP_CFG.replace("{out}", "{out}/sweep"), name="sweep.cfg")
    code = (
        'import sys\nsys.modules["scipy"] = None\n'
        "from complim.cli import run_cli\n"
        f'assert run_cli(["simulate", "--config", {sim!r}]) == 0\n'
        f'assert run_cli(["sweep", "--config", {sweep!r}]) == 0\n'
        'assert [name for name in sys.modules if name.startswith("scipy")] == ["scipy"]\n'
    )
    done = run_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "simulate" / "trajectory.csv").stat().st_size
    assert (tmp_path / "out" / "sweep" / "sweep.csv").stat().st_size
