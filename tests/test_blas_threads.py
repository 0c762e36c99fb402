"""The CLI runs sweeps and small step systems on one BLAS thread and restores the counts after;
a march split into blocks steps them on threads of their own while OpenBLAS has several.

These tests set numpy's OpenBLAS, which complim binds, to 2 threads first, so
that pinning shows whatever OPENBLAS_NUM_THREADS the suite runs under.  They
read and set its thread count through a binding of their own.
"""

import ctypes
import dataclasses
import itertools
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy._core._multiarray_umath
import pytest

import complim.compressible as compressible
from complim import (
    CompressibleParams,
    StepFailure,
    assemble,
    blas,
    build_basis,
    cli,
    limits,
    simulate_compressible,
    sweep_alpha,
)
from complim.cli import run_cli

from test_cli import SIM_CFG, SWEEP_CFG, _one_cpu, write_cfg
from test_compressible import assert_chunks_share_their_boundary_node, corrupt_solve, stepper_params

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CONFIGS = os.path.join(os.path.dirname(SRC), "configs")


NUMPY_OPENBLAS = ctypes.CDLL(numpy._core._multiarray_umath.__file__)


def openblas_threads():
    return NUMPY_OPENBLAS.scipy_openblas_get_num_threads64_()


def set_openblas_threads(count):
    NUMPY_OPENBLAS.scipy_openblas_set_num_threads64_(count)


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS set to 2 threads, and its count restored after the test."""
    saved = openblas_threads()
    set_openblas_threads(2)
    yield
    set_openblas_threads(saved)


@pytest.fixture
def seen_inside(monkeypatch, two_threads):
    """The thread count while each `assemble` of a command runs."""
    seen = []
    assemble = cli.assemble

    def recording(spec):
        seen.append(openblas_threads())
        return assemble(spec)

    monkeypatch.setattr(cli, "assemble", recording)
    return seen


def test_blas_reads_and_pins_numpys_openblas(two_threads):
    set_openblas_threads(3)
    assert blas.blas_threads() == 3
    with blas.one_blas_thread(pin=False):
        assert openblas_threads() == 3
    with blas.one_blas_thread():
        assert openblas_threads() == blas.blas_threads() == 1
        with blas.one_blas_thread():  # never raises a count
            assert openblas_threads() == 1
        assert openblas_threads() == 1
    assert openblas_threads() == 3


@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "decompose", "sweep"])
def test_small_command_runs_on_one_thread_and_restores(tmp_path, two_threads, seen_inside, command):
    cfg, _ = write_cfg(tmp_path, SWEEP_CFG if command == "sweep" else SIM_CFG)
    assert run_cli([command, "--config", cfg]) == 0
    assert seen_inside == [1]
    assert openblas_threads() == 2


@pytest.mark.parametrize("failure", ["missing_config", "config_error", "refused"])
@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "decompose", "sweep"])
def test_front_door_failures_exit_1_in_one_line(
    tmp_path, capsys, monkeypatch, two_threads, seen_inside, command, failure
):
    """run_cli's set-up fails before anything is built, for every config command: one stderr
    line, no traceback, no output directory, and the thread count left where it was."""
    cfg, out = write_cfg(tmp_path, SWEEP_CFG if command == "sweep" else SIM_CFG)
    if failure == "missing_config":
        cfg = str(tmp_path / "missing.cfg")
    elif failure == "config_error":
        cfg, out = write_cfg(tmp_path, SIM_CFG.replace("[physics]\n", "[physics]\nmu = -3\n"))
    else:  # one page of physical memory
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    named = {"missing_config": "missing.cfg", "config_error": "'mu'", "refused": "physical memory"}
    assert named[failure] in err
    assert not out.exists()
    assert seen_inside == [] and openblas_threads() == 2


def test_counts_restored_after_a_config_error(tmp_path, capsys, two_threads, seen_inside):
    # compatible_p0 of a non-solenoidal u0 is refused after the operators are built
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("p0 = 0.3*cos(pi*x)", "p0 = compatible_p0"))
    assert run_cli(["simulate", "--config", cfg]) == 1
    assert "compatible_p0" in capsys.readouterr().err
    assert seen_inside == [1]
    assert openblas_threads() == 2


def test_counts_restored_after_a_failing_step(tmp_path, capsys, two_threads, seen_inside):
    overflow = SIM_CFG.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", "u0 = 1e308*1e308*sin(pi*x) ; 0")
    cfg, _ = write_cfg(tmp_path, overflow)
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "step 1 at t = " in capsys.readouterr().err
    assert seen_inside == [1]
    assert openblas_threads() == 2


def test_counts_restored_after_an_exception(tmp_path, monkeypatch, two_threads):
    def broken(spec):
        raise RuntimeError(openblas_threads())

    monkeypatch.setattr(cli, "assemble", broken)
    cfg, _ = write_cfg(tmp_path, SIM_CFG)
    with pytest.raises(RuntimeError) as raised:
        run_cli(["simulate", "--config", cfg])
    assert raised.value.args[0] == 1
    assert openblas_threads() == 2


def test_system_at_the_cut_off_keeps_the_thread_counts(tmp_path, two_threads, seen_inside):
    n = 16  # m = 2 n^2 + (n + 1)^2 = 801, the cut-off itself
    assert 2 * n**2 + (n + 1) ** 2 >= cli.ONE_BLAS_THREAD_BELOW
    cfg, _ = write_cfg(tmp_path, SIM_CFG.replace("n_u = 3\nn_p = 3", f"n_u = {n}\nn_p = {n}"))
    assert run_cli(["decompose", "--config", cfg]) == 0
    assert seen_inside == [2]
    assert openblas_threads() == 2


def test_sweep_above_the_cut_off_runs_on_one_thread(tmp_path, two_threads, seen_inside):
    # a sweep's rows march in worker processes that pin themselves, so its caller is pinned at every size
    n = 16
    assert 2 * n**2 + (n + 1) ** 2 >= cli.ONE_BLAS_THREAD_BELOW
    text = SWEEP_CFG.replace("n_u = 3\nn_p = 3", f"n_u = {n}\nn_p = {n}").replace("T = 0.4", "T = 0.01")
    cfg, _ = write_cfg(tmp_path, text)
    assert run_cli(["sweep", "--config", cfg]) == 0
    assert seen_inside == [1]
    assert openblas_threads() == 2


def test_sweep_workers_run_on_one_thread_and_leave_the_caller_alone(monkeypatch, two_threads):
    def report_counts(ops, params):  # runs in the worker; its rows carry what it saw
        raise RuntimeError(openblas_threads())

    monkeypatch.setattr(limits, "compressible_chunks", report_counts)
    ops = assemble(build_basis(3, 3))
    res = sweep_alpha(ops, CompressibleParams(T=0.1), (1e-1, 1e-2, 1e-3), probes=2)
    assert [r.error for r in res.rows] == ["RuntimeError: 1"] * 3
    assert openblas_threads() == 2


def run_command(args, threads, cwd, one_cpu=False):
    """Run the CLI in a fresh process at `threads` BLAS threads, on one usable CPU if one_cpu."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OMP_NUM_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-m", "complim.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
        preexec_fn=_one_cpu if one_cpu else None,
    )
    assert done.returncode == 0, done.stderr


def test_simulate_incompressible_bytes_do_not_depend_on_blas_threads(tmp_path):
    # configs/simulate.cfg (n=8) with its coefficients dumped
    with open(os.path.join(CONFIGS, "simulate.cfg")) as handle:
        text = handle.read()
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text(text.replace("dump_coefficients = false", "dump_coefficients = true"))
    outputs = []
    for threads in (1, 2):
        run_command(["simulate-incompressible", "--config", str(cfg)], threads, tmp_path)
        out = tmp_path / "out" / "simulate"
        outputs.append([(out / name).read_bytes() for name in ("trajectory.csv", "coefficients.csv")])
    assert outputs[0] == outputs[1]


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the thread pools that crank_nicolson starts, one pool a chunk."""
    started = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(compressible, "ThreadPoolExecutor", Recording)
    return started


@pytest.mark.parametrize("time_dependent", [False, True])
def test_concurrent_march_bitwise_equal_to_the_in_line_march(
    ops16, monkeypatch, two_threads, pools, time_dependent
):
    """549 steps, three chunks; under one_blas_thread the march steps its blocks in line."""
    params, _ = stepper_params(ops16.spec, time_dependent)
    getrf, factored = blas.getrf, []
    monkeypatch.setattr(blas, "getrf", lambda a: factored.append(len(a)) or getrf(a))
    concurrent = simulate_compressible(ops16.spec, ops16, params, store_states=True)
    assert factored == [400, 401] and pools == [2, 2, 2]
    assert openblas_threads() == 2
    with blas.one_blas_thread():
        in_line = simulate_compressible(ops16.spec, ops16, params, store_states=True)
    assert factored == [400, 401] * 2 and pools == [2, 2, 2]
    for name in ("c", "q", "energy", "h01", "div"):
        assert np.array_equal(getattr(concurrent, name), getattr(in_line, name)), name


def test_more_block_threads_than_cpus_keep_the_in_line_bits(ops16, two_threads, pools):
    """Without a force the n = 16 system splits into four parity blocks and the constant
    pressure mode; at 4 OpenBLAS threads they step on four threads, twice the CPUs of a 2-vCPU machine, with the interpreter switching
    threads every microsecond."""
    params = dataclasses.replace(stepper_params(ops16.spec, time_dependent=True)[0], f=None)
    set_openblas_threads(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = simulate_compressible(ops16.spec, ops16, params, store_states=True)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [4, 4, 4] and openblas_threads() == 4
    with blas.one_blas_thread():
        in_line = simulate_compressible(ops16.spec, ops16, params, store_states=True)
    assert pools == [4, 4, 4]
    assert np.array_equal(concurrent.c, in_line.c) and np.array_equal(concurrent.q, in_line.q)


@pytest.mark.parametrize("block", [400, 401])
def test_concurrent_march_fails_as_the_in_line_march(ops16, monkeypatch, two_threads, pools, block):
    params, dt = stepper_params(ops16.spec, time_dependent=False)
    message = f"step 300 at t = {300 * dt:.6g}: relative residual "
    for pin in (False, True):
        threads = threading.active_count()
        with monkeypatch.context() as patch, blas.one_blas_thread(pin):
            corrupt_solve(patch, 300, size=block)  # in the second chunk
            with pytest.raises(StepFailure, match="^" + re.escape(message)):
                simulate_compressible(ops16.spec, ops16, params)
        assert threading.active_count() == threads
        assert openblas_threads() == 2
    assert pools == [2, 2]


def test_getrs_failure_in_a_block_thread_is_raised_lowest_block_first(
    ops16, monkeypatch, two_threads, pools
):
    """Both blocks fail at their 300th solve; the 400-unknown block is the first."""
    bind = blas.getrs

    def getrs(lu, piv, rows):
        solve, solves = bind(lu, piv, rows), itertools.count(1)

        def failing(k):
            info = solve(k)
            return len(lu) if next(solves) == 300 else info

        return failing

    monkeypatch.setattr(blas, "getrs", getrs)
    params, _ = stepper_params(ops16.spec, time_dependent=False)
    threads = threading.active_count()
    with pytest.raises(StepFailure, match="^step 300: getrs returned info = 400$"):
        simulate_compressible(ops16.spec, ops16, params)
    assert pools == [2, 2] and threading.active_count() == threads
    assert openblas_threads() == 2


@pytest.mark.parametrize("time_dependent", [False, True])
def test_concurrent_chunks_share_their_boundary_node(ops16, two_threads, pools, time_dependent):
    params, _ = stepper_params(ops16.spec, time_dependent)
    assert_chunks_share_their_boundary_node(compressible.compressible_chunks(ops16, params)[3])
    assert pools == [2, 2, 2]


def test_concurrent_march_leaves_no_thread_between_chunks_and_restores_the_counts(
    ops16, two_threads, pools
):
    """The march holds every copy on one thread until it is closed or exhausted."""
    params, _ = stepper_params(ops16.spec, time_dependent=True)
    threads = threading.active_count()
    chunks = compressible.compressible_chunks(ops16, params)[3]
    next(chunks)
    assert threading.active_count() == threads
    assert openblas_threads() == 1
    chunks.close()
    assert openblas_threads() == 2
    assert sum(1 for _ in compressible.compressible_chunks(ops16, params)[3]) == 9  # slabs: 4 + 4 + 1
    assert pools == [2, 2, 2, 2] and threading.active_count() == threads
    assert openblas_threads() == 2
