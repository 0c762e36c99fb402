import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from complim import (
    CompressibleParams,
    assemble,
    build_basis,
    energy_ledger,
    initial_pressure,
    simulate_compressible,
)
from complim.basis import coefficients_of
from complim.cli import _build_params, run_cli
from complim.config import ConfigError, parse_config, realize_scalar_field, realize_vector_field
from complim.csvio import fmt17, read_csv_columns, write_csv, write_tables
from complim.csvio import write_trajectory_csv
from complim.presets import VELOCITY_PRESETS, velocity_preset

SIM_CFG = """
[basis]
n_u = 3
n_p = 3

[physics]
alpha = 1e-2
T = 0.4
dt = 0.004
eta = 0.5

[data]
u0 = sin(pi*x)*sin(pi*y) ; 0
p0 = 0.3*cos(pi*x)
f = cos(pi*y) ; 0.5*cos(pi*x)

[output]
directory = {out}
dump_coefficients = true
"""

SWEEP_CFG = """
[basis]
n_u = 3
n_p = 3

[physics]
T = 0.4

[data]
u0 = mixed_u0

[sweep]
alphas = 1e-1 1e-2 1e-3
probes = 4
seed = 11

[output]
directory = {out}
"""


def write_cfg(tmp_path, template, name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return str(path), out


def test_simulate_and_verify_roundtrip(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert run_cli(["simulate", "--config", cfg]) == 0
    traj = read_csv_columns(out / "trajectory.csv")
    assert list(traj) == ["t", "I", "h01_norm", "div_norm", "mass", "energy_residual"]
    assert traj["t"][0] == 0.0 and traj["t"][-1] == pytest.approx(0.4)
    assert (out / "ledger.csv").exists() and (out / "coefficients.csv").exists()
    assert run_cli(["verify", "--energy", str(out / "trajectory.csv")]) == 0


def test_simulate_incompressible_schema(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert run_cli(["simulate-incompressible", "--config", cfg]) == 0
    traj = read_csv_columns(out / "trajectory.csv")
    assert "mass" not in traj
    assert list(traj) == ["t", "I", "h01_norm", "div_norm", "energy_residual"]


def test_malformed_config_exits_1_without_output(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[physics]\nmu = -3\n[output]\ndirectory = " + str(tmp_path / "out"))
    assert run_cli(["simulate", "--config", str(cfg)]) == 1
    assert not (tmp_path / "out").exists()


def test_decompose_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert run_cli(["decompose", "--config", cfg, "--field", "sin(pi*x)*sin(pi*y) ; 0"]) == 0
    cols = read_csv_columns(out / "decompose.csv")
    total = cols["solenoidal"] + cols["gradient"]
    assert np.abs(total - cols["input"]).max() <= 1e-12


def test_sweep_reproducible_and_probe(tmp_path):
    cfg, out = write_cfg(tmp_path, SWEEP_CFG, name="sweep.cfg")
    assert run_cli(["sweep", "--config", cfg]) == 0
    first = (out / "sweep.csv").read_bytes()
    meta_first = (out / "sweep_meta.json").read_bytes()
    assert run_cli(["sweep", "--config", cfg]) == 0
    assert (out / "sweep.csv").read_bytes() == first
    assert (out / "sweep_meta.json").read_bytes() == meta_first
    cols = read_csv_columns(out / "sweep.csv")
    assert len(cols["alpha"]) == 3
    # the sweep writes every probe delta; probe_max is the largest of its row's
    probes = read_csv_columns(out / "probe_deltas.csv")
    assert len(probes["alpha"]) == 3 * 4
    assert list(probes["label"][:4]) == [f"v{k}*t^2" for k in range(4)]
    assert np.array_equal(probes["delta"].reshape(3, 4).max(axis=1), cols["probe_max"])


def test_sweep_with_failing_rows_prints_one_line(tmp_path, capsys):
    # a constant f of 1e307 overflows every row's first step, and the Stokes reference does
    # not read f (1e307 (cos(pi y), cos(pi x)) splits the step system exactly and solves)
    cfg, out = write_cfg(
        tmp_path,
        SWEEP_CFG.replace("n_u = 3\nn_p = 3", "n_u = 2\nn_p = 2")
        .replace("T = 0.4", "T = 0.05")
        .replace("u0 = mixed_u0", "u0 = mixed_u0\nf = 1e307 ; 1e307\ns = 0")
        .replace("probes = 4", "probes = 1"),
    )
    assert run_cli(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("complim: 3 of 3 rows failed; first alpha=0.1: ")
    assert "StepFailure" in err[0]
    row_errors = json.loads((out / "sweep_meta.json").read_text())["row_errors"]
    assert len(row_errors) == 3 and all(e.startswith("StepFailure") for e in row_errors.values())


def test_probe_is_not_a_command(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli(["probe", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'probe'" in err and "Traceback" not in err
    assert not out.exists()


def test_verify_mixed_series(tmp_path):
    t = np.linspace(0.0, 1.0, 51)
    write_csv(tmp_path / "i.csv", ["t", "value"], zip(t, np.full_like(t, 2.0)))
    write_csv(tmp_path / "j.csv", ["t", "value"], zip(t, np.zeros_like(t)))
    for name in ("a", "b", "c"):
        write_csv(tmp_path / f"{name}.csv", ["t", "value"], zip(t, np.zeros_like(t)))
    args = ["verify"]
    for name in ("i", "j", "a", "b", "c"):
        args += [f"--{name}", str(tmp_path / f"{name}.csv")]
    assert run_cli(args) == 0

    # violating instance: I grows with zero right side
    write_csv(tmp_path / "i.csv", ["t", "value"], zip(t, 1.0 + t))
    assert run_cli(args) == 3


def test_verify_energy_failure_exit_code(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,I,energy_residual\n0,1,0\n0.5,1,0.25\n1,1,0.25\n")
    assert run_cli(["verify", "--energy", str(path)]) == 3
    assert run_cli(["verify", "--energy", str(path), "--tol", "1.0"]) == 0

    # a ledger whose sum overflows, or that holds inf and -inf, fails without a numpy warning
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    for cells in ("1e308\n1,1,1e308", "inf\n1,1,-inf"):
        path.write_text(f"t,I,energy_residual\n0,1,0\n0.5,1,{cells}\n")
        done = subprocess.run(
            [sys.executable, "-m", "complim.cli", "verify", "--energy", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 3 and "cumulative residual" in done.stdout
        assert "RuntimeWarning" not in done.stderr, done.stderr


def test_verify_energy_gates_the_worst_step(tmp_path):
    # per-step residuals of opposite sign cancel in the sum; the worst step still fails
    path = tmp_path / "traj.csv"
    path.write_text("t,I,energy_residual\n0,1,0\n0.5,1,1e-3\n1,1,-1e-3\n")
    assert run_cli(["verify", "--energy", str(path)]) == 3
    assert run_cli(["verify", "--energy", str(path), "--tol", "1e-3"]) == 0


@pytest.mark.parametrize("tol, code", [("nan", 1), ("-1", 1), ("inf", 1), ("0", 0), ("1e308", 0)])
def test_verify_energy_takes_only_a_finite_nonnegative_tolerance(tmp_path, capsys, tol, code):
    # on a ledger of zeros nan and -1 used to fail the certificate and inf to pass any residual
    path = tmp_path / "traj.csv"
    path.write_text("t,I,energy_residual\n0,1,0\n0.5,1,0\n1,1,0\n")
    assert run_cli(["verify", "--energy", str(path), "--tol", tol]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == code and ("--tol must be finite and >= 0" in err) == bool(code)


def test_usage_errors(tmp_path):
    assert run_cli(["verify"]) == 1  # neither --energy nor the series set
    assert run_cli(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert run_cli(["no-such-command"]) == 1


def test_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    # every config command reads its config in run_cli's one set-up
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff" + SIM_CFG.format(out=tmp_path / "out").encode())
    assert run_cli(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{path}: not UTF-8 text (invalid start byte)" in err[0]
    assert not (tmp_path / "out").exists()


def test_nonfinite_initial_data_exits_2(tmp_path, capsys):
    overflow = SIM_CFG.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", "u0 = 1e308*1e308*sin(pi*x) ; 0")
    for command in ("simulate", "simulate-incompressible"):
        cfg, _ = write_cfg(tmp_path, overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli([command, "--config", cfg]) == 2
        assert "step 1 at t = " in capsys.readouterr().err


def test_nonfinite_body_force_exits_2_with_one_line(tmp_path):
    """An infinite f makes the step matrix non-finite; the step gate refuses the first step."""
    force = SIM_CFG.replace("f = cos(pi*y) ; 0.5*cos(pi*x)", "f = 1e308*1e308*cos(pi*y) ; 0")
    cfg, out = write_cfg(tmp_path, force)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "complim.cli", "simulate", "--config", cfg],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("complim: step 1 at t = ") and done.stderr.count("\n") == 1
    assert not out.exists()


def test_body_force_source_is_rho0_f(tmp_path):
    # with no s the momentum source of `complim simulate` is rho0 * f
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("[physics]\n", "[physics]\nrho0 = 2\n"))
    assert run_cli(["simulate", "--config", cfg]) == 0

    spec = build_basis(3, 3)
    ops = assemble(spec)
    f = realize_vector_field("cos(pi*y) ; 0.5*cos(pi*x)")
    params = CompressibleParams(
        rho0=2.0,
        alpha=1e-2,
        T=0.4,
        dt=0.004,
        eta=0.5,
        f=f,
        s=f.scaled(2.0),
        u0=realize_vector_field("sin(pi*x)*sin(pi*y) ; 0"),
        p0=realize_scalar_field("0.3*cos(pi*x)"),
    )
    traj = simulate_compressible(spec, ops, params)
    ledger = energy_ledger(ops, params, traj)
    write_trajectory_csv(tmp_path / "library.csv", traj, ledger.per_step)
    assert (tmp_path / "library.csv").read_bytes() == (out / "trajectory.csv").read_bytes()
    header = ["t_mid", "per_step", "cumulative", "dissipation", "work"]
    columns = [getattr(ledger, name) for name in ("interval_midpoints", *header[1:])]
    write_tables(str(tmp_path / "library"), {"ledger.csv": (header, columns)})
    assert (tmp_path / "library" / "ledger.csv").read_bytes() == (out / "ledger.csv").read_bytes()


def test_decompose_gradient_preset(tmp_path):
    cfg, out = write_cfg(tmp_path, SIM_CFG)
    assert run_cli(["decompose", "--config", cfg, "--field", "gradient_u0"]) == 0
    cols = read_csv_columns(out / "decompose.csv")
    assert np.abs(cols["gradient"] - cols["input"]).max() <= 1e-12
    assert np.abs(cols["solenoidal"]).max() <= 1e-12


@pytest.mark.parametrize(
    "line", ["u0 = 0/0 ; 0", "sigma = 1\nsigma_time = 1/(2-2)"], ids=["u0", "sigma_time"]
)
@pytest.mark.parametrize(
    "command", ["simulate", "simulate-incompressible", "decompose", "sweep"]
)
def test_constant_division_by_zero_exits_1_without_output(tmp_path, capsys, command, line):
    template = SIM_CFG.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", line)
    cfg, out = write_cfg(tmp_path, template)
    assert run_cli([command, "--config", cfg]) == 1
    assert "division by zero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,I,energy_residual\n0,1,0\n0.5,1\n", "row 2 has 2 cells"),
        ("t,I,energy_residual\n0,1,0\n0.5,1,abc\n", "not a number"),
        ("t,I\n0,1\n0.5,1\n", "no energy_residual column"),
        (b"\xfft,I,energy_residual\n0,1,0\n", "traj.csv: not UTF-8 text"),
    ],
    ids=["ragged", "non_numeric", "missing_column", "not_utf8"],
)
def test_verify_energy_malformed_input_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "traj.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli(["verify", "--energy", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,value\n0,1\n0.5\n", "row 2 has 1 cells"),
        ("time,v\n0,1\n0.5,1\n", "no t column"),
        ("t,value\n0,1\n0.5,x\n", "not a number"),
        ("t,value\nnan,0\nnan,0\nnan,0\n", "uniform and increasing"),  # was "different grids"
        (b"t,value\n0,1\n0.5,\xff\n", "j.csv: not UTF-8 text"),
    ],
    ids=["ragged", "missing_columns", "non_numeric", "nan_times", "not_utf8"],
)
def test_verify_series_malformed_input_exits_1(tmp_path, capsys, text, message):
    t = np.linspace(0.0, 1.0, 3)
    for name in ("i", "j", "a", "b", "c"):
        write_csv(tmp_path / f"{name}.csv", ["t", "value"], zip(t, np.zeros_like(t)))
    path = tmp_path / "j.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    args = ["verify"]
    for name in ("i", "j", "a", "b", "c"):
        args += [f"--{name}", str(tmp_path / f"{name}.csv")]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.memory
@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "decompose", "sweep"])
def test_run_beyond_physical_memory_refused_before_building(tmp_path, capsys, command):
    template = SWEEP_CFG.replace("n_u = 3", "n_u = 200000")
    cfg, out = write_cfg(tmp_path, template)
    start = time.perf_counter()
    assert run_cli([command, "--config", cfg]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "physical memory" in err[0] and err[0].count("GiB") == 2
    assert not out.exists()


def test_simulate_incompressible_reads_explicit_s(tmp_path):
    # the Stokes source is s; at rho0 = 1 an explicit s equals the same field given as f
    outputs = {}
    for key in ("f", "s"):
        text = SIM_CFG.replace("f = cos(pi*y)", f"{key} = cos(pi*y)")
        (tmp_path / key).mkdir()
        cfg, out = write_cfg(tmp_path / key, text)
        assert run_cli(["simulate-incompressible", "--config", cfg]) == 0
        outputs[key] = [(out / name).read_bytes() for name in ("trajectory.csv", "coefficients.csv")]
    assert outputs["s"] == outputs["f"]
    unforced, out = write_cfg(tmp_path, SIM_CFG.replace("f = cos(pi*y) ; 0.5*cos(pi*x)", ""))
    assert run_cli(["simulate-incompressible", "--config", unforced]) == 0
    assert (out / "trajectory.csv").read_bytes() != outputs["f"][0]


def test_compatible_p0_follows_explicit_s(tmp_path):
    # an explicit s that is not rho0 f: the initial pressure must come from s
    text = SIM_CFG.format(out=tmp_path / "out")
    text = text.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", "u0 = solenoidal_u0")
    text = text.replace("p0 = 0.3*cos(pi*x)", "p0 = compatible_p0\ns = sin(pi*x) ; x*y")
    cfg = parse_config(text)
    ops = assemble(build_basis(cfg.n_u, cfg.n_p))
    params = _build_params(cfg, ops)
    from_s = initial_pressure(ops, params).values
    from_f = initial_pressure(ops, dataclasses.replace(params, s=params.f)).values
    assert np.array_equal(params.p0.values, from_s)
    assert np.abs(from_s - from_f).max() > 1e-3 * np.abs(from_s).max()


def test_simulate_incompressible_rejects_sigma(tmp_path, capsys):
    text = SIM_CFG.replace("p0 = 0.3*cos(pi*x)", "p0 = 0.3*cos(pi*x)\nsigma = cos(pi*x)")
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli(["simulate-incompressible", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sigma" in err[0]
    assert not out.exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "complim.cli", "simulate", "--config", str(tmp_path / "missing.cfg")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert len(done.stderr.strip().splitlines()) == 1 and "missing.cfg" in done.stderr


@pytest.mark.parametrize("line", ["s_time = 1 + t", "sigma = cos(pi*x)", "sigma_time = t"])
@pytest.mark.parametrize("command", ["sweep"])
def test_sweep_rejects_sources_it_would_ignore(tmp_path, capsys, command, line):
    # a time factor without its field is a config error, and the Stokes
    # reference of a sweep has no mass source
    cfg, out = write_cfg(tmp_path, SWEEP_CFG.replace("u0 = mixed_u0", f"u0 = mixed_u0\n{line}"))
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    key = line.split(" =")[0]
    assert len(err) == 1 and key in err[0] and "Traceback" not in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, output", [("sweep", "sweep.csv"), ("sweep", "probe_deltas.csv")])
def test_sweep_reads_s_as_simulate_does(tmp_path, command, output):
    # at rho0 = 1 an explicit s equal to f is the momentum source rho0 f; s_time multiplies it
    force = "f = cos(pi*y) ; 0.5*cos(pi*x)"
    lines = {"f": force, "f_and_s": f"{force}\ns = cos(pi*y) ; 0.5*cos(pi*x)"}
    lines["timed"] = lines["f_and_s"] + "\ns_time = 1 + t"
    outputs = {}
    for name, line in lines.items():
        (tmp_path / name).mkdir()
        text = SWEEP_CFG.replace("u0 = mixed_u0", f"u0 = mixed_u0\n{line}")
        cfg, out = write_cfg(tmp_path / name, text)
        assert run_cli([command, "--config", cfg]) == 0
        outputs[name] = (out / output).read_bytes()
    assert outputs["f"] == outputs["f_and_s"] != outputs["timed"]


@pytest.mark.parametrize("line", ["s_time = 5 + 0*t", "sigma_time = 7"])
@pytest.mark.parametrize(
    "command", ["simulate", "simulate-incompressible", "decompose", "sweep"]
)
def test_time_factor_without_its_field_exits_1(tmp_path, capsys, command, line):
    # SIM_CFG has f but neither s nor sigma, so the factor would multiply nothing
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("[output]", f"{line}\n\n[output]"))
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    key = line.split(" =")[0]
    assert len(err) == 1 and f"key {key!r}: multiplies" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "sweep"])
def test_compatible_p0_needs_a_solenoidal_u0(tmp_path, capsys, command):
    # the Stokes initial pressure belongs to the run's own u0, here one with a gradient part
    text = SWEEP_CFG.replace("u0 = mixed_u0", "u0 = mixed_u0\np0 = compatible_p0")
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert "compatible_p0" in err[0] and "solenoidal u0" in err[0]
    assert not out.exists()


@pytest.mark.memory
def test_memory_preflight_counts_no_stored_states_for_a_sweep(monkeypatch):
    # a million nodes at n = 8: the stored states of one run take 1.6 GB, the
    # series of a 6-row sweep with 8 probes 0.58 GB; a single run stores its
    # states only when it dumps them, and its series take 72 MB
    from complim import cli

    text = SWEEP_CFG.format(out="out").replace("n_u = 3", "n_u = 8").replace("n_p = 3", "n_p = 8")
    text = text.replace("T = 0.4", "T = 100\ndt = 1e-4").replace("probes = 4", "probes = 8")
    text = text.replace("alphas = 1e-1 1e-2 1e-3", "alphas = 1e-1 1e-2 1e-3 1e-4 1e-5 1e-6")
    cfg = parse_config(text)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**30 // 4096}  # 1 GiB
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    cli._check_memory(cfg, "sweep")
    cli._check_memory(cfg, "simulate")
    with pytest.raises(cli.InvalidParams, match="physical memory"):
        cli._check_memory(dataclasses.replace(cfg, dump_coefficients=True), "simulate")

    # n = 40, 6 rows: 2.35 GiB for the rows, and each worker process holds its
    # own Stokes reference, about 0.077 GiB
    big = text.replace("n_u = 8", "n_u = 40").replace("n_p = 8", "n_p = 40")
    cfg = parse_config(big.replace("T = 100\ndt = 1e-4", "T = 0.4"))
    pages["SC_PHYS_PAGES"] = int(2.85 * 2**30) // 4096
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    cli._check_memory(cfg, "sweep")  # one worker: 2.64 GiB
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(6)))
    with pytest.raises(cli.InvalidParams, match=r"needs about 3\.03 GiB"):  # six workers
        cli._check_memory(cfg, "sweep")


@pytest.mark.memory
def test_memory_preflight_counts_what_the_stokes_run_holds(tmp_path, capsys, monkeypatch):
    # n = 40, 101 nodes: simulate needs about 0.591 GiB, 0.35 GiB of it for the compressible
    # system's two m x m matrices, and stores no states; the Stokes run builds neither and
    # needs about 0.460 GiB, storing no y and q without dump_coefficients
    from complim import cli

    class Built(Exception):
        pass

    def assemble(spec):
        raise Built

    text = SIM_CFG.replace("n_u = 3", "n_u = 40").replace("n_p = 3", "n_p = 40")
    text = text.replace("dump_coefficients = true", "dump_coefficients = false")
    cfg, _ = write_cfg(tmp_path, text)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**29 // 4096}  # 0.5 GiB
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli, "assemble", assemble)
    assert run_cli(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "needs about 0.591 GiB" in err[0]
    with pytest.raises(Built):
        run_cli(["simulate-incompressible", "--config", cfg])


@pytest.mark.memory
@pytest.mark.parametrize("n", [8, 16, 24])
def test_memory_preflight_counts_the_stokes_reference_at_its_peak(n):
    # the reference's march under a time-dependent source, its pressure map built inside the
    # trace and the operators outside it: the pre-flight's count covers what tracemalloc sees
    from complim import cli
    from complim.compressible import STEP_CHUNK
    from complim.incompressible import stokes_chunks

    ops = assemble(build_basis(n, n))
    s = realize_vector_field("cos(pi*y) ; 0.5*cos(pi*x)", "1.5 + t")
    params = CompressibleParams(T=0.3, dt=0.3 / 600, s=s, u0=velocity_preset("solenoidal_u0", ops))
    ops.spec.quad_rule()  # numpy.polynomial's first import is not the reference's memory
    tracemalloc.start()
    try:
        _, _, chunks = stokes_chunks(ops, params)
        assert sum(1 for _ in chunks) == 10  # slabs: 4 + 4 + 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m_u, m_p, m_V = ops.spec.m_u, ops.spec.m_p, ops.kernel.shape[1]
    assert peak > 8 * 3 * (STEP_CHUNK + 1) * m_V  # the march's three chunk buffers are traced
    assert peak <= 8 * cli._reference_values(m_u, m_p)


@pytest.mark.memory
@pytest.mark.parametrize("n_u, n_p", [(8, 1), (16, 16)])
def test_memory_preflight_counts_a_whole_stokes_run_at_its_peak(n_u, n_p):
    # simulate_incompressible under a time-dependent source, its reductions included: no
    # chunk-sized array outlives its chunk, so the run stays within the pre-flight's
    # simulate-incompressible term (at (8, 1) a run that kept the last chunk's velocities and
    # midpoints while the march formed the next chunk peaked at 1.01 of it)
    from complim import cli, simulate_incompressible

    ops = assemble(build_basis(n_u, n_p))
    s = realize_vector_field("cos(pi*y) ; 0.5*cos(pi*x)", "1 + t")
    params = CompressibleParams(T=0.3, dt=0.3 / 600, s=s, u0=velocity_preset("solenoidal_u0", ops))
    ops.spec.quad_rule()  # numpy.polynomial's first import is not the run's memory
    tracemalloc.start()
    try:
        traj = simulate_incompressible(ops.spec, ops, ops.kernel, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 600
    assert peak <= 8 * (cli._reference_values(ops.spec.m_u, ops.spec.m_p) + 4 * len(traj.times))


# The peak RSS of the process's own address space (VmHWM; its ru_maxrss also holds the peak
# of the process it was spawned from, pytest's) or of a finished sweep worker, which counts
# the pages it shares with its parent
PEAK_RSS = """
import resource, sys
from complim import cli
from complim.config import parse_config

def maxrss():
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return 1024 * max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

path, command = sys.argv[1:]
with open(path) as handle:
    estimate = cli._check_memory(parse_config(handle.read()), command)
base = maxrss()
print(cli.run_cli([command, "--config", path]), maxrss() - base, estimate)
"""


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.memory
@pytest.mark.parametrize("n", [16, 24, pytest.param(32, marks=pytest.mark.slow)])
@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "decompose", "sweep"])
def test_memory_preflight_covers_the_measured_peak_within_2x(tmp_path, command, n):
    """The pre-flight's estimate against the growth of the peak RSS over the import, in a fresh
    process: simulate.cfg's physics (two step blocks) with a short T.  A sweep runs on one
    CPU, so one worker process marches its rows and its peak is the command's."""
    text = SIM_CFG.replace("n_u = 3\nn_p = 3", f"n_u = {n}\nn_p = {n}").replace("T = 0.4", "T = 0.05")
    text = text.replace("dt = 0.004\n", "").replace("dump_coefficients = true", "dump_coefficients = false")
    text = text.replace("[output]", "[sweep]\nalphas = 1e-1 1e-2 1e-3\nprobes = 4\n\n[output]")
    cfg, _ = write_cfg(tmp_path, text)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, cfg, command], capture_output=True, text=True, env=env,
        timeout=600, preexec_fn=_one_cpu if command == "sweep" else None,
    )
    code, growth, estimate = done.stdout.split()[-3:]
    assert code == "0", done.stderr
    assert int(growth) <= float(estimate) <= 2 * int(growth), (int(growth) / 1e6, float(estimate) / 1e6)


@pytest.mark.parametrize(
    "u0",
    ["-" * 2000 + "x ; 0", "x" + "+x" * 5000 + " ; 0", "(" * 400 + "x" + ")" * 400 + " ; 0"],
    ids=["unary_minus", "long_sum", "nested_parentheses"],
)
def test_overdeep_expression_is_a_config_error(tmp_path, capsys, u0):
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("sin(pi*x)*sin(pi*y) ; 0", u0))
    assert run_cli(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'u0'" in err[0] and "position" in err[0]
    assert not out.exists()


def test_source_time_factor_zero_switches_the_source_off(tmp_path):
    # only an empty *_time entry means "no time factor"; 0 is the zero factor
    outputs = {}
    for name, factor in (("zero", "0"), ("zero_t", "0*t"), ("one", "1")):
        text = SIM_CFG.replace("f = cos(pi*y) ; 0.5*cos(pi*x)", f"s = 1 ; 1\ns_time = {factor}")
        (tmp_path / name).mkdir()
        cfg, out = write_cfg(tmp_path / name, text)
        assert run_cli(["simulate", "--config", cfg]) == 0
        outputs[name] = (out / "trajectory.csv").read_bytes()
    assert outputs["zero"] == outputs["zero_t"] != outputs["one"]


@pytest.mark.parametrize("command", ["sweep"])
def test_more_probes_than_solenoidal_directions_exits_1(tmp_path, capsys, command):
    # the discrete solenoidal space has dimension 4 at n_u = n_p = 3
    cfg, out = write_cfg(tmp_path, SWEEP_CFG.replace("probes = 4", "probes = 8"))
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "probes = 8" in err[0] and "dimension 4" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("key", ["rho0", "mu", "eta", "alpha", "T", "dt"])
def test_nonfinite_physics_value_exits_1(tmp_path, capsys, key, value):
    text = "\n".join(
        line for line in SIM_CFG.splitlines() if not line.startswith(f"{key} =")
    ).replace("[physics]", f"[physics]\n{key} = {value}")
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"key {key!r}: must be" in err[0] and "finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg, out = write_cfg(tmp_path, SWEEP_CFG.replace("seed = 11", "seed = -1"))
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "key 'seed': must be >= 0" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("u0", ["gradient_u0", "mixed_u0"])
@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible", "sweep", "decompose"])
def test_gradient_presets_need_a_pressure_mode(tmp_path, capsys, command, u0):
    # at n_p = 0 the discrete gradient space is {0}
    text = SWEEP_CFG.replace("n_p = 3", "n_p = 0").replace("u0 = mixed_u0", f"u0 = {u0}")
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert u0 in err[0] and "n_p >= 1" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, template, output",
    [("simulate", SIM_CFG, "trajectory.csv"), ("sweep", SWEEP_CFG, "sweep.csv")],
    ids=["simulate", "sweep"],
)
def test_s_absent_or_empty_is_rho0_f_and_every_written_zero_is_the_zero_source(
    tmp_path, command, template, output
):
    # an absent or empty s is unset, so s = rho0 f (rho0 = 1 here); 0, zero and a vector
    # of zero names are the zero source, whatever f is
    force = "f = cos(pi*y) ; 0.5*cos(pi*x)"
    text = template.replace(f"\n{force}", "").replace("[data]", f"[data]\n{force}")
    spellings = {
        "absent": "",
        "empty": "s =",
        "0": "s = 0",
        "zero": "s = zero",
        "0_0": "s = 0 ; 0",
        "zero_0": "s = zero ; 0",
        "rho0_f": "s = cos(pi*y) ; 0.5*cos(pi*x)",
    }
    outputs = {}
    for name, line in spellings.items():
        (tmp_path / name).mkdir()
        cfg, out = write_cfg(tmp_path / name, text.replace("[data]", f"[data]\n{line}"))
        assert run_cli([command, "--config", cfg]) == 0
        outputs[name] = (out / output).read_bytes()
    assert outputs["absent"] == outputs["empty"] == outputs["rho0_f"]
    assert outputs["0"] == outputs["zero"] == outputs["0_0"] == outputs["zero_0"]
    assert outputs["0"] != outputs["absent"]


HUGE_U0 = "u0 = 1e160*sin(pi*x)*sin(pi*y) ; 0"  # finite, but its energy overflows


@pytest.mark.parametrize("command", ["simulate", "simulate-incompressible"])
def test_nonfinite_results_exit_2_before_any_file_is_written(tmp_path, capsys, command):
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", HUGE_U0))
    assert run_cli([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"complim: {out / 'trajectory.csv'}: I is inf at node 0"]
    assert not out.exists()


def test_sweep_rows_with_nonfinite_values_fail(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, SWEEP_CFG.replace("u0 = mixed_u0", HUGE_U0))
    assert run_cli(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("complim: 3 of 3 rows failed; first alpha=0.1: ")
    assert err[0].endswith("ValueError: sweep.csv: err_vel_L2H1 is inf")
    meta = json.loads((out / "sweep_meta.json").read_text())
    assert meta["fits"] == {} and len(meta["row_errors"]) == 3


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_sweep_meta_is_valid_json_when_x_limit_is_not_finite(tmp_path):
    cfg, out = write_cfg(tmp_path, SWEEP_CFG.replace("u0 = mixed_u0", HUGE_U0))
    assert run_cli(["sweep", "--config", cfg]) == 2
    text = (out / "sweep_meta.json").read_text()
    assert json.loads(text, parse_constant=_refuse_constant)["x_limit"] is None
    # a finite x_limit is written as before
    cfg, out = write_cfg(tmp_path, SWEEP_CFG)
    assert run_cli(["sweep", "--config", cfg]) == 0
    x_limit = json.loads((out / "sweep_meta.json").read_text(), parse_constant=_refuse_constant)["x_limit"]
    assert isinstance(x_limit, float) and np.isfinite(x_limit)


def test_result_files_get_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        cfg, out = write_cfg(tmp_path, SIM_CFG)
        assert run_cli(["simulate", "--config", cfg]) == 0
        assert run_cli(["decompose", "--config", cfg]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert set(modes) == {
        "trajectory.csv", "ledger.csv", "coefficients.csv", "decompose.csv", "decompose_norms.json"
    }
    assert set(modes.values()) == {0o644}


@pytest.mark.parametrize(
    "u0, field, message",
    [
        ("1e308*1e308*sin(pi*x) ; 0", None, "decompose_norms.json: input l2 is nan"),
        ("sin(pi*x)*sin(pi*y) ; 0", "1e200*sin(pi*x) ; 0", "decompose_norms.json: input l2 is inf"),
    ],
    ids=["u0", "field"],
)
def test_decompose_with_nonfinite_results_exits_2_without_output(tmp_path, capsys, u0, field, message):
    cfg, out = write_cfg(tmp_path, SIM_CFG.replace("sin(pi*x)*sin(pi*y) ; 0", u0))
    assert run_cli(["decompose", "--config", cfg] + (["--field", field] if field else [])) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(message)
    assert not out.exists()


@pytest.mark.memory
def test_memory_preflight_counts_the_csv_text(tmp_path, capsys, monkeypatch):
    # 20,001 nodes at n = 3: the stored states take 5.4 MB, coefficients.csv
    # (35 values a node) about 56 MB at CSV_BYTES_PER_VALUE, trajectory.csv 9.6 MB
    from complim import cli

    text = SIM_CFG.replace("dt = 0.004", "dt = 2e-5")
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**25 // 4096}  # 32 MiB
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "CSV text" in err[0] and "physical memory" in err[0]
    assert not out.exists()
    cfg, out = write_cfg(tmp_path, text.replace("dump_coefficients = true", "dump_coefficients = false"))
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ledger.csv", "trajectory.csv"]


@pytest.mark.parametrize(
    "u0",
    list(VELOCITY_PRESETS) + ["x*(1-x)*y ; sin(pi*x)*y", "0", "zero", "0 ; 0", ""],
)
def test_u0_entry_and_decompose_field_read_through_one_door(tmp_path, u0):
    # _build_params and `decompose --field` give the preset, or the projected field, bit for bit
    text = SWEEP_CFG.format(out=tmp_path / "out").replace("u0 = mixed_u0", f"u0 = {u0}")
    cfg = parse_config(text)
    ops = assemble(build_basis(cfg.n_u, cfg.n_p))
    if u0 in VELOCITY_PRESETS:
        expected = velocity_preset(u0, ops).values
    else:
        expected = coefficients_of(ops.spec, realize_vector_field(u0))
    assert _build_params(cfg, ops).u0.values.tobytes() == expected.tobytes()
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert run_cli(["decompose", "--config", str(path), "--field", u0]) == 0
    assert read_csv_columns(tmp_path / "out" / "decompose.csv")["input"].tobytes() == expected.tobytes()


def test_unknown_p0_name_is_a_config_error(tmp_path, capsys):
    text = SIM_CFG.replace("p0 = 0.3*cos(pi*x)", "p0 = nope_p0")
    with pytest.raises(ConfigError, match="'p0'"):
        parse_config(text.format(out=tmp_path / "out"))
    cfg, out = write_cfg(tmp_path, text)
    assert run_cli(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'p0'" in err[0]
    assert not out.exists()


def test_csv_rows_carry_the_bytes_of_fmt17_per_cell(tmp_path):
    """A row of numbers goes through one "%.17g" format, a table's rows as Python floats, and a
    row holding a string cell cell by cell: the bytes are fmt17's, and a string is written as is."""
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -2.5e-7, 3.0]
    values = np.array(edge * 23)  # 138 rows, more than two slabs of a table
    block = np.stack([values[::-1], np.arange(len(values))], axis=1)  # two columns in one block
    write_tables(str(tmp_path), {"table.csv": (["a", "b", "c"], [values, block])})
    expected = "".join(",".join(map(fmt17, row)) + "\n" for row in zip(values, *block.T))
    assert (tmp_path / "table.csv").read_text() == "a,b,c\n" + expected
    mixed = [[1 / 3, "label", -0.0], [5e-324, "3", np.float64(1.7976931348623157e308)], [np.int64(7), 0.1]]
    write_csv(str(tmp_path / "mixed.csv"), ["x", "y", "z"], mixed)
    assert (tmp_path / "mixed.csv").read_text().splitlines() == [
        "x,y,z",
        "0.33333333333333331,label,-0",
        "4.9406564584124654e-324,3,1.7976931348623157e+308",
        "7,0.10000000000000001",
    ]
