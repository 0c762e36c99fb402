import os

import numpy as np
import pytest

from complim.cli import run_cli
from complim.csvio import read_csv_columns, write_series_csv

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
kind = strong_velocity
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
    assert run_cli(["probe", "--config", cfg]) == 0
    probes = read_csv_columns(out / "probe_deltas.csv")
    assert len(probes["alpha"]) == 3 * 4


def test_verify_mixed_series(tmp_path):
    t = np.linspace(0.0, 1.0, 51)
    write_series_csv(tmp_path / "i.csv", t, np.full_like(t, 2.0))
    write_series_csv(tmp_path / "j.csv", t, np.zeros_like(t))
    for name in ("a", "b", "c"):
        write_series_csv(tmp_path / f"{name}.csv", t, np.zeros_like(t))
    args = ["verify"]
    for name in ("i", "j", "a", "b", "c"):
        args += [f"--{name}", str(tmp_path / f"{name}.csv")]
    assert run_cli(args) == 0

    # violating instance: I grows with zero right side
    write_series_csv(tmp_path / "i.csv", t, 1.0 + t)
    assert run_cli(args) == 3


def test_verify_energy_failure_exit_code(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,I,energy_residual\n0,1,0\n0.5,1,0.25\n1,1,0.25\n")
    assert run_cli(["verify", "--energy", str(path)]) == 3
    assert run_cli(["verify", "--energy", str(path), "--tol", "1.0"]) == 0


def test_usage_errors(tmp_path):
    assert run_cli(["verify"]) == 1  # neither --energy nor the series set
    assert run_cli(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert run_cli(["no-such-command"]) == 1


def test_nonfinite_initial_data_exits_2(tmp_path, capsys):
    overflow = SIM_CFG.replace("u0 = sin(pi*x)*sin(pi*y) ; 0", "u0 = 1e308*1e308*sin(pi*x) ; 0")
    for command in ("simulate", "simulate-incompressible"):
        cfg, _ = write_cfg(tmp_path, overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli([command, "--config", cfg]) == 2
        assert "step 1 at t = " in capsys.readouterr().err
