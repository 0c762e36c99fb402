"""The shipped pressure_strong sweep, run through the CLI at the benchmark's
reference seed, must pass the benchmark's output check against its stored
reference.  perfbench/ is read, never written."""

import importlib.util
import json
import os
import sys

from complim.cli import run_cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    path = os.path.join(PERFBENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_pressure_strong_sweep_passes_the_benchmark_output_check(tmp_path):
    workloads = _workloads()
    name, seed = "sweep_pressure_n8", workloads.REFERENCE_SEED
    assert workloads.WORKLOADS[name].base_config == "configs/pressure_strong.cfg"
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workloads.config_text(ROOT, workloads.WORKLOADS[name], seed, str(out)))
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    with open(os.path.join(PERFBENCH, "reference.json")) as handle:
        reference = json.load(handle)[name]
    assert workloads.check(workloads.sweep_outputs(str(out)), reference, seed) == []
