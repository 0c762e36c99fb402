"""The benchmark's workload process runs on this tree.

perfbench/child.py calls the library directly (set-up, and the audited
single run: simulate_compressible, energy_ledger, apriori_check,
simulate_incompressible).  A signature change that breaks those calls
makes every benchmark run fail, which the trace-point test alone does not
see, so this test runs both modes on a small copy of configs/simulate.cfg.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def test_child_setup_and_audit_run_on_this_tree(tmp_path):
    with open(os.path.join(ROOT, "configs", "simulate.cfg")) as handle:
        text = handle.read()
    text = re.sub(r"(?m)^n_u = \d+$", "n_u = 4", text)
    text = re.sub(r"(?m)^n_p = \d+$", "n_p = 4", text)
    text = re.sub(r"(?m)^directory = .*$", f"directory = {tmp_path / 'out'}", text)
    cfg = tmp_path / "simulate_n4.cfg"
    cfg.write_text(text)
    summary = tmp_path / "summary.json"
    for mode in (["setup"], ["audit", "--summary", str(summary)]):
        proc = subprocess.run(
            [sys.executable, CHILD, *mode, "--config", str(cfg)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    result = json.loads(summary.read_text())
    assert result["exit"] == 0
    assert result["flags"] and all(result["flags"].values()), result["flags"]
    assert (tmp_path / "out" / "incompressible.csv").stat().st_size > 0
