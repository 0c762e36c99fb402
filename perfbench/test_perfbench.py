"""Self-tests of the benchmark's own arithmetic and output check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import tracing
from tracing import Span
from workloads import REFERENCE_SEED, check, override_config, sweep_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
MAIN, WORKER = 1, 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0, MAIN, False),
        Span(2, 1, "a", 1.0, 4.0, MAIN, False),
        Span(3, 2, "a.inner", 2.0, 3.0, MAIN, False),
        # overlapping children, as worker-thread rows are
        Span(4, 1, "b", 3.0, 6.0, WORKER, False),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_orphans_are_adopted_by_the_innermost_containing_main_span():
    spans = [
        Span(1, 0, "limits.sweep", 0.0, 10.0, MAIN, False),
        Span(2, 1, "incompressible.simulate", 0.5, 2.0, MAIN, False),
        Span(3, 0, "compressible.simulate", 2.5, 6.0, WORKER, False),
        Span(4, 3, "scipy.lu_solve", 3.0, 3.5, WORKER, False),
        Span(5, 0, "stray", 11.0, 12.0, WORKER, False),
    ]
    adopted = {s.id: s for s in tracing.adopt_orphans(spans, MAIN)}
    assert adopted[3].parent == 1
    assert adopted[4].parent == 3
    assert adopted[5].parent == 0
    named = {s.id: s.name for s in tracing.classify(list(adopted.values()))}
    assert named[4] == "compressible.lu_solve"


def test_tracer_records_parents_from_the_thread_stack():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: leaf(x) * leaf(x))
    assert outer(2) == 9
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent == 0 and top.end - top.start == 5.0
    assert [s.parent for s in by_name["leaf"]] == [top.id, top.id]
    assert all(s.end - s.start == 1.0 for s in by_name["leaf"])

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[-1].failed and tracer._stack() == []


def test_sweep_row_metrics_on_synthetic_threads():
    spans = [
        Span(1, 0, "limits.sweep", 0.0, 10.0, MAIN, False),
        Span(2, 0, "compressible.simulate", 1.0, 5.0, WORKER, False),
        Span(3, 0, "limits.x_alpha", 5.0, 5.5, WORKER, False),
        Span(4, 0, "limits.weak_probe", 5.5, 6.0, WORKER, False),
        Span(5, 0, "compressible.simulate", 2.0, 8.0, WORKER + 1, False),
        Span(6, 0, "limits.weak_probe", 8.0, 9.0, WORKER + 1, False),
    ]
    observations = {"compressible.trajectory": [[10, 4], [10, 4]], "limits.rows": [[2, 0]]}
    metrics, table = tracing.layer_metrics(spans, observations, MAIN)
    assert metrics["limits.row.s.max"] == pytest.approx(7.0)
    assert metrics["limits.row.s.p50"] == pytest.approx(6.0)
    assert metrics["limits.threads"] == 2
    assert metrics["limits.row_busy_over_wall"] == pytest.approx(12.0 / 8.0)
    assert metrics["compressible.steps"] == 20
    assert metrics["compressible.step_flops"] == 6 * 16
    assert metrics["compressible.state_mb"] == pytest.approx(11 * 4 * 8 / 1e6)
    assert metrics["limits.sweep.s"] == pytest.approx(10.0)
    # the two rows cover [1, 9] of the sweep's [0, 10]
    assert table["limits.sweep"]["self_s"] == pytest.approx(2.0)


def _write_sweep(out_dir, reference, perturb=None):
    """sweep.csv and sweep_meta.json holding the reference values."""
    columns = {name: [v for v, *_ in pairs] for name, pairs in reference["columns"].items()}
    if perturb is not None:
        name, row, value = perturb
        columns[name][row] = value
    names = list(columns)
    lines = [",".join(names)]
    for row in range(len(columns[names[0]])):
        lines.append(",".join(format(columns[n][row], ".17g") for n in names))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    meta = {
        "fits": {name: {"slope": v} for name, (v, *_) in reference["slopes"].items()},
        "row_errors": {},
    }
    with open(os.path.join(out_dir, "sweep_meta.json"), "w") as handle:
        json.dump(meta, handle)


@pytest.fixture(scope="module")
def sweep_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)["sweep_pressure_n8"]


def test_output_check_accepts_the_reference(tmp_path, sweep_reference):
    _write_sweep(tmp_path, sweep_reference)
    assert check(sweep_outputs(tmp_path), sweep_reference, REFERENCE_SEED) == []


@pytest.mark.parametrize("factor, rejected", [(0.5, False), (2.0, True)])
def test_output_check_rejects_a_value_past_its_tolerance(tmp_path, sweep_reference, factor, rejected):
    value, tol, *_ = sweep_reference["columns"]["err_pres_LinfL2"][3]
    _write_sweep(tmp_path, sweep_reference, ("err_pres_LinfL2", 3, value + factor * tol))
    problems = check(sweep_outputs(tmp_path), sweep_reference, REFERENCE_SEED)
    assert bool(problems) == rejected
    if rejected:
        assert "err_pres_LinfL2[3]" in problems[0]


def test_seed_dependent_column_is_checked_only_at_the_reference_seed(tmp_path, sweep_reference):
    value, tol, *_ = sweep_reference["columns"]["probe_max"][0]
    _write_sweep(tmp_path, sweep_reference, ("probe_max", 0, value + 10 * tol + 1e-3))
    outputs = sweep_outputs(tmp_path)
    assert check(outputs, sweep_reference, REFERENCE_SEED + 1) == []
    assert check(outputs, sweep_reference, REFERENCE_SEED)


def test_failed_sweep_rows_are_reported(tmp_path, sweep_reference):
    _write_sweep(tmp_path, sweep_reference)
    outputs = sweep_outputs(tmp_path)
    outputs["row_errors"] = {"1e-4": "StepFailure: residual"}
    assert any("failed sweep rows" in p for p in check(outputs, sweep_reference, REFERENCE_SEED))


def test_override_config_replaces_and_adds_keys():
    text = "# c\n[basis]\nn_u = 8  # size\nn_p = 8\n\n[output]\ndirectory = out\n"
    got = override_config(
        text, {"basis": {"n_u": "24"}, "output": {"directory": "x"}, "sweep": {"seed": "3"}}
    )
    assert "n_u = 24\n" in got and "n_p = 8\n" in got
    assert "directory = x\n" in got and "directory = out" not in got
    assert got.endswith("[sweep]\nseed = 3\n")


def test_audit_check_gates_ledger_ceiling_and_flags():
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)["audit_n24"]
    outputs = {
        "values": {name: value for name, (value, *_) in reference["values"].items()},
        "nodes": reference["nodes"],
        "worst_ledger": reference["worst_ledger_seen"][0],
        "flags": dict(reference["flags"]),
    }
    assert check(outputs, reference, REFERENCE_SEED + 1) == []
    outputs["worst_ledger"] = 2 * reference["worst_ledger"]
    outputs["flags"]["est2_ok"] = False
    problems = check(outputs, reference, REFERENCE_SEED + 1)
    assert len(problems) == 2
