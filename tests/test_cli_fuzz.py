"""simulate, sweep and decompose on small generated configs: every run ends in
a documented exit code, a failing one says why in one stderr line (a config
error in one line per problem found), and a successful one writes only
finite numbers."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from complim.cli import run_cli
from complim.config import ConfigError, parse_config
from complim.csvio import read_csv_columns

# mostly valid values, with a few of each kind of bad one
_ENTRIES = {
    "n_u": st.integers(1, 3).map(str),
    "n_p": st.integers(0, 3).map(str),
    "rho0": st.sampled_from(["1", "0.5", "2", "0", "nan"]),
    "mu": st.sampled_from(["1", "0.25", "-1"]),
    "eta": st.sampled_from(["0", "0.5", "-1"]),
    "alpha": st.sampled_from(["1e-2", "0.1", "0"]),
    "T": st.sampled_from(["0.1", "0.05", "0.02"]),
    "dt": st.sampled_from(["auto", "0.01", "0.5"]),
    "u0": st.sampled_from(
        [
            "solenoidal_u0",
            "gradient_u0",
            "mixed_u0",
            "0",
            "zero ; 0",
            "sin(pi*x)*sin(pi*y) ; 0",
            "x*y ; 1",
            "1e308*1e308*sin(pi*x) ; 0",
            "1e160*sin(pi*x)*sin(pi*y) ; 0",
            "1/(1-1) ; 0",
            "nope_u0",
        ]
    ),
    "p0": st.sampled_from(["0", "zero", "compatible_p0", "0.3*cos(pi*x)", "x ; y"]),
    "f": st.sampled_from(["", "0", "0 ; 0", "cos(pi*y) ; 0.5*cos(pi*x)"]),
    "s": st.sampled_from(["", "0", "0 ; 0", "sin(pi*x) ; x*y"]),
    "s_time": st.sampled_from(["", "0", "1 + t"]),
    "sigma": st.sampled_from(["", "0", "cos(pi*x)"]),
    "alphas": st.sampled_from(["1e-1 1e-2 1e-3", "0.5 0.1 0.05", "1e-1 1e-2", "1e-2 1e-1 1e-3"]),
    "probes": st.integers(1, 6).map(str),
    "seed": st.sampled_from(["0", "7", "-1"]),
}
_SECTIONS = {
    "basis": ("n_u", "n_p"),
    "physics": ("rho0", "mu", "eta", "alpha", "T", "dt"),
    "data": ("u0", "p0", "f", "s", "s_time", "sigma"),
    "sweep": ("alphas", "probes", "seed"),
}
# each key is written or left out, so defaults and absent entries are drawn too
_CONFIG = st.fixed_dictionaries({key: st.none() | value for key, value in _ENTRIES.items()})
# a run that overflows: numpy's warnings once came before its one-line message
_OVERFLOW = {**dict.fromkeys(_ENTRIES), "u0": "1e308*1e308*sin(pi*x) ; 0"}
# finite data whose energy overflows: every command once wrote inf and nan and exited 0
_HUGE = {
    **dict.fromkeys(_ENTRIES),
    **{"n_u": "3", "n_p": "3", "T": "0.1", "probes": "2", "alphas": "0.5 0.1 0.05"},
    "u0": "1e160*sin(pi*x)*sin(pi*y) ; 0",
}


def _render(values: dict, out: Path) -> str:
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {values[key]}" for key in keys if values[key] is not None]
    return "\n".join(lines + ["[output]", f"directory = {out}"]) + "\n"


def _numbers(payload):
    """Every number in a parsed JSON document."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in _numbers(item)]
    return [payload] if isinstance(payload, (int, float)) and not isinstance(payload, bool) else []


def _assert_written_numbers_finite(out: Path) -> None:
    for path in out.iterdir():
        if path.suffix == ".json":
            numbers = _numbers(json.loads(path.read_text()))
        else:
            columns = read_csv_columns(path).values()
            numbers = [x for column in columns if column.dtype.kind == "f" for x in column]
        assert all(math.isfinite(x) for x in numbers), path.name


def _error_lines(text: str) -> int:
    """Lines a failing run prints: one per problem the config parser finds, else one."""
    try:
        parse_config(text)
    except ConfigError as exc:
        return len(exc.issues)
    return 1


@pytest.mark.parametrize("command", ["simulate", "sweep", "decompose"])
@settings(max_examples=40, deadline=None)
@given(values=_CONFIG)
@example(values=_OVERFLOW)
@example(values=_HUGE)
def test_generated_configs_end_in_a_documented_exit(command, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        text = _render(values, Path(tmp) / "out")
        path.write_text(text)
        err = io.StringIO()
        # a warning would be one more stderr line outside the test runner
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli([command, "--config", str(path)])
        if code == 0:
            _assert_written_numbers_finite(Path(tmp) / "out")
    assert code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if code:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == _error_lines(text), err.getvalue()
        assert all(line.startswith("complim: ") for line in lines)
        assert "Traceback" not in err.getvalue()
