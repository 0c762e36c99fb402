import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from complim.cli import run_cli
from complim.csvio import write_csv

NAMES = ("i", "j", "a", "b", "c")

# nonnegative finite samples, the largest doubles included; five series of one length
_SAMPLE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_SERIES = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.lists(_SAMPLE, min_size=n, max_size=n), min_size=5, max_size=5)
)

# an energy file: arbitrary text, or the trajectory header over arbitrary number-like rows
_CELLS = st.text(alphabet="0123456789.eE+-,nainf \t\n", max_size=60)
_ENERGY = st.one_of(st.text(), _CELLS.map("t,I,energy_residual\n".__add__))


@settings(max_examples=100, deadline=None)
@given(_SERIES)
def test_verify_series_exits_0_or_3(series):
    t = np.linspace(0.0, 1.0, len(series[0]))
    with tempfile.TemporaryDirectory() as tmp:
        args = ["verify"]
        for name, values in zip(NAMES, series):
            path = Path(tmp) / f"{name}.csv"
            write_csv(path, ["t", "value"], zip(t, values))
            args += [f"--{name}", str(path)]
        assert run_cli(args) in (0, 3)


@settings(max_examples=100, deadline=None)
@given(_ENERGY)
def test_verify_energy_exits_0_1_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["verify", "--energy", str(path)]) in (0, 1, 3)
