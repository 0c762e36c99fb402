import math
import textwrap

import numpy as np
import pytest

from complim import ConfigError, RunConfig, config, parse_config, parse_expression
from complim.config import (
    ExpressionError,
    realize_scalar_field,
    realize_vector_field,
)


def test_minimal_config_fills_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.n_u == 8 and cfg.n_p == 8 and cfg.dt is None


def test_range_error_names_key_and_line():
    text = "[physics]\nmu = -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("mu" in issue and "line 2" in issue for issue in err.value.issues)


def test_duplicate_key_reports_both_lines():
    text = "[physics]\nmu = 1\nmu = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    assert "line 3" in issue and "line 2" in issue and "duplicate" in issue


def test_unknown_keys_and_sections_rejected_with_all_errors():
    text = "[physics]\nwibble = 1\nmu = 0\n[nonsense]\nfoo = bar\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    issues = "\n".join(err.value.issues)
    assert "wibble" in issues and "nonsense" in issues and "mu" in issues


def test_every_section_parses():
    text = """
[basis]
n_u = 5
n_p = 3

[physics]
rho0 = 1.25
mu = 0.5
eta = 0.5
alpha = 0.001
T = 2.0
dt = auto

[data]
u0 = sin(pi*x)*sin(pi*y) ; 0
p0 = compatible_p0
f = 0
sigma = cos(pi*x)
sigma_time = 1 + t

[sweep]
alphas = 0.1, 0.01, 0.001
probes = 6
seed = 9

[output]
directory = results
dump_coefficients = true
"""
    cfg = parse_config(text)
    assert cfg.alphas == (0.1, 0.01, 0.001)
    assert cfg.dt is None and cfg.dump_coefficients is True


def test_the_module_docstring_example_parses():
    """The example document of the config module's docstring, its '...' removed, is a config."""
    example = config.__doc__.split("Example document::\n", 1)[1]
    lines = example.splitlines()
    block = lines[: next(k for k, line in enumerate(lines) if line and not line.startswith(" "))]
    cfg = parse_config(textwrap.dedent("\n".join(block)).replace("...", ""))
    assert cfg.alphas == (1e-1, 3.16e-2, 1e-2)
    assert cfg.n_u == cfg.n_p == 8 and cfg.dt is None and cfg.directory == "out"


def test_preset_names_only_where_they_belong():
    with pytest.raises(ConfigError) as err:
        parse_config("[data]\nf = gradient_u0\n")
    assert "f" in err.value.issues[0]
    cfg = parse_config("[data]\nu0 = gradient_u0\np0 = compatible_p0\n")
    assert cfg.u0 == "gradient_u0" and cfg.p0 == "compatible_p0"


# -- expressions --------------------------------------------------------------


def eval_oracle(text, x, y, t=0.0):
    """Independent evaluation through Python's own parser."""
    return eval(  # noqa: S307 - test oracle on a closed grammar
        text, {"__builtins__": {}},
        {"sin": math.sin, "cos": math.cos, "pi": math.pi, "x": x, "y": y, "t": t},
    )


def test_expression_examples():
    e = parse_expression("sin(pi*x)*sin(pi*y)")
    assert e(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert parse_expression("0")(0.3, 0.7) == 0.0
    assert parse_expression("2*x + cos(pi*y)")(0.25, 0.0) == pytest.approx(1.5, abs=1e-15)


def test_expression_matches_independent_oracle():
    rng = np.random.default_rng(12)
    sources = [
        "1/2 + x*y - t",
        "sin(pi*x)*cos(pi*y) + 2",
        "-x + (y - 1)*(y + 1)",
        "cos(2*x) * sin(3*y) / (1 + t)",
        "3.5e-1 * x - -y",
    ]
    for text in sources:
        expr = parse_expression(text)
        for _ in range(10):
            x, y, t = rng.uniform(0, 1, 3)
            assert float(expr(x, y, t)) == pytest.approx(eval_oracle(text, x, y, t), rel=1e-13)


def test_expression_errors_carry_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(pi*x")
    assert "position" in str(err.value)
    with pytest.raises(ExpressionError):
        parse_expression("2 ** x")
    with pytest.raises(ExpressionError):
        parse_expression("foo(x)")


@pytest.mark.parametrize(
    "text",
    [
        "2**x", "0x1f*x", "1_0*x", "1j*x", "True*x", "x.real", '__import__("os")', "[x]",
        "x[0]", "lambda: 1", "(x := 1)", "x if y else t", "sin*x", "sin(x, y)", "x + \0",
    ],
)
def test_expression_outside_the_language_is_rejected_with_a_position(text):
    with pytest.raises(ExpressionError, match="at position"):
        parse_expression(text)


def test_expression_broadcasts_over_arrays():
    expr = parse_expression("x + 2*y")
    x = np.array([0.0, 0.5])
    y = np.array([1.0, 1.0])
    assert np.allclose(expr(x, y), [2.0, 2.5])


def test_realize_fields():
    assert realize_scalar_field("0") is None
    assert realize_vector_field("zero") is None
    fld = realize_vector_field("sin(pi*x)*sin(pi*y) ; 0")
    out = fld(np.array(0.5), np.array(0.5))
    assert out[0] == pytest.approx(1.0) and out[1] == 0.0
    with pytest.raises(ExpressionError):
        realize_vector_field("x")  # missing second component
    with pytest.raises(ExpressionError):
        realize_scalar_field("x + t")  # time belongs in *_time keys
    timed = realize_scalar_field("cos(pi*x)", "1 + t")
    assert timed.time_dependent and timed.at_time(1.0) == 2.0
    with pytest.raises(ExpressionError):
        realize_scalar_field("cos(pi*x)", "x + t")


def test_shipped_configs_parse():
    import pathlib

    for name in ("simulate.cfg", "strong_velocity.cfg", "pressure_strong.cfg"):
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" / name
        cfg = parse_config(path.read_text())
        assert cfg.n_u == 8


@pytest.mark.parametrize(
    "text, key",
    [("[data]\nu0 = 0/0 ; 0\n", "u0"), ("[data]\nsigma = 1\nsigma_time = 1/(2-2)\n", "sigma_time")],
)
def test_constant_division_by_zero_is_a_config_error(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    lineno = text.count("\n", 0, text.index(key)) + 1
    assert issue == f"line {lineno}: key {key!r}: division by zero"


@pytest.mark.parametrize("field", [None, "", "0", "zero"], ids=["unset", "empty", "0", "zero"])
@pytest.mark.parametrize("key", ["s_time", "sigma_time"])
def test_time_factor_without_its_field_is_a_config_error(key, field):
    # a time factor multiplies its field: with the field zero or unset it would be ignored
    source = key.removesuffix("_time")
    lines = ["[data]", "f = cos(pi*y) ; 0", f"{key} = 5 + 0*t"]
    if field is not None:
        lines.insert(2, f"{source} = {field}")
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines))
    (issue,) = err.value.issues
    assert issue == f"line {len(lines)}: key {key!r}: multiplies {source}, which is zero or unset"
    assert getattr(parse_config(f"[data]\n{source} =\n{key} =\n"), key) == ""


def test_division_by_a_variable_is_not_an_error():
    # numpy values give inf/nan instead of raising, so only constants are rejected
    cfg = parse_config("[data]\nu0 = 1/x ; 0\nsigma = 1\nsigma_time = 1/t\n")
    assert cfg.u0 == "1/x ; 0" and cfg.sigma_time == "1/t"


@pytest.mark.parametrize("text", ["0 ; 0", "zero ; 0", " 0;zero ", "0 ;", ";"])
def test_a_vector_of_zero_names_is_the_zero_field(text):
    assert realize_vector_field(text) is None


def test_three_zero_names_are_not_a_vector():
    with pytest.raises(ExpressionError):
        realize_vector_field("0 ; 0 ; 0")


def test_s_is_unset_unless_written():
    assert RunConfig().s == parse_config("[data]\nf = 1 ; 0\n").s == ""
    assert parse_config("[data]\ns = 0 ; 0\n").s == "0 ; 0"


def test_time_factor_of_a_zero_vector_source_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        parse_config("[data]\ns = 0 ; 0\ns_time = 1 + t\n")
    assert err.value.issues == ["line 3: key 's_time': multiplies s, which is zero or unset"]
