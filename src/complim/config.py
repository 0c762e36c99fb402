"""Run configuration: a small sectioned key=value format plus field expressions.

Example document::

    [basis]
    n_u = 8
    n_p = 8

    [physics]
    rho0 = 1.0
    mu = 1.0
    eta = 0.0
    alpha = 1e-2
    T = 1.0
    dt = auto

    [data]
    u0 = sin(pi*x)*sin(pi*y) ; 0
    p0 = cos(pi*x)
    f = 0
    sigma = 0
    s = 0

    [sweep]
    alphas = 1e-1 1e-1.5 ...   # any whitespace/comma separated decreasing list
    kind = strong_velocity
    probes = 8
    seed = 0

    [output]
    directory = out
    dump_coefficients = false

Data entries are either preset names (gradient_u0, solenoidal_u0, mixed_u0,
compatible_p0, zero) or expressions over x, y with + - * / ( ) sin cos pi;
vector fields take two expressions separated by ';'.  Optional keys
``sigma_time`` and ``s_time`` hold separable time factors (expressions over
t).  Unknown keys are rejected and all problems are reported together with
their line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import SampledField
from .limits import DEFAULT_ALPHAS, SWEEP_KINDS
from . import presets

__all__ = [
    "ConfigError",
    "ExpressionError",
    "ExpressionField",
    "RunConfig",
    "parse_config",
    "render_config",
    "parse_expression",
    "realize_scalar_field",
    "realize_vector_field",
]


class ConfigError(ValueError):
    """Carries every problem found in a config document, with line numbers."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class ExpressionError(ValueError):
    """Syntax error in a field expression (with its position) or a constant division by zero."""


# ---------------------------------------------------------------------------
# expression parsing: reals, x, y, t, pi, + - * /, parentheses, sin(), cos()
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*/()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r} at position {pos}")
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} at position {pos}")

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {val!r} at position {pos}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            node = self.unary()
            return node if val == "+" else ("neg", node)
        return self.primary()

    def primary(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in ("x", "y", "t"):
                return ("var", val)
            if val == "pi":
                return ("num", np.pi)
            if val in ("sin", "cos"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return (val, arg)
            raise ExpressionError(f"unknown name {val!r} at position {pos}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected {val or 'end of input'!r} at position {pos}")


def _eval_node(node, x, y, t):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return {"x": x, "y": y, "t": t}[node[1]]
    if op == "neg":
        return -_eval_node(node[1], x, y, t)
    if op == "sin":
        return np.sin(_eval_node(node[1], x, y, t))
    if op == "cos":
        return np.cos(_eval_node(node[1], x, y, t))
    a = _eval_node(node[1], x, y, t)
    b = _eval_node(node[2], x, y, t)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def _uses(node, name: str) -> bool:
    if node[0] == "var":
        return node[1] == name
    return any(_uses(child, name) for child in node[1:] if isinstance(child, tuple))


@dataclass(frozen=True)
class ExpressionField:
    """Parsed arithmetic expression over x, y, t; evaluation broadcasts over arrays."""

    source: str
    ast: tuple

    def __call__(self, x, y, t=0.0):
        x = np.asarray(x, dtype=float)
        value = _eval_node(self.ast, x, np.asarray(y, dtype=float), np.asarray(t, dtype=float))
        return np.broadcast_arrays(value, x)[0]

    @property
    def uses_t(self) -> bool:
        return _uses(self.ast, "t")

    @property
    def uses_xy(self) -> bool:
        return _uses(self.ast, "x") or _uses(self.ast, "y")


def parse_expression(text: str) -> ExpressionField:
    """Parse one expression; raises ExpressionError with the failing position."""
    field = ExpressionField(source=text.strip(), ast=_Parser(text).parse())
    # x, y and t evaluate as numpy values, which give inf or nan instead of
    # raising, so one trial evaluation finds every constant division by zero
    try:
        with np.errstate(all="ignore"):
            field(0.0, 0.0, 0.0)
    except ZeroDivisionError:
        raise ExpressionError("division by zero") from None
    return field


# ---------------------------------------------------------------------------
# field realization
# ---------------------------------------------------------------------------

_ZERO_NAMES = ("0", "zero", "")


def _time_factor(expr_text: str):
    if not expr_text or expr_text.strip() in _ZERO_NAMES[:1]:
        return None
    expr = parse_expression(expr_text)
    if expr.uses_xy:
        raise ExpressionError(f"time factor {expr_text!r} may only use t")
    return lambda t: float(expr(0.0, 0.0, t))


def realize_scalar_field(text: str, time_text: str = "") -> Optional[SampledField]:
    """Scalar data entry -> SampledField, or None for an identically zero field."""
    text = text.strip()
    if text in _ZERO_NAMES:
        return None
    expr = parse_expression(text)
    if expr.uses_t:
        raise ExpressionError(
            f"{text!r}: spatial expressions may not use t; put time dependence in the *_time key"
        )
    return SampledField.scalar(
        lambda x, y: expr(x, y), time_factor=_time_factor(time_text), label=text
    )


def realize_vector_field(text: str, time_text: str = "") -> Optional[SampledField]:
    """Vector data entry 'expr ; expr' -> SampledField, or None when both are zero."""
    text = text.strip()
    if text in _ZERO_NAMES:
        return None
    parts = text.split(";")
    if len(parts) != 2:
        raise ExpressionError(
            f"vector field needs two ';'-separated component expressions, got {text!r}"
        )
    ex, ey = (parse_expression(p) for p in parts)
    for e in (ex, ey):
        if e.uses_t:
            raise ExpressionError(
                f"{e.source!r}: spatial expressions may not use t; use the *_time key"
            )
    return SampledField.of_vector(
        lambda x, y: ex(x, y),
        lambda x, y: ey(x, y),
        time_factor=_time_factor(time_text),
        label=text,
    )


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; data entries stay as their source strings."""

    n_u: int = 8
    n_p: int = 8
    rho0: float = 1.0
    mu: float = 1.0
    eta: float = 0.0
    alpha: float = 1e-2
    T: float = 1.0
    dt: Optional[float] = None  # None = "auto"
    u0: str = "0"
    p0: str = "0"
    f: str = "0"
    sigma: str = "0"
    s: str = "0"
    sigma_time: str = ""
    s_time: str = ""
    alphas: tuple = DEFAULT_ALPHAS
    kind: str = "strong_velocity"
    probes: int = 8
    seed: int = 0
    directory: str = "out"
    dump_coefficients: bool = False


_SCHEMA = {
    "basis": ("n_u", "n_p"),
    "physics": ("rho0", "mu", "eta", "alpha", "T", "dt"),
    "data": ("u0", "p0", "f", "sigma", "s", "sigma_time", "s_time"),
    "sweep": ("alphas", "kind", "probes", "seed"),
    "output": ("directory", "dump_coefficients"),
}
_POSITIVE = ("rho0", "mu", "alpha", "T")
_VECTOR_DATA = ("u0", "f", "s")
_SCALAR_DATA = ("p0", "sigma")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_alphas(text: str) -> tuple:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    values = tuple(float(p) for p in parts)
    if len(values) < 3:
        raise ValueError("needs at least 3 alpha values")
    if any(not 0.0 < v < 1.0 for v in values):
        raise ValueError("alpha values must lie in (0, 1)")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("alpha values must be strictly decreasing")
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; collects every error before raising."""
    issues: list[str] = []
    seen: dict[str, int] = {}
    values: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                issues.append(f"line {lineno}: unknown section [{section}]")
                section = "?"
            continue
        if "=" not in line:
            issues.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            issues.append(f"line {lineno}: key {key!r} appears before any section")
            continue
        if section == "?":
            continue  # already reported the section itself
        if key not in _SCHEMA[section]:
            issues.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if key in seen:
            issues.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        values[key] = value

    kwargs: dict = {}

    def convert(key, conv, check=None):
        if key not in values:
            return
        lineno = seen[key]
        try:
            val = conv(values[key])
        except (ValueError, ExpressionError) as exc:
            issues.append(f"line {lineno}: key {key!r}: {exc}")
            return
        if check is not None:
            problem = check(val)
            if problem:
                issues.append(f"line {lineno}: key {key!r}: {problem}")
                return
        kwargs[key] = val

    convert("n_u", int, lambda v: None if v >= 1 else "must be >= 1")
    convert("n_p", int, lambda v: None if v >= 0 else "must be >= 0")
    for key in _POSITIVE:
        convert(key, float, lambda v: None if v > 0 else "must be positive")
    convert("eta", float, lambda v: None if v >= 0 else "must be nonnegative")
    convert(
        "dt",
        lambda s: None if s.lower() == "auto" else float(s),
        lambda v: None if v is None or v > 0 else "must be positive or 'auto'",
    )
    if "dt" in values and values["dt"].lower() == "auto":
        kwargs["dt"] = None
    convert("alphas", _parse_alphas)
    convert(
        "kind",
        str,
        lambda v: None if v in SWEEP_KINDS else f"must be one of {', '.join(SWEEP_KINDS)}",
    )
    convert("probes", int, lambda v: None if v >= 1 else "must be >= 1")
    convert("seed", int)
    convert("directory", str)
    convert("dump_coefficients", _parse_bool)

    preset_keys = {"u0": presets.VELOCITY_PRESETS, "p0": presets.PRESSURE_PRESETS}
    for key in _VECTOR_DATA + _SCALAR_DATA:
        if key not in values:
            continue
        lineno, value = seen[key], values[key]
        if value in set(preset_keys.get(key, ())) | set(_ZERO_NAMES):
            kwargs[key] = value
            continue
        try:
            (realize_vector_field if key in _VECTOR_DATA else realize_scalar_field)(value)
        except ExpressionError as exc:
            issues.append(f"line {lineno}: key {key!r}: {exc}")
            continue
        kwargs[key] = value
    for key in ("sigma_time", "s_time"):
        if key not in values:
            continue
        try:
            _time_factor(values[key])
        except ExpressionError as exc:
            issues.append(f"line {seen[key]}: key {key!r}: {exc}")
            continue
        kwargs[key] = values[key]

    if issues:
        raise ConfigError(issues)
    return RunConfig(**kwargs)


def render_config(config: RunConfig) -> str:
    """Write a config back out; parse_config(render_config(c)) == c."""
    out = []
    for section, keys in _SCHEMA.items():
        out.append(f"[{section}]")
        for key in keys:
            val = getattr(config, key)
            if key == "dt":
                text = "auto" if val is None else format(val, ".17g")
            elif key == "alphas":
                text = " ".join(format(a, ".17g") for a in val)
            elif isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, float):
                text = format(val, ".17g")
            else:
                text = str(val)
            out.append(f"{key} = {text}")
        out.append("")
    return "\n".join(out)
