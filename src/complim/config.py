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
    alphas = 1e-1 3.16e-2 1e-2 ...   # any whitespace/comma separated decreasing list
    probes = 8
    seed = 0

    [output]
    directory = out
    dump_coefficients = false

Data entries stay text: expressions over x, y, vector fields as two
expressions separated by ';', a velocity preset name for u0 (gradient_u0,
solenoidal_u0, mixed_u0) or compatible_p0 for p0; the CLI builds the data.
``0``, ``zero`` and an empty entry are the zero field, and so is a vector of
two of them (``0 ; 0``).  An absent or empty ``s`` is the exception: it is
unset, and the run's momentum source is then rho0 f; a written zero ``s``
is the zero source.  Optional keys ``sigma_time`` and ``s_time`` hold
separable time factors (expressions over t): empty means none, and 0
switches the source off.  A time factor multiplies its field, so a nonempty
``s_time`` (``sigma_time``) with a zero or unset ``s`` (``sigma``) is an
error.  Unknown keys are rejected and all problems are reported together
with their line numbers.

An expression is exactly: decimal literals, the names x y t pi, binary
+ - * /, unary + -, parentheses, and sin()/cos() of one argument.  Python's
parser reads it and a whitelist over the syntax tree rejects the rest with a
position; an expression too long or too deeply nested to parse is an
ExpressionError as well, so a config error (exit 1).
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from functools import partial
from types import CodeType
from typing import Optional

import numpy as np

from .basis import SampledField
from .limits import DEFAULT_ALPHAS
from . import presets

__all__ = [
    "ConfigError",
    "ExpressionError",
    "ExpressionField",
    "RunConfig",
    "parse_config",
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
# expression parsing: Python's parser, then a whitelist over its syntax tree
# ---------------------------------------------------------------------------

# Python's parser would read non-ASCII names under NFKC (a fullwidth x is x),
# skip a comment and refuse a NUL without a position, so these go first
_FOREIGN_RE = re.compile(r"[^\x01-\x7f]|#")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UAdd, ast.USub)
_NAMESPACE = {"__builtins__": {}, "pi": np.pi, "sin": np.sin, "cos": np.cos}


def _position(body: str, lead: int, lineno: int, col: int) -> int:
    """Index in the unstripped text of a parser position (line from 1, column from 0)."""
    return lead + sum(len(line) + 1 for line in body.split("\n")[: lineno - 1]) + col


def _checked(body: str, lead: int, tree: ast.Expression) -> ast.Expression:
    """Reject all but numbers, x y t pi, + - * / and one-argument sin/cos; numbers become floats."""
    callees = set()
    for node in ast.walk(tree.body):
        if isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            continue  # checked with the node that holds it
        if isinstance(node, ast.Constant):
            number = _NUMBER_RE.fullmatch(ast.get_source_segment(body, node))
            if number:
                node.value = float(number.group())
                continue
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if isinstance(node.op, _OPERATORS):
                continue
        elif isinstance(node, ast.Name):
            if node.id in ("x", "y", "t", "pi") or node in callees:
                continue
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("sin", "cos"):
                if len(node.args) == 1 and not node.keywords:
                    callees.add(func)
                    continue
        pos = _position(body, lead, node.lineno, node.col_offset)
        raise ExpressionError(f"unexpected {ast.get_source_segment(body, node)!r} at position {pos}")
    return tree


@dataclass(frozen=True)
class ExpressionField:
    """Parsed arithmetic expression over x, y, t; evaluation broadcasts over arrays."""

    source: str
    code: CodeType

    def __call__(self, x, y, t=0.0):
        x = np.asarray(x, dtype=float)
        names = {"x": x, "y": np.asarray(y, dtype=float), "t": np.asarray(t, dtype=float)}
        return np.broadcast_arrays(eval(self.code, _NAMESPACE, names), x)[0]

    @property
    def uses_t(self) -> bool:
        return "t" in self.code.co_names

    @property
    def uses_xy(self) -> bool:
        return "x" in self.code.co_names or "y" in self.code.co_names


def parse_expression(text: str) -> ExpressionField:
    """Parse one expression; raises ExpressionError with the failing position."""
    foreign = _FOREIGN_RE.search(text)
    if foreign:
        raise ExpressionError(f"unexpected {foreign.group()!r} at position {foreign.start()}")
    body = text.lstrip()
    lead = len(text) - len(body)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. escapes in a string the whitelist rejects
            tree = ast.parse(body, mode="eval")
        code = compile(_checked(body, lead, tree), "<expression>", "eval")
    except SyntaxError as exc:
        pos = _position(body, lead, exc.lineno or 1, max((exc.offset or 1) - 1, 0))
        raise ExpressionError(f"{exc.msg} at position {pos}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"too long or too deeply nested at position {lead}") from None
    field = ExpressionField(source=text.strip(), code=code)
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


def _zero_entry(text: str) -> bool:
    """Whether a data entry is the zero field: a zero name, or two of them around ';'."""
    return all(part.strip() in _ZERO_NAMES for part in text.split(";", 1))


def _time_factor(expr_text: str):
    """A *_time entry -> t -> factor, or None (no factor) when it is empty; 0 is the zero factor."""
    if not expr_text.strip():
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
    return SampledField.scalar(expr, time_factor=_time_factor(time_text))


def realize_vector_field(text: str, time_text: str = "") -> Optional[SampledField]:
    """Vector data entry 'expr ; expr' -> SampledField, or None when both are zero names."""
    text = text.strip()
    if _zero_entry(text):
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
    return SampledField.of_vector(ex, ey, time_factor=_time_factor(time_text))


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
    s: str = ""  # empty: unset, so s = rho0 f; a written zero is the zero source
    sigma_time: str = ""
    s_time: str = ""
    alphas: tuple = DEFAULT_ALPHAS
    probes: int = 8
    seed: int = 0
    directory: str = "out"
    dump_coefficients: bool = False


_SCHEMA = {
    "basis": ("n_u", "n_p"),
    "physics": ("rho0", "mu", "eta", "alpha", "T", "dt"),
    "data": ("u0", "p0", "f", "sigma", "s", "sigma_time", "s_time"),
    "sweep": ("alphas", "probes", "seed"),
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


def _checked_entry(value: str, realize, names=()) -> str:
    """The entry itself, once it is one of names or realize() reads it without an error."""
    if value not in names:
        realize(value)
    return value


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
        convert(key, float, lambda v: None if 0 < v < np.inf else "must be positive and finite")
    convert("eta", float, lambda v: None if 0 <= v < np.inf else "must be nonnegative and finite")
    convert(
        "dt",
        lambda s: None if s.lower() == "auto" else float(s),
        lambda v: None if v is None or 0 < v < np.inf else "must be positive and finite or 'auto'",
    )
    convert("alphas", _parse_alphas)
    convert("probes", int, lambda v: None if v >= 1 else "must be >= 1")
    convert("seed", int, lambda v: None if v >= 0 else "must be >= 0")
    convert("directory", str)
    convert("dump_coefficients", _parse_bool)

    preset_keys = {"u0": presets.VELOCITY_PRESETS, "p0": ("compatible_p0",)}
    for key in _VECTOR_DATA + _SCALAR_DATA:
        realize = realize_vector_field if key in _VECTOR_DATA else realize_scalar_field
        names = preset_keys.get(key, ()) + _ZERO_NAMES
        convert(key, partial(_checked_entry, realize=realize, names=names))
    for key in ("sigma_time", "s_time"):
        source = key.removesuffix("_time")
        unset = _zero_entry(values.get(source, ""))  # the factor would be ignored
        convert(
            key,
            partial(_checked_entry, realize=_time_factor),
            lambda v: f"multiplies {source}, which is zero or unset" if v and unset else None,
        )

    if issues:
        raise ConfigError(issues)
    return RunConfig(**kwargs)

