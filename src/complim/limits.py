"""Experiments that realize the incompressible-limit theorems numerically.

An alpha sweep runs one incompressible reference and a family of
compressible solutions on a shared time grid, then measures

  * strong velocity errors in L2(0,T;H10) and Linf(0,T;L2),
  * pressure errors in Linf(0,T;L2) after aligning means,
  * weak-convergence probes |int ((u_a - u', v)) phi dt| against a fixed
    dictionary of solenoidal directions,
  * the terminal-energy functional

        X_a = rho0 |u_a(T) - u'(T)|^2 + (alpha/rho0) |p_a(T)|^2
              + 2 mu int |u_a - u'|^2_{H10} dt + 2 eta int |div(u_a - u')|^2 dt,

whose limit rho0 (|u0|^2 - |P_J u0|^2) decides whether the convergence is
strong.  Log-log slope fits of the error columns give the empirical rates.

No trajectory is stored.  The reference and every row march in lockstep,
one chunk of Crank-Nicolson steps at a time on the shared grid: each
reference chunk is reduced into every live row's per-node scalar series of
its deviation from the reference and then dropped.  A sweep therefore holds
O(N (probes + 4)) numbers per row plus a chunk of states per system instead
of (N+1) x m trajectories.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .basis import PressureCoeffs, SampledField, VelocityCoeffs, build_basis
from .compressible import (
    CompressibleParams,
    InvalidParams,
    Trajectory,
    compressible_chunks,
    default_dt,
)
from .compressible import simulate_compressible  # noqa: F401  unused; perfbench traces it under this module
from .incompressible import (
    IncompressibleTrajectory,
    initial_pressure,
    nullspace_basis,
    stokes_chunks,
)
from .incompressible import simulate_incompressible  # noqa: F401  unused; perfbench traces it under this module
from .operators import OperatorSet, assemble, leray_project
from . import presets

__all__ = [
    "SWEEP_KINDS",
    "DEFAULT_ALPHAS",
    "ProbePair",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "RateFit",
    "x_alpha",
    "weak_probe",
    "probe_dictionary",
    "sweep_alpha",
    "fit_rate",
]

SWEEP_KINDS = ("weak", "strong_velocity", "pressure_weak", "pressure_strong")
DEFAULT_ALPHAS = tuple(10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0, -3.5))


def _require_shared_grid(times_c: np.ndarray, times_i: np.ndarray) -> None:
    if times_c.shape != times_i.shape or not np.allclose(times_c, times_i, rtol=0.0, atol=1e-12):
        raise ValueError("compressible and incompressible trajectories use different grids")


class _RowSeries:
    """Per-node scalar series of a run's deviation from the reference, filled chunk by chunk.

    With d = c - c' and dq = q - q' it holds |d|^2 (the H10 norm: the
    stiffness matrix is the identity), d'Md, |dq|, the pairing d.v with every
    probe direction and, when eta > 0, d'Ed, plus the terminal d and q.  That
    is all the error norms, x_alpha and the probes read, so a sweep row
    reduces each chunk of its march and of the reference into this object and
    stores no state.
    """

    def __init__(
        self,
        operator_set: OperatorSet,
        times: np.ndarray,
        dictionary: Sequence[ProbePair],
        eta: float,
    ):
        n = len(times)
        self.operator_set, self.times, self.dictionary = operator_set, times, dictionary
        self.h01_sq, self.l2_sq, self.pres = np.empty(n), np.empty(n), np.empty(n)
        self.signals = np.empty((len(dictionary), n))
        self.div_sq = np.empty(n) if eta > 0.0 else None
        self.d_end = self.q_end = None

    def __call__(
        self, start: int, c: np.ndarray, q: np.ndarray, c_ref: np.ndarray, q_ref: np.ndarray
    ) -> None:
        """Reduce the run's (c, q) and the reference's (c_ref, q_ref) at nodes start, start + 1, ..."""
        nodes = slice(start, start + len(c))
        d = c - c_ref
        self.h01_sq[nodes] = np.einsum("ni,ni->n", d, d)
        self.l2_sq[nodes] = np.einsum("ni,i,ni->n", d, self.operator_set.mass_diag, d)
        self.pres[nodes] = np.linalg.norm(q - q_ref, axis=1)
        for signal, pair in zip(self.signals, self.dictionary):
            signal[nodes] = d @ pair.v
        if self.div_sq is not None:
            self.div_sq[nodes] = np.einsum(
                "ni,ij,nj->n", d, self.operator_set.div_gram, d, optimize=True
            )
        self.d_end, self.q_end = d[-1].copy(), q[-1].copy()

    def x_alpha(self, params: CompressibleParams) -> float:
        t = self.times
        d_end = self.d_end
        value = (
            params.rho0 * (d_end @ (self.operator_set.mass_diag * d_end))
            + params.alpha / params.rho0 * float(self.q_end @ self.q_end)
            + 2.0 * params.mu * np.trapezoid(self.h01_sq, t)
        )
        if params.eta > 0.0:
            value += 2.0 * params.eta * np.trapezoid(self.div_sq, t)
        return float(value)


def x_alpha(
    operator_set: OperatorSet,
    params: CompressibleParams,
    traj_c: Trajectory,
    traj_i: IncompressibleTrajectory,
) -> float:
    """Terminal-energy distance functional of one compressible run to the reference."""
    _require_shared_grid(traj_c.times, traj_i.times)
    series = _RowSeries(operator_set, traj_i.times, (), params.eta)
    series(0, traj_c.c, traj_c.q, traj_i.c, traj_i.q)
    return series.x_alpha(params)


@dataclass(frozen=True)
class ProbePair:
    """One weak-convergence probe: a solenoidal direction and a time weight.

    ``phi_prime`` (the weight's derivative) enables the endpoint-corrected
    time quadrature in weak_probe; without it the plain trapezoidal value is
    reported.
    """

    v: np.ndarray  # (m_u,), in the kernel of B
    phi: Callable[[np.ndarray], np.ndarray]
    label: str
    phi_prime: Optional[Callable[[float], float]] = None


def probe_dictionary(
    operator_set: OperatorSet, k: int, T: float, seed: int
) -> list[ProbePair]:
    """Seeded dictionary of k orthonormal kernel directions, each with the time weight t^2.

    Of the candidate weights {1, t, t^2, T-t}, only t^2 yields pairings that
    stay measurable across the sweep: the constant weight telescopes through
    the kernel-projected momentum balance (mu Z' int c dt = rho0 Z'M(c0 -
    c(T)), which vanishes for gradient data), and the weights with
    phi'(0) != 0 collapse onto the order dt^2 |((u0, v))| / 6 sampling floor
    of the shared grid within two rows.  ``T`` is not used by t^2.
    """
    z = operator_set.kernel
    if z.shape[1] == 0:
        raise ValueError("cannot build probes: the solenoidal space is trivial")
    if k < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    raw = z @ rng.standard_normal((z.shape[1], k))
    q, _ = np.linalg.qr(raw)
    return [
        ProbePair(v=q[:, j].copy(), phi=lambda t: t**2, label=f"v{j}*t^2",
                  phi_prime=lambda t: 2.0 * t)
        for j in range(k)
    ]


def _check_probe_solenoidal(operator_set: OperatorSet, dictionary: Sequence[ProbePair]) -> None:
    b = operator_set.div_coupling[1:]
    for pair in dictionary:
        defect = np.linalg.norm(b @ pair.v)
        if defect > 1e-8 * max(1.0, np.linalg.norm(pair.v)):
            raise ValueError(f"probe {pair.label!r} is not solenoidal (|Bv| = {defect:.3e})")


def _probe_deltas(t: np.ndarray, signals, dictionary: Sequence[ProbePair]) -> np.ndarray:
    """|int signal phi dt| for each probe's signal, trapezoidal with the endpoint correction."""
    dt = float(t[1] - t[0])
    deltas = np.empty(len(dictionary))
    for idx, (signal, pair) in enumerate(zip(signals, dictionary)):
        value = np.trapezoid(signal * pair.phi(t), t)
        if pair.phi_prime is not None:
            # only the smooth signal * phi' part belongs in the correction; the
            # oscillatory signal-derivative part is already summed exactly by
            # the trapezoidal rule (geometric summation of the sampled modes)
            value -= dt**2 / 12.0 * (
                signal[-1] * float(pair.phi_prime(t[-1]))
                - signal[0] * float(pair.phi_prime(t[0]))
            )
        deltas[idx] = abs(value)
    return deltas


def weak_probe(
    traj_c: Trajectory,
    traj_i: IncompressibleTrajectory,
    dictionary: Sequence[ProbePair],
    operator_set: Optional[OperatorSet] = None,
) -> np.ndarray:
    """|int_0^T ((u_a - u', v)) phi dt| for every probe pair.

    Time quadrature is trapezoidal with the endpoint correction
    -dt^2/12 [signal * phi']_0^T.  Without it the sweep-wide shared dt
    leaves an alpha-independent boundary-error floor that masks the decay of
    the fastest-vanishing pairings.  Probes must stay inside the discrete
    solenoidal space; pass the operator set to have that rejected here.
    """
    _require_shared_grid(traj_c.times, traj_i.times)
    if operator_set is not None:
        _check_probe_solenoidal(operator_set, dictionary)
    d = traj_c.c - traj_i.c
    return _probe_deltas(traj_c.times, [d @ pair.v for pair in dictionary], dictionary)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line on (log alpha, log err): slope is the empirical order."""

    slope: float
    intercept: float
    residual: float


def fit_rate(alphas: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Fit the empirical convergence order from positive (alpha, error) pairs."""
    a = np.asarray(alphas, dtype=float)
    e = np.asarray(errors, dtype=float)
    if a.shape != e.shape or a.ndim != 1 or len(a) < 3:
        raise ValueError("need at least 3 (alpha, error) pairs of equal length")
    if np.any(a <= 0.0) or np.any(e <= 0.0):
        raise ValueError("rate fitting needs strictly positive entries")
    la, le = np.log(a), np.log(e)
    slope, intercept = np.polyfit(la, le, 1)
    residual = float(np.sqrt(np.mean((np.polyval([slope, intercept], la) - le) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=residual)


@dataclass(frozen=True)
class SweepConfig:
    """Description of one alpha sweep.

    ``u0``/``p0`` accept sampled fields, coefficient vectors, or preset
    names (gradient_u0, solenoidal_u0, mixed_u0, compatible_p0, zero).  The
    time step is shared across the rows and defaults to the policy of the
    smallest alpha so that row differences are not stepping artifacts.
    """

    n_u: int = 8
    n_p: int = 8
    rho0: float = 1.0
    mu: float = 1.0
    eta: float = 0.0
    T: float = 1.0
    dt: Optional[float] = None
    f: Optional[SampledField] = None
    u0: Union[SampledField, VelocityCoeffs, str, None] = None
    p0: Union[SampledField, PressureCoeffs, str, None] = None
    alphas: Sequence[float] = DEFAULT_ALPHAS
    kind: str = "strong_velocity"
    probes: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise InvalidParams(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        a = np.asarray(self.alphas, dtype=float)
        if len(a) < 3:
            raise InvalidParams("a sweep needs at least 3 alpha values for rate fitting")
        if np.any(a <= 0.0) or np.any(a >= 1.0):
            raise InvalidParams("alpha values must lie in (0, 1)")
        if np.any(np.diff(a) >= 0.0):
            raise InvalidParams("alpha values must be strictly decreasing")


@dataclass
class SweepRow:
    alpha: float
    err_vel_l2h1: float = np.nan
    err_vel_linf_l2: float = np.nan
    err_pres_linf_l2: float = np.nan
    x_alpha: float = np.nan
    probe_deltas: np.ndarray = field(default_factory=lambda: np.array([]))
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)

    @property
    def probe_max(self) -> float:
        return float(self.probe_deltas.max()) if self.probe_deltas.size else np.nan


@dataclass
class SweepResult:
    """Per-alpha error norms and fits of one sweep, ordered by decreasing alpha."""

    config: SweepConfig
    dt: float
    seed: int
    x_limit: float
    rows: list[SweepRow]
    probe_labels: list[str]
    fits: dict[str, RateFit]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    @property
    def alphas(self) -> np.ndarray:
        return self.column("alpha")


@contextlib.contextmanager
def _recording_failure(row: SweepRow):
    """Record an exception raised inside the block as the row's error instead of raising it."""
    try:
        yield
    except Exception as exc:  # row failures are recorded, not fatal
        row.error = f"{type(exc).__name__}: {exc}"


def sweep_alpha(config: SweepConfig) -> SweepResult:
    """Run the sweep: one incompressible reference plus one compressible run per alpha.

    The reference and the rows march in lockstep, one chunk of steps at a
    time: each reference chunk has its pressure mean aligned with p0 and is
    reduced into every live row's series, then dropped.  A row that fails
    leaves the lockstep and is recorded with its message instead of
    aborting the sweep; a failure of the reference aborts it.
    """
    config.validate()
    spec = build_basis(config.n_u, config.n_p)
    operator_set = assemble(spec)
    solenoidal = nullspace_basis(operator_set)

    s_field = config.f.scaled(config.rho0) if config.f is not None else None
    c0 = presets.resolve(config.u0, spec, operator_set)
    if config.kind in ("pressure_weak", "pressure_strong"):
        defect = np.linalg.norm(operator_set.div_coupling[1:] @ c0)
        if defect > 1e-8 * max(1.0, np.linalg.norm(c0)):
            raise InvalidParams(
                f"pressure sweeps need a solenoidal u0 (|B u0| = {defect:.3e})"
            )
    if config.kind == "pressure_strong":
        q0 = initial_pressure(
            spec,
            operator_set,
            solenoidal,
            VelocityCoeffs(spec, c0),
            s_field,
            rho0=config.rho0,
            mu=config.mu,
        ).values
    else:
        q0 = presets.resolve(
            config.p0, spec, operator_set, pressure=True, s=s_field, rho0=config.rho0, mu=config.mu
        )

    alphas = [float(a) for a in config.alphas]
    dt = config.dt if config.dt is not None else default_dt(min(alphas), config.n_u, config.T)

    base = dict(rho0=config.rho0, mu=config.mu, T=config.T, dt=dt, f=config.f, s=s_field)
    _, times, reference = stokes_chunks(
        spec,
        operator_set,
        solenoidal,
        CompressibleParams(eta=0.0, alpha=alphas[0], u0=VelocityCoeffs(spec, c0), **base),
    )

    dictionary = probe_dictionary(operator_set, config.probes, config.T, config.seed)
    _check_probe_solenoidal(operator_set, dictionary)

    sol_part = leray_project(operator_set, VelocityCoeffs(spec, c0)).solenoidal.values
    u0_l2_sq = c0 @ (operator_set.mass_diag * c0)
    x_limit = config.rho0 * float(u0_l2_sq - sol_part @ (operator_set.mass_diag * sol_part))

    rows = [SweepRow(alpha=alpha) for alpha in alphas]
    live = []  # (row, params, series, chunks) of every row still marching
    for row in rows:
        with _recording_failure(row):
            params = CompressibleParams(
                eta=config.eta,
                alpha=row.alpha,
                u0=VelocityCoeffs(spec, c0.copy()),
                p0=PressureCoeffs(spec, q0.copy()),
                **base,
            )
            _, row_times, _, chunks = compressible_chunks(spec, operator_set, params)
            _require_shared_grid(row_times, times)
            live.append((row, params, _RowSeries(operator_set, times, dictionary, config.eta), chunks))

    for start, _, c_ref, q_ref in reference:
        q_ref[:, 0] = q0[0]  # the recovered pressure is mean zero; align it with p0's mean
        for row, _, series, chunks in live:
            with _recording_failure(row):
                _, c, q = next(chunks)
                series(start, c, q, c_ref, q_ref)
        live = [entry for entry in live if not entry[0].failed]

    for row, params, series, _ in live:
        with _recording_failure(row):
            row.err_vel_l2h1 = float(np.sqrt(np.trapezoid(series.h01_sq, times)))
            row.err_vel_linf_l2 = float(np.sqrt(np.max(series.l2_sq)))
            row.err_pres_linf_l2 = float(np.max(series.pres))
            row.x_alpha = series.x_alpha(params)
            row.probe_deltas = _probe_deltas(times, series.signals, dictionary)

    fits: dict[str, RateFit] = {}
    ok = [r for r in rows if not r.failed]
    if len(ok) >= 3:
        for name in ("err_vel_l2h1", "err_vel_linf_l2", "err_pres_linf_l2"):
            vals = np.array([getattr(r, name) for r in ok])
            if np.all(vals > 0.0):
                fits[name] = fit_rate([r.alpha for r in ok], vals)
    return SweepResult(
        config=config,
        dt=dt,
        seed=config.seed,
        x_limit=x_limit,
        rows=rows,
        probe_labels=[p.label for p in dictionary],
        fits=fits,
    )
