"""Experiments that realize the incompressible-limit theorems numerically.

An alpha sweep takes one problem, the CompressibleParams a single run
takes, and solves it at each alpha: one incompressible reference and a
family of compressible solutions on a shared time grid.  It then measures

  * strong velocity errors in L2(0,T;H10) and Linf(0,T;L2),
  * pressure errors in Linf(0,T;L2) after aligning means,
  * weak-convergence probes |int ((u_a - u', v)) t^2 dt| for each row v of a
    seeded (k, m_u) array of orthonormal solenoidal directions,
  * the terminal-energy functional

        X_a = rho0 |u_a(T) - u'(T)|^2 + (alpha/rho0) |p_a(T)|^2
              + 2 mu int |u_a - u'|^2_{H10} dt + 2 eta int |div(u_a - u')|^2 dt,

whose limit rho0 (|u0|^2 - |P_J u0|^2) decides whether the convergence is
strong.  Log-log slope fits of the error columns give the empirical rates.
Which statement the rows test follows from the data alone: whether u0 is
solenoidal, and whether p0 is then its compatible Stokes pressure.

The rows are independent marches that share only the reference, so they
are split into runs of consecutive alphas, one per usable CPU, and each run
marches in a forked worker process on one BLAS thread.  A worker marches its
own copy of the reference and its rows in lockstep, one chunk of
Crank-Nicolson steps at a time on the shared grid: each reference chunk is
reduced into every live row's per-node scalar series of its deviation from
the reference and then dropped.  No trajectory is stored.  A worker holds
each row's two m x m step matrices and probes + 3 numbers per node (one
more when eta > 0), and a chunk of states per system; the reference steps
its modes elementwise and holds only its pressure map.  It reads
the caller's operators through copy-on-write pages and sends back only its
finished rows; the caller holds the operators and waits.  A row's bits
therefore depend neither on the number of workers nor on the caller's BLAS
threads.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from typing import Callable, NoReturn, Sequence

import numpy as np

from . import csvio
from .basis import PressureCoeffs, VelocityCoeffs, coefficients_of
from .blas import one_blas_thread
from .compressible import (
    CompressibleParams,
    InvalidParams,
    Trajectory,
    compressible_chunks,
    default_dt,
    stored_states,
)
from .compressible import simulate_compressible  # noqa: F401  unused; perfbench traces it under this module
from .incompressible import IncompressibleTrajectory, nullspace_basis, stokes_chunks
from .incompressible import simulate_incompressible  # noqa: F401  unused; perfbench traces it under this module
from .operators import OperatorSet, leray_project
from .operators import assemble  # noqa: F401  unused; perfbench traces it under this module

__all__ = [
    "DEFAULT_ALPHAS",
    "SweepRow",
    "SweepResult",
    "RateFit",
    "x_alpha",
    "weak_probe",
    "probe_dictionary",
    "sweep_alpha",
    "sweep_workers",
    "fit_rate",
]

DEFAULT_ALPHAS = tuple(10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0, -3.5))


def _require_shared_grid(times_c: np.ndarray, times_i: np.ndarray) -> None:
    if times_c.shape != times_i.shape or not np.allclose(times_c, times_i, rtol=0.0, atol=1e-12):
        raise ValueError("compressible and incompressible trajectories use different grids")


class _RowSeries:
    """Per-node scalar series of a run's deviation from the reference, filled chunk by chunk.

    With d = c - c' and dq = q - q' it holds |d|^2 (the H10 norm: the
    stiffness matrix is the identity), d'Md, |dq|, the pairing d.v with every
    probe row v and, when eta > 0, d'Ed, plus the terminal d and q.  That
    is all the error norms, x_alpha and the probes read, so a sweep row
    reduces each chunk of its march and of the reference into this object and
    stores no state.
    """

    def __init__(
        self, operator_set: OperatorSet, times: np.ndarray, probes: np.ndarray, eta: float
    ):
        n = len(times)
        self.operator_set, self.times, self.probes = operator_set, times, probes
        self.h01_sq, self.l2_sq, self.pres = np.empty(n), np.empty(n), np.empty(n)
        self.signals = np.empty((len(probes), n))
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
        for signal, v in zip(self.signals, self.probes):
            signal[nodes] = d @ v
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
    """Terminal-energy distance functional of one compressible run, its states stored, to the reference."""
    _require_shared_grid(traj_c.times, traj_i.times)
    series = _RowSeries(operator_set, traj_i.times, (), params.eta)
    series(0, *stored_states(traj_c), traj_i.c, traj_i.q)
    return series.x_alpha(params)


def probe_dictionary(operator_set: OperatorSet, k: int, seed: int) -> np.ndarray:
    """Seeded (k, m_u) array of orthonormal kernel directions, one probe per row.

    Every probe carries the time weight t^2.  Of the candidate weights
    {1, t, t^2, T-t}, only t^2 yields pairings that stay measurable across
    the sweep: the constant weight telescopes through the kernel-projected
    momentum balance (mu Z' int c dt = rho0 Z'M(c0 - c(T)), which vanishes
    for gradient data), and the weights with phi'(0) != 0 collapse onto the
    order dt^2 |((u0, v))| / 6 sampling floor of the shared grid within two
    rows.  InvalidParams unless 1 <= k <= dim V_h and seed >= 0; EmptyKernel if V_h = {0}.
    """
    z = nullspace_basis(operator_set)
    if seed < 0:
        raise InvalidParams(f"seed = {seed} must be >= 0")
    if not 1 <= k <= z.shape[1]:
        raise InvalidParams(
            f"probes = {k} must lie between 1 and the dimension {z.shape[1]} of the "
            "discrete solenoidal space"
        )
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(z @ rng.standard_normal((z.shape[1], k)))
    return np.ascontiguousarray(q.T)


def _probe_deltas(t: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """|int signal t^2 dt| for each row of signals, trapezoidal with the endpoint correction."""
    dt = float(t[1] - t[0])
    # only the smooth signal * (t^2)' part belongs in the correction; the
    # oscillatory signal-derivative part is already summed exactly by the
    # trapezoidal rule (geometric summation of the sampled modes)
    value = np.trapezoid(signals * t**2, t, axis=1) - dt**2 / 12.0 * (
        signals[:, -1] * (2.0 * t[-1]) - signals[:, 0] * (2.0 * t[0])
    )
    return np.abs(value)


def weak_probe(
    traj_c: Trajectory,
    traj_i: IncompressibleTrajectory,
    probes: np.ndarray,
    operator_set: OperatorSet,
) -> np.ndarray:
    """|int_0^T ((u_a - u', v)) t^2 dt| for every row v of probes.

    Time quadrature is trapezoidal with the endpoint correction
    -dt^2/12 [signal * 2t]_0^T.  Without it the sweep-wide shared dt leaves
    an alpha-independent boundary-error floor that masks the decay of the
    fastest-vanishing pairings.  Probes must lie in the discrete solenoidal
    space of operator_set, and traj_c must hold its states; ValueError otherwise.
    """
    _require_shared_grid(traj_c.times, traj_i.times)
    b = operator_set.div_coupling[1:]
    for j, v in enumerate(probes):
        defect = np.linalg.norm(b @ v)
        if defect > 1e-8 * max(1.0, np.linalg.norm(v)):
            raise ValueError(f"probe {j} is not solenoidal (|Bv| = {defect:.3e})")
    series = _RowSeries(operator_set, traj_i.times, probes, 0.0)
    series(0, *stored_states(traj_c), traj_i.c, traj_i.q)
    return _probe_deltas(traj_c.times, series.signals)


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

    params: CompressibleParams
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


def _require_finite(row: SweepRow, x_limit: float) -> None:
    """Raise ValueError at the first value of the row's sweep.csv line or probe deltas not finite."""
    line = zip(csvio.SWEEP_HEADER, csvio.sweep_line(row, x_limit))
    named = [(f"sweep.csv: {column}", value) for column, value in line]
    named += [(f"probe_deltas.csv: probe {k}", delta) for k, delta in enumerate(row.probe_deltas)]
    for name, value in named:
        if not np.isfinite(value):
            raise ValueError(f"{name} is {csvio.fmt17(value)}")


def sweep_workers(rows: int) -> int:
    """The worker processes a sweep of ``rows`` alphas forks: one per usable CPU, at most one per row."""
    return min(rows, len(os.sched_getaffinity(0)))


def _march_rows(
    operator_set: OperatorSet,
    params: CompressibleParams,
    alphas: Sequence[float],
    directions: np.ndarray,
) -> list[SweepRow]:
    """The finished rows at ``alphas``, marched in lockstep with their own Stokes reference.

    ``params`` carries the sweep's explicit dt, so every row and the
    reference share one time grid, whichever alphas they hold.  Each
    reference chunk has its pressure mean aligned with p0 and is reduced
    into every live row's series, then dropped.  A row that fails leaves the
    lockstep and is recorded with its message; a failure of the reference
    raises.
    """
    _, times, reference = stokes_chunks(operator_set, replace(params, alpha=alphas[0]))
    q0 = params.p0.values
    rows = [SweepRow(alpha=alpha) for alpha in alphas]
    live = []  # (row, row_params, series, chunks) of every row still marching
    for row in rows:
        with _recording_failure(row):
            row_params = replace(params, alpha=row.alpha)
            # the same explicit dt and T give the row the reference's time grid
            _, _, _, chunks = compressible_chunks(operator_set, row_params)
            series = _RowSeries(operator_set, times, directions, params.eta)
            live.append((row, row_params, series, chunks))

    for start, _, c_ref, q_ref in reference:
        q_ref[:, 0] = q0[0]  # the recovered pressure is mean zero; align it with p0's mean
        for row, _, series, chunks in live:
            with _recording_failure(row):
                _, c, q = next(chunks)
                series(start, c, q, c_ref, q_ref)
        live = [entry for entry in live if not entry[0].failed]

    for row, row_params, series, _ in live:
        with _recording_failure(row):
            row.err_vel_l2h1 = float(np.sqrt(np.trapezoid(series.h01_sq, times)))
            row.err_vel_linf_l2 = float(np.sqrt(np.max(series.l2_sq)))
            row.err_pres_linf_l2 = float(np.max(series.pres))
            row.x_alpha = series.x_alpha(row_params)
            row.probe_deltas = _probe_deltas(times, series.signals)
    return rows


def _picklable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError with its message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # any exception can fail to pickle or to rebuild, each in its own way
        return RuntimeError(str(exc))
    return exc


def _worker(march: Callable[[Sequence[float]], list[SweepRow]], group, write: int) -> NoReturn:
    """Body of a forked worker: march the group on one BLAS thread, send its rows or error, leave."""
    code = 1
    try:
        with one_blas_thread():
            try:
                outcome = march(group)
            except Exception as exc:  # the reference failed; the caller raises it
                outcome = _picklable(exc)
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)  # never return into the caller's stack, nor run its exit handlers


def _march_in_workers(
    march: Callable[[Sequence[float]], list[SweepRow]], groups: list[Sequence[float]]
) -> list[list[SweepRow]]:
    """``[march(group) for group in groups]``, each call in its own forked worker process.

    The workers inherit everything march reads and send back only their
    finished rows.  A reference failure in a worker is raised here, the
    lowest group's first.  A worker that ends without a result, killed by a
    signal say, gives each of its rows that cause as its error.  No worker
    outlives the call: on any way out the ones still running are killed and
    every one is reaped.
    """
    running = {}  # pid -> read end of the worker's pipe, for every worker not yet reaped
    outcomes = []
    try:
        for group in groups:
            read, write = os.pipe()
            # no thread runs across the fork: OpenBLAS joins its own in a
            # pthread_atfork handler and starts them again when next needed
            pid = os.fork()
            if pid == 0:
                _worker(march, group, write)
            os.close(write)
            running[pid] = open(read, "rb")
        for group, (pid, pipe) in zip(groups, list(running.items())):
            payload = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                cause = (
                    f"killed by signal {-code} ({signal.strsignal(-code)})"
                    if code < 0
                    else f"exited with status {code}"
                )
                outcomes.append([SweepRow(alpha=a, error=f"worker process {cause}") for a in group])
                continue
            outcome = pickle.loads(payload)  # written by the worker forked above
            if isinstance(outcome, Exception):
                raise outcome
            outcomes.append(outcome)
    finally:
        for pid, pipe in running.items():
            pipe.close()
            # an interrupt between a worker's reaping and its removal from running leaves a stale pid
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes


def sweep_alpha(
    operator_set: OperatorSet,
    params: CompressibleParams,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    probes: int = 8,
    seed: int = 0,
) -> SweepResult:
    """Run the sweep: one incompressible reference plus one compressible run per alpha.

    ``params`` is the problem, the same one a single run takes; only its
    alpha is swept.  Every row and the reference share one time step:
    ``params.dt``, or the default policy of the smallest alpha, so that row
    differences are not stepping artifacts.

    The rows are split into sweep_workers(len(alphas)) runs of consecutive
    alphas, each marched in a forked worker process on one BLAS thread with
    its own copy of the reference.  A row that fails, whose worker ends
    without a result, or one of whose reported values (its sweep.csv line,
    x_limit included, and its probe deltas) is not finite, is recorded with
    its message instead of aborting the sweep, and left out of the fits; a
    failure of the reference aborts it.
    """
    a = np.asarray(alphas, dtype=float)
    if len(a) < 3:
        raise InvalidParams("a sweep needs at least 3 alpha values for rate fitting")
    if np.any(a <= 0.0) or np.any(a >= 1.0):
        raise InvalidParams("alpha values must lie in (0, 1)")
    if np.any(np.diff(a) >= 0.0):
        raise InvalidParams("alpha values must be strictly decreasing")
    spec = operator_set.spec
    directions = probe_dictionary(operator_set, probes, seed)

    c0 = coefficients_of(spec, params.u0)
    q0 = coefficients_of(spec, params.p0, pressure=True)

    alphas = [float(alpha) for alpha in alphas]
    dt = params.dt if params.dt is not None else default_dt(min(alphas), spec.n_u, params.T)
    params = replace(params, dt=dt, u0=VelocityCoeffs(spec, c0), p0=PressureCoeffs(spec, q0))

    sol_part = leray_project(operator_set, params.u0).solenoidal.values
    u0_l2_sq = c0 @ (operator_set.mass_diag * c0)
    x_limit = params.rho0 * float(u0_l2_sq - sol_part @ (operator_set.mass_diag * sol_part))

    k = sweep_workers(len(alphas))
    groups = [alphas[len(alphas) * i // k : len(alphas) * (i + 1) // k] for i in range(k)]

    def march(group: Sequence[float]) -> list[SweepRow]:
        return _march_rows(operator_set, params, group, directions)

    rows = [row for group_rows in _march_in_workers(march, groups) for row in group_rows]
    for row in rows:
        if not row.failed:
            with _recording_failure(row):
                _require_finite(row, x_limit)

    fits: dict[str, RateFit] = {}
    ok = [r for r in rows if not r.failed]
    if len(ok) >= 3:
        for name in ("err_vel_l2h1", "err_vel_linf_l2", "err_pres_linf_l2"):
            vals = np.array([getattr(r, name) for r in ok])
            if np.all(vals > 0.0):
                fits[name] = fit_rate([r.alpha for r in ok], vals)
    return SweepResult(
        params=params,
        seed=seed,
        x_limit=x_limit,
        rows=rows,
        probe_labels=[f"v{j}*t^2" for j in range(len(directions))],
        fits=fits,
    )
