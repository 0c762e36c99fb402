"""Crank-Nicolson against the exact propagator of the same Galerkin ODE: an oracle that reads
no stored bits.

A compressible run integrates diag(a) y' = K y + g(t) for y = (c, q), with a = (rho0 M, alpha),
K = [-eta E - mu I, B' + alpha G; -rho0 B, 0] and the loads g(t) = (s(t), sigma(t)).  Under
s(t) = (1 + t) s and sigma(t) = (1 + t^2) sigma the loads are g0 + t g1 + t^2 g2, and y with
(1, t, t^2) appended solves a system with constant coefficients, so its exact solution is one
matrix exponential of the augmented matrix (Van Loan, "Computing integrals involving the
matrix exponential", IEEE Trans. Autom. Control 23, 1978), sampled at the nodes.  The exact
work and dissipation, the integrals of c's + q'sigma/rho0 + alpha c'Gq and of mu c'c + eta c'Ec
over [0, T], are an 8-point Gauss-Legendre rule on each interval of the coarsest grid, applied
to the same propagator.

Each run starts from rest under simulate.cfg's physics (rho0 = 1, mu = 1, alpha = 1e-2) with
T = 0.5, at STEPS.  A second-order march divides its error by 4 when its step count doubles,
so the ratio of consecutive errors, of the states at the coarsest grid's nodes and of the
summed work and dissipation series, must lie in BAND.  Measured (2 vCPUs, numpy's OpenBLAS on
two threads and on one): the states' ratios 4.000 in every case, with errors 2.2e-4 down to
1.1e-5 of their largest entry; the work's ratios 3.961 to 4.006, with errors 6.0e-7 down to
1.2e-9 relative; the dissipation's 4.000 to 4.004, with errors 1.4e-6 down to 6.4e-8.
At 128 steps the work's ratios start at 3.84, so the coarsest grid has 256 steps.  Random
initial data would keep the stiff modes out of the asymptotic range (ratios 2.2 to 3.6).

These fail it: load factors read one step late, sigma given s's time factor, and the
trajectory's sigma work read at the interval's end.  The band is never widened to pass a
change.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from complim import (
    CompressibleParams,
    SampledField,
    assemble,
    blas,
    build_basis,
    coupling_matrix,
    simulate_compressible,
)
from complim.basis import pressure_load_vector, velocity_load_vector
from complim.compressible import _step_blocks
from complim.operators import div_gram

T = 0.5
STEPS = (256, 512, 1024)
BAND = (3.9, 4.1)
# (n_u = n_p, simulate.cfg's force or none, pinned to one BLAS thread, step blocks)
CASES = {
    "n4_simulate_cfg_force": (4, True, False, 1),
    "n9_unforced_blas_threads": (9, False, False, 5),
    "n9_unforced_one_blas_thread": (9, False, True, 5),
}


def problem(eta, force):
    """simulate.cfg's physics from rest, with s = (1 + t) (cos pi y, 0.5 cos pi x) and
    sigma = (1 + t^2) cos pi x, and simulate.cfg's force as f if ``force``."""
    def fx(x, y):
        return np.cos(np.pi * y)

    def fy(x, y):
        return 0.5 * np.cos(np.pi * x)

    return CompressibleParams(
        rho0=1.0, mu=1.0, eta=eta, alpha=1e-2, T=T,
        f=SampledField.of_vector(fx, fy) if force else None,
        s=SampledField.of_vector(fx, fy, time_factor=lambda t: 1.0 + t),
        sigma=SampledField.scalar(lambda x, y: np.cos(np.pi * x), time_factor=lambda t: 1.0 + t * t),
    )


def exact(ops, params, n_steps):
    """The exact states at the nodes of the n_steps grid, (n_steps + 1, m), and the exact work
    and dissipation."""
    spec, p = ops.spec, params
    m_u, m_p = spec.m_u, spec.m_p
    m = m_u + m_p
    G = coupling_matrix(ops, p.f) if p.f else np.zeros((m_u, m_p))
    E, K = div_gram(ops, np.arange(m_u)), np.zeros((m, m))
    K[:m_u, :m_u] = -(p.mu * np.eye(m_u) + p.eta * E)
    K[:m_u, m_u:] = ops.div_coupling.T + p.alpha * G
    K[m_u:, :m_u] = -p.rho0 * ops.div_coupling
    a = np.concatenate([p.rho0 * ops.mass_diag, np.full(m_p, p.alpha)])
    s, sigma = velocity_load_vector(spec, p.s), pressure_load_vector(spec, p.sigma)
    g = np.zeros((m, 3))  # g0, g1, g2
    g[:m_u, :2] = s[:, None]
    g[m_u:, ::2] = sigma[:, None]
    # z = (y, 1, t, t^2): z' = L z
    L = np.zeros((m + 3, m + 3))
    L[:m, :m], L[:m, m:] = K / a[:, None], g / a[:, None]
    L[m + 1, m], L[m + 2, m + 1] = 1.0, 2.0
    z = np.zeros(m + 3)
    z[m] = 1.0
    dt = T / n_steps
    step = scipy.linalg.expm(L * dt)
    x, w = np.polynomial.legendre.leggauss(8)
    points = [scipy.linalg.expm(L * tau) for tau in 0.5 * dt * (x + 1.0)]
    states, work, dissipation = [z[:m]], 0.0, 0.0
    for _ in range(n_steps):
        at = np.array([P @ z for P in points])  # z at the interval's Gauss points
        c, q, t = at[:, :m_u], at[:, m_u:m], at[:, m + 1]
        power = c @ s * (1.0 + t) + q @ sigma * (1.0 + t * t) / p.rho0 + p.alpha * np.einsum("ni,ni->n", c, q @ G.T)
        work += 0.5 * dt * (w @ power)
        dissipation += 0.5 * dt * (w @ (p.mu * np.einsum("ni,ni->n", c, c) + p.eta * np.einsum("ni,ni->n", c, c @ E)))
        z = step @ z
        states.append(z[:m])
    return np.array(states), work, dissipation


def ratios(errors):
    return [float(e / f) for e, f in zip(errors, errors[1:])]


@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("n, force, pinned, blocks", CASES.values(), ids=CASES.keys())
def test_crank_nicolson_converges_at_order_two_to_the_exact_propagator(n, force, pinned, blocks, eta):
    # the unpinned case marches on the process's BLAS threads: a block a thread on two or more
    ops = assemble(build_basis(n, n))
    params = problem(eta, force)
    G = coupling_matrix(ops, params.f) if force else np.zeros((ops.spec.m_u, ops.spec.m_p))
    assert len(_step_blocks(ops.spec, eta, ops.div_coupling, G)) == blocks
    with blas.one_blas_thread(pinned):
        runs = [simulate_compressible(ops.spec, ops, dataclasses.replace(params, dt=T / k), store_states=True)
                for k in STEPS]
    states, work, dissipation = exact(ops, params, STEPS[0])
    errors = {
        "states": [np.abs(np.hstack([run.c, run.q])[:: k // STEPS[0]] - states).max() / np.abs(states).max()
                   for run, k in zip(runs, STEPS)],
        "work": [abs(run.work.sum() - work) / abs(work) for run in runs],
        "dissipation": [abs(run.dissipation.sum() - dissipation) / dissipation for run in runs],
    }
    for name, e in errors.items():
        assert all(BAND[0] <= r <= BAND[1] for r in ratios(e)), (name, e)
