"""Spectral Galerkin lab for linearized low-compressibility flow on the unit square.

The package simulates the linearized compressible system and its
incompressible Stokes limit in closed-form trigonometric bases, audits the
discrete energy identities and a-priori bounds along every run, and sweeps
the compressibility factor to measure how, and how fast, the solutions
approach the incompressible limit.
"""

from .basis import (
    BasisSpec,
    PressureCoeffs,
    SampledField,
    VelocityCoeffs,
    build_basis,
    norms,
    project_pressure,
    project_velocity,
)
from .compressible import (
    CompressibleParams,
    EnergyLedger,
    EstimateReport,
    InvalidParams,
    StepFailure,
    Trajectory,
    apriori_check,
    default_dt,
    energy_ledger,
    simulate_compressible,
)
from .incompressible import (
    EmptyKernel,
    IncompressibleTrajectory,
    initial_pressure,
    nullspace_basis,
    simulate_incompressible,
)
from .inequalities import (
    CertificateReport,
    MixedBounds,
    MixedConstants,
    ScalarTrajectory,
    mixed_bounds,
    mixed_constants,
    verify_mixed,
)
from .limits import (
    DEFAULT_ALPHAS,
    RateFit,
    SweepResult,
    SweepRow,
    fit_rate,
    probe_dictionary,
    sweep_alpha,
    weak_probe,
    x_alpha,
)
from .operators import (
    AnnihilationError,
    HelmholtzParts,
    MeanNotZero,
    OperatorSet,
    assemble,
    bogovskii,
    coupling_matrix,
    grad_inverse,
    leray_project,
)
from .config import RunConfig, ConfigError, parse_config, parse_expression

__version__ = "0.1.0"
