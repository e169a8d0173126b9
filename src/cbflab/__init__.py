"""
cbflab: a pseudo-spectral laboratory for damped incompressible flows with
linear (Darcy) and power-law (Forchheimer) damping, their multiplicative-noise
perturbations, and the pullback-attractor diagnostics built on top.
"""

__version__ = "0.1.0"

from .domain import (
    NormReport,
    SpectralVelocityField,
    TorusDomain,
    check_interpolation,
    inner_h,
    leray_project,
    make_domain,
    norms,
    transform_forward,
    transform_inverse,
)
from .operators import (
    PhysicalParameters,
    bilinear_B,
    monotonicity_gap,
    nonlinear_C,
    stokes_apply,
    trilinear_b,
    validate_params,
)
from .stochastic import (
    ForcingProfile,
    WienerPath,
    conjugation,
    sample_path,
    shift_path,
    verify_sublinear,
    weighted_forcing_integral,
)
from .integrators import (
    SolverConfig,
    Trajectory,
    continuity_gap,
    decay_envelope_check,
    energy_identity_residual,
    perturbation_envelope,
    solve,
    uniform_estimates_check,
)
from .pullback import (
    AbsorbingEstimate,
    AttractorSample,
    TemperedFamily,
    absorbing_radius_det,
    absorbing_radius_stoch,
    cocycle_eval,
    cocycle_trajectory,
    cutoff_xi,
    hausdorff_semidistance,
    measure_absorption,
    sample_attractor,
    semicontinuity_sweep,
    tail_mass,
)
