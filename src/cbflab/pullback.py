"""
Pullback dynamics layer: solution cocycles, absorbing radii, attractor
sampling, semicontinuity sweeps, and the large-radius tail diagnostic.

The deterministic cocycle evolves an initial state from time ``tau`` for a
duration ``t``.  The stochastic cocycle wraps the initial state with the
conjugation factor of the shifted path, solves the pathwise system, and
unwraps at the endpoint:

    Phi(t, tau, omega, u0) = v(t + tau, tau, theta_{-tau} omega, z(tau) u0) / z(t + tau)

Attractor "samples" are endpoint clouds of tempered initial families pulled
back from increasingly distant starting times; convergence of those clouds
is diagnosed, never proved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import (
    SpectralVelocityField,
    _energy_sq,
    _hermitian_gaussian,
    _mode_box,
    _rescaled,
    constant_field,
    cutoff_xi,
    transform_inverse,
)
from .integrators import SolverConfig, Trajectory, solve
from .operators import PhysicalParameters
from .stochastic import (
    ForcingProfile,
    WienerPath,
    conjugation,
    shift_path,
    weighted_forcing_integral,
)

__all__ = [
    "EmptySetError",
    "TemperedFamily",
    "AbsorbingEstimate",
    "AttractorSample",
    "SemicontinuityRow",
    "cocycle_eval",
    "cocycle_trajectory",
    "absorbing_radius_det",
    "absorbing_radius_stoch",
    "measure_absorption",
    "sample_attractor",
    "hausdorff_semidistance",
    "semicontinuity_sweep",
    "cutoff_xi",
    "tail_mass",
]


class EmptySetError(ValueError):
    """Hausdorff semi-distance needs non-empty clouds."""


# ---------------------------------------------------------------------------
# tempered initial families


@dataclass(frozen=True)
class TemperedFamily:
    """
    Centered ball family in a fixed low-mode subspace.

    ``radius_fn`` maps pullback age ``t >= 0`` to the ball radius; growth must
    be sub-exponential, which is probed on the ladder ``{10, 20, 40, 80}`` at
    construction: each rung's ``e^{-t} rho(t)^2`` is zero or below the one
    before it, so the zero family is tempered too.  Samples are drawn
    uniformly in the ball (Gaussian direction on the low-mode
    divergence-free subspace, radius ``rho * U^(1/n)``) and are
    deterministic per ``(sampler_seed, age)``.  With
    ``include_boundary`` the family also contains one spatially constant
    state of full radius, the slowest-decaying direction.
    """

    radius_fn: Callable[[float], float]
    sample_count: int = 8
    sampler_seed: int = 0
    max_mode: int = 2
    include_boundary: bool = False

    def __post_init__(self):
        fn = self.radius_fn
        if not callable(fn):
            rho = float(fn)
            fn = lambda t: rho
            object.__setattr__(self, "radius_fn", fn)
        ladder = [10.0, 20.0, 40.0, 80.0]
        probe = [math.exp(-t) * fn(t) ** 2 for t in ladder]
        if any(b >= a and b > 0 for a, b in zip(probe, probe[1:])):
            raise ValueError("family is not tempered: e^{-t} rho(t)^2 fails to decrease on the test ladder")
        _check_sample_count(self.sample_count)

    def samples(self, domain, age) -> list:
        """Initial states for a pullback of the given age."""
        rho = float(self.radius_fn(age))
        age_bits = int(np.float64(age).view(np.uint64))
        rng = np.random.default_rng([self.sampler_seed, age_bits])
        keep = _mode_box(domain, self.max_mode)
        n_modes = int(keep.sum())
        n_dof = (domain.d - 1) * max(n_modes - 1, 0) + domain.d
        out = []
        n_random = self.sample_count - (1 if self.include_boundary else 0)
        for _ in range(max(n_random, 0)):
            field = _hermitian_gaussian(domain, rng, keep)
            out.append(_rescaled(domain, field, rho * rng.uniform() ** (1.0 / n_dof)))
        if self.include_boundary:
            out.append(constant_field(domain, [rho / math.sqrt(domain.measure)] + [0.0] * (domain.d - 1)))
        return out


def _check_sample_count(count):
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"sample_count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("sample_count must be >= 1")


# ---------------------------------------------------------------------------
# cocycles


def cocycle_eval(t, tau, omega: Optional[WienerPath], initial: SpectralVelocityField,
                 params: PhysicalParameters, profile: ForcingProfile,
                 config: SolverConfig) -> SpectralVelocityField:
    """
    Endpoint of the solution cocycle after time ``t`` starting at ``tau``.

    Without a path (``omega=None``) this integrates the deterministic system.
    With a path it performs the conjugation wrap/unwrap at ``params.epsilon``
    around a pathwise solve driven by the shifted path; with
    ``params.epsilon = 0`` both coincide bit for bit.
    """
    if t < 0:
        raise ValueError("cocycle time must be >= 0")
    if t == 0:
        return initial.copy()
    traj = cocycle_trajectory(t, tau, omega, initial, params, profile, config)
    # z = 1 without a path; z at tau + t, which the step grid may miss by roundoff
    z = 1.0 if traj.path is None else conjugation(traj.path, params.epsilon, tau + t)
    return SpectralVelocityField(initial.domain, traj.states[-1].coeffs / z)


def cocycle_trajectory(t, tau, omega, initial, params, profile, config) -> Trajectory:
    """Full trajectory behind :func:`cocycle_eval` (conjugated variables when there is a path)."""
    cfg = replace(config, t_start=tau, t_end=tau + t)
    if omega is None:
        return solve("deterministic", initial, cfg, params, profile)
    shifted = shift_path(omega, -tau)
    z_start = conjugation(shifted, params.epsilon, tau)
    wrapped = SpectralVelocityField(initial.domain, z_start * initial.coeffs)
    return solve("conjugated", wrapped, cfg, params, profile, path=shifted)


# ---------------------------------------------------------------------------
# absorbing radii


_ABSORPTION_SLACK = 1e-6  # a rung is absorbed when its largest norm^2 is at most radius_sq * (1 + slack)


@dataclass(frozen=True)
class AbsorbingEstimate:
    """
    Absorbing-ball radius (squared), with per-rung results when measured.
    ``forcing_integral_rel_error`` is the largest ``error_estimate / value``
    of its forcing integrals; above 1e-7 one missed its tolerance.
    """

    radius_sq: float
    tail_bound: float
    entry_time: Optional[float] = None
    companion_radius_sq: Optional[float] = None
    rung_max_norm_sq: Optional[tuple] = None
    rung_absorbed: Optional[tuple] = None
    horizons: Optional[tuple] = None
    forcing_integral_rel_error: float = 0.0


def _rel_error(integ) -> float:
    return integ.error_estimate / integ.value if integ.value else 0.0


def _radius(tau, omega, params, profile) -> AbsorbingEstimate:
    """
    ``M(tau, omega) = z(tau)^(-2) [1 + (1/min(mu, a)) int e^{a(s-tau)} z(s)^2 |f|^2_{V'} ds]``,
    z on the shifted path at ``params.epsilon``; without a path z = 1, the deterministic radius.
    """
    shifted = None if omega is None else shift_path(omega, -tau)
    base = 1.0 if shifted is None else conjugation(shifted, params.epsilon, tau) ** -2.0
    if profile.is_zero:
        return AbsorbingEstimate(base, 0.0)
    integ = weighted_forcing_integral(
        profile, tau, params.alpha, path=shifted, epsilon=params.epsilon, weight="z2",
    )
    term = base * math.exp(-params.alpha * tau) / min(params.mu, params.alpha) * integ.value
    return AbsorbingEstimate(base + term, integ.tail_bound, forcing_integral_rel_error=_rel_error(integ))


def absorbing_radius_det(tau, params: PhysicalParameters, profile: ForcingProfile) -> AbsorbingEstimate:
    """Deterministic radius ``1 + (1/min(mu, a)) int e^{a(s - tau)} |f|^2_{V'} ds``: :func:`_radius` at z = 1."""
    return _radius(tau, None, params, profile)


def absorbing_radius_stoch(tau, omega: WienerPath, params: PhysicalParameters,
                           profile: ForcingProfile) -> AbsorbingEstimate:
    """
    Pathwise radius ``M(tau, omega)`` of :func:`_radius`, together with the
    epsilon-free companion bound using ``exp(2 |omega|)`` weights.  The
    companion dominates the radius for every noise intensity in (0, 1].
    """
    est = _radius(tau, omega, params, profile)
    companion = math.exp(2.0 * abs(omega.value(-tau)))
    rel = est.forcing_integral_rel_error
    if not profile.is_zero:
        comp_int = weighted_forcing_integral(
            profile, tau, params.alpha, path=omega, epsilon=params.epsilon, weight="exp_abs",
        )
        companion = companion + math.exp(-params.alpha * tau) / min(params.mu, params.alpha) * comp_int.value
        rel = max(rel, _rel_error(comp_int))
    return replace(est, companion_radius_sq=companion, forcing_integral_rel_error=rel)


# ---------------------------------------------------------------------------
# absorption measurement and attractor sampling


def _endpoint_cloud(t, tau, omega, family, params, profile, config, domain):
    """Endpoints at ``tau`` of the family's samples pulled back from ``tau - t``."""
    pulled = None if omega is None else shift_path(omega, -t)
    return [
        cocycle_eval(t, tau - t, pulled, s, params, profile, config)
        for s in family.samples(domain, t)
    ]


def _horizon_clouds(horizons, tau, omega, family, params, profile, config, domain):
    """One endpoint cloud per pullback horizon; the horizons must increase strictly."""
    _check_horizons(horizons)
    return [_endpoint_cloud(t, tau, omega, family, params, profile, config, domain) for t in horizons]


def _check_horizons(horizons):
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must increase strictly")


def measure_absorption(tau, omega, family: TemperedFamily, params: PhysicalParameters,
                       profile: ForcingProfile, horizons: Sequence[float], config: SolverConfig,
                       *, domain) -> AbsorbingEstimate:
    """
    Pull the family back from ``tau - t`` for each horizon ``t``, flag each
    rung whose endpoints all lie inside the absorbing ball (``rung_absorbed``),
    and record the first rung after which every rung is absorbed.
    ``entry_time`` is None when absorption is not observed within the ladder
    (reported, not fatal).
    """
    horizons = tuple(horizons)
    if omega is None:
        est = absorbing_radius_det(tau, params, profile)
    else:
        est = absorbing_radius_stoch(tau, omega, params, profile)
    clouds = _horizon_clouds(horizons, tau, omega, family, params, profile, config, domain)
    max_norms = tuple(max(_energy_sq(domain, e.coeffs)[0] for e in ends) for ends in clouds)
    threshold = est.radius_sq * (1.0 + _ABSORPTION_SLACK)
    absorbed = tuple(m <= threshold for m in max_norms)
    entry = next((t for i, t in enumerate(horizons) if all(absorbed[i:])), None)
    return replace(est, entry_time=entry, rung_max_norm_sq=max_norms, rung_absorbed=absorbed, horizons=horizons)


@dataclass(frozen=True)
class AttractorSample:
    tau: float
    epsilon: float
    points: list
    horizons: tuple
    convergence_diag: tuple
    diag_decreasing: bool


def _distances(rows, x):
    """
    ``np.linalg.norm(rows - x, axis=1)`` for a sequence of flat rows, in its
    steps (``(v.conj() * v).real``, ``np.add.reduce``, ``sqrt``) and so to the
    bit, but one row at a time: the scratch is two rows whatever the cloud size.
    """
    diff, sq = np.empty_like(x), np.empty_like(x)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        np.subtract(row, x, out=diff)
        np.multiply(np.conjugate(diff, out=sq), diff, out=sq)
        out[i] = np.add.reduce(sq.real)
    return np.sqrt(out, out=out)


def _thin_cloud(points, cap=256):
    """Farthest-point thinning of a coefficient cloud to at most ``cap`` points."""
    if len(points) <= cap:
        return points
    flat = [p.coeffs.ravel() for p in points]
    chosen = [0]
    d_min = _distances(flat, flat[0])
    while len(chosen) < cap:
        nxt = int(np.argmax(d_min))
        chosen.append(nxt)
        d_min = np.minimum(d_min, _distances(flat, flat[nxt]))
    return [points[i] for i in chosen]


def sample_attractor(tau, omega, params: PhysicalParameters, profile: ForcingProfile,
                     horizons: Sequence[float], family: TemperedFamily, config: SolverConfig,
                     *, domain) -> AttractorSample:
    """
    Endpoint clouds of the family for increasing pullback horizons.  The
    Hausdorff distance between successive clouds is the convergence
    diagnostic; the final cloud is the attractor sample.  ``epsilon`` is
    ``params.epsilon`` with a path and 0 without one.
    """
    horizons = tuple(horizons)
    clouds = [_thin_cloud(ends) for ends in
              _horizon_clouds(horizons, tau, omega, family, params, profile, config, domain)]
    diag = tuple(
        hausdorff_semidistance(clouds[i + 1], clouds[i]) for i in range(len(clouds) - 1)
    )
    decreasing = all(b <= a + 1e-12 for a, b in zip(diag, diag[1:]))
    return AttractorSample(tau=tau, epsilon=0.0 if omega is None else params.epsilon,
                           points=clouds[-1], horizons=horizons,
                           convergence_diag=diag, diag_decreasing=decreasing)


def hausdorff_semidistance(a, b) -> float:
    """
    ``sup_{x in a} inf_{y in b} d(x, y)``; asymmetric.  Accepts lists of
    spectral fields (L^2 metric) or plain point arrays (Euclidean metric).
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("empty-set: both clouds must be non-empty")
    if isinstance(a[0], SpectralVelocityField):
        scale = math.sqrt(a[0].domain.measure)
        fa = [p.coeffs.ravel() for p in a]
        fb = [p.coeffs.ravel() for p in b]
    else:
        scale = 1.0
        fa = np.atleast_2d(np.asarray(a, dtype=float))
        fb = np.atleast_2d(np.asarray(b, dtype=float))
    worst = 0.0
    for row in fa:
        d = np.min(_distances(fb, row))
        worst = max(worst, float(d))
    return scale * worst


@dataclass(frozen=True)
class SemicontinuityRow:
    epsilon: float
    dist: float
    radius_sq: float


@dataclass(frozen=True)
class SemicontinuitySweep:
    rows: tuple
    base_radius_sq: float
    weakly_decreasing: bool
    final_is_min: bool
    forcing_integral_rel_error: float = 0.0


def _check_ladder(eps_ladder):
    if any(not (0.0 < e <= 1.0) for e in eps_ladder):
        raise ValueError("intensity ladder must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("intensity ladder must decrease strictly")


def semicontinuity_sweep(tau, omega: WienerPath, eps_ladder, params: PhysicalParameters,
                         profile: ForcingProfile, horizons, family: TemperedFamily,
                         config: SolverConfig, *, domain) -> SemicontinuitySweep:
    """
    Distance from each noisy attractor sample to the noise-free sample along
    a decreasing intensity ladder, with the pathwise absorbing radius per
    intensity.  Reports the trend flags; certifying the actual limit is
    beyond any finite ladder.
    """
    eps_ladder = list(eps_ladder)
    _check_ladder(eps_ladder)
    base = sample_attractor(tau, None, params, profile, horizons, family, config, domain=domain)
    base_est = absorbing_radius_det(tau, params, profile)
    rel = base_est.forcing_integral_rel_error
    rows = []
    for eps in eps_ladder:
        rung = replace(params, epsilon=eps)
        samp = sample_attractor(tau, omega, rung, profile, horizons, family, config, domain=domain)
        est = _radius(tau, omega, rung, profile)
        rel = max(rel, est.forcing_integral_rel_error)
        rows.append(SemicontinuityRow(epsilon=eps, dist=hausdorff_semidistance(samp.points, base.points),
                                      radius_sq=est.radius_sq))
    dists = [r.dist for r in rows]
    weakly_dec = all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(dists, dists[1:]))
    final_min = dists[-1] <= min(dists) * (1.0 + 1e-9)
    return SemicontinuitySweep(rows=tuple(rows), base_radius_sq=base_est.radius_sq,
                               weakly_decreasing=weakly_dec, final_is_min=final_min,
                               forcing_integral_rel_error=rel)


# ---------------------------------------------------------------------------
# tail mass


def tail_mass(field: SpectralVelocityField, k) -> float:
    """
    Mass of the field outside radius ``k``: quadrature of
    ``xi(|x|^2 / k^2) |u(x)|^2``.  The cutoff annulus must fit inside the box.
    """
    dom = field.domain
    _check_cutoff(k, dom.L)
    u = transform_inverse(dom, field.coeffs)
    weight = cutoff_xi(np.sum(dom.coords**2, axis=0) / k**2)
    return float(np.sum(weight * np.sum(u**2, axis=0)) * dom.dx**dom.d)


def _check_cutoff(k, L):
    if k <= 0:
        raise ValueError(f"cutoff radius must be positive, got {k}")
    if k * math.sqrt(2.0) >= L:
        raise ValueError(f"annulus-exceeds-box: need sqrt(2) k < L, got k={k}, L={L}")
