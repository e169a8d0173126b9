"""
Core operators of the damped Navier-Stokes system.

* Stokes operator: mode-wise multiplication by ``|k|^2``.
* Advection ``B(u, v) = P[(u . grad) v]`` in skew-symmetric form so the
  discrete trilinear form satisfies ``b(u, v, v) = 0`` and
  ``b(u, v, w) = -b(u, w, v)`` up to roundoff on dealiased fields.
* Damping ``C(u) = P(|u|^(r-1) u)`` evaluated pointwise on the grid.
* The monotonicity gap of the damping operator.

The solvers evaluate ``B`` and ``C`` together with ``integrators._Kernel``
on the dealiased half-spectrum box; the full-spectrum forms here are its
reference.  On a box free of aliasing for quadratic products
(``3 * mode_cut < N``) the kernel takes ``B`` in the rotational form
``P[omega x u]``, which differs from the skew-symmetric form by a gradient
and so projects to the same term; on every other box it takes the
skew-symmetric form, as here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import (
    ShapeMismatchError,
    SpectralVelocityField,
    dealias_coeffs,
    inner_h,
    project_coeffs,
    transform_inverse,
)

__all__ = [
    "PhysicalParameters",
    "Admissibility",
    "validate_params",
    "stokes_apply",
    "bilinear_B",
    "trilinear_b",
    "nonlinear_C",
    "monotonicity_gap",
    "advection_raw",
    "damping_raw",
    "bilinear_estimate_ratio",
    "empirical_constants",
]


@dataclass(frozen=True)
class PhysicalParameters:
    """Coefficients of the flow model plus the noise intensity."""

    d: int
    mu: float
    alpha: float
    beta: float
    r: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("mu", "alpha", "beta", "r", "epsilon"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d}")
        if self.mu <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("mu, alpha, beta must all be positive")
        if self.r < 1:
            raise ValueError(f"damping exponent r must be >= 1, got {self.r}")
        if self.epsilon < 0:
            raise ValueError(f"noise intensity must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class Admissibility:
    """The verdict on a parameter set, and ``regime``, the case that holds: None when none does."""

    admissible: bool
    reason: str
    regime: Optional[str] = None


def validate_params(p: PhysicalParameters) -> Admissibility:
    """
    Well-posedness regimes, the one place that tells them apart: ``2d`` needs
    r >= 1; ``3d-supercritical`` is 3D with r > 3; ``3d-critical`` is 3D with
    r = 3 together with 2*beta*mu >= 1.
    """
    if p.d == 2:
        return Admissibility(True, "d=2 with r>=1 holds for any mu, beta > 0", "2d")
    if p.r > 3:
        return Admissibility(True, "d=3 with r>3 holds for any mu, beta > 0", "3d-supercritical")
    if p.r == 3:
        if 2.0 * p.beta * p.mu >= 1.0:
            return Admissibility(True, "d=3, r=3 with 2*beta*mu >= 1", "3d-critical")
        return Admissibility(
            False,
            f"d=3 critical exponent r=3 requires 2*beta*mu >= 1, got {2.0 * p.beta * p.mu:.6g}",
        )
    return Admissibility(False, f"d=3 with r={p.r} lies in the unsupported range 1 <= r < 3")


def stokes_apply(u: SpectralVelocityField) -> SpectralVelocityField:
    """Negative projected Laplacian: multiplication by ``|k|^2`` per mode."""
    return SpectralVelocityField(u.domain, u.domain.k_sq * u.coeffs)


# ---------------------------------------------------------------------------
# advection


def advection_raw(domain, u_phys, v_coeffs):
    """
    Un-projected, un-dealiased coefficients of the skew-symmetric advection
    ``1/2 [(u . grad) v + div(u x v)]`` given physical samples of ``u``.
    """
    axes = domain.spatial_axes
    nd = domain.N**domain.d
    k = domain.kvec
    ph = domain.phase
    # dv[j, i] = d v_j / d x_i on the grid
    dv = np.real(
        np.fft.ifftn(ph * (1j * k[None, :] * v_coeffs[:, None]), axes=tuple(a + 1 for a in axes))
    ) * nd
    adv = np.einsum("i...,ji...->j...", u_phys, dv)
    v_phys = transform_inverse(domain, v_coeffs)
    flux = u_phys[:, None] * v_phys[None, :]  # flux[i, j] = u_i v_j
    flux_hat = ph * np.fft.fftn(flux, axes=tuple(a + 1 for a in axes)) / nd
    div_hat = np.einsum("i...,ij...->j...", 1j * k, flux_hat)
    adv_hat = ph * np.fft.fftn(adv, axes=axes) / nd
    return 0.5 * (adv_hat + div_hat)


def bilinear_B(u: SpectralVelocityField, v: SpectralVelocityField) -> SpectralVelocityField:
    """Projected advection term ``P[(u . grad) v]`` with dealiasing."""
    if u.domain != v.domain:
        raise ShapeMismatchError("fields live on different domains")
    dom = u.domain
    u_phys = transform_inverse(dom, u.coeffs)
    raw = advection_raw(dom, u_phys, v.coeffs)
    return SpectralVelocityField(dom, project_coeffs(dom, dealias_coeffs(dom, raw)))


def trilinear_b(u, v, w) -> float:
    """``b(u, v, w) = <B(u, v), w>`` over the box."""
    return inner_h(bilinear_B(u, v), w)


# ---------------------------------------------------------------------------
# nonlinear damping


def damping_raw(domain, u_phys, r):
    """Un-projected coefficients of ``|u|^(r-1) u`` evaluated on the grid."""
    speed = np.sqrt(np.sum(u_phys**2, axis=0))
    if r == 1.0:
        w = u_phys
    else:
        w = speed ** (r - 1.0) * u_phys
    return domain.phase * np.fft.fftn(w, axes=domain.spatial_axes) / domain.N**domain.d


def nonlinear_C(u: SpectralVelocityField, r) -> SpectralVelocityField:
    """Projected damping term ``P(|u|^(r-1) u)``; the identity for r = 1."""
    if r < 1:
        raise ValueError(f"negative-r: damping exponent must be >= 1, got {r}")
    dom = u.domain
    if r == 1.0:
        # |u|^0 u = u: the identity on divergence-free dealiased fields
        return SpectralVelocityField(dom, dealias_coeffs(dom, u.coeffs))
    u_phys = transform_inverse(dom, u.coeffs)
    raw = damping_raw(dom, u_phys, float(r))
    return SpectralVelocityField(dom, project_coeffs(dom, dealias_coeffs(dom, raw)))


def monotonicity_gap(u: SpectralVelocityField, v: SpectralVelocityField, r):
    """
    Both sides of the damping monotonicity bound: returns

        lhs = <C(u) - C(v), u - v>
        rhs = 1/2 | |u|^((r-1)/2) (u-v) |^2 + 1/2 | |v|^((r-1)/2) (u-v) |^2

    On admissible exponents ``lhs >= rhs >= 0`` up to quadrature roundoff.
    """
    if u.domain != v.domain:
        raise ShapeMismatchError("fields live on different domains")
    dom = u.domain
    diff = SpectralVelocityField(dom, u.coeffs - v.coeffs)
    cu = nonlinear_C(u, r)
    cv = nonlinear_C(v, r)
    lhs = inner_h(SpectralVelocityField(dom, cu.coeffs - cv.coeffs), diff)

    u_phys = transform_inverse(dom, u.coeffs)
    v_phys = transform_inverse(dom, v.coeffs)
    d_phys = u_phys - v_phys
    d_sq = np.sum(d_phys**2, axis=0)
    su = np.sum(u_phys**2, axis=0) ** ((r - 1.0) / 2.0)
    sv = np.sum(v_phys**2, axis=0) ** ((r - 1.0) / 2.0)
    quad = dom.dx**dom.d
    rhs = 0.5 * quad * float(np.sum((su + sv) * d_sq))
    return lhs, rhs


# ---------------------------------------------------------------------------
# empirical constants of the advection estimates


def _b_ratio(u, v, w, d):
    from .domain import norms as _norms

    nu, nv, nw = _norms(u), _norms(v), _norms(w)
    b = abs(trilinear_b(u, v, w))
    ph, pg = (0.25, 0.25) if d == 2 else (0.125, 0.375)
    denom = (nu.h_norm_sq**ph * nu.grad_norm_sq**pg * nv.grad_norm_sq**0.5
             * nw.h_norm_sq**ph * nw.grad_norm_sq**pg)
    return b / denom if denom > 0 else 0.0


def bilinear_estimate_ratio(domain, n_samples=64, seed=0):
    """
    Largest observed ratio of ``|b(u, v, w)|`` to its interpolation-type
    bound over random dealiased triples.  The bound's constant is not pinned
    by theory, so this reports the empirical value.
    """
    from .domain import random_field

    worst = 0.0
    for i in range(n_samples):
        u = random_field(domain, seed=(seed, 3 * i))
        v = random_field(domain, seed=(seed, 3 * i + 1))
        w = random_field(domain, seed=(seed, 3 * i + 2))
        worst = max(worst, _b_ratio(u, v, w, domain.d))
    return worst


def empirical_constants(domain, n_samples=48, seed=0):
    """
    Measured constants for the inequalities used by the perturbation and
    continuity envelopes, inflated by a safety factor of 4:

    * ``c_l4``: ``|u|_{L^4}^2 <= c |u|^((4-d)/2) |grad u|^(d/2)``
      (the dimension-dependent interpolation bound)
    * ``c_b``:  the advection interpolation bound of :func:`bilinear_estimate_ratio`
    """
    from .domain import lebesgue_norm, norms as _norms, random_field

    c_l4 = 0.0
    for i in range(n_samples):
        u = random_field(domain, seed=(seed, 7_000 + i))
        n = _norms(u)
        denom = n.h_norm_sq ** ((4.0 - domain.d) / 4.0) * n.grad_norm_sq ** (domain.d / 4.0)
        if denom > 0:
            c_l4 = max(c_l4, lebesgue_norm(u, 4.0) ** 2 / denom)
    c_b = bilinear_estimate_ratio(domain, n_samples=n_samples, seed=seed)
    return {"c_l4": 4.0 * c_l4, "c_b": 4.0 * c_b}
