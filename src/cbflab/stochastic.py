"""
Driving noise and forcing machinery.

Two-sided Brownian paths are sampled on a uniform grid anchored at
``omega(0) = 0`` and evaluated by linear interpolation.  The time shift
``(theta_s omega)(t) = omega(t + s) - omega(s)`` is implemented as a view
onto the base samples, so the group law holds exactly and the shifted path
still vanishes at zero exactly.

The conjugation factor ``z(t) = exp(-eps * omega(t))`` (:func:`conjugation`)
turns the noisy system into a pathwise deterministic one; it is positive by
construction and equals one when the noise intensity vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from .domain import SpectralVelocityField, norms as _norms

__all__ = [
    "OutOfWindowError",
    "DivergentIntegralError",
    "WienerPath",
    "conjugation",
    "ForcingProfile",
    "WeightedIntegral",
    "SublinearReport",
    "sample_path",
    "path_from_values",
    "shift_path",
    "verify_sublinear",
    "weighted_forcing_integral",
    "zero_forcing",
    "constant_forcing",
    "periodic_forcing",
    "decaying_forcing",
]


class OutOfWindowError(ValueError):
    """Evaluation time left the sampled window of the path."""


class DivergentIntegralError(ValueError):
    """The weighted forcing integral cannot be certified convergent."""


@dataclass
class WienerPath:
    """
    Scalar two-sided Brownian sample path on a uniform grid.

    ``values[j]`` holds the path at ``node_times[j] = (j - n_neg) * dt_grid``.
    ``shift`` and ``anchor`` implement accumulated time shifts: the path seen
    through this object is ``base(t + shift) - base(shift)``.
    """

    dt_grid: float
    values: np.ndarray
    n_neg: int
    shift: float = 0.0
    anchor: float = dc_field(default=0.0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.size
        self._node_times = (np.arange(n) - self.n_neg) * self.dt_grid

    def _interp_base(self, t):
        nodes = self._node_times
        t = np.asarray(t, dtype=float)
        bad = t[(t < nodes[0] - 1e-12) | (t > nodes[-1] + 1e-12)]
        if bad.size:
            raise OutOfWindowError(
                f"time {bad.flat[0]} outside sampled window [{nodes[0]}, {nodes[-1]}]"
            )
        out = np.interp(t, nodes, self.values)
        return float(out) if out.ndim == 0 else out

    def value(self, t):
        """Path value at time ``t`` (after accumulated shifts); a float for a
        scalar ``t``, an array of pointwise values for an array ``t``."""
        return self._interp_base(t + self.shift) - self.anchor

    @property
    def window(self):
        """Evaluation window of this (possibly shifted) view."""
        nodes = self._node_times
        return nodes[0] - self.shift, nodes[-1] - self.shift


def sample_path(seed, t_min, t_max, dt_grid) -> WienerPath:
    """
    Draw one Brownian path on ``[t_min, t_max]`` by cumulative sums of
    independent Gaussian increments outward from zero.  Deterministic per seed.
    """
    _check_window(t_min, t_max)
    if dt_grid <= 0:
        raise ValueError(f"invalid-range: dt_grid must be positive, got {dt_grid}")
    n_pos = int(math.ceil(t_max / dt_grid))
    n_neg = int(math.ceil(-t_min / dt_grid))
    rng = np.random.default_rng(seed)
    scale = math.sqrt(dt_grid)
    inc_pos = scale * rng.standard_normal(n_pos)
    inc_neg = scale * rng.standard_normal(n_neg)
    values = np.empty(n_neg + n_pos + 1)
    values[n_neg] = 0.0
    values[n_neg + 1 :] = np.cumsum(inc_pos)
    values[:n_neg] = -np.cumsum(inc_neg)[::-1]
    return path_from_values(values, dt_grid, n_neg)


def _check_window(t_min, t_max):
    if not (t_min < 0.0 < t_max):
        raise ValueError(f"invalid-range: need t_min < 0 < t_max, got ({t_min}, {t_max})")


def path_from_values(values, dt_grid, n_neg) -> WienerPath:
    """Path from explicit node values, with the zero node at index ``n_neg``."""
    values = np.asarray(values, dtype=float)
    if values[n_neg] != 0.0:
        raise ValueError("synthetic path must vanish at the zero node")
    return WienerPath(dt_grid=dt_grid, values=values, n_neg=n_neg)


def shift_path(path: WienerPath, s) -> WienerPath:
    """Time-shifted view sharing the base samples; re-anchored at zero."""
    shifted = replace(path, shift=path.shift + s)
    shifted.anchor = shifted._interp_base(shifted.shift)
    return shifted


def conjugation(path: WienerPath, epsilon, t):
    """``exp(-epsilon path(t))`` by ``math.exp``, so 1.0 at zero intensity: a float, or a list at an array of times."""
    w = path.value(t)
    return [math.exp(-epsilon * x) for x in w.tolist()] if np.ndim(w) else math.exp(-epsilon * w)


@dataclass(frozen=True)
class SublinearReport:
    t0_ladder: tuple
    max_ratios: tuple
    is_sublinear: bool


def verify_sublinear(path: WienerPath, t0_ladder=None) -> SublinearReport:
    """
    Report ``max |omega(t) / t|`` over ``|t| >= T0`` for a ladder of T0.

    Brownian growth is sublinear, so the ratios should shrink along the
    ladder; a linear ramp keeps them constant and is flagged.
    """
    lo, hi = path.window
    span = min(-lo, hi)
    if span < 100.0:
        raise ValueError(f"window-too-short: need >= 100 on both sides, have {span}")
    if t0_ladder is None:
        t0_ladder = (span / 100.0, span / 10.0)
    nodes = path._node_times - path.shift
    vals = path.value(nodes)
    ratios = []
    for t0 in t0_ladder:
        sel = np.abs(nodes) >= t0
        ratios.append(float(np.max(np.abs(vals[sel] / nodes[sel]))))
    decreasing = ratios[-1] < ratios[0] * (1.0 - 1e-9)
    return SublinearReport(t0_ladder=tuple(float(t) for t in t0_ladder), max_ratios=tuple(ratios),
                           is_sublinear=bool(decreasing or ratios[0] == 0.0))


# ---------------------------------------------------------------------------
# forcing profiles


# the profile kinds; the kind fixes the envelope: one, one, cos(2 pi t / period), exp(gamma t)
_FORCING_KINDS = ("zero", "constant_field", "periodic", "decaying")


@dataclass(frozen=True)
class ForcingProfile:
    """
    Time-dependent forcing ``f(t) = envelope(t) * g`` with a fixed
    divergence-free spatial template ``g``.  The kind fixes the envelope;
    only a periodic profile reads ``period``, only a decaying one ``gamma``.
    ``delta`` is the declared decay exponent in ``[0, alpha)`` under which
    the past-weighted square integral of the dual norm is finite.

    A profile is its own envelope: its call is ``envelope(t)``, and
    ``profile.envelope`` is the profile itself.
    """

    kind: str
    template: Optional[SpectralVelocityField]
    delta: float = 0.0
    period: Optional[float] = None
    gamma: float = 0.0
    vprime_sq_template: float = dc_field(default=0.0, init=False)

    def __post_init__(self):
        if self.kind not in _FORCING_KINDS:
            raise ValueError(f"unknown forcing kind {self.kind!r}; expected one of {list(_FORCING_KINDS)}")
        if self.kind != "zero" and self.template is None:
            raise ValueError(f"forcing kind {self.kind!r} needs a spatial template")
        if self.delta < 0:
            raise ValueError(f"decay exponent delta must be >= 0, got {self.delta}")
        if self.kind == "periodic":
            if self.period is None or not self.period > 0:
                raise ValueError(f"periodic forcing needs a positive period, got {self.period}")
            probe = np.array([-7.3, 0.4, 11.0])
            with np.errstate(all="ignore"):  # a tiny period overflows 2 pi t / period
                drift = np.abs(self(probe + self.period) - self(probe))
            if not np.all(drift <= 1e-9):
                raise ValueError(f"the envelope is not finite and periodic with period {self.period}")
        if self.kind in ("constant_field", "periodic") and self.delta <= 0:
            raise ValueError(f"{self.kind} forcing needs delta > 0 for the past integral to converge")
        if self.kind == "decaying" and self.delta + self.decay_rate() <= 0:
            raise ValueError("decaying forcing must satisfy delta + 2*gamma > 0")
        if self.template is not None:
            object.__setattr__(self, "vprime_sq_template", _norms(self.template).vprime_norm_sq)

    def __call__(self, t):
        """Envelope at a time (a float) or at an array of times (an array); both go
        through numpy's ufuncs, so an array call gives the bits of the calls on its elements."""
        if self.kind == "periodic":
            out = np.cos(2.0 * math.pi * t / self.period)
        elif self.kind == "decaying":
            out = np.exp(self.gamma * t)
        else:
            out = np.ones_like(t, dtype=float)
        return out if np.ndim(out) else float(out)

    @property
    def envelope(self) -> "ForcingProfile":
        """The profile, whose call is ``envelope(t)``; read only by ``perfbench/run.py::forcing_integral_rel_err``."""
        return self

    def past_sup_sq(self, t0) -> float:
        """Upper bound on ``envelope(t)^2`` for all ``t <= t0``."""
        return math.exp(2.0 * self.gamma * t0) if self.kind == "decaying" else 1.0

    def decay_rate(self) -> float:
        """Exponential decay rate of ``envelope^2`` toward minus infinity."""
        return 2.0 * self.gamma if self.kind == "decaying" else 0.0

    def vprime_sq(self, t):
        """``|f(t)|^2_{V'}`` on the times ``t``."""
        return self(t) ** 2 * self.vprime_sq_template

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


# the one "no forcing": the default profile of a solve and of its trajectory
_NO_FORCING = ForcingProfile("zero", None)


def zero_forcing() -> ForcingProfile:
    return _NO_FORCING


def constant_forcing(template, delta=0.5) -> ForcingProfile:
    return ForcingProfile("constant_field", template, delta=delta)


def periodic_forcing(template, period, delta=0.5) -> ForcingProfile:
    return ForcingProfile("periodic", template, delta=delta, period=period)


def decaying_forcing(template, gamma, delta=0.0) -> ForcingProfile:
    return ForcingProfile("decaying", template, delta=delta, gamma=gamma)


# ---------------------------------------------------------------------------
# weighted improper integrals of the forcing


# forcing quadrature: target relative error, halving cap, uniform grid of a unit weight
_QUAD_REL_TOL = 1e-7
_QUAD_MAX_HALVINGS = 4
_QUAD_UNIFORM_INTERVALS = 2048


@dataclass(frozen=True)
class WeightedIntegral:
    """
    ``value`` integrates over ``[t_cut, tau]``; ``error_estimate`` is the sum
    over the quadrature intervals of ``|S_half - S| / 15``, Simpson on each
    interval against Simpson on its two halves.  ``tail_bound`` covers
    ``(-inf, t_cut]``: without a path it is a true bound; with a path it is
    an estimate extrapolated from the log-weight slope fitted near
    ``t_cut``, because the path ends at its window.
    """

    value: float
    error_estimate: float
    tail_bound: float
    t_cut: float


def _composite_simpson(fn, edges):
    """Simpson on each interval and its halves; halve every interval until the estimate is met."""
    quarters = np.array([0.0, 0.25, 0.5, 0.75])
    for _ in range(_QUAD_MAX_HALVINGS + 1):
        h = np.diff(edges)
        x = np.append((edges[:-1, None] + h[:, None] * quarters).ravel(), edges[-1])
        y = fn(x)
        y0, y1, y2, y3 = y[:-1].reshape(-1, 4).T
        y4 = y[4::4]
        coarse = h / 6.0 * (y0 + 4.0 * y2 + y4)
        fine = h / 12.0 * (y0 + 4.0 * y1 + 2.0 * y2 + 4.0 * y3 + y4)
        value = float(np.sum(fine))
        error = float(np.sum(np.abs(fine - coarse))) / 15.0
        if error <= _QUAD_REL_TOL * abs(value):
            break
        edges = x[::2]
    return value, error


def weighted_forcing_integral(
    profile: ForcingProfile,
    tau,
    rate,
    path: Optional[WienerPath] = None,
    epsilon=0.0,
    weight="z2",
) -> WeightedIntegral:
    """
    Evaluate ``integral_{-inf}^{tau} exp(rate * xi) w(xi) |f(xi)|^2_{V'} dxi``.

    ``w`` is 1 without a path, ``z(xi)^2 = exp(-2 eps path(xi))`` for
    ``weight='z2'`` (the caller passes the appropriately shifted path), or
    ``exp(2 |path(xi - tau)|)`` for ``weight='exp_abs'``.  A unit weight is
    integrated on a uniform grid, a path weight between its own kinks (the path
    nodes, and for 'exp_abs' the zero crossings), where it is smooth; see
    :func:`_composite_simpson`.  The improper integral is
    truncated with an exponential tail term; a :class:`DivergentIntegralError`
    is raised when the decay margin closes.
    """
    if weight not in ("z2", "exp_abs"):
        raise ValueError(f"unknown weight kind {weight!r}")
    if profile.is_zero:
        return WeightedIntegral(0.0, 0.0, 0.0, tau)
    g_sq = profile.vprime_sq_template
    margin_det = rate + profile.decay_rate()
    if margin_det <= 0:
        raise DivergentIntegralError(
            f"weight rate {rate} plus envelope decay {profile.decay_rate()} is not positive"
        )
    unit_weight = path is None or (weight == "z2" and epsilon == 0.0)

    def log_weight(xi):
        if unit_weight:
            return np.zeros_like(xi)
        if weight == "z2":
            return -2.0 * epsilon * path.value(xi)
        return 2.0 * np.abs(path.value(xi - tau))

    def integrand(xi):
        return np.exp(rate * (xi - tau) + log_weight(xi)) * profile(xi) ** 2 * g_sq

    t_cut = tau - 46.0 / margin_det
    if path is not None:
        # the weight's kinks: the path nodes, seen at xi - tau for 'exp_abs'
        nodes = path._node_times - path.shift + (tau if weight == "exp_abs" else 0.0)
        t_cut = max(t_cut, nodes[0])
    if unit_weight:
        nodes = np.linspace(t_cut, tau, _QUAD_UNIFORM_INTERVALS + 1)
    kinks = nodes
    if not unit_weight and weight == "exp_abs":
        # |path| also kinks where the path crosses zero between two nodes
        v = path.values - path.anchor
        j = np.flatnonzero(v[:-1] * v[1:] < 0)
        kinks = np.sort(np.append(nodes, nodes[j] + path.dt_grid * v[j] / (v[j] - v[j + 1])))
    edges = np.concatenate([[t_cut], kinks[(kinks > t_cut) & (kinks < tau)], [tau]])
    value, error = _composite_simpson(integrand, edges)

    # extrapolate the unobserved tail: fit the asymptotic log-weight slope on
    # the outer quarter of the integration range and continue from t_cut
    picked = nodes[(nodes <= t_cut + 0.25 * (tau - t_cut)) & (nodes >= t_cut)]
    ref = np.maximum(np.abs(picked - tau), 1.0)
    slope = float(np.max(log_weight(picked) / ref, initial=0.0))
    margin_tail = margin_det - slope
    if margin_tail <= 0:
        raise DivergentIntegralError(
            f"decay margin {margin_tail:.3g} <= 0 at the truncation point; "
            "cannot certify the improper integral"
        )
    tail = g_sq * profile.past_sup_sq(t_cut) * math.exp(log_weight(t_cut))
    tail *= math.exp(rate * (t_cut - tau)) / margin_tail
    # value, error and tail all carry the exp(rate * tau) normalisation at the end
    scale = math.exp(rate * tau)
    return WeightedIntegral(scale * value, scale * error, scale * tail, t_cut)
