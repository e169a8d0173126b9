"""
Time integration of the damped flow in three forms.

* deterministic:  du/dt + mu A u + B(u) + alpha u + beta C(u) = f
* conjugated:     dv/dt + mu A v + (1/z) B(v) + alpha v + beta z^(1-r) C(v) = z f,
                  the pathwise form obtained from the noisy system through
                  v = z u with z(t) = exp(-eps omega(t))
* stratonovich:   the noisy system itself, du = [...] dt + eps u o dW

The IMEX schemes treat mu A + alpha with the exact per-mode integrating
factor exp(-(mu |k|^2 + alpha) dt) and the advection/damping terms
explicitly (two-step Adams-Bashforth after a second-order startup step).
The Stratonovich stepper is the Heun predictor-corrector on the full right
hand side, which converges to the Stratonovich solution for this
commutative scalar noise.

Every solve keeps a dense energy ledger (one row per step) that downstream
audits integrate: the energy identity residual, decay envelopes, uniform
pullback estimates, and the trajectory-level perturbation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import (
    SpectralVelocityField,
    _energy_sq,
    project_coeffs,
    transform_inverse,
)
from .operators import PhysicalParameters, validate_params
from .stochastic import ConjugationProcess, ForcingProfile, WienerPath

__all__ = [
    "BlowupError",
    "MismatchedTrajectoriesError",
    "SolverConfig",
    "Trajectory",
    "GapReport",
    "PerturbationReport",
    "solve",
    "energy_identity_residual",
    "continuity_gap",
    "perturbation_envelope",
    "decay_envelope_check",
    "uniform_estimates_check",
]

_IMEX_SCHEMES = ("imex_cn_ab2", "imex_euler")
_SCHEMES = _IMEX_SCHEMES + ("heun_stratonovich",)


class BlowupError(RuntimeError):
    """The advective stability proxy tripped or the state left finite range."""

    def __init__(self, t, max_speed, message=None):
        self.t = t
        self.max_speed = max_speed
        super().__init__(
            message or f"solution blow-up at t={t:.6g}: max |u| = {max_speed:.6g}"
        )


class MismatchedTrajectoriesError(ValueError):
    """Two trajectories do not share grid, times, or solver settings."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls; term toggles support linear-only audits."""

    dt: float
    scheme: str = "imex_cn_ab2"
    t_start: float = 0.0
    t_end: float = 1.0
    record_stride: int = 1
    include_B: bool = True
    include_C: bool = True
    include_linear: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {_SCHEMES}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    """Snapshots plus a dense per-step energy ledger."""

    system: str
    params: PhysicalParameters
    config: SolverConfig
    times: np.ndarray
    states: list
    ledger: dict
    epsilon: float = 0.0
    path: Optional[WienerPath] = None
    profile: Optional[ForcingProfile] = None

    @property
    def domain(self):
        return self.states[0].domain

    def z_at(self, t) -> float:
        if self.system != "conjugated" or self.path is None:
            return 1.0
        return math.exp(-self.epsilon * self.path.value(t))

    def reconstruct_u(self, index) -> SpectralVelocityField:
        """Undo the conjugation at snapshot ``index``: u = v / z."""
        state = self.states[index]
        if self.system != "conjugated":
            return state.copy()
        z = self.z_at(self.times[index])
        return SpectralVelocityField(state.domain, state.coeffs / z)


# ---------------------------------------------------------------------------
# right-hand side evaluation


def _ledger_row(dom, coeffs, t, profile, z, speed_sq, lr_density):
    """Norm row of the ledger from ``|u|^2`` and ``|u|^(r+1)`` on the grid."""
    h_sq, grad_sq = _energy_sq(dom, coeffs)
    if profile is None or profile.is_zero:
        f_pair = 0.0
    else:
        f_pair = profile.envelope(t) * dom.measure * float(
            np.real(np.sum(profile.template.coeffs * np.conj(coeffs)))
        )
    return {
        "h_sq": h_sq,
        "grad_sq": grad_sq,
        "lr_pow": dom.dx**dom.d * float(np.sum(lr_density)),
        "f_pair": f_pair,
        "z": z,
        "max_speed": float(np.sqrt(speed_sq.max())),
    }


def _state_aux(dom, coeffs, t, params, profile, z):
    """Ledger row of one state from its own inverse transform."""
    speed_sq = np.sum(transform_inverse(dom, coeffs) ** 2, axis=0)
    return _ledger_row(dom, coeffs, t, profile, z, speed_sq,
                       speed_sq ** ((params.r + 1.0) / 2.0))


def _half_divergence(k, flux, d):
    """``sum_i k_i F_ij`` for a symmetric flux stored as its ``i <= j`` rows."""
    div = np.zeros((d,) + flux.shape[1:], dtype=np.complex128)
    p = 0
    for i in range(d):
        for j in range(i, d):
            div[j] += k[i] * flux[p]
            if i != j:
                div[i] += k[j] * flux[p]
            p += 1
    return div


def _grid_terms(dom, coeffs, t, params, profile, z, include_B, include_C):
    """
    Grid stage of :func:`_explicit_rhs`: the ledger row of the state and the
    real rows ``[combined term (d), u_i u_j for i <= j]`` to transform
    forward (None when both nonlinear terms are off).

    The inverse transforms take the Hermitian part ``(x[m] + conj x[-m]) / 2``
    of ``x = phase * coeffs`` and of ``x = i k_j phase * coeffs`` (with ``k``
    taken at ``-m`` for the conjugate term) on the stored half, so the real
    inverse equals ``np.real(ifftn(x))`` also for non-Hermitian input and on
    the Nyquist planes.
    """
    d, N = dom.d, dom.N
    axes = dom.spatial_axes
    grid = (N,) * d
    nd = N**d
    # the two terms x[m] / 2 and conj x[-m] / 2 of the Hermitian part, one gather
    lo = (0.5 * dom.half_phase) * coeffs[..., : N // 2 + 1]
    hi = (0.5 * dom.half_phase) * np.conj(coeffs.reshape(d, -1)[:, dom.half_neg_index])
    u = np.fft.irfftn(lo + hi, s=grid, axes=axes)
    u *= nd
    speed_sq = np.sum(u**2, axis=0)
    if params.r == 1.0:
        pw, lr_density = None, speed_sq
    else:
        pw = speed_sq ** (0.5 * (params.r - 1.0))
        lr_density = pw * speed_sq
    aux = _ledger_row(dom, coeffs, t, profile, z, speed_sq, lr_density)
    if not (include_B or include_C):
        return None, aux

    stack = np.empty((d + (d * (d + 1) // 2 if include_B else 0),) + grid)
    comb = stack[:d]
    comb[...] = 0.0
    if include_B:
        # (u . grad) u one gradient row d_i u at a time
        for i in range(d):
            g = dom.half_kvec[i] * lo
            g -= dom.half_kvec_neg[i] * hi
            g *= 1j
            comb += u[i] * np.fft.irfftn(g, s=grid, axes=axes)
        comb *= -0.5 * nd / z
        p = d
        for i in range(d):
            for j in range(i, d):
                np.multiply(u[i], u[j], out=stack[p])
                p += 1
    if include_C:
        comb -= (params.beta * z ** (1.0 - params.r)) * (u if pw is None else pw * u)
    return stack, aux


def _spectral_terms(dom, stack, z, include_B):
    """
    Spectral stage of :func:`_explicit_rhs`: one real forward pass of the
    grid rows, the flux divergence on the stored half, and one conjugate
    gather for the missing half.  Returns the full, un-dealiased spectrum.
    """
    d, N = dom.d, dom.N
    half = N // 2 + 1
    out = np.fft.rfftn(stack, axes=dom.spatial_axes)
    out *= dom.half_phase / N**d
    n_half = src = out[:d]
    if include_B:
        flux = out[d:]
        n_half = n_half - (0.5j / z) * _half_divergence(dom.half_kvec, flux, d)
        src = n_half
        if dom.mode_cut == N // 2:
            # k(-m) = k(m) on a Nyquist plane, so when the dealias mask keeps
            # those planes the conjugate half needs the divergence with -k(-m)
            src = out[:d] + (0.5j / z) * _half_divergence(dom.half_kvec_neg, flux, d)
    n_hat = np.empty(dom.shape, dtype=np.complex128)
    n_hat[..., :half] = n_half
    n_hat[..., half:] = np.conj(src.reshape(d, -1)[:, dom.half_conj_index])
    return n_hat


def _explicit_rhs(dom, coeffs, t, params, profile, z, include_B, include_C):
    """
    Dealiased, projected coefficients of the explicit terms at weight z,

        -(1/z) B(u) - beta z^(1-r) C(u) + z f,

    and the ledger row of the state, by the transform method on the stored
    half of the real-transform layout: real inverse passes for ``u`` and the
    gradient rows, advection and damping combined on the grid, and one real
    forward pass of the combined term together with the symmetric flux
    ``u_i u_j``, whose divergence is the skew-symmetric half of the advection.
    """
    stack, aux = _grid_terms(dom, coeffs, t, params, profile, z, include_B, include_C)
    if stack is None:
        n_hat = np.zeros(dom.shape, dtype=np.complex128)
    else:
        n_hat = _spectral_terms(dom, stack, z, include_B)
        del stack  # free the grid rows before projecting
    if profile is not None and not profile.is_zero:
        n_hat += z * profile.value_hat(t)
    n_hat *= dom.dealias_mask
    return project_coeffs(dom, n_hat), aux


def _linear_factors(dom, params, dt, include_linear):
    if not include_linear:
        one = np.ones_like(dom.k_sq)
        return one, one
    lam = params.mu * dom.k_sq + params.alpha
    e1 = np.exp(-lam * dt)
    return e1, e1 * e1


def _imex_advance(dom, coeffs, t, dt, params, profile, zf, e1, e2, prev_rhs,
                  include_B, include_C, second_order):
    """
    One integrating-factor step.  With AB2 history the update is

        u+ = E u + dt (3/2 E N(t, u) - 1/2 E^2 N(t - dt, u_prev))

    and on startup (or for the first-order scheme) a single Heun / Euler
    step keeps the local error at O(dt^3) / O(dt^2).
    """
    n0, aux = _explicit_rhs(dom, coeffs, t, params, profile, zf(t), include_B, include_C)
    if prev_rhs is not None:
        new = e1 * coeffs + dt * (1.5 * (e1 * n0) - 0.5 * (e2 * prev_rhs))
    elif second_order:
        pred = e1 * (coeffs + dt * n0)
        n1, _ = _explicit_rhs(dom, pred, t + dt, params, profile, zf(t + dt), include_B, include_C)
        new = e1 * coeffs + 0.5 * dt * (e1 * n0 + n1)
    else:
        new = e1 * (coeffs + dt * n0)
    return new, n0, aux


def _heun_advance(dom, coeffs, t, dt, params, profile, path, epsilon,
                  include_B, include_C, include_linear):
    """Heun predictor-corrector with multiplicative noise eps u dW."""
    lam = params.mu * dom.k_sq + params.alpha if include_linear else 0.0

    def drift(c, s):
        n_hat, aux = _explicit_rhs(dom, c, s, params, profile, 1.0, include_B, include_C)
        return n_hat - lam * c, aux

    dw = path.value(t + dt) - path.value(t)
    g0, aux = drift(coeffs, t)
    pred = coeffs + dt * g0 + (epsilon * dw) * coeffs
    g1, _ = drift(pred, t + dt)
    new = coeffs + 0.5 * dt * (g0 + g1) + 0.5 * (epsilon * dw) * (coeffs + pred)
    return new, aux


# ---------------------------------------------------------------------------
# trajectory solver


def solve(system, initial: SpectralVelocityField, config: SolverConfig,
          params: PhysicalParameters, profile: Optional[ForcingProfile] = None,
          path: Optional[WienerPath] = None) -> Trajectory:
    """
    Integrate one trajectory and populate its energy ledger.

    ``system`` is ``'deterministic'``, ``'conjugated'`` or ``'stratonovich'``.
    The conjugated and noisy forms need a path; the noise intensity is read
    from ``params.epsilon``.
    """
    if system not in ("deterministic", "conjugated", "stratonovich"):
        raise ValueError(f"unknown system {system!r}")
    verdict = validate_params(params)
    if not verdict.admissible:
        raise ValueError(f"inadmissible parameters: {verdict.reason}")
    if system == "stratonovich" and config.scheme != "heun_stratonovich":
        raise ValueError("the noisy system requires the heun_stratonovich scheme")
    if system != "stratonovich" and config.scheme == "heun_stratonovich":
        raise ValueError("heun_stratonovich applies only to the noisy system")
    if system in ("conjugated", "stratonovich") and path is None:
        raise ValueError(f"system {system!r} needs a sampled path")

    dom = initial.domain
    eps = params.epsilon
    span = config.t_end - config.t_start
    n_steps = int(round(span / config.dt))
    if abs(n_steps * config.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"(t_end - t_start) = {span} is not a multiple of dt = {config.dt}")

    if system == "conjugated":
        zf = ConjugationProcess(path, eps).value
    else:
        zf = lambda s: 1.0

    e1, e2 = _linear_factors(dom, params, config.dt, config.include_linear)
    second_order = config.scheme != "imex_euler"

    cols = ("h_sq", "grad_sq", "lr_pow", "f_pair", "z", "max_speed")
    ledger = {name: np.empty(n_steps + 1) for name in cols}
    ledger["t"] = config.t_start + config.dt * np.arange(n_steps + 1)

    coeffs = initial.coeffs.copy()
    states = [SpectralVelocityField(dom, coeffs.copy())]
    snap_times = [config.t_start]
    prev_rhs = None
    cfl_scale = config.dt * dom.N / dom.L

    for i in range(n_steps):
        t = float(ledger["t"][i])
        if system == "stratonovich":
            new, aux = _heun_advance(
                dom, coeffs, t, config.dt, params, profile, path, eps,
                config.include_B, config.include_C, config.include_linear,
            )
        else:
            new, rhs, aux = _imex_advance(
                dom, coeffs, t, config.dt, params, profile, zf, e1, e2,
                prev_rhs, config.include_B, config.include_C, second_order,
            )
            prev_rhs = rhs if second_order else None
        for name in cols:
            ledger[name][i] = aux[name]
        if not np.isfinite(aux["h_sq"]):
            raise BlowupError(t, aux["max_speed"], f"non-finite energy at t={t:.6g}")
        if aux["max_speed"] * cfl_scale > 0.5:
            raise BlowupError(t, aux["max_speed"])
        coeffs = new
        if (i + 1) % config.record_stride == 0 or i + 1 == n_steps:
            states.append(SpectralVelocityField(dom, coeffs.copy()))
            snap_times.append(float(ledger["t"][i + 1]))

    t_last = float(ledger["t"][n_steps])
    aux = _state_aux(dom, coeffs, t_last, params, profile, zf(t_last))
    for name in cols:
        ledger[name][n_steps] = aux[name]
    if not np.isfinite(aux["h_sq"]):
        raise BlowupError(t_last, aux["max_speed"], f"non-finite energy at t={t_last:.6g}")

    return Trajectory(
        system=system,
        params=params,
        config=config,
        times=np.asarray(snap_times),
        states=states,
        ledger=ledger,
        epsilon=eps,
        path=path,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# energy identity audit


def _cumtrap(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def energy_identity_residual(traj: Trajectory, quadrature="trapezoid") -> np.ndarray:
    """
    Residual of the exponentially weighted energy balance along a trajectory:

        |v(t)|^2 = e^{-2a(t-t0)} |v0|^2
                   - 2 mu  int e^{2a(s-t)} |grad v|^2 ds
                   - 2 beta int e^{2a(s-t)} z^{1-r} |v|_{r+1}^{r+1} ds
                   + 2     int e^{2a(s-t)} z <f, v> ds

    evaluated per ledger row.  ``'trapezoid'`` integrates the dense ledger
    (residual O(dt^2) for the second-order scheme).  ``'exact-linear'`` is
    available when both nonlinear terms are disabled and the forcing is zero:
    the weighted integrals are then evaluated mode-wise in closed form and
    the residual drops to roundoff.
    """
    if traj.system == "stratonovich":
        raise ValueError("missing-ledger: the energy identity applies to the deterministic and conjugated forms")
    p = traj.params
    led = traj.ledger
    t = led["t"]
    h = led["h_sq"]
    alpha = p.alpha

    if quadrature == "trapezoid":
        w = np.exp(2.0 * alpha * (t - t[0]))
        i_grad = _cumtrap(w * led["grad_sq"], t)
        if traj.config.include_C:
            i_damp = _cumtrap(w * led["z"] ** (1.0 - p.r) * led["lr_pow"], t)
        else:
            i_damp = np.zeros_like(t)
        i_work = _cumtrap(w * led["z"] * led["f_pair"], t)
        rhs = np.exp(-2.0 * alpha * (t - t[0])) * (
            h[0] - 2.0 * p.mu * i_grad - 2.0 * p.beta * i_damp + 2.0 * i_work
        )
        return np.abs(h - rhs)

    if quadrature == "exact-linear":
        if traj.config.include_B or traj.config.include_C:
            raise ValueError("exact-linear quadrature requires both nonlinear terms disabled")
        if traj.profile is not None and not traj.profile.is_zero:
            raise ValueError("exact-linear quadrature requires zero forcing")
        dom = traj.domain
        c2 = np.sum(np.abs(traj.states[0].coeffs) ** 2, axis=0).ravel() * dom.measure
        ksq = dom.k_sq.ravel()
        res = np.empty_like(t)
        for i, ti in enumerate(t):
            delta = ti - t[0]
            rhs = float(np.sum(c2 * np.exp(-2.0 * alpha * delta) * (1.0 + np.expm1(-2.0 * p.mu * ksq * delta))))
            res[i] = abs(h[i] - rhs)
        return res

    raise ValueError(f"unknown quadrature {quadrature!r}")


# ---------------------------------------------------------------------------
# continuity in initial data


@dataclass(frozen=True)
class GapReport:
    times: np.ndarray
    gap_sq: np.ndarray
    envelope: np.ndarray
    case: str


def _check_compatible(a: Trajectory, b: Trajectory):
    if a.system != b.system or a.epsilon != b.epsilon:
        raise MismatchedTrajectoriesError("trajectories solve different systems")
    if a.domain != b.domain:
        raise MismatchedTrajectoriesError("trajectories live on different domains")
    if len(a.ledger["t"]) != len(b.ledger["t"]) or not np.allclose(a.ledger["t"], b.ledger["t"]):
        raise MismatchedTrajectoriesError("trajectories use different time grids")
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise MismatchedTrajectoriesError("trajectories use different snapshot strides")


def continuity_gap(traj1: Trajectory, traj2: Trajectory, params: PhysicalParameters,
                   c_l4=None) -> GapReport:
    """
    Squared gap between two solutions from different initial data, against
    the analytic growth envelope of the applicable regime:

    * 2D: Gronwall factor driven by the second trajectory's enstrophy,
      with the (empirical) interpolation constant ``c_l4``;
    * 3D, r > 3: e^{2 eta (t - t0)} with the explicit rate eta;
    * 3D, r = 3, 2 beta mu >= 1: non-increasing gap.
    """
    _check_compatible(traj1, traj2)
    times = traj1.times
    dom = traj1.domain
    gap = np.array([
        _energy_sq(dom, s1.coeffs - s2.coeffs)[0] for s1, s2 in zip(traj1.states, traj2.states)
    ])
    led_t = traj1.ledger["t"]
    gap0 = gap[0]

    if params.d == 2:
        if c_l4 is None:
            raise ValueError("the 2D envelope needs the measured interpolation constant c_l4")
        z = traj2.ledger["z"]
        rate = (c_l4**2 / (2.0 * params.mu)) * z**-2.0 * traj2.ledger["grad_sq"]
        env_dense = gap0 * np.exp(_cumtrap(rate, led_t))
        env = np.interp(times, led_t, env_dense)
        case = "2d-gronwall"
    elif params.r > 3:
        eta = (params.r - 3.0) / (2.0 * params.mu * (params.r - 1.0)) * (
            2.0 / (params.beta * params.mu * (params.r - 1.0))
        ) ** (2.0 / (params.r - 3.0))
        env = gap0 * np.exp(2.0 * eta * (times - times[0]))
        case = "3d-supercritical"
    else:
        if 2.0 * params.beta * params.mu < 1.0:
            raise ValueError("the critical 3D envelope needs 2*beta*mu >= 1")
        env = np.full_like(times, gap0)
        case = "3d-critical"
    return GapReport(times=times, gap_sq=gap, envelope=env, case=case)


# ---------------------------------------------------------------------------
# trajectory-level perturbation bound


@dataclass(frozen=True)
class PerturbationReport:
    times: np.ndarray
    gap_sq: np.ndarray
    envelope: np.ndarray


def perturbation_envelope(det_traj: Trajectory, conj_traj: Trajectory,
                          params: PhysicalParameters, c_l4=None, c_b=None) -> PerturbationReport:
    """
    Gronwall bound on ``|v_eps(t) - u(t)|^2`` assembled from the two energy
    ledgers, with every Young-inequality constant explicit.  The measured
    gap is evaluated at the shared snapshot times and must stay below the
    envelope when the inequality constants are honest upper bounds.
    """
    if det_traj.system != "deterministic" or conj_traj.system != "conjugated":
        raise MismatchedTrajectoriesError("expected one deterministic and one conjugated trajectory")
    if det_traj.domain != conj_traj.domain:
        raise MismatchedTrajectoriesError("trajectories live on different domains")
    t = det_traj.ledger["t"]
    if len(t) != len(conj_traj.ledger["t"]) or not np.allclose(t, conj_traj.ledger["t"]):
        raise MismatchedTrajectoriesError("trajectories use different time grids")

    dom = det_traj.domain
    r = params.r
    mn = min(params.mu, params.alpha)
    z = conj_traj.ledger["z"]
    h_u = det_traj.ledger["h_sq"]
    g_u = det_traj.ledger["grad_sq"]
    g_v = conj_traj.ledger["grad_sq"]
    lr_u = det_traj.ledger["lr_pow"]
    lr_v = conj_traj.ledger["lr_pow"]
    profile = det_traj.profile
    if profile is None or profile.is_zero:
        f_sq = np.zeros_like(t)
    else:
        f_sq = np.array([profile.norm_sq(ti, "vprime") for ti in t])

    q_inv = np.abs(1.0 / z - 1.0)       # |e^{eps w} - 1|
    q_fwd = np.abs(z - 1.0)             # |e^{-eps w} - 1|
    p_damp = np.abs(z ** (1.0 - r) - 1.0)

    damp_cross = 2.0 * p_damp * ((1.0 + 2.0**r) * lr_u + 2.0**r * lr_v)

    if params.d == 2:
        if c_l4 is None or c_b is None:
            raise ValueError("the 2D envelope needs the measured constants c_l4 and c_b")
        p1 = (2.0 * c_l4**2 / params.mu) * z**-2.0 * g_u + c_b * (g_u + g_v)
        p2 = (
            1.5 * c_b * q_inv ** (4.0 / 3.0) * h_u ** (1.0 / 3.0) * g_u
            + damp_cross
            + (2.0 * q_fwd**2 / mn) * f_sq
        )
    elif r > 3:
        p_exp = (r - 1.0) / 2.0
        young = (p_exp - 1.0) * p_exp ** (-p_exp / (p_exp - 1.0))
        c_quad = young * (4.0 / params.beta) ** (1.0 / (p_exp - 1.0)) * params.mu ** (-p_exp / (p_exp - 1.0))
        c_cross = young * (4.0 / params.beta) ** (1.0 / (p_exp - 1.0)) * (params.beta / 2.0) ** (p_exp / (p_exp - 1.0))
        p1 = np.full_like(t, 2.0 * (c_quad + c_cross))
        p2 = damp_cross + (1.0 / params.beta) * q_fwd**2 * g_u + (2.0 * q_fwd**2 / mn) * f_sq
    else:
        slack = 2.0 * params.mu - 1.0 / params.beta
        if np.any(f_sq > 0.0) and slack <= 1e-12:
            raise ValueError(
                "the critical 3D perturbation envelope with forcing needs 2*beta*mu > 1"
            )
        theta = min(mn, max(slack, 1e-12))
        p1 = np.full_like(t, theta)
        p2 = damp_cross + (1.0 / params.beta) * q_fwd**2 * g_u + (q_fwd**2 / theta) * f_sq

    i_p1 = _cumtrap(p1, t)
    i_p2 = _cumtrap(p2, t)
    gap = np.array([
        _energy_sq(dom, sv.coeffs - su.coeffs)[0]
        for su, sv in zip(det_traj.states, conj_traj.states)
    ])
    env_dense = (gap[0] + i_p2) * np.exp(i_p1)

    times = det_traj.times
    env = np.interp(times, t, env_dense)
    return PerturbationReport(times=times, gap_sq=gap, envelope=env)


# ---------------------------------------------------------------------------
# decay and uniform pullback estimates


def decay_envelope_check(traj: Trajectory):
    """
    Both sides of the exponential decay estimate along a deterministic run:

        e^{a(t-t0)} |u(t)|^2  <=  |u0|^2 + (1/min(mu,a)) int_{t0}^t e^{a(s-t0)} |f|_{V'}^2 ds
    """
    p = traj.params
    led = traj.ledger
    t = led["t"]
    lhs = np.exp(p.alpha * (t - t[0])) * led["h_sq"]
    if traj.profile is None or traj.profile.is_zero:
        forcing = np.zeros_like(t)
    else:
        forcing = np.array([traj.profile.norm_sq(ti, "vprime") for ti in t])
    rhs = led["h_sq"][0] + _cumtrap(np.exp(p.alpha * (t - t[0])) * forcing, t) / min(p.mu, p.alpha)
    return lhs, rhs


def uniform_estimates_check(traj: Trajectory, tau, past_integral):
    """
    The three uniform pullback bounds along a conjugated trajectory solved on
    ``[tau - t, tau]`` with the shifted path.  ``past_integral`` is the value
    of ``int_{-inf}^{tau-t} e^{a xi} z(xi)^2 |f(xi)|_{V'}^2 d xi`` supplied by
    the caller (the forcing-integral evaluator with the same shifted path).

    Returns a dict of ``(lhs, rhs)`` series over the ledger grid plus the
    age-precondition flag ``e^{-a t} |v0|^2 <= 1``.
    """
    p = traj.params
    led = traj.ledger
    t = led["t"]
    mn = min(p.mu, p.alpha)
    age = tau - t[0]
    precondition = math.exp(-p.alpha * age) * led["h_sq"][0] <= 1.0

    if traj.profile is None or traj.profile.is_zero:
        forcing = np.zeros_like(t)
    else:
        forcing = np.array([traj.profile.norm_sq(ti, "vprime") for ti in t])
    w = np.exp(p.alpha * t)
    i_force = past_integral + _cumtrap(w * led["z"] ** 2 * forcing, t)

    h_bound = np.exp(p.alpha * (tau - t)) + np.exp(-p.alpha * t) / mn * i_force
    i_grad = _cumtrap(w * led["grad_sq"], t)
    grad_bound = math.exp(p.alpha * tau) / p.mu + i_force / (p.mu * mn)
    i_damp = _cumtrap(w * led["z"] ** (1.0 - p.r) * led["lr_pow"], t)
    damp_bound = math.exp(p.alpha * tau) / (2.0 * p.beta) + i_force / (2.0 * p.beta * mn)

    return {
        "precondition": precondition,
        "h": (led["h_sq"], h_bound),
        "grad": (i_grad, grad_bound),
        "damp": (i_damp, damp_bound),
    }
