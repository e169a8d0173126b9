"""Time integration: step rules, energy ledger audits, analytic envelopes."""

import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import cbflab.integrators as integrators

from cbflab.domain import (
    SpectralVelocityField,
    _box_full,
    _box_part,
    _energy_sq,
    _project,
    constant_field,
    dealias_coeffs,
    field_from_physical,
    make_domain,
    norms,
    project_coeffs,
    random_field,
    transform_inverse,
    zero_field,
)
from cbflab.integrators import (
    BlowupError,
    MismatchedTrajectoriesError,
    OutOfBoxError,
    SolverConfig,
    continuity_gap,
    decay_envelope_check,
    energy_identity_residual,
    perturbation_envelope,
    solve,
    uniform_estimates_check,
    _LEDGER,
    _Kernel,
    _initial_box,
)
from cbflab.operators import (
    PhysicalParameters,
    advection_raw,
    damping_raw,
    empirical_constants,
)
from cbflab.stochastic import (
    OutOfWindowError,
    conjugation,
    constant_forcing,
    periodic_forcing,
    sample_path,
    shift_path,
    weighted_forcing_integral,
    zero_forcing,
)
from cbflab.domain import single_mode_field


PARAMS_2D = PhysicalParameters(2, 1.0, 1.0, 1.0, 3.0)


def params_with_eps(eps, base=PARAMS_2D):
    return PhysicalParameters(base.d, base.mu, base.alpha, base.beta, base.r, eps)


def with_ledger(traj, **columns):
    """``traj`` with constant ledger columns in place of the solved ones: its envelopes have a closed form."""
    t = traj.ledger["t"]
    return dataclasses.replace(traj, ledger=dict(traj.ledger, **{k: np.full_like(t, v) for k, v in columns.items()}))


def closed_form_envelope(rep, rate, source):
    """``(gap0 + source (t - t0)) exp(rate (t - t0))``: the Gronwall envelope of constant rate and source."""
    age = rep.times - rep.times[0]
    return (rep.gap_sq[0] + source * age) * np.exp(rate * age)


def shear(dom, *modes):
    """The shear ``(f(x_1), 0)`` of unit cosine modes ``[0, m]``: it has no self-advection."""
    return SpectralVelocityField(dom, sum(single_mode_field(dom, [0, m]).coeffs for m in modes))


def forced_response(lam, t_end, period, path=None, eps=0.0):
    """
    ``int_0^T exp(-lam (T - s)) z(s) cos(w s) ds`` at ``w = 2 pi / period``.
    Without a path ``z = 1`` and the integral has a closed form; with one,
    ``z = exp(-eps W)`` is smooth between the path nodes, and 16-point
    Gauss-Legendre on each node interval meets roundoff.
    """
    w = 2.0 * math.pi / period
    if path is None:
        return (lam * math.cos(w * t_end) + w * math.sin(w * t_end) - lam * math.exp(-lam * t_end)) / (lam**2 + w**2)
    edges = np.append(np.arange(0.0, t_end, path.dt_grid), t_end)
    x, wts = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s = (mid[:, None] + half[:, None] * x).ravel()
    f = np.exp(-lam * (t_end - s) - eps * path.value(s)) * np.cos(w * s)
    return float(np.sum((half[:, None] * wts).ravel() * f))


def shear_error(system, u0, dt, params, path=None, t_end=1.0, profile=None):
    """
    Largest relative error over the modes of the shear ``u0`` of a solve
    against its closed form.  At ``r = 1`` the damping is ``beta u``, so each
    mode decays at its own rate, ``u(t) = u0 exp(-(mu |k|^2 + alpha + beta) t)``,
    times ``exp(eps W(t))`` in the noisy system; in the conjugated one
    ``z^(1-r) = 1``.  A periodic ``profile`` whose template lies in the modes
    of ``u0``, all of one ``|k|``, adds its template times
    :func:`forced_response`; the forced noisy system has no such form.
    """
    cfg = SolverConfig(dt=dt, t_end=t_end, record_stride=10**9)
    end = solve(system, u0, cfg, params, profile or zero_forcing(), path=path).states[-1].coeffs
    modes = u0.coeffs != 0
    lam = params.mu * u0.domain.k_sq + params.alpha + params.beta
    growth = -lam * t_end
    if system == "stratonovich":
        growth += params.epsilon * (path.value(t_end) - path.value(0.0))
    exact = np.exp(growth) * u0.coeffs
    if profile is not None:
        assert system != "stratonovich" and np.all(profile.template.coeffs[~modes] == 0)
        (lam,) = np.unique(lam[modes.any(axis=0)])
        eps = params.epsilon if system == "conjugated" else 0.0
        exact = exact + forced_response(lam, t_end, profile.period, path, eps) * profile.template.coeffs
    return float(np.max(np.abs(end - exact)[modes] / np.abs(exact)[modes]))


class TestStepping:
    def test_exact_linear_factor_single_mode(self):
        dom = make_domain(2, math.pi, 16)
        u = single_mode_field(dom, [0, 1], amplitude=0.3)
        cfg = SolverConfig(dt=0.02, t_start=0.0, t_end=0.02, include_B=False, include_C=False)
        traj = solve("deterministic", u, cfg, PARAMS_2D, zero_forcing())
        factor = math.exp(-(PARAMS_2D.mu + PARAMS_2D.alpha) * 0.02)
        assert np.allclose(traj.states[-1].coeffs, factor * u.coeffs, rtol=1e-13)

    def test_zero_stays_zero(self):
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1)
        traj = solve("deterministic", zero_field(dom), cfg, PARAMS_2D, zero_forcing())
        assert all(np.all(s.coeffs == 0.0) for s in traj.states)

    def test_unforced_energy_monotone(self):
        dom = make_domain(2, math.pi, 24)
        u0 = random_field(dom, seed=1, amplitude=0.8)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=1.0)
        traj = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        assert np.all(np.diff(traj.ledger["h_sq"]) <= 1e-14)

    def test_gronwall_decay_oracle(self):
        # f = 0: |u(t)|^2 below the analytic envelope e^{-a t} |u0|^2
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=2, amplitude=0.6)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=2.0)
        traj = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        led = traj.ledger
        env = led["h_sq"][0] * np.exp(-PARAMS_2D.alpha * (led["t"] - led["t"][0]))
        assert np.all(led["h_sq"] <= env * (1 + 1e-12))

    def test_decay_envelope_with_forcing(self):
        dom = make_domain(2, math.pi, 16)
        g = single_mode_field(dom, [1, 0], amplitude=0.4)
        prof = constant_forcing(g, delta=0.5)
        u0 = random_field(dom, seed=3, amplitude=0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=2.0)
        traj = solve("deterministic", u0, cfg, PARAMS_2D, prof)
        lhs, rhs = decay_envelope_check(traj)
        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)

    def test_conjugated_zero_intensity_bitwise(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=4, amplitude=0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.5)
        det = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        path = sample_path(9, -2.0, 2.0, 2e-3)
        conj = solve("conjugated", u0, cfg, params_with_eps(0.0), zero_forcing(), path=path)
        for a, b in zip(det.states, conj.states):
            assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("system", ["conjugated", "stratonovich"])
    def test_zero_intensity_needs_no_path(self, system):
        # without a path the solve takes z = 1 and dW = 0: the bits of the solve that reads one
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=4, amplitude=0.5)
        prof = periodic_forcing(random_field(dom, seed=5, amplitude=0.3), 0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.1, record_stride=10)
        given = solve(system, u0, cfg, params_with_eps(0.0), prof, path=sample_path(9, -2.0, 2.0, 2e-3))
        pathless = solve(system, u0, cfg, params_with_eps(0.0), prof)
        assert pathless.path is None and len(pathless.states) == 6
        for name in _LEDGER:
            assert given.ledger[name].tobytes() == pathless.ledger[name].tobytes(), name
        for a, b in zip(given.states, pathless.states):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_conjugation_factor_per_node(self):
        # one path evaluation per solve gives the scalar process's value at every node
        dom = make_domain(2, math.pi, 16)
        path = shift_path(sample_path(11, -2.0, 2.0, 3e-3), -0.4)
        cfg = SolverConfig(dt=2e-3, t_start=0.1, t_end=0.3)
        traj = solve("conjugated", random_field(dom, seed=4, amplitude=0.5), cfg, params_with_eps(0.6),
                     zero_forcing(), path=path)
        assert traj.ledger["z"].tolist() == [conjugation(path, 0.6, t) for t in traj.ledger["t"].tolist()]

    # each id names the system and the step rule it takes
    @pytest.mark.parametrize("system", ["conjugated", "stratonovich"],
                             ids=["conjugated-imex_cn_ab2", "stratonovich-heun_stratonovich"])
    def test_short_path_window_fails_before_the_first_step(self, system, monkeypatch):
        calls = []
        monkeypatch.setattr(integrators, "_Kernel", lambda *args: calls.append(args))
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.5)
        with pytest.raises(OutOfWindowError):
            solve(system, random_field(dom, seed=4, amplitude=0.5), cfg, params_with_eps(0.5),
                  zero_forcing(), path=sample_path(12, -1.0, 0.2, 0.01))
        assert calls == []

    def test_conjugated_weight_exponents(self):
        # one AB2 startup step isolates the weights: z^(-1) on advection, z^(1-r) on damping
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=5, amplitude=0.5)
        eps, r = 0.7, 3.0
        path = sample_path(10, -1.0, 1.0, 0.01)
        t0, dt = 0.25, 0.01
        z0, z1 = conjugation(path, eps, t0), conjugation(path, eps, t0 + dt)
        from cbflab.operators import bilinear_B, nonlinear_C
        from cbflab.domain import dealias_coeffs, project_coeffs

        cfg = SolverConfig(dt=dt, t_start=t0, t_end=t0 + dt)
        params = PhysicalParameters(2, 1.0, 1.0, 1.0, r, eps)
        got = solve("conjugated", u0, cfg, params, zero_forcing(), path=path).states[-1].coeffs

        def n_hat(c, z):
            u = SpectralVelocityField(dom, c)
            n = -bilinear_B(u, u).coeffs / z - params.beta * z ** (1.0 - r) * nonlinear_C(u, r).coeffs
            return project_coeffs(dom, dealias_coeffs(dom, n))

        e1 = np.exp(-(params.mu * dom.k_sq + params.alpha) * dt)
        n0 = n_hat(u0.coeffs, z0)
        pred = e1 * (u0.coeffs + dt * n0)
        expect = e1 * u0.coeffs + 0.5 * dt * (e1 * n0 + n_hat(pred, z1))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-16)

    def test_blowup_guard(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=6, amplitude=500.0)
        cfg = SolverConfig(dt=0.05, t_start=0.0, t_end=1.0)
        with pytest.raises(BlowupError):
            solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())

    def test_cfl_guard_trips_before_the_energy_does(self):
        # a constant field of speed 20 on 16^2 at dt = 0.01: CFL number
        # 20 * 0.01 * 16 / pi = 1.02 > 0.5, with a finite energy
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1, include_B=False, include_C=False)
        with pytest.raises(BlowupError) as info:
            solve("deterministic", constant_field(dom, [20.0, 0.0]), cfg, PARAMS_2D, zero_forcing())
        assert info.value.t == 0.0 and info.value.max_speed == pytest.approx(20.0, rel=1e-12)
        # at speed 9 (CFL number 0.46) the same solve runs
        solve("deterministic", constant_field(dom, [9.0, 0.0]), cfg, PARAMS_2D, zero_forcing())

    @pytest.mark.parametrize("kwargs,match", [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": 0.01, "t_start": 1.0, "t_end": 0.5}, "t_end must not precede t_start"),
        ({"dt": 0.01, "record_stride": 0}, "record_stride must be an integer >= 1, got 0"),
        ({"dt": math.inf, "t_end": 1.0}, "dt must be positive and finite, got inf"),
        ({"dt": math.nan}, "dt must be positive and finite, got nan"),
        ({"dt": 0.01, "t_end": math.nan}, "t_start and t_end must be finite, got 0.0 and nan"),
        ({"dt": 0.01, "t_end": math.inf}, "t_start and t_end must be finite, got 0.0 and inf"),
        ({"dt": 0.01, "t_start": -math.inf}, "t_start and t_end must be finite, got -inf and 1.0"),
        ({"dt": 0.01, "t_start": math.nan}, "t_start and t_end must be finite, got nan and 1.0"),
    ])
    def test_solver_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("system,match", [("foo", "unknown system 'foo'"),
                                              ("conjugated", "system 'conjugated' needs a sampled path")])
    def test_solve_rejected(self, system, match):
        dom = make_domain(2, math.pi, 8)
        with pytest.raises(ValueError, match=match):
            solve(system, zero_field(dom), SolverConfig(dt=0.01, t_end=0.02), params_with_eps(0.5), zero_forcing())

    def test_energy_overflow_is_a_blowup(self):
        # every coefficient finite, the energy not: the guard fires at the first row, before the CFL test
        dom = make_domain(2, math.pi, 8)
        cfg = SolverConfig(dt=1e-300, t_start=0.0, t_end=1e-299)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError, match="non-finite energy at t=0"):
            solve("deterministic", constant_field(dom, [1e155, 0.0]), cfg, PARAMS_2D, zero_forcing())

    def test_parameters_of_another_dimension_rejected(self):
        # d = 2 admits r = 1, which is inadmissible on this 3D field
        dom = make_domain(3, math.pi, 8)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1)
        with pytest.raises(ValueError, match="params.d = 2 does not match the field's dimension 3"):
            solve("deterministic", zero_field(dom), cfg, PhysicalParameters(2, 1.0, 1.0, 1.0, 1.0), zero_forcing())

    def test_inadmissible_rejected(self):
        dom = make_domain(3, math.pi, 8)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1)
        with pytest.raises(ValueError, match="inadmissible"):
            solve("deterministic", zero_field(dom),
                  cfg, PhysicalParameters(3, 1.0, 1.0, 1.0, 2.0), zero_forcing())

    def test_public_single_step(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=7, amplitude=0.3)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=2e-3, record_stride=1)
        u0, u1, u2 = solve("deterministic", u, cfg, PARAMS_2D, zero_forcing()).states
        assert norms(u1).h_norm_sq < norms(u0).h_norm_sq
        assert norms(u2).h_norm_sq < norms(u1).h_norm_sq


class TestStratonovich:
    def test_zero_intensity_matches_heun_deterministic(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=8, amplitude=0.4)
        path = sample_path(11, -1.0, 1.0, 1e-3)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=0.2)
        a = solve("stratonovich", u0, cfg, params_with_eps(0.0), zero_forcing(), path=path)
        flat = sample_path(12, -1.0, 1.0, 1e-3)
        b = solve("stratonovich", u0, cfg, params_with_eps(0.0), zero_forcing(), path=flat)
        assert np.array_equal(a.states[-1].coeffs, b.states[-1].coeffs)

    def test_pure_noise_heun_factor(self):
        # nonlinear terms disabled, a constant field (k = 0): one step
        # multiplies by exp(-alpha dt) (1 + e dW + (e dW)^2 / 2)
        dom = make_domain(2, math.pi, 8)
        u0 = constant_field(dom, [0.5, 0.0])
        eps = 0.8
        path = sample_path(13, -1.0, 1.0, 0.01)
        dt = 0.01
        cfg = SolverConfig(dt=dt, t_start=0.0, t_end=dt, include_B=False, include_C=False)
        out = solve("stratonovich", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
        dw = path.value(dt) - path.value(0.0)
        factor = math.exp(-PARAMS_2D.alpha * dt) * (1.0 + eps * dw + 0.5 * (eps * dw) ** 2)
        assert np.allclose(out.states[-1].coeffs, factor * u0.coeffs, rtol=1e-13)

    def test_pure_noise_converges_to_exponential(self):
        dom = make_domain(2, math.pi, 8)
        u0 = constant_field(dom, [0.5, 0.0])
        eps, T = 0.8, 0.5
        path = sample_path(14, -1.0, 1.0, 0.00625)  # every dt below steps on the path's nodes
        errs = []
        for dt in (0.025, 0.0125, 0.00625):
            cfg = SolverConfig(dt=dt, t_start=0.0, t_end=T, include_B=False, include_C=False)
            out = solve("stratonovich", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
            exact = math.exp(-PARAMS_2D.alpha * T + eps * path.value(T)) * u0.coeffs
            errs.append(np.max(np.abs(out.states[-1].coeffs - exact)))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("path_dt, dt, t_start, shift", [(0.003, 0.01, 0.0, 0.0), (0.005, 0.005, 0.0025, 0.0),
                                                              (0.005, 0.005, 0.0, 0.0025)],
                             ids=["dt", "t_start", "shift"])
    def test_steps_off_the_path_grid(self, path_dt, dt, t_start, shift):
        # between its nodes the path is linear, so such a step would take a smoothed increment
        u0 = constant_field(make_domain(2, math.pi, 8), [0.5, 0.0])
        path = shift_path(sample_path(15, -1.0, 1.0, path_dt), shift)
        with pytest.raises(ValueError, match="off-path-grid"):
            solve("stratonovich", u0, SolverConfig(dt=dt, t_start=t_start, t_end=t_start + 4 * dt),
                  params_with_eps(0.5), zero_forcing(), path=path)
        # whole multiples of the grid, counted in the base path's time, step node to node
        on_grid = SolverConfig(dt=2 * path_dt, t_start=-shift, t_end=-shift + 4 * path_dt)
        assert solve("stratonovich", u0, on_grid, params_with_eps(0.5), zero_forcing(), path=path).ledger["t"].size == 3

    def test_heun_past_the_explicit_bound(self):
        # 64^2: an explicit linear step would be stable only for
        # dt (mu max|k|^2 + alpha) <= 2, dt <= 2.26e-3; the integrating factor has no bound
        params = PhysicalParameters(2, 1.0, 1.0, 1.0, 1.0, 0.5)
        u0 = shear(make_domain(2, math.pi, 64), 1, 8)
        path = sample_path(1, -0.01, 0.21, 2.5e-4)
        # in the factored variables each mode solves one scalar SDE, so both modes err alike
        assert shear_error("stratonovich", u0, 1e-2, params, path, t_end=0.2) <= 2e-3


class TestExactSolutions:
    """
    The shear ``single_mode_field(dom, [0, 1])`` at ``r = 1``, unforced and
    forced in its own mode, solved with every term on (:func:`shear_error`).
    """

    PARAMS = PhysicalParameters(2, 0.1, 0.5, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("system", ["deterministic", "conjugated"])
    @pytest.mark.parametrize("N, dealias", [(16, 2.0 / 3.0), (24, 2.0 / 3.0), (16, 1.0)],
                             ids=["rotational", "skew", "full-band"])
    def test_ab2_second_order(self, system, N, dealias):
        u0 = shear(make_domain(2, math.pi, N, dealias), 1)
        path = sample_path(1, -1.0, 2.0, 1e-2) if system == "conjugated" else None
        errs = np.array([shear_error(system, u0, dt, self.PARAMS, path) for dt in (4e-2, 2e-2, 1e-2)])
        assert errs[-1] <= 5e-5
        assert np.all(np.log2(errs[:-1] / errs[1:]) >= 1.95)

    @pytest.mark.parametrize("system", ["deterministic", "conjugated"])
    @pytest.mark.parametrize("N, dealias", [(16, 2.0 / 3.0), (24, 2.0 / 3.0), (16, 1.0)],
                             ids=["rotational", "skew", "full-band"])
    def test_forced_shear_second_order(self, system, N, dealias):
        # f = A cos(w t) e in the shear's own mode keeps the flow a shear: its amplitude
        # solves a' = -lam a + z A cos(w t).  T is no whole number of periods, where
        # the errors would cancel (orders 3.8-4.0 at T = 1)
        dom = make_domain(2, math.pi, N, dealias)
        u0 = shear(dom, 1)
        profile = periodic_forcing(single_mode_field(dom, [0, 1], amplitude=0.8), 0.5)
        path = sample_path(1, -1.0, 2.0, 4e-2) if system == "conjugated" else None
        errs = np.array([shear_error(system, u0, dt, self.PARAMS, path, t_end=0.96, profile=profile)
                         for dt in (4e-2, 2e-2, 1e-2)])
        # 2.4e-2 -> 1.0e-3 deterministic, 1.7e-2 -> 5.7e-4 conjugated; orders 2.2-2.5
        assert errs[-1] <= 1.5e-3
        assert np.all(np.log2(errs[:-1] / errs[1:]) >= 1.95)

    def test_heun_mean_strong_order(self):
        # strong order ~1 for this commutative noise; one path's error is too
        # rough to pin an order on (-2.7 to 3.9 between steps here), so the mean over 8 is pinned
        u0 = shear(make_domain(2, math.pi, 16), 1)
        paths = [sample_path(seed, -0.01, 0.51, 2.5e-4) for seed in range(1, 9)]
        dts = np.array([4e-3, 2e-3, 1e-3])
        means = np.array([np.mean([shear_error("stratonovich", u0, dt, self.PARAMS, p, t_end=0.5) for p in paths])
                          for dt in dts])
        assert means[-1] <= 2e-4
        assert np.polyfit(np.log(dts), np.log(means), 1)[0] >= 0.8


def abc_flow(dom):
    """The ABC flow ``(sin x_2 + cos x_1, sin x_0 + cos x_2, sin x_1 + cos x_0)``: ``curl u = u``, so ``omega x u = 0``."""
    x0, x1, x2 = dom.coords
    return field_from_physical(dom, np.stack([np.sin(x2) + np.cos(x1), np.sin(x0) + np.cos(x2), np.sin(x1) + np.cos(x0)]))


class TestBeltrami:
    """The ABC flow without damping: ``B(u) = grad |u|^2 / 2``, which the projection removes."""

    PARAMS = PhysicalParameters(3, 0.1, 0.5, 1.0, 5.0, 0.5)

    @pytest.mark.parametrize("system", ["deterministic", "conjugated"])
    @pytest.mark.parametrize("N, dealias", [(16, 2.0 / 3.0), (12, 2.0 / 3.0), (8, 1.0)],
                             ids=["rotational", "skew", "full-band"])
    def test_abc_flow_decays_exactly(self, system, N, dealias):
        # every mode has |k| = 1, so u(t) = exp(-(mu + alpha) t) u0, in the conjugated system too
        u0 = abc_flow(make_domain(3, math.pi, N, dealias))
        cfg = SolverConfig(dt=1e-2, t_end=0.5, record_stride=10**9, include_C=False)
        path = sample_path(2, -1.0, 1.0, 1e-2) if system == "conjugated" else None
        end = solve(system, u0, cfg, self.PARAMS, zero_forcing(), path=path).states[-1].coeffs
        exact = math.exp(-(self.PARAMS.mu + self.PARAMS.alpha) * 0.5) * u0.coeffs
        assert np.abs(end - exact).max() <= 1e-14 * np.abs(exact).max()


def permuted(perm):
    """
    The move ``u -> Q^T u(Q x)`` of the axis permutation ``Q e_j = e_perm[j]``
    on full coefficients: ``Q`` is orthogonal, so it moves the wavevectors and
    the components alike.
    """
    return lambda c: c[list(perm)].transpose((0,) + tuple(1 + p for p in perm))


def reflected(axis):
    """The move ``u -> R u(R x)`` of the reflection ``R`` of ``x_axis`` on full coefficients: ``m_axis -> -m_axis``."""
    def move(c):
        c = np.roll(np.flip(c, axis=1 + axis), 1, axis=1 + axis)
        c[axis] *= -1.0
        return c
    return move


class TestSymmetry:
    """A forced solve commutes with the axis permutations and reflections, which map the box onto itself."""

    @pytest.mark.parametrize("d,N,move", [
        (3, 12, permuted((1, 2, 0))), (3, 12, reflected(0)), (3, 12, reflected(2)),
        (3, 16, permuted((1, 2, 0))), (3, 16, reflected(0)), (3, 16, reflected(2)),
        (2, 16, permuted((1, 0))), (2, 16, reflected(0)), (2, 16, reflected(1))],
        ids=["3-12-perm", "3-12-x0", "3-12-x2", "3-16-perm", "3-16-x0", "3-16-x2", "2-16-perm", "2-16-x0", "2-16-x1"])
    def test_solve_commutes(self, d, N, move):
        # the permutations take the last (real-transform) axis into a leading one, and the
        # reflections take the box's rows -m into m: both exercise the half-spectrum box
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 5.0 if d == 3 else 3.0)
        cfg = SolverConfig(dt=1e-2, t_end=0.2, record_stride=10**9)

        def end(u0, g):
            profile = periodic_forcing(SpectralVelocityField(dom, g), 0.5)
            return solve("deterministic", SpectralVelocityField(dom, u0), cfg, params, profile).states[-1].coeffs

        u0, g = (random_field(dom, seed=seed, amplitude=a).coeffs for seed, a in ((70, 0.8), (71, 0.3)))
        want = move(end(u0, g))
        got = end(move(u0), move(g))
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestTimeOrder:
    """Observed order of the end state at T = 0.4 on 24^2, against a dt = 1.25e-4 run of the same system."""

    # each id names the system, the step rule it takes and the least order
    @pytest.mark.parametrize("system, least", [
        pytest.param("deterministic", 1.9, id="deterministic-imex_cn_ab2-1.9"),
        # a path grid no finer than any dt: the step reads z on the path's own nodes
        pytest.param("conjugated", 1.9, id="conjugated-imex_cn_ab2-1.9"),
        # at zero intensity the Heun step is the deterministic one, and the
        # forcing is the only term that depends on t
        pytest.param("stratonovich", 1.9, id="stratonovich-heun_stratonovich-1.9"),
    ])
    def test_observed_order(self, system, least):
        dom = make_domain(2, math.pi, 24)
        profile = periodic_forcing(single_mode_field(dom, [0, 1], amplitude=0.3), 0.5, delta=0.5)
        params = params_with_eps(0.5 if system == "conjugated" else 0.0)
        path = sample_path(11, -1.0, 1.0, 4e-3) if system != "deterministic" else None
        u0 = random_field(dom, seed=3, amplitude=1.0)

        def end(dt):
            cfg = SolverConfig(dt=dt, t_end=0.4, record_stride=10**9)
            return solve(system, u0, cfg, params, profile, path=path).states[-1].coeffs

        ref = end(1.25e-4)
        errs = [np.linalg.norm(end(dt) - ref) / np.linalg.norm(ref) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= least, orders


class TestSpaceConvergence:
    """``dealias: 1`` and ``dealias: 2/3`` converge to one limit as N grows."""

    def test_dealias_settings_agree(self):
        # one smooth initial field in |m_i| <= 2, given by its coefficients on every grid
        src = make_domain(2, math.pi, 12)
        low = np.r_[0:3, -2:0]
        start = random_field(src, seed=21, amplitude=1.0, max_mode=2).coeffs[np.ix_(range(2), low, low)]
        params = PhysicalParameters(2, 0.05, 1.0, 1.0, 3.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.5, record_stride=10**9)

        def low_modes(N, dealias):
            dom = make_domain(2, math.pi, N, dealias)
            coeffs = np.zeros(dom.shape, dtype=np.complex128)
            coeffs[np.ix_(range(2), low % N, low % N)] = start
            profile = periodic_forcing(single_mode_field(dom, [0, 1], amplitude=4.0), 0.5)
            end = solve("deterministic", SpectralVelocityField(dom, coeffs), cfg, params, profile)
            keep = np.r_[0:4, -3:0] % N
            return end.states[-1].coeffs[np.ix_(range(2), keep, keep)]

        gaps = []
        for N in (12, 16, 24, 32):
            ref = low_modes(N, 2.0 / 3.0)
            gaps.append(np.abs(low_modes(N, 1.0) - ref).max() / np.abs(ref).max())
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-12, gaps


class TestEnergyIdentity:
    def test_zero_trajectory(self):
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.2)
        traj = solve("deterministic", zero_field(dom), cfg, PARAMS_2D, zero_forcing())
        assert np.all(energy_identity_residual(traj) == 0.0)

    def test_linear_only_exact(self):
        dom = make_domain(2, math.pi, 32)
        u0 = random_field(dom, seed=9, amplitude=1.0)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=0.5, include_B=False, include_C=False)
        traj = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        res = energy_identity_residual(traj, quadrature="exact-linear")
        assert res.max() <= 1e-10
        # cross-check the endpoint against the closed-form decay per mode
        lam = PARAMS_2D.mu * dom.k_sq + PARAMS_2D.alpha
        exact = np.exp(-lam * 0.5) * u0.coeffs
        assert np.allclose(traj.states[-1].coeffs, exact, rtol=1e-12, atol=1e-18)

    def test_no_profile_is_the_zero_profile(self):
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1, include_B=False, include_C=False)
        traj = solve("deterministic", random_field(dom, seed=12, amplitude=0.5), cfg, PARAMS_2D)
        assert traj.profile is zero_forcing() and traj.profile.is_zero
        assert np.all(traj.ledger["f_pair"] == 0.0)
        lhs, rhs = decay_envelope_check(traj)
        assert np.all(lhs <= rhs * (1 + 1e-12))
        assert energy_identity_residual(traj, quadrature="exact-linear").max() <= 1e-12

    def test_richardson_order(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=10, amplitude=0.8)
        res = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_start=0.0, t_end=0.5)
            traj = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
            res.append(energy_identity_residual(traj).max())
        assert math.log2(res[0] / res[1]) >= 1.8

    def test_conjugated_identity(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=11, amplitude=0.5)
        g = single_mode_field(dom, [1, 1], amplitude=0.3)
        prof = periodic_forcing(g, period=0.5, delta=0.5)
        path = sample_path(16, -1.0, 2.0, 1e-3)
        res = []
        for dt in (1e-3, 5e-4):
            cfg = SolverConfig(dt=dt, t_start=0.0, t_end=1.0)
            traj = solve("conjugated", u0, cfg, params_with_eps(0.5), prof, path=path)
            res.append(energy_identity_residual(traj).max())
        assert res[0] <= 2e-5
        # second-order decay once the path grid is resolved by the step
        assert res[0] / res[1] >= 3.0

    def test_undamped_solve_integrates_no_damping(self):
        # include_C = False: the ledger's |v|_{r+1}^{r+1} is still recorded, but the identity must not
        # subtract it (counting it leaves a residual of 2e-3 here)
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=0.2, include_C=False)
        traj = solve("deterministic", random_field(dom, seed=25, amplitude=0.8), cfg, PARAMS_2D, zero_forcing())
        assert traj.ledger["lr_pow"].min() > 2e-3
        assert energy_identity_residual(traj).max() <= 2e-5

    @pytest.mark.parametrize("include_B,include_C,forced,quadrature,match", [
        (True, False, False, "exact-linear", "requires both nonlinear terms disabled"),
        (False, True, False, "exact-linear", "requires both nonlinear terms disabled"),
        (False, False, True, "exact-linear", "requires zero forcing"),
        (False, False, False, "simpson", "unknown quadrature 'simpson'"),
    ])
    def test_quadrature_preconditions(self, include_B, include_C, forced, quadrature, match):
        dom = make_domain(2, math.pi, 8)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.02, include_B=include_B, include_C=include_C)
        prof = constant_forcing(single_mode_field(dom, [0, 1], 0.1)) if forced else zero_forcing()
        traj = solve("deterministic", random_field(dom, seed=26, amplitude=0.3), cfg, PARAMS_2D, prof)
        with pytest.raises(ValueError, match=match):
            energy_identity_residual(traj, quadrature=quadrature)

    def test_stratonovich_unsupported(self):
        dom = make_domain(2, math.pi, 8)
        path = sample_path(17, -1.0, 1.0, 0.01)
        cfg = SolverConfig(dt=0.01, t_start=0.0, t_end=0.05)
        traj = solve("stratonovich", zero_field(dom), cfg, params_with_eps(0.3),
                     zero_forcing(), path=path)
        with pytest.raises(ValueError, match="missing-ledger"):
            energy_identity_residual(traj)


class TestContinuityGap:
    def _pair(self, dom, params, path=None, eps=0.0, dt=2e-3, T=0.5, seed=20):
        cfg = SolverConfig(dt=dt, t_start=0.0, t_end=T, record_stride=10)
        u1 = random_field(dom, seed=seed, amplitude=0.4)
        u2 = random_field(dom, seed=seed + 1, amplitude=0.4)
        system = "conjugated" if path is not None else "deterministic"
        t1 = solve(system, u1, cfg, params, zero_forcing(), path=path)
        t2 = solve(system, u2, cfg, params, zero_forcing(), path=path)
        return t1, t2

    def test_identical_data_zero_gap(self):
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.2)
        u = random_field(dom, seed=21, amplitude=0.4)
        t1 = solve("deterministic", u, cfg, PARAMS_2D, zero_forcing())
        t2 = solve("deterministic", u.copy(), cfg, PARAMS_2D, zero_forcing())
        rep = continuity_gap(t1, t2, c_l4=1.0)
        assert np.all(rep.gap_sq == 0.0)

    def test_2d_envelope(self):
        dom = make_domain(2, math.pi, 16)
        c_l4 = empirical_constants(dom, n_samples=16, seed=1)["c_l4"]
        t1, t2 = self._pair(dom, PARAMS_2D)
        rep = continuity_gap(t1, t2, c_l4=c_l4)
        assert rep.case == "2d"
        assert np.all(rep.gap_sq <= rep.envelope * (1 + 1e-6) + 1e-12)

    def test_3d_critical_monotone(self):
        dom = make_domain(3, math.pi, 8)
        params = PhysicalParameters(3, 1.0, 1.0, 0.6, 3.0)
        t1, t2 = self._pair(dom, params, seed=22)
        rep = continuity_gap(t1, t2)
        assert rep.case == "3d-critical"
        assert np.all(rep.gap_sq <= rep.gap_sq[0] * (1 + 1e-6))

    def test_3d_supercritical_envelope(self):
        dom = make_domain(3, math.pi, 8)
        params = PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0)
        t1, t2 = self._pair(dom, params, seed=23)
        rep = continuity_gap(t1, t2)
        eta = 1.0 / (8.0 * params.beta * params.mu**2)
        expect = rep.gap_sq[0] * np.exp(2.0 * eta * (rep.times - rep.times[0]))
        assert np.allclose(rep.envelope, expect, rtol=1e-12)
        assert np.all(rep.gap_sq <= rep.envelope * (1 + 1e-6))

    def test_mismatch_detected(self):
        dom = make_domain(2, math.pi, 16)
        cfg1 = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.2)
        cfg2 = SolverConfig(dt=1e-3, t_start=0.0, t_end=0.2)
        u = random_field(dom, seed=24, amplitude=0.3)
        t1 = solve("deterministic", u, cfg1, PARAMS_2D, zero_forcing())
        t2 = solve("deterministic", u, cfg2, PARAMS_2D, zero_forcing())
        with pytest.raises(MismatchedTrajectoriesError):
            continuity_gap(t1, t2, c_l4=1.0)
        t3 = solve("deterministic", u, SolverConfig(dt=2e-3, t_end=0.2, record_stride=5), PARAMS_2D, zero_forcing())
        with pytest.raises(MismatchedTrajectoriesError, match="snapshot"):
            continuity_gap(t1, t3, c_l4=1.0)

    def test_parameter_mismatch_detected(self):
        dom = make_domain(2, math.pi, 16)
        t1, _ = self._pair(dom, PARAMS_2D, T=0.1)
        _, t2 = self._pair(dom, PhysicalParameters(2, 0.05, 1.0, 1.0, 3.0), T=0.1)
        with pytest.raises(MismatchedTrajectoriesError, match="parameters"):
            continuity_gap(t1, t2, c_l4=1.0)

    def test_unpaired_input_rejected(self):
        dom = make_domain(2, math.pi, 8)
        t1, t2 = self._pair(dom, PARAMS_2D, T=0.02)
        _, other = self._pair(make_domain(2, math.pi, 16), PARAMS_2D, T=0.02)
        with pytest.raises(MismatchedTrajectoriesError, match="trajectories live on different domains"):
            continuity_gap(t1, other, c_l4=1.0)
        conj, _ = self._pair(dom, PARAMS_2D, path=sample_path(27, -1.0, 1.0, 0.01), T=0.02)
        with pytest.raises(MismatchedTrajectoriesError, match="trajectories solve different systems"):
            continuity_gap(t1, conj, c_l4=1.0)
        with pytest.raises(ValueError, match="the 2D envelope needs the measured interpolation constant c_l4"):
            continuity_gap(t1, t2)

    def test_2d_envelope_closed_form(self):
        # rate (c_l4^2 / (2 mu)) z^-2 |grad v|^2 of the second trajectory: 1.5^2 / 0.5 / 9 * 3 = 1.5
        dom = make_domain(2, math.pi, 8)
        t1, t2 = self._pair(dom, PhysicalParameters(2, 0.25, 1.0, 1.0, 3.0), T=0.1)
        t1 = with_ledger(t1, z=5.0, grad_sq=7.0)
        t2 = with_ledger(t2, z=3.0, grad_sq=3.0)
        rep = continuity_gap(t1, t2, c_l4=1.5)
        assert np.allclose(rep.envelope, closed_form_envelope(rep, 1.5, 0.0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r,case", [(5.0, "3d-supercritical"), (3.0, "3d-critical")])
    def test_3d_envelopes_ignore_the_ledger(self, r, case):
        dom = make_domain(3, math.pi, 8)
        params = PhysicalParameters(3, 2.0, 1.0, 0.5, r)
        t1, t2 = self._pair(dom, params, seed=25, T=0.1)
        rep = continuity_gap(with_ledger(t1, z=5.0, grad_sq=7.0), with_ledger(t2, z=3.0, grad_sq=3.0))
        assert rep.case == case
        # r = 5: eta = 1 / (8 beta mu^2) = 1/16; r = 3: a non-increasing gap
        rate = 2.0 / 16.0 if r == 5.0 else 0.0
        assert np.allclose(rep.envelope, closed_form_envelope(rep, rate, 0.0), rtol=1e-12, atol=0.0)


class TestPerturbationEnvelope:
    def test_2d_gap_below_envelope(self):
        dom = make_domain(2, math.pi, 16)
        consts = empirical_constants(dom, n_samples=16, seed=2)
        g = single_mode_field(dom, [1, 1], amplitude=0.3)
        prof = periodic_forcing(g, period=0.5, delta=0.5)
        path = sample_path(30, -2.0, 2.0, 1e-3)
        u0 = random_field(dom, seed=31, amplitude=0.5)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=0.5, record_stride=25)
        det = solve("deterministic", u0, cfg, PARAMS_2D, prof)
        conj = solve("conjugated", u0, cfg, params_with_eps(0.5), prof, path=path)
        rep = perturbation_envelope(det, conj,
                                    c_l4=consts["c_l4"], c_b=consts["c_b"])
        assert np.all(rep.gap_sq <= rep.envelope)

    def test_unpaired_input_rejected(self):
        dom = make_domain(2, math.pi, 8)
        cfg = SolverConfig(dt=0.01, t_end=0.02)
        u = random_field(dom, seed=28, amplitude=0.3)
        det = solve("deterministic", u, cfg, PARAMS_2D, zero_forcing())
        conj = solve("conjugated", u, cfg, params_with_eps(0.3), zero_forcing(), path=sample_path(29, -1.0, 1.0, 0.01))
        with pytest.raises(MismatchedTrajectoriesError, match="expected one deterministic and one conjugated"):
            perturbation_envelope(conj, det, c_l4=1.0, c_b=1.0)
        for c_l4, c_b in ((None, 1.0), (1.0, None)):
            with pytest.raises(ValueError, match="the 2D envelope needs the measured constants c_l4 and c_b"):
                perturbation_envelope(det, conj, c_l4=c_l4, c_b=c_b)

    def test_snapshot_strides_must_match(self):
        dom = make_domain(2, math.pi, 16)
        path = sample_path(36, -1.0, 1.0, 1e-2)
        u0 = random_field(dom, seed=37, amplitude=0.5)
        det = solve("deterministic", u0, SolverConfig(dt=1e-2, t_end=0.2, record_stride=10),
                    PARAMS_2D, zero_forcing())
        conj = solve("conjugated", u0, SolverConfig(dt=1e-2, t_end=0.2, record_stride=5),
                     params_with_eps(0.5), zero_forcing(), path=path)
        assert len(det.times) == 3 and len(conj.times) == 5
        with pytest.raises(MismatchedTrajectoriesError, match="snapshot"):
            perturbation_envelope(det, conj, c_l4=1.0, c_b=1.0)

    def test_gap_shrinks_with_intensity(self):
        dom = make_domain(2, math.pi, 16)
        path = sample_path(32, -2.0, 2.0, 2e-3)
        u0 = random_field(dom, seed=33, amplitude=0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.5, record_stride=10**9)
        det = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        ends = []
        for eps in (0.5, 0.25, 0.125):
            conj = solve("conjugated", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
            gap = norms(SpectralVelocityField(
                dom, conj.states[-1].coeffs - det.states[-1].coeffs)).h_norm_sq
            ends.append(gap)
        assert ends[0] > ends[1] > ends[2]


    def test_parameter_mismatch_detected(self):
        dom = make_domain(2, math.pi, 16)
        path = sample_path(36, -1.0, 1.0, 1e-2)
        u0 = random_field(dom, seed=37, amplitude=0.5)
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        det = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        slow = PhysicalParameters(2, 0.05, 1.0, 1.0, 3.0, 0.5)
        conj = solve("conjugated", u0, cfg, slow, zero_forcing(), path=path)
        with pytest.raises(MismatchedTrajectoriesError, match="parameters"):
            perturbation_envelope(det, conj, c_l4=1.0, c_b=1.0)

    @staticmethod
    def pair_3d(params, eps, profile=None, T=0.1):
        dom = make_domain(3, math.pi, 8)
        path = sample_path(38, -1.0, 1.0, 5e-3)
        u0 = random_field(dom, seed=39, amplitude=0.5)
        cfg = SolverConfig(dt=5e-3, t_end=T, record_stride=5)
        profile = profile or zero_forcing()
        det = solve("deterministic", u0, cfg, params, profile)
        conj = solve("conjugated", u0, cfg, dataclasses.replace(params, epsilon=eps), profile, path=path)
        return det, conj

    def test_3d_critical_gap_below_envelope(self):
        det, conj = self.pair_3d(PhysicalParameters(3, 1.0, 1.0, 0.6, 3.0), 0.5)
        rep = perturbation_envelope(det, conj)
        assert rep.case == "3d-critical"
        assert rep.gap_sq[-1] > 0.0
        assert np.all(rep.gap_sq <= rep.envelope)

    def test_3d_critical_forced_needs_strict_margin(self):
        # 2 beta mu = 1 is admissible, but the forced envelope divides by 2 mu - 1 / beta
        params = PhysicalParameters(3, 1.0, 1.0, 0.5, 3.0)
        dom = make_domain(3, math.pi, 8)
        prof = constant_forcing(single_mode_field(dom, [0, 1, 1], amplitude=0.2))
        det, conj = self.pair_3d(params, 0.5, prof, T=0.02)
        with pytest.raises(ValueError, match=r"2\*beta\*mu > 1"):
            perturbation_envelope(det, conj)

    def test_2d_envelope_closed_form(self):
        # mu 0.5, alpha 2, r 3, z = 3: q_inv = 2/3, q_fwd = 2, |z^(1-r) - 1| = 8/9
        dom = make_domain(2, math.pi, 8)
        prof = constant_forcing(single_mode_field(dom, [0, 1], amplitude=0.3))
        params = PhysicalParameters(2, 0.5, 2.0, 1.0, 3.0)
        path = sample_path(40, -1.0, 1.0, 1e-2)
        u0 = random_field(dom, seed=41, amplitude=0.5)
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        det = solve("deterministic", u0, cfg, params, prof)
        conj = solve("conjugated", u0, cfg, params_with_eps(0.5, params), prof, path=path)
        det = with_ledger(det, h_sq=8.0, grad_sq=3.0, lr_pow=1.0)
        conj = with_ledger(conj, z=3.0, grad_sq=5.0, lr_pow=2.0)
        rep = perturbation_envelope(det, conj, c_l4=1.5, c_b=2.0)
        f_sq = prof.vprime_sq_template
        # (2 c_l4^2 / mu) z^-2 g_u + c_b (g_u + g_v)
        rate = 9.0 / 9.0 * 3.0 + 2.0 * 8.0
        # 1.5 c_b q_inv^(4/3) h_u^(1/3) g_u + 2 (8/9) ((1 + 2^r) lr_u + 2^r lr_v) + (2 q_fwd^2 / min(mu, alpha)) f_sq
        source = 1.5 * 2.0 * (2.0 / 3.0) ** (4.0 / 3.0) * 2.0 * 3.0 + 16.0 / 9.0 * (9.0 + 16.0) + 16.0 * f_sq
        assert np.allclose(rep.envelope, closed_form_envelope(rep, rate, source), rtol=1e-12, atol=0.0)

    # r = 5: Young with p = 2 gives c_quad = (1/4)(4/beta)/mu^2 = 2 and c_cross = (1/4)(4/beta)(beta/2)^2 = 1/2;
    # r = 3: theta = min(mu, alpha, 2 mu - 1/beta), here 2 - 1/1.6 and then min(mu, alpha)
    @pytest.mark.parametrize("r,mu,alpha,beta,rate,f_weight", [
        (5.0, 0.5, 0.25, 2.0, 2.0 * (2.0 + 0.5), 2.0 * 4.0 / 0.25),
        (3.0, 0.5, 1.0, 1.6, 0.375, 4.0 / 0.375),
        (3.0, 2.0, 1.0, 1.0, 1.0, 4.0 / 1.0),
    ], ids=["supercritical", "critical-margin", "critical-min"])
    def test_3d_envelopes_closed_form(self, r, mu, alpha, beta, rate, f_weight):
        # z = 3: q_fwd = 2
        params = PhysicalParameters(3, mu, alpha, beta, r)
        dom = make_domain(3, math.pi, 8)
        prof = constant_forcing(single_mode_field(dom, [0, 1, 1], amplitude=0.2))
        det, conj = self.pair_3d(params, 0.5, prof, T=0.05)
        det = with_ledger(det, grad_sq=3.0, lr_pow=1.0)
        conj = with_ledger(conj, z=3.0, lr_pow=2.0)
        rep = perturbation_envelope(det, conj)
        damp = 2.0 * abs(3.0 ** (1.0 - r) - 1.0) * ((1.0 + 2.0**r) * 1.0 + 2.0**r * 2.0)
        source = damp + 4.0 * 3.0 / beta + f_weight * prof.vprime_sq_template
        assert np.allclose(rep.envelope, closed_form_envelope(rep, rate, source), rtol=1e-12, atol=0.0)


class TestUniformEstimates:
    def test_pullback_triple(self):
        dom = make_domain(2, math.pi, 16)
        g = single_mode_field(dom, [0, 1], amplitude=0.4)
        prof = constant_forcing(g, delta=0.5)
        eps, tau, age = 0.5, 0.0, 6.0
        omega = sample_path(34, -70.0, 2.0, 2e-3)
        shifted = shift_path(omega, -tau)
        u0 = random_field(dom, seed=35, amplitude=1.0)
        cfg = SolverConfig(dt=2e-3, t_start=tau - age, t_end=tau)
        traj = solve("conjugated", u0, cfg, params_with_eps(eps), prof, path=shifted)
        past = weighted_forcing_integral(prof, tau - age, PARAMS_2D.alpha, path=shifted, epsilon=eps)
        checks = uniform_estimates_check(traj, tau, past.value)
        assert checks["precondition"]
        for key in ("h", "grad", "damp"):
            lhs, rhs = checks[key]
            assert np.all(lhs <= rhs * (1 + 1e-6) + 1e-9), key


class TestTrajectoryReconstruction:
    def test_public_conjugated_step(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=43, amplitude=0.4)
        path = sample_path(44, -1.0, 1.0, 1e-3)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=2e-3, record_stride=1)
        traj = solve("conjugated", u0, cfg, params_with_eps(0.5), zero_forcing(), path=path)
        assert len(traj.states) == 3
        assert norms(traj.states[2]).h_norm_sq < norms(u0).h_norm_sq


class TestSnapshots:
    """``Trajectory.states`` expands each recorded box state on its first read and keeps it."""

    @staticmethod
    def counted_solve(monkeypatch):
        """A 5-step solve with stride 2 (snapshots at steps 0, 2, 4, 5), counting the expansions."""
        calls = []

        def counted(dom, box):
            calls.append(box)
            return _box_full(dom, box)

        monkeypatch.setattr(integrators, "_box_full", counted)
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=5e-3, record_stride=2)
        traj = solve("deterministic", random_field(dom, seed=45, amplitude=0.5), cfg, PARAMS_2D, zero_forcing())
        return traj, calls

    def test_behaves_like_a_list(self, monkeypatch):
        traj, _ = self.counted_solve(monkeypatch)
        states = traj.states
        assert len(states) == len(traj.times) == 4
        assert states[-1] is states[3] and states[-4] is states[0]
        for bad in (4, -5):
            with pytest.raises(IndexError):
                states[bad]
        read = [s for s in states]
        assert len(read) == 4 and all(s is states[i] for i, s in enumerate(read))
        first, *_, last = states
        assert first is states[0] and last is states[3]

    def test_each_state_is_built_once_on_first_read(self, monkeypatch):
        traj, calls = self.counted_solve(monkeypatch)
        assert calls == []
        assert traj.domain.N == 16 and calls == []  # the domain builds nothing
        last = traj.states[-1]
        assert len(calls) == 1
        assert traj.states[3] is last and len(calls) == 1
        list(traj.states)
        assert len(calls) == 4

    def test_states_are_the_expanded_box_states(self, monkeypatch):
        traj, calls = self.counted_solve(monkeypatch)
        dom = traj.domain
        states = list(traj.states)
        assert len(calls) == len(states)
        for state, box in zip(states, calls):
            assert isinstance(state, SpectralVelocityField) and state.domain is dom
            assert np.array_equal(state.coeffs.view(np.uint64), _box_full(dom, box).view(np.uint64))
        assert np.array_equal(calls[0], _initial_box(dom, random_field(dom, seed=45, amplitude=0.5).coeffs))


def reference_rhs(dom, coeffs, t, params, profile, z, include_B, include_C):
    """``-B(u)/z - beta z^(1-r) C(u) + z f`` composed from the full-spectrum operators."""
    u_phys = transform_inverse(dom, coeffs)
    n_hat = np.zeros(dom.shape, dtype=np.complex128)
    if include_B:
        n_hat -= advection_raw(dom, u_phys, coeffs) / z
    if include_C:
        n_hat -= (params.beta * z ** (1.0 - params.r)) * damping_raw(dom, u_phys, params.r)
    if not profile.is_zero:
        n_hat += z * (profile(t) * profile.template.coeffs)
    return project_coeffs(dom, dealias_coeffs(dom, n_hat))


def reference_row(dom, coeffs, t, params, profile, z):
    """Ledger row of full coefficients from their complex inverse transform."""
    speed_sq = np.sum(transform_inverse(dom, coeffs) ** 2, axis=0)
    h_sq, grad_sq = _energy_sq(dom, coeffs)
    f_hat = None if profile.is_zero else profile(t) * profile.template.coeffs
    return {
        "h_sq": h_sq,
        "grad_sq": grad_sq,
        "lr_pow": dom.dx**dom.d * float(np.sum(speed_sq ** ((params.r + 1.0) / 2.0))),
        "f_pair": 0.0 if f_hat is None else dom.measure * float(np.real(np.sum(f_hat * np.conj(coeffs)))),
        "z": z,
        "max_speed": float(np.sqrt(speed_sq.max())),
    }


def hermitian_part(dom, coeffs):
    axes = dom.spatial_axes
    return 0.5 * (coeffs + np.conj(np.roll(np.flip(coeffs, axis=axes), 1, axis=axes)))


def nyquist_planes(dom):
    planes = np.zeros(dom.shape[1:], dtype=bool)
    for axis in range(dom.d):
        planes |= (np.arange(dom.N) == dom.N // 2).reshape((dom.N,) + (1,) * (dom.d - 1 - axis))
    return planes


TOGGLES = [(True, True), (True, False), (False, True), (False, False)]


class TestFusedRhs:
    """The box kernel against the full-spectrum operator composition."""

    @staticmethod
    def assert_matches(dom, coeffs, params, profile, z=1.7, t=0.3):
        """``coeffs``: a real (Hermitian) field inside the box, in the full layout."""
        keep = (slice(None),) + dom.box_index
        off_nyquist = ~nyquist_planes(dom)[dom.box_index]
        for include_B, include_C in TOGGLES:
            got, row = _Kernel(dom, params, profile, include_B, include_C)(_box_part(dom, coeffs), t, z)
            ref = reference_rhs(dom, coeffs, t, params, profile, z, include_B, include_C)
            # off the Nyquist planes, where the reference's wavenumber is not zero
            assert np.abs(got - ref[keep])[:, off_nyquist].max() <= 1e-13 * np.abs(ref).max()
            # the result is the box of a real solenoidal field
            SpectralVelocityField(dom, _box_full(dom, got))
            expect = reference_row(dom, coeffs, t, params, profile, z)
            assert tuple(expect) == _LEDGER and len(row) == len(_LEDGER)
            for name, value in zip(_LEDGER, row):
                assert value == pytest.approx(expect[name], rel=1e-13, abs=0.0), name

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("r", [1.0, 2.5, 3.0, 5.0])
    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_matches_reference(self, d, N, r, forced):
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 0.7, r)
        u = random_field(dom, seed=60, amplitude=0.8)
        profile = periodic_forcing(random_field(dom, seed=61, amplitude=0.3), 0.5) if forced else zero_forcing()
        self.assert_matches(dom, u.coeffs, params, profile)

    @pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
    def test_non_hermitian_nyquist_input(self, d, N, dealias):
        # raw complex coefficients projected with the full-layout k, which
        # takes k(-m) = k(m) on the Nyquist planes: not Hermitian, with content
        # on every Nyquist plane, which the box keeps only when dealias = 1
        dom = make_domain(d, math.pi, N, dealias)
        rng = np.random.default_rng(62)
        raw = 0.1 * (rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape))
        u = SpectralVelocityField(dom, _project(raw, [(dom.kvec, np.where(dom.k_sq == 0.0, 1.0, dom.k_sq))] * 2))
        assert np.all(np.abs(u.coeffs).sum(axis=0)[nyquist_planes(dom)] > 0)
        params = PhysicalParameters(d, 1.0, 1.0, 0.7, 3.5)
        profile = constant_forcing(random_field(dom, seed=63, amplitude=0.3))
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=3e-3, record_stride=1)
        if dealias < 1.0:
            with pytest.raises(OutOfBoxError, match="outside the dealiased box"):
                solve("deterministic", u, cfg, params, profile)
            u = SpectralVelocityField(dom, project_coeffs(dom, dealias_coeffs(dom, raw)))
        assert not np.array_equal(hermitian_part(dom, u.coeffs), u.coeffs)
        traj = solve("deterministic", u, cfg, params, profile)
        start = traj.states[0].coeffs
        if dealias < 1.0:
            # the solve starts from the Hermitian part
            assert np.array_equal(start, hermitian_part(dom, u.coeffs))
        else:
            # ... projected once more, so that the kept Nyquist planes are
            # solenoidal for both k(m) and k(-m) of the full layout
            assert np.array_equal(start, _box_full(dom, _initial_box(dom, u.coeffs)))
            assert np.abs(start - hermitian_part(dom, u.coeffs)).max() > 1e-3
        for state in traj.states:
            assert np.array_equal(hermitian_part(dom, state.coeffs), state.coeffs)
        # the kernel on the start state matches the full-spectrum operators
        self.assert_matches(dom, start, params, profile)

    # 3c < N on the first two boxes, which take the rotational form; 3c = N on
    # the 2/3 boxes with 3 | N, and 3c > N on every box at dealias 1, which
    # take the skew-symmetric form
    @pytest.mark.parametrize("d,N,dealias", [(2, 16, 2.0 / 3.0), (3, 8, 2.0 / 3.0), (2, 12, 2.0 / 3.0),
                                             (3, 12, 2.0 / 3.0), (3, 8, 1.0)],
                             ids=["2-16", "3-8", "2-12", "3-12", "3-8-1.0"])
    def test_transform_count(self, d, N, dealias, monkeypatch):
        names = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft",
                 "rfftn", "irfftn", "rfft2", "irfft2", "hfft", "ihfft")
        calls = []
        depth = [0]

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    calls.append((name, np.shape(args[0])))
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in names:
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        dom = make_domain(d, math.pi, N, dealias)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 5.0)
        u = random_field(dom, seed=64, amplitude=0.5)
        profile = periodic_forcing(random_field(dom, seed=65, amplitude=0.3), 0.5)
        _Kernel(dom, params, profile, True, True)(_box_part(dom, u.coeffs), 0.2, 1.3)
        c, kept = dom.mode_cut, min(2 * dom.mode_cut + 1, N)

        def inverse(rows):
            passes = [("ifft", (rows,) + (N,) * (a + 1) + (kept,) * (d - 2 - a) + (c + 1,)) for a in range(d - 1)]
            return passes + [("irfft", (rows,) + (N,) * (d - 1) + (c + 1,))]

        def forward(rows):
            passes = [("rfft", (rows,) + (N,) * d)]
            return passes + [("fft", (rows,) + (N,) * (d - 1 - a) + (kept,) * a + (c + 1,)) for a in range(d - 1)]

        # every leading-axis pass transforms only the kept rows and columns
        if 3 * c < N:
            # one inverse pass of u and the 1 (2D) or 3 (3D) vorticity rows,
            # and one forward pass of the d combined rows
            assert calls == inverse(d + 2 * d - 3) + forward(d)
        else:
            # one inverse pass of u and the d^2 gradient rows, and one forward
            # pass of the d + d(d+1)/2 combined and flux rows
            assert calls == inverse(d + d * d) + forward(d + d * (d + 1) // 2)
        points = {(2, 16, 2.0 / 3.0): (192 + 192) + (96 + 96) + 512 + 192,
                  (3, 8, 2.0 / 3.0): (360 + 576 + 576) + (360 + 576 + 576) + 1536 + 576 + 360,
                  (2, 12, 2.0 / 3.0): 3 * (120 + 120) + 720 + 300,
                  (3, 12, 2.0 / 3.0): 4 * (1620 + 2160 + 2160) + 15552 + 6480 + 4860,
                  (3, 8, 1.0): 4 * (960 + 960 + 960) + 4608 + 2880 + 2880}
        assert sum(math.prod(shape) for _, shape in calls) == points[(d, N, dealias)]


def kernel_arrays(kernel):
    """Every array a kernel writes into, the transform buffers included."""
    return [a for name, value in vars(kernel).items() if name not in ("g_box", "g_weighted")
            for a in (value if isinstance(value, list) else [value]) if isinstance(a, np.ndarray)]


class TestWorkspace:
    """One kernel, and its buffers, carries every right-hand side of a solve."""

    @staticmethod
    def problem(d, N, dealias=2.0 / 3.0):
        dom = make_domain(d, math.pi, N, dealias)
        params = PhysicalParameters(d, 1.0, 1.0, 0.7, 3.5)
        profile = periodic_forcing(random_field(dom, seed=90, amplitude=0.3), 0.5)
        a, b = (_box_part(dom, random_field(dom, seed=seed, amplitude=0.6).coeffs) for seed in (91, 92))
        return dom, params, profile, a, b

    @pytest.mark.parametrize("include_B,include_C", TOGGLES)
    @pytest.mark.parametrize("d,N,dealias", [(2, 16, 2.0 / 3.0), (3, 8, 2.0 / 3.0), (2, 12, 1.0), (3, 8, 1.0)])
    def test_reuse_matches_fresh(self, d, N, dealias, include_B, include_C):
        dom, params, profile, a, b = self.problem(d, N, dealias)
        kernel = _Kernel(dom, params, profile, include_B, include_C)
        for coeffs, t, z in ((a, 0.1, 1.3), (b, 0.2, 0.8), (a, 0.1, 1.3)):
            got, row = kernel(coeffs, t, z)
            want, want_row = _Kernel(dom, params, profile, include_B, include_C)(coeffs, t, z)
            assert np.array_equal(got, want)
            assert row == want_row
            assert kernel.row(coeffs, t, z) == want_row

    @pytest.mark.parametrize("d,N,dealias", [(2, 16, 2.0 / 3.0), (3, 8, 1.0)])
    def test_stale_content_is_ignored(self, d, N, dealias):
        dom, params, profile, a, _ = self.problem(d, N, dealias)
        kernel = _Kernel(dom, params, profile, True, True)
        for arr in kernel_arrays(kernel):
            arr.fill(np.nan)
        got, row = kernel(a, 0.1, 1.3)
        want, want_row = _Kernel(dom, params, profile, True, True)(a, 0.1, 1.3)
        assert np.array_equal(got, want)
        assert row == want_row

    @pytest.mark.parametrize("include_B,include_C", TOGGLES)
    def test_results_do_not_alias_the_workspace(self, include_B, include_C):
        dom, params, profile, a, b = self.problem(2, 16)
        kernel = _Kernel(dom, params, profile, include_B, include_C)
        first = kernel(a, 0.1, 1.3)[0]
        assert not any(np.shares_memory(first, arr) for arr in kernel_arrays(kernel) + [kernel.g_box])
        kept = first.copy()
        kernel(b, 0.2, 0.8)
        assert np.array_equal(first, kept)
        # writing into a result changes nothing the next call reads
        first[...] = np.nan
        assert np.array_equal(kernel(a, 0.1, 1.3)[0], kept)

    # each id names the system, the step rule it takes and the box
    @pytest.mark.parametrize("system,d,N", [
        pytest.param("conjugated", 2, 16, id="conjugated-imex_cn_ab2-2-16"),
        pytest.param("conjugated", 3, 8, id="conjugated-imex_cn_ab2-3-8"),
        pytest.param("stratonovich", 2, 16, id="stratonovich-heun_stratonovich-2-16")])
    def test_solve_matches_fresh_workspaces(self, system, d, N, monkeypatch):
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 3.0, 0.5)
        profile = periodic_forcing(random_field(dom, seed=93, amplitude=0.3), 0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.02, record_stride=3)
        u = random_field(dom, seed=94, amplitude=0.6)
        path = sample_path(95, -1.0, 1.0, 2e-3)
        reused = solve(system, u, cfg, params, profile, path=path)

        built, calls = [], []

        class Fresh(_Kernel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(args)

            def __call__(self, coeffs, t, z):
                calls.append(self)
                return _Kernel(*built[0])(coeffs, t, z)  # not the solve's kernel: a fresh one per call

        monkeypatch.setattr(integrators, "_Kernel", Fresh)
        again = solve(system, u, cfg, params, profile, path=path)
        # 10 steps: AB2 adds one startup evaluation, Heun evaluates twice per step
        assert len(calls) == (20 if system == "stratonovich" else 11)
        assert len(built) == 1 and len({id(kernel) for kernel in calls}) == 1
        for name in _LEDGER:
            assert np.array_equal(reused.ledger[name], again.ledger[name]), name
        assert len(reused.states) == len(again.states) == 5
        for sa, sb in zip(reused.states, again.states):
            assert np.array_equal(sa.coeffs, sb.coeffs)

    def test_warm_call_allocates_less_than_one_field(self):
        d, N = 3, 32
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 5.0, 0.5)
        profile = periodic_forcing(random_field(dom, seed=96, amplitude=0.3), 0.5)
        coeffs = _box_part(dom, random_field(dom, seed=97, amplitude=0.5).coeffs)
        field_bytes = d * N**d * 16  # one full-layout complex field, 1.5 MB

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kernel = _Kernel(dom, params, profile, True, True)
        kernel(coeffs, 0.2, 1.3)
        assert peak(lambda: kernel(coeffs, 0.2, 1.3)) < field_bytes
        # a fresh kernel allocates its whole buffer
        assert peak(lambda: _Kernel(dom, params, profile, True, True)(coeffs, 0.2, 1.3)) > kernel.stack.base.nbytes

    def test_rotational_buffer_bytes(self):
        dom = make_domain(3, math.pi, 32)
        kernel = _Kernel(dom, PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0), zero_forcing(), True, True)
        assert kernel.rotational and kernel.stack.base.nbytes == 3_440_640

    @pytest.mark.parametrize("include_B", [True, False])
    @pytest.mark.parametrize("d,N,dealias", [(2, 16, 2.0 / 3.0), (2, 12, 2.0 / 3.0), (3, 8, 1.0)])
    def test_advection_form_fixed_once(self, d, N, dealias, include_B):
        dom, params, profile, _, _ = self.problem(d, N, dealias)
        kernel = _Kernel(dom, params, profile, include_B, True)
        alias_free = 3 * dom.mode_cut < N
        assert (kernel.rotational, kernel.skew) == (include_B and alias_free, include_B and not alias_free)
        # the flux rows follow the d combined rows only in the skew-symmetric form
        assert kernel.stack.shape[0] == d + (d * (d + 1) // 2 if kernel.skew else 0)

    @pytest.mark.parametrize("include_B", [True, False])
    # at 12^3 the forward outputs outgrow the grid stage
    @pytest.mark.parametrize("d,N,dealias", [(2, 16, 2.0 / 3.0), (2, 12, 2.0 / 3.0), (3, 8, 2.0 / 3.0), (3, 8, 1.0),
                                             (3, 12, 2.0 / 3.0)])
    def test_buffer_layout(self, d, N, dealias, include_B):
        dom, params, profile, _, _ = self.problem(d, N, dealias)
        kernel = _Kernel(dom, params, profile, include_B, True)
        # one buffer holds every array
        assert all(np.shares_memory(arr, kernel.stack.base) for arr in kernel_arrays(kernel))
        # the inverse pass's input lies under its output, which its last pass reads from the last pad
        assert np.shares_memory(kernel.box_rows, kernel.grid_rows)
        assert not np.shares_memory(kernel.inverse[-1], kernel.grid_rows)
        # the forward pass reads stack and writes each output once
        for arr in kernel.forward + [kernel.grid_rows, kernel.tmp, kernel.speed_sq, kernel.pw]:
            assert not np.shares_memory(kernel.stack, arr)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(kernel.forward) for b in kernel.forward[:i])

    def test_template_outside_the_box_is_rejected(self):
        dom = make_domain(2, math.pi, 32)
        params = PhysicalParameters(2, 1.0, 1.0, 1.0, 3.0)
        assert dom.mode_cut == 10
        inside = constant_forcing(single_mode_field(dom, [0, 10], amplitude=0.2))
        _Kernel(dom, params, inside, True, True)
        outside = constant_forcing(single_mode_field(dom, [0, 12], amplitude=0.2))
        with pytest.raises(OutOfBoxError, match="forcing template coefficients reach outside the dealiased box"):
            _Kernel(dom, params, outside, True, True)
        cfg = SolverConfig(dt=1e-3, t_end=2e-3)
        with pytest.raises(OutOfBoxError):
            solve("deterministic", random_field(dom, seed=98, amplitude=0.5), cfg, params, outside)


class TestBoxState:
    """The entry contract and the snapshots of the box-carried solve."""

    @pytest.mark.parametrize("system", ["deterministic", "conjugated", "stratonovich"])
    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_snapshots_hermitian_and_zero_outside(self, d, N, system):
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 3.0, 0.5)
        profile = periodic_forcing(random_field(dom, seed=80, amplitude=0.3), 0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.02, record_stride=4)
        traj = solve(system, random_field(dom, seed=81, amplitude=0.6), cfg, params, profile,
                     path=sample_path(82, -1.0, 1.0, 2e-3))
        assert len(traj.states) == 4
        for state in traj.states:
            assert np.array_equal(hermitian_part(dom, state.coeffs), state.coeffs)
            outside = np.ascontiguousarray(state.coeffs[:, ~dom.dealias_mask])
            assert np.all(outside.view(np.uint64) == 0)  # +0.0, no signed zeros

    def test_out_of_box_initial_rejected(self):
        dom = make_domain(2, math.pi, 16)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=2e-3)
        inside = single_mode_field(dom, [0, dom.mode_cut], amplitude=0.3)
        solve("deterministic", inside, cfg, PARAMS_2D, zero_forcing())
        outside = single_mode_field(dom, [1, dom.mode_cut + 1], amplitude=1e-12)
        with pytest.raises(OutOfBoxError, match=r"outside the dealiased box \|m_i\| <= 5"):
            solve("deterministic", outside, cfg, PARAMS_2D, zero_forcing())
        assert issubclass(OutOfBoxError, ValueError)

    @pytest.mark.parametrize("system", ["deterministic", "conjugated", "stratonovich"])
    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_non_hermitian_initial_matches_hermitian_part(self, d, N, system):
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 3.0, 0.5)
        # real field plus i times another real field: in the box, solenoidal, not Hermitian
        mixed = random_field(dom, seed=83, amplitude=0.5).coeffs + 1j * random_field(dom, seed=84, amplitude=0.3).coeffs
        u = SpectralVelocityField(dom, mixed)
        real = SpectralVelocityField(dom, hermitian_part(dom, mixed))
        assert not np.array_equal(real.coeffs, mixed)
        profile = constant_forcing(random_field(dom, seed=85, amplitude=0.2))
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.01, record_stride=2)
        path = sample_path(86, -1.0, 1.0, 2e-3)
        a = solve(system, u, cfg, params, profile, path=path)
        b = solve(system, real, cfg, params, profile, path=path)
        for name in a.ledger:
            assert np.array_equal(a.ledger[name], b.ledger[name]), name
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.coeffs, sb.coeffs)
        assert np.array_equal(a.states[0].coeffs, real.coeffs)


def other_threads_utime():
    """User CPU ticks of every thread of this process but the calling one, from Linux /proc."""
    me = threading.get_native_id()
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                # fields after the parenthesised name; utime is field 14 of stat(5)
                ticks[tid] = int(fh.read().rsplit(")", 1)[1].split()[11])
    return ticks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads per-thread CPU time from /proc")
def test_a_forced_3d_solve_runs_on_one_core():
    # a 32^3 box (14,553 complex values) is above OpenBLAS's threading
    # threshold, so a BLAS reduction in the solve would wake its workers
    dom = make_domain(3, math.pi, 32)
    params = PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0)
    cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.01)

    def run():
        profile = periodic_forcing(random_field(dom, seed=98, amplitude=0.3), 0.5)
        traj = solve("deterministic", random_field(dom, seed=99, amplitude=0.5), cfg, params, profile)
        return traj.states[-1]

    run()
    # let threads that earlier work left spinning fall idle
    ticks = other_threads_utime()
    for _ in range(20):
        time.sleep(0.1)
        ticks, previous = other_threads_utime(), ticks
        if ticks == previous:
            break
    run()
    grown = {tid: t - ticks.get(tid, 0) for tid, t in other_threads_utime().items()}
    assert sum(grown.values()) == 0, grown
