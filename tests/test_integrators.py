"""Time integration: schemes, energy ledger audits, analytic envelopes."""

import math

import numpy as np
import pytest

from cbflab.domain import (
    SpectralVelocityField,
    _box_full,
    _box_part,
    _energy_sq,
    constant_field,
    dealias_coeffs,
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
    _box_forcing,
    _explicit_rhs,
    _initial_box,
)
from cbflab.operators import (
    PhysicalParameters,
    advection_raw,
    damping_raw,
    empirical_constants,
)
from cbflab.stochastic import (
    ConjugationProcess,
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

    def test_conjugated_weight_exponents(self):
        # one Euler step isolates the weights: z^(-1) on advection, z^(1-r) on damping
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=5, amplitude=0.5)
        eps, r = 0.7, 3.0
        path = sample_path(10, -1.0, 1.0, 0.01)
        proc = ConjugationProcess(path, eps)
        t0, dt = 0.25, 0.01
        z = proc.value(t0)
        from cbflab.operators import bilinear_B, nonlinear_C
        from cbflab.domain import dealias_coeffs, project_coeffs

        cfg = SolverConfig(dt=dt, scheme="imex_euler", t_start=t0, t_end=t0 + dt)
        params = PhysicalParameters(2, 1.0, 1.0, 1.0, r, eps)
        got = solve("conjugated", u0, cfg, params, zero_forcing(), path=path).states[-1].coeffs
        lam = params.mu * dom.k_sq + params.alpha
        n_hat = -bilinear_B(u0, u0).coeffs / z - params.beta * z ** (1.0 - r) * nonlinear_C(u0, r).coeffs
        n_hat = project_coeffs(dom, dealias_coeffs(dom, n_hat))
        expect = np.exp(-lam * dt) * (u0.coeffs + dt * n_hat)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-16)

    def test_blowup_guard(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=6, amplitude=500.0)
        cfg = SolverConfig(dt=0.05, t_start=0.0, t_end=1.0)
        with pytest.raises(BlowupError):
            solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())

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
        cfg = SolverConfig(dt=1e-3, scheme="heun_stratonovich", t_start=0.0, t_end=0.2)
        a = solve("stratonovich", u0, cfg, params_with_eps(0.0), zero_forcing(), path=path)
        flat = sample_path(12, -1.0, 1.0, 1e-3)
        b = solve("stratonovich", u0, cfg, params_with_eps(0.0), zero_forcing(), path=flat)
        assert np.array_equal(a.states[-1].coeffs, b.states[-1].coeffs)

    def test_pure_noise_heun_factor(self):
        # drift disabled: one step multiplies by 1 + e dW + (e dW)^2 / 2
        dom = make_domain(2, math.pi, 8)
        u0 = constant_field(dom, [0.5, 0.0])
        eps = 0.8
        path = sample_path(13, -1.0, 1.0, 0.01)
        dt = 0.01
        cfg = SolverConfig(dt=dt, scheme="heun_stratonovich", t_start=0.0, t_end=dt,
                           include_B=False, include_C=False, include_linear=False)
        out = solve("stratonovich", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
        dw = path.value(dt) - path.value(0.0)
        factor = 1.0 + eps * dw + 0.5 * (eps * dw) ** 2
        assert np.allclose(out.states[-1].coeffs, factor * u0.coeffs, rtol=1e-13)

    def test_pure_noise_converges_to_exponential(self):
        dom = make_domain(2, math.pi, 8)
        u0 = constant_field(dom, [0.5, 0.0])
        eps, T = 0.8, 0.5
        path = sample_path(14, -1.0, 1.0, 0.025)
        errs = []
        for dt in (0.025, 0.0125, 0.00625):
            cfg = SolverConfig(dt=dt, scheme="heun_stratonovich", t_start=0.0, t_end=T,
                               include_B=False, include_C=False, include_linear=False)
            out = solve("stratonovich", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
            exact = math.exp(eps * path.value(T)) * u0.coeffs
            errs.append(np.max(np.abs(out.states[-1].coeffs - exact)))
        assert errs[0] > errs[1] > errs[2]

    def test_scheme_system_pairing(self):
        dom = make_domain(2, math.pi, 8)
        path = sample_path(15, -1.0, 1.0, 0.01)
        cfg = SolverConfig(dt=0.01, scheme="heun_stratonovich", t_start=0.0, t_end=0.1)
        with pytest.raises(ValueError):
            solve("deterministic", zero_field(dom), cfg, PARAMS_2D, zero_forcing())
        cfg2 = SolverConfig(dt=0.01, t_start=0.0, t_end=0.1)
        with pytest.raises(ValueError):
            solve("stratonovich", zero_field(dom), cfg2, PARAMS_2D, zero_forcing(), path=path)


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

    def test_stratonovich_unsupported(self):
        dom = make_domain(2, math.pi, 8)
        path = sample_path(17, -1.0, 1.0, 0.01)
        cfg = SolverConfig(dt=0.01, scheme="heun_stratonovich", t_start=0.0, t_end=0.05)
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
        rep = continuity_gap(t1, t2, PARAMS_2D, c_l4=1.0)
        assert np.all(rep.gap_sq == 0.0)

    def test_2d_envelope(self):
        dom = make_domain(2, math.pi, 16)
        c_l4 = empirical_constants(dom, n_samples=16, seed=1)["c_l4"]
        t1, t2 = self._pair(dom, PARAMS_2D)
        rep = continuity_gap(t1, t2, PARAMS_2D, c_l4=c_l4)
        assert rep.case == "2d-gronwall"
        assert np.all(rep.gap_sq <= rep.envelope * (1 + 1e-6) + 1e-12)

    def test_3d_critical_monotone(self):
        dom = make_domain(3, math.pi, 8)
        params = PhysicalParameters(3, 1.0, 1.0, 0.6, 3.0)
        t1, t2 = self._pair(dom, params, seed=22)
        rep = continuity_gap(t1, t2, params)
        assert rep.case == "3d-critical"
        assert np.all(rep.gap_sq <= rep.gap_sq[0] * (1 + 1e-6))

    def test_3d_supercritical_envelope(self):
        dom = make_domain(3, math.pi, 8)
        params = PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0)
        t1, t2 = self._pair(dom, params, seed=23)
        rep = continuity_gap(t1, t2, params)
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
            continuity_gap(t1, t2, PARAMS_2D, c_l4=1.0)


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
        rep = perturbation_envelope(det, conj, params_with_eps(0.5),
                                    c_l4=consts["c_l4"], c_b=consts["c_b"])
        assert np.all(rep.gap_sq <= rep.envelope)

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
        past = weighted_forcing_integral(prof, tau - age, PARAMS_2D.alpha, "vprime",
                                         path=shifted, epsilon=eps)
        checks = uniform_estimates_check(traj, tau, past.value)
        assert checks["precondition"]
        for key in ("h", "grad", "damp"):
            lhs, rhs = checks[key]
            assert np.all(lhs <= rhs * (1 + 1e-6) + 1e-9), key


class TestTrajectoryReconstruction:
    def test_reconstruct_undoes_conjugation(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=40, amplitude=0.5)
        path = sample_path(41, -1.0, 1.0, 2e-3)
        eps = 0.6
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.3, record_stride=50)
        traj = solve("conjugated", u0, cfg, params_with_eps(eps), zero_forcing(), path=path)
        for i, t in enumerate(traj.times):
            z = math.exp(-eps * path.value(t))
            expect = traj.states[i].coeffs / z
            assert np.array_equal(traj.reconstruct_u(i).coeffs, expect)

    def test_deterministic_reconstruction_is_identity(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=42, amplitude=0.5)
        cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=0.1, record_stride=50)
        traj = solve("deterministic", u0, cfg, PARAMS_2D, zero_forcing())
        assert np.array_equal(traj.reconstruct_u(-1).coeffs, traj.states[-1].coeffs)

    def test_public_conjugated_step(self):
        dom = make_domain(2, math.pi, 16)
        u0 = random_field(dom, seed=43, amplitude=0.4)
        path = sample_path(44, -1.0, 1.0, 1e-3)
        cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=2e-3, record_stride=1)
        traj = solve("conjugated", u0, cfg, params_with_eps(0.5), zero_forcing(), path=path)
        assert len(traj.states) == 3
        assert norms(traj.states[2]).h_norm_sq < norms(u0).h_norm_sq


def reference_rhs(dom, coeffs, t, params, profile, z, include_B, include_C):
    """``-B(u)/z - beta z^(1-r) C(u) + z f`` composed from the full-spectrum operators."""
    u_phys = transform_inverse(dom, coeffs)
    n_hat = np.zeros(dom.shape, dtype=np.complex128)
    if include_B:
        n_hat -= advection_raw(dom, u_phys, coeffs) / z
    if include_C:
        n_hat -= (params.beta * z ** (1.0 - params.r)) * damping_raw(dom, u_phys, params.r)
    f_hat = profile.value_hat(t)
    if f_hat is not None:
        n_hat += z * f_hat
    return project_coeffs(dom, dealias_coeffs(dom, n_hat))


def reference_row(dom, coeffs, t, params, profile, z):
    """Ledger row of full coefficients from their complex inverse transform."""
    speed_sq = np.sum(transform_inverse(dom, coeffs) ** 2, axis=0)
    h_sq, grad_sq = _energy_sq(dom, coeffs)
    f_hat = profile.value_hat(t)
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
        forcing = _box_forcing(dom, profile)
        for include_B, include_C in TOGGLES:
            got, aux = _explicit_rhs(dom, _box_part(dom, coeffs), t, params, forcing, z, include_B, include_C)
            ref = reference_rhs(dom, coeffs, t, params, profile, z, include_B, include_C)
            # off the Nyquist planes, where the reference's wavenumber is not zero
            assert np.abs(got - ref[keep])[:, off_nyquist].max() <= 1e-13 * np.abs(ref).max()
            # the result is the box of a real solenoidal field
            SpectralVelocityField(dom, _box_full(dom, got))
            expect = reference_row(dom, coeffs, t, params, profile, z)
            assert aux.keys() == expect.keys()
            for name, value in expect.items():
                assert aux[name] == pytest.approx(value, rel=1e-13, abs=0.0), name

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
        # projected raw complex coefficients: not Hermitian, with content on
        # every Nyquist plane, which the box keeps only when dealias = 1
        dom = make_domain(d, math.pi, N, dealias)
        rng = np.random.default_rng(62)
        raw = 0.1 * (rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape))
        u = SpectralVelocityField(dom, project_coeffs(dom, raw))
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

    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_transform_count(self, d, N, monkeypatch):
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
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 5.0)
        u = random_field(dom, seed=64, amplitude=0.5)
        profile = periodic_forcing(random_field(dom, seed=65, amplitude=0.3), 0.5)
        _explicit_rhs(dom, _box_part(dom, u.coeffs), 0.2, params, _box_forcing(dom, profile), 1.3, True, True)
        # d + 1 inverse passes of d rows and one forward pass of the d + d(d+1)/2
        # grid rows; every leading-axis pass transforms only the kept rows and columns
        c, kept = dom.mode_cut, 2 * dom.mode_cut + 1
        rows = d + d * (d + 1) // 2
        inverse = [("ifft", (d,) + (N,) * (a + 1) + (kept,) * (d - 2 - a) + (c + 1,)) for a in range(d - 1)]
        inverse.append(("irfft", (d,) + (N,) * (d - 1) + (c + 1,)))
        forward = [("rfft", (rows,) + (N,) * d)]
        forward += [("fft", (rows,) + (N,) * (d - 1 - a) + (kept,) * a + (c + 1,)) for a in range(d - 1)]
        assert calls == inverse * (d + 1) + forward
        points = {(2, 16): 3 * (192 + 192) + 1280 + 480,
                  (3, 8): 4 * (360 + 576 + 576) + 4608 + 1728 + 1080}
        assert sum(math.prod(shape) for _, shape in calls) == points[(d, N)]


class TestBoxState:
    """The entry contract and the snapshots of the box-carried solve."""

    @pytest.mark.parametrize("system", ["deterministic", "conjugated", "stratonovich"])
    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_snapshots_hermitian_and_zero_outside(self, d, N, system):
        dom = make_domain(d, math.pi, N)
        params = PhysicalParameters(d, 1.0, 1.0, 1.0, 3.0, 0.5)
        profile = periodic_forcing(random_field(dom, seed=80, amplitude=0.3), 0.5)
        scheme = "heun_stratonovich" if system == "stratonovich" else "imex_cn_ab2"
        cfg = SolverConfig(dt=2e-3, scheme=scheme, t_start=0.0, t_end=0.02, record_stride=4)
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
        scheme = "heun_stratonovich" if system == "stratonovich" else "imex_cn_ab2"
        cfg = SolverConfig(dt=2e-3, scheme=scheme, t_start=0.0, t_end=0.01, record_stride=2)
        path = sample_path(86, -1.0, 1.0, 2e-3)
        a = solve(system, u, cfg, params, profile, path=path)
        b = solve(system, real, cfg, params, profile, path=path)
        for name in a.ledger:
            assert np.array_equal(a.ledger[name], b.ledger[name]), name
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.coeffs, sb.coeffs)
        assert np.array_equal(a.states[0].coeffs, real.coeffs)
