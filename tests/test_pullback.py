"""Cocycles, absorbing sets, attractor sampling, tails."""

import math
import tracemalloc

import numpy as np
import pytest

from cbflab.domain import (
    ShapeMismatchError,
    SpectralVelocityField,
    bump_field,
    constant_field,
    make_domain,
    norms,
    random_field,
    single_mode_field,
    zero_field,
)
from cbflab.integrators import SolverConfig, solve
from cbflab.operators import PhysicalParameters
from cbflab.pullback import (
    EmptySetError,
    TemperedFamily,
    absorbing_radius_det,
    absorbing_radius_stoch,
    cocycle_eval,
    cutoff_xi,
    hausdorff_semidistance,
    measure_absorption,
    sample_attractor,
    semicontinuity_sweep,
    tail_mass,
)
from cbflab.stochastic import (
    constant_forcing,
    periodic_forcing,
    sample_path,
    shift_path,
    zero_forcing,
)

PARAMS = PhysicalParameters(2, 1.0, 1.0, 1.0, 3.0)


def with_eps(eps):
    return PhysicalParameters(2, 1.0, 1.0, 1.0, 3.0, eps)


def traced_peak(call, *args):
    """Peak bytes that tracemalloc sees during ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCocycle:
    def setup_method(self):
        self.dom = make_domain(2, math.pi, 16)
        self.cfg = SolverConfig(dt=2e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        self.u0 = random_field(self.dom, seed=1, amplitude=0.5)
        self.omega = sample_path(2, -20.0, 4.0, 2e-3)

    def test_zero_time_identity(self):
        out = cocycle_eval(0.0, 0.3, None, self.u0, PARAMS, zero_forcing(), self.cfg)
        assert np.array_equal(out.coeffs, self.u0.coeffs)
        out = cocycle_eval(0.0, 0.3, self.omega, self.u0, with_eps(0.5),
                           zero_forcing(), self.cfg)
        assert np.array_equal(out.coeffs, self.u0.coeffs)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="cocycle time must be >= 0"):
            cocycle_eval(-0.1, 0.3, None, self.u0, PARAMS, zero_forcing(), self.cfg)

    def test_deterministic_composition(self):
        t, s, tau = 0.5, 0.25, 0.0
        lhs = cocycle_eval(t + s, tau, None, self.u0, PARAMS, zero_forcing(), self.cfg)
        mid = cocycle_eval(s, tau, None, self.u0, PARAMS, zero_forcing(), self.cfg)
        rhs = cocycle_eval(t, tau + s, None, mid, PARAMS, zero_forcing(), self.cfg)
        defect = np.linalg.norm(lhs.coeffs - rhs.coeffs) / np.linalg.norm(lhs.coeffs)
        assert defect <= 1e-6

    def test_stochastic_composition(self):
        t, s, tau = 0.5, 0.25, 0.0
        p = with_eps(0.5)
        prof = zero_forcing()
        lhs = cocycle_eval(t + s, tau, self.omega, self.u0, p, prof, self.cfg)
        mid = cocycle_eval(s, tau, self.omega, self.u0, p, prof, self.cfg)
        rhs = cocycle_eval(t, tau + s, shift_path(self.omega, s), mid, p, prof, self.cfg)
        defect = np.linalg.norm(lhs.coeffs - rhs.coeffs) / np.linalg.norm(lhs.coeffs)
        assert defect <= 1e-6

    def test_zero_intensity_collapse(self):
        det = cocycle_eval(0.5, 0.0, None, self.u0, PARAMS, zero_forcing(), self.cfg)
        sto = cocycle_eval(0.5, 0.0, self.omega, self.u0, with_eps(0.0),
                           zero_forcing(), self.cfg)
        assert np.array_equal(det.coeffs, sto.coeffs)

    def test_trajectory_variant_matches_endpoint(self):
        from cbflab.pullback import cocycle_trajectory

        eps, tau, t = 0.5, 0.25, 0.5
        p = with_eps(eps)
        traj = cocycle_trajectory(t, tau, self.omega, self.u0, p,
                                  zero_forcing(), self.cfg)
        shifted = shift_path(self.omega, -tau)
        unwrapped = traj.states[-1].coeffs / math.exp(-eps * shifted.value(tau + t))
        out = cocycle_eval(t, tau, self.omega, self.u0, p, zero_forcing(), self.cfg)
        assert np.array_equal(out.coeffs, unwrapped)

    def test_conjugation_wrap_consistency(self):
        # endpoint matches the manual wrap / solve / unwrap route exactly
        eps, tau, t = 0.5, 0.25, 0.5
        p = with_eps(eps)
        shifted = shift_path(self.omega, -tau)
        z0 = math.exp(-eps * shifted.value(tau))
        v0 = SpectralVelocityField(self.dom, z0 * self.u0.coeffs)
        cfg = SolverConfig(dt=2e-3, t_start=tau, t_end=tau + t, record_stride=10**9)
        traj = solve("conjugated", v0, cfg, p, zero_forcing(), path=shifted)
        manual = traj.states[-1].coeffs / math.exp(-eps * shifted.value(tau + t))
        out = cocycle_eval(t, tau, self.omega, self.u0, p, zero_forcing(), self.cfg)
        assert np.array_equal(out.coeffs, manual)


class TestAbsorbingRadii:
    def setup_method(self):
        self.dom = make_domain(2, math.pi, 16)
        self.g = single_mode_field(self.dom, [0, 1], amplitude=1.0)
        self.c = norms(self.g).vprime_norm_sq
        self.omega = sample_path(3, -80.0, 4.0, 5e-3)

    def test_unforced_unit_radius(self):
        est = absorbing_radius_det(0.0, PARAMS, zero_forcing())
        assert est.radius_sq == 1.0

    def test_constant_forcing_closed_form(self):
        prof = constant_forcing(self.g, delta=0.5)
        est = absorbing_radius_det(0.0, PARAMS, prof)
        assert est.radius_sq == pytest.approx(1.0 + self.c, rel=1e-6)

    def test_min_coefficient(self):
        prof = constant_forcing(self.g, delta=0.5)
        params = PhysicalParameters(2, 2.0, 1.0, 1.0, 3.0)
        est = absorbing_radius_det(0.0, params, prof)
        assert est.radius_sq == pytest.approx(1.0 + self.c, rel=1e-6)

    @pytest.mark.parametrize("tau", [0.0, 2.0, -1.5])
    def test_constant_forcing_closed_form_at_any_time(self, tau):
        # 1 + e^{-a tau} int^tau e^{a s} c ds / min(mu, a) = 1 + c / (a min(mu, a)), for every tau
        prof = constant_forcing(self.g, delta=0.5)
        params = PhysicalParameters(2, 0.5, 2.0, 1.0, 3.0)
        est = absorbing_radius_det(tau, params, prof)
        assert est.radius_sq == pytest.approx(1.0 + self.c / (2.0 * 0.5), rel=1e-6)

    def test_zero_intensity_collapse_bitwise(self):
        prof = constant_forcing(self.g, delta=0.5)
        det = absorbing_radius_det(0.0, PARAMS, prof)
        sto = absorbing_radius_stoch(0.0, self.omega, with_eps(0.0), prof)
        assert sto.radius_sq == det.radius_sq

    def test_unforced_pathwise_radius(self):
        est = absorbing_radius_stoch(0.3, self.omega, with_eps(0.5), zero_forcing())
        expect = math.exp(2.0 * 0.5 * (self.omega.value(0.0) - self.omega.value(-0.3)))
        assert est.radius_sq == pytest.approx(expect, rel=1e-12)

    def test_intensity_ladder_converges(self):
        prof = constant_forcing(self.g, delta=0.5)
        m0 = absorbing_radius_det(0.0, PARAMS, prof).radius_sq
        gaps = []
        for eps in (0.5, 0.25, 0.125, 0.0625):
            m = absorbing_radius_stoch(0.0, self.omega, with_eps(eps), prof).radius_sq
            gaps.append(abs(m - m0))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_companion_dominates(self):
        prof = constant_forcing(self.g, delta=0.5)
        for eps in (1.0, 0.5, 0.125):
            est = absorbing_radius_stoch(0.0, self.omega, with_eps(eps), prof)
            assert est.radius_sq <= est.companion_radius_sq

    def test_companion_binds_at_unit_intensity(self):
        # where omega(-tau) < 0 the unforced radius at epsilon = 1 is
        # exp(2 |omega(-tau)|), the companion's own weight, so there the bound is tight
        taus = np.arange(0.5, 20.0, 0.5)
        tau = float(taus[np.argmin(self.omega.value(-taus))])
        assert self.omega.value(-tau) < -3.0
        est = absorbing_radius_stoch(tau, self.omega, with_eps(1.0), zero_forcing())
        assert est.companion_radius_sq == pytest.approx(est.radius_sq, rel=1e-12)
        for prof in (zero_forcing(), constant_forcing(self.g, delta=0.5)):
            for eps in (1.0, 0.5, 0.125):
                est = absorbing_radius_stoch(tau, self.omega, with_eps(eps), prof)
                assert est.radius_sq <= est.companion_radius_sq * (1 + 1e-12)

    def test_integral_rel_error_reported(self, monkeypatch):
        import dataclasses

        import cbflab.pullback as pullback

        prof = constant_forcing(self.g, delta=0.5)
        assert absorbing_radius_det(0.0, PARAMS, zero_forcing()).forcing_integral_rel_error == 0.0
        assert 0.0 < absorbing_radius_det(0.0, PARAMS, prof).forcing_integral_rel_error <= 1e-7
        est = absorbing_radius_stoch(0.0, self.omega, with_eps(0.5), prof)
        assert 0.0 < est.forcing_integral_rel_error <= 1e-7

        integral = pullback.weighted_forcing_integral

        def missed(*args, **kwargs):
            res = integral(*args, **kwargs)
            if kwargs.get("weight") == "exp_abs":
                res = dataclasses.replace(res, error_estimate=1e-3 * res.value)
            return res

        monkeypatch.setattr(pullback, "weighted_forcing_integral", missed)
        est = absorbing_radius_stoch(0.0, self.omega, with_eps(0.5), prof)
        assert est.forcing_integral_rel_error == pytest.approx(1e-3, rel=1e-12)


class TestTemperedFamily:
    def test_constant_radius_accepted(self):
        fam = TemperedFamily(radius_fn=5.0, sample_count=4, sampler_seed=1)
        dom = make_domain(2, math.pi, 16)
        samples = fam.samples(dom, 10.0)
        assert len(samples) == 4
        assert all(norms(s).h_norm_sq <= 25.0 * (1 + 1e-12) for s in samples)

    def test_radii_uniform_in_the_ball(self):
        # uniform in an n-dimensional ball: P(|x| <= s) = (s / rho)^n, with n
        # the dimension that the samples span
        dom = make_domain(2, math.pi, 8)
        rho = 2.0
        samples = TemperedFamily(radius_fn=rho, sample_count=400, sampler_seed=11, max_mode=1).samples(dom, 1.0)
        span = np.array([np.concatenate([s.coeffs.real.ravel(), s.coeffs.imag.ravel()]) for s in samples])
        n = np.linalg.matrix_rank(span)
        assert n == 10  # the mean (2) and one direction per mode pair +-m of the 8 others
        radii = np.sort([math.sqrt(norms(s).h_norm_sq) for s in samples])
        law = (radii / rho) ** n
        empirical = np.arange(1, len(radii) + 1) / len(radii)
        # Kolmogorov-Smirnov distance; its 1% critical value at 400 samples is 0.081
        assert np.max(np.maximum(empirical - law, law - (empirical - 1 / len(radii)))) < 0.081

    def test_exponential_growth_rejected(self):
        with pytest.raises(ValueError, match="tempered"):
            TemperedFamily(radius_fn=lambda t: math.exp(t), sample_count=2)
        # e^{-t} rho(t)^2 is constant: it does not decrease
        with pytest.raises(ValueError, match="tempered"):
            TemperedFamily(radius_fn=lambda t: math.exp(t / 2), sample_count=2)

    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_zero_radius_draws_zero_fields(self, include_boundary):
        fam = TemperedFamily(radius_fn=0.0, sample_count=3, include_boundary=include_boundary)
        samples = fam.samples(make_domain(2, math.pi, 8), 1.0)
        assert len(samples) == 3 and not any(np.any(s.coeffs) for s in samples)

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", True])
    def test_non_integer_sample_count_rejected(self, count):
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            TemperedFamily(radius_fn=1.0, sample_count=count)

    def test_numpy_integer_sample_count_accepted(self):
        fam = TemperedFamily(radius_fn=1.0, sample_count=np.int64(2))
        assert len(fam.samples(make_domain(2, math.pi, 8), 1.0)) == 2

    def test_deterministic_per_seed_and_age(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=2.0, sample_count=3, sampler_seed=7)
        a = fam.samples(dom, 4.0)
        b = fam.samples(dom, 4.0)
        assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b))

    def test_boundary_sample_is_constant_mode(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=3.0, sample_count=2, sampler_seed=1,
                             include_boundary=True)
        boundary = fam.samples(dom, 1.0)[-1]
        assert norms(boundary).h_norm_sq == pytest.approx(9.0, rel=1e-12)
        assert norms(boundary).grad_norm_sq == pytest.approx(0.0, abs=1e-20)


class TestAbsorption:
    def test_origin_family_absorbed_immediately(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=1e-12, sample_count=2, sampler_seed=1)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        est = measure_absorption(0.0, None, fam, PARAMS, zero_forcing(),
                                 [0.5, 1.0], cfg, domain=dom)
        assert est.entry_time == 0.5

    def test_unforced_entry_matches_envelope(self):
        # constant-mode ball of radius rho: norm^2 decays twice as fast as the
        # energy bound e^{-a t} rho^2, so entry precedes (2/a) ln(rho)
        dom = make_domain(2, math.pi, 16)
        params = PhysicalParameters(2, 1.0, 1.0, 1e-3, 3.0)
        rho = 4.0
        fam = TemperedFamily(radius_fn=rho, sample_count=1, sampler_seed=1,
                             include_boundary=True)
        cfg = SolverConfig(dt=1e-2, t_start=0.0, t_end=1.0, record_stride=10**9)
        ladder = [0.7, 1.4, 2.1, 2.8, 3.5]
        est = measure_absorption(0.0, None, fam, params, zero_forcing(),
                                 ladder, cfg, domain=dom)
        deadline = 2.0 * math.log(rho)  # analytic bound on the entry time
        assert est.entry_time is not None and est.entry_time <= deadline
        for t, m in zip(est.horizons, est.rung_max_norm_sq):
            assert m <= math.exp(-t) * rho**2 * (1 + 1e-9)

    @pytest.mark.parametrize("excess,absorbed", [(5e-7, True), (2e-6, False)])
    def test_absorption_slack(self, excess, absorbed):
        # at horizon 0 the endpoint is the sample itself, the constant mode of
        # norm^2 (1 + excess), against the unforced radius 1 and a slack of 1e-6
        dom = make_domain(2, math.pi, 8)
        fam = TemperedFamily(radius_fn=math.sqrt(1.0 + excess), sample_count=1, include_boundary=True)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0)
        est = measure_absorption(0.0, None, fam, PARAMS, zero_forcing(), [0.0], cfg, domain=dom)
        assert est.rung_max_norm_sq[0] == pytest.approx(1.0 + excess, rel=1e-12)
        assert est.rung_absorbed == (absorbed,)
        assert est.entry_time == (0.0 if absorbed else None)

    def test_zero_intensity_entry_bitwise(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=2.0, sample_count=3, sampler_seed=2)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(4, -10.0, 2.0, 5e-3)
        det = measure_absorption(0.0, None, fam, PARAMS, zero_forcing(),
                                 [1.0, 2.0, 3.0], cfg, domain=dom)
        sto = measure_absorption(0.0, omega, fam, with_eps(0.0),
                                 zero_forcing(), [1.0, 2.0, 3.0], cfg, domain=dom)
        assert det.entry_time == sto.entry_time
        assert det.rung_max_norm_sq == sto.rung_max_norm_sq


class TestAttractorSampling:
    def test_unforced_attractor_is_origin(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=1.0, sample_count=4, sampler_seed=3)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        samp = sample_attractor(0.0, None, PARAMS, zero_forcing(),
                                [4.0, 8.0, 12.0], fam, cfg, domain=dom)
        assert max(norms(p).h_norm_sq for p in samp.points) <= 1e-8
        assert samp.convergence_diag[-1] <= samp.convergence_diag[0]

    def test_periodic_forcing_diag_shrinks(self):
        dom = make_domain(2, math.pi, 16)
        g = single_mode_field(dom, [0, 1], amplitude=0.2)
        prof = periodic_forcing(g, period=1.0, delta=0.5)
        fam = TemperedFamily(radius_fn=1.0, sample_count=4, sampler_seed=4)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        samp = sample_attractor(0.0, None, PARAMS, prof,
                                [2.0, 4.0, 6.0, 8.0], fam, cfg, domain=dom)
        assert samp.diag_decreasing

    def test_zero_intensity_sample_bitwise(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=1.0, sample_count=3, sampler_seed=5)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(6, -8.0, 2.0, 5e-3)
        det = sample_attractor(0.0, None, PARAMS, zero_forcing(),
                               [2.0, 4.0], fam, cfg, domain=dom)
        sto = sample_attractor(0.0, omega, with_eps(0.0), zero_forcing(),
                               [2.0, 4.0], fam, cfg, domain=dom)
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(det.points, sto.points))

    def test_path_selects_the_cocycle(self):
        # without a path the sample is deterministic whatever params.epsilon holds
        dom = make_domain(2, math.pi, 8)
        fam = TemperedFamily(radius_fn=0.5, sample_count=2, sampler_seed=5)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(6, -1.0, 1.0, 5e-3)
        runs = [sample_attractor(0.0, path, params, zero_forcing(), [0.01, 0.02], fam, cfg, domain=dom)
                for path, params in ((None, PARAMS), (None, with_eps(0.5)), (omega, with_eps(0.5)))]
        assert [r.epsilon for r in runs] == [0.0, 0.0, 0.5]
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(runs[0].points, runs[1].points))
        assert not np.array_equal(runs[1].points[0].coeffs, runs[2].points[0].coeffs)


class TestHausdorff:
    def test_subset_gives_zero(self):
        a = [[0.0, 1.0], [2.0, 3.0]]
        b = [[0.0, 1.0], [2.0, 3.0], [9.0, 9.0]]
        assert hausdorff_semidistance(a, b) == 0.0

    def test_three_four_five(self):
        assert hausdorff_semidistance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_asymmetry(self):
        a = [[0.0], [10.0]]
        b = [[0.0]]
        assert hausdorff_semidistance(a, b) == 10.0
        assert hausdorff_semidistance(b, a) == 0.0

    def test_field_metric(self):
        dom = make_domain(2, math.pi, 8)
        a = [constant_field(dom, [1.0, 0.0])]
        b = [zero_field(dom)]
        expect = math.sqrt(norms(a[0]).h_norm_sq)
        assert hausdorff_semidistance(a, b) == pytest.approx(expect, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            hausdorff_semidistance([], [[0.0]])

    @pytest.mark.parametrize("other", [{"L": 2 * math.pi}, {"N": 24}], ids=["L", "N"])
    def test_fields_on_different_domains_rejected(self, other):
        # other L: the distance would take the first cloud's measure; other N: the rows would not broadcast
        box = {"d": 2, "L": math.pi, "N": 16}
        a = [random_field(make_domain(**box), seed=1)]
        b = [random_field(make_domain(**{**box, **other}), seed=2)]
        for x, y in ((a, b), (b, a), (a + b, a)):
            with pytest.raises(ShapeMismatchError, match="different domains"):
                hausdorff_semidistance(x, y)

    def test_fields_against_points_rejected(self):
        a = [zero_field(make_domain(2, math.pi, 8))]
        for x, y in ((a, [[0.0, 0.0]]), ([[0.0, 0.0]], a)):
            with pytest.raises(ShapeMismatchError, match="fields and the other plain points"):
                hausdorff_semidistance(x, y)

    @staticmethod
    def reference(a, b):
        """The whole-cloud formula that the pairwise distances replaced."""
        if isinstance(a[0], SpectralVelocityField):
            scale = math.sqrt(a[0].domain.measure)
            fa = np.array([p.coeffs.ravel() for p in a])
            fb = np.array([p.coeffs.ravel() for p in b])
        else:
            scale = 1.0
            fa = np.atleast_2d(np.asarray(a, dtype=float))
            fb = np.atleast_2d(np.asarray(b, dtype=float))
        worst = 0.0
        for row in fa:
            worst = max(worst, float(np.min(np.linalg.norm(fb - row, axis=1))))
        return scale * worst

    @pytest.mark.parametrize("d,N", [(2, 16), (2, 64), (3, 16)])
    def test_fields_match_whole_cloud_formula(self, d, N):
        dom = make_domain(d, 1.7, N)
        a = [random_field(dom, seed=s, amplitude=0.5) for s in range(5)]
        b = [random_field(dom, seed=s, amplitude=0.7) for s in range(10, 17)]
        for x, y in ((a, b), (b, a), (a, a[:2])):
            got, want = hausdorff_semidistance(x, y), self.reference(x, y)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_points_match_whole_cloud_formula(self):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((9, 5)), 3.0 * rng.standard_normal((6, 5))
        for x, y in ((a, b), (b, a), (a[:1], b), (a[:, :1].tolist(), b[:, :1].tolist())):
            got, want = hausdorff_semidistance(x, y), self.reference(x, y)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    @pytest.mark.parametrize("a,b", [([[0.0], [math.nan], [10.0]], [[0.0]]), ([[math.nan]], [[0.0]]),
                                     ([[1.0]], [[math.nan], [0.0]]), ([[2.0], [5.0]], [[math.inf]])])
    def test_nan_distance_as_before(self, a, b):
        # a NaN distance drops its row from the sup, as in the whole-cloud formula
        got, want = hausdorff_semidistance(a, b), self.reference(a, b)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_scratch_is_a_few_fields(self):
        dom = make_domain(2, math.pi, 64)
        a = [random_field(dom, seed=s) for s in range(64)]
        b = [random_field(dom, seed=s) for s in range(100, 164)]
        assert traced_peak(hausdorff_semidistance, a, b) <= 4 * a[0].coeffs.nbytes


class TestSemicontinuity:
    def test_unforced_sweep_near_zero(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=0.5, sample_count=3, sampler_seed=6)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(7, -20.0, 2.0, 5e-3)
        sweep = semicontinuity_sweep(0.0, omega, [0.5, 0.25], PARAMS, zero_forcing(),
                                     [4.0, 8.0], fam, cfg, domain=dom)
        assert all(r.dist <= 1e-3 for r in sweep.rows)

    def test_forced_sweep_radius_without_companion(self, monkeypatch):
        import cbflab.pullback as pullback

        weights = []
        integral = pullback.weighted_forcing_integral

        def recording(*args, **kwargs):
            weights.append(kwargs.get("weight", "unit"))
            return integral(*args, **kwargs)

        monkeypatch.setattr(pullback, "weighted_forcing_integral", recording)
        dom = make_domain(2, math.pi, 8)
        fam = TemperedFamily(radius_fn=0.5, sample_count=2, sampler_seed=6)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(7, -40.0, 2.0, 5e-3)
        prof = periodic_forcing(single_mode_field(dom, [0, 1], amplitude=0.05), 1.0)
        sweep = semicontinuity_sweep(0.0, omega, [0.5, 0.25], PARAMS, prof,
                                     [0.02], fam, cfg, domain=dom)
        assert weights == ["z2", "z2", "z2"]
        worst = absorbing_radius_det(0.0, PARAMS, prof).forcing_integral_rel_error
        for row in sweep.rows:
            est = absorbing_radius_stoch(0.0, omega, with_eps(row.epsilon), prof)
            assert row.radius_sq == est.radius_sq
            worst = max(worst, est.forcing_integral_rel_error)
        assert sweep.forcing_integral_rel_error == worst

    def test_ladder_validation(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=0.5, sample_count=2, sampler_seed=6)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0)
        omega = sample_path(7, -20.0, 2.0, 5e-3)
        with pytest.raises(ValueError, match="decrease"):
            semicontinuity_sweep(0.0, omega, [0.25, 0.5], PARAMS, zero_forcing(),
                                 [2.0, 4.0], fam, cfg, domain=dom)
        with pytest.raises(ValueError, match="ladder"):
            semicontinuity_sweep(0.0, omega, [1.5, 0.5], PARAMS, zero_forcing(),
                                 [2.0, 4.0], fam, cfg, domain=dom)


class TestCutoffAndTails:
    def test_cutoff_values(self):
        assert cutoff_xi(0.5) == 0.0
        assert cutoff_xi(3.0) == 1.0
        assert cutoff_xi(1.0) == 0.0 and cutoff_xi(2.0) == 1.0
        s = np.linspace(1.0, 2.0, 101)
        vals = cutoff_xi(s)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(np.diff(vals) / np.diff(s))) <= 2.0

    def test_zero_field_has_zero_tail(self):
        dom = make_domain(2, 4 * math.pi, 32)
        assert tail_mass(zero_field(dom), 4.0) == 0.0

    def test_matches_quadrature_oracle(self):
        from cbflab.domain import transform_inverse

        dom = make_domain(2, 4 * math.pi, 48)
        u = bump_field(dom, width=1.5, amplitude=1.0)
        k = 5.0
        phys = transform_inverse(dom, u.coeffs)
        weight = cutoff_xi(np.sum(dom.coords**2, axis=0) / k**2)
        oracle = float(np.sum(weight * np.sum(phys**2, axis=0))) * dom.dx**dom.d
        assert tail_mass(u, k) == pytest.approx(oracle, rel=1e-12)

    def test_localised_field_tail_is_small(self):
        # support radius 3 and the annulus far away: only band-limitation
        # ripple leaks outside, a small fraction of the field's mass
        dom = make_domain(2, 4 * math.pi, 48)
        u = bump_field(dom, width=1.2, amplitude=1.0, support_radius=3.0)
        assert tail_mass(u, 8.0) <= 1e-3 * norms(u).h_norm_sq

    def test_tail_shrinks_with_radius(self):
        dom = make_domain(2, 4 * math.pi, 48)
        u = bump_field(dom, width=2.0, amplitude=1.0)
        masses = [tail_mass(u, k) for k in (2.0, 4.0, 8.0)]
        assert masses[0] > masses[1] > masses[2]

    def test_annulus_must_fit(self):
        dom = make_domain(2, math.pi, 16)
        u = zero_field(dom)
        with pytest.raises(ValueError, match="annulus-exceeds-box"):
            tail_mass(u, 3.0)

    def test_box_share_of_the_whole_space(self):
        # one forced bump solved from rest to T = 4 on the boxes [-L, L]^2, L = 2 pi, 4 pi and 8 pi, all at the
        # grid spacing pi / 8: how far the torus stands in for R^2
        params = PhysicalParameters(2, 0.1, 0.5, 1.0, 3.0)
        cfg = SolverConfig(dt=5e-3, t_end=4.0, record_stride=10**9)
        ends = []
        for L, N in ((2 * math.pi, 32), (4 * math.pi, 64), (8 * math.pi, 128)):
            dom = make_domain(2, L, N)
            profile = constant_forcing(bump_field(dom, width=1.0, amplitude=2.0, support_radius=3.0))
            ends.append(solve("deterministic", zero_field(dom), cfg, params, profile).states[-1])
        h = [norms(u).h_norm_sq for u in ends]
        # 9.18556, 9.18650 and 9.18609: a spread of 1.0e-4 relative
        assert max(h) / min(h) - 1.0 <= 2e-4
        # 0.982 and 1.005 of the tail outside k = 3 on the 8 pi box (sqrt(2) k / L = 0.68 on the 2 pi box)
        assert all(abs(tail_mass(u, 3.0) / tail_mass(ends[-1], 3.0) - 1.0) <= 0.03 for u in ends)
        # the 2 pi box accepts k = 4 (sqrt(2) k / L = 0.90), but its tail there is 0.519 of the 8 pi one
        assert 0.45 <= tail_mass(ends[0], 4.0) / tail_mass(ends[-1], 4.0) <= 0.6


class TestAttractorContainment:
    def test_points_inside_absorbing_ball(self):
        dom = make_domain(2, math.pi, 16)
        g = single_mode_field(dom, [0, 1], amplitude=0.3)
        prof = periodic_forcing(g, period=1.0, delta=0.5)
        fam = TemperedFamily(radius_fn=1.0, sample_count=4, sampler_seed=8)
        cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
        omega = sample_path(9, -60.0, 2.0, 5e-3)
        eps = 0.25
        samp = sample_attractor(0.0, omega, with_eps(eps), prof,
                                [4.0, 8.0], fam, cfg, domain=dom)
        radius = absorbing_radius_stoch(0.0, omega, with_eps(eps), prof).radius_sq
        assert all(norms(p).h_norm_sq <= radius * (1 + 1e-6) for p in samp.points)


class TestNotAbsorbedReporting:
    def test_entry_none_when_ladder_too_short(self):
        dom = make_domain(2, math.pi, 16)
        fam = TemperedFamily(radius_fn=50.0, sample_count=1, sampler_seed=10,
                             include_boundary=True)
        cfg = SolverConfig(dt=1e-2, t_start=0.0, t_end=1.0, record_stride=10**9)
        est = measure_absorption(0.0, None, fam, PARAMS, zero_forcing(),
                                 [0.5, 1.0], cfg, domain=dom)
        assert est.entry_time is None
        assert all(m > est.radius_sq for m in est.rung_max_norm_sq)


class TestCloudThinning:
    def test_farthest_point_cap(self):
        from cbflab.pullback import _thin_cloud

        dom = make_domain(2, math.pi, 4, 1.0)
        points = [constant_field(dom, [float(i), 0.0]) for i in range(40)]
        thinned = _thin_cloud(points, cap=10)
        assert len(thinned) == 10
        # extremes survive thinning, and the thinned cloud stays close to the original
        means = sorted(float(p.coeffs[(0, 0, 0)].real) for p in thinned)
        assert means[0] == 0.0 and means[-1] == 39.0
        assert hausdorff_semidistance(points, thinned) <= hausdorff_semidistance(points, points[:10]) + 1e-12

    @staticmethod
    def reference_indices(points, cap):
        """The whole-cloud farthest-point loop that the pairwise distances replaced."""
        flat = np.array([p.coeffs.ravel() for p in points])
        chosen = [0]
        d_min = np.linalg.norm(flat - flat[0], axis=1)
        while len(chosen) < cap:
            nxt = int(np.argmax(d_min))
            chosen.append(nxt)
            d_min = np.minimum(d_min, np.linalg.norm(flat - flat[nxt], axis=1))
        return chosen

    @pytest.mark.parametrize("nan", [False, True])
    def test_indices_match_whole_cloud_formula(self, nan):
        from cbflab.pullback import _thin_cloud

        dom = make_domain(2, math.pi, 16)
        points = [random_field(dom, seed=s, amplitude=1.0 + s % 3) for s in range(30)]
        if nan:
            points[7].coeffs[0, 1, 1] = math.nan
        thinned = _thin_cloud(points, cap=12)
        assert [id(p) for p in thinned] == [id(points[i]) for i in self.reference_indices(points, 12)]

    def test_scratch_is_a_few_fields(self):
        from cbflab.pullback import _thin_cloud

        dom = make_domain(2, math.pi, 64)
        points = [random_field(dom, seed=s) for s in range(40)]
        # the whole-cloud loop held about 3 copies of the cloud, 15 MB here
        assert traced_peak(_thin_cloud, points, 10) <= 4 * points[0].coeffs.nbytes
