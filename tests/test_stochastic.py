"""Noise paths, shifts, the conjugation scalar, and forcing integrals."""

import math
import warnings

import numpy as np
import pytest

from cbflab.domain import make_domain, norms, single_mode_field
from cbflab.stochastic import (
    DivergentIntegralError,
    ForcingProfile,
    OutOfWindowError,
    conjugation,
    constant_forcing,
    decaying_forcing,
    path_from_values,
    periodic_forcing,
    sample_path,
    shift_path,
    verify_sublinear,
    weighted_forcing_integral,
    zero_forcing,
)


class TestWienerPath:
    def test_anchored_at_zero(self):
        for seed in (0, 1, 99):
            assert sample_path(seed, -2.0, 2.0, 0.1).value(0.0) == 0.0

    def test_deterministic_per_seed(self):
        a = sample_path(5, -3.0, 3.0, 0.05)
        b = sample_path(5, -3.0, 3.0, 0.05)
        assert np.array_equal(a.values, b.values)

    def test_ensemble_variance(self):
        vals = [sample_path(seed, -0.5, 1.0, 0.25).value(1.0) for seed in range(2000)]
        assert abs(np.var(vals) - 1.0) < 0.1

    def test_disjoint_increments_uncorrelated(self):
        a, b = [], []
        for seed in range(1500):
            p = sample_path(seed, -1.0, 2.0, 0.5)
            a.append(p.value(1.0) - p.value(0.0))
            b.append(p.value(2.0) - p.value(1.0))
        a, b = np.asarray(a), np.asarray(b)
        assert abs(np.var(a) - 1.0) < 0.12 and abs(np.var(b) - 1.0) < 0.12
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.08

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="invalid-range"):
            sample_path(0, 1.0, 2.0, 0.1)

    @pytest.mark.parametrize("make,match", [
        (lambda: sample_path(0, -1.0, 1.0, 0.0), "dt_grid must be positive"),
        (lambda: sample_path(0, -1.0, 1.0, -0.1), "dt_grid must be positive"),
        (lambda: path_from_values([0.5, 0.0, 0.2], 0.1, 0), "must vanish at the zero node"),
    ])
    def test_rejected_construction(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_out_of_window(self):
        p = sample_path(0, -1.0, 1.0, 0.1)
        with pytest.raises(OutOfWindowError):
            p.value(5.0)

    def test_array_values_match_pointwise(self):
        p = shift_path(sample_path(11, -3.0, 3.0, 0.1), -0.73)
        ts = np.linspace(-1.9, 2.1, 157)
        assert np.array_equal(p.value(ts), [p.value(t) for t in ts])
        assert type(p.value(0.4)) is float

    def test_array_out_of_window(self):
        p = sample_path(0, -1.0, 1.0, 0.1)
        for bad in (-1.5, 1.5):
            ts = np.linspace(-0.9, 0.9, 11)
            ts[4] = bad
            with pytest.raises(OutOfWindowError):
                p.value(ts)


class TestShift:
    def test_identity_shift(self):
        p = sample_path(7, -2.0, 2.0, 0.1)
        s = shift_path(p, 0.0)
        for t in (-1.0, 0.3, 1.7):
            assert s.value(t) == p.value(t)

    def test_anchor_algebra(self):
        # (theta_{-tau} w)(tau) = -w(-tau)
        p = sample_path(8, -2.0, 2.0, 0.1)
        tau = 0.7
        s = shift_path(p, -tau)
        assert s.value(tau) == pytest.approx(-p.value(-tau), abs=1e-15)

    def test_group_law_exact(self):
        p = sample_path(9, -4.0, 4.0, 0.1)
        roundtrip = shift_path(shift_path(p, 1.0), -1.0)
        nodes = np.arange(-2.0, 2.0, 0.1)
        assert all(roundtrip.value(t) == p.value(t) for t in nodes)

    def test_shifted_path_vanishes_at_zero(self):
        p = sample_path(10, -4.0, 4.0, 0.1)
        for s in (0.3, -1.2, 2.5):
            assert shift_path(p, s).value(0.0) == 0.0


class TestConjugationProcess:
    def test_unit_at_origin(self):
        p = sample_path(11, -1.0, 1.0, 0.05)
        assert conjugation(p, 0.7, 0.0) == 1.0

    def test_zero_intensity(self):
        p = sample_path(12, -1.0, 1.0, 0.05)
        for t in (-0.5, 0.25, 1.0):
            assert conjugation(p, 0.0, t) == 1.0

    def test_direct_exponentiation(self):
        p = path_from_values([0.0, -0.5, -0.3], dt_grid=0.5, n_neg=0)
        assert conjugation(p, 1.0, 0.5) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_heun_step_order(self):
        # one Heun step of the conjugation equation vs the exact exponential
        p = sample_path(13, -1.0, 1.0, 0.01)
        eps, t0 = 0.8, 0.25
        errs = []
        for k in range(4):
            dt = 0.01 / 2**k  # below the node spacing: increments are linear
            dw = p.value(t0 + dt) - p.value(t0)
            z0 = math.exp(-eps * p.value(t0))
            pred = z0 * (1.0 - eps * dw)
            heun = z0 + 0.5 * (-eps * dw) * (z0 + pred)
            errs.append(abs(heun - math.exp(-eps * p.value(t0 + dt))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(orders) >= 1.8


class TestSublinearity:
    def test_linear_ramp_flagged(self):
        n = 4001
        vals = 0.25 * (np.arange(n) - 2000) * 0.1
        p = path_from_values(vals, dt_grid=0.1, n_neg=2000)
        rep = verify_sublinear(p, t0_ladder=(2.0, 20.0))
        assert not rep.is_sublinear

    def test_past_ramp_flagged(self):
        # linear growth toward the past alone is not sublinear: both signs of t count
        t = (np.arange(4001) - 2000) * 0.1
        p = path_from_values(np.where(t < 0.0, 0.25 * t, 0.0), dt_grid=0.1, n_neg=2000)
        rep = verify_sublinear(p, t0_ladder=(2.0, 20.0))
        assert rep.max_ratios == (0.25, 0.25) and not rep.is_sublinear

    def test_zero_path(self):
        p = path_from_values(np.zeros(4001), dt_grid=0.1, n_neg=2000)
        rep = verify_sublinear(p, t0_ladder=(2.0, 20.0))
        assert rep.is_sublinear and rep.max_ratios == (0.0, 0.0)

    def test_window_too_short(self):
        p = sample_path(0, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="window-too-short"):
            verify_sublinear(p)

    def test_default_ladder(self):
        # span / 100 and span / 10 of the shorter side: 150 here; a ramp keeps its ratio on both rungs
        p = path_from_values(0.25 * (np.arange(451) - 150.0), dt_grid=1.0, n_neg=150)
        rep = verify_sublinear(p)
        assert rep.t0_ladder == (1.5, 15.0)
        assert rep.max_ratios == (0.25, 0.25) and not rep.is_sublinear

    def test_ensemble_median_decreasing(self):
        outer, inner = [], []
        for seed in range(60):
            p = sample_path(seed, -5000.0, 5000.0, 1.0)
            rep = verify_sublinear(p, t0_ladder=(100.0, 1000.0))
            inner.append(rep.max_ratios[0])
            outer.append(rep.max_ratios[1])
        assert np.median(outer) < np.median(inner)


class TestForcingProfiles:
    def setup_method(self):
        self.dom = make_domain(2, math.pi, 16)
        self.g = single_mode_field(self.dom, [0, 1], amplitude=1.0)

    def test_zero_profile(self):
        prof = zero_forcing()
        assert prof.is_zero and prof.value_hat(3.0) is None

    def test_periodic_needs_positive_delta(self):
        with pytest.raises(ValueError):
            periodic_forcing(self.g, period=1.0, delta=0.0)

    @pytest.mark.parametrize("kind,template,delta,match", [
        ("constant_field", None, 0.5, "'constant_field' needs a spatial template"),
        ("periodic", None, 0.5, "'periodic' needs a spatial template"),
        ("decaying", "g", -0.1, "delta must be >= 0"),
    ])
    def test_rejected_profile(self, kind, template, delta, match):
        with pytest.raises(ValueError, match=match):
            ForcingProfile(kind, self.g if template == "g" else template, delta=delta, period=1.0, gamma=1.0)

    def test_periodic_envelope(self):
        prof = periodic_forcing(self.g, period=2.0, delta=0.5)
        assert prof.envelope(0.3) == pytest.approx(prof.envelope(2.3), abs=1e-12)
        assert prof.period == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown forcing kind 'steady'"):
            ForcingProfile("steady", self.g)

    @pytest.mark.parametrize("period", [None, 0.0, -1.0, float("nan")])
    def test_periodic_needs_a_positive_period(self, period):
        with pytest.raises(ValueError, match="positive period"):
            periodic_forcing(self.g, period)

    def test_non_finite_envelope_fails_the_probe(self):
        # 2 pi t / 1e-310 overflows, so the envelope is NaN away from t = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite and periodic"):
                periodic_forcing(self.g, 1e-310)

    def test_kind_fixes_the_envelope(self):
        # a decaying profile reads gamma and never the period
        prof = ForcingProfile("decaying", self.g, 0.5, period=1.0, gamma=0.5)
        assert prof.envelope(0.0) == 1.0 and prof.envelope(2.0) == math.exp(1.0)
        assert prof.decay_rate() == 1.0 and prof.past_sup_sq(-1.0) == math.exp(-1.0)
        assert constant_forcing(self.g).envelope(3.7) == 1.0

    def test_decaying_requires_margin(self):
        with pytest.raises(ValueError):
            decaying_forcing(self.g, gamma=0.0, delta=0.0)

    def test_template_norm_cached(self):
        prof = constant_forcing(self.g, delta=0.5)
        assert prof.vprime_sq_template == pytest.approx(norms(self.g).vprime_norm_sq)

    @pytest.mark.parametrize("make", [
        lambda g: constant_forcing(g),
        lambda g: periodic_forcing(g, period=0.7),
        lambda g: decaying_forcing(g, gamma=0.8),
    ], ids=["one", "cosine", "exp"])
    def test_envelope_array_call_is_elementwise(self, make):
        env = make(self.g).envelope
        t = np.concatenate([np.linspace(-46.0, 3.0, 4001), [0.0, -0.35, 1e-300]])
        values = env(t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        singles = [env(x) for x in t.tolist()]
        assert all(isinstance(v, float) for v in singles)
        assert np.array_equal(values, np.array(singles))


class TestWeightedIntegral:
    def setup_method(self):
        self.dom = make_domain(2, math.pi, 16)
        self.g = single_mode_field(self.dom, [0, 1], amplitude=1.0)
        self.c = norms(self.g).vprime_norm_sq

    def test_zero_forcing(self):
        out = weighted_forcing_integral(zero_forcing(), 0.0, 1.0)
        assert out.value == 0.0 and out.tail_bound == 0.0

    def test_constant_closed_form(self):
        # integral of c e^(a xi) up to tau is c e^(a tau) / a
        prof = constant_forcing(self.g, delta=0.5)
        for tau, alpha in ((0.0, 1.0), (2.0, 1.0), (0.0, 0.5)):
            out = weighted_forcing_integral(prof, tau, alpha)
            exact = self.c * math.exp(alpha * tau) / alpha
            assert out.value == pytest.approx(exact, rel=1e-6)
            assert out.tail_bound <= 1e-6 * out.value

    def test_growing_envelope_closed_form(self):
        # envelope e^xi at rate delta = 0: integral c e^(2 tau) / 2
        prof = decaying_forcing(self.g, gamma=1.0, delta=0.0)
        out = weighted_forcing_integral(prof, 0.0, 0.0)
        assert out.value == pytest.approx(self.c / 2.0, rel=1e-6)

    def test_periodic_closed_form(self):
        # cos^2 envelope: int e^(a xi) cos^2(2 pi xi / T) = (1/2)(1/a + a/(a^2+b^2)) at tau=0
        period, alpha = 1.0, 1.0
        prof = periodic_forcing(self.g, period=period, delta=0.5)
        b = 4.0 * math.pi / period
        exact = self.c * 0.5 * (1.0 / alpha + alpha / (alpha**2 + b**2))
        out = weighted_forcing_integral(prof, 0.0, alpha)
        assert out.value == pytest.approx(exact, rel=1e-6)

    def test_divergence_detected(self):
        prof = constant_forcing(self.g, delta=0.5)
        with pytest.raises(DivergentIntegralError):
            weighted_forcing_integral(prof, 0.0, -0.5)

    def test_unknown_weight_rejected(self):
        p = sample_path(3, -10.0, 2.0, 0.01)
        with pytest.raises(ValueError, match="unknown weight kind 'z3'"):
            weighted_forcing_integral(constant_forcing(self.g), 0.0, 1.0, path=p, epsilon=0.5, weight="z3")

    def test_closed_tail_margin_detected(self):
        # omega(t) = t gives the z^2 weight exp(-2 t), whose slope 2 outgrows the rate 1
        p = path_from_values(np.arange(-1000, 101) * 0.01, dt_grid=0.01, n_neg=1000)
        with pytest.raises(DivergentIntegralError, match="decay margin -1 <= 0"):
            weighted_forcing_integral(constant_forcing(self.g), 0.0, 1.0, path=p, epsilon=1.0)

    def test_path_weight_reduces_at_zero_intensity(self):
        prof = constant_forcing(self.g, delta=0.5)
        p = sample_path(3, -80.0, 2.0, 0.01)
        plain = weighted_forcing_integral(prof, 0.0, 1.0)
        weighted = weighted_forcing_integral(prof, 0.0, 1.0, path=p, epsilon=0.0)
        assert weighted.value == plain.value


def _gauss_legendre_reference(prof, omega, tau, rate, eps, weight):
    """8-point Gauss-Legendre on every interval over [t_cut, tau] where the weight is smooth."""
    nodes = omega._node_times - omega.shift + (tau if weight == "exp_abs" else 0.0)
    t_cut = max(tau - 46.0 / rate, nodes[0])
    if weight == "exp_abs":  # |omega| is smooth between nodes and zero crossings
        crossings = [
            nodes[j] + omega.dt_grid * a / (a - b)
            for j, (a, b) in enumerate(zip(omega.values[:-1], omega.values[1:]))
            if a * b < 0
        ]
        nodes = np.sort(np.concatenate([nodes, crossings]))
    edges = np.concatenate([[t_cut], nodes[(nodes > t_cut) & (nodes < tau)], [tau]])
    gx, gw = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * gx).ravel()
    ws = (half[:, None] * gw).ravel()
    if weight == "z2":
        log_w = -2.0 * eps * omega.value(xs)
    else:
        log_w = 2.0 * np.abs(omega.value(xs - tau))
    env_sq = np.cos(2.0 * math.pi * xs / prof.envelope.period) ** 2
    return float(np.sum(ws * np.exp(rate * (xs - tau) + log_w) * env_sq) * prof.vprime_sq_template)


class TestPathWeightedIntegral:
    """The acceptance test-09 path and forcing at tau = 0, eps = 0.5."""

    def setup_method(self):
        g = single_mode_field(make_domain(2, math.pi, 24), [0, 1], amplitude=0.05)
        self.prof = periodic_forcing(g, period=1.0, delta=0.5)
        self.omega = sample_path(42, -70.0, 3.0, 5e-3)

    def test_z2_weight_matches_gauss_legendre(self):
        out = weighted_forcing_integral(self.prof, 0.0, 1.0, path=self.omega, epsilon=0.5)
        ref = _gauss_legendre_reference(self.prof, self.omega, 0.0, 1.0, 0.5, "z2")
        assert abs(out.value - ref) <= 1e-8 * ref
        assert out.error_estimate <= 1e-7 * out.value

    def test_exp_abs_weight_matches_gauss_legendre(self):
        out = weighted_forcing_integral(self.prof, 0.0, 1.0, path=self.omega, epsilon=0.5,
                                        weight="exp_abs")
        ref = _gauss_legendre_reference(self.prof, self.omega, 0.0, 1.0, 0.5, "exp_abs")
        assert 0.0 < out.error_estimate <= 1e-7 * out.value
        assert abs(out.value - ref) <= 4.0 * out.error_estimate

    def test_exp_abs_weight_off_zero_anchor(self):
        # the weight's kinks sit at the path nodes shifted by tau, here off the
        # 5e-3 node grid; the value carries the factor e^(rate tau) that the
        # reference leaves out
        tau = 0.251
        out = weighted_forcing_integral(self.prof, tau, 1.0, path=self.omega, epsilon=0.5, weight="exp_abs")
        ref = math.exp(tau) * _gauss_legendre_reference(self.prof, self.omega, tau, 1.0, 0.5, "exp_abs")
        assert 0.0 < out.error_estimate <= 1e-7 * out.value
        assert abs(out.value - ref) <= 4.0 * out.error_estimate


class TestPathExport:
    def test_csv_roundtrip_values(self, tmp_path):
        from cbflab.stochastic import export_path_csv

        p = sample_path(19, -1.0, 1.0, 0.25)
        fname = tmp_path / "path.csv"
        export_path_csv(p, fname)
        lines = fname.read_text().strip().split("\n")
        assert lines[0] == "t,omega"
        for line in lines[1:]:
            t, w = (float(x) for x in line.split(","))
            assert w == p.value(t)
