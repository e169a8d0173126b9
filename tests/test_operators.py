"""Operator layer: admissibility, Stokes, advection, damping, monotonicity."""

import math

import numpy as np
import pytest

from cbflab.domain import (
    ShapeMismatchError,
    SpectralVelocityField,
    inner_h,
    make_domain,
    norms,
    random_field,
    transform_inverse,
    zero_field,
)
from cbflab.operators import (
    PhysicalParameters,
    bilinear_B,
    bilinear_estimate_ratio,
    monotonicity_gap,
    nonlinear_C,
    stokes_apply,
    trilinear_b,
    validate_params,
)

from test_domain import sin_y_field


class TestAdmissibility:
    def test_2d_any_exponent(self):
        v = validate_params(PhysicalParameters(2, 0.3, 0.7, 2.0, 1.0))
        assert v.admissible

    def test_3d_critical_needs_product(self):
        v = validate_params(PhysicalParameters(3, 1.0, 1.0, 0.4, 3.0))
        assert not v.admissible
        assert "2*beta*mu" in v.reason

    def test_3d_critical_accepted(self):
        assert validate_params(PhysicalParameters(3, 1.0, 1.0, 0.5, 3.0)).admissible

    def test_3d_subcritical_rejected(self):
        v = validate_params(PhysicalParameters(3, 1.0, 1.0, 1.0, 2.0))
        assert not v.admissible

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            PhysicalParameters(2, -1.0, 1.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            PhysicalParameters(2, 1.0, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("args,match", [
        ((2, math.nan, 1.0, 1.0, 3.0), "mu must be finite"),
        ((2, 1.0, 1.0, 1.0, math.inf), "r must be finite"),
        ((4, 1.0, 1.0, 1.0, 3.0), "d must be 2 or 3"),
        ((2, 1.0, 1.0, 1.0, 3.0, -0.1), "noise intensity must be >= 0"),
    ])
    def test_parameter_ranges(self, args, match):
        with pytest.raises(ValueError, match=match):
            PhysicalParameters(*args)


@pytest.mark.parametrize("call", [lambda u, v: bilinear_B(u, v), lambda u, v: monotonicity_gap(u, v, 3.0)])
def test_fields_on_different_domains_rejected(call):
    u = random_field(make_domain(2, math.pi, 8), seed=1)
    with pytest.raises(ShapeMismatchError, match="fields live on different domains"):
        call(u, random_field(make_domain(2, math.pi, 16), seed=1))


class TestStokes:
    def test_unit_mode_eigenfield(self):
        dom = make_domain(2, math.pi, 16)
        u = sin_y_field(dom)
        assert np.array_equal(stokes_apply(u).coeffs, u.coeffs)

    def test_zero(self):
        dom = make_domain(2, math.pi, 8)
        assert np.all(stokes_apply(zero_field(dom)).coeffs == 0.0)

    def test_energy_identity(self):
        dom = make_domain(3, math.pi, 8)
        u = random_field(dom, seed=2)
        lhs = inner_h(stokes_apply(u), u)
        rhs = norms(u).grad_norm_sq
        assert abs(lhs - rhs) <= 1e-10 * rhs


class TestAdvection:
    def test_skew_vanishing(self):
        dom = make_domain(2, math.pi, 32)
        for i in range(50):
            u = random_field(dom, seed=(1, i))
            v = random_field(dom, seed=(2, i))
            scale = math.sqrt(norms(u).h_norm_sq) * norms(v).v_norm_sq
            assert abs(trilinear_b(u, v, v)) <= 1e-10 * scale

    def test_antisymmetry(self):
        dom = make_domain(2, math.pi, 32)
        for i in range(50):
            u = random_field(dom, seed=(3, i))
            v = random_field(dom, seed=(4, i))
            w = random_field(dom, seed=(5, i))
            scale = math.sqrt(norms(u).h_norm_sq) * norms(v).v_norm_sq
            assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * scale

    def test_shear_self_advection_vanishes(self):
        dom = make_domain(2, math.pi, 16)
        u = sin_y_field(dom)
        assert np.max(np.abs(bilinear_B(u, u).coeffs)) <= 1e-14

    def test_matches_direct_quadrature(self):
        # low-mode triple on 16^2: pointwise (u.grad)v . w integrates exactly
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=21, max_mode=3)
        v = random_field(dom, seed=22, max_mode=3)
        w = random_field(dom, seed=23, max_mode=3)
        u_p = transform_inverse(dom, u.coeffs)
        w_p = transform_inverse(dom, w.coeffs)
        adv = np.zeros_like(u_p)
        nd = dom.N**dom.d
        for j in range(dom.d):
            for i in range(dom.d):
                dv_ij = np.real(np.fft.ifftn(dom.phase * 1j * dom.kvec[i] * v.coeffs[j])) * nd
                adv[j] += u_p[i] * dv_ij
        direct = float(np.sum(adv * w_p)) * dom.dx**dom.d
        scale = math.sqrt(norms(u).h_norm_sq) * norms(v).v_norm_sq
        assert abs(trilinear_b(u, v, w) - direct) <= 1e-10 * scale

    def test_difference_identity(self):
        # <B(u) - B(v), u - v> = -b(u-v, u-v, v)
        dom = make_domain(2, math.pi, 32)
        for i in range(20):
            u = random_field(dom, seed=(6, i))
            v = random_field(dom, seed=(7, i))
            d = SpectralVelocityField(dom, u.coeffs - v.coeffs)
            lhs = inner_h(bilinear_B(u, u), d) - inner_h(bilinear_B(v, v), d)
            rhs = -trilinear_b(d, d, v)
            scale = norms(d).v_norm_sq * math.sqrt(norms(v).v_norm_sq) + 1e-30
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_output_divergence_free(self):
        dom = make_domain(3, math.pi, 8)
        u = random_field(dom, seed=8)
        v = random_field(dom, seed=9)
        out = bilinear_B(u, v)
        div = np.max(np.abs(np.sum(dom.kvec * out.coeffs, axis=0)))
        assert div <= 1e-10 * (1 + np.linalg.norm(out.coeffs))

    def test_estimate_ratio_stable_across_resolutions(self):
        r16 = bilinear_estimate_ratio(make_domain(2, math.pi, 16), n_samples=24, seed=0)
        r32 = bilinear_estimate_ratio(make_domain(2, math.pi, 32), n_samples=24, seed=0)
        assert np.isfinite(r16) and np.isfinite(r32) and r16 > 0
        assert 0.25 <= r32 / r16 <= 4.0

    def test_estimate_ratio_3d(self):
        r12 = bilinear_estimate_ratio(make_domain(3, math.pi, 12), n_samples=12, seed=0)
        r16 = bilinear_estimate_ratio(make_domain(3, math.pi, 16), n_samples=12, seed=0)
        assert np.isfinite(r12) and r12 > 0
        assert 0.25 <= r16 / r12 <= 4.0


class TestDamping:
    def test_identity_at_r_one(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=10)
        assert np.array_equal(nonlinear_C(u, 1.0).coeffs, u.coeffs)

    def test_zero_field(self):
        dom = make_domain(2, math.pi, 8)
        assert np.all(nonlinear_C(zero_field(dom), 3.0).coeffs == 0.0)

    def test_shear_quartic_pairing(self):
        # <C(u), u> = integral sin^4 y over the box = 1.5 pi^2
        dom = make_domain(2, math.pi, 16)
        u = sin_y_field(dom)
        val = inner_h(nonlinear_C(u, 3.0), u)
        assert abs(val - 1.5 * math.pi**2) <= 1e-10 * val

    def test_pairing_matches_lebesgue_norm(self):
        dom = make_domain(2, math.pi, 32)
        for r in (2.0, 3.0, 4.5):
            u = random_field(dom, seed=(11, int(2 * r)))
            val = inner_h(nonlinear_C(u, r), u)
            ref = norms(u, p_list=(r + 1.0,)).lp_norm[r + 1.0] ** (r + 1.0)
            assert abs(val - ref) <= 1e-8 * ref

    def test_rejects_bad_exponent(self):
        dom = make_domain(2, math.pi, 8)
        with pytest.raises(ValueError, match="negative-r"):
            nonlinear_C(zero_field(dom), 0.5)


class TestMonotonicity:
    def test_equal_fields(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=12)
        lhs, rhs = monotonicity_gap(u, u, 3.0)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_linear_case_equality(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=13)
        v = random_field(dom, seed=14)
        lhs, rhs = monotonicity_gap(u, v, 1.0)
        diff_sq = norms(SpectralVelocityField(dom, u.coeffs - v.coeffs)).h_norm_sq
        assert abs(lhs - diff_sq) <= 1e-10 * diff_sq
        assert abs(rhs - diff_sq) <= 1e-10 * diff_sq

    def test_pointwise_quadrature_oracle(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=15)
        v = random_field(dom, seed=16)
        r = 3.0
        u_p = transform_inverse(dom, u.coeffs)
        v_p = transform_inverse(dom, v.coeffs)
        su = np.sum(u_p**2, axis=0) ** ((r - 1) / 2)
        sv = np.sum(v_p**2, axis=0) ** ((r - 1) / 2)
        d = u_p - v_p
        oracle = float(np.sum((su * u_p - sv * v_p) * d)) * dom.dx**dom.d
        lhs, _ = monotonicity_gap(u, v, r)
        assert abs(lhs - oracle) <= 1e-9 * abs(oracle)

    def test_gap_property_sweep(self):
        dom = make_domain(2, math.pi, 16)
        for r in (1.0, 2.0, 3.0, 4.0, 5.0):
            for i in range(40):
                u = random_field(dom, seed=(17, i))
                v = random_field(dom, seed=(18, i))
                lhs, rhs = monotonicity_gap(u, v, r)
                assert lhs >= rhs - 1e-8 * (1.0 + rhs)
                assert rhs >= -1e-8
