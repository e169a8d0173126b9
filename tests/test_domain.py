"""Spectral domain: grids, transforms, projection, norms, snapshots."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import cbflab.domain as domain_module
from cbflab.domain import (
    DIV_TOL,
    ShapeMismatchError,
    SpectralVelocityField,
    TorusDomain,
    _box_full,
    _box_part,
    _box_solenoidal,
    bump_field,
    check_interpolation,
    constant_field,
    field_from_physical,
    inner_h,
    lebesgue_norm,
    leray_project,
    load_snapshot,
    make_domain,
    norms,
    project_coeffs,
    random_field,
    save_snapshot,
    single_mode_field,
    transform_forward,
    transform_inverse,
    zero_field,
)
from cbflab.integrators import _box_hermitian, _box_reflect
from cbflab.pullback import TemperedFamily


def sin_y_field(dom):
    """u = (sin y, 0): the classical single-mode shear."""
    coeffs = np.zeros(dom.shape, dtype=complex)
    coeffs[(0,) + (0,) * (dom.d - 2) + (0, 1)] = -0.5j
    coeffs[(0,) + (0,) * (dom.d - 2) + (0, -1)] = 0.5j
    return SpectralVelocityField(dom, coeffs)


class TestMakeDomain:
    def test_2d_dealias_cutoff(self):
        dom = make_domain(2, math.pi, 8, 2.0 / 3.0)
        assert dom.mode_cut == 2
        assert dom.kvec.shape == (2, 8, 8)

    def test_3d_full_band(self):
        dom = make_domain(3, math.pi, 4, 1.0)
        assert dom.mode_cut == 2
        assert dom.dealias_mask.all()

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError, match="invalid-resolution"):
            make_domain(2, math.pi, 7, 2.0 / 3.0)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="invalid-dimension"):
            make_domain(4, math.pi, 8)

    @pytest.mark.parametrize("L,dealias,match", [(0.0, 2.0 / 3.0, "L must be positive"),
                                                 (math.pi, 0.0, "dealias_fraction must lie in"),
                                                 (math.pi, 1.5, "dealias_fraction must lie in")])
    def test_bad_box_rejected(self, L, dealias, match):
        with pytest.raises(ValueError, match=match):
            make_domain(2, L, 8, dealias)

    def test_equality_and_hash(self):
        a, b = make_domain(2, math.pi, 8), make_domain(2, math.pi, 8)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, make_domain(2, math.pi, 8, 1.0)}) == 2
        assert a != "not a domain" and a.__eq__("not a domain") is NotImplemented

    def test_deterministic_tables(self):
        a = make_domain(2, 2.0, 16)
        b = make_domain(2, 2.0, 16)
        assert np.array_equal(a.kvec, b.kvec)
        assert np.array_equal(a.dealias_mask, b.dealias_mask)

    def test_phase_is_declared_field(self):
        assert "phase" in {f.name for f in dataclasses.fields(TorusDomain)}

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 6)])
    def test_half_spectrum_tables(self, d, N):
        declared = {f.name: f for f in dataclasses.fields(TorusDomain)}
        for name in ("box_index", "box_phase", "box_kvec", "box_k_sq",
                     "box_weight", "box_projection"):
            assert not declared[name].init and not declared[name].repr
        for dealias in (2.0 / 3.0, 1.0):
            dom = make_domain(d, math.pi, N, dealias)
            c = dom.mode_cut
            # the box: the dealias mask on the stored half of the real transform
            stored = np.zeros(dom.shape[1:], dtype=bool)
            stored[dom.box_index] = True
            half = dom.dealias_mask & (np.arange(N) <= c)
            assert np.array_equal(stored, half)
            # leading-axis rows in FFT order, the Nyquist row once
            rows = dom.box_index[0].ravel()
            assert rows.size == min(2 * c + 1, N)
            assert np.array_equal(dom.modes[rows], np.fft.fftfreq(rows.size, 1.0 / rows.size))
            ix = (slice(None),) + dom.box_index
            assert np.array_equal(dom.box_phase, dom.phase[dom.box_index])
            assert np.array_equal(dom.box_k_sq, dom.k_sq[dom.box_index])
            # first derivatives: zero wavenumber on the Nyquist planes only
            nyquist = np.abs(dom.kvec[ix]) == N // 2
            assert np.array_equal(dom.box_kvec, np.where(nyquist, 0.0, dom.kvec[ix]))
            assert nyquist.any() == (dealias == 1.0)
            # two passes along those wavevectors, and one along the Nyquist ones
            passes = [k for k, _ in dom.box_projection]
            assert len(passes) == (3 if dealias == 1.0 else 2)
            assert np.array_equal(sum(passes[1:]), dom.kvec[ix])
            for k, k_sq in dom.box_projection:
                sq = np.sum(k**2, axis=0)
                assert np.array_equal(k_sq, np.where(sq == 0.0, 1.0, sq))
            weight = np.where((np.arange(c + 1) == 0) | (np.arange(c + 1) == N // 2), 1.0, 2.0)
            assert np.array_equal(dom.box_weight, weight)


class TestLowModeSampler:
    """Coefficients drawn by random_field and TemperedFamily.samples."""

    @staticmethod
    def assert_hermitian_low_mode(dom, coeffs, max_mode):
        axes = dom.spatial_axes
        reflected = np.roll(np.flip(coeffs, axis=axes), shift=[1] * len(axes), axis=axes)
        assert np.array_equal(reflected, np.conj(coeffs))
        mgrids = np.meshgrid(*([dom.modes] * dom.d), indexing="ij")
        outside = np.any([np.abs(mg) > max_mode for mg in mgrids], axis=0)
        assert not np.any(coeffs[:, outside])
        div = np.abs(np.sum(dom.kvec * coeffs, axis=0)).max()
        assert div <= DIV_TOL * np.linalg.norm(coeffs)

    @pytest.mark.parametrize("d, max_mode", [(2, 1), (2, 3), (3, 2)])
    def test_random_field(self, d, max_mode):
        dom = make_domain(d, math.pi, 8 if d == 3 else 16)
        u = random_field(dom, seed=(d, max_mode), max_mode=max_mode)
        assert norms(u).h_norm_sq > 0.0
        self.assert_hermitian_low_mode(dom, u.coeffs, max_mode)

    @pytest.mark.parametrize("d, max_mode", [(2, 1), (2, 3), (3, 2)])
    def test_family_samples(self, d, max_mode):
        dom = make_domain(d, math.pi, 8 if d == 3 else 16)
        fam = TemperedFamily(2.0, sample_count=3, sampler_seed=d, max_mode=max_mode)
        for u in fam.samples(dom, 1.5):
            assert norms(u).h_norm_sq > 0.0
            self.assert_hermitian_low_mode(dom, u.coeffs, max_mode)


class TestTransforms:
    def test_single_mode_samples(self):
        dom = make_domain(2, math.pi, 16)
        coeffs = np.zeros(dom.shape, dtype=complex)
        coeffs[0, 1, 0] = -0.5j
        coeffs[0, -1, 0] = 0.5j
        phys = transform_inverse(dom, coeffs)
        x = dom.coords[0]
        assert np.allclose(phys[0], np.sin(x), atol=1e-13)
        assert np.allclose(phys[1], 0.0, atol=1e-14)

    def test_zero_roundtrip(self):
        dom = make_domain(2, math.pi, 8)
        z = np.zeros(dom.shape)
        assert np.all(transform_forward(dom, z) == 0.0)

    def test_random_roundtrip(self):
        dom = make_domain(3, 2.0, 8)
        u = random_field(dom, seed=7)
        back = transform_forward(dom, transform_inverse(dom, u.coeffs))
        err = np.max(np.abs(back - u.coeffs)) / np.max(np.abs(u.coeffs))
        assert err <= 1e-12

    def test_parseval(self):
        dom = make_domain(2, 1.5, 24)
        u = random_field(dom, seed=3)
        phys = transform_inverse(dom, u.coeffs)
        quad = np.sum(phys**2) * dom.dx**dom.d
        spec = norms(u).h_norm_sq
        assert abs(quad - spec) <= 1e-10 * spec

    def test_shape_mismatch(self):
        dom = make_domain(2, math.pi, 8)
        with pytest.raises(ShapeMismatchError):
            transform_forward(dom, np.zeros((2, 8, 9)))

    @pytest.mark.parametrize("call,match", [
        (lambda dom: SpectralVelocityField(dom, np.zeros((2, 8, 9))), "expected coeffs of shape"),
        (lambda dom: transform_inverse(dom, np.zeros((3, 8, 8))), "expected coeffs of shape"),
        (lambda dom: project_coeffs(dom, np.zeros((2, 8))), "expected coeffs of shape"),
        (lambda dom: constant_field(dom, [1.0, 0.0, 0.0]), "expected a 2-vector"),
        (lambda dom: single_mode_field(dom, [1, 0, 0]), "expected a 2-component mode index"),
        (lambda dom: inner_h(zero_field(dom), zero_field(make_domain(2, math.pi, 16))), "different domains"),
    ])
    def test_layout_mismatch_rejected(self, call, match):
        with pytest.raises(ShapeMismatchError, match=match):
            call(make_domain(2, math.pi, 8))

    @pytest.mark.parametrize("call,match", [
        (lambda dom: single_mode_field(dom, [5, 0]), "exceeds the resolved band"),
        (lambda dom: lebesgue_norm(zero_field(dom), 0.5), "invalid-exponent"),
        (lambda dom: lebesgue_norm(zero_field(dom), math.inf), "invalid-exponent"),
    ])
    def test_out_of_range_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(make_domain(2, math.pi, 8))


class TestHalfSpectrumBox:
    """Layout changes of the solvers' box arrays."""

    @pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
    def test_full_layout(self, d, N, dealias):
        dom = make_domain(d, math.pi, N, dealias)
        rng = np.random.default_rng(71)
        shape = (d,) + dom.box_phase.shape
        box = _box_hermitian(dom, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), _box_reflect(dom))
        full = _box_full(dom, box)
        axes = dom.spatial_axes
        assert np.array_equal(np.conj(np.roll(np.flip(full, axis=axes), 1, axis=axes)), full)
        assert np.all(np.ascontiguousarray(full[:, ~dom.dealias_mask]).view(np.uint64) == 0)  # +0.0
        assert np.array_equal(_box_part(dom, full), box)
        # the real field behind the box, as numpy's complex transform sees it
        grid = np.fft.ifftn(full, axes=axes)
        assert np.abs(grid.imag).max() <= 1e-15 * np.abs(grid.real).max()
        if dealias < 1.0:
            u = random_field(dom, seed=72)
            assert np.array_equal(_box_full(dom, _box_part(dom, u.coeffs)), u.coeffs)


class TestLerayProjection:
    def test_annihilates_gradients(self):
        dom = make_domain(2, math.pi, 16)
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        grad = dom.kvec * phi  # pure gradient mode-wise
        out = leray_project(dom, grad)
        assert np.max(np.abs(out.coeffs)) <= 1e-13 * np.max(np.abs(grad))

    def test_divergence_free_unchanged(self):
        dom = make_domain(2, math.pi, 16)
        u = sin_y_field(dom)
        out = leray_project(dom, u.coeffs)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_random_projection_divergence(self):
        dom = make_domain(3, math.pi, 8)
        rng = np.random.default_rng(1)
        raw = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        out = leray_project(dom, raw)
        div = np.max(np.abs(np.sum(dom.kvec * out.coeffs, axis=0)))
        assert div <= 1e-12 * np.linalg.norm(out.coeffs)

    def test_idempotent(self):
        dom = make_domain(2, math.pi, 16)
        rng = np.random.default_rng(2)
        raw = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        p1 = project_coeffs(dom, raw)
        p2 = project_coeffs(dom, p1)
        assert np.max(np.abs(p2 - p1)) <= 1e-13 * np.max(np.abs(p1))

    def test_self_adjoint(self):
        dom = make_domain(2, math.pi, 16)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        b = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        pa = project_coeffs(dom, a)
        pb = project_coeffs(dom, b)
        lhs = dom.measure * np.real(np.sum(pa * np.conj(b)))
        rhs = dom.measure * np.real(np.sum(a * np.conj(pb)))
        scale = dom.measure * np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_constructor_rejects_divergent(self):
        dom = make_domain(2, math.pi, 8)
        coeffs = np.zeros(dom.shape, dtype=complex)
        coeffs[0, 1, 1] = 1.0  # k=(1,1) with u along x only
        with pytest.raises(ValueError, match="divergence"):
            SpectralVelocityField(dom, coeffs)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, -math.inf), complex(math.inf, math.nan)])
    def test_constructor_rejects_non_finite(self, bad):
        dom = make_domain(2, math.pi, 16)
        coeffs = random_field(dom, seed=19).coeffs.copy()
        coeffs[1, 2, 3] = bad
        with pytest.raises(ValueError, match=r"1 non-finite coefficients, the first at \(component, mode\) \[\[1, 2, 3\]\]"):
            SpectralVelocityField(dom, coeffs)

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_out_of_range_divergent_field_rejected(self, size):
        # one finite coefficient whose square overflows or underflows, at k = (1, 1) along x only
        dom = make_domain(2, math.pi, 8)
        coeffs = np.zeros(dom.shape, dtype=complex)
        coeffs[0, 1, 1] = size
        with pytest.raises(ValueError, match="not divergence-free"):
            SpectralVelocityField(dom, coeffs)

    def test_overflowing_norm_constructs(self):
        # every coefficient finite, the sum of squares not: the field stands
        dom = make_domain(2, math.pi, 16)
        coeffs = 1e200 * random_field(dom, seed=20).coeffs
        with np.errstate(over="ignore"):
            assert np.isfinite(coeffs).all() and not math.isfinite(np.sum(np.abs(coeffs) ** 2))
            assert np.array_equal(SpectralVelocityField(dom, coeffs).coeffs, coeffs)

    @pytest.mark.parametrize("d,N", [(2, 16), (3, 12)])
    def test_real_noise_projects_to_a_real_field(self, d, N):
        # real samples have Nyquist content, which the projection keeps Hermitian at 2/3 dealiasing too
        dom = make_domain(d, math.pi, N)
        u = leray_project(dom, transform_forward(dom, np.random.default_rng(1).standard_normal(dom.shape)))
        axes = dom.spatial_axes
        reflected = np.roll(np.flip(u.coeffs, axis=axes), shift=[1] * d, axis=axes)
        assert np.abs(np.conj(reflected) - u.coeffs).max() <= 1e-15 * np.abs(u.coeffs).max()
        imag = np.fft.ifftn(dom.phase * u.coeffs, axes=axes).imag * N**d
        assert np.abs(imag).max() <= 1e-14 * np.abs(transform_inverse(dom, u.coeffs)).max()


class TestNorms:
    def test_shear_h_norm(self):
        dom = make_domain(2, math.pi, 16)
        n = norms(sin_y_field(dom))
        assert abs(n.h_norm_sq - 2.0 * math.pi**2) <= 1e-12 * n.h_norm_sq

    def test_zero_field(self):
        dom = make_domain(2, math.pi, 8)
        n = norms(zero_field(dom), p_list=(3.0,))
        assert n.h_norm_sq == 0.0 and n.grad_norm_sq == 0.0 and n.lp_norm[3.0] == 0.0

    def test_shear_gradient_equals_h(self):
        dom = make_domain(2, math.pi, 16)
        n = norms(sin_y_field(dom))
        assert abs(n.grad_norm_sq - n.h_norm_sq) <= 1e-12 * n.h_norm_sq

    def test_v_norm_is_exact_sum(self):
        dom = make_domain(2, math.pi, 16)
        n = norms(random_field(dom, seed=6))
        assert n.v_norm_sq == n.h_norm_sq + n.grad_norm_sq

    def test_vprime_weighting(self):
        dom = make_domain(2, math.pi, 16)
        u = sin_y_field(dom)
        n = norms(u)
        # single |k|^2 = 1 mode: dual weight is exactly 1/2
        assert abs(n.vprime_norm_sq - 0.5 * n.h_norm_sq) <= 1e-12 * n.h_norm_sq

    def test_duality_pairing_bound(self):
        dom = make_domain(2, math.pi, 16)
        a = random_field(dom, seed=11)
        b = random_field(dom, seed=12)
        na, nb = norms(a), norms(b)
        assert abs(inner_h(a, b)) <= math.sqrt(na.vprime_norm_sq * nb.v_norm_sq) * (1 + 1e-12)


class TestInterpolation:
    def test_degenerate_equality(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=1)
        lhs, rhs = check_interpolation(u, 2.0, 2.0, 2.0)
        assert lhs == rhs

    def test_constant_field_equality(self):
        dom = make_domain(2, math.pi, 16)
        u = constant_field(dom, [0.7, -0.2])
        lhs, rhs = check_interpolation(u, 2.0, 3.0, 6.0)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_random_inequality(self):
        dom = make_domain(2, math.pi, 16)
        u = random_field(dom, seed=2)
        lhs, rhs = check_interpolation(u, 2.0, 3.0, 4.0)
        assert lhs <= rhs * (1 + 1e-12)

    def test_property_sweep(self):
        dom = make_domain(2, math.pi, 16)
        for i in range(1000):
            u = random_field(dom, seed=(100, i))
            for s in (3.0, 4.0, 6.0):
                lhs, rhs = check_interpolation(u, 2.0, s, 2.0 * s)
                assert lhs <= rhs * (1 + 1e-10)

    def test_bad_ordering(self):
        dom = make_domain(2, math.pi, 8)
        with pytest.raises(ValueError, match="invalid-exponent"):
            check_interpolation(random_field(dom, seed=0), 4.0, 3.0, 6.0)


class TestFieldHelpers:
    def test_single_mode_divergence_free(self):
        dom = make_domain(3, math.pi, 8)
        u = single_mode_field(dom, [1, 2, 0], amplitude=2.0)
        div = np.max(np.abs(np.sum(dom.kvec * u.coeffs, axis=0)))
        assert div <= 1e-12

    def test_field_from_physical(self):
        dom = make_domain(2, math.pi, 16)
        y = dom.coords[1]
        samples = np.stack([np.sin(y), np.zeros_like(y)])
        u = field_from_physical(dom, samples)
        ref = sin_y_field(dom)
        assert np.max(np.abs(u.coeffs - ref.coeffs)) <= 1e-13

    def test_single_mode_zero_is_constant(self):
        dom = make_domain(3, math.pi, 8)
        u = single_mode_field(dom, [0, 0, 0], amplitude=1.5)
        assert np.array_equal(u.coeffs, constant_field(dom, [1.5, 0.0, 0.0]).coeffs)
        assert norms(u).h_norm_sq == pytest.approx(1.5**2 * dom.measure, rel=1e-14)

    def test_3d_bump_is_curl_of_stream_function(self):
        # u = curl(psi e_z) = (d_y psi, -d_x psi, 0) for psi = A exp(-|x - c|^2 / (2 w^2)); the box
        # [-2 pi, 2 pi]^3 holds the Gaussian, and the dealiased band resolves it to ~1e-6
        dom = make_domain(3, 2.0 * math.pi, 32)
        amp, width, center = 0.7, 1.0, np.array([0.5, -0.25, 0.0])
        u = bump_field(dom, center=center, width=width, amplitude=amp)
        rel = dom.coords - center.reshape(3, 1, 1, 1)
        psi = amp * np.exp(-np.sum(rel**2, axis=0) / (2.0 * width**2))
        expect = np.stack([-rel[1] * psi, rel[0] * psi, np.zeros_like(psi)]) / width**2
        got = np.fft.ifftn(dom.phase * u.coeffs, axes=dom.spatial_axes) * dom.N**3
        scale = np.abs(expect).max()
        assert np.abs(got.imag).max() <= 1e-14 * scale
        assert np.abs(got.real - expect).max() <= 1e-5 * scale
        assert np.abs(u.coeffs[2]).max() <= 1e-15 * np.abs(u.coeffs).max()
        assert np.abs(np.sum(dom.kvec * u.coeffs, axis=0)).max() <= 1e-14 * np.abs(u.coeffs).max()

    @staticmethod
    def constructed(dom):
        """One field of every constructor that projects: random, bump, from grid samples, family samples."""
        u = random_field(dom, 3)
        return [u, bump_field(dom, width=1.0, support_radius=1.5),
                field_from_physical(dom, transform_inverse(dom, u.coeffs)),
                *TemperedFamily(2.0, sample_count=2, sampler_seed=4).samples(dom, 1.5)]

    @pytest.mark.parametrize("d,N,dealias", [(2, 24, 1.0), (3, 12, 1.0), (2, 24, 2.0 / 3.0), (3, 12, 2.0 / 3.0)],
                             ids=["2-24", "3-12", "2-24-two-thirds", "3-12-two-thirds"])
    def test_fields_real_at_full_band(self, d, N, dealias):
        # every constructor builds on the box, Nyquist planes included at dealias 1: Hermitian to
        # the bit, and +0.0 outside the box
        dom = make_domain(d, math.pi, N, dealias)
        axes = dom.spatial_axes
        for f in self.constructed(dom):
            reflected = np.roll(np.flip(f.coeffs, axis=axes), shift=[1] * d, axis=axes)
            assert np.array_equal(np.conj(reflected), f.coeffs)
            assert np.all(np.ascontiguousarray(f.coeffs[:, ~dom.dealias_mask]).view(np.uint64) == 0)
            imag = np.fft.ifftn(dom.phase * f.coeffs, axes=axes).imag * N**d
            assert np.abs(imag).max() <= 1e-14 * np.abs(transform_inverse(dom, f.coeffs)).max()

    @pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
    def test_constructors_build_no_full_projection(self, d, N, monkeypatch):
        # once the domain holds its box tables, no constructor builds the full-layout ones
        dom = make_domain(d, math.pi, N)

        def refuse(*args):
            raise AssertionError("full-layout projection tables built")

        monkeypatch.setattr(domain_module, "_projection", refuse)
        assert len(self.constructed(dom)) == 5

    @pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("d,N", [(2, 24), (3, 12)])
    def test_box_rule_equals_full_rule(self, d, N, dealias):
        # on dealiased Hermitian input the box rule and project_coeffs agree in value everywhere
        dom = make_domain(d, math.pi, N, dealias)
        rng = np.random.default_rng(81)
        shape = (d,) + dom.box_phase.shape
        box = _box_hermitian(dom, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), _box_reflect(dom))
        raw = _box_full(dom, box)
        assert np.array_equal(_box_solenoidal(dom, _box_part(dom, raw)).coeffs, project_coeffs(dom, raw))


class TestSnapshots:
    def test_bit_exact_roundtrip(self, tmp_path):
        dom = make_domain(2, 1.7, 8)
        u = random_field(dom, seed=13)
        fname = tmp_path / "snap.csv"
        save_snapshot(u, fname, time=0.375)
        v, t = load_snapshot(fname)
        assert t == 0.375
        assert np.array_equal(v.coeffs, u.coeffs)
        assert v.domain == u.domain

    def test_3d_roundtrip(self, tmp_path):
        dom = make_domain(3, math.pi, 4)
        u = random_field(dom, seed=14)
        fname = tmp_path / "snap3.csv"
        save_snapshot(u, fname)
        v, _ = load_snapshot(fname)
        assert np.array_equal(v.coeffs, u.coeffs)

    @staticmethod
    def reference_bytes(field, time):
        """The per-row ``repr`` writer that the block writer replaced."""
        dom = field.domain
        header = {"d": dom.d, "L": dom.L, "N": dom.N,
                  "dealias_fraction": dom.dealias_fraction, "time": float(time)}
        cols = ["kx", "ky", "kz"][: dom.d]
        for comp in range(dom.d):
            cols += [f"re_u{comp + 1}", f"im_u{comp + 1}"]
        lines = [json.dumps(header, sort_keys=True), ",".join(cols)]
        k1 = (np.pi / dom.L) * dom.modes
        for idx in np.ndindex(*(dom.N,) * dom.d):
            row = [repr(float(k1[i])) for i in idx]
            for comp in range(dom.d):
                c = field.coeffs[(comp,) + idx]
                row += [repr(float(c.real)), repr(float(c.imag))]
            lines.append(",".join(row))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("d, N", [(2, 64), (3, 32)])
    def test_bytes_match_row_writer(self, d, N, tmp_path):
        dom = make_domain(d, 1.3, N)
        coeffs = random_field(dom, seed=15).coeffs.copy()
        flat = coeffs.reshape(d, -1)
        n = flat.shape[1]
        # awkward values around the ends of the 4096-row write blocks
        flat[1, 4095] = complex(-0.0, 5e-324)
        flat[0, 4096 % n] = complex(1e-300, -0.0)
        flat[d - 1, n - 1] = complex(5e-324, -1e-300)
        flat[:, n - 2] = 0.0
        flat[0, n - 2] = complex(0.0, -0.0)  # one signed zero in an otherwise zero row
        flat[0, 0] = complex(1e16, -0.0)  # the zero mode takes any value
        u = SpectralVelocityField(dom, coeffs)
        fname = tmp_path / "snap.csv"
        save_snapshot(u, fname, time=-0.0)
        assert fname.read_bytes() == self.reference_bytes(u, -0.0)
        v, t = load_snapshot(fname)
        assert math.copysign(1.0, t) == -1.0
        assert v.coeffs.flags.c_contiguous
        assert np.array_equal(v.coeffs.view(np.uint64), u.coeffs.view(np.uint64))

    def test_writer_holds_blocks_not_the_field(self, tmp_path):
        dom = make_domain(3, math.pi, 32)
        u = random_field(dom, seed=18)
        tracemalloc.start()
        try:
            save_snapshot(u, tmp_path / "snap.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full copy of the values alone is one field, 1.5 MB; the whole writer held 3.1 MB
        assert peak <= 2 * 2**20

    def test_swapped_rows_rejected(self, tmp_path):
        dom = make_domain(2, math.pi, 8)
        fname = tmp_path / "snap.csv"
        save_snapshot(random_field(dom, seed=16), fname)
        lines = fname.read_text().splitlines(keepends=True)
        lines[7], lines[8] = lines[8], lines[7]
        fname.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"row order mismatch at \(0, 5\)"):
            load_snapshot(fname)

    def test_non_finite_row_rejected(self, tmp_path):
        dom = make_domain(2, math.pi, 8)
        fname = tmp_path / "snap.csv"
        save_snapshot(random_field(dom, seed=21), fname)
        lines = fname.read_text().splitlines(keepends=True)
        lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"] + lines[3].split(",")[3:])
        fname.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"1 non-finite coefficients, the first at \(component, mode\) \[\[0, 0, 1\]\]"):
            load_snapshot(fname)

    def test_missing_row_rejected(self, tmp_path):
        dom = make_domain(2, math.pi, 8)
        fname = tmp_path / "snap.csv"
        save_snapshot(random_field(dom, seed=17), fname)
        fname.write_text("".join(fname.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ValueError, match="shape"):
            load_snapshot(fname)
