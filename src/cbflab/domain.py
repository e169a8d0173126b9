"""
Truncated periodic domain and spectral field machinery.

The computational box is ``[-L, L]^d`` with ``N`` collocation points per
axis, so every retained wavevector is an integer multiple of ``pi / L``.
Velocity fields live in Fourier space as complex coefficient arrays of
shape ``(d, N, ..., N)`` normalised so that

    u(x) = sum_k uhat(k) exp(i k . x).

With that convention the discrete quadrature of ``|u|^2`` over the box and
the coefficient sum ``(2L)^d sum_k |uhat|^2`` agree exactly (Parseval), and
the divergence-free constraint is the mode-wise condition ``k . uhat(k) = 0``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "TorusDomain",
    "SpectralVelocityField",
    "NormReport",
    "make_domain",
    "transform_forward",
    "transform_inverse",
    "leray_project",
    "project_coeffs",
    "dealias_coeffs",
    "inner_h",
    "norms",
    "lebesgue_norm",
    "check_interpolation",
    "mean_mode",
    "zero_field",
    "constant_field",
    "single_mode_field",
    "random_field",
    "bump_field",
    "field_from_physical",
    "save_snapshot",
    "load_snapshot",
]

DIV_TOL = 1e-10
_SNAPSHOT_BLOCK = 4096  # rows formatted per write


class ShapeMismatchError(ValueError):
    """Array shape does not match the domain layout."""


@dataclass(frozen=True, eq=False)
class TorusDomain:
    """
    Periodic box ``[-L, L]^d`` with ``N`` modes per axis.

    Wavevectors are ``(pi / L) * m`` for integer mode indices ``m`` in the
    standard FFT layout with ``|m| <= N/2``.  ``dealias_fraction`` sets the
    sharp per-axis truncation used after every pointwise product: modes with
    ``|m_i| > floor(dealias_fraction * N/2)`` on any axis are discarded.
    """

    d: int
    L: float
    N: int
    dealias_fraction: float = 2.0 / 3.0

    # derived tables, filled in __post_init__
    dx: float = dc_field(init=False, repr=False)
    measure: float = dc_field(init=False, repr=False)
    mode_cut: int = dc_field(init=False, repr=False)
    modes: np.ndarray = dc_field(init=False, repr=False)
    kvec: np.ndarray = dc_field(init=False, repr=False)
    k_sq: np.ndarray = dc_field(init=False, repr=False)
    dealias_mask: np.ndarray = dc_field(init=False, repr=False)
    coords: np.ndarray = dc_field(init=False, repr=False)
    phase: np.ndarray = dc_field(init=False, repr=False)
    # the dealiased half-spectrum box the solvers carry: leading axes keep the
    # rows |m| <= mode_cut in FFT order, the last axis keeps 0..mode_cut
    box_index: tuple = dc_field(init=False, repr=False)
    box_phase: np.ndarray = dc_field(init=False, repr=False)
    box_scale: np.ndarray = dc_field(init=False, repr=False)
    box_kvec: np.ndarray = dc_field(init=False, repr=False)
    box_k_sq: np.ndarray = dc_field(init=False, repr=False)
    box_weight: np.ndarray = dc_field(init=False, repr=False)
    box_projection: tuple = dc_field(init=False, repr=False)
    box_reflect: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"invalid-dimension: d must be 2 or 3, got {self.d}")
        if self.N % 2 != 0 or self.N < 4:
            raise ValueError(f"invalid-resolution: N must be even and >= 4, got {self.N}")
        if not (self.L > 0):
            raise ValueError(f"invalid-resolution: L must be positive, got {self.L}")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise ValueError(
                f"invalid-resolution: dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )
        d, L, N = self.d, self.L, self.N
        set_attr = object.__setattr__
        set_attr(self, "dx", 2.0 * L / N)
        set_attr(self, "measure", (2.0 * L) ** d)
        modes1 = np.fft.fftfreq(N, 1.0 / N)  # integer mode indices as floats
        set_attr(self, "modes", modes1)
        k1 = (np.pi / L) * modes1
        grids = np.meshgrid(*([k1] * d), indexing="ij")
        kvec = np.stack(grids)
        set_attr(self, "kvec", kvec)
        k_sq = np.sum(kvec**2, axis=0)
        set_attr(self, "k_sq", k_sq)
        cut = math.floor(self.dealias_fraction * (N // 2))
        set_attr(self, "mode_cut", cut)
        set_attr(self, "dealias_mask", _mode_box(self, cut))
        x1 = -L + self.dx * np.arange(N)
        set_attr(self, "coords", np.stack(np.meshgrid(*([x1] * d), indexing="ij")))
        # centering phase (-1)^(sum m_i): FFT index space samples at x = 0,
        # the box is centered, so true e^{i k . x} coefficients carry it
        mgrids = np.meshgrid(*([modes1] * d), indexing="ij")
        parity = np.zeros(mgrids[0].shape, dtype=int)
        for mg in mgrids:
            parity += np.abs(mg).astype(int)
        phase = 1.0 - 2.0 * (parity % 2)
        set_attr(self, "phase", phase)
        rows = np.arange(N) if 2 * cut == N else np.r_[: cut + 1, N - cut : N]
        ix = np.ix_(*([rows] * (d - 1) + [np.arange(cut + 1)]))
        set_attr(self, "box_index", ix)
        # box row of -m for every box row m, the rows being 0..c, then -c..-1
        reflect = -np.arange(rows.size) % rows.size
        set_attr(self, "box_reflect", np.ix_(*([reflect] * (d - 1))))
        set_attr(self, "box_phase", phase[ix])
        # the phase and 1/N^d of a forward pass onto the box
        set_attr(self, "box_scale", self.box_phase / N**d)
        set_attr(self, "box_k_sq", k_sq[ix])
        # first derivatives take the first pass's wavevectors: a zero Nyquist
        # wavenumber, as for any real field
        projection = _projection(self, kvec[(slice(None),) + ix])
        set_attr(self, "box_projection", projection)
        set_attr(self, "box_kvec", projection[0][0])
        # Parseval: the columns 1..N/2-1 stand for their conjugates too
        set_attr(self, "box_weight", np.where(np.arange(cut + 1) % (N // 2) == 0, 1.0, 2.0))

    def __eq__(self, other):
        if not isinstance(other, TorusDomain):
            return NotImplemented
        return (self.d, self.L, self.N, self.dealias_fraction) == (
            other.d, other.L, other.N, other.dealias_fraction
        )

    def __hash__(self):
        return hash((self.d, self.L, self.N, self.dealias_fraction))

    @property
    def spatial_axes(self):
        return tuple(range(1, self.d + 1))

    @property
    def shape(self):
        return (self.d,) + (self.N,) * self.d


def _l2_norm(x):
    """
    Euclidean norm of a complex array: the two sums of squares that
    ``np.linalg.norm`` takes, as ufunc sums, which unlike BLAS wake no thread.
    """
    return math.sqrt(float(np.sum(np.square(x.real)) + np.sum(np.square(x.imag))))


def _safe_sq(k):
    """``|k|^2`` with 1 in place of 0, the divisor of the solenoidal projection."""
    k_sq = np.sum(k**2, axis=0)
    return np.where(k_sq == 0.0, 1.0, k_sq)


def _projection(domain, k):
    """
    The passes ``(k, |k|^2)`` of the solenoidal projection on the wavevectors ``k``: two along ``k`` with a zero
    Nyquist wavenumber, then, where ``k`` has Nyquist components, one along them, so that ``k(m)`` and ``k(-m)``
    both annihilate the result.  The second pass along ``k`` drops the roundoff divergence to eps * output scale, so
    a constructed field passes its own relative divergence invariant even when the projection annihilates the input.
    """
    nyquist = np.abs(k) == abs((np.pi / domain.L) * domain.modes[domain.N // 2])
    k_d = np.where(nyquist, 0.0, k)
    passes = [(p, _safe_sq(p)) for p in [k_d] + ([np.where(nyquist, k, 0.0)] if nyquist.any() else [])]
    return (passes[0],) + tuple(passes)


def _mode_box(domain, max_mode):
    """Mask of the modes with ``|m_i| <= max_mode`` on every axis."""
    mgrids = np.meshgrid(*([domain.modes] * domain.d), indexing="ij")
    keep = np.ones_like(mgrids[0], dtype=bool)
    for mg in mgrids:
        keep &= np.abs(mg) <= max_mode
    return keep


def make_domain(d, L, N, dealias_fraction=2.0 / 3.0) -> "TorusDomain":
    """Build the periodic box together with its wavevector tables."""
    return TorusDomain(d=d, L=float(L), N=int(N), dealias_fraction=float(dealias_fraction))


@dataclass
class SpectralVelocityField:
    """
    Divergence-free velocity field stored as Fourier coefficients.

    Coefficients have shape ``(d, N, ..., N)``.  Construction enforces the
    discrete incompressibility constraint ``max_k |k . uhat| <= 1e-10 |uhat|``;
    arrays coming from raw data should go through :func:`leray_project` first.
    """

    domain: TorusDomain
    coeffs: np.ndarray

    def __post_init__(self):
        dom = self.domain
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != dom.shape:
            raise ShapeMismatchError(f"expected coeffs of shape {dom.shape}, got {arr.shape}")
        self.coeffs = arr
        scale = _l2_norm(arr)
        if not math.isfinite(scale) and not np.isfinite(arr).all():  # a finite field's norm may overflow
            bad = np.argwhere(~np.isfinite(arr))
            raise ValueError(f"{len(bad)} non-finite coefficients, the first at (component, mode) {bad[:3].tolist()}")
        if scale > 0:
            div = np.abs(np.sum(dom.kvec * arr, axis=0)).max()
            if div > DIV_TOL * scale:
                raise ValueError(
                    f"field is not divergence-free: max |k.uhat| = {div:.3e} "
                    f"exceeds {DIV_TOL:.0e} * |uhat| = {DIV_TOL * scale:.3e}"
                )

    def copy(self) -> "SpectralVelocityField":
        return SpectralVelocityField(self.domain, self.coeffs.copy())


@dataclass(frozen=True)
class NormReport:
    """Squared energy norms of one field plus requested Lebesgue norms."""

    h_norm_sq: float
    grad_norm_sq: float
    v_norm_sq: float
    vprime_norm_sq: float
    lp_norm: dict


# ---------------------------------------------------------------------------
# transforms and projection


def transform_forward(domain, samples):
    """Physical samples ``(d, N, ..., N)`` -> Fourier coefficients."""
    samples = np.asarray(samples)
    if samples.shape != domain.shape:
        raise ShapeMismatchError(f"expected samples of shape {domain.shape}, got {samples.shape}")
    return domain.phase * np.fft.fftn(samples, axes=domain.spatial_axes) / domain.N**domain.d


def transform_inverse(domain, coeffs):
    """Fourier coefficients -> real physical samples on the grid."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != domain.shape:
        raise ShapeMismatchError(f"expected coeffs of shape {domain.shape}, got {coeffs.shape}")
    return np.real(np.fft.ifftn(domain.phase * coeffs, axes=domain.spatial_axes)) * domain.N**domain.d


def project_coeffs(domain, raw):
    """
    Mode-wise solenoidal projection ``uhat -> uhat - k (k.uhat)/|k|^2`` in the passes of :func:`_projection`,
    under which a Hermitian input stays Hermitian on every domain.
    """
    raw = np.asarray(raw, dtype=np.complex128)
    if raw.shape != domain.shape:
        raise ShapeMismatchError(f"expected coeffs of shape {domain.shape}, got {raw.shape}")
    return _project(raw, _projection(domain, domain.kvec))


def dealias_coeffs(domain, raw):
    return raw * domain.dealias_mask


def leray_project(domain, raw) -> SpectralVelocityField:
    """Project raw coefficients onto the divergence-free subspace."""
    return SpectralVelocityField(domain, project_coeffs(domain, raw))


# ---------------------------------------------------------------------------
# the dealiased half-spectrum box: arrays (k, M, ..., M, mode_cut + 1), M =
# min(2 mode_cut + 1, N), hold the leading-axis rows |m_i| <= mode_cut in FFT
# order and the real transform's columns 0..mode_cut.  A real field's other
# coefficients are uhat(-k) = conj(uhat(k)) or, outside the box, zero.
#
# The pruned transforms write every pass into a buffer the caller passes in,
# shaped by _inverse_shapes and _forward_shapes (fresh arrays when none are
# passed), so that a solve can build its buffers once and reuse them at every
# step.  A pass writes the whole of its buffer, the zero rows of a pad
# included, so a buffer may hold anything between calls.


def _box_neg(domain):
    """Full-layout index of ``-m`` for every mode ``m`` of the box."""
    return (slice(None),) + tuple(-i % domain.N for i in domain.box_index)


def _box_part(domain, coeffs):
    """Hermitian part ``(x[m] + conj x[-m]) / 2`` of full coefficients, on the box."""
    return 0.5 * (coeffs[(slice(None),) + domain.box_index] + np.conj(coeffs[_box_neg(domain)]))


def _box_full(domain, box):
    """Full Hermitian ``(d, N, ..., N)`` coefficients of a box array, +0.0 outside the box."""
    full = np.zeros(domain.shape, dtype=np.complex128)
    full[(slice(None),) + domain.box_index] = box
    # the missing half: conjugates of the columns 1..m, where m stops short of N/2
    m = min(domain.mode_cut, domain.N // 2 - 1)
    neg = _box_neg(domain)
    full[neg[:-1] + (neg[-1][..., 1 : m + 1],)] = np.conj(box[..., 1 : m + 1])
    return full


def _box_hermitian(domain, box):
    """Make the self-conjugate columns (last-axis 0, and N/2 when kept) Hermitian in place."""
    for j in (0, domain.N // 2) if 2 * domain.mode_cut == domain.N else (0,):
        col = box[..., j]
        col[...] = 0.5 * (col + np.conj(col[(Ellipsis,) + domain.box_reflect]))
    return box


def _inverse_shapes(domain, lead):
    """
    Buffer shapes of :func:`_box_inverse` for box arrays of leading shape
    ``lead``: one per leading axis, in pass order, which takes the
    zero-padded input (when the box drops rows) and the pass's output in its
    place.
    """
    shape = list(lead) + list(domain.box_phase.shape)
    shapes = []
    for axis in range(-domain.d, -1):
        shape[axis] = domain.N
        shapes.append(tuple(shape))
    return shapes


def _box_inverse(domain, box, bufs=None, out=None):
    """
    Real grid rows of box coefficients: ``irfftn``, zero-padding one leading
    axis at a time.  The leading-axis passes write into ``bufs`` (see
    :func:`_inverse_shapes`), each in place in its pad, and the last pass
    into ``out``; fresh arrays stand in for those not given.
    """
    N, c = domain.N, domain.mode_cut
    rows = domain.box_index[0].ravel()
    bufs = iter(bufs if bufs is not None else
                [np.empty(s, dtype=np.complex128) for s in _inverse_shapes(domain, box.shape[: -domain.d])])
    x = box
    for axis in range(-domain.d, -1):
        buf = next(bufs)
        if x.shape[axis] < N:
            tail = (slice(None),) * (-axis - 1)
            buf[(Ellipsis, slice(c + 1, N - c)) + tail] = 0.0  # the rows outside the box
            buf[(Ellipsis, rows) + tail] = x
            x = buf
        x = np.fft.ifft(x, axis=axis, out=buf)
    return np.fft.irfft(x, n=N, axis=-1, out=out)


def _forward_shapes(domain, lead):
    """
    Output shapes of the passes of :func:`_box_forward` for grid rows of
    leading shape ``lead``, in order: the ``rfft``, then per leading axis the
    ``fft`` and (when the box drops rows) its kept rows.
    """
    kept = domain.box_phase.shape[0]
    shape = list(lead) + [domain.N] * (domain.d - 1) + [domain.N // 2 + 1]
    shapes = [tuple(shape)]
    shape[-1] = domain.mode_cut + 1
    for axis in range(-2, -domain.d - 1, -1):
        shapes.append(tuple(shape))
        if kept < domain.N:
            shape[axis] = kept
            shapes.append(tuple(shape))
    return shapes


def _box_forward(domain, grid, bufs=None):
    """
    Box coefficients of real grid rows: ``rfftn`` keeping the box rows after
    every pass.  The passes write into ``bufs`` (see :func:`_forward_shapes`;
    fresh arrays when None), and the result is the last of them.
    """
    rows = domain.box_index[0].ravel()
    bufs = iter(bufs if bufs is not None else
                [np.empty(s, dtype=np.complex128) for s in _forward_shapes(domain, grid.shape[: -domain.d])])
    x = np.fft.rfft(grid, axis=-1, out=next(bufs))[..., : domain.mode_cut + 1]
    for axis in range(-2, -domain.d - 1, -1):
        x = np.fft.fft(x, axis=axis, out=next(bufs))
        if x.shape[axis] > rows.size:
            # mode "clip" takes into out directly; "raise" would buffer a copy
            x = np.take(x, rows, axis=axis, out=next(bufs), mode="clip")
    return x


def _project(x, passes):
    """``x -> x - k (k.x)/|k|^2`` for each ``(k, |k|^2)`` pass."""
    for k, k_sq in passes:
        x = x - k * (np.sum(k * x, axis=0) / k_sq)
    return x


# ---------------------------------------------------------------------------
# norms and inner products


def _energy_sq(domain, coeffs):
    """``(|u|^2, |grad u|^2)`` by Parseval, both from one ``|uhat|^2`` array."""
    c2 = np.abs(coeffs) ** 2
    return domain.measure * float(np.sum(c2)), domain.measure * float(np.sum(domain.k_sq * c2))


def inner_h(a: SpectralVelocityField, b: SpectralVelocityField) -> float:
    """L^2 inner product of two fields over the box."""
    if a.domain is not b.domain and a.domain != b.domain:
        raise ShapeMismatchError("fields live on different domains")
    return a.domain.measure * float(np.real(np.sum(a.coeffs * np.conj(b.coeffs))))


def lebesgue_norm(field: SpectralVelocityField, p: float) -> float:
    """``(integral |u|^p dx)^(1/p)`` by collocation quadrature."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"invalid-exponent: p must lie in [1, inf), got {p}")
    dom = field.domain
    u = transform_inverse(dom, field.coeffs)
    speed = np.sqrt(np.sum(u**2, axis=0))
    return float((np.sum(speed**p) * dom.dx**dom.d) ** (1.0 / p))


def norms(field: SpectralVelocityField, p_list=()) -> NormReport:
    """Energy norms via Parseval; Lebesgue norms via grid quadrature."""
    dom = field.domain
    h, grad = _energy_sq(dom, field.coeffs)
    vprime = dom.measure * float(np.sum(np.abs(field.coeffs) ** 2 / (1.0 + dom.k_sq)))
    lp = {float(p): lebesgue_norm(field, float(p)) for p in p_list}
    return NormReport(h_norm_sq=h, grad_norm_sq=grad, v_norm_sq=h + grad, vprime_norm_sq=vprime, lp_norm=lp)


def check_interpolation(field, s1, s, s2):
    """
    Evaluate both sides of the Lebesgue interpolation inequality
    ``|u|_s <= |u|_{s1}^l |u|_{s2}^(1-l)`` with ``1/s = l/s1 + (1-l)/s2``.
    Returns ``(lhs, rhs)``.
    """
    if not (1.0 <= s1 <= s <= s2 < np.inf):
        raise ValueError(f"invalid-exponent ordering: need 1 <= s1 <= s <= s2 < inf, got {(s1, s, s2)}")
    ell = 1.0 if s1 == s2 else (1.0 / s - 1.0 / s2) / (1.0 / s1 - 1.0 / s2)
    lhs = lebesgue_norm(field, s)
    rhs = lebesgue_norm(field, s1) ** ell * lebesgue_norm(field, s2) ** (1.0 - ell)
    return lhs, rhs


def mean_mode(field: SpectralVelocityField) -> np.ndarray:
    """The (unconstrained but reported) k = 0 coefficient, one entry per component."""
    idx = (slice(None),) + (0,) * field.domain.d
    return field.coeffs[idx].copy()


# ---------------------------------------------------------------------------
# field constructors


def zero_field(domain) -> SpectralVelocityField:
    return SpectralVelocityField(domain, np.zeros(domain.shape, dtype=np.complex128))


def constant_field(domain, vector) -> SpectralVelocityField:
    """Spatially constant velocity; only the k = 0 mode is populated."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (domain.d,):
        raise ShapeMismatchError(f"expected a {domain.d}-vector, got shape {vector.shape}")
    coeffs = np.zeros(domain.shape, dtype=np.complex128)
    idx = (slice(None),) + (0,) * domain.d
    coeffs[idx] = vector
    return SpectralVelocityField(domain, coeffs)


def _unit_orthogonal(m):
    """A deterministic unit vector orthogonal to the non-zero integer mode vector m."""
    m = np.asarray(m, dtype=float)
    if m.size == 2:
        e = np.array([-m[1], m[0]])
    else:
        probe = np.zeros(3)
        probe[int(np.argmin(np.abs(m)))] = 1.0
        e = np.cross(m, probe)
    return e / np.linalg.norm(e)


def single_mode_field(domain, mode, amplitude=1.0) -> SpectralVelocityField:
    """
    Real divergence-free field ``amp * e * cos(k.x)`` for one integer mode.

    ``e`` is a deterministic unit vector orthogonal to the mode, so the field
    is solenoidal exactly.  ``mode = 0`` gives a constant field along x.
    """
    mode = np.asarray(mode, dtype=int)
    if mode.shape != (domain.d,):
        raise ShapeMismatchError(f"expected a {domain.d}-component mode index")
    if np.any(np.abs(mode) > domain.N // 2):
        raise ValueError(f"mode {mode} exceeds the resolved band |m| <= {domain.N // 2}")
    if np.all(mode == 0):
        vec = np.zeros(domain.d)
        vec[0] = amplitude
        return constant_field(domain, vec)
    e = _unit_orthogonal(mode)
    coeffs = np.zeros(domain.shape, dtype=np.complex128)
    pos = tuple(int(m) % domain.N for m in mode)
    neg = tuple(int(-m) % domain.N for m in mode)
    for comp in range(domain.d):
        coeffs[(comp,) + pos] = 0.5 * amplitude * e[comp]
        coeffs[(comp,) + neg] = 0.5 * amplitude * e[comp]
    return SpectralVelocityField(domain, coeffs)


def _hermitian_gaussian(domain, rng, keep, weight=1.0):
    """
    Complex Gaussian coefficients times ``weight`` on the modes in ``keep``
    (all modes when None), made Hermitian ``uhat(-k) = conj(uhat(k))`` by
    averaging with the reflected array, then dealiased and projected.
    """
    raw = rng.standard_normal(domain.shape) + 1j * rng.standard_normal(domain.shape)
    raw *= weight
    if keep is not None:
        raw *= keep
    axes = domain.spatial_axes
    raw = 0.5 * (raw + np.conj(np.roll(np.flip(raw, axis=axes), 1, axis=axes)))
    return project_coeffs(domain, dealias_coeffs(domain, raw))


def _rescaled(domain, raw, norm) -> SpectralVelocityField:
    """The field of a :func:`_hermitian_gaussian` ``raw``, rescaled in place to the L^2 norm ``norm``."""
    scale = math.sqrt(domain.measure) * _l2_norm(raw)
    if scale > 0:
        raw *= norm / scale
    return SpectralVelocityField(domain, raw)


def random_field(domain, seed, amplitude=1.0, max_mode=None) -> SpectralVelocityField:
    """
    Smooth random divergence-free field, deterministic per seed.

    Coefficients are complex Gaussians shaped by ``(1 + |k|^2)^(-1)``,
    conjugate-symmetrised, dealiased, projected, then rescaled so that the
    L^2 norm equals ``amplitude``.
    """
    keep = None if max_mode is None else _mode_box(domain, max_mode)
    raw = _hermitian_gaussian(domain, np.random.default_rng(seed), keep,
                              (1.0 + domain.k_sq) ** -1.0)
    return _rescaled(domain, raw, amplitude)


def bump_field(domain, center=None, width=1.0, amplitude=1.0, support_radius=None) -> SpectralVelocityField:
    """
    Localised divergence-free eddy from a Gaussian stream function.

    2D: ``u = perp-grad psi``; 3D: ``u = curl (psi e_z)``.  When
    ``support_radius`` is given, psi is multiplied by a smooth cutoff that
    vanishes for ``|x - center| >= support_radius`` so the velocity is
    compactly supported before spectral truncation.
    """
    dom = domain
    if center is None:
        center = np.zeros(dom.d)
    center = np.asarray(center, dtype=float)
    rel = dom.coords - center.reshape((dom.d,) + (1,) * dom.d)
    r_sq = np.sum(rel**2, axis=0)
    psi = amplitude * np.exp(-r_sq / (2.0 * width**2))
    if support_radius is not None:
        inner_r = support_radius / math.sqrt(2.0)
        s = r_sq / inner_r**2
        psi = psi * (1.0 - cutoff_xi(s))
    psi_hat = dom.phase * np.fft.fftn(psi) / dom.N**dom.d
    # the projection's first wavevectors: a zero Nyquist wavenumber, as for any real field's derivatives
    k = _projection(dom, dom.kvec)[0][0]
    coeffs = np.zeros(dom.shape, dtype=np.complex128)
    if dom.d == 2:
        coeffs[0] = -1j * k[1] * psi_hat
        coeffs[1] = 1j * k[0] * psi_hat
    else:
        coeffs[0] = 1j * k[1] * psi_hat
        coeffs[1] = -1j * k[0] * psi_hat
    raw = dealias_coeffs(dom, coeffs)
    return leray_project(dom, raw)


def cutoff_xi(s):
    """
    Smooth radial cutoff: 0 on [0, 1], 1 on [2, inf), quintic ramp between
    with bounded derivative.
    """
    s = np.asarray(s, dtype=float)
    x = np.clip(s - 1.0, 0.0, 1.0)
    out = x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
    return out if out.ndim else float(out)


def field_from_physical(domain, samples) -> SpectralVelocityField:
    """Build a field from grid samples: transformed, dealiased and projected."""
    raw = dealias_coeffs(domain, transform_forward(domain, samples))
    return leray_project(domain, raw)


# ---------------------------------------------------------------------------
# snapshot files


def save_snapshot(field: SpectralVelocityField, path, time=0.0):
    """
    Write one field to disk: a JSON header line followed by CSV rows
    ``kx, ky[, kz], re_u1, im_u1, ...`` in ``np.ndindex`` order of the mode
    grid.  Floats are written with ``repr`` so the round trip is bit exact.
    """
    dom = field.domain
    header = {"d": dom.d, "L": dom.L, "N": dom.N, "dealias_fraction": dom.dealias_fraction,
              "time": float(time)}
    cols = ["kx", "ky", "kz"][: dom.d] + [f"{p}_u{c + 1}" for c in range(dom.d) for p in ("re", "im")]
    k1 = [repr(float(k)) for k in (np.pi / dom.L) * dom.modes]
    prefixes = map(",".join, itertools.product(k1, repeat=dom.d))
    flat = field.coeffs.reshape(dom.d, -1)
    zero_tail = ",0.0" * (2 * dom.d) + "\n"  # a row of +0.0 bits, as most dealiased modes are
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(cols) + "\n")
        # rows in blocks, each built from its slice of the field, so the block's values and its
        # nonzero rows' Python floats and strings are all that is held; zip takes the block's
        # rows first and so never draws a prefix past its end
        for start in range(0, flat.shape[1], _SNAPSHOT_BLOCK):
            part = flat[:, start:start + _SNAPSHOT_BLOCK]
            # one row per mode: re_u1, im_u1, re_u2, ...
            block = np.stack([part.real, part.imag], axis=1).reshape(2 * dom.d, -1).T
            zero = (block.view(np.uint64) == 0).all(axis=1)
            rows = iter(block[~zero].tolist())
            fh.write("".join(k + zero_tail if z else f"{k},{','.join(map(repr, next(rows)))}\n"
                             for z, k in zip(zero.tolist(), prefixes)))


def load_snapshot(path):
    """Read a snapshot file back; returns ``(field, time)``."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        fh.readline()  # column names
        dom = make_domain(header["d"], header["L"], header["N"], header["dealias_fraction"])
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = dom.d
    if body.shape != (dom.N**d, 3 * d):
        raise ValueError(f"snapshot body has shape {body.shape}, expected {(dom.N**d, 3 * d)}")
    wrong = np.any(body[:, :d] != dom.kvec.reshape(d, -1).T, axis=1)
    if wrong.any():
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(wrong)), (dom.N,) * d))
        raise ValueError(f"snapshot row order mismatch at {idx}")
    # assigning the parts keeps every bit, signed zeros included
    parts = body[:, d:].T
    coeffs = np.empty(dom.shape, dtype=np.complex128)
    coeffs.real = parts[0::2].reshape(dom.shape)
    coeffs.imag = parts[1::2].reshape(dom.shape)
    return SpectralVelocityField(dom, coeffs), header["time"]
