"""
Time integration of the damped flow in three forms.

* deterministic:  du/dt + mu A u + B(u) + alpha u + beta C(u) = f
* conjugated:     dv/dt + mu A v + (1/z) B(v) + alpha v + beta z^(1-r) C(v) = z f,
                  the pathwise form obtained from the noisy system through
                  v = z u with z(t) = exp(-eps omega(t))
* stratonovich:   the noisy system itself, du = [...] dt + eps u o dW

The step rule follows the system.  Both rules treat mu A + alpha with the
exact per-mode integrating factor exp(-(mu |k|^2 + alpha) dt), so no step
size is bounded by the linear part, and the advection/damping terms
explicitly.  The deterministic and conjugated forms take two-step
Adams-Bashforth after a second-order startup step.  The noisy form takes the
Heun predictor-corrector on the factored system, which converges to the
Stratonovich solution for this commutative scalar noise: the linear operator
commutes with the noise ``eps u dW``.  With no noise the same Heun step is
the Adams-Bashforth startup.

Every solve keeps a dense energy ledger (one row per step) that downstream
audits integrate: the energy identity residual, decay envelopes, uniform
pullback estimates, and the trajectory-level perturbation bounds.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domain import SpectralVelocityField, _box_full, _box_part, _energy_sq, _project
from .operators import PhysicalParameters, validate_params
from .stochastic import _NO_FORCING, ForcingProfile, WienerPath, conjugation

__all__ = [
    "BlowupError",
    "MismatchedTrajectoriesError",
    "OutOfBoxError",
    "SolverConfig",
    "Trajectory",
    "GapReport",
    "solve",
    "energy_identity_residual",
    "continuity_gap",
    "perturbation_envelope",
    "decay_envelope_check",
    "uniform_estimates_check",
]

_SYSTEMS = ("deterministic", "conjugated", "stratonovich")


class BlowupError(RuntimeError):
    """The advective stability proxy tripped or the state left finite range."""

    def __init__(self, t, max_speed, message=None):
        self.t = t
        self.max_speed = max_speed
        super().__init__(message or f"solution blow-up at t={t:.6g}: max |u| = {max_speed:.6g}")


class OutOfBoxError(ValueError):
    """Initial coefficients outside the dealiased box the solvers carry."""


class MismatchedTrajectoriesError(ValueError):
    """Two trajectories do not share grid, times, or solver settings."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls; term toggles support linear-only audits.  The system picks the step rule."""

    dt: float
    t_start: float = 0.0
    t_end: float = 1.0
    record_stride: int = 1
    include_B: bool = True
    include_C: bool = True

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_start) or not math.isfinite(self.t_end):
            raise ValueError(f"t_start and t_end must be finite, got {self.t_start} and {self.t_end}")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        _check_stride(self.record_stride)


def _check_stride(stride):
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"record_stride must be an integer >= 1, got {stride!r}")


def _step_count(t_start, t_end, dt) -> int:
    """Steps of ``dt`` from ``t_start`` to ``t_end``; ValueError unless the span is a finite multiple of dt >= 0."""
    span = t_end - t_start
    if span < 0:
        raise ValueError(f"t_end = {t_end} precedes t_start = {t_start}")
    if not math.isfinite(span / dt):
        raise ValueError(f"(t_end - t_start) / dt = {span} / {dt} is not finite")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"(t_end - t_start) = {span} is not a multiple of dt = {dt}")
    return n_steps


def _check_path_grid(what, t, spacing):
    """ValueError unless ``t`` is a whole multiple of the path grid ``spacing``, by the test of :func:`_step_count`."""
    try:
        _step_count(0.0, abs(t), spacing)
    except ValueError:
        raise ValueError(f"off-path-grid: {what} = {t} is not a multiple of the path grid {spacing}; the "
                         "stratonovich step takes the path's increments between its nodes") from None


class _Snapshots(Sequence):
    """
    Read-only sequence of the full Hermitian fields of a solve's box states.
    Each field is expanded (:func:`_box_full`) on its first read and kept, so
    a reader of the final state alone builds one full-layout array.
    """

    def __init__(self, domain, boxes):
        self.domain = domain
        self._boxes = boxes
        self._fields = [None] * len(boxes)

    def __len__(self):
        return len(self._boxes)

    def __getitem__(self, index):
        i = range(len(self))[index]  # negative indices, and IndexError out of range
        if self._fields[i] is None:
            self._fields[i] = SpectralVelocityField(self.domain, _box_full(self.domain, self._boxes[i]))
        return self._fields[i]


@dataclass
class Trajectory:
    """Snapshots (full fields, built on first read) plus a dense per-step energy ledger."""

    system: str
    params: PhysicalParameters
    config: SolverConfig
    times: np.ndarray
    states: _Snapshots
    ledger: dict
    path: Optional[WienerPath] = None
    profile: ForcingProfile = _NO_FORCING

    @property
    def domain(self):
        return self.states.domain

    @property
    def epsilon(self) -> float:
        return self.params.epsilon


# ---------------------------------------------------------------------------
# right-hand side evaluation on the dealiased half-spectrum box


# the columns of a ledger row, in the order _Kernel.row returns them
_LEDGER = ("h_sq", "grad_sq", "lr_pow", "f_pair", "z", "max_speed")


def _in_box(dom, coeffs, what):
    """Box part of full-layout ``coeffs`` (``what``); OutOfBoxError when they reach outside the dealiased box."""
    if np.any(coeffs[:, ~dom.dealias_mask]):
        raise OutOfBoxError(f"{what} reach outside the dealiased box |m_i| <= {dom.mode_cut}")
    return _box_part(dom, coeffs)


def _nbytes(specs):
    """Bytes of arrays of ``(shape, dtype)`` laid one after another."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs)


def _carve(buf, offset, specs):
    """Arrays of ``(shape, dtype)`` laid one after another in a byte buffer, from ``offset``."""
    out = []
    for shape, dtype in specs:
        n = _nbytes([(shape, dtype)])
        out.append(buf[offset : offset + n].view(dtype).reshape(shape))
        offset += n
    return out


# The pruned passes between the box (see cbflab.domain) and the grid.  Each
# pass writes into a buffer of the kernel's, shaped by _inverse_shapes and
# _forward_shapes, and writes the whole of it, the zero rows of a pad
# included, so a buffer may hold anything between calls.


def _box_reflect(dom):
    """Leading-axis index of the box row of ``-m`` for every box row ``m``, the rows being 0..c, then -c..-1."""
    reflect = -np.arange(dom.box_phase.shape[0]) % dom.box_phase.shape[0]
    return np.ix_(*([reflect] * (dom.d - 1)))


def _box_hermitian(dom, box, reflect):
    """Make the self-conjugate columns (last-axis 0, and N/2 when kept) Hermitian in place, by :func:`_box_reflect`."""
    for j in (0, dom.N // 2) if 2 * dom.mode_cut == dom.N else (0,):
        col = box[..., j]
        col[...] = 0.5 * (col + np.conj(col[(Ellipsis,) + reflect]))
    return box


def _copy_box_rows(dst, src, axis, c):
    """``dst`` with the rows ``0..c`` and ``-c..-1`` of ``src`` along the negative ``axis``, and zeros between."""
    tail = (slice(None),) * (-axis - 1)
    n, m = dst.shape[axis] - c, src.shape[axis] - c
    dst[(Ellipsis, slice(c + 1, n)) + tail] = 0.0
    dst[(Ellipsis, slice(c + 1)) + tail] = src[(Ellipsis, slice(c + 1)) + tail]
    dst[(Ellipsis, slice(n, None)) + tail] = src[(Ellipsis, slice(m, None)) + tail]
    return dst


def _inverse_shapes(dom, lead):
    """
    Buffer shapes of :func:`_box_inverse` for box arrays of leading shape
    ``lead``: one per leading axis, in pass order, which takes the
    zero-padded input (when the box drops rows) and the pass's output in its
    place.
    """
    shape = list(lead) + list(dom.box_phase.shape)
    shapes = []
    for axis in range(-dom.d, -1):
        shape[axis] = dom.N
        shapes.append(tuple(shape))
    return shapes


def _box_inverse(dom, box, bufs, out):
    """
    Real grid rows of box coefficients: ``irfftn``, zero-padding one leading
    axis at a time.  The leading-axis passes write into ``bufs`` (see
    :func:`_inverse_shapes`), each in place in its pad, and the last pass
    into ``out``.
    """
    x = box
    for axis, buf in zip(range(-dom.d, -1), bufs):
        if x.shape[axis] < dom.N:
            x = _copy_box_rows(buf, x, axis, dom.mode_cut)
        x = np.fft.ifft(x, axis=axis, out=buf)
    return np.fft.irfft(x, n=dom.N, axis=-1, out=out)


def _forward_shapes(dom, lead):
    """
    Output shapes of the passes of :func:`_box_forward` for grid rows of
    leading shape ``lead``, in order: the ``rfft``, then per leading axis the
    ``fft`` and (when the box drops rows) its kept rows.
    """
    kept = dom.box_phase.shape[0]
    shape = list(lead) + [dom.N] * (dom.d - 1) + [dom.N // 2 + 1]
    shapes = [tuple(shape)]
    shape[-1] = dom.mode_cut + 1
    for axis in range(-2, -dom.d - 1, -1):
        shapes.append(tuple(shape))
        if kept < dom.N:
            shape[axis] = kept
            shapes.append(tuple(shape))
    return shapes


def _box_forward(dom, grid, bufs):
    """
    Box coefficients of real grid rows: ``rfftn`` keeping the box rows after
    every pass.  The passes write into ``bufs`` (see :func:`_forward_shapes`),
    and the result is the last of them.
    """
    c = dom.mode_cut
    bufs = iter(bufs)
    x = np.fft.rfft(grid, axis=-1, out=next(bufs))[..., : c + 1]
    for axis in range(-2, -dom.d - 1, -1):
        x = np.fft.fft(x, axis=axis, out=next(bufs))
        if x.shape[axis] > 2 * c + 1:
            x = _copy_box_rows(next(bufs), x, axis, c)
    return x


# box rows (a, b) of each vorticity row d_a u_b - d_b u_a: the one row of
# 2D, the three of 3D
_CURL = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}
# flux row of u_i u_j at [i, j], the flux holding the rows i <= j in order
_SYM = {2: np.array([[0, 1], [1, 2]]), 3: np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])}


class _Kernel:
    """
    The explicit terms of one solve at weight z,

        -(1/z) B(u) - beta z^(1-r) C(u) + z f,

    as projected box coefficients, and the ledger row of the state, by the
    transform method on the box: one pruned real inverse pass of ``u`` and
    the derivative rows of the advection, advection and damping combined on
    the grid, and one pruned forward pass.  The box is the dealias mask, and
    the self-conjugate columns of the result are made exactly Hermitian.

    The advection takes one of two forms, fixed here as ``rotational`` and
    ``skew``.  When ``3 c < N`` an aliased product mode falls outside the box
    on its axis, so the box is alias-free for quadratic products, and the
    advection is the rotational form ``P[omega x u]`` from the ``2d - 3``
    vorticity rows: 9 single-row transforms per 3D call (5 in 2D).  On every
    other box it is the skew-symmetric form, 21 transforms (11 in 2D): the
    ``(u . grad) u`` half from the ``d^2`` gradient rows ``d_i u_j``, and the
    forward pass also transforms the symmetric flux ``u_i u_j``, whose
    divergence is the other half.  The two forms differ by the gradient
    ``grad |u|^2 / 2``, which the projection removes; where the box aliases
    they also differ at its edge rows, and only the skew-symmetric form
    agrees there with :func:`cbflab.operators.bilinear_B`.

    A solve builds one kernel, which keeps the box part of the forcing
    template (:class:`OutOfBoxError` when the template reaches outside the
    box) and every array a call writes into, so that a call allocates only
    box-sized arrays.  Every such array is a view of one byte buffer.  The
    grid stage lays the inverse pass's input ``box_rows`` and its
    ``inverse`` pads but the last under its output ``grid_rows``, since the
    last pass writes ``grid_rows`` when they are dead; the scratch row
    ``tmp``, ``speed_sq = |u|^2``, ``pw = |u|^(r-1)`` and the last pad lie
    above it.  The ``forward`` pass outputs lie one after another from the
    start of the buffer, over the grid stage, which is done when the forward
    pass starts.  ``stack`` lies above both, over the last pad, which is
    dead once ``grid_rows`` is written: the grid rows of the forward pass,
    the ``d`` combined rows followed in the skew-symmetric form by the
    ``d(d+1)/2`` flux rows.  The returned coefficients are a new array,
    never a view of a buffer: callers may keep them across calls.
    """

    def __init__(self, dom, params, profile, include_B, include_C):
        self.dom, self.params, self.profile, self.include_C = dom, params, profile, include_C
        # the template's box part, and its Parseval-weighted copy for the ledger; None without forcing
        self.g_box = None if profile.is_zero else _in_box(dom, profile.template.coeffs, "forcing template coefficients")
        self.g_weighted = None if self.g_box is None else dom.box_weight * self.g_box
        self.rotational = include_B and 3 * dom.mode_cut < dom.N
        self.skew = include_B and not self.rotational
        # the phase and 1/N^d of the forward pass onto the box, and the row reflection of its Hermitian columns
        self.scale = dom.box_phase / dom.N**dom.d
        self.reflect = _box_reflect(dom)

        d, c16, f8 = dom.d, np.complex128, np.float64
        grid = (dom.N,) * d
        rows = d + (len(_CURL[d]) if self.rotational else d * d if self.skew else 0)
        stacked = d + (d * (d + 1) // 2 if self.skew else 0)
        stack, grid_rows = [((stacked,) + grid, f8)], [((rows,) + grid, f8)]
        pads = [(s, c16) for s in _inverse_shapes(dom, (rows,))]
        forward = [(s, c16) for s in _forward_shapes(dom, (stacked,))]
        below = [((rows,) + dom.box_phase.shape, c16)] + pads[:-1]
        above = [(grid, f8)] * 3 + pads[-1:]
        top = max(_nbytes(grid_rows), _nbytes(below))
        # the forward outputs outgrow the grid stage on some 3D boxes, 12^3 at 2/3 among them
        base = max(top + _nbytes(above[:3]), _nbytes(forward))
        buf = np.empty(max(top + _nbytes(above), base + _nbytes(stack)), dtype=np.uint8)

        self.box_rows, *early = _carve(buf, 0, below)
        self.grid_rows = _carve(buf, 0, grid_rows)[0]
        self.tmp, self.speed_sq, self.pw, last = _carve(buf, top, above)
        self.inverse = early + [last]
        self.forward = _carve(buf, 0, forward)
        self.stack = _carve(buf, base, stack)[0]

    def _grid(self, coeffs, z, envelope):
        """Grid rows of ``u`` and its derivative rows (unscaled), ``|u|^(r-1)`` and the ledger row at ``envelope``."""
        dom, d = self.dom, self.dom.d
        x = self.box_rows
        np.multiply(dom.box_phase, coeffs, out=x[:d])
        k = dom.box_kvec
        if self.rotational:  # omega = i k x uhat
            for w_hat, (a, b) in zip(x[d:], _CURL[d]):
                np.multiply(k[a], x[b], out=w_hat)
                w_hat -= k[b] * x[a]
        elif self.skew:  # the gradient rows i k_i uhat_j, one block of d rows per i
            np.multiply(k[:, None], x[:d], out=x[d:].reshape((d,) + x[:d].shape))
        x[d:] *= 1j
        rows = _box_inverse(dom, x, self.inverse, self.grid_rows)
        u = rows[:d]
        u *= dom.N**d
        speed_sq = np.square(u[0], out=self.speed_sq)
        for ui in u[1:]:
            speed_sq += np.square(ui, out=self.tmp)
        # r = 1 needs no fork: x**0.0 is exactly 1.0 and 1.0 * x is x
        pw = np.power(speed_sq, 0.5 * (self.params.r - 1.0), out=self.pw)
        lr_density = np.multiply(pw, speed_sq, out=self.tmp)
        c2 = dom.box_weight * np.abs(coeffs) ** 2
        # ufunc sums, not np.vdot: BLAS would wake its threads on a 32^3 box
        f_pair = 0.0 if envelope is None else envelope * dom.measure * float(
            (coeffs.real * self.g_weighted.real + coeffs.imag * self.g_weighted.imag).sum())
        row = (dom.measure * float(c2.sum()), dom.measure * float((dom.box_k_sq * c2).sum()),
               dom.dx**d * float(lr_density.sum()), f_pair, z, math.sqrt(speed_sq.max()))
        return rows, pw, row

    def row(self, coeffs, t, z):
        """The ledger row of the state ``coeffs`` at ``(t, z)``, in ``_LEDGER`` order."""
        return self._grid(coeffs, z, None if self.g_box is None else self.profile(t))[-1]

    def __call__(self, coeffs, t, z):
        """``(n_hat, row)``: the projected explicit terms of ``coeffs`` at ``(t, z)``, and its ledger row."""
        envelope = None if self.g_box is None else self.profile(t)
        rows, pw, row = self._grid(coeffs, z, envelope)
        if self.rotational or self.skew or self.include_C:
            n_hat = self._nonlinear(rows, pw, z)
        else:
            n_hat = np.zeros_like(coeffs)
        if envelope is not None:
            n_hat += z * (envelope * self.g_box)
        # the projection returns a new array, so the result never aliases a buffer
        return _project(n_hat, self.dom.box_projection), row

    def _nonlinear(self, rows, pw, z):
        """Box coefficients of ``-(1/z) B(u) - beta z^(1-r) C(u)`` from the grid rows, before the projection."""
        dom, d, nd = self.dom, self.dom.d, self.dom.N**self.dom.d
        comb = self.stack[:d]
        u, w = rows[:d], rows[d:]
        if self.rotational:
            # -omega x u = u x omega
            scale = nd / z
            if d == 2:
                # u x (w e_z) = (u_1 w, -u_0 w)
                np.multiply(u[1], w[0], out=comb[0])
                np.multiply(u[0], w[0], out=comb[1])
                comb[0] *= scale
                comb[1] *= -scale
            else:
                for i in range(3):
                    a, b = (i + 1) % 3, (i + 2) % 3
                    np.multiply(u[a], w[b], out=comb[i])
                    comb[i] -= np.multiply(u[b], w[a], out=self.tmp)
                comb *= scale
        elif self.skew:
            # (u . grad) u = sum_i u_i d_i u in place in the gradient rows, then the flux rows u_i u_j, i <= j
            grads = w.reshape((d,) + u.shape)
            grads *= u[:, None]
            np.add.reduce(grads, axis=0, out=comb, initial=0.0)
            comb *= -0.5 * nd / z
            p = d
            for i in range(d):
                np.multiply(u[i], u[i:], out=self.stack[p : p + d - i])
                p += d - i
        else:
            comb[...] = 0.0
        if self.include_C:
            coef = self.params.beta * z ** (1.0 - self.params.r)
            for ci, ui in zip(comb, u):
                ci -= np.multiply(coef, np.multiply(pw, ui, out=self.tmp), out=self.tmp)
        out = _box_forward(dom, self.stack, self.forward)
        out *= self.scale
        n_hat = out[:d]
        if self.skew:
            # the flux divergence sum_i k_i F_ij, each sum taken 0 + (i = 0) + (i = 1) + ...
            div = np.add.reduce(dom.box_kvec[:, None] * out[d:][_SYM[d]], axis=0, initial=0.0)
            n_hat = n_hat - (0.5j / z) * div
        return _box_hermitian(dom, n_hat, self.reflect)


# ---------------------------------------------------------------------------
# trajectory solver


def _initial_box(dom, coeffs):
    """Box state of initial coefficients: the entry contract of :func:`solve`."""
    box = _in_box(dom, coeffs, "initial coefficients")
    # on kept Nyquist planes the Hermitian part is projected again, so that
    # both k(m) and k(-m) of the full layout annihilate it
    return _project(box, dom.box_projection) if 2 * dom.mode_cut == dom.N else box


def _check_row(row, t, cfl_scale):
    """Blow-up guard on a ledger row: finite energy, and CFL number ``max_speed * cfl_scale <= 0.5``."""
    h_sq, max_speed = row[0], row[-1]
    if not math.isfinite(h_sq):
        raise BlowupError(t, max_speed, f"non-finite energy at t={t:.6g}")
    if max_speed * cfl_scale > 0.5:
        raise BlowupError(t, max_speed)


def solve(system, initial: SpectralVelocityField, config: SolverConfig,
          params: PhysicalParameters, profile: ForcingProfile = _NO_FORCING,
          path: Optional[WienerPath] = None) -> Trajectory:
    """
    Integrate one trajectory and populate its energy ledger.

    ``system`` is ``'deterministic'``, ``'conjugated'`` or ``'stratonovich'``.
    The conjugated and noisy forms need a path at a positive intensity
    ``params.epsilon``; without one they take ``z = 1`` and ``dW = 0``.

    The step loop carries the state on the dealiased half-spectrum box (see
    :mod:`cbflab.domain`) and records the box state every ``record_stride``
    steps and at the end; ``Trajectory.states`` expands each to its full
    Hermitian field on first read.  The initial
    coefficients must vanish outside the box (:class:`OutOfBoxError`);
    inside it the solve starts from their Hermitian part, which is the
    initial field itself for real input.

    The path is evaluated on the whole step grid before the first step, so a
    path whose window is too short fails there (:class:`OutOfWindowError`).
    A noisy solve at a positive intensity steps from node to node of the path:
    ``dt`` and ``t_start + path.shift`` must be whole multiples of its grid.
    Every right-hand side goes through one :class:`_Kernel` built here,
    and the coefficients it returns are new arrays, so the ones a step keeps
    (the previous step's for AB2, the predictor's for Heun) outlive the next
    call.
    """
    if system not in _SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if params.d != initial.domain.d:
        raise ValueError(f"params.d = {params.d} does not match the field's dimension {initial.domain.d}")
    verdict = validate_params(params)
    if not verdict.admissible:
        raise ValueError(f"inadmissible parameters: {verdict.reason}")
    if system != "deterministic" and path is None and params.epsilon > 0:
        raise ValueError(f"system {system!r} needs a sampled path at epsilon = {params.epsilon}")

    dom = initial.domain
    dt = config.dt
    n_steps = _step_count(config.t_start, config.t_end, dt)

    if system == "stratonovich" and params.epsilon > 0:
        _check_path_grid("dt", dt, path.dt_grid)
        _check_path_grid("t_start + path.shift", config.t_start + path.shift, path.dt_grid)
    grid = config.t_start + dt * np.arange(n_steps + 1)
    # the conjugation factor at every node, and the Heun step's noise
    # increments (none outside the noisy system), from whole-grid path evaluations
    if system == "conjugated" and path is not None:
        zs = conjugation(path, params.epsilon, grid)
    else:
        zs = [1.0] * (n_steps + 1)
    if system == "stratonovich" and path is not None:
        noise = (params.epsilon * (path.value(grid[:-1] + dt) - path.value(grid[:-1]))).tolist()
    else:
        noise = [0.0] * n_steps
    kernel = _Kernel(dom, params, profile, config.include_B, config.include_C)
    # the linear part, per mode, through its exact integrating factor in both step rules
    lam = params.mu * dom.box_k_sq + params.alpha
    e1 = np.exp(-lam * dt)
    e2 = e1 * e1
    cfl_scale = dt * dom.N / dom.L

    rows = np.empty((n_steps + 1, len(_LEDGER)))
    coeffs = _initial_box(dom, initial.coeffs)
    # box states at the snapshot steps: no step writes into a state array, so
    # references suffice
    snaps = [coeffs]
    snap_times = [config.t_start]

    for i in range(n_steps):
        t = float(grid[i])
        n0, row = kernel(coeffs, t, zs[i])
        rows[i] = row
        _check_row(row, t, cfl_scale)
        if i == 0 or system == "stratonovich":
            # Heun with integrating factors, on the noise eps c dW (Stratonovich);
            # at dW = 0 it is the AB2 startup step, local error O(dt^3)
            pred = e1 * (coeffs + dt * n0 + noise[i] * coeffs)
            n1 = kernel(pred, t + dt, zs[i + 1])[0]
            coeffs = e1 * coeffs + 0.5 * dt * (e1 * n0 + n1) + 0.5 * noise[i] * (e1 * coeffs + pred)
        else:
            # AB2 with integrating factors: u+ = E u + dt (3/2 E N(t, u) - 1/2 E^2 N(t - dt, u_prev))
            coeffs = e1 * coeffs + dt * (1.5 * (e1 * n0) - 0.5 * (e2 * prev))
        prev = n0
        if (i + 1) % config.record_stride == 0 or i + 1 == n_steps:
            snaps.append(coeffs)
            snap_times.append(float(grid[i + 1]))

    t_last = float(grid[n_steps])
    rows[n_steps] = row = kernel.row(coeffs, t_last, zs[n_steps])
    _check_row(row, t_last, 0.0)  # no step follows the last row, so no CFL guard

    return Trajectory(system=system, params=params, config=config, times=np.asarray(snap_times),
                      states=_Snapshots(dom, snaps), ledger=dict(zip(_LEDGER, rows.T), t=grid),
                      path=path, profile=profile)


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
    (residual O(dt^2) for the second-order AB2 step).  ``'exact-linear'`` is
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
        if not traj.profile.is_zero:
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
# Gronwall audits: continuity in initial data, and the perturbation bound


@dataclass(frozen=True)
class GapReport:
    """The measured ``|a - b|^2`` and its Gronwall envelope at the snapshot times; ``case``: the regime."""

    times: np.ndarray
    gap_sq: np.ndarray
    envelope: np.ndarray
    case: str


def _check_pair(a: Trajectory, b: Trajectory) -> str:
    """The regime of two trajectories whose domain, grids and ``(d, mu, alpha, beta, r)`` agree, so that they pair up."""
    if a.domain != b.domain:
        raise MismatchedTrajectoriesError("trajectories live on different domains")
    if len(a.ledger["t"]) != len(b.ledger["t"]) or not np.allclose(a.ledger["t"], b.ledger["t"]):
        raise MismatchedTrajectoriesError("trajectories use different time grids")
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise MismatchedTrajectoriesError("trajectories use different snapshot strides")
    if replace(a.params, epsilon=0.0) != replace(b.params, epsilon=0.0):
        raise MismatchedTrajectoriesError(f"trajectories solve with different parameters: {a.params} and {b.params}")
    return validate_params(a.params).regime


def _gronwall(a: Trajectory, b: Trajectory, rate, source, case) -> GapReport:
    """``(|a - b|^2 at the start + int source) * exp(int rate)`` on the ledger grid, read at the snapshot times."""
    t = a.ledger["t"]
    gap = np.array([_energy_sq(sa.domain, sa.coeffs - sb.coeffs)[0] for sa, sb in zip(a.states, b.states)])
    env = (gap[0] + _cumtrap(source, t)) * np.exp(_cumtrap(rate, t))
    return GapReport(times=a.times, gap_sq=gap, envelope=np.interp(a.times, t, env), case=case)


def continuity_gap(traj1: Trajectory, traj2: Trajectory, c_l4=None) -> GapReport:
    """
    Squared gap between two solutions from different initial data, against
    the analytic growth envelope of the parameters' regime:

    * 2D: Gronwall factor driven by the second trajectory's enstrophy,
      with the (empirical) interpolation constant ``c_l4``;
    * 3D, r > 3: e^{2 eta (t - t0)} with the explicit rate eta;
    * 3D, r = 3, 2 beta mu >= 1: non-increasing gap.
    """
    if traj1.system != traj2.system or traj1.epsilon != traj2.epsilon:
        raise MismatchedTrajectoriesError("trajectories solve different systems")
    regime = _check_pair(traj1, traj2)
    p = traj1.params
    t = traj1.ledger["t"]
    if regime == "2d":
        if c_l4 is None:
            raise ValueError("the 2D envelope needs the measured interpolation constant c_l4")
        rate = (c_l4**2 / (2.0 * p.mu)) * traj2.ledger["z"] ** -2.0 * traj2.ledger["grad_sq"]
    elif regime == "3d-supercritical":
        eta = (p.r - 3.0) / (2.0 * p.mu * (p.r - 1.0)) * (
            2.0 / (p.beta * p.mu * (p.r - 1.0))
        ) ** (2.0 / (p.r - 3.0))
        rate = np.full_like(t, 2.0 * eta)
    else:
        rate = np.zeros_like(t)
    return _gronwall(traj1, traj2, rate, np.zeros_like(t), regime)


def perturbation_envelope(det_traj: Trajectory, conj_traj: Trajectory, c_l4=None, c_b=None) -> GapReport:
    """
    Gronwall bound on ``|v_eps(t) - u(t)|^2`` assembled from the two energy
    ledgers, with every Young-inequality constant explicit.  The measured
    gap is evaluated at the shared snapshot times and must stay below the
    envelope when the inequality constants are honest upper bounds.
    """
    if det_traj.system != "deterministic" or conj_traj.system != "conjugated":
        raise MismatchedTrajectoriesError("expected one deterministic and one conjugated trajectory")
    regime = _check_pair(det_traj, conj_traj)
    p = conj_traj.params
    t = det_traj.ledger["t"]

    r = p.r
    mn = min(p.mu, p.alpha)
    z = conj_traj.ledger["z"]
    h_u = det_traj.ledger["h_sq"]
    g_u = det_traj.ledger["grad_sq"]
    g_v = conj_traj.ledger["grad_sq"]
    lr_u = det_traj.ledger["lr_pow"]
    lr_v = conj_traj.ledger["lr_pow"]
    f_sq = det_traj.profile.vprime_sq(t)

    q_inv = np.abs(1.0 / z - 1.0)       # |e^{eps w} - 1|
    q_fwd = np.abs(z - 1.0)             # |e^{-eps w} - 1|
    p_damp = np.abs(z ** (1.0 - r) - 1.0)

    damp_cross = 2.0 * p_damp * ((1.0 + 2.0**r) * lr_u + 2.0**r * lr_v)

    if regime == "2d":
        if c_l4 is None or c_b is None:
            raise ValueError("the 2D envelope needs the measured constants c_l4 and c_b")
        p1 = (2.0 * c_l4**2 / p.mu) * z**-2.0 * g_u + c_b * (g_u + g_v)
        p2 = (
            1.5 * c_b * q_inv ** (4.0 / 3.0) * h_u ** (1.0 / 3.0) * g_u
            + damp_cross
            + (2.0 * q_fwd**2 / mn) * f_sq
        )
    elif regime == "3d-supercritical":
        p_exp = (r - 1.0) / 2.0
        young = (p_exp - 1.0) * p_exp ** (-p_exp / (p_exp - 1.0))
        c_quad = young * (4.0 / p.beta) ** (1.0 / (p_exp - 1.0)) * p.mu ** (-p_exp / (p_exp - 1.0))
        c_cross = young * (4.0 / p.beta) ** (1.0 / (p_exp - 1.0)) * (p.beta / 2.0) ** (p_exp / (p_exp - 1.0))
        p1 = np.full_like(t, 2.0 * (c_quad + c_cross))
        p2 = damp_cross + (1.0 / p.beta) * q_fwd**2 * g_u + (2.0 * q_fwd**2 / mn) * f_sq
    else:
        slack = 2.0 * p.mu - 1.0 / p.beta
        if np.any(f_sq > 0.0) and slack <= 1e-12:
            raise ValueError(
                "the critical 3D perturbation envelope with forcing needs 2*beta*mu > 1"
            )
        theta = min(mn, max(slack, 1e-12))
        p1 = np.full_like(t, theta)
        p2 = damp_cross + (1.0 / p.beta) * q_fwd**2 * g_u + (q_fwd**2 / theta) * f_sq
    return _gronwall(det_traj, conj_traj, p1, p2, regime)


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
    forcing = traj.profile.vprime_sq(t)
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

    forcing = traj.profile.vprime_sq(t)
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
