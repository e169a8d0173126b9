"""
Self-contained invariant battery behind the `verify` subcommand.

Each check returns (name, passed, detail).  The battery is a condensed
version of the test suite: operator identities, transform consistency,
noise-path laws, and the zero-noise collapse, sized to run in well under a
minute.
"""

from __future__ import annotations

import math

import numpy as np

from . import domain as dom_mod
from . import operators as ops
from . import stochastic as sto
from .integrators import SolverConfig, solve
from .pullback import cocycle_eval, hausdorff_semidistance

__all__ = ["run_all"]


def _check_transforms(dom):
    u = dom_mod.random_field(dom, seed=11)
    phys = dom_mod.transform_inverse(dom, u.coeffs)
    back = dom_mod.transform_forward(dom, phys)
    rt = np.max(np.abs(back - u.coeffs)) / np.max(np.abs(u.coeffs))
    quad = np.sum(phys**2) * dom.dx**dom.d
    spec = dom.measure * np.sum(np.abs(u.coeffs) ** 2)
    parseval = abs(quad - spec) / spec
    ok = rt <= 1e-12 and parseval <= 1e-10
    return "transform_roundtrip_parseval", ok, f"roundtrip={rt:.2e} parseval={parseval:.2e}"


def _check_leray(dom):
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
    p1 = dom_mod.project_coeffs(dom, raw)
    p2 = dom_mod.project_coeffs(dom, p1)
    idem = np.max(np.abs(p2 - p1)) / np.max(np.abs(p1))
    div = np.max(np.abs(np.sum(dom.kvec * p1, axis=0))) / np.linalg.norm(p1)
    ok = idem <= 1e-12 and div <= 1e-12
    return "leray_projection", ok, f"idempotency={idem:.2e} divergence={div:.2e}"


def _check_advection_identities(dom, n=60):
    worst_vv = 0.0
    worst_anti = 0.0
    for i in range(n):
        u = dom_mod.random_field(dom, seed=(21, i))
        v = dom_mod.random_field(dom, seed=(22, i))
        w = dom_mod.random_field(dom, seed=(23, i))
        nv = dom_mod.norms(v)
        nu = dom_mod.norms(u)
        scale = math.sqrt(nu.h_norm_sq) * nv.v_norm_sq
        worst_vv = max(worst_vv, abs(ops.trilinear_b(u, v, v)) / scale)
        s = abs(ops.trilinear_b(u, v, w) + ops.trilinear_b(u, w, v))
        worst_anti = max(worst_anti, s / scale)
    ok = worst_vv <= 1e-10 and worst_anti <= 1e-10
    return "advection_identities", ok, f"|b(u,v,v)|={worst_vv:.2e} antisym={worst_anti:.2e}"


def _check_monotonicity(dom, n=40):
    worst = np.inf
    for r in (1.0, 3.0, 5.0):
        for i in range(n):
            u = dom_mod.random_field(dom, seed=(31, i))
            v = dom_mod.random_field(dom, seed=(32, i))
            lhs, rhs = ops.monotonicity_gap(u, v, r)
            worst = min(worst, lhs - rhs)
    ok = worst >= -1e-8
    return "damping_monotonicity", ok, f"min(lhs-rhs)={worst:.2e}"


def _check_interpolation(dom, n=60):
    worst = 0.0
    for i in range(n):
        u = dom_mod.random_field(dom, seed=(41, i))
        for s in (3.0, 4.0, 6.0):
            lhs, rhs = dom_mod.check_interpolation(u, 2.0, s, 2.0 * s)
            worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-10
    return "lebesgue_interpolation", ok, f"max lhs/rhs={worst:.12f}"


def _check_stokes(dom):
    u = dom_mod.random_field(dom, seed=51)
    au = ops.stokes_apply(u)
    lhs = dom_mod.inner_h(au, u)
    rhs = dom_mod.norms(u).grad_norm_sq
    rel = abs(lhs - rhs) / rhs
    return "stokes_energy", rel <= 1e-10, f"rel={rel:.2e}"


def _check_paths():
    p = sto.sample_path(2024, -50.0, 50.0, 0.05)
    z0 = p.value(0.0)
    s1 = sto.shift_path(sto.shift_path(p, 1.25), -1.25)
    law = max(abs(s1.value(t) - p.value(t)) for t in (-3.0, 0.0, 7.5))
    var = np.var([sto.sample_path(seed, -1.0, 1.0, 0.25).value(1.0) for seed in range(600)])
    ok = z0 == 0.0 and law == 0.0 and abs(var - 1.0) < 0.15
    return "wiener_paths", ok, f"omega(0)={z0} shift_defect={law} var(omega(1))={var:.3f}"


def _check_zero_noise_collapse(dom):
    params = ops.PhysicalParameters(d=2, mu=1.0, alpha=1.0, beta=1.0, r=3.0, epsilon=0.0)
    profile = sto.zero_forcing()
    cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=0.25)
    u0 = dom_mod.random_field(dom, seed=61, amplitude=0.5)
    omega = sto.sample_path(7, -4.0, 4.0, 5e-3)
    det = cocycle_eval(0.25, 0.0, None, u0, params, profile, cfg)
    sto_end = cocycle_eval(0.25, 0.0, omega, u0, params, profile, cfg)
    same = np.array_equal(det.coeffs, sto_end.coeffs)
    return "zero_noise_collapse", same, f"bitwise={same}"


def _check_decay(dom):
    params = ops.PhysicalParameters(d=2, mu=1.0, alpha=1.0, beta=1.0, r=3.0)
    cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=0.5)
    u0 = dom_mod.random_field(dom, seed=71, amplitude=0.5)
    traj = solve("deterministic", u0, cfg, params, sto.zero_forcing())
    h = traj.ledger["h_sq"]
    ok = bool(np.all(np.diff(h) <= 1e-14))
    return "unforced_energy_decay", ok, f"max increment={np.max(np.diff(h)):.2e}"


def _check_hausdorff():
    d1 = hausdorff_semidistance([[0.0, 0.0]], [[3.0, 4.0]])
    d2 = hausdorff_semidistance([[0.0], [10.0]], [[0.0]])
    d3 = hausdorff_semidistance([[0.0]], [[0.0], [10.0]])
    ok = abs(d1 - 5.0) < 1e-12 and d2 == 10.0 and d3 == 0.0
    return "hausdorff_semidistance", ok, f"3-4-5={d1} asym=({d2},{d3})"


def run_all():
    """Run the battery on a 24^2 grid; returns a list of result triples."""
    dom = dom_mod.make_domain(2, math.pi, 24)
    checks = [
        _check_transforms(dom),
        _check_leray(dom),
        _check_advection_identities(dom),
        _check_monotonicity(dom),
        _check_interpolation(dom),
        _check_stokes(dom),
        _check_paths(),
        _check_zero_noise_collapse(dom),
        _check_decay(dom),
        _check_hausdorff(),
    ]
    return checks
