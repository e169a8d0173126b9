"""
Acceptance battery: twelve numbered criteria, one test each, every tolerance
pinned.  Each test emits one PASS line with the measured figures (written past
pytest's capture), so any run of the battery doubles as a report.
"""

import math
import sys
import time

import numpy as np

from cbflab.domain import (
    SpectralVelocityField,
    bump_field,
    inner_h,
    make_domain,
    norms,
    random_field,
    single_mode_field,
)
from cbflab.integrators import (
    SolverConfig,
    energy_identity_residual,
    perturbation_envelope,
    solve,
)
from cbflab.operators import (
    PhysicalParameters,
    bilinear_B,
    empirical_constants,
    monotonicity_gap,
)
from cbflab.pullback import (
    TemperedFamily,
    absorbing_radius_det,
    absorbing_radius_stoch,
    cocycle_eval,
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


def report(num, name, detail):
    # bypass pytest capture so the criterion report always reaches the console
    print(f"ACCEPTANCE {num:2d} ({name}): PASS  {detail}", file=sys.__stdout__)


def params2(eps=0.0, mu=1.0, alpha=1.0, beta=1.0, r=3.0):
    return PhysicalParameters(2, mu, alpha, beta, r, eps)


def test_01_operator_identities():
    dom = make_domain(2, math.pi, 32)
    started = time.time()
    worst_vv, worst_anti = 0.0, 0.0
    for i in range(1000):
        u = random_field(dom, seed=(1001, i))
        v = random_field(dom, seed=(1002, i))
        w = random_field(dom, seed=(1003, i))
        scale = math.sqrt(norms(u).h_norm_sq) * norms(v).v_norm_sq
        buv = bilinear_B(u, v)
        buw = bilinear_B(u, w)
        worst_vv = max(worst_vv, abs(inner_h(buv, v)) / scale)
        worst_anti = max(worst_anti, abs(inner_h(buv, w) + inner_h(buw, v)) / scale)
    elapsed = time.time() - started
    assert worst_vv <= 1e-10
    assert worst_anti <= 1e-10
    assert elapsed < 30.0
    report(1, "operator identities", f"max|b(u,v,v)|={worst_vv:.2e} "
           f"max antisym defect={worst_anti:.2e} runtime={elapsed:.1f}s")


def test_02_monotonicity():
    dom = make_domain(2, math.pi, 32)
    worst_gap = math.inf
    worst_eq = 0.0
    for r in (1.0, 2.0, 3.0, 5.0):
        for i in range(1000):
            u = random_field(dom, seed=(2001, int(r), i))
            v = random_field(dom, seed=(2002, int(r), i))
            lhs, rhs = monotonicity_gap(u, v, r)
            worst_gap = min(worst_gap, lhs - rhs)
            if r == 1.0:
                worst_eq = max(worst_eq, abs(lhs - rhs) / max(lhs, 1.0))
    assert worst_gap >= -1e-8
    assert worst_eq <= 1e-10
    report(2, "damping monotonicity", f"min(lhs-rhs)={worst_gap:.2e} "
           f"r=1 equality defect={worst_eq:.2e}")


def test_03_energy_identity():
    dom = make_domain(2, math.pi, 32)
    u0 = random_field(dom, seed=3001, amplitude=1.0)
    lin_cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=1.0, include_B=False, include_C=False)
    lin = solve("deterministic", u0, lin_cfg, params2(), zero_forcing())
    lin_res = energy_identity_residual(lin, quadrature="exact-linear").max()
    assert lin_res <= 1e-10

    res = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        cfg = SolverConfig(dt=dt, t_start=0.0, t_end=1.0)
        traj = solve("deterministic", u0, cfg, params2(), zero_forcing())
        res.append(energy_identity_residual(traj).max())
    order1 = math.log2(res[0] / res[1])
    order2 = math.log2(res[1] / res[2])
    assert order1 >= 1.8 and order2 >= 1.8
    report(3, "energy identity", f"linear residual={lin_res:.2e} "
           f"orders=({order1:.2f}, {order2:.2f})")


def test_04_exponential_absorption():
    # mu = alpha = 1 pinned; the energy bound keeps only half the linear
    # damping, so the absorption deadline ln(100)/alpha from the envelope is
    # an upper bound: entry must happen by that rung (plus one rung slack)
    dom = make_domain(2, math.pi, 32)
    params = params2(beta=1e-3)
    rho = 10.0
    fam = TemperedFamily(radius_fn=rho, sample_count=6, sampler_seed=41,
                         max_mode=1, include_boundary=True)
    cfg = SolverConfig(dt=1e-2, t_start=0.0, t_end=1.0, record_stride=10**9)
    ladder = [1.0, 2.0, 3.0, 4.0, 4.7, 5.5, 6.5]
    est = measure_absorption(0.0, None, fam, params, zero_forcing(),
                             ladder, cfg, domain=dom)
    assert est.radius_sq == 1.0
    for t, m in zip(est.horizons, est.rung_max_norm_sq):
        assert m <= math.exp(-t) * rho**2 * (1 + 1e-9)
    deadline_rung = next(t for t in ladder if t >= math.log(100.0))
    deadline_next = ladder[min(ladder.index(deadline_rung) + 1, len(ladder) - 1)]
    assert est.entry_time is not None and est.entry_time <= deadline_next
    report(4, "exponential absorption", f"entry={est.entry_time} "
           f"deadline={deadline_rung} (ln(100)={math.log(100.0):.2f})")


def test_05_conjugation_equivalence():
    dom = make_domain(2, math.pi, 32)
    eps = 0.5
    params = params2(eps)
    u0 = random_field(dom, seed=5001, amplitude=1.0)
    path = sample_path(5002, -2.0, 2.0, 5e-5)  # both steps below go node to node on it
    prof = zero_forcing()

    def rel_gap(dt):
        cfg_s = SolverConfig(dt=dt, t_start=0.0, t_end=1.0, record_stride=10**9)
        strat = solve("stratonovich", u0, cfg_s, params, prof, path=path)
        cfg_c = SolverConfig(dt=dt, t_start=0.0, t_end=1.0, record_stride=10**9)
        v0 = SpectralVelocityField(dom, math.exp(-eps * path.value(0.0)) * u0.coeffs)
        conj = solve("conjugated", v0, cfg_c, params, prof, path=path)
        u_conj = conj.states[-1].coeffs / math.exp(-eps * path.value(1.0))
        ref = strat.states[-1].coeffs
        return float(np.linalg.norm(ref - u_conj) / np.linalg.norm(ref))

    g1 = rel_gap(1e-4)
    g2 = rel_gap(5e-5)
    order = math.log2(g1 / g2)
    assert g1 <= 1e-2
    assert order >= 0.5
    report(5, "conjugation equivalence", f"gap(dt=1e-4)={g1:.2e} order={order:.2f}")


def test_06_zero_intensity_collapse():
    dom = make_domain(2, math.pi, 16)
    u0 = random_field(dom, seed=6001, amplitude=0.5)
    omega = sample_path(6002, -70.0, 3.0, 5e-3)
    cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=0.5, record_stride=10**9)
    prof = constant_forcing(single_mode_field(dom, [0, 1], amplitude=0.3), delta=0.5)

    det_end = cocycle_eval(0.5, 0.0, None, u0, params2(), prof, cfg)
    sto_end = cocycle_eval(0.5, 0.0, omega, u0, params2(0.0), prof, cfg)
    assert np.array_equal(det_end.coeffs, sto_end.coeffs)

    m_det = absorbing_radius_det(0.0, params2(), prof)
    m_sto = absorbing_radius_stoch(0.0, omega, params2(0.0), prof)
    assert m_sto.radius_sq == m_det.radius_sq

    fam = TemperedFamily(radius_fn=1.0, sample_count=4, sampler_seed=61)
    det_samp = sample_attractor(0.0, None, params2(), prof,
                                [2.0, 4.0], fam, cfg, domain=dom)
    sto_samp = sample_attractor(0.0, omega, params2(0.0), prof,
                                [2.0, 4.0], fam, cfg, domain=dom)
    assert all(np.array_equal(a.coeffs, b.coeffs)
               for a, b in zip(det_samp.points, sto_samp.points))
    report(6, "zero-intensity collapse", "cocycle, radius, attractor sample bitwise equal")


def test_07_cocycle_law():
    dom = make_domain(2, math.pi, 16)
    cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
    u0 = random_field(dom, seed=7001, amplitude=0.5)
    omega = sample_path(7002, -4.0, 4.0, 1e-3)
    prof = zero_forcing()
    worst = {"det": 0.0, "stoch": 0.0}
    for kind in ("det", "stoch"):
        params = params2(0.5 if kind == "stoch" else 0.0)
        path = omega if kind == "stoch" else None
        for t in (0.25, 0.5, 1.0):
            for s in (0.25, 0.5, 1.0):
                lhs = cocycle_eval(t + s, 0.0, path, u0, params, prof, cfg)
                mid = cocycle_eval(s, 0.0, path, u0, params, prof, cfg)
                shifted = shift_path(omega, s) if kind == "stoch" else None
                rhs = cocycle_eval(t, s, shifted, mid, params, prof, cfg)
                defect = float(np.linalg.norm(lhs.coeffs - rhs.coeffs)
                               / np.linalg.norm(lhs.coeffs))
                worst[kind] = max(worst[kind], defect)
        assert worst[kind] <= 1e-6
    report(7, "cocycle law", f"max relative defect det={worst['det']:.2e} "
           f"stoch={worst['stoch']:.2e}")


def test_08_perturbation_envelope():
    # 2D at 32^2 with measured inequality constants
    dom = make_domain(2, math.pi, 32)
    consts = empirical_constants(dom, n_samples=24, seed=8)
    g = single_mode_field(dom, [1, 1], amplitude=0.3)
    prof = periodic_forcing(g, period=0.5, delta=0.5)
    omega = sample_path(8001, -3.0, 3.0, 1e-3)
    u0 = random_field(dom, seed=8002, amplitude=0.7)
    cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_stride=100)
    det = solve("deterministic", u0, cfg, params2(), prof)
    gaps_2d = []
    for eps in (0.5, 0.25, 0.125):
        conj = solve("conjugated", u0, cfg, params2(eps), prof, path=omega)
        rep = perturbation_envelope(det, conj,
                                    c_l4=consts["c_l4"], c_b=consts["c_b"])
        assert np.all(rep.gap_sq <= rep.envelope)
        gaps_2d.append(rep.gap_sq[-1])
    assert gaps_2d[0] > gaps_2d[1] > gaps_2d[2]

    # 3D with r = 5 at 16^3: all envelope constants explicit
    dom3 = make_domain(3, math.pi, 16)
    g3 = single_mode_field(dom3, [0, 1, 1], amplitude=0.2)
    prof3 = periodic_forcing(g3, period=0.5, delta=0.5)
    omega3 = sample_path(8003, -3.0, 3.0, 2e-3)
    u03 = random_field(dom3, seed=8004, amplitude=0.5)
    cfg3 = SolverConfig(dt=2e-3, t_start=0.0, t_end=1.0, record_stride=100)
    p3 = PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0)
    det3 = solve("deterministic", u03, cfg3, p3, prof3)
    gaps_3d = []
    for eps in (0.5, 0.25, 0.125):
        pe = PhysicalParameters(3, 1.0, 1.0, 1.0, 5.0, eps)
        conj3 = solve("conjugated", u03, cfg3, pe, prof3, path=omega3)
        rep = perturbation_envelope(det3, conj3)
        assert np.all(rep.gap_sq <= rep.envelope)
        gaps_3d.append(rep.gap_sq[-1])
    assert gaps_3d[0] > gaps_3d[1] > gaps_3d[2]
    report(8, "perturbation envelope", f"2D endpoint gaps={[f'{g:.2e}' for g in gaps_2d]} "
           f"3D endpoint gaps={[f'{g:.2e}' for g in gaps_3d]}")


def test_09_semicontinuity_trend():
    dom = make_domain(2, math.pi, 24)
    params = params2()
    g = single_mode_field(dom, [0, 1], amplitude=0.05)
    prof = periodic_forcing(g, period=1.0, delta=0.5)
    omega = sample_path(42, -70.0, 3.0, 5e-3)
    fam = TemperedFamily(radius_fn=1.0, sample_count=6, sampler_seed=91, max_mode=1)
    cfg = SolverConfig(dt=5e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
    ladder = [0.5, 0.25, 0.125, 0.0625]
    sweep = semicontinuity_sweep(0.0, omega, ladder, params, prof,
                                 [2.0, 4.0, 6.0], fam, cfg, domain=dom)
    assert sweep.weakly_decreasing
    assert sweep.final_is_min
    rel = abs(sweep.rows[-1].radius_sq - sweep.base_radius_sq) / sweep.base_radius_sq
    assert rel <= 0.01
    dists = [r.dist for r in sweep.rows]
    report(9, "semicontinuity trend", f"dists={[f'{d:.2e}' for d in dists]} "
           f"|M_eps-M_0|/M_0={rel:.2e} at eps=0.0625")


def test_10_tail_masses():
    L = 4 * math.pi
    dom = make_domain(2, L, 48)
    g = bump_field(dom, width=1.0, amplitude=1.0, support_radius=L / 4)
    prof = constant_forcing(g, delta=0.5)
    fam = TemperedFamily(radius_fn=0.5, sample_count=3, sampler_seed=101, max_mode=2)
    omega = sample_path(10001, -10.0, 6.0, 5e-3)
    cfg = SolverConfig(dt=5e-3, t_start=-4.0, t_end=0.0, record_stride=10**9)
    horizon = 4.0
    k1, k2 = L / 8, L / 4
    ratios = []
    for eps in (0.0, 0.25, 0.5):
        params = params2(eps)
        pulled = shift_path(omega, -horizon) if eps > 0 else None
        starts = fam.samples(dom, horizon)
        ends = [cocycle_eval(horizon, -horizon, pulled, s, params, prof, cfg)
                for s in starts]
        tm1 = max(tail_mass(e, k1) for e in ends)
        tm2 = max(tail_mass(e, k2) for e in ends)
        assert tm1 >= 2.0 * tm2
        ratios.append(tm1 / tm2)
    report(10, "tail masses", f"tail(L/8)/tail(L/4) over eps ladder = "
           f"{[f'{r:.1f}' for r in ratios]}")


def test_11_periodicity():
    dom = make_domain(2, math.pi, 16)
    period = 1.0
    g = single_mode_field(dom, [1, 1], amplitude=0.4)
    prof = periodic_forcing(g, period=period, delta=0.5)
    omega = sample_path(11001, -6.0, 6.0, 1e-3)
    u0 = random_field(dom, seed=11002, amplitude=0.5)
    cfg = SolverConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_stride=10**9)
    worst = 0.0
    for eps in (0.0, 0.5):
        params = params2(eps)
        for t, tau in ((0.5, 0.0), (1.0, 0.5), (0.25, 1.0)):
            a = cocycle_eval(t, tau + period, omega, u0, params, prof, cfg)
            b = cocycle_eval(t, tau, omega, u0, params, prof, cfg)
            worst = max(worst, float(np.linalg.norm(a.coeffs - b.coeffs)
                                     / np.linalg.norm(b.coeffs)))
    assert worst <= 1e-9
    report(11, "forcing periodicity", f"max relative defect={worst:.2e}")


def test_12_wiener_statistics():
    vals = np.array([sample_path(seed, -0.5, 1.0, 0.25).value(1.0)
                     for seed in range(10_000)])
    var = float(np.var(vals))
    assert abs(var - 1.0) <= 0.05

    p = sample_path(12001, -8.0, 8.0, 0.1)
    roundtrip = shift_path(shift_path(p, 1.0), -1.0)
    nodes = np.arange(-4.0, 4.0, 0.1)
    assert all(roundtrip.value(t) == p.value(t) for t in nodes)
    assert all(shift_path(p, s).value(0.0) == 0.0 for s in (0.7, -2.3, 3.1))
    report(12, "wiener statistics", f"var(omega(1))={var:.4f} shift law exact")
