"""
Command-line runner: configuration, experiment dispatch, reproducible outputs.

Subcommands: verify, simulate, pullback, attractor, semicontinuity, tails.
Every run writes CSV artifacts plus a JSON manifest that echoes the resolved
configuration; identical (config, seed) pairs produce byte-identical CSVs.
Exit codes: 0 success, 1 experiment failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .domain import bump_field, make_domain, random_field, save_snapshot, single_mode_field
from .integrators import BlowupError, SolverConfig, _step_count, solve
from .operators import PhysicalParameters, validate_params
from .pullback import (
    TemperedFamily,
    _endpoint_cloud,
    measure_absorption,
    sample_attractor,
    semicontinuity_sweep,
    tail_mass,
)
from .stochastic import (
    _QUAD_REL_TOL,
    ForcingProfile,
    constant_forcing,
    decaying_forcing,
    periodic_forcing,
    sample_path,
    zero_forcing,
)
from .verification import run_all

__all__ = ["RunConfig", "RunManifest", "ConfigError", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_DEFAULTS = {
    "domain": {"d": 2, "L": math.pi, "N": 32, "dealias": 2.0 / 3.0},
    "params": {"mu": 1.0, "alpha": 1.0, "beta": 1.0, "r": 3.0, "epsilon": 0.0},
    "forcing": {"kind": "zero"},
    "solver": {"scheme": "imex_cn_ab2", "dt": 1e-3, "record_stride": 10},
    "experiment": {"kind": "simulate", "tau": 0.0, "t_end": 1.0, "system": "deterministic"},
    "output": {"dir": "out"},
    "workers": 1,
}

_KNOWN_KEYS = {
    "domain": {"d", "L", "N", "dealias"},
    "params": {"mu", "alpha", "beta", "r", "epsilon", "epsilon_ladder"},
    "forcing": {"kind", "template", "period", "gamma", "delta"},
    "solver": {"scheme", "dt", "record_stride", "include_B", "include_C"},
    "experiment": {
        "kind", "system", "tau", "t_end", "horizons", "seed", "family",
        "path_window", "path_dt", "tail_radii", "tail_epsilons",
    },
    "output": {"dir"},
}
_FAMILY_KEYS = {"radius", "samples", "max_mode", "include_boundary"}


@dataclass
class RunConfig:
    """Fully resolved configuration plus the raw dictionary it came from."""

    raw: dict
    domain: object
    params: PhysicalParameters
    profile: ForcingProfile
    solver: SolverConfig
    experiment: dict
    epsilon_ladder: list
    family: Optional[TemperedFamily]  # None for verify and simulate
    out_dir: str


@dataclass
class RunManifest:
    """What a run did; ``health`` (missed accuracy targets) and ``failure`` are written when set."""

    config: dict
    config_sha256: str
    versions: dict
    wall_clock_s: float
    artifacts: list
    summary: dict
    health: Optional[dict] = None
    failure: Optional[dict] = None

    def write(self, path):
        payload = {k: v for k, v in vars(self).items() if v is not None}
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, default=_plain) + "\n")


def _plain(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _check_keys(where, obj, known):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _nonneg_list(value):
    """True for a non-empty list of numbers >= 0."""
    return isinstance(value, list) and bool(value) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0 for v in value)


def _check_span(where, t_start, t_end, dt):
    """ConfigError unless a solve can step ``dt`` from ``t_start`` to ``t_end``, by the test of :func:`solve`."""
    try:
        _step_count(t_start, t_end, dt)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _merge_defaults(data):
    merged = {}
    for section, defaults in _DEFAULTS.items():
        if section == "workers":
            continue
        user = data.get(section, {})
        _check_keys(section, user, _KNOWN_KEYS[section])
        merged[section] = {**defaults, **user}
    merged["workers"] = data.get("workers", _DEFAULTS["workers"])
    unknown_sections = set(data) - set(_DEFAULTS)
    if unknown_sections:
        raise ConfigError(f"unknown section(s) {sorted(unknown_sections)}")
    return merged


def _build_template(domain, spec):
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ConfigError("forcing.template: expected an object with a 'shape' key")
    shape = spec["shape"]
    if shape == "single_mode":
        return single_mode_field(domain, spec.get("mode", [0, 1]), spec.get("amplitude", 1.0))
    if shape == "bump":
        return bump_field(
            domain,
            center=spec.get("center"),
            width=spec.get("width", 1.0),
            amplitude=spec.get("amplitude", 1.0),
            support_radius=spec.get("support_radius"),
        )
    raise ConfigError(f"forcing.template.shape: unknown shape {shape!r}")


def _build_forcing(domain, fc, alpha):
    kind = fc["kind"]
    delta = fc.get("delta", 0.5)
    if kind != "zero" and not (0.0 <= delta < alpha):
        raise ConfigError(f"forcing.delta: need 0 <= delta < alpha, got {delta} with alpha={alpha}")
    try:
        if kind == "zero":
            return zero_forcing()
        template = _build_template(domain, fc.get("template"))
        if kind == "constant_field":
            return constant_forcing(template, delta=delta)
        if kind == "periodic":
            if "period" not in fc:
                raise ConfigError("forcing.period: required for periodic forcing")
            return periodic_forcing(template, fc["period"], delta=delta)
        if kind == "decaying":
            return decaying_forcing(template, fc.get("gamma", 1.0), delta=delta)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"forcing: {exc}") from exc
    raise ConfigError(f"forcing.kind: unknown kind {kind!r}")


def parse_config(text) -> RunConfig:
    """Parse and cross-validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    merged = _merge_defaults(data)
    # still validated so old configs keep parsing; every solve runs in the calling thread
    workers = merged["workers"]
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers: expected an integer >= 1, got {workers!r}")

    dm = merged["domain"]
    try:
        domain = make_domain(dm["d"], dm["L"], dm["N"], dm["dealias"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"domain: {exc}") from exc

    pm = merged["params"]
    ladder = pm.pop("epsilon_ladder", None)
    try:
        params = PhysicalParameters(
            d=dm["d"], mu=pm["mu"], alpha=pm["alpha"], beta=pm["beta"],
            r=pm["r"], epsilon=pm["epsilon"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    verdict = validate_params(params)
    if not verdict.admissible:
        raise ConfigError(f"inadmissible-params: {verdict.reason}")
    if ladder is not None:
        if any(not (0.0 < e <= 1.0) for e in ladder):
            raise ConfigError("params.epsilon_ladder: every value must lie in (0, 1]")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("params.epsilon_ladder: ladder must decrease strictly")

    profile = _build_forcing(domain, merged["forcing"], params.alpha)

    sv = merged["solver"]
    ex = dict(merged["experiment"])
    if ex["kind"] not in ("verify", "simulate", "pullback", "attractor", "semicontinuity", "tails"):
        raise ConfigError(f"experiment.kind: unknown kind {ex['kind']!r}")
    if ex["system"] not in ("deterministic", "conjugated", "stratonovich"):
        raise ConfigError(f"experiment.system: unknown system {ex['system']!r}")
    tau = ex["tau"]
    if isinstance(tau, bool) or not isinstance(tau, (int, float)):
        raise ConfigError(f"experiment.tau: expected a number, got {tau!r}")
    scheme = sv["scheme"]
    if ex["kind"] == "simulate" and ex["system"] == "stratonovich":
        scheme = "heun_stratonovich"  # the one scheme of the noisy system
    elif scheme == "heun_stratonovich":
        raise ConfigError("solver.scheme: heun_stratonovich runs only a simulate of the stratonovich system")
    try:
        # the pullback kinds give each solve its own span, from the horizons
        solver = SolverConfig(
            dt=sv["dt"], scheme=scheme, t_start=tau, t_end=tau,
            record_stride=sv["record_stride"],
            include_B=sv.get("include_B", True), include_C=sv.get("include_C", True),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"solver: {exc}") from exc
    if ex["kind"] == "simulate":
        _check_span("experiment.t_end", tau, ex["t_end"], solver.dt)
        solver = replace(solver, t_end=ex["t_end"])

    if ex["system"] == "stratonovich" and ex.get("path_dt", solver.dt) > solver.dt:
        # the Heun step would take interpolated, smoothed increments
        raise ConfigError(f"experiment.path_dt: {ex['path_dt']} is coarser than solver.dt = "
                          f"{solver.dt}; the stratonovich system needs the step's own increments")

    pulls_back = ex["kind"] in ("pullback", "attractor", "semicontinuity", "tails")
    horizons = ex.get("horizons")
    if pulls_back and not _nonneg_list(horizons):
        raise ConfigError(f"experiment.horizons: {ex['kind']} needs a non-empty list of values >= 0")
    if horizons is not None and any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError("experiment.horizons: must increase strictly")
    if pulls_back:
        # horizon h is a cocycle solve from tau - h to (tau - h) + h; tails solves only the last
        for h in horizons[-1:] if ex["kind"] == "tails" else horizons:
            _check_span("experiment.horizons", tau - h, (tau - h) + h, solver.dt)
    if ex["kind"] == "semicontinuity" and not ladder:
        raise ConfigError("params.epsilon_ladder: required for the semicontinuity experiment")
    if ex["kind"] == "tails" and not ex.get("tail_radii"):
        raise ConfigError("experiment.tail_radii: required for the tails experiment")
    radii = ex.get("tail_radii")
    if radii is not None and not (_nonneg_list(radii) and all(0 < k and k * math.sqrt(2.0) < domain.L for k in radii)):
        # the cutoff annulus of radius sqrt(2) k must fit inside the box
        raise ConfigError(f"experiment.tail_radii: every radius k needs k > 0 and sqrt(2) k < L = {domain.L}")
    if "tail_epsilons" in ex and not _nonneg_list(ex["tail_epsilons"]):
        raise ConfigError("experiment.tail_epsilons: expected a non-empty list of values >= 0")
    _check_keys("experiment.family", ex.get("family", {}), _FAMILY_KEYS)
    try:
        family = _family_from(ex) if pulls_back else None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"experiment.family: {exc}") from exc

    stochastic = (
        ex["kind"] in ("semicontinuity",)
        or (ex["kind"] == "simulate" and ex["system"] in ("conjugated", "stratonovich"))
        or (ex["kind"] in ("pullback", "attractor", "tails") and (params.epsilon > 0 or ladder))
        or (ex["kind"] == "tails" and any(e > 0 for e in ex.get("tail_epsilons", [0.0])))
    )
    if stochastic and "seed" not in ex:
        raise ConfigError("experiment.seed: required for stochastic experiments")
    if stochastic:
        window = ex.get("path_window")
        if window is None:
            raise ConfigError("experiment.path_window: required for stochastic experiments")
        need_past = max(horizons) if horizons else 0.0
        # the shifted-path anchor sits at -tau in base time
        need_past = max(need_past, tau)
        need_future = max(-tau, 0.0)
        if -window[0] < need_past or window[1] < need_future:
            raise ConfigError(
                "experiment.path_window: window must cover the largest pullback "
                "horizon and the anchor at -tau"
            )

    return RunConfig(
        raw=merged,
        domain=domain,
        params=params,
        profile=profile,
        solver=solver,
        experiment=ex,
        epsilon_ladder=list(ladder) if ladder else [],
        family=family,
        out_dir=merged["output"]["dir"],
    )


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _family_from(ex):
    fam = ex.get("family", {})
    return TemperedFamily(
        radius_fn=fam.get("radius", 1.0),
        sample_count=fam.get("samples", 8),
        sampler_seed=ex.get("seed", 0),
        max_mode=fam.get("max_mode", 2),
        include_boundary=fam.get("include_boundary", False),
    )


def _path_from(ex, dt):
    window = ex["path_window"]
    return sample_path(ex["seed"], window[0], window[1], ex.get("path_dt", dt))


def _cocycle_path(ex, dt, eps):
    """The cocycles' path at noise intensity ``eps``; None runs the deterministic system."""
    return _path_from(ex, dt) if eps > 0 else None


# ---------------------------------------------------------------------------
# experiments


def _run_verify(cfg, out, artifacts, summary):
    results = run_all()
    rows = [(name, int(ok), detail) for name, ok, detail in results]
    _write_csv(out / "verify.csv", ["check", "passed", "detail"], rows)
    artifacts.append("verify.csv")
    summary["checks_passed"] = sum(ok for _, ok, _ in results)
    summary["checks_total"] = len(results)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


def _run_simulate(cfg, out, artifacts, summary):
    ex = cfg.experiment
    system = ex["system"]
    path = _path_from(ex, cfg.solver.dt) if system in ("conjugated", "stratonovich") else None
    u0 = random_field(cfg.domain, seed=ex.get("seed", 0),
                      amplitude=ex.get("family", {}).get("radius", 1.0))
    traj = solve(system, u0, cfg.solver, cfg.params, cfg.profile, path=path)
    led = traj.ledger
    rows = list(zip(
        map(float, led["t"]), map(float, led["h_sq"]), map(float, led["grad_sq"]),
        map(float, led["lr_pow"]), map(float, led["f_pair"]), map(float, led["z"]),
    ))
    _write_csv(out / "trajectory.csv", ["t", "h_norm_sq", "grad_norm_sq", "lr_norm_pow", "f_pair", "z"], rows)
    save_snapshot(traj.states[-1], out / "final_state.csv", time=traj.times[-1])
    artifacts += ["trajectory.csv", "final_state.csv"]
    summary["final_h_norm_sq"] = float(led["h_sq"][-1])
    return 0


def _run_pullback(cfg, out, artifacts, summary):
    ex = cfg.experiment
    omega = _cocycle_path(ex, cfg.solver.dt, cfg.params.epsilon)
    est = measure_absorption(
        ex["tau"], omega, cfg.family, cfg.params, cfg.profile,
        ex["horizons"], cfg.solver, domain=cfg.domain,
    )
    rows = [
        (float(t), float(m), float(est.radius_sq), int(m <= est.radius_sq * (1 + 1e-6)))
        for t, m in zip(est.horizons, est.rung_max_norm_sq)
    ]
    _write_csv(out / "absorption.csv", ["horizon", "max_norm_sq", "radius_sq", "absorbed"], rows)
    artifacts.append("absorption.csv")
    summary["radius_sq"] = est.radius_sq
    summary["entry_time"] = est.entry_time
    summary["forcing_integral_rel_error"] = est.forcing_integral_rel_error
    return 0


def _run_attractor(cfg, out, artifacts, summary):
    ex = cfg.experiment
    omega = _cocycle_path(ex, cfg.solver.dt, cfg.params.epsilon)
    samp = sample_attractor(
        ex["tau"], omega, cfg.params, cfg.profile,
        ex["horizons"], cfg.family, cfg.solver, domain=cfg.domain,
    )
    rows = [
        (float(samp.horizons[i + 1]), float(d)) for i, d in enumerate(samp.convergence_diag)
    ]
    _write_csv(out / "attractor.csv", ["horizon", "cloud_shift"], rows)
    artifacts.append("attractor.csv")
    for i, p in enumerate(samp.points):
        name = f"cloud_{i:03d}.csv"
        save_snapshot(p, out / name, time=ex["tau"])
        artifacts.append(name)
    summary["cloud_size"] = len(samp.points)
    summary["diag_decreasing"] = samp.diag_decreasing
    return 0


def _run_semicontinuity(cfg, out, artifacts, summary):
    ex = cfg.experiment
    omega = _path_from(ex, cfg.solver.dt)
    sweep = semicontinuity_sweep(
        ex["tau"], omega, cfg.epsilon_ladder, cfg.params, cfg.profile,
        ex["horizons"], cfg.family, cfg.solver, domain=cfg.domain,
    )
    rows = [(float(r.epsilon), float(r.dist), float(r.radius_sq)) for r in sweep.rows]
    _write_csv(out / "semicontinuity.csv", ["epsilon", "dist_h", "radius_sq"], rows)
    artifacts.append("semicontinuity.csv")
    summary["base_radius_sq"] = sweep.base_radius_sq
    summary["weakly_decreasing"] = sweep.weakly_decreasing
    summary["final_is_min"] = sweep.final_is_min
    summary["forcing_integral_rel_error"] = sweep.forcing_integral_rel_error
    return 0 if (sweep.weakly_decreasing and sweep.final_is_min) else 1


def _run_tails(cfg, out, artifacts, summary):
    ex = cfg.experiment
    epsilons = ex.get("tail_epsilons", [cfg.params.epsilon])
    horizon = ex["horizons"][-1]
    rows = []
    for eps in epsilons:
        omega = _cocycle_path(ex, cfg.solver.dt, eps)
        ends = _endpoint_cloud(horizon, ex["tau"], omega, cfg.family,
                               replace(cfg.params, epsilon=eps), cfg.profile, cfg.solver, cfg.domain)
        for k in ex["tail_radii"]:
            worst = max(tail_mass(e, k) for e in ends)
            rows.append((float(eps), float(k), float(worst)))
    _write_csv(out / "tails.csv", ["epsilon", "k", "tail_mass"], rows)
    artifacts.append("tails.csv")
    summary["rows"] = len(rows)
    return 0


_EXPERIMENTS = {
    "verify": _run_verify,
    "simulate": _run_simulate,
    "pullback": _run_pullback,
    "attractor": _run_attractor,
    "semicontinuity": _run_semicontinuity,
    "tails": _run_tails,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; artifacts land in the output dir."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    artifacts: list = []
    summary: dict = {}
    kind = cfg.experiment["kind"]
    failure = None
    try:
        status = _EXPERIMENTS[kind](cfg, out, artifacts, summary)
    except Exception as exc:  # experiment failure: report stage and fail
        print(f"error: experiment {kind!r} failed: {exc}", file=sys.stderr)
        status = 1
        blowup = isinstance(exc, BlowupError)
        failure = {"stage": kind, "type": type(exc).__name__, "message": str(exc),
                   "t": exc.t if blowup else None, "max_speed": exc.max_speed if blowup else None}
    health = None
    rel = summary.get("forcing_integral_rel_error", 0.0)
    if rel > _QUAD_REL_TOL:
        health = {"forcing_integral_rel_error": {"value": rel, "target": _QUAD_REL_TOL}}
    canonical = json.dumps(cfg.raw, sort_keys=True)
    manifest = RunManifest(
        config=cfg.raw,
        config_sha256=hashlib.sha256(canonical.encode()).hexdigest(),
        versions={"cbflab": __version__, "numpy": np.__version__},
        wall_clock_s=time.time() - start,
        artifacts=sorted(artifacts),
        summary=summary,
        health=health,
        failure=failure,
    )
    manifest.write(out / "manifest.json")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cbflab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None, help="accepted and validated; no effect")
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text() if args.config else "{}"
        data = json.loads(text)
        data.setdefault("experiment", {})["kind"] = args.command
        if args.seed is not None:
            data["experiment"]["seed"] = args.seed
        if args.out is not None:
            data.setdefault("output", {})["dir"] = args.out
        if args.workers is not None:
            data["workers"] = args.workers
        cfg = parse_config(json.dumps(data))
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
