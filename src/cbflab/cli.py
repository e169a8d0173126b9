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
from .integrators import _SYSTEMS, BlowupError, SolverConfig, _check_path_grid, _check_stride, _in_box, _step_count, solve
from .operators import PhysicalParameters, validate_params
from .pullback import (
    TemperedFamily,
    _check_cutoff,
    _check_horizons,
    _check_ladder,
    _check_sample_count,
    _endpoint_cloud,
    measure_absorption,
    sample_attractor,
    semicontinuity_sweep,
    tail_mass,
)
from .stochastic import _FORCING_KINDS, _QUAD_REL_TOL, ForcingProfile, _check_window, sample_path
from .verification import run_all

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """The built objects of a configuration, and ``raw``: its resolved dict, every default filled in."""

    raw: dict
    domain: object
    params: PhysicalParameters
    profile: ForcingProfile
    solver: SolverConfig
    experiment: dict
    epsilon_ladder: list
    family: Optional[TemperedFamily]  # None for verify and simulate
    out_dir: str


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _intensities(ex, epsilon, ladder):
    """
    The noise intensities a run solves at, and whether it draws a path: when
    one of them is positive and, for a simulate, its system is noisy (a solve
    at zero intensity reads no path).
    """
    kind = ex["kind"]
    if kind == "simulate":
        return [epsilon], ex["system"] != "deterministic" and epsilon > 0
    eps = {"verify": [], "semicontinuity": ladder, "tails": ex["tail_epsilons"] or [epsilon]}.get(kind, [epsilon])
    return eps, any(e > 0 for e in eps)


def _run_path(cfg):
    """The one path a run draws, or None when none of its solves reads a path."""
    ex = cfg.experiment
    if not _intensities(ex, cfg.params.epsilon, cfg.epsilon_ladder)[1]:
        return None
    window = ex["path_window"]
    return sample_path(ex["seed"], window[0], window[1], ex["path_dt"] or cfg.solver.dt)


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
    u0 = random_field(cfg.domain, seed=ex["seed"] or 0, amplitude=ex["family"]["radius"])
    traj = solve(ex["system"], u0, cfg.solver, cfg.params, cfg.profile, path=_run_path(cfg))
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
    est = measure_absorption(
        ex["tau"], _run_path(cfg), cfg.family, cfg.params, cfg.profile,
        ex["horizons"], cfg.solver, domain=cfg.domain,
    )
    rows = [
        (float(t), float(m), float(est.radius_sq), int(absorbed))
        for t, m, absorbed in zip(est.horizons, est.rung_max_norm_sq, est.rung_absorbed)
    ]
    _write_csv(out / "absorption.csv", ["horizon", "max_norm_sq", "radius_sq", "absorbed"], rows)
    artifacts.append("absorption.csv")
    summary["radius_sq"] = est.radius_sq
    summary["entry_time"] = est.entry_time
    summary["forcing_integral_rel_error"] = est.forcing_integral_rel_error
    return 0


def _run_attractor(cfg, out, artifacts, summary):
    ex = cfg.experiment
    samp = sample_attractor(
        ex["tau"], _run_path(cfg), cfg.params, cfg.profile,
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
    sweep = semicontinuity_sweep(
        ex["tau"], _run_path(cfg), cfg.epsilon_ladder, cfg.params, cfg.profile,
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
    epsilons, _ = _intensities(ex, cfg.params.epsilon, cfg.epsilon_ladder)
    omega = _run_path(cfg)
    horizon = ex["horizons"][-1]
    rows = []
    for eps in epsilons:
        ends = _endpoint_cloud(horizon, ex["tau"], omega if eps > 0 else None, cfg.family,
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


# ---------------------------------------------------------------------------
# configuration: one table, one pass over it, then each cross-field rule once


_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")


def _one_of(choices):
    return choices.__contains__, f"in {list(choices)}"


# (section, key, default, type, constraint).  A None default makes a key optional, and
# null leaves it unset.  The constraint is (test, wording), applied to the value or to
# each entry of a list, or the owning class's own check, which tests the type as well.
# An "object" key is the section named by its path; a template's shape adds its own keys.
_TABLE = (
    ("", "domain", {}, "object", None),
    ("", "params", {}, "object", None),
    ("", "forcing", {}, "object", None),
    ("", "solver", {}, "object", None),
    ("", "experiment", {}, "object", None),
    ("", "output", {}, "object", None),
    ("", "workers", 1, "integer", (lambda v: v >= 1, ">= 1")),  # still accepted; no effect
    ("domain", "d", 2, "integer", _one_of((2, 3))),
    ("domain", "L", math.pi, "number", _POSITIVE),
    ("domain", "N", 32, "integer", (lambda v: v >= 4 and v % 2 == 0, "that is even and >= 4")),
    ("domain", "dealias", 2.0 / 3.0, "number", (lambda v: 0 < v <= 1, "in (0, 1]")),
    ("params", "mu", 1.0, "number", _POSITIVE),
    ("params", "alpha", 1.0, "number", _POSITIVE),
    ("params", "beta", 1.0, "number", _POSITIVE),
    ("params", "r", 3.0, "number", (lambda v: v >= 1, ">= 1")),
    ("params", "epsilon", 0.0, "number", _NONNEGATIVE),
    ("params", "epsilon_ladder", None, "number list", None),  # range: pullback._check_ladder
    ("forcing", "kind", "zero", "string", _one_of(_FORCING_KINDS)),
    ("forcing", "template", None, "object", None),
    ("forcing", "period", None, "number", _POSITIVE),
    ("forcing", "gamma", 1.0, "number", None),
    ("forcing", "delta", 0.5, "number", _NONNEGATIVE),
    ("forcing.template", "shape", None, "string", _one_of(("single_mode", "bump"))),
    ("forcing.template.single_mode", "mode", [0, 1], "integer list", None),
    ("forcing.template.single_mode", "amplitude", 1.0, "number", None),
    ("forcing.template.bump", "center", None, "number list", None),
    ("forcing.template.bump", "width", 1.0, "number", _POSITIVE),
    ("forcing.template.bump", "amplitude", 1.0, "number", None),
    ("forcing.template.bump", "support_radius", None, "number", _POSITIVE),
    ("solver", "dt", 1e-3, "number", _POSITIVE),
    ("solver", "record_stride", 10, "integer", _check_stride),  # still accepted; no effect
    ("experiment", "kind", "simulate", "string", _one_of(tuple(_EXPERIMENTS))),
    ("experiment", "system", "deterministic", "string", _one_of(_SYSTEMS)),  # simulate only
    ("experiment", "tau", 0.0, "number", None),
    ("experiment", "t_end", 1.0, "number", None),
    ("experiment", "horizons", None, "number list", _NONNEGATIVE),
    ("experiment", "seed", None, "integer", _NONNEGATIVE),
    ("experiment", "family", {}, "object", None),
    ("experiment", "path_window", None, "number pair", None),  # range: stochastic._check_window
    ("experiment", "path_dt", None, "number", _POSITIVE),
    ("experiment", "tail_radii", None, "number list", None),  # range: pullback._check_cutoff
    ("experiment", "tail_epsilons", None, "number list", _NONNEGATIVE),
    ("experiment.family", "radius", 1.0, "number", _NONNEGATIVE),
    ("experiment.family", "samples", 8, "integer", _check_sample_count),
    ("experiment.family", "max_mode", 2, "integer", _NONNEGATIVE),
    ("experiment.family", "include_boundary", False, "bool", None),
    ("output", "dir", "out", "string", None),
)
_SECTIONS = {s: {k: row for s2, k, *row in _TABLE if s2 == s} for s, *_ in _TABLE}
_TYPES = {"number": (int, float), "integer": int, "bool": bool, "string": str, "object": dict}
_WORDS = {
    "number": "a number", "integer": "an integer", "bool": "true or false", "string": "a string",
    "object": "an object", "number list": "a non-empty list of numbers",
    "integer list": "a non-empty list of integers", "number pair": "a list of two numbers",
}


def _is(elem, v):
    """Whether the JSON value ``v`` has the table type ``elem``; a bool is never a number."""
    return (isinstance(v, bool) == (elem == "bool") and isinstance(v, _TYPES[elem])
            and not (isinstance(v, float) and not math.isfinite(v)))


def _check(path, value, kind, rule):
    """ConfigError unless ``value`` has the type ``kind`` and meets ``rule``."""
    if callable(rule):
        try:
            return rule(value)
        except ValueError as exc:
            raise ConfigError(f"{path.rpartition('.')[0]}: {exc} ({path})") from exc
    elem, _, form = kind.partition(" ")
    entries = value if form else [value]
    shaped = isinstance(entries, list) and (len(entries) == 2 if form == "pair" else len(entries) > 0)
    if not (shaped and all(_is(elem, v) and (rule is None or rule[0](v)) for v in entries)):
        raise ConfigError(f"{path}: expected {_WORDS[kind]}{' ' + rule[1] if rule else ''}, got {value!r}")


def _fill(where, user, overrides):
    """Check every key of section ``where`` against the table and fill in the defaults."""
    rows = _SECTIONS[where]
    if "shape" in rows:
        rows = {**rows, **_SECTIONS.get(f"{where}.{user.get('shape')}", {})}
    out = {}
    for key, (default, kind, rule) in rows.items():
        path = f"{where}.{key}".lstrip(".")
        value = overrides.get(path, user.get(key, default))
        if value is not None or default is not None:
            _check(path, value, kind, rule)
        out[key] = _fill(path, value, overrides) if kind == "object" and value is not None else value
    unknown = set(user) - set(rows)
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown key(s) {sorted(unknown)}")
    return out


def _owned(where, check, *args):
    """``check(*args)``, a rule of the library, with its ValueError reported at ``where``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _forcing(domain, fc):
    """The profile of the ``forcing`` section; the zero profile has no template."""
    spec = fc["template"]
    if fc["kind"] == "zero":
        template = None
    elif spec["shape"] == "single_mode":
        template = single_mode_field(domain, spec["mode"], spec["amplitude"])
    else:
        template = bump_field(domain, spec["center"], spec["width"], spec["amplitude"], spec["support_radius"])
    return ForcingProfile(fc["kind"], template, fc["delta"], fc["period"], fc["gamma"])


def _resolve(data, overrides) -> RunConfig:
    """The run configuration of decoded JSON: the table pass, then each cross-field rule once."""
    _check("config", data, "object", None)
    c = _fill("", data, overrides)
    dm, pm, fc, sv, ex = (c[s] for s in ("domain", "params", "forcing", "solver", "experiment"))
    domain = make_domain(dm["d"], dm["L"], dm["N"], dm["dealias"])
    params = PhysicalParameters(dm["d"], pm["mu"], pm["alpha"], pm["beta"], pm["r"], pm["epsilon"])
    verdict = validate_params(params)
    if not verdict.admissible:
        raise ConfigError(f"inadmissible-params: {verdict.reason}")
    ladder = pm["epsilon_ladder"]
    if ladder is not None:
        _owned("params.epsilon_ladder", _check_ladder, ladder)

    if fc["kind"] != "zero":
        if fc["delta"] >= params.alpha:
            raise ConfigError(f"forcing.delta: need 0 <= delta < alpha, got {fc['delta']} with alpha={params.alpha}")
        if fc["template"] is None or fc["template"]["shape"] is None:
            raise ConfigError("forcing.template: expected an object with a 'shape' key")
    profile = _owned("forcing", _forcing, domain, fc)
    if not profile.is_zero:
        _owned("forcing.template", _in_box, domain, profile.template.coeffs, "its coefficients")

    kind, system, tau, horizons, dt = ex["kind"], ex["system"], ex["tau"], ex["horizons"], sv["dt"]
    steps = [1]  # the step counts of the run's solves
    if kind == "simulate":
        steps.append(_owned("experiment.t_end", _step_count, tau, ex["t_end"], dt))
    elif "system" in data.get("experiment", {}):
        # every pullback kind solves the conjugated cocycle, and verify solves none
        raise ConfigError(f"experiment.system: read only by simulate, not by {kind}")

    window, path_dt = ex["path_window"], ex["path_dt"]
    if window is not None:
        _owned("experiment.path_window", _check_window, *window)
    # as in solve, a noisy step takes the path's increments only at a positive intensity
    if system == "stratonovich" and params.epsilon > 0:
        _owned("experiment.path_dt", _check_path_grid, "solver.dt", dt, path_dt or dt)
        _owned("experiment.tau", _check_path_grid, "tau", tau, path_dt or dt)

    pulls_back = kind in ("pullback", "attractor", "semicontinuity", "tails")
    if pulls_back and horizons is None:
        raise ConfigError(f"experiment.horizons: {kind} needs a non-empty list of values >= 0")
    if horizons is not None:
        _owned("experiment.horizons", _check_horizons, horizons)
    if pulls_back:
        # horizon h is a cocycle solve from tau - h to (tau - h) + h; tails solves only the last
        for h in horizons[-1:] if kind == "tails" else horizons:
            steps.append(_owned("experiment.horizons", _step_count, tau - h, (tau - h) + h, dt))
    # a run writes only the last state of a solve, so each solve keeps its first and last;
    # the pullback kinds give each solve its own span, from the horizons
    solver = SolverConfig(dt=dt, t_start=tau, t_end=ex["t_end"] if kind == "simulate" else tau,
                          record_stride=max(steps))
    if kind == "semicontinuity" and ladder is None:
        raise ConfigError("params.epsilon_ladder: required for the semicontinuity experiment")
    if kind == "tails" and ex["tail_radii"] is None:
        raise ConfigError("experiment.tail_radii: required for the tails experiment")
    for k in ex["tail_radii"] or ():
        _owned("experiment.tail_radii", _check_cutoff, k, domain.L)
    fam = ex["family"]
    family = _owned("experiment.family", TemperedFamily, fam["radius"], fam["samples"], ex["seed"] or 0,
                    fam["max_mode"], fam["include_boundary"]) if pulls_back else None

    draws_path = _intensities(ex, params.epsilon, ladder)[1]
    if draws_path and ex["seed"] is None:
        raise ConfigError("experiment.seed: required for a run that draws a path")
    if draws_path and window is None:
        raise ConfigError("experiment.path_window: required for a run that draws a path")
    if draws_path and kind == "simulate" and not (window[0] <= tau and ex["t_end"] <= window[1]):
        # a simulate reads the path itself, at every step time
        raise ConfigError(f"experiment.path_window: window must cover the simulated span [{tau}, {ex['t_end']}]")
    # a pullback solve reads the path shifted to its anchor at -tau in base time
    if draws_path and pulls_back and (-window[0] < max(horizons[-1], tau) or window[1] < -tau):
        raise ConfigError("experiment.path_window: window must cover the largest pullback horizon and the anchor at -tau")

    return RunConfig(raw=c, domain=domain, params=params, profile=profile, solver=solver, experiment=ex,
                     epsilon_ladder=ladder or [], family=family, out_dir=c["output"]["dir"])


def parse_config(text) -> RunConfig:
    """Parse and cross-validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _resolve(data, {})


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment; artifacts land in the output dir."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    artifacts: list = []
    summary: dict = {}
    kind = cfg.experiment["kind"]
    # health (missed accuracy targets) and failure are written when set
    manifest = {"config": cfg.raw, "versions": {"cbflab": __version__, "numpy": np.__version__},
                "config_sha256": hashlib.sha256(json.dumps(cfg.raw, sort_keys=True).encode()).hexdigest()}
    try:
        status = _EXPERIMENTS[kind](cfg, out, artifacts, summary)
    except Exception as exc:  # experiment failure: report stage and fail
        print(f"error: experiment {kind!r} failed: {exc}", file=sys.stderr)
        status = 1
        blowup = isinstance(exc, BlowupError)
        manifest["failure"] = {"stage": kind, "type": type(exc).__name__, "message": str(exc),
                               "t": exc.t if blowup else None, "max_speed": exc.max_speed if blowup else None}
    rel = summary.get("forcing_integral_rel_error", 0.0)
    if rel > _QUAD_REL_TOL:
        manifest["health"] = {"forcing_integral_rel_error": {"value": rel, "target": _QUAD_REL_TOL}}
    manifest.update(wall_clock_s=time.time() - start, artifacts=sorted(artifacts), summary=summary)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2, default=_plain) + "\n")
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
    overrides = {"experiment.kind": args.command, "experiment.seed": args.seed,
                 "output.dir": args.out, "workers": args.workers}

    try:
        data = json.loads(Path(args.config).read_text()) if args.config else {}
        cfg = _resolve(data, {k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError) as exc:  # ConfigError, bad JSON, a file that is not text
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
