"""
cbflab benchmark: three CLI experiments, timed end to end, layers timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs ``cbflab.cli.parse_config`` + ``cbflab.cli.run`` in a
fresh single-process interpreter (``child.py``).  With ``--trace 0`` the
workload is repeated for ``--seconds`` and the medians of the end-to-end
metrics are reported.  With ``--trace 1`` untraced repetitions are followed
by one traced repetition, and the per-layer metrics come from that run.
The outputs of every repetition are checked; the last line of standard output
is the JSON result, and the exit code is 1 when a run or a check failed.
Workload choices and the layer-to-end-to-end map are in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"

TIME_LIMIT_S = 170.0        # one invocation must end within 180 s
MIN_REPS = 3
MIN_SETUP_SAMPLES = 7
ENERGY_RESIDUAL_CEILING = 1e-2
FORCING_INTEGRAL_CEILING = 1e-3
REFERENCE_RTOL = 1e-5       # of each column's largest magnitude
NOT_APPLICABLE = 0.0        # accuracy metric on a workload that has no such output

PHYS2 = {"mu": 1.0, "alpha": 1.0, "beta": 1.0, "r": 3.0}


def _simulate_3d32(seed):
    return {
        "domain": {"d": 3, "N": 32},
        "params": {"r": 5.0, "epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "delta": 0.5,
                    "template": {"shape": "single_mode", "mode": [0, 1, 1], "amplitude": 0.2}},
        "solver": {"dt": 2e-3, "record_stride": 10},
        "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.1, "seed": seed,
                       "path_window": [-1.0, 1.0], "path_dt": 2e-3},
    }


def _semicontinuity_2d24_w2(seed):
    return {
        "domain": {"d": 2, "N": 24},
        "params": dict(PHYS2, epsilon_ladder=[0.5, 0.25, 0.125]),
        "forcing": {"kind": "periodic", "period": 1.0, "delta": 0.5,
                    "template": {"shape": "single_mode", "mode": [0, 1], "amplitude": 0.05}},
        "solver": {"dt": 5e-3, "record_stride": 10**9},
        "experiment": {"kind": "semicontinuity", "horizons": [0.1, 0.2], "seed": seed,
                       "family": {"radius": 1.0, "samples": 4, "max_mode": 1},
                       "path_window": [-70.0, 3.0], "path_dt": 5e-3},
        "workers": 2,
    }


def _attractor_2d64_w2(seed):
    return {
        "domain": {"d": 2, "N": 64},
        "params": dict(PHYS2, epsilon=0.25),
        "forcing": {"kind": "constant_field", "delta": 0.5,
                    "template": {"shape": "bump", "width": 1.0, "support_radius": 1.5}},
        "solver": {"dt": 5e-3, "record_stride": 10**9},
        "experiment": {"kind": "attractor", "horizons": [0.25, 0.5], "seed": seed,
                       "family": {"radius": 1.0, "samples": 8, "max_mode": 2,
                                  "include_boundary": True},
                       "path_window": [-4.0, 1.0], "path_dt": 5e-3},
        "workers": 2,
    }


WORKLOADS = {
    "simulate-3d32": _simulate_3d32,
    "semicontinuity-2d24-w2": _semicontinuity_2d24_w2,
    "attractor-2d64-w2": _attractor_2d64_w2,
}
# the CSV each workload is judged by, compared with the stored seed-commit output
MAIN_CSV = {
    "simulate-3d32": "trajectory.csv",
    "semicontinuity-2d24-w2": "semicontinuity.csv",
    "attractor-2d64-w2": "attractor.csv",
}


def expected_steps(raw):
    """Solver steps fixed by the config."""
    ex, dt = raw["experiment"], raw["solver"]["dt"]
    if ex["kind"] == "simulate":
        return round((ex["t_end"] - ex.get("tau", 0.0)) / dt)
    per_family = ex["family"]["samples"] * sum(round(h / dt) for h in ex["horizons"])
    if ex["kind"] == "attractor":
        return per_family
    return (1 + len(raw["params"]["epsilon_ladder"])) * per_family


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def energy_residual(raw, out):
    """Largest energy-identity residual over the ledger, relative to h[0]."""
    header, rows = _read_csv(out / "trajectory.csv")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    p = {**{"mu": 1.0, "alpha": 1.0, "beta": 1.0}, **raw["params"]}
    t, h, z = col["t"], col["h_norm_sq"], col["z"]

    def cumtrap(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
        return out

    w = np.exp(2.0 * p["alpha"] * (t - t[0]))
    rhs = np.exp(-2.0 * p["alpha"] * (t - t[0])) * (
        h[0]
        - 2.0 * p["mu"] * cumtrap(w * col["grad_norm_sq"])
        - 2.0 * p["beta"] * cumtrap(w * z ** (1.0 - p["r"]) * col["lr_norm_pow"])
        + 2.0 * cumtrap(w * z * col["f_pair"])
    )
    return float(np.max(np.abs(h - rhs)) / h[0])


def forcing_integral_rel_err(raw, out):
    """
    Worst relative error of the integral term ``radius_sq - z(tau)^-2`` in
    semicontinuity.csv, against Gauss-Legendre quadrature on every linear
    interval of the path over ``[t_cut, tau]``.
    """
    import cbflab.cli as cli
    from cbflab.stochastic import sample_path

    ex = raw["experiment"]
    tau = ex.get("tau", 0.0)
    if tau != 0.0:
        raise ValueError("the reference quadrature assumes tau = 0, where z(tau) = 1")
    cfg = cli.parse_config(json.dumps(raw))
    prof, par = cfg.profile, cfg.params
    path = sample_path(ex["seed"], ex["path_window"][0], ex["path_window"][1], ex["path_dt"])
    nodes = (np.arange(path.values.size) - path.n_neg) * path.dt_grid
    margin = par.alpha + prof.envelope.decay_rate()
    t_cut = max(tau - 46.0 / margin, nodes[0])
    inner = nodes[(nodes > t_cut) & (nodes < tau)]
    edges = np.concatenate([[t_cut], inner, [tau]])
    gx, gw = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * gx).ravel()
    ws = (half[:, None] * gw).ravel()
    omega = np.interp(xs, nodes, path.values)      # exact: the path is linear between nodes
    env_sq = np.array([prof.envelope(x) ** 2 for x in xs])
    base = np.exp(par.alpha * (xs - tau)) * env_sq * prof.vprime_sq_template / min(par.mu, par.alpha)
    _, rows = _read_csv(out / "semicontinuity.csv")
    worst = 0.0
    for eps, _, radius_sq in rows:
        ref = float(np.sum(ws * base * np.exp(-2.0 * eps * omega)))
        worst = max(worst, abs((radius_sq - 1.0) - ref) / ref)
    return worst


def check_outputs(workload, raw, out):
    """Checks of one run's artifacts; returns (errors, accuracy metrics)."""
    from cbflab.domain import load_snapshot

    errors = []
    manifest = json.loads((out / "manifest.json").read_text())
    missing = [a for a in manifest["artifacts"] if not (out / a).is_file()]
    if missing:
        errors.append(f"missing artifacts {missing}")
    if MAIN_CSV[workload] not in manifest["artifacts"]:
        errors.append(f"{MAIN_CSV[workload]} not in the manifest")
        return errors, {}
    for name in manifest["artifacts"]:
        if name == "final_state.csv" or name.startswith("cloud_"):
            try:
                field, _ = load_snapshot(out / name)  # also checks the divergence
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
                continue
            if not np.all(np.isfinite(field.coeffs)):
                errors.append(f"{name}: non-finite coefficients")
    _, rows = _read_csv(out / MAIN_CSV[workload])
    if not np.all(np.isfinite(rows)):
        errors.append(f"{MAIN_CSV[workload]}: non-finite values")

    acc = {"energy_residual": NOT_APPLICABLE, "forcing_integral_rel_err": NOT_APPLICABLE}
    ex = raw["experiment"]
    if workload == "simulate-3d32":
        acc["energy_residual"] = energy_residual(raw, out)
        if not acc["energy_residual"] <= ENERGY_RESIDUAL_CEILING:
            errors.append(f"energy_residual {acc['energy_residual']:.3e} above {ENERGY_RESIDUAL_CEILING}")
    elif workload == "semicontinuity-2d24-w2":
        if len(rows) != len(raw["params"]["epsilon_ladder"]):
            errors.append("semicontinuity.csv: one row per ladder rung expected")
        acc["forcing_integral_rel_err"] = forcing_integral_rel_err(raw, out)
        if not acc["forcing_integral_rel_err"] <= FORCING_INTEGRAL_CEILING:
            errors.append(f"forcing_integral_rel_err {acc['forcing_integral_rel_err']:.3e} "
                          f"above {FORCING_INTEGRAL_CEILING}")
    else:
        clouds = [a for a in manifest["artifacts"] if a.startswith("cloud_")]
        if len(clouds) != ex["family"]["samples"]:
            errors.append(f"{len(clouds)} cloud snapshots, expected {ex['family']['samples']}")

    ref = REFERENCE / workload / f"seed{ex['seed']}" / MAIN_CSV[workload]
    if ref.is_file():
        errors += compare_reference(ref, out / MAIN_CSV[workload])
    return errors, acc


def compare_reference(ref_path, path):
    """Numeric cells against the stored seed-commit output, within roundoff drift."""
    h_ref, ref = _read_csv(ref_path)
    h_new, new = _read_csv(path)
    if h_ref != h_new or ref.shape != new.shape:
        return [f"{path.name}: header or shape differs from {ref_path}"]
    tol = REFERENCE_RTOL * np.max(np.abs(ref), axis=0) + 1e-300
    bad = np.abs(new - ref) > tol
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return [f"{path.name}: {int(bad.sum())} cells off the reference, first at row {i} "
                f"column {h_ref[j]}: {float(new[i, j])!r} vs {float(ref[i, j])!r}"]
    return []


def csv_digest(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


# ---------------------------------------------------------------------------
# machine and build record


def machine_info(seed):
    info = {"seed": seed, "git_commit": None, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0))}
    try:
        info["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        info["scipy"] = None
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        info["caches"] = {k.strip(): v.strip() for k, v in
                          (ln.split(":", 1) for ln in out.splitlines() if " cache:" in ln)}
    except (OSError, subprocess.SubprocessError):
        info["caches"] = None
    return info


# ---------------------------------------------------------------------------
# repetitions and the result


class Runner:
    def __init__(self, workload, seed, work):
        self.workload, self.work = workload, work
        self.raw = WORKLOADS[workload](seed)
        self.raw["output"] = {"dir": "out"}  # relative to each repetition's directory
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.raw, indent=1))
        self.start = time.perf_counter()
        self.attempted = self.failed = 0
        self.errors = []
        self.n = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, trace=False, setup_only=False):
        """Run one repetition; returns (result dict or None, output dir)."""
        self.n += 1
        rep = self.work / f"rep{self.n:03d}"
        rep.mkdir()
        cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(self.config),
               "--result", str(rep / "result.json")]
        if trace:
            cmd += ["--trace", str(rep / "trace.json")]
        if setup_only:
            cmd.append("--setup-only")
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=rep, capture_output=True, text=True,
                                  timeout=max(TIME_LIMIT_S - self.elapsed(), 5.0))
        except subprocess.TimeoutExpired:
            return self._fail(f"rep{self.n}: timed out"), rep
        if proc.returncode != 0:
            return self._fail(f"rep{self.n}: child exited {proc.returncode}: {proc.stderr[-2000:]}"), rep
        res = json.loads((rep / "result.json").read_text())
        if not Path(res["cbflab_file"]).resolve().is_relative_to(ROOT / "src"):
            return self._fail(f"imported cbflab from {res['cbflab_file']}, not from src/"), rep
        if not setup_only and res["status"] != 0:
            return self._fail(f"rep{self.n}: cli.run returned {res['status']}: {proc.stderr[-2000:]}"), rep
        if trace:
            res["trace"] = json.loads((rep / "trace.json").read_text())
        return res, rep

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)
        return None

    def workload_reps(self, budget_s, min_reps):
        """Untraced repetitions until ``budget_s`` has passed; checks every one."""
        results = []
        digest = acc = None
        while len(results) < min_reps or self.elapsed() < budget_s:
            if results and self.elapsed() + median(r["run_s"] for r in results) > TIME_LIMIT_S - 30:
                break
            res, rep = self.child()
            if res is None:
                break
            out = rep / "out"
            if acc is None:
                try:
                    errors, acc = check_outputs(self.workload, self.raw, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors = [f"output check raised {exc!r}"]
                if errors:
                    self.errors += errors
                    self.failed += 1
                    break
            d = csv_digest(out)
            digest = digest or d
            if d != digest:
                self.errors.append(f"rep{self.n}: CSVs differ from the first repetition")
                self.failed += 1
                break
            shutil.rmtree(out)
            results.append(res)
        return results, acc or {}, digest


def end_to_end(results, setup, steps):
    run_s = median(r["run_s"] for r in results)
    return {
        "run_s": (run_s, "s"),
        "setup_s": (median(setup), "s"),
        "steps_per_s": (steps / run_s, "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(traced, results, acc):
    tr = traced["trace"]
    stats = tr["stats"]

    def g(name, key):
        return stats.get(name, {}).get(key, 0)

    steps = g("integrators.solve", "amount")

    def per_step(x):
        return x / steps if steps else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fft = "domain.fft"
    m = {
        "domain.fft.calls_per_step": (per_step(g(fft, "calls")), "count"),
        "domain.fft.points_per_step": (per_step(g(fft, "amount")), "count"),
        "domain.fft.s": (g(fft, "s"), "s"),
        "domain.fft.share": (ratio(g(fft, "s"), traced["run_s"]), "ratio"),
    }
    for name in ("domain.transform_inverse", "domain.project_coeffs"):
        m[f"{name}.calls_per_step"] = (per_step(g(name, "calls")), "count")
        m[f"{name}.s"] = (g(name, "s"), "s")
    m["domain.save_snapshot.s"] = (g("domain.save_snapshot", "s"), "s")
    m["domain.save_snapshot.bytes"] = (g("domain.save_snapshot", "amount"), "bytes")
    for name in ("operators.advection_raw", "operators.damping_raw"):
        m[f"{name}.self_s"] = (g(name, "self_s"), "s")
        m[f"{name}.calls_per_step"] = (per_step(g(name, "calls")), "count")
    m.update({
        "integrators.steps": (steps, "count"),
        "integrators.solve.s": (g("integrators.solve", "s"), "s"),
        "integrators.solve.self_s": (g("integrators.solve", "self_s"), "s"),
        "integrators.solve.ms_per_step": (1e3 * per_step(g("integrators.solve", "s")), "ms"),
        "integrators.solve.errors": (g("integrators.solve", "errors"), "count"),
        "stochastic.weighted_forcing_integral.calls": (g("stochastic.weighted_forcing_integral", "calls"), "count"),
        "stochastic.weighted_forcing_integral.s": (g("stochastic.weighted_forcing_integral", "s"), "s"),
        "stochastic.path_value.calls": (g("stochastic.path_value", "calls"), "count"),
        "stochastic.path_value.s": (g("stochastic.path_value", "s"), "s"),
        "stochastic.path_evals_per_node": (
            ratio(tr["path_evals_in_integral"], g("stochastic.weighted_forcing_integral", "amount")), "ratio"),
        "pullback.cocycle_eval.calls": (g("pullback.cocycle_eval", "calls"), "count"),
        "pullback.cocycle_eval.ms_mean": (
            1e3 * ratio(g("pullback.cocycle_eval", "s"), g("pullback.cocycle_eval", "calls")), "ms"),
        "pullback.concurrency": (
            ratio(g("pullback.cocycle_eval", "s"), g("pullback.sample_attractor", "s")), "ratio"),
        "pullback.sample_attractor.self_s": (g("pullback.sample_attractor", "self_s"), "s"),
        "pullback.absorbing_radius_stoch.s": (g("pullback.absorbing_radius_stoch", "s"), "s"),
        "pullback.hausdorff_semidistance.s": (g("pullback.hausdorff_semidistance", "s"), "s"),
        "pullback.family_samples.s": (g("pullback.family_samples", "s"), "s"),
        "cli.import_s": (median(r["import_s"] for r in results), "s"),
        "cli.parse_config.s": (median(r["parse_config_s"] for r in results), "s"),
        "cli.run.self_s": (g("cli.run", "self_s"), "s"),
        "cli.cpu_s": (median(r["cpu_s"] for r in results), "s"),
        "trace.overhead_s": (traced["run_s"] - median(r["run_s"] for r in results), "s"),
    })
    m.update(accuracy(acc))
    return m


def accuracy(acc):
    """Output accuracy: deterministic per seed, but it varies several-fold between seeds."""
    return {name: (value, "ratio") for name, value in acc.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cbflab" / "cli.py").is_file():
        print(f"error: no cbflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    info = machine_info(args.seed)
    steps = expected_steps(runner.raw)

    warm, _ = runner.child(setup_only=True)  # compiles bytecode, fills the file cache
    budget = args.seconds if not args.trace else 0.6 * args.seconds
    results, acc, digest = runner.workload_reps(budget, MIN_REPS if not args.trace else 2) \
        if warm is not None else ([], {}, None)
    metrics = {}
    setup = []
    if results and not runner.failed:
        setup = [r["setup_s"] for r in results]
        while len(setup) < MIN_SETUP_SAMPLES and runner.elapsed() < TIME_LIMIT_S - 10:
            res, _ = runner.child(setup_only=True)
            if res is None:
                break
            setup.append(res["setup_s"])
        if not args.trace:
            metrics = end_to_end(results, setup, steps)
        else:
            traced, rep = runner.child(trace=True)
            if traced is not None:
                if csv_digest(rep / "out") != digest:
                    runner.errors.append("traced run wrote different CSVs than the untraced runs")
                    runner.failed += 1
                got = traced["trace"]["stats"].get("integrators.solve", {}).get("amount", 0)
                if got != steps:
                    runner.errors.append(f"traced run made {got} solver steps, config fixes {steps}")
                    runner.failed += 1
                metrics = per_layer(traced, results, acc)
    correct = not runner.errors and bool(metrics)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(results)} timed repetitions, {runner.attempted} runs attempted, {runner.failed} failed",
             f"fail_frac {runner.failed / max(runner.attempted, 1):.4g} ratio",
             "info " + json.dumps(info, sort_keys=True)]
    shown = dict(metrics)
    if not args.trace and metrics:
        shown.update(accuracy(acc))
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in shown.items()]
    lines += [f"error: {e}" for e in runner.errors]
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, info=info, errors=runner.errors,
                  samples=dict({k: [r[k] for r in results] for k in ("run_s", "peak_rss_mb", "cpu_s")},
                               setup_s=setup))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for rep in work.glob("rep*"):
        shutil.rmtree(rep / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
