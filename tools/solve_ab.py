"""
Interleaved in-process timing of short solves on two source trees: an A/B check of a change to the solver.

    python3 tools/solve_ab.py PARENT_SRC CHANGE_SRC [--rounds R] [--steps S]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src/`` directories that hold a ``cbflab`` package.  Both are imported
into one interpreter, as ``cbflab_parent`` and ``cbflab_change``.  Each benchmark workload of ``perfbench/run.py``
(of this checkout) is parsed by each tree's ``cli.parse_config``, which builds its domain, parameters, forcing and
path.  A round solves ``S`` steps of the workload's noisy system (the ``conjugated`` system at the first positive
intensity, as the pullback kinds do) from a seeded random state on both trees, the two in alternating order.

Per workload one line gives each side's minimum and median solve time over the ``R`` rounds, the rounds that
the change won, and whether the two trees' final states and ledgers are bitwise equal.  Interleaved rounds in one
process share the machine's state from moment to moment, so they separate a small change in solve time that
separate benchmark invocations, each a few fresh processes, read as noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing leaves both trees and perfbench/ as they are
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS  # noqa: E402


def load(src, name):
    """The modules of the ``cbflab`` package under ``src``, imported as the package ``name``."""
    pkg_dir = Path(src).resolve() / "cbflab"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("cli", "domain", "integrators")}


def prepare(lib, raw, steps):
    """A call that runs the short solve of the workload ``raw`` on one tree, and returns its trajectory."""
    cfg = lib["cli"].parse_config(json.dumps(raw))
    intensities = [cfg.params.epsilon] + list(cfg.epsilon_ladder)
    epsilon = next((e for e in intensities if e > 0), 0.0)
    params = dataclasses.replace(cfg.params, epsilon=epsilon)
    path = lib["cli"]._run_path(cfg)
    system = "deterministic" if path is None else "conjugated"
    dt = cfg.solver.dt
    config = lib["integrators"].SolverConfig(dt=dt, t_start=0.0, t_end=steps * dt, record_stride=steps)
    u0 = lib["domain"].random_field(cfg.domain, seed=raw["experiment"]["seed"], amplitude=1.0)
    return lambda: lib["integrators"].solve(system, u0, config, params, cfg.profile, path=path)


def same_bits(a, b):
    """Whether two trajectories' final states and ledgers are equal bit for bit."""
    if a.states[-1].coeffs.tobytes() != b.states[-1].coeffs.tobytes() or a.ledger.keys() != b.ledger.keys():
        return False
    return all(a.ledger[k].tobytes() == b.ledger[k].tobytes() for k in a.ledger)


def compare(runs, rounds):
    """``(seconds per side, the change's wins, bitwise equal)`` of ``rounds`` alternating calls of both runs."""
    times = {side: [] for side in runs}
    last = {}
    order = list(runs)
    for i in range(rounds):
        for side in order if i % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            last[side] = runs[side]()
            times[side].append(time.perf_counter() - start)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return times, wins, same_bits(last["parent"], last["change"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--steps", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.steps < 1:
        ap.error("--rounds and --steps must be >= 1")
    libs = {"parent": load(args.parent_src, "cbflab_parent"), "change": load(args.change_src, "cbflab_change")}
    for name, make in WORKLOADS.items():
        raw = make(0)
        runs = {side: prepare(lib, raw, args.steps) for side, lib in libs.items()}
        for run in runs.values():
            run()  # warm-up: first-call costs stay out of the rounds
        times, wins, equal = compare(runs, args.rounds)
        stats = "  ".join(f"{side} min {min(t) * 1e3:.3f} median {statistics.median(t) * 1e3:.3f} ms"
                          for side, t in times.items())
        print(f"{name}: {stats}  change faster in {wins}/{args.rounds}  bitwise equal: {'yes' if equal else 'NO'}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
