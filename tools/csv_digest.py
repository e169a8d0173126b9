"""
SHA-256 of every CSV that a fixed set of configs writes: a byte-identity check between two checkouts.

    python3 tools/csv_digest.py OUT_DIR

Imports cbflab from ``src/`` of this checkout and runs each config in-process
through ``cbflab.cli.parse_config`` and ``cbflab.cli.run``, writing into
``OUT_DIR/<config>/``.  Standard output has one ``config file sha256`` line per
CSV, and one ``config - <outcome>`` line for a config that is rejected
(``config error: ...``) or exits non-zero.  A ``config manifest.summary
sha256`` line digests the manifest's ``summary`` (canonical JSON), which holds
values that no CSV carries, such as ``base_radius_sq`` and ``entry_time``,
and no timing field.  Run it on two checkouts and ``diff`` the outputs: equal
lines mean byte-identical CSVs and equal summaries.

The configs are the three benchmark workloads of ``perfbench/run.py`` at
seeds 0 and 1, plus one each of: a ``tails`` run, a decaying-forcing
``pullback``, a forced deterministic ``pullback`` (its CSV carries the
deterministic absorbing radius), a constant-forcing conjugated ``simulate``, ``stratonovich``
simulates at two steps, one below and one above the ``dt`` that would bound
an explicit linear step at 64^2 (~2.26e-3), a 2D ``r = 1`` run, a
``dealias: 1`` run and a forcing template outside the dealiased box.  Four
more reach the pullback layer's rules: a 3D ``attractor`` at ``tau = 0.37``
with the family's boundary state, a 2D ``pullback`` at ``tau = -0.41``, a
``dealias: 1`` ``attractor``, and a ``pullback`` with ``dt: 0.1`` whose
horizon 0.7 is not ``dt`` times its step count (``0.1 * 7 != 0.7``), so an
unwrap that read the last ledger time in place of ``tau + t`` would show.
A ``simulate`` forces a 3D box with a bump template, the only config that
reaches the ``curl(psi e_z)`` branch of ``bump_field``.  A conjugated
``simulate`` on a 12^3 box at 2/3 (``3c = N``) is the only 3D config whose
right-hand side takes the skew-symmetric form.  A last, conjugated
``simulate`` from ``tau = 0.3`` to 0.5 reads its path off ``t = 0``, in a
window that covers its span and would pass the pullback kinds' rule too.
Three reach rules that once rejected them: an ``attractor`` of a family of
radius 0 (``attractor-radius0``), a ``stratonovich`` ``simulate`` at
``epsilon: 0`` with ``dt`` 0.01 off its 0.003 path grid
(``stratonovich-eps0-offgrid``), whose step reads no increment, and a
``conjugated`` ``simulate`` at ``epsilon: 0`` with no seed or path window
(``simulate-conjugated-eps0-nopath``).  ``simulate-3d-bump-stride1`` is
``simulate-3d-bump`` at ``record_stride: 1``, and its hashes equal those at 10.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing the workload table leaves perfbench/ as it is
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cbflab.cli as cli  # noqa: E402
from run import WORKLOADS  # noqa: E402

SINGLE_MODE = {"shape": "single_mode", "mode": [0, 1], "amplitude": 0.2}
BUMP = {"shape": "bump", "width": 1.0, "support_radius": 1.5}


def _heun(dt):
    """The noisy system at 64^2; an explicit linear step would be stable only for dt below ~2.26e-3."""
    return {
        "domain": {"d": 2, "N": 64},
        "params": {"epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": dt, "record_stride": 10},
        "experiment": {"kind": "simulate", "system": "stratonovich", "t_end": 0.1, "seed": 1,
                       "path_window": [-1.0, 1.0], "path_dt": 2.5e-4},
    }


def configs():
    """Name and raw config of every run, in output order."""
    out = {f"{name}-s{seed}": make(seed) for name, make in WORKLOADS.items() for seed in (0, 1)}
    out["tails-16"] = {
        "domain": {"N": 16}, "params": {"epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "tails", "horizons": [0.1, 0.2], "tail_radii": [0.5, 1.0],
                       "tail_epsilons": [0.5, 0.0, 0.25], "seed": 4, "path_window": [-2.0, 1.0],
                       "family": {"samples": 3}},
    }
    out["pullback-decaying"] = {
        "domain": {"N": 16}, "params": {"epsilon": 0.4},
        "forcing": {"kind": "decaying", "gamma": 0.3, "template": BUMP},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "pullback", "horizons": [0.1, 0.2], "seed": 2, "path_window": [-40.0, 1.0],
                       "family": {"samples": 3}},
    }
    out["pullback-deterministic"] = {
        "domain": {"N": 16},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "pullback", "horizons": [0.1, 0.2, 0.4], "family": {"samples": 3, "radius": 3.0}},
    }
    out["simulate-conjugated-constant"] = {
        "domain": {"N": 24}, "params": {"epsilon": 0.3},
        "forcing": {"kind": "constant_field", "template": BUMP},
        "solver": {"dt": 5e-3},
        "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.2, "seed": 3,
                       "path_window": [-1.0, 1.0]},
    }
    out["heun-dt2e-3"] = _heun(2e-3)
    out["heun-dt2.5e-3"] = _heun(2.5e-3)
    out["simulate-r1"] = {
        "domain": {"N": 24}, "params": {"r": 1.0},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 5e-3}, "experiment": {"kind": "simulate", "t_end": 0.2, "seed": 5},
    }
    out["simulate-dealias1"] = {
        "domain": {"N": 16, "dealias": 1.0}, "params": {"r": 3.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 5e-3}, "experiment": {"kind": "simulate", "t_end": 0.2, "seed": 6},
    }
    out["template-outside-box"] = {
        "domain": {"N": 32},
        "forcing": {"kind": "constant_field", "template": dict(SINGLE_MODE, mode=[0, 12])},
        "solver": {"dt": 5e-3}, "experiment": {"kind": "simulate", "t_end": 0.05, "seed": 7},
    }
    out["attractor-3d-tau"] = {
        "domain": {"d": 3, "N": 8}, "params": {"epsilon": 0.3},
        "forcing": {"kind": "periodic", "period": 0.5, "template": dict(SINGLE_MODE, mode=[0, 1, 1])},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "attractor", "tau": 0.37, "horizons": [0.05, 0.1], "seed": 8,
                       "path_window": [-1.0, 1.0], "family": {"samples": 3, "include_boundary": True}},
    }
    out["pullback-negative-tau"] = {
        "domain": {"N": 16}, "params": {"epsilon": 0.4},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "pullback", "tau": -0.41, "horizons": [0.1, 0.2], "seed": 9,
                       "path_window": [-40.0, 1.0], "family": {"samples": 3}},
    }
    out["attractor-dealias1"] = {
        "domain": {"N": 16, "dealias": 1.0}, "params": {"epsilon": 0.25},
        "forcing": {"kind": "constant_field", "template": BUMP},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "attractor", "horizons": [0.1, 0.2], "seed": 10,
                       "path_window": [-1.0, 1.0], "family": {"samples": 3}},
    }
    out["pullback-dt0.1"] = {
        "domain": {"N": 16}, "params": {"epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.1},
        "experiment": {"kind": "pullback", "horizons": [0.3, 0.7], "seed": 11,
                       "path_window": [-40.0, 1.0], "family": {"samples": 3}},
    }
    out["simulate-3d-bump"] = {
        "domain": {"d": 3, "N": 8},
        "forcing": {"kind": "constant_field", "template": BUMP},
        "solver": {"dt": 0.01}, "experiment": {"kind": "simulate", "t_end": 0.05, "seed": 12},
    }
    out["simulate-3d12-skew"] = {
        "domain": {"d": 3, "N": 12}, "params": {"r": 5.0, "epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": dict(SINGLE_MODE, mode=[0, 1, 1])},
        "solver": {"dt": 5e-3, "record_stride": 4},
        "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.1, "seed": 13,
                       "path_window": [-1.0, 1.0]},
    }
    out["simulate-conjugated-tau"] = {
        "domain": {"N": 16}, "params": {"epsilon": 0.5},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 5e-3},
        "experiment": {"kind": "simulate", "system": "conjugated", "tau": 0.3, "t_end": 0.5, "seed": 14,
                       "path_window": [-0.5, 1.0]},
    }
    out["attractor-radius0"] = {
        "domain": {"N": 8}, "params": {"epsilon": 0.3},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "attractor", "horizons": [0.05, 0.1], "seed": 15, "path_window": [-1.0, 1.0],
                       "family": {"radius": 0.0, "samples": 2, "include_boundary": True}},
    }
    out["stratonovich-eps0-offgrid"] = {
        "domain": {"N": 16},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "simulate", "system": "stratonovich", "t_end": 0.1, "seed": 16,
                       "path_window": [-1.0, 1.0], "path_dt": 0.003},
    }
    out["simulate-conjugated-eps0-nopath"] = {
        "domain": {"N": 16},
        "forcing": {"kind": "periodic", "period": 0.5, "template": SINGLE_MODE},
        "solver": {"dt": 0.01},
        "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.1},
    }
    out["simulate-3d-bump-stride1"] = dict(out["simulate-3d-bump"], solver={"dt": 0.01, "record_stride": 1})
    return out


def run_one(name, raw, out_dir):
    """The digest lines of one config."""
    raw = dict(raw, output={"dir": str(out_dir / name)})
    try:
        cfg = cli.parse_config(json.dumps(raw))
    except ValueError as exc:
        return [f"{name} - config error: {exc}"]
    status = cli.run(cfg)
    lines = [] if status == 0 else [f"{name} - exit {status}"]
    for path in sorted((out_dir / name).glob("*.csv")):
        lines.append(f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    summary = json.loads((out_dir / name / "manifest.json").read_text())["summary"]
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    lines.append(f"{name} manifest.summary {digest}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, raw in configs().items():
        print("\n".join(run_one(name, raw, out_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
