"""Configuration parsing, experiment runs, artifact determinism."""

import hashlib
import json
import math

import pytest

from cbflab.cli import ConfigError, main, parse_config, run


def cfg_text(**overrides):
    base = {
        "domain": {"N": 16},
        "solver": {"dt": 0.005, "record_stride": 20},
        "experiment": {"kind": "simulate", "t_end": 0.25, "seed": 3},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in base:
            base[key].update(val)
        else:
            base[key] = val
    return json.dumps(base)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("{}")
        assert cfg.domain.N == 32 and cfg.domain.d == 2
        assert cfg.solver.dt == 1e-3
        assert cfg.params.mu == 1.0
        assert cfg.experiment["kind"] == "simulate"

    def test_inadmissible_params(self):
        with pytest.raises(ConfigError, match="inadmissible-params"):
            parse_config(json.dumps({"domain": {"d": 3, "N": 8}, "params": {"r": 2.0}}))

    def test_ladder_must_decrease(self):
        with pytest.raises(ConfigError, match="decrease"):
            parse_config(json.dumps({"params": {"epsilon_ladder": [0.5, 0.6]}}))

    def test_ladder_range(self):
        with pytest.raises(ConfigError, match="0, 1"):
            parse_config(json.dumps({"params": {"epsilon_ladder": [1.5, 0.5]}}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps({"domain": {"M": 3}}))

    def test_horizons_must_increase(self):
        with pytest.raises(ConfigError, match="horizons"):
            parse_config(json.dumps({"experiment": {"kind": "pullback", "horizons": [2.0, 1.0]}}))

    def test_stochastic_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps({
                "experiment": {"kind": "simulate", "system": "conjugated"},
            }))

    def test_window_covers_horizons(self):
        with pytest.raises(ConfigError, match="window"):
            parse_config(json.dumps({
                "params": {"epsilon": 0.5},
                "experiment": {"kind": "pullback", "horizons": [1.0, 5.0],
                               "seed": 1, "path_window": [-2.0, 1.0]},
            }))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize("workers", ["x", None, 2.7, 0, -3, True])
    def test_bad_workers_rejected(self, workers, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            parse_config(json.dumps({"workers": workers}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workers": workers}))
        assert main(["simulate", "--config", str(bad)]) == 2


    @pytest.mark.parametrize("path_dt", [0.01, 0.0050001])
    def test_stratonovich_path_grid_coarser_than_dt(self, path_dt, tmp_path):
        raw = {
            "params": {"epsilon": 0.5},
            "solver": {"dt": 0.005},
            "experiment": {"kind": "simulate", "system": "stratonovich", "seed": 5,
                           "path_window": [-1.0, 1.0], "path_dt": path_dt},
        }
        with pytest.raises(ConfigError, match="path_dt"):
            parse_config(json.dumps(raw))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(bad)]) == 2
        for fine in (0.005, 0.0025):
            raw["experiment"]["path_dt"] = fine
            parse_config(json.dumps(raw))
        # the conjugated system integrates the path itself, not its increments
        raw["experiment"].update(system="conjugated", path_dt=path_dt)
        parse_config(json.dumps(raw))

    @pytest.mark.parametrize("experiment, params, message", [
        ({"system": "foo"}, {}, "experiment.system"),
        ({"kind": "pullback"}, {}, "experiment.horizons"),
        ({"kind": "attractor"}, {}, "experiment.horizons"),
        ({"kind": "pullback", "horizons": []}, {}, "experiment.horizons"),
        ({"kind": "attractor", "horizons": [-0.5, 0.1]}, {}, "experiment.horizons"),
        ({"kind": "attractor", "horizons": ["x"]}, {}, "experiment.horizons"),
        ({"kind": "semicontinuity", "seed": 1, "path_window": [-40.0, 1.0]},
         {"epsilon_ladder": [0.5]}, "experiment.horizons"),
        ({"kind": "tails", "tail_radii": [0.5]}, {}, "experiment.horizons"),
        ({"kind": "semicontinuity", "horizons": [0.1], "seed": 1, "path_window": [-40.0, 1.0]},
         {}, "params.epsilon_ladder"),
        ({"kind": "tails", "horizons": [0.1]}, {}, "experiment.tail_radii"),
        ({"kind": "tails", "horizons": [0.1], "tail_radii": [0.5], "tail_epsilons": [-0.5]},
         {}, "experiment.tail_epsilons"),
        ({"kind": "pullback", "horizons": [0.1], "family": {"sample": 3}},
         {}, "experiment.family: unknown key(s) ['sample']"),
        ({"kind": "attractor", "horizons": [0.1], "family": {"samples": 0}},
         {}, "experiment.family: sample_count must be >= 1"),
        ({"family": {"radius": 1.0, "seed": 2}}, {}, "experiment.family: unknown key(s) ['seed']"),
    ], ids=["unknown-system", "pullback-no-horizons", "attractor-no-horizons", "empty-horizons",
            "negative-horizon", "text-horizon", "semicontinuity-no-horizons", "tails-no-horizons",
            "no-epsilon-ladder", "no-tail-radii", "negative-tail-epsilon", "unknown-family-key",
            "zero-samples", "simulate-unknown-family-key"])
    def test_rejected_before_the_run(self, experiment, params, message, tmp_path, capsys):
        kind = experiment.get("kind", "simulate")
        raw = {"domain": {"N": 16}, "solver": {"dt": 0.01}, "params": params,
               "experiment": dict(experiment, kind=kind)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_simulate_unforced_energy_monotone(self, tmp_path):
        cfg = parse_config(cfg_text(output={"dir": str(tmp_path / "out")}))
        assert run(cfg) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")[1:]
        h = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a for a, b in zip(h, h[1:]))

    def test_deterministic_artifacts(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config(cfg_text(output={"dir": str(tmp_path / sub)}))
            assert run(cfg) == 0
        for name in ("trajectory.csv", "final_state.csv"):
            da = (tmp_path / "a" / name).read_bytes()
            db = (tmp_path / "b" / name).read_bytes()
            assert hashlib.sha256(da).hexdigest() == hashlib.sha256(db).hexdigest()

    def test_manifest_references_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(cfg_text(output={"dir": str(out)}))
        run(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["artifacts"]) == on_disk
        assert manifest["config_sha256"]

    def test_pullback_experiment(self, tmp_path):
        out = tmp_path / "pb"
        cfg = parse_config(json.dumps({
            "domain": {"N": 16},
            "params": {"beta": 0.001},
            "solver": {"dt": 0.01},
            "experiment": {"kind": "pullback", "horizons": [1.0, 2.0, 3.0],
                           "family": {"radius": 2.0, "samples": 3}, "seed": 5},
            "output": {"dir": str(out)},
        }))
        assert run(cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["radius_sq"] == 1.0
        assert manifest["summary"]["entry_time"] is not None

    def test_tails_experiment(self, tmp_path):
        out = tmp_path / "tails"
        cfg = parse_config(json.dumps({
            "domain": {"L": 4 * math.pi, "N": 32},
            "solver": {"dt": 0.01},
            "forcing": {"kind": "constant_field", "delta": 0.5,
                        "template": {"shape": "bump", "width": 1.0, "amplitude": 0.5,
                                     "support_radius": 3.0}},
            "experiment": {"kind": "tails", "horizons": [2.0], "seed": 2,
                           "tail_radii": [2.0, 4.0], "tail_epsilons": [0.0, 0.5],
                           "path_window": [-4.0, 3.0],
                           "family": {"radius": 0.5, "samples": 2}},
            "output": {"dir": str(out)},
        }))
        assert run(cfg) == 0
        rows = (out / "tails.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4

    def test_verify_cli_exit_code(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "v")])
        assert code == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out and "FAIL" not in captured.out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {"epsilon_ladder": [0.5, 0.6]}}))
        assert main(["simulate", "--config", str(bad)]) == 2


    def test_blowup_failure_record(self, tmp_path, capsys):
        # the amplitude-500 start of the integrator's blow-up guard test
        cfg = parse_config(json.dumps({
            "domain": {"N": 16},
            "solver": {"dt": 0.05},
            "experiment": {"kind": "simulate", "t_end": 1.0, "seed": 6, "family": {"radius": 500.0}},
            "output": {"dir": str(tmp_path)},
        }))
        assert run(cfg) == 1
        assert "error: experiment 'simulate' failed: solution blow-up" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failure = manifest["failure"]
        assert failure["stage"] == "simulate" and failure["type"] == "BlowupError"
        assert failure["message"].startswith("solution blow-up at t=")
        assert 0.0 <= failure["t"] < 1.0 and failure["max_speed"] > 0.5 / (0.05 * 16 / math.pi)
        assert manifest["artifacts"] == [] and "health" not in manifest

    def test_failure_record_without_blowup(self, tmp_path, monkeypatch):
        import cbflab.cli as cli

        def broken(*args, **kwargs):
            raise FloatingPointError("bad arithmetic")

        monkeypatch.setattr(cli, "solve", broken)
        cfg = parse_config(cfg_text(output={"dir": str(tmp_path)}))
        assert run(cfg) == 1
        failure = json.loads((tmp_path / "manifest.json").read_text())["failure"]
        assert failure == {"stage": "simulate", "type": "FloatingPointError",
                           "message": "bad arithmetic", "t": None, "max_speed": None}


class TestMoreExperiments:
    def test_conjugated_simulate(self, tmp_path):
        out = tmp_path / "conj"
        cfg = parse_config(json.dumps({
            "domain": {"N": 16},
            "params": {"epsilon": 0.5},
            "solver": {"dt": 0.005, "record_stride": 50},
            "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.25,
                           "seed": 4, "path_window": [-1.0, 1.0], "path_dt": 0.005},
            "output": {"dir": str(out)},
        }))
        assert run(cfg) == 0
        rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        z = [float(r.split(",")[5]) for r in rows]
        assert any(abs(v - 1.0) > 1e-6 for v in z)

    @pytest.mark.parametrize("experiment", [
        {"kind": "simulate", "system": "deterministic", "t_end": 0.05, "seed": 5},
        {"kind": "pullback", "horizons": [0.05], "seed": 5},
    ], ids=["deterministic-simulate", "pullback"])
    def test_heun_scheme_outside_stratonovich_is_config_error(self, experiment, tmp_path, capsys):
        raw = {"domain": {"N": 16}, "solver": {"dt": 0.005, "scheme": "heun_stratonovich"},
               "experiment": experiment}
        with pytest.raises(ConfigError, match="heun_stratonovich"):
            parse_config(json.dumps(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([experiment["kind"], "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: solver.scheme" in capsys.readouterr().err
        assert not out.exists()

    def test_stratonovich_simulate_runs_heun(self, tmp_path):
        from cbflab.domain import random_field
        from cbflab.integrators import SolverConfig, solve
        from cbflab.stochastic import sample_path

        raw = {"domain": {"N": 16}, "params": {"epsilon": 0.5},
               "solver": {"dt": 0.005, "record_stride": 5},
               "experiment": {"kind": "simulate", "system": "stratonovich", "t_end": 0.05,
                              "seed": 5, "path_window": [-1.0, 1.0], "path_dt": 0.005}}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = parse_config(json.dumps(raw))
        assert cfg.solver.scheme == "heun_stratonovich"
        heun = solve("stratonovich", random_field(cfg.domain, seed=5, amplitude=1.0),
                     SolverConfig(dt=0.005, scheme="heun_stratonovich", t_end=0.05, record_stride=5),
                     cfg.params, cfg.profile, path=sample_path(5, -1.0, 1.0, 0.005))
        rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[1]) for r in rows] == heun.ledger["h_sq"].tolist()

    def test_stratonovich_simulate(self, tmp_path):
        out = tmp_path / "strat"
        cfg = parse_config(json.dumps({
            "domain": {"N": 16},
            "params": {"epsilon": 0.5},
            "solver": {"dt": 0.005, "record_stride": 50},
            "experiment": {"kind": "simulate", "system": "stratonovich", "t_end": 0.25,
                           "seed": 5, "path_window": [-1.0, 1.0], "path_dt": 0.005},
            "output": {"dir": str(out)},
        }))
        assert run(cfg) == 0
        assert (out / "trajectory.csv").exists()

    def test_attractor_experiment(self, tmp_path):
        out = tmp_path / "att"
        cfg = parse_config(json.dumps({
            "domain": {"N": 16},
            "solver": {"dt": 0.01},
            "forcing": {"kind": "periodic", "period": 1.0, "delta": 0.5,
                        "template": {"shape": "single_mode", "mode": [0, 1],
                                     "amplitude": 0.2}},
            "experiment": {"kind": "attractor", "horizons": [1.0, 2.0],
                           "family": {"radius": 0.5, "samples": 2}, "seed": 6},
            "output": {"dir": str(out)},
        }))
        assert run(cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["cloud_size"] == 2
        assert any(a.startswith("cloud_") for a in manifest["artifacts"])

    @pytest.mark.parametrize("kind, csvs", [
        ("attractor", ["attractor.csv", "cloud_000.csv", "cloud_001.csv", "cloud_002.csv"]),
        ("tails", ["tails.csv"]),
    ], ids=["attractor", "tails"])
    def test_workers_do_not_change_outputs(self, kind, csvs, tmp_path):
        raw = {
            "domain": {"N": 8},
            "params": {"epsilon": 0.5},
            "solver": {"dt": 0.01},
            "experiment": {"kind": kind, "horizons": [0.1, 0.2], "seed": 4,
                           "family": {"radius": 0.5, "samples": 3},
                           "tail_radii": [0.5, 1.0], "tail_epsilons": [0.0, 0.5],
                           "path_window": [-1.0, 1.0]},
        }
        for workers in (1, 2):
            raw.update(workers=workers, output={"dir": str(tmp_path / f"w{workers}")})
            assert run(parse_config(json.dumps(raw))) == 0
        names = sorted(p.name for p in (tmp_path / "w1").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "w2").glob("*.csv"))
        assert names == csvs
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["attractor", "semicontinuity"])
    def test_workers_start_no_thread(self, kind, tmp_path, monkeypatch):
        import threading

        def refuse(self):
            raise RuntimeError("no thread may be started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / kind
        cfg = parse_config(json.dumps({
            "domain": {"N": 8},
            "params": {"epsilon": 0.5, "epsilon_ladder": [0.5, 0.25]},
            "solver": {"dt": 0.01},
            "forcing": {"kind": "periodic", "period": 1.0, "delta": 0.5,
                        "template": {"shape": "single_mode", "mode": [0, 1],
                                     "amplitude": 0.05}},
            "experiment": {"kind": kind, "horizons": [0.1, 0.2], "seed": 4,
                           "family": {"radius": 0.3, "samples": 3},
                           "path_window": [-40.0, 1.0]},
            "output": {"dir": str(out)},
            "workers": 2,
        }))
        assert run(cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] and all((out / a).is_file() for a in manifest["artifacts"])
        if kind == "semicontinuity":
            assert 0.0 < manifest["summary"]["forcing_integral_rel_error"] <= 1e-7

    @pytest.mark.parametrize("forcing", [
        {"kind": "zero"},
        {"kind": "constant_field", "delta": 0.5,
         "template": {"shape": "single_mode", "mode": [0, 1]}},
    ], ids=["unforced", "forced"])
    def test_pullback_records_integral_error(self, forcing, tmp_path):
        cfg = parse_config(json.dumps({
            "domain": {"N": 8},
            "solver": {"dt": 0.01},
            "forcing": forcing,
            "experiment": {"kind": "pullback", "horizons": [0.1, 0.2],
                           "family": {"radius": 0.5, "samples": 2}, "seed": 5},
            "output": {"dir": str(tmp_path)},
        }))
        assert run(cfg) == 0
        rel = json.loads((tmp_path / "manifest.json").read_text())["summary"]["forcing_integral_rel_error"]
        if forcing["kind"] == "zero":
            assert rel == 0.0
        else:
            assert 0.0 < rel <= 1e-7

    def test_health_names_missed_integral_target(self, tmp_path, monkeypatch):
        import dataclasses

        import cbflab.pullback as pullback

        raw = {
            "domain": {"N": 8},
            "params": {"epsilon": 0.5},
            "solver": {"dt": 0.01},
            "forcing": {"kind": "constant_field", "delta": 0.5,
                        "template": {"shape": "single_mode", "mode": [0, 1]}},
            "experiment": {"kind": "pullback", "horizons": [0.1, 0.2], "seed": 5,
                           "family": {"radius": 0.5, "samples": 2},
                           "path_window": [-40.0, 1.0], "path_dt": 0.01},
        }
        raw["output"] = {"dir": str(tmp_path / "met")}
        assert run(parse_config(json.dumps(raw))) == 0
        manifest = json.loads((tmp_path / "met" / "manifest.json").read_text())
        assert 0.0 < manifest["summary"]["forcing_integral_rel_error"] <= 1e-7
        assert "health" not in manifest and "failure" not in manifest

        integral = pullback.weighted_forcing_integral

        def missed(*args, **kwargs):
            res = integral(*args, **kwargs)
            if kwargs.get("weight") == "exp_abs":
                res = dataclasses.replace(res, error_estimate=1e-3 * res.value)
            return res

        monkeypatch.setattr(pullback, "weighted_forcing_integral", missed)
        raw["output"] = {"dir": str(tmp_path / "missed")}
        assert run(parse_config(json.dumps(raw))) == 0
        manifest = json.loads((tmp_path / "missed" / "manifest.json").read_text())
        value = manifest["summary"]["forcing_integral_rel_error"]
        assert value == pytest.approx(1e-3, rel=1e-12)
        assert manifest["health"] == {"forcing_integral_rel_error": {"value": value, "target": 1e-7}}

    def test_semicontinuity_experiment(self, tmp_path):
        out = tmp_path / "semi"
        cfg = parse_config(json.dumps({
            "domain": {"N": 8},
            "params": {"epsilon_ladder": [0.5, 0.25]},
            "solver": {"dt": 0.01},
            "forcing": {"kind": "periodic", "period": 1.0, "delta": 0.5,
                        "template": {"shape": "single_mode", "mode": [0, 1],
                                     "amplitude": 0.05}},
            "experiment": {"kind": "semicontinuity", "horizons": [1.0, 2.0],
                           "family": {"radius": 0.3, "samples": 2}, "seed": 7,
                           "path_window": [-40.0, 1.0], "path_dt": 0.01},
            "output": {"dir": str(out)},
        }))
        status = run(cfg)
        rows = (out / "semicontinuity.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert status in (0, 1)
