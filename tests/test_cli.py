"""Configuration parsing, experiment runs, artifact determinism."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cbflab.cli as cli
from cbflab.cli import _SECTIONS, _TABLE, _WORDS, ConfigError, main, parse_config, run
from cbflab.stochastic import sample_path


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
        # the step rule follows the system: no key chooses it
        with pytest.raises(ConfigError, match=r"solver: unknown key\(s\) \['scheme'\]"):
            parse_config(json.dumps({"solver": {"scheme": "imex_cn_ab2"}}))
        # the term switches are the library's, for its exact-solution audits; no run turns a term off
        for key in ("include_B", "include_C"):
            with pytest.raises(ConfigError, match=rf"solver: unknown key\(s\) \['{key}'\]"):
                parse_config(json.dumps({"solver": {key: False}}))

    def test_horizons_must_increase(self):
        with pytest.raises(ConfigError, match="horizons"):
            parse_config(json.dumps({"experiment": {"kind": "pullback", "horizons": [2.0, 1.0]}}))

    def test_stochastic_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps({
                "params": {"epsilon": 0.5},
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

    @pytest.mark.parametrize("experiment, where", [
        ({"tau": 0.005, "t_end": 0.105}, "experiment.tau"),
        ({"tau": 0.0025, "t_end": 0.1025}, "experiment.tau"),
        ({"path_dt": 0.003}, "experiment.path_dt"),
    ], ids=["tau-half-node", "tau-quarter-node", "dt-off-grid"])
    def test_stratonovich_steps_off_the_path_grid(self, experiment, where, tmp_path, capsys):
        # the path's increments over these steps have variance 0.495 dt, 0.618 dt and 0.889 dt, not dt
        raw = {"params": {"epsilon": 0.5}, "solver": {"dt": 0.01},
               "experiment": {"kind": "simulate", "system": "stratonovich", "seed": 1, "t_end": 0.1,
                              "path_window": [-1.0, 1.0], **experiment}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {where}: off-path-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_stratonovich_rule_needs_a_positive_intensity(self, tmp_path):
        # at zero intensity the noisy step reads no increment, as in solve
        raw = {"domain": {"N": 16}, "solver": {"dt": 0.01},
               "experiment": {"kind": "simulate", "system": "stratonovich", "seed": 1, "t_end": 0.05,
                              "path_window": [-1.0, 1.0], "path_dt": 0.003}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "zero")]) == 0
        cfg.write_text(json.dumps(dict(raw, params={"epsilon": 0.5})))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "noisy")]) == 2
        assert not (tmp_path / "noisy").exists()

    @pytest.mark.parametrize("system", ["conjugated", "stratonovich"])
    @pytest.mark.parametrize("kind, experiment, params", [
        ("verify", {}, {}),
        ("pullback", {}, {}),
        ("attractor", {}, {}),
        ("semicontinuity", {}, {"epsilon_ladder": [0.5]}),
        ("tails", {"tail_radii": [0.5]}, {}),
    ], ids=["verify", "pullback", "attractor", "semicontinuity", "tails"])
    def test_only_simulate_reads_the_system(self, kind, experiment, params, system, tmp_path, capsys):
        # tau = 0.005 is off the 0.01 path grid: the key is rejected before any rule reads it
        raw = {"domain": {"N": 16}, "params": params, "solver": {"dt": 0.01},
               "experiment": dict(experiment, kind=kind, tau=0.005, horizons=[0.02], seed=1,
                                  path_window=[-1.0, 1.0], family={"samples": 2})}
        parse_config(json.dumps(raw))
        raw["experiment"]["system"] = system
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: experiment.system: read only by simulate, not by {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, params", [
        ({"kind": "attractor"}, {"epsilon": 0.0, "epsilon_ladder": [0.5]}),
        ({"kind": "tails", "tail_radii": [0.5], "tail_epsilons": [0.0]}, {"epsilon": 0.3}),
        ({"kind": "simulate", "system": "conjugated"}, {}),
        ({"kind": "simulate", "system": "stratonovich"}, {}),
    ], ids=["attractor-unused-ladder", "tails-zero-intensities", "conjugated-simulate", "stratonovich-simulate"])
    def test_run_without_a_path_needs_no_seed(self, experiment, params, tmp_path, monkeypatch):
        """Neither run solves at a positive intensity, so it needs neither a seed nor a path window."""
        def no_path(*args):
            raise AssertionError("the run drew a path")

        monkeypatch.setattr(cli, "sample_path", no_path)
        raw = {"domain": {"N": 16}, "params": params, "solver": {"dt": 0.01},
               "experiment": dict(experiment, horizons=[0.02], family={"samples": 2})}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main([experiment["kind"], "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_tails_draws_its_path_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sample_path", lambda *args: calls.append(args) or sample_path(*args))
        raw = {"domain": {"N": 16}, "solver": {"dt": 0.01},
               "experiment": {"kind": "tails", "horizons": [0.02], "tail_radii": [0.5], "seed": 3,
                              "tail_epsilons": [0.5, 0.0, 0.25], "path_window": [-1.0, 1.0],
                              "family": {"samples": 2}},
               "output": {"dir": str(tmp_path / "out")}}
        assert run(parse_config(json.dumps(raw))) == 0
        assert calls == [(3, -1.0, 1.0, 0.01)]
        assert len((tmp_path / "out" / "tails.csv").read_text().strip().split("\n")) == 4

    def test_tails_checks_only_its_last_horizon(self):
        raw = {"solver": {"dt": 0.01},
               "experiment": {"kind": "tails", "horizons": [0.015, 0.03], "tail_radii": [0.5]}}
        assert parse_config(json.dumps(raw)).experiment["horizons"] == [0.015, 0.03]
        raw["experiment"]["kind"] = "attractor"
        with pytest.raises(ConfigError, match="experiment.horizons"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("experiment, sections, message", [
        ({"system": "foo"}, {}, "experiment.system"),
        ({"kind": "pullback"}, {}, "experiment.horizons"),
        ({"kind": "attractor"}, {}, "experiment.horizons"),
        ({"kind": "pullback", "horizons": []}, {}, "experiment.horizons"),
        ({"kind": "attractor", "horizons": [-0.5, 0.1]}, {}, "experiment.horizons"),
        ({"kind": "attractor", "horizons": ["x"]}, {}, "experiment.horizons"),
        ({"kind": "semicontinuity", "seed": 1, "path_window": [-40.0, 1.0]},
         {"params": {"epsilon_ladder": [0.5]}}, "experiment.horizons"),
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
        ({"kind": "tails", "horizons": [0.1], "tail_radii": [0.5, 0.0]}, {}, "experiment.tail_radii"),
        ({"kind": "tails", "horizons": [0.1], "tail_radii": [-1.0]}, {}, "experiment.tail_radii"),
        # sqrt(2) k >= L = pi: the cutoff annulus leaves the box
        ({"kind": "tails", "horizons": [0.1], "tail_radii": [0.5, 2.3]}, {}, "experiment.tail_radii"),
        ({"kind": "tails", "horizons": [0.1], "tail_radii": ["1"]}, {}, "experiment.tail_radii"),
        ({"kind": "attractor", "horizons": [0.1], "family": {"samples": 2.5}},
         {}, "experiment.family: sample_count must be an integer, got 2.5"),
        ({}, {"solver": {"record_stride": 2.5}}, "solver: record_stride must be an integer >= 1, got 2.5"),
        ({}, {"solver": {"record_stride": True}}, "solver: record_stride must be an integer >= 1, got True"),
        ({"t_end": -1}, {}, "experiment.t_end: t_end = -1 precedes t_start = 0.0"),
        ({"tau": 2.0, "t_end": 1.0}, {}, "experiment.t_end: t_end = 1.0 precedes t_start = 2.0"),
        ({"t_end": 0.015}, {}, "experiment.t_end: (t_end - t_start) = 0.015 is not a multiple of dt = 0.01"),
        ({"kind": "pullback", "horizons": [0.015, 0.03]}, {}, "experiment.horizons: (t_end - t_start) = 0.015"),
        ({"kind": "attractor", "horizons": [0.01, 0.015]}, {}, "experiment.horizons: (t_end - t_start) = 0.015"),
        ({"kind": "semicontinuity", "horizons": [0.025, 0.05], "seed": 1, "path_window": [-40.0, 1.0]},
         {"params": {"epsilon_ladder": [0.5]}}, "experiment.horizons: (t_end - t_start) = 0.025"),
        # tails solves only the last horizon
        ({"kind": "tails", "horizons": [0.01, 0.015], "tail_radii": [0.5]}, {},
         "experiment.horizons: (t_end - t_start) = 0.015"),
        ({"tau": "0"}, {}, "experiment.tau: expected a number, got '0'"),
        ({"path_window": 5}, {}, "experiment.path_window: expected a list of two numbers, got 5"),
        ({"path_window": [-1.0]}, {}, "experiment.path_window: expected a list of two numbers, got [-1.0]"),
        ({}, {"params": {"epsilon_ladder": [0.5, "x"]}},
         "params.epsilon_ladder: expected a non-empty list of numbers, got [0.5, 'x']"),
        ({}, {"params": {"epsilon_ladder": 0.5}}, "params.epsilon_ladder: expected a non-empty list of numbers"),
        ({"horizons": 0.5}, {}, "experiment.horizons: expected a non-empty list of numbers >= 0, got 0.5"),
        ({}, {"forcing": {"kind": "periodic", "period": "1", "template": {"shape": "single_mode"}}},
         "forcing.period: expected a number > 0, got '1'"),
        ({}, {"forcing": {"kind": "constant_field", "delta": "0.1", "template": {"shape": "single_mode"}}},
         "forcing.delta: expected a number >= 0, got '0.1'"),
        ({}, {"forcing": {"kind": "decaying", "gamma": "x", "template": {"shape": "single_mode"}}},
         "forcing.gamma: expected a number, got 'x'"),
        ({}, {"forcing": {"kind": "constant_field", "template": {"shape": "single_mode", "amplitude": "x"}}},
         "forcing.template.amplitude: expected a number, got 'x'"),
        ({}, {"forcing": {"kind": "constant_field", "template": {"shape": "bump", "width": "x"}}},
         "forcing.template.width: expected a number > 0, got 'x'"),
        ({"path_dt": 0}, {}, "experiment.path_dt: expected a number > 0, got 0"),
        ({"path_dt": -0.01}, {}, "experiment.path_dt: expected a number > 0, got -0.01"),
        ({"seed": "a"}, {}, "experiment.seed: expected an integer >= 0, got 'a'"),
        ({"seed": -1}, {}, "experiment.seed: expected an integer >= 0, got -1"),
        # sample_path needs t_min < 0 < t_max
        ({"system": "conjugated", "seed": 1, "path_window": [0.0, 1.0]}, {"params": {"epsilon": 0.5}},
         "experiment.path_window: invalid-range: need t_min < 0 < t_max, got (0.0, 1.0)"),
        ({"family": {"radius": "big"}}, {}, "experiment.family.radius: expected a number >= 0, got 'big'"),
        ({"family": {"max_mode": "2"}}, {}, "experiment.family.max_mode: expected an integer >= 0, got '2'"),
        ({}, {"domain": {"N": "16"}}, "domain.N: expected an integer that is even and >= 4, got '16'"),
        ({}, {"domain": {"N": 16.5}}, "domain.N: expected an integer that is even and >= 4, got 16.5"),
        ({}, {"domain": {"L": "3"}}, "domain.L: expected a number > 0, got '3'"),
        ({}, {"domain": {"dealias": "0.5"}}, "domain.dealias: expected a number in (0, 1], got '0.5'"),
        # the term switches left the config table: a run names them as unknown keys
        ({}, {"solver": {"include_B": "no"}}, "solver: unknown key(s) ['include_B']"),
        ({}, {"params": {"r": True}}, "params.r: expected a number >= 1, got True"),
        ({"family": {"include_boundary": "yes"}}, {},
         "experiment.family.include_boundary: expected true or false, got 'yes'"),
        ({"family": {"max_mode": -1}}, {}, "experiment.family.max_mode: expected an integer >= 0, got -1"),
        ({}, {"forcing": {"kind": "constant_field", "template": {"shape": "bump", "extra": 1}}},
         "forcing.template: unknown key(s) ['extra']"),
        ({}, {"params": {"mu": "1"}}, "params.mu: expected a number > 0, got '1'"),
        ({}, {"solver": {"dt": "0.01"}}, "solver.dt: expected a number > 0, got '0.01'"),
        ({"t_end": 1e308}, {"solver": {"dt": 1e-300}},
         "experiment.t_end: (t_end - t_start) / dt = 1e+308 / 1e-300 is not finite"),
        ({}, {"forcing": {"kind": "periodic", "period": 1e-310, "delta": 0.5, "template": {"shape": "single_mode"}}},
         "forcing: the envelope is not finite and periodic with period 1e-310"),
        ({}, {"forcing": {"kind": "periodic", "template": {"shape": "single_mode"}}},
         "forcing: periodic forcing needs a positive period, got None"),
        ({}, {"domain": {"N": 32}, "forcing": {"kind": "constant_field",
                                               "template": {"shape": "single_mode", "mode": [0, 12]}}},
         "forcing.template: its coefficients reach outside the dealiased box |m_i| <= 10"),
        ({}, {"forcing": {"kind": "constant_field", "delta": 1.0, "template": {"shape": "single_mode"}}},
         "forcing.delta: need 0 <= delta < alpha, got 1.0 with alpha=1.0"),
        ({}, {"forcing": {"kind": "constant_field"}}, "forcing.template: expected an object with a 'shape' key"),
        ({}, {"forcing": {"kind": "periodic", "period": 0.5, "template": {}}},
         "forcing.template: expected an object with a 'shape' key"),
        ({"system": "conjugated", "seed": 1}, {"params": {"epsilon": 0.5}},
         "experiment.path_window: required for a run that draws a path"),
    ], ids=["unknown-system", "pullback-no-horizons", "attractor-no-horizons", "empty-horizons",
            "negative-horizon", "text-horizon", "semicontinuity-no-horizons", "tails-no-horizons",
            "no-epsilon-ladder", "no-tail-radii", "negative-tail-epsilon", "unknown-family-key",
            "zero-samples", "simulate-unknown-family-key", "zero-tail-radius", "negative-tail-radius",
            "tail-radius-exceeds-box", "text-tail-radius", "fractional-samples",
            "fractional-record-stride", "boolean-record-stride", "negative-t-end", "t-end-before-tau",
            "t-end-off-the-step-grid", "pullback-horizon-off-the-step-grid",
            "attractor-horizon-off-the-step-grid", "semicontinuity-horizon-off-the-step-grid",
            "tails-last-horizon-off-the-step-grid", "text-tau", "number-path-window",
            "short-path-window", "text-in-epsilon-ladder", "number-epsilon-ladder", "number-horizons",
            "text-period", "text-delta", "text-gamma", "text-template-amplitude", "text-template-width",
            "zero-path-dt", "negative-path-dt", "text-seed", "negative-seed", "path-window-without-zero",
            "text-family-radius", "text-max-mode", "text-N", "fractional-N", "text-L", "text-dealias",
            "text-include-B", "boolean-r", "text-include-boundary", "negative-max-mode",
            "unknown-template-key", "text-mu", "text-dt", "step-count-overflows",
            "period-underflows", "periodic-without-period", "template-outside-box",
            "delta-not-below-alpha", "forcing-without-template", "template-without-shape",
            "path-run-without-path-window"])
    def test_rejected_before_the_run(self, experiment, sections, message, tmp_path, capsys):
        kind = experiment.get("kind", "simulate")
        raw = {"domain": {"N": 16}, "solver": {"dt": 0.01}, "experiment": dict(experiment, kind=kind)}
        for name, values in sections.items():
            raw[name] = {**raw.get(name, {}), **values}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", '{"experiment": 5}', '{"output": []}', '{"output": {"dir": 5}}',
                                      "\xff{"],
                             ids=["list", "number-experiment", "list-output", "number-output-dir", "not-utf-8"])
    def test_non_object_rejected(self, text, tmp_path, capsys, monkeypatch):
        # main writes --seed and the subcommand into sections that must be objects
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text.encode("latin-1"))
        assert main(["simulate", "--config", str(cfg), "--seed", "2"]) == 2
        assert "config error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]
        with pytest.raises(ConfigError):
            parse_config(text)


# a value of the wrong type for each table type, and an out-of-range value for each key with a range
WRONG_TYPE = {
    "number": ["1", True, None], "integer": [2.5, True, "2"], "bool": ["yes", 1], "string": [5, ["a"]],
    "object": [5, []], "number list": [0.5, [0.5, "x"], [], [True]], "integer list": [[0, 1.5], 1],
    "number pair": [5, [-1.0], [-1.0, "x"]],
}
OUT_OF_RANGE = {
    "workers": [0], "domain.d": [1, 4], "domain.L": [0, -1.0], "domain.N": [2, 17], "domain.dealias": [0, 1.5],
    "params.mu": [0], "params.alpha": [-1.0], "params.beta": [0.0], "params.r": [0.5], "params.epsilon": [-0.1],
    "forcing.kind": ["steady"], "forcing.period": [0], "forcing.delta": [-0.5], "forcing.template.shape": ["ring"],
    "forcing.template.bump.width": [0], "forcing.template.bump.support_radius": [-1.0],
    "solver.dt": [0, -0.01], "solver.record_stride": [0],
    "experiment.kind": ["run"], "experiment.system": ["ito"], "experiment.horizons": [[0.1, -0.1]],
    "experiment.seed": [-1], "experiment.path_dt": [0], "experiment.tail_epsilons": [[0.5, -0.5]],
    "experiment.family.radius": [-1.0], "experiment.family.samples": [0], "experiment.family.max_mode": [-1],
}


def table_cases():
    for section, key, default, kind, rule in _TABLE:
        bad = WRONG_TYPE[kind] + OUT_OF_RANGE.get(f"{section}.{key}".lstrip("."), [])
        for value in bad:
            if value is None and default is None:
                continue  # null leaves an optional key unset
            yield pytest.param(section, key, value, kind, rule, id=f"{section}.{key}={value!r}".lstrip("."))


def test_out_of_range_list_covers_every_ranged_key():
    assert set(OUT_OF_RANGE) == {f"{s}.{k}".lstrip(".") for s, k, _, _, rule in _TABLE if rule is not None}


@pytest.mark.parametrize("section, key, value, kind, rule", table_cases())
def test_every_table_key_checked_before_the_run(section, key, value, kind, rule, tmp_path, capsys, monkeypatch):
    """Each key, given a wrong type or an out-of-range value, stops the run at parse time and is named."""
    raw = {}
    names = section.split(".") if section else []
    shape = names.pop() if section.startswith("forcing.template.") else None
    node = raw
    for name in names:
        node = node.setdefault(name, {})
    if shape:
        node["shape"] = shape
    node[key] = value
    # a template's keys are reported under forcing.template, whatever its shape
    path = ".".join(names + [key])
    if callable(rule):
        expected = f"({path})"  # the owning class's message, with the key appended
    else:
        expected = f"config error: {path}: expected {_WORDS[kind]}"
    if path == "experiment.kind":
        # the subcommand always sets the kind, so only parse_config can see a bad one
        with pytest.raises(ConfigError, match=f"^{path}: expected"):
            parse_config(json.dumps(raw))
        return
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expected in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_readme_configuration_matches_the_table():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Configuration\n", 1)[1].split("\n### ", 1)[0]
    full, bump = [json.loads(block.split("```", 1)[0]) for block in section.split("```json\n")[1:]]

    def walk(where, doc):
        rows = _SECTIONS[where]
        if "shape" in rows:
            rows = {**rows, **_SECTIONS[f"{where}.{doc['shape']}"]}
        assert set(doc) == set(rows), where
        for key, value in doc.items():
            if rows[key][1] == "object":
                walk(f"{where}.{key}".lstrip("."), value)

    walk("", full)
    walk("forcing.template", bump)
    assert {full["forcing"]["template"]["shape"], bump["shape"]} == {"single_mode", "bump"}


def test_manifest_json_takes_numpy_scalars_only():
    assert json.dumps({"a": np.float64(0.5), "b": np.int64(3)}, default=cli._plain) == '{"a": 0.5, "b": 3}'
    with pytest.raises(TypeError, match="Object of type ndarray is not JSON serializable"):
        json.dumps({"a": np.zeros(2)}, default=cli._plain)


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

    def test_simulate_expands_only_the_final_state(self, tmp_path, monkeypatch):
        import cbflab.domain as domain
        import cbflab.integrators as integrators

        calls = []
        box_full = domain._box_full

        def counted(dom, box):
            calls.append(box.shape)
            return box_full(dom, box)

        monkeypatch.setattr(domain, "_box_full", counted)
        monkeypatch.setattr(integrators, "_box_full", counted)
        cfg = parse_config(json.dumps({
            "domain": {"d": 3, "N": 8},
            "params": {"r": 5.0},
            "solver": {"dt": 0.01, "record_stride": 1},
            "experiment": {"kind": "simulate", "t_end": 0.05, "seed": 4},
            "output": {"dir": str(tmp_path)},
        }))
        assert run(cfg) == 0
        # two expansions: the initial field, which random_field builds on the box, and the final
        # state, the only other snapshot a run's solve records
        assert len(calls) == 2
        assert (tmp_path / "final_state.csv").exists()

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

    @staticmethod
    def _simulate(system, tau, t_end, window):
        return {"domain": {"N": 16}, "params": {"epsilon": 0.5}, "solver": {"dt": 0.01},
                "experiment": {"kind": "simulate", "system": system, "tau": tau, "t_end": t_end, "seed": 1,
                               "path_window": window}}

    @pytest.mark.parametrize("system", ["conjugated", "stratonovich"])
    def test_simulate_window_must_cover_its_span(self, system, tmp_path, capsys):
        # a simulate reads the path on [tau, t_end] = [0, 1], past the window's end 0.5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._simulate(system, 0.0, 1.0, [-1.0, 0.5])))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: experiment.path_window: window must cover the simulated span [0.0, 1.0]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("system", ["conjugated", "stratonovich"])
    def test_simulate_window_off_the_origin(self, system, tmp_path):
        # [2, 2.1] lies inside [-1, 3]; no pullback anchor at -tau = -2 is read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._simulate(system, 2.0, 2.1, [-1.0, 3.0])))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[0]) for r in rows[::10]] == pytest.approx([2.0, 2.1])

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
        heun = solve("stratonovich", random_field(cfg.domain, seed=5, amplitude=1.0),
                     SolverConfig(dt=0.005, t_end=0.05, record_stride=5),
                     cfg.params, cfg.profile, path=sample_path(5, -1.0, 1.0, 0.005))
        rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[1]) for r in rows] == heun.ledger["h_sq"].tolist()

    def test_stratonovich_simulate_past_the_explicit_bound(self, tmp_path):
        # 16^2 at dt = 0.04: an explicit linear step would need dt <= 2 / (mu 50 + alpha) = 0.0392
        raw = {"domain": {"N": 16}, "params": {"epsilon": 0.5}, "solver": {"dt": 0.04},
               "experiment": {"kind": "simulate", "system": "stratonovich", "t_end": 0.04, "seed": 1,
                              "path_window": [-1.0, 1.0]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

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

    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_attractor_of_the_zero_family(self, include_boundary, tmp_path):
        out = tmp_path / "att"
        raw = {"domain": {"N": 8}, "params": {"epsilon": 0.3}, "solver": {"dt": 0.01},
               "experiment": {"kind": "attractor", "horizons": [0.02, 0.04], "seed": 1, "path_window": [-1.0, 1.0],
                              "family": {"radius": 0.0, "samples": 2, "include_boundary": include_boundary}}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "attractor.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[1] for row in rows] == ["0.0"]

    def test_record_stride_has_no_effect(self, tmp_path, monkeypatch):
        from cbflab.integrators import solve

        trajectories = []
        monkeypatch.setattr(cli, "solve", lambda *args, **kw: trajectories.append(solve(*args, **kw)) or trajectories[-1])
        raw = {"domain": {"d": 3, "N": 8}, "params": {"r": 4.0, "epsilon": 0.5},
               "experiment": {"kind": "simulate", "system": "conjugated", "t_end": 0.1, "seed": 2,
                              "path_window": [-1.0, 1.0]}}
        for stride in (1, 10):
            raw.update(solver={"dt": 0.01, "record_stride": stride}, output={"dir": str(tmp_path / f"s{stride}")})
            assert run(parse_config(json.dumps(raw))) == 0
        for name in ("trajectory.csv", "final_state.csv"):
            assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s10" / name).read_bytes()
        assert [len(traj.states) for traj in trajectories] == [2, 2]

    def test_pullback_solves_keep_their_ends(self):
        raw = {"solver": {"dt": 0.01, "record_stride": 1},
               "experiment": {"kind": "attractor", "horizons": [0.02, 0.05]}}
        assert parse_config(json.dumps(raw)).solver.record_stride == 5

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
