"""Command-line interface: parsing, reports, determinism, exit codes."""

import json

import numpy as np
import pytest

from robustrisk.cli import InputError, dumps17, main, parse_config, parse_scenario


SCENARIO = {
    "space": {"probs": [0.5, 0.5]},
    "positions": {"X": [0.8, -0.6], "Y": [1.0, 0.5], "A": [0.5, 0.25], "B": [0.5, 0.25]},
}

CONFIG = {
    "rho": {"kind": "entropic", "params": {"gamma": 1.0}},
    "family": {"kind": "sup_norm_ball", "params": {"eps": 0.3}},
    "seed": 7,
}


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SCENARIO))
    return str(p)


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_scenario_roundtrip(scenario_file):
    sc = parse_scenario(scenario_file)
    assert set(sc.positions) == {"X", "Y", "A", "B"}
    assert sc.space.n == 2


def test_parse_scenario_errors(tmp_path):
    with pytest.raises(InputError, match="not found"):
        parse_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="malformed"):
        parse_scenario(str(bad))
    with pytest.raises(InputError, match="space.probs"):
        parse_scenario(_write(tmp_path, "nospace.json", {"positions": {}}))
    with pytest.raises(InputError, match="positions.X"):
        parse_scenario(_write(tmp_path, "badpos.json",
                              {"space": {"probs": [0.5, 0.5]}, "positions": {"X": [1.0]}}))
    with pytest.raises(InputError, match=r"scenario has unknown keys \['measures'\]"):
        parse_scenario(_write(tmp_path, "badq.json",
                              {"space": {"probs": [0.5, 0.5]},
                               "measures": {"Q": {"density": [5.0, 5.0]}}}))


def test_parse_config_defaults():
    cfg = parse_config(None)
    assert cfg.rho == {"kind": "neg_expectation"}
    assert cfg.family is None
    assert cfg.seed == 42
    assert cfg.grid["simplex_step"] == 0.01


def test_parse_config_rejects_bad_tolerances(tmp_path):
    p = _write(tmp_path, "cfg.json", {"tolerances": {"analytic": -1.0}})
    with pytest.raises(InputError):
        parse_config(p)


def test_dumps17_deterministic():
    rep = {"b": 0.1, "a": float("inf"), "c": [1.0 / 3.0], "d": None, "e": True}
    s = dumps17(rep)
    assert s == dumps17(dict(reversed(rep.items())))  # key order irrelevant
    assert '"inf"' in s and "0.33333333333333331" in s and "null" in s and "true" in s


def test_eval_subcommand(scenario_file, config_file, capsys):
    code = main(["eval", "--scenario", scenario_file, "--config", config_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "values.X" in out


def test_missing_scenario_exits_2(tmp_path, capsys):
    code = main(["eval", "--scenario", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_robustify_report(scenario_file, config_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["robustify", "--scenario", scenario_file, "--config", config_file,
                 "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["values"]["X"]["guarantee"] == "exact"
    assert rep["values"]["X"]["solver"] == "analytic"
    assert rep["values"]["X"]["value"] > 0


def test_byte_identical_reports(scenario_file, config_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["robustify", "--scenario", scenario_file, "--config", config_file,
                     "--out", out, "--seed", "11"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_csv_output(scenario_file, config_file, tmp_path):
    out = str(tmp_path / "report.csv")
    assert main(["eval", "--scenario", scenario_file, "--config", config_file,
                 "--out", out, "--format", "csv"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("values.X,") for line in lines)


def test_dual_check_subcommand(scenario_file, config_file, capsys):
    code = main(["dual-check", "--scenario", scenario_file, "--config", config_file,
                 "--verifier", "primal_dual", "--position", "X"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result.gap" in out


def test_dual_check_unknown_verifier(scenario_file, config_file, capsys):
    code = main(["dual-check", "--scenario", scenario_file, "--config", config_file,
                 "--verifier", "nonsense"])
    assert code == 2


def test_acceptance_subcommand(scenario_file, config_file, tmp_path):
    out = str(tmp_path / "acc.json")
    code = main(["acceptance", "--scenario", scenario_file, "--config", config_file,
                 "--level", "0.5", "--position", "X", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["level"] == 0.5
    assert isinstance(rep["acceptable"], bool)
    assert rep["robust_level_by_sets"] == rep["robust"]["robust_value"]
    assert set(rep["robust"]) == {"x_in_robust", "robust_value", "guarantee"}


def test_allocate_subcommand(tmp_path, scenario_file):
    cfg = dict(CONFIG)
    cfg["allocate"] = {"aggregate": "Y", "parts": ["A", "B"]}
    config = _write(tmp_path, "cfg_alloc.json", cfg)
    out = str(tmp_path / "alloc.json")
    code = main(["allocate", "--scenario", scenario_file, "--config", config, "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert "robust_car_self" in rep and "A" in rep["parts"]
    assert rep["sub_allocation"]["tag"] in ("sampled_no_counterexample", "unknown")


def test_allocate_unknown_aggregate(tmp_path, scenario_file, capsys):
    cfg = dict(CONFIG)
    cfg["allocate"] = {"aggregate": "NOPE", "parts": []}
    config = _write(tmp_path, "cfg_bad.json", cfg)
    assert main(["allocate", "--scenario", scenario_file, "--config", config]) == 2


def test_properties_strict_exit(scenario_file, config_file):
    # sup balls fail quasi-convexity, so strict mode signals the finding
    code = main(["properties", "--scenario", scenario_file, "--config", config_file,
                 "--property", "quasi_convex", "--strict", "--trials", "10"])
    assert code == 1
    # without --strict the run still succeeds
    code = main(["properties", "--scenario", scenario_file, "--config", config_file,
                 "--property", "quasi_convex", "--trials", "10"])
    assert code == 0
    # properties that hold leave strict mode green
    code = main(["properties", "--scenario", scenario_file, "--config", config_file,
                 "--property", "convex", "--strict", "--trials", "10"])
    assert code == 0


def test_properties_requires_family(tmp_path, scenario_file):
    config = _write(tmp_path, "cfg_nofam.json", {"rho": {"kind": "entropic"}})
    assert main(["properties", "--scenario", scenario_file, "--config", config]) == 2


def test_measure_given_as_list_exits_2(tmp_path, config_file, capsys):
    """No subcommand reads scenario measures, so a scenario has no such key."""
    bad = dict(SCENARIO, measures={"Q": [1.2, 0.8]})
    assert main(["eval", "--scenario", _write(tmp_path, "s.json", bad), "--config", config_file]) == 2
    assert "scenario has unknown keys ['measures']" in capsys.readouterr().err


def test_misspelt_scenario_key_exits_2(tmp_path, config_file, capsys):
    """A misspelt positions key is an input error, not an empty report."""
    bad = {"space": SCENARIO["space"], "postions": SCENARIO["positions"]}
    assert main(["eval", "--scenario", _write(tmp_path, "s.json", bad), "--config", config_file]) == 2
    assert "scenario has unknown keys ['postions']; allowed keys are ['space', 'positions']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        (["space"], "error: scenario must be a JSON object"),
        ({"space": {"probs": [0.5, 0.5]}, "positions": [[1, 2]]}, "error: scenario positions must be an object"),
        ({"space": ["probs"], "positions": {}}, "error: scenario space must be an object"),
    ],
    ids=["top-level-list", "positions-list", "space-list"],
)
def test_scenario_that_is_not_an_object_exits_2(tmp_path, config_file, capsys, payload, message):
    """A scenario part that is not a JSON object is an input error, not a traceback."""
    assert main(["eval", "--scenario", _write(tmp_path, "s.json", payload), "--config", config_file]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section", ["rho", "family"])
def test_unknown_spec_keys_exit_2(tmp_path, scenario_file, capsys, section):
    """A parameter beside kind instead of under params is an error, not a
    silent default (a radius of 0 would report the unrobustified value)."""
    cfg = {"rho": {"kind": "entropic", "params": {"gamma": 1.0}},
           "family": {"kind": "sup_norm_ball", "params": {"eps": 0.3}}}
    cfg[section] = {"kind": cfg[section]["kind"], **cfg[section]["params"]}
    config = _write(tmp_path, "cfg.json", cfg)
    assert main(["robustify", "--scenario", scenario_file, "--config", config]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_trials_zero_exits_2(scenario_file, config_file, capsys):
    assert main(["properties", "--scenario", scenario_file, "--config", config_file,
                 "--property", "convex", "--trials", "0"]) == 2
    assert "--trials" in capsys.readouterr().err


def test_non_finite_level_flag_exits_2(scenario_file, config_file, capsys):
    """--level takes the same finite numbers as the config's level key."""
    assert main(["acceptance", "--scenario", scenario_file, "--config", config_file, "--level", "nan"]) == 2
    assert "--level" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["-5.2e-05", "-1e-300", "-0.5"])
def test_negative_level_flag_in_any_notation(scenario_file, config_file, tmp_path, level):
    """argparse reads only plain negative decimals as numbers; a level in
    scientific notation is still the flag's value, not an unknown option."""
    out = str(tmp_path / "acc.json")
    assert main(["acceptance", "--scenario", scenario_file, "--config", config_file,
                 "--level", level, "--out", out]) == 0
    assert json.loads(open(out).read())["level"] == float(level)


@pytest.mark.parametrize("level", ["nan", "-inf"])
def test_non_finite_level_token_exits_2_with_the_level_message(scenario_file, config_file, capsys, level):
    assert main(["acceptance", "--scenario", scenario_file, "--config", config_file, "--level", level]) == 2
    assert "--level must be a finite number" in capsys.readouterr().err


def test_unreplayable_counterexample_exits_2(scenario_file, config_file, capsys, monkeypatch):
    """The replay check is a real check, not an assert that python -O drops."""
    from robustrisk import uncertainty

    monkeypatch.setattr(uncertainty, "replay_witness", lambda family, prop, witness: False)
    assert main(["properties", "--scenario", scenario_file, "--config", config_file,
                 "--property", "quasi_convex", "--trials", "10"]) == 2
    assert "does not replay" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"rho": CONFIG["rho"], "famly": CONFIG["family"]}, "unknown keys"),
    (dict(CONFIG, seed="abc"), "seed"),
    (dict(CONFIG, rho={"kind": "certainty_equivalent", "params": {"loss": "exp"}}), "loss spec"),
    (dict(CONFIG, solver="grid"), "solver"),
    (dict(CONFIG, grid=0.1), "grid"),
    (dict(CONFIG, solver={"kind": "bogus"}), "unknown solver"),
    (dict(CONFIG, grid={"simplex_step": "x"}), "grid.simplex_step"),
    (dict(CONFIG, grid={"simplex_step": 0}), "grid.simplex_step"),
    (dict(CONFIG, grid={"simplex_stp": 0.05}), "unknown key 'simplex_stp'"),
    (dict(CONFIG, level="high"), "level"),
    (dict(CONFIG, allocate="Y"), "allocate"),
    (dict(CONFIG, allocate={"parts": "XY"}), "allocate.parts"),
    (dict(CONFIG, rho={"kind": "entropic", "params": {"gamma": None}}), "rho.params"),
    (dict(CONFIG, family={"kind": "sup_norm_ball", "params": {"eps": [0.3]}}), "family.params"),
    (dict(CONFIG, rho={"kind": "entropic", "params": {"gamma": float("nan")}}), "rho.params"),
    (dict(CONFIG, rho={"kind": "entropic", "params": {"gamma": "1e999"}}), "rho.params"),
    (dict(CONFIG, family={"kind": "sup_norm_ball", "params": {"eps": True}}), "family.params"),
    (dict(CONFIG, family={"kind": "p_norm_ball", "params": {"p": float("nan"), "eps": 0.3}}), "family.params"),
    (dict(CONFIG, seed=True), "seed"),
    (dict(CONFIG, seed=7.9), "seed"),
    (dict(CONFIG, seed=-5), "config seed must be a non-negative integer"),
    (dict(CONFIG, grid={"box_bound": 20.0}), "unknown key 'box_bound'; allowed keys are ['simplex_step']"),
    (dict(CONFIG, grid={"lattice_step": 0.4}), "unknown key 'lattice_step'; allowed keys are ['simplex_step']"),
], ids=["misspelt-key", "seed", "loss", "solver", "grid", "bogus-solver", "grid-step-type", "grid-step-range",
        "grid-key", "level", "allocate", "allocate-parts", "rho-param-type", "family-param-type", "rho-param-nan",
        "rho-param-inf", "family-param-bool", "family-order-nan", "seed-bool",
        "seed-fraction", "seed-negative", "grid-box-bound", "grid-lattice-step"])
def test_bad_config_exits_2(tmp_path, scenario_file, capsys, config, message):
    """A malformed config is an input error, never a traceback or a default
    (a misspelt family would report the unrobustified value)."""
    path = _write(tmp_path, "cfg.json", config)
    assert main(["robustify", "--scenario", scenario_file, "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["dual-check", "allocate"])
def test_oversized_simplex_grid_exits_2(tmp_path, scenario_file, capsys, subcommand):
    """A simplex step whose lattice is too large to build is an input error
    that names the step, not a traceback or a run that builds it."""
    path = _write(tmp_path, "cfg.json", dict(CONFIG, grid={"simplex_step": 1e-6}))
    assert main([subcommand, "--scenario", scenario_file, "--config", path]) == 2
    assert "error: grid.simplex_step: step 1e-06 gives 1000001 lattice measures" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["robustify", "properties", "acceptance"])
def test_negative_seed_flag_exits_2(scenario_file, config_file, capsys, subcommand):
    """A negative --seed is an input error that names the seed, not a
    traceback from the random generator or an error blamed on the solver."""
    assert main([subcommand, "--scenario", scenario_file, "--config", config_file, "--seed", "-1"]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({"space": {"probs": [True]}}, "space.probs"),
    (dict(SCENARIO, positions={"X": [True, -0.5]}), "positions.X"),
    (dict(SCENARIO, positions={"X": False}), "positions.X"),
], ids=["probs", "position", "position-scalar"])
def test_bool_scenario_values_exit_2(tmp_path, config_file, capsys, scenario, message):
    """JSON true/false in a scenario is an input error, not the number 1 or 0."""
    path = _write(tmp_path, "bools.json", scenario)
    assert main(["robustify", "--scenario", path, "--config", config_file]) == 2
    assert f"{message}: expected numbers, not true/false" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["dual-check", "--verifier", "robust_dual"], ["allocate"]])
def test_uncovered_measure_exits_2(tmp_path, scenario_file, capsys, argv):
    """A verifier or allocation rule that does not cover the measure is an
    input error, as an unknown solver is for robustify."""
    path = _write(tmp_path, "cfg.json", dict(CONFIG, rho={"kind": "expectation_floor", "params": {"K": 0.3}}))
    assert main(argv + ["--scenario", scenario_file, "--config", path]) == 2
    assert "expectation_floor(K=0.3)" in capsys.readouterr().err


def _exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv, message", [
    (["properties", "--property", "bogus"], "argument --property: invalid choice: 'bogus'"),
    *((["dual-check", "--verifier", v], f"error: {v} requires a family in the config")
      for v in ("robust_dual", "robust_dual_ce", "convex_cash_additive", "second_approach")),
], ids=["property", "robust_dual", "robust_dual_ce", "convex_cash_additive", "second_approach"])
def test_missing_or_unknown_input_exits_2(tmp_path, scenario_file, capsys, argv, message):
    """An unknown property, or a verifier that robustifies with no family to
    robustify over, is an input error, not a traceback."""
    path = _write(tmp_path, "cfg.json", {"rho": CONFIG["rho"]})
    assert _exit_code(argv + ["--scenario", scenario_file, "--config", path]) == 2
    assert message in capsys.readouterr().err


POWER_CE = {"rho": {"kind": "certainty_equivalent", "params": {"loss": {"kind": "power", "k": 2}}}}


@pytest.mark.parametrize("subcommand", ["eval", "acceptance", "robustify"])
def test_measure_undefined_at_a_position_exits_2(tmp_path, capsys, subcommand):
    """A measure undefined at a position is an input error that names the
    position and repeats the measure's reason."""
    scenario = _write(tmp_path, "s.json", {"space": {"probs": [0.3, 0.3, 0.4]}, "positions": {"X": [0.4, -0.2, 0.1]}})
    config = _write(tmp_path, "c.json", POWER_CE)
    assert main([subcommand, "--scenario", scenario, "--config", config]) == 2
    assert ("error: position X: certainty_equivalent(power2.0) is undefined there: power loss defined on x >= 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["robustify"], ["dual-check", "--verifier", "primal_dual"]],
                         ids=["robustify", "primal_dual"])
def test_measure_undefined_at_a_robustified_position_exits_2(tmp_path, capsys, argv):
    """Over a family, and in the primal-dual check, a measure undefined at the
    position is still the position's error, not the solver's or the verifier's."""
    scenario = _write(tmp_path, "s.json", {"space": {"probs": [0.3, 0.3, 0.4]}, "positions": {"Y": [0.4, -0.2, 0.1]}})
    config = _write(tmp_path, "c.json", dict(POWER_CE, family={"kind": "sup_norm_ball", "params": {"eps": 0.3}}))
    assert main(argv + ["--scenario", scenario, "--config", config]) == 2
    assert ("error: position Y: certainty_equivalent(power2.0) is undefined there: power loss defined on x >= 0"
            in capsys.readouterr().err)


def test_acceptance_level_of_an_unbounded_risk(tmp_path):
    """The exponential CE overflows to +inf at X = (-800, 1); acceptance
    reports the level as eval reports the value."""
    scenario = _write(tmp_path, "s.json", {"space": {"probs": [0.5, 0.5]}, "positions": {"X": [-800.0, 1.0]}})
    config = _write(tmp_path, "c.json", {"rho": {"kind": "certainty_equivalent", "params": {"loss": {"kind": "exp"}}}})
    reports = {}
    for sub in ("eval", "acceptance"):
        out = str(tmp_path / f"{sub}.json")
        with np.errstate(over="ignore"):
            assert main([sub, "--scenario", scenario, "--config", config, "--out", out]) == 0
        reports[sub] = json.loads(open(out).read())
    assert reports["acceptance"]["acceptance_level"] == reports["eval"]["values"]["X"] == "inf"
