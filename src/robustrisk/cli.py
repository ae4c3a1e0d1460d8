"""Command-line front end: scenario ingestion, config dispatch, report emission.

Subcommands: eval, robustify, dual-check, acceptance, allocate, properties.
Reports go to standard output as a small table and, with --out, to JSON or CSV
with all floats rendered at 17 significant digits for reproducible replays.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import acceptance as acc
from . import allocation as alloc
from . import duality, risk_measures, robustify, uncertainty
from .prob_core import Position, ProbSpace, ScenarioMeasure

__all__ = ["ScenarioFile", "RunConfig", "parse_scenario", "parse_config", "run", "main"]


class InputError(Exception):
    """A problem reported as ``error: ...`` with exit code 2."""


@dataclass(frozen=True)
class ScenarioFile:
    space: ProbSpace
    positions: dict


@dataclass(frozen=True)
class RunConfig:
    rho: dict
    family: Optional[dict]
    solver: dict
    grid: dict
    seed: int
    extra: dict


def _numbers(vals):
    """The JSON array vals, refused when it holds true or false, which numpy
    would read as 1 or 0."""
    if isinstance(vals, bool) or isinstance(vals, list) and any(isinstance(v, bool) for v in vals):
        raise ValueError("expected numbers, not true/false")
    return vals


def parse_scenario(path: str) -> ScenarioFile:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"scenario file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}")
    if not isinstance(raw, dict):
        raise InputError("scenario must be a JSON object")
    unknown = sorted(set(raw) - {"space", "positions"})
    if unknown:
        raise InputError(f"scenario has unknown keys {unknown}; allowed keys are ['space', 'positions']")
    for key in ("space", "positions"):
        if not isinstance(raw.get(key, {}), dict):
            raise InputError(f"scenario {key} must be an object, got {raw[key]!r}")
    if "space" not in raw or "probs" not in raw["space"]:
        raise InputError("scenario missing field: space.probs")
    try:
        space = ProbSpace(_numbers(raw["space"]["probs"]))
    except ValueError as e:
        raise InputError(f"space.probs: {e}")
    positions = {}
    for name, vals in raw.get("positions", {}).items():
        if name in positions:
            raise InputError(f"positions.{name}: duplicate name")
        try:
            positions[name] = Position(space, _numbers(vals))
        except ValueError as e:
            raise InputError(f"positions.{name}: {e}")
    return ScenarioFile(space=space, positions=positions)


def _param(p: dict, key: str, default: Optional[float] = None) -> float:
    """The number p[key], or the default where one is given; a bool is a
    TypeError, not 0 or 1."""
    v = p[key] if default is None else p.get(key, default)
    if isinstance(v, bool):
        raise TypeError(f"{key} must be a number, got {v!r}")
    return float(v)


_LOSSES = {
    "exp": lambda p: risk_measures.exponential_loss(),
    "identity": lambda p: risk_measures.identity_loss(),
    "power": lambda p: risk_measures.power_loss(_param(p, "k")),
}

_MEASURES = {
    "neg_expectation": lambda p: risk_measures.neg_expectation(),
    "expectation_floor": lambda p: risk_measures.expectation_floor(_param(p, "K")),
    "worst_case": lambda p: risk_measures.worst_case(),
    "entropic": lambda p: risk_measures.entropic(_param(p, "gamma", 1.0)),
    "expected_shortfall": lambda p: risk_measures.expected_shortfall(_param(p, "alpha")),
    "certainty_equivalent": lambda p: risk_measures.certainty_equivalent(_build_loss(p.get("loss", {"kind": "exp"}))),
    "q_entropic": lambda p: risk_measures.q_entropic(_param(p, "q"), _param(p, "beta")),
}

_FAMILIES = {
    "sup_norm_ball": lambda p: uncertainty.sup_norm_ball(_param(p, "eps", 0.0)),
    "p_norm_ball": lambda p: uncertainty.p_norm_ball(_param(p, "p", 1.0), _param(p, "eps", 0.0)),
    "wasserstein_ball": lambda p: uncertainty.wasserstein_ball(_param(p, "p", 1.0), _param(p, "eps", 0.0)),
    "level_band": lambda p: uncertainty.level_band(build_rho(p["rho1"]), _param(p, "eps", 0.0)),
    "level_upper_set": lambda p: uncertainty.level_upper_set(build_rho(p["rho1"]), _param(p, "eps", 0.0)),
}


def _build_loss(spec_: dict):
    if not isinstance(spec_, dict):
        raise InputError(f'loss spec must be an object such as {{"kind": "exp"}}, got {spec_!r}')
    kind = spec_.get("kind", "exp")
    if kind not in _LOSSES:
        raise InputError(f"unknown loss kind {kind!r}")
    return _LOSSES[kind](spec_)


def _spec_kind(spec_, what: str, table: dict) -> str:
    """The kind of a {"kind": ..., "params": {...}} spec, checked against its table."""
    if not isinstance(spec_, dict) or not isinstance(spec_.get("params", {}), dict):
        raise InputError(f'{what} spec must be an object {{"kind": ..., "params": {{...}}}}')
    extra = sorted(set(spec_) - {"kind", "params"})
    if extra:
        raise InputError(f"{what} spec has unknown keys {extra}; parameters go under params")
    kind = spec_.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise InputError(f"unknown {what} kind {kind!r}")
    return kind


def build_rho(spec_: dict) -> risk_measures.RiskFunctional:
    kind = _spec_kind(spec_, "risk measure", _MEASURES)
    try:
        return _MEASURES[kind](spec_.get("params", {}))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"rho.params: {e}")


def build_family(spec_: dict) -> uncertainty.UncertaintyFamily:
    kind = _spec_kind(spec_, "family", _FAMILIES)
    try:
        return _FAMILIES[kind](spec_.get("params", {}))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"family.params: {e}")


_CONFIG_KEYS = ("rho", "family", "solver", "grid", "seed", "verifier", "level", "allocate")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_values(raw: dict):
    """Type and range checks of the grid step, the level and the allocate spec."""
    for key, v in raw.get("grid", {}).items():
        if key != "simplex_step":
            raise InputError(f"config grid has unknown key {key!r}; allowed keys are ['simplex_step']")
        if not _number(v) or not 0 < v <= 1:
            raise InputError(f"config grid.simplex_step must be a number in (0, 1], got {v!r}")
    if "level" in raw and not _number(raw["level"]):
        raise InputError(f"config level must be a number, got {raw['level']!r}")
    spec_ = raw.get("allocate", {})
    if not isinstance(spec_, dict) or set(spec_) - {"aggregate", "parts"}:
        raise InputError(f'config allocate must be an object {{"aggregate": ..., "parts": [...]}}, got {spec_!r}')
    if not isinstance(spec_.get("aggregate", ""), str):
        raise InputError(f"config allocate.aggregate must be a position name, got {spec_['aggregate']!r}")
    parts = spec_.get("parts", [])
    if not isinstance(parts, list) or not all(isinstance(pn, str) for pn in parts):
        raise InputError(f"config allocate.parts must be a list of position names, got {parts!r}")


def parse_config(path: Optional[str]) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON in {path}: {e}")
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise InputError(f"config has unknown keys {unknown}; allowed keys are {list(_CONFIG_KEYS)}")
    for key in ("solver", "grid"):
        if not isinstance(raw.get(key, {}), dict):
            raise InputError(f"config {key} must be an object, got {raw[key]!r}")
    grid = {"simplex_step": 0.01}
    _check_values(raw)
    grid.update(raw.get("grid", {}))
    seed = raw.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InputError(f"config seed must be a non-negative integer, got {seed!r}")
    return RunConfig(
        rho=raw.get("rho", {"kind": "neg_expectation"}),
        family=raw.get("family"),
        solver=raw.get("solver", {"kind": "auto"}),
        grid=grid,
        seed=seed,
        extra={k: raw[k] for k in ("verifier", "level", "allocate") if k in raw},
    )


# ---------------------------------------------------------------------------
# report serialization


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, Position):
        return _fmt(list(map(float, v.values)))
    if isinstance(v, ScenarioMeasure):
        return _fmt({"density": list(map(float, v.density))})
    if isinstance(v, np.ndarray):
        return _fmt(list(map(float, v)))
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _fmt(val) for k, val in items) + "}"
    return json.dumps(str(v))


def dumps17(report: dict) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _fmt(report)


def _flatten(prefix: str, v, rows: list):
    if isinstance(v, dict):
        for k in sorted(v, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v[k], rows)
    elif isinstance(v, Position):
        rows.append((prefix, " ".join(format(x, ".17g") for x in v.values)))
    elif isinstance(v, (list, tuple, np.ndarray)):
        rows.append((prefix, " ".join(_scalar(x) for x in v)))
    else:
        rows.append((prefix, _scalar(v)))


def _scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, Position):
        return " ".join(format(x, ".17g") for x in v.values)
    return str(v)


def emit(report: dict, out: Optional[str], fmt: str):
    rows = []
    _flatten("", report, rows)
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"{k.ljust(width)}  {v}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            if fmt == "json":
                fh.write(dumps17(report) + "\n")
            else:
                fh.write("key,value\n")
                for k, v in rows:
                    fh.write(f"{k},{json.dumps(v)}\n")


# ---------------------------------------------------------------------------
# subcommands


def _verdict_report(v: uncertainty.PropertyVerdict) -> dict:
    rep = {"tag": v.tag, "trials": v.trials, "note": v.note}
    if v.witness is not None:
        rep["witness"] = {k: w for k, w in v.witness.items()}
    return rep


def _value_at(rho, name: str, X: Position, evaluate=None) -> float:
    """rho(X), or ``evaluate(rho, X)``; a measure undefined at X (its
    ValueError) is an input error that names the position."""
    try:
        return rho(X) if evaluate is None else evaluate(rho, X)
    except ValueError as e:
        raise InputError(f"position {name}: {rho.name} is undefined there: {e}") from None


# dual-check verifiers that robustify over the config's family
_FAMILY_VERIFIERS = ("robust_dual", "robust_dual_ce", "convex_cash_additive", "second_approach")


def run(subcommand: str, config: RunConfig, scenario: ScenarioFile, args) -> dict:
    rho = build_rho(config.rho)
    family = build_family(config.family) if config.family else None
    seed = args.seed if args.seed is not None else config.seed
    if seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {seed}")
    report = {"subcommand": subcommand, "seed": seed}

    if subcommand == "eval":
        report["values"] = {name: _value_at(rho, name, X) for name, X in scenario.positions.items()}
        return report

    if subcommand == "robustify":
        if family is None:
            report["values"] = {name: _value_at(rho, name, X) for name, X in scenario.positions.items()}
            return report
        vals = {}
        for name, X in scenario.positions.items():
            try:
                rv = robustify.robust_value(rho, family, X, solver=config.solver.get("kind", "auto"), seed=seed)
            except ValueError as e:
                _value_at(rho, name, X)  # a measure undefined at X is the position's error
                raise InputError(f"solver: {e}")
            vals[name] = {
                "value": rv.value,
                "witness": rv.witness,
                "solver": rv.solver,
                "guarantee": rv.guarantee,
            }
        report["values"] = vals
        return report

    if subcommand == "dual-check":
        name, X = _pick_position(scenario, args)
        grid = _simplex_grid(scenario, config, seed)
        verifier = args.verifier or config.extra.get("verifier", "primal_dual")
        if verifier in _FAMILY_VERIFIERS and family is None:
            raise InputError(f"{verifier} requires a family in the config")
        try:
            if verifier == "primal_dual":
                if rho.flags.cash_additive:
                    surface = duality.penalty_type(rho, "cash_additive")
                else:
                    surface = duality.penalty_type(rho, "brute_force", space=scenario.space, anchors=(X,))
                rep = duality.verify_primal_dual(rho, X, grid, surface)
            elif verifier == "robust_dual":
                rep = duality.verify_robust_dual(rho, family, X, grid, seed=seed)
            elif verifier == "robust_dual_ce":
                loss = rho.params.get("loss") or risk_measures.exponential_loss()
                rep = duality.verify_robust_dual(rho, family, X, grid, loss=loss, seed=seed)
            elif verifier == "convex_cash_additive":
                rep = duality.verify_convex_cash_additive_dual(rho, family, X, grid)
            elif verifier == "second_approach":
                rep = duality.verify_second_approach_dual(rho, family, X, grid, seed=seed)
            else:
                raise InputError(f"unknown verifier {verifier!r}")
        except ValueError as e:  # a measure or family the verifier does not cover
            _value_at(rho, name, X)  # a measure undefined at X is the position's error
            raise InputError(f"{verifier}: {e}")
        report["position"] = name
        report["verifier"] = verifier
        report["result"] = rep
        return report

    if subcommand == "acceptance":
        name, X = _pick_position(scenario, args)
        m = args.level if args.level is not None else config.extra.get("level", 0.0)
        if not math.isfinite(m):
            raise InputError(f"--level must be a finite number, got {m!r}")
        report["position"] = name
        report["level"] = m
        report["acceptance_level"] = _value_at(rho, name, X, acc.acceptance_level)
        report["acceptable"] = acc.is_acceptable(rho, X, m)
        if family is not None:
            report["robust"] = acc.robust_acceptance_check(rho, family, X, m, seed=seed)
            # the robust value again, under the key earlier reports used
            report["robust_level_by_sets"] = report["robust"]["robust_value"]
        return report

    if subcommand == "allocate":
        spec_ = config.extra.get("allocate", {})
        agg_name = spec_.get("aggregate", "Y")
        part_names = spec_.get("parts", [])
        if agg_name not in scenario.positions:
            raise InputError(f"allocate.aggregate: unknown position {agg_name!r}")
        Y = scenario.positions[agg_name]
        grid = _simplex_grid(scenario, config, seed)
        try:
            rule = alloc.gradient_car(rho, grid)
        except ValueError as e:
            raise InputError(f"allocate: {e}")
        report["aggregate"] = agg_name
        report["rho"] = rho(Y)
        if family is not None:
            report["robust_car_self"] = alloc.robust_car(rule, family, Y, Y, seed=seed)
            parts = []
            for pn in part_names:
                if pn not in scenario.positions:
                    raise InputError(f"allocate.parts: unknown position {pn!r}")
                parts.append(scenario.positions[pn])
            if parts:
                report["parts"] = {
                    pn: alloc.robust_car(rule, family, scenario.positions[pn], Y, seed=seed)
                    for pn in part_names
                }
                verdict = alloc.check_subadditive_allocation(rule, family, Y, parts, seed=seed)
                report["sub_allocation"] = _verdict_report(verdict)
        return report

    if subcommand == "properties":
        if family is None:
            raise InputError("properties subcommand requires a family in the config")
        props = [args.property] if args.property else list(uncertainty.FAMILY_PROPERTIES)
        trials = 200 if args.trials is None else args.trials
        if trials < 1:
            raise InputError(f"--trials must be at least 1, got {trials}")
        out = {}
        found_counterexample = False
        for prop in props:
            v = uncertainty.check_property(family, prop, scenario.space, trials=trials, seed=seed)
            if v.is_counterexample:
                found_counterexample = True
                if not uncertainty.replay_witness(family, prop, v.witness):
                    raise InputError(f"{prop}: the counterexample found does not replay")
            out[prop] = _verdict_report(v)
        report["properties"] = out
        report["counterexample_found"] = found_counterexample
        return report

    raise InputError(f"unknown subcommand {subcommand!r}")


def _simplex_grid(scenario: ScenarioFile, config: RunConfig, seed: int) -> duality.SimplexGrid:
    try:
        return duality.simplex_grid(scenario.space, config.grid["simplex_step"], seed=seed)
    except ValueError as e:  # a lattice too large to build
        raise InputError(f"grid.simplex_step: {e}")


def _pick_position(scenario: ScenarioFile, args):
    if not scenario.positions:
        raise InputError("scenario contains no positions")
    if args.position:
        if args.position not in scenario.positions:
            raise InputError(f"unknown position {args.position!r}")
        return args.position, scenario.positions[args.position]
    name = "X" if "X" in scenario.positions else next(iter(scenario.positions))
    return name, scenario.positions[name]


def _joined_level(argv: list) -> list:
    """argv with each --level joined to the token after it as --level=<value>:
    argparse takes a value such as -5.2e-05 or -inf for an option, as it
    reads only plain negative decimals as numbers."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--level" else None
        out.append(tok if value is None else f"--level={value}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustrisk",
        description="Worst-case risk over uncertainty sets: evaluation, duality and property checks.",
    )
    parser.add_argument("subcommand", choices=["eval", "robustify", "dual-check", "acceptance", "allocate", "properties"])
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    parser.add_argument("--config", default=None, help="path to the run configuration JSON file")
    parser.add_argument("--out", default=None, help="write the machine-readable report here")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--strict", action="store_true", help="exit 1 when a property counterexample is found")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--position", default=None, help="position name for single-position subcommands")
    parser.add_argument("--level", type=float, default=None, help="acceptance target level m")
    parser.add_argument("--verifier", default=None, help="dual-check verifier selection")
    parser.add_argument("--property", default=None, choices=uncertainty.FAMILY_PROPERTIES,
                        help="single property for the properties subcommand")
    args = parser.parse_args(_joined_level(sys.argv[1:] if argv is None else list(argv)))

    try:
        scenario = parse_scenario(args.scenario)
        config = parse_config(args.config)
        report = run(args.subcommand, config, scenario, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit(report, args.out, args.format)
    if args.strict and report.get("counterexample_found"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
