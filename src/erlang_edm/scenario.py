"""Scenario files: one JSON document describing a complete run.

A scenario pins the game, protocol, Erlang parameters, initial state, and
run options (plus optional stochastic-replication and analysis blocks), so
runs are reproducible from a single artifact.  Parsing is strict: unknown
games/protocols, inconsistent dimensions, or invalid states fail fast with
ScenarioError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dynamics import ErlangParams, SolverOptions
from .errors import ScenarioError
from .games import Game, congestion_game, linear_game
from .protocols import RevisionProtocol, smith_protocol
from .states import extended_state, population_state, uniform_extension

_SOLVERS = ("rk45", "rk4")
_EXTENSIONS = ("uniform", "stage_one")
_OVERRIDE_KEYS = ("gamma_lower", "gamma_upper", "c")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario; fields mirror the JSON document."""

    game: dict
    protocol: dict
    params: dict
    initial: dict
    run: dict
    stochastic: dict | None = None
    analysis: dict | None = None

    # -- builders ---------------------------------------------------------

    def build_game(self) -> Game:
        if "matrix" in self.game:
            return linear_game(self.game["matrix"])
        spec = self.game["congestion"]
        return congestion_game(spec["link_costs"], spec["routes"])

    def build_protocol(self) -> RevisionProtocol:
        return smith_protocol(self.params["n"], self.params["lambda"])

    def build_params(self) -> ErlangParams:
        return ErlangParams(
            n=self.params["n"], m=self.params["m"], lam=self.params["lambda"]
        )

    def initial_grid(self) -> np.ndarray:
        n, m = self.params["n"], self.params["m"]
        if "extended" in self.initial:
            return extended_state(self.initial["extended"]).grid
        xbar = population_state(self.initial["aggregate"])
        if self.initial["extension"] == "uniform":
            return uniform_extension(xbar, m).grid
        grid = np.zeros((n, m))
        grid[:, 0] = xbar.entries
        return grid

    def solver_options(self) -> SolverOptions:
        return SolverOptions(method=self.run["solver"])

    def overrides(self) -> dict:
        if not self.analysis:
            return {}
        return {k: self.analysis[k] for k in _OVERRIDE_KEYS if k in self.analysis}

    def alpha_setting(self):
        if not self.analysis:
            return "auto"
        return self.analysis.get("alpha", "auto")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "game": self.game,
            "protocol": self.protocol,
            "params": self.params,
            "initial": self.initial,
            "run": self.run,
        }
        if self.stochastic is not None:
            out["stochastic"] = self.stochastic
        if self.analysis is not None:
            out["analysis"] = self.analysis
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _as_float(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ScenarioError(f"{name} must be finite") from None
    _require(np.isfinite(v), f"{name} must be finite")
    return v


def _as_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def _as_list(value, name: str, length: int | None = None) -> list:
    _require(isinstance(value, list), f"{name} must be a list")
    _require(length is None or len(value) == length,
             f"{name} must have length {length}")
    return value


def _as_matrix(value, rows: int, cols: int, name: str) -> list[list[float]]:
    shape = f"{name} must be {rows}x{cols}"
    return [[_as_float(v, name) for v in _as_list(row, shape, cols)]
            for row in _as_list(value, shape, rows)]


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document; raises ScenarioError on any defect."""
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    for key in ("game", "protocol", "params", "initial", "run"):
        _require(key in doc, f"scenario is missing the {key!r} block")

    params = doc["params"]
    _require(isinstance(params, dict), "params must be an object")
    for key in ("n", "m", "lambda"):
        _require(key in params, f"params is missing {key!r}")
    n, m = _as_int(params["n"], "params.n"), _as_int(params["m"], "params.m")
    lam = _as_float(params["lambda"], "params.lambda")
    _require(n >= 1, "params.n must be >= 1")
    _require(m >= 1, "params.m must be >= 1")
    _require(lam > 0, "params.lambda must be positive")
    params_n = {"n": n, "m": m, "lambda": lam}

    game = doc["game"]
    _require(isinstance(game, dict), "game must be an object")
    _require(
        ("matrix" in game) != ("congestion" in game),
        "game needs exactly one of 'matrix' or 'congestion'",
    )
    if "matrix" in game:
        game_n = {"matrix": _as_matrix(game["matrix"], n, n, "game.matrix")}
    else:
        spec = game["congestion"]
        _require(isinstance(spec, dict), "game.congestion must be an object")
        for key in ("link_costs", "routes"):
            _require(key in spec, f"game.congestion is missing {key!r}")
        costs = [_as_float(v, "link cost")
                 for v in _as_list(spec["link_costs"], "game.congestion.link_costs")]
        _require(len(costs) > 0 and all(v > 0 for v in costs),
                 "link costs must be positive")
        routes = [[_as_int(l, "route link") for l in _as_list(r, "route")]
                  for r in _as_list(spec["routes"], "game.congestion.routes", n)]
        for r in routes:
            _require(len(r) > 0, "every route must contain at least one link")
            _require(all(1 <= l <= len(costs) for l in r),
                     "route references an unknown link")
        game_n = {"congestion": {"link_costs": costs, "routes": routes}}

    protocol = doc["protocol"]
    _require(isinstance(protocol, dict) and "name" in protocol,
             "protocol must be an object with a 'name'")
    _require(protocol["name"] == "smith",
             f"unknown protocol {protocol['name']!r}; built-ins: smith")
    protocol_n = {"name": "smith"}

    initial = doc["initial"]
    _require(isinstance(initial, dict), "initial must be an object")
    if "extended" in initial:
        grid = _as_matrix(initial["extended"], n, m, "initial.extended")
        try:
            extended_state(grid)
        except ValueError as exc:
            raise ScenarioError(f"initial state invalid: {exc}") from None
        initial_n = {"extended": grid}
    else:
        _require("aggregate" in initial,
                 "initial needs 'extended' or 'aggregate'")
        vec = [_as_float(v, "initial.aggregate")
               for v in _as_list(initial["aggregate"], "initial.aggregate", n)]
        try:
            population_state(vec)
        except ValueError as exc:
            raise ScenarioError(f"initial state invalid: {exc}") from None
        ext = initial.get("extension", "uniform")
        _require(ext in _EXTENSIONS, f"initial.extension must be one of {_EXTENSIONS}")
        initial_n = {"aggregate": vec, "extension": ext}

    run = doc["run"]
    _require(isinstance(run, dict), "run must be an object")
    horizon = _as_float(run.get("horizon", 50.0), "run.horizon")
    _require(horizon > 0, "run.horizon must be positive")
    solver = run.get("solver", "rk45")
    _require(solver in _SOLVERS, f"run.solver must be one of {_SOLVERS}")
    sample_dt = _as_float(run.get("sample_dt", 0.05), "run.sample_dt")
    _require(sample_dt > 0, "run.sample_dt must be positive")
    run_n = {"horizon": horizon, "solver": solver, "sample_dt": sample_dt}

    stochastic_n = None
    if "stochastic" in doc and doc["stochastic"] is not None:
        st = doc["stochastic"]
        _require(isinstance(st, dict), "stochastic must be an object")
        for key in ("N", "seeds"):
            _require(key in st, f"stochastic is missing {key!r}")
        N = _as_int(st["N"], "stochastic.N")
        _require(N >= 1, "stochastic.N must be >= 1")
        seeds = [_as_int(s, "stochastic seed")
                 for s in _as_list(st["seeds"], "stochastic.seeds")]
        _require(len(seeds) >= 1, "stochastic.seeds must be nonempty")
        _require(min(seeds) >= 0, "stochastic seeds must be nonnegative")
        # each seed names its own output files
        _require(len(set(seeds)) == len(seeds), "stochastic.seeds must be distinct")
        stochastic_n = {"N": N, "seeds": seeds}
        if "horizon" in st:
            sh = _as_float(st["horizon"], "stochastic.horizon")
            _require(sh > 0, "stochastic.horizon must be positive")
            stochastic_n["horizon"] = sh
        if "record_events" in st:
            _require(isinstance(st["record_events"], bool),
                     "stochastic.record_events must be true or false")
            stochastic_n["record_events"] = st["record_events"]

    analysis_n = None
    if "analysis" in doc and doc["analysis"] is not None:
        an = doc["analysis"]
        _require(isinstance(an, dict), "analysis must be an object")
        analysis_n = {}
        alpha = an.get("alpha", "auto")
        if alpha != "auto":
            alpha = _as_float(alpha, "analysis.alpha")
            _require(alpha > 0, "analysis.alpha must be positive or 'auto'")
        analysis_n["alpha"] = alpha
        for key in _OVERRIDE_KEYS:
            if key in an:
                analysis_n[key] = _as_float(an[key], f"analysis.{key}")

    return Scenario(
        game=game_n,
        protocol=protocol_n,
        params=params_n,
        initial=initial_n,
        run=run_n,
        stochastic=stochastic_n,
        analysis=analysis_n,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(doc)


def bundled_scenario_names() -> list[str]:
    base = resources.files("erlang_edm") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    base = resources.files("erlang_edm") / "scenarios"
    candidate = base / f"{name}.json"
    if not candidate.is_file():
        raise ScenarioError(
            f"unknown scenario {name!r}; bundled: {', '.join(bundled_scenario_names())}"
        )
    return scenario_from_dict(json.loads(candidate.read_text()))
