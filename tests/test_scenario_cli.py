"""Scenario parsing, the run drivers, and command-line exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erlang_edm as edm
from erlang_edm import cli, runner
from erlang_edm.errors import ScenarioError, StepFailure

RPS_DOC = {
    "game": {"matrix": [[0.0, -2.0, 3.0], [3.0, 0.0, -2.0], [-2.0, 3.0, 0.0]]},
    "protocol": {"name": "smith"},
    "params": {"n": 3, "m": 4, "lambda": 5.8},
    "initial": {
        "extended": [
            [0.0, 0.0, 0.0, 0.2],
            [0.2, 0.0, 0.0, 0.0],
            [0.6, 0.0, 0.0, 0.0],
        ]
    },
    "run": {"horizon": 2.0, "solver": "rk45", "sample_dt": 0.1},
}


def small_doc(**extra):
    doc = json.loads(json.dumps(RPS_DOC))
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing ---------------------------------------------------------------


def test_bundled_scenarios_round_trip():
    for name in edm.bundled_scenario_names():
        sc = edm.bundled_scenario(name)
        again = edm.scenario_from_dict(sc.to_dict())
        assert again == sc
        third = edm.scenario_from_dict(again.to_dict())
        assert third == again


def test_bundled_names():
    assert edm.bundled_scenario_names() == ["congestion_sec6_1", "rps_sec6_2"]
    with pytest.raises(ScenarioError):
        edm.bundled_scenario("missing")


def test_scenario_builders_round_trip():
    sc = edm.scenario_from_dict(RPS_DOC)
    game = sc.build_game()
    assert game.linear and game.n == 3
    proto = sc.build_protocol()
    assert proto.rate_budget == 5.8
    params = sc.build_params()
    assert (params.n, params.m, params.lam) == (3, 4, 5.8)
    grid = sc.initial_grid()
    assert grid[0, 3] == 0.2 and grid[2, 0] == 0.6


def test_initial_aggregate_extensions():
    doc = small_doc(initial={"aggregate": [0.5, 0.25, 0.25], "extension": "uniform"})
    grid = edm.scenario_from_dict(doc).initial_grid()
    assert np.allclose(grid, np.array([0.5, 0.25, 0.25])[:, None] / 4)

    doc = small_doc(initial={"aggregate": [0.5, 0.25, 0.25], "extension": "stage_one"})
    grid = edm.scenario_from_dict(doc).initial_grid()
    assert np.allclose(grid[:, 0], [0.5, 0.25, 0.25])
    assert np.all(grid[:, 1:] == 0.0)

    # extension defaults to uniform
    doc = small_doc(initial={"aggregate": [0.5, 0.25, 0.25]})
    assert edm.scenario_from_dict(doc).initial["extension"] == "uniform"


def test_run_block_defaults():
    doc = small_doc(run={})
    sc = edm.scenario_from_dict(doc)
    assert sc.run == {"horizon": 50.0, "solver": "rk45", "sample_dt": 0.05}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("game"),
        lambda d: d.pop("params"),
        lambda d: d["game"].update(congestion={"link_costs": [1], "routes": [[1]]}),
        lambda d: d["game"].__setitem__("matrix", [[0.0, 1.0]]),
        lambda d: d["params"].__setitem__("lambda", 0.0),
        lambda d: d["params"].__setitem__("m", 0),
        lambda d: d["protocol"].__setitem__("name", "brown"),
        lambda d: d["initial"].__setitem__("extended", [[1.0] * 4] * 3),
        lambda d: d["initial"].clear(),
        lambda d: d["run"].__setitem__("solver", "euler"),
        lambda d: d["run"].__setitem__("horizon", -2.0),
        lambda d: d.__setitem__("stochastic", {"N": 0, "seeds": [1]}),
        lambda d: d.__setitem__("stochastic", {"N": 10, "seeds": []}),
        lambda d: d.__setitem__("analysis", {"alpha": -1.0}),
        lambda d: d.__setitem__("analysis", {"alpha": "half"}),
    ],
)
def test_scenario_validation_rejects(mutate):
    doc = small_doc()
    mutate(doc)
    with pytest.raises(ScenarioError):
        edm.scenario_from_dict(doc)


def test_congestion_route_validation():
    doc = small_doc(
        game={"congestion": {"link_costs": [1.0, 2.0], "routes": [[1], [2], [3]]}}
    )
    with pytest.raises(ScenarioError):
        edm.scenario_from_dict(doc)


def test_fractional_count_rejected():
    # used to be truncated to n = 3
    doc = small_doc()
    doc["params"]["n"] = 3.7
    with pytest.raises(ScenarioError, match="params.n"):
        edm.scenario_from_dict(doc)


def test_record_events_must_be_boolean():
    # used to be read as true, since bool("false") is True
    doc = small_doc(stochastic={"N": 50, "seeds": [0], "record_events": "false"})
    with pytest.raises(ScenarioError, match="record_events"):
        edm.scenario_from_dict(doc)


def test_duplicate_seeds_rejected():
    # both runs of seed 3 would write agents_seed3.csv
    doc = small_doc(stochastic={"N": 50, "seeds": [3, 3]})
    with pytest.raises(ScenarioError, match="distinct"):
        edm.scenario_from_dict(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

VALID_DOCS = [
    small_doc(
        stochastic={"N": 50, "seeds": [0, 1], "horizon": 1.0, "record_events": True},
        analysis={"alpha": "auto", "gamma_lower": 1.0, "c": 4.0},
    ),
    small_doc(initial={"aggregate": [0.5, 0.25, 0.25], "extension": "stage_one"}),
    edm.bundled_scenario("congestion_sec6_1").to_dict(),
]


def _paths(value, prefix=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


@st.composite
def edited_docs(draw):
    """A valid document with one entry replaced by any JSON value, or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, edited_docs()))
def test_parsing_raises_only_scenario_error(doc):
    try:
        sc = edm.scenario_from_dict(doc)
    except ScenarioError:
        return
    assert edm.scenario_from_dict(sc.to_dict()) == sc


# -- runners ---------------------------------------------------------------


def test_run_ode_artifacts(tmp_path):
    sc = edm.scenario_from_dict(RPS_DOC)
    summary = runner.run_ode(sc, str(tmp_path))
    assert (tmp_path / "ode_trajectory.csv").exists()
    written = json.loads((tmp_path / "ode_summary.json").read_text())
    assert written == summary
    assert summary["t_final"] == pytest.approx(2.0)
    assert summary["is_potential"] is False
    with open(tmp_path / "ode_trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["t", "x_1_1"]
    assert len(rows) == 22  # 21 samples on [0, 2] at dt 0.1, plus header
    assert len(rows[1]) == 1 + 12 + 3 + 3


def test_run_agents_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("EDM_THREADS", "1")
    doc = small_doc(stochastic={"N": 200, "seeds": [0, 1], "record_events": True})
    sc = edm.scenario_from_dict(doc)
    summary = runner.run_agents(sc, str(tmp_path))
    assert summary["workers"] == 1
    assert [e["seed"] for e in summary["per_seed"]] == [0, 1]
    for seed in (0, 1):
        assert (tmp_path / f"agents_seed{seed}.csv").exists()
        assert (tmp_path / f"agents_events_seed{seed}.csv").exists()
    assert (tmp_path / "agents_reference.csv").exists()
    assert summary["max_sup_deviation"] < 0.25


def test_run_agents_parallel_matches_serial(tmp_path, monkeypatch):
    doc = small_doc(stochastic={"N": 150, "seeds": [3, 4]})
    sc = edm.scenario_from_dict(doc)
    monkeypatch.setenv("EDM_THREADS", "1")
    serial = runner.run_agents(sc, str(tmp_path / "serial"))
    monkeypatch.setenv("EDM_THREADS", "2")
    parallel = runner.run_agents(sc, str(tmp_path / "parallel"))
    assert parallel["workers"] == 2
    for a, b in zip(serial["per_seed"], parallel["per_seed"]):
        assert a["seed"] == b["seed"]
        assert a["sup_deviation"] == b["sup_deviation"]
    for seed in (3, 4):
        one = (tmp_path / "serial" / f"agents_seed{seed}.csv").read_bytes()
        two = (tmp_path / "parallel" / f"agents_seed{seed}.csv").read_bytes()
        assert one == two


def test_run_agents_requires_stochastic(tmp_path):
    sc = edm.scenario_from_dict(RPS_DOC)
    with pytest.raises(ScenarioError):
        runner.run_agents(sc, str(tmp_path))


def test_edm_threads_validation(tmp_path, monkeypatch):
    doc = small_doc(stochastic={"N": 50, "seeds": [0]})
    sc = edm.scenario_from_dict(doc)
    monkeypatch.setenv("EDM_THREADS", "zero")
    with pytest.raises(ScenarioError):
        runner.run_agents(sc, str(tmp_path))
    monkeypatch.setenv("EDM_THREADS", "0")
    with pytest.raises(ScenarioError):
        runner.run_agents(sc, str(tmp_path))


def test_run_stability_artifact(tmp_path):
    doc = small_doc(
        analysis={"alpha": "auto", "gamma_lower": 1.0, "gamma_upper": 1.0, "c": 4.0}
    )
    payload = runner.run_stability(edm.scenario_from_dict(doc), str(tmp_path))
    disk = json.loads((tmp_path / "stability_report.json").read_text())
    assert disk == payload
    assert payload["certified"] is True
    assert payload["lambda"] == 5.8


def test_run_lyapunov_artifact(tmp_path):
    doc = small_doc(
        analysis={"alpha": "auto", "gamma_lower": 1.0, "gamma_upper": 1.0, "c": 4.0}
    )
    summary = runner.run_lyapunov(edm.scenario_from_dict(doc), str(tmp_path))
    assert summary["alpha"] == pytest.approx(2.890173410404634, abs=1e-12)
    lines = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert lines[0] == "t,L,P,Q,dL_dt_fd"
    assert len(lines) == summary["n_samples"] + 1
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert first[1] >= 0.0  # P at the initial sample


def test_run_lyapunov_explicit_alpha(tmp_path):
    doc = small_doc(analysis={"alpha": 1.25})
    summary = runner.run_lyapunov(edm.scenario_from_dict(doc), str(tmp_path))
    assert summary["alpha"] == 1.25


# -- command line ----------------------------------------------------------


def test_cli_ode_end_to_end(tmp_path, capsys):
    path = write_doc(tmp_path, small_doc())
    code = cli.main(["ode", path, "-o", str(tmp_path / "out")])
    assert code == 0
    assert "ode:" in capsys.readouterr().out
    assert (tmp_path / "out" / "ode_summary.json").exists()


def test_cli_accepts_bundled_name(tmp_path):
    code = cli.main(["stability", "rps_sec6_2", "-o", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "stability_report.json").read_text())
    assert report["certified"] is True
    assert report["lambda_lower"] == pytest.approx(5.796550698475776, abs=1e-9)


def test_cli_stability_flags_slow_revision(tmp_path):
    doc = small_doc()
    doc["params"]["lambda"] = 5.0
    doc["analysis"] = {"gamma_lower": 1.0, "gamma_upper": 1.0, "c": 4.0}
    path = write_doc(tmp_path, doc)
    code = cli.main(["stability", path, "-o", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
    assert report["certified"] is False


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # 2: unknown bundled name
    assert cli.main(["ode", "nope", "-o", str(tmp_path)]) == 2
    # 2: unreadable document
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["ode", str(bad), "-o", str(tmp_path)]) == 2
    # 2: agents without a stochastic block
    path = write_doc(tmp_path, small_doc())
    assert cli.main(["agents", path, "-o", str(tmp_path)]) == 2
    # 3: rate budget exhausted
    steep = small_doc(
        game={"matrix": [[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    path3 = write_doc(tmp_path, steep, "steep.json")
    assert cli.main(["ode", path3, "-o", str(tmp_path)]) == 3
    # 4: solver failure (forced)
    def boom(scenario, outdir):
        raise StepFailure("forced")

    monkeypatch.setattr(cli, "run_ode", boom)
    assert cli.main(["ode", path, "-o", str(tmp_path)]) == 4
    monkeypatch.undo()
    # 5: stability of a non-contractive game without overrides
    expanding = small_doc(game={"matrix": (np.eye(3)).tolist()})
    path5 = write_doc(tmp_path, expanding, "expanding.json")
    assert cli.main(["stability", path5, "-o", str(tmp_path)]) == 5
    capsys.readouterr()


def test_cli_worker_error_exit_code(tmp_path, capsys, monkeypatch):
    # the mean field sits still at the centre, but rounding N = 3 agents puts
    # all of them on strategy 1; at that vertex strategy 3's Smith outflow is
    # 7 > lambda = 5, so each worker process raises NegativeStayRate
    doc = small_doc(
        initial={"aggregate": [1 / 3, 1 / 3, 1 / 3]},
        stochastic={"N": 3, "seeds": [1, 2]},
    )
    doc["params"]["lambda"] = 5.0
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("EDM_THREADS", "2")
    assert cli.main(["agents", path, "-o", str(tmp_path / "out")]) == 3
    assert "stay rate" in capsys.readouterr().err


def test_cli_lyapunov_explicit_alpha_needs_no_contractivity(tmp_path, capsys):
    # the identity game is a coordination game, not contractive (gamma_lower
    # = -1): an explicit alpha still gives L, P and Q, "auto" has no bound
    doc = small_doc(
        game={"matrix": np.eye(3).tolist()},
        initial={"aggregate": [0.5, 0.3, 0.2]},
        analysis={"alpha": 1.0},
    )
    doc["params"] = {"n": 3, "m": 3, "lambda": 5.0}
    path = write_doc(tmp_path, doc)
    assert cli.main(["lyapunov", path, "-o", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "lyapunov_summary.json").read_text())
    assert summary["alpha"] == 1.0
    assert summary["alpha_max"] is None
    assert summary["gamma_lower"] < 0.0
    doc["analysis"] = {"alpha": "auto"}
    path = write_doc(tmp_path, doc, "auto.json")
    assert cli.main(["lyapunov", path, "-o", str(tmp_path / "auto")]) == 5
    assert "gamma_lower" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert edm.__version__ in capsys.readouterr().out
