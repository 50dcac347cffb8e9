"""The benchmark's checks accept the program's outputs and reject corrupted
copies of them.

    python3 -m pytest bench/test_checks.py -q

Outputs come from running erlang_edm.cli.main on small inputs; each test
then damages one output the way a fault would (a trajectory shifted by a
sample, a wrong constant, a truncated event log) and expects the check
that covers it to fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from erlang_edm.cli import main as cli_main  # noqa: E402


def run_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(argv)) == 0


def scenario_file(tmp: Path, name: str, doc: dict) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def rewrite_rows(path: Path, edit) -> None:
    """Apply edit(data) to the numeric rows of a CSV, keeping its header."""
    header = path.read_text().splitlines()[0]
    data = edit(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


@pytest.fixture(scope="module")
def rps_meanfield(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("meanfield")
    doc = workloads.bundled_doc(ROOT, "rps_sec6_2")
    doc["run"]["horizon"] = 10.0
    path = scenario_file(tmp, "rps", doc)
    run_cli("ode", path, "-o", str(tmp / "ode"))
    run_cli("lyapunov", path, "-o", str(tmp / "lyapunov"))
    return tmp, doc, checks.reference_solution(doc, 10.0)


def test_trajectory_check_catches_a_shifted_trajectory(rps_meanfield):
    tmp, doc, sol = rps_meanfield
    csv = tmp / "ode" / "ode_trajectory.csv"
    assert checks.check_trajectory(csv, doc, sol, checks.RK45_TOL) == []
    original = csv.read_text()
    try:
        def shift(data):
            data[:-1, 1:] = data[1:, 1:]  # every state one sample early
            return data

        rewrite_rows(csv, shift)
        fails = checks.check_trajectory(csv, doc, sol, checks.RK45_TOL)
        assert any("DOP853" in f for f in fails)
    finally:
        csv.write_text(original)


def test_trajectory_check_catches_wrong_payoffs(rps_meanfield):
    tmp, doc, sol = rps_meanfield
    csv = tmp / "ode" / "ode_trajectory.csv"
    original = csv.read_text()
    try:
        def bump(data):
            data[5, -1] += 1e-6
            return data

        rewrite_rows(csv, bump)
        assert any("payoff" in f for f in checks.check_trajectory(csv, doc, sol, checks.RK45_TOL))
    finally:
        csv.write_text(original)


def test_lyapunov_check_catches_a_wrong_column(rps_meanfield):
    tmp, doc, _ = rps_meanfield
    gamma = doc["analysis"]["gamma_lower"]
    csv = tmp / "lyapunov" / "lyapunov.csv"
    assert checks.check_lyapunov(tmp / "lyapunov", tmp / "ode", doc, gamma) == []
    original = csv.read_text()
    for column, word in ((1, "rebuilt"), (3, "dL_dt_fd")):
        try:
            def scale(data):
                data[:, column] *= 1.001
                return data

            rewrite_rows(csv, scale)
            fails = checks.check_lyapunov(tmp / "lyapunov", tmp / "ode", doc, gamma)
            assert any(word in f for f in fails), fails
        finally:
            csv.write_text(original)


def test_final_aggregate_checks_use_the_equilibria(tmp_path):
    doc = workloads.bundled_doc(ROOT, "congestion_sec6_1")
    W = checks.payoff_matrix(doc)
    nash = checks.congestion_nash(W)
    assert np.allclose(nash, [0.349315, 0.513699, 0.136986], atol=1e-6)
    p = W @ nash
    assert np.ptp(p) < 1e-12 and nash.min() > 0


@pytest.fixture(scope="module")
def small_agents(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("agents")
    doc = workloads.bundled_doc(ROOT, "rps_sec6_2")
    doc["stochastic"] = {"N": 2000, "seeds": [7], "horizon": 2.0, "record_events": True}
    run_cli("agents", scenario_file(tmp, "rps", doc), "-o", str(tmp / "out"))
    return tmp / "out", doc, checks.reference_solution(doc, 2.0)


def test_agents_check_catches_a_shifted_run(small_agents):
    out, doc, sol = small_agents
    fails, digests = checks.check_agents(out, doc, sol)
    assert fails == [] and set(digests) == {7}
    csv = out / "agents_seed7.csv"
    original = csv.read_text()
    try:
        def shift(data):
            data[:-10, 1:] = data[10:, 1:]
            return data

        rewrite_rows(csv, shift)
        assert checks.check_agents(out, doc, sol)[0]
    finally:
        csv.write_text(original)


def test_event_log_check_catches_truncation_and_a_wrong_destination(small_agents):
    out, doc, _ = small_agents
    log = out / "agents_events_seed7.csv"
    fails, shares = checks.check_event_log(out, doc, 7)
    assert fails == []
    assert 0.0 < shares["switches_per_revision"] < 1.0
    assert abs(shares["revisions_per_event"] - 0.25) < 0.05  # one stage in m = 4
    original = log.read_text()
    lines = original.splitlines(keepends=True)
    try:
        log.write_text("".join(lines[: int(0.9 * len(lines))]))
        fails = checks.check_event_log(out, doc, 7)[0]
        assert any("events, expected" in f for f in fails)
        assert any("replay" in f for f in fails)
        k = next(n for n, line in enumerate(lines) if ",revision," in line)
        t, kind, i, l, j = lines[k].strip().split(",")
        wrong = str(int(j) % 3 + 1)
        log.write_text("".join(lines[:k] + [f"{t},{kind},{i},{l},{wrong}\n"] + lines[k + 1:]))
        assert any("replay" in f for f in checks.check_event_log(out, doc, 7)[0])
    finally:
        log.write_text(original)


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("certificate")
    rng = np.random.default_rng(3)
    docs = {"rps_sec6_2": workloads.bundled_doc(ROOT, "rps_sec6_2"),
            "congestion_sec6_1": workloads.bundled_doc(ROOT, "congestion_sec6_1"),
            "game": {"game": {"matrix": workloads.contractive_game(rng, 3)},
                     "protocol": {"name": "smith"},
                     "params": {"n": 3, "m": 6, "lambda": 9.0},
                     "initial": {"aggregate": [1 / 3] * 3},
                     "run": {}}}
    for name, doc in docs.items():
        run_cli("stability", scenario_file(tmp, name, doc), "-o", str(tmp / name))
    return tmp, docs


def test_stability_check_accepts_the_reports(certificates):
    tmp, docs = certificates
    cache: dict = {}
    for name, doc in docs.items():
        assert checks.check_stability(tmp / name / "stability_report.json", doc, cache) == []
    assert checks.check_paper_threshold(tmp / "rps_sec6_2" / "stability_report.json") == []


@pytest.mark.parametrize("key, delta", [("sigma_bar", 1e-3), ("c", 1e-6),
                                        ("lambda_lower", 1e-4), ("certified", None)])
def test_stability_check_catches_a_wrong_constant(certificates, key, delta):
    tmp, docs = certificates
    for name, doc in docs.items():
        path = tmp / name / "stability_report.json"
        original = path.read_text()
        rep = json.loads(original)
        rep[key] = (not rep[key]) if delta is None else rep[key] + delta
        try:
            path.write_text(json.dumps(rep))
            assert checks.check_stability(path, doc, {}), (name, key)
        finally:
            path.write_text(original)


def test_sigma_sweep_matches_the_closed_form_where_it_is_the_supremum():
    for m in (2, 3):
        assert abs(checks.sigma_sup(m) - np.sqrt((2 * m * m - 3 * m + 1) / (6 * m))) < 1e-9
    # at m = 4 the paper's value is the zero-frequency gain, below the supremum
    assert checks.sigma_sup(4) - float(checks.gain(4, [0.0])[0]) > 7e-4


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
