"""The four workloads: inputs made from the workload seed, the subcommands of
one round, and the checks of a round's outputs.

A round is a fixed list of CLI subcommands; every run repeats whole rounds.
The seed changes the inputs but not the amount of work: the rk4 initial
state, the agent simulation seeds and the certificate games are drawn from
it, while horizons, N, solvers and matrix shapes stay fixed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks
from tracer import CERT_SHAPES

NAMES = ("meanfield", "agents", "agents-events", "certificate")

RK4_HORIZON = 5.0  # 5000 fixed steps of 1e-3, 2e4 field evaluations
AGENT_SEEDS = 2  # one per worker on a two-CPU machine
AGENT_N = 10_000
AGENT_HORIZON = 10.0
BUNDLED = ("congestion_sec6_1", "rps_sec6_2")


def bundled_doc(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "erlang_edm" / "scenarios" / f"{name}.json").read_text())


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


class Workload:
    """Inputs and per-round checks of one workload run.

    `ops` lists (label, argv) pairs for erlang_edm.cli.main; argv ends with
    the output directory of that subcommand.  `check()` returns failure
    messages for the outputs the last round left behind.
    """

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        shutil.rmtree(workdir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir(parents=True)
        self.rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.ops: list[tuple[str, list[str]]] = []
        self.docs: dict[str, dict] = {}
        self.notes: dict = {}

    def add(self, label: str, command: str, doc: dict) -> None:
        path = _write(self.inputs / f"{label}.json", doc)
        self.docs[label] = doc
        self.ops.append((label, [command, path, "-o", str(self.outputs / label)]))

    @property
    def scenario_files(self) -> list[str]:
        return sorted({argv[1] for _, argv in self.ops})

    def outdir(self, label: str) -> Path:
        return self.outputs / label


class MeanField(Workload):
    """ode and lyapunov on both bundled scenarios (RK45, horizon 50), and a
    short fixed-step rk4 ode on rps from a seeded initial state."""

    name = "meanfield"

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.refs: dict[str, object] = {}  # DOP853 solutions by label
        for name in BUNDLED:
            doc = bundled_doc(root, name)
            self.add(f"ode-{name}", "ode", doc)
            self.add(f"lyapunov-{name}", "lyapunov", doc)
        self.add("ode-rk4", "ode", self._rk4_doc())

    def _rk4_doc(self) -> dict:
        doc = bundled_doc(self.root, "rps_sec6_2")
        doc.pop("stochastic", None)
        doc["run"] = {"horizon": RK4_HORIZON, "solver": "rk4", "sample_dt": 0.05}
        n, m = doc["params"]["n"], doc["params"]["m"]
        # Redraw until the Smith outflow stays well inside the rate budget on
        # the whole path, so no seed can make the run fail.
        while True:
            xbar = self.rng.dirichlet(np.full(n, 20.0))
            stages = self.rng.dirichlet(np.ones(m), size=n)
            grid = xbar[:, None] * stages
            doc["initial"] = {"extended": (grid / grid.sum()).tolist()}
            sol = checks.reference_solution(doc, RK4_HORIZON)
            if checks.max_smith_outflow(doc, sol, RK4_HORIZON) < 0.8 * doc["params"]["lambda"]:
                self.refs["ode-rk4"] = sol
                return doc

    def check(self) -> list[str]:
        fails: list[str] = []
        for label, doc in self.docs.items():
            if label not in self.refs:
                self.refs[label] = checks.reference_solution(doc, doc["run"]["horizon"])
        for label, doc in self.docs.items():
            if not label.startswith("ode-"):
                continue
            tol = checks.RK4_TOL if doc["run"]["solver"] == "rk4" else checks.RK45_TOL
            fails += checks.check_trajectory(self.outdir(label) / "ode_trajectory.csv",
                                             doc, self.refs[label], tol)
        cong, rps = (self.outdir(f"ode-{name}") / "ode_trajectory.csv" for name in BUNDLED)
        W = checks.payoff_matrix(self.docs["ode-congestion_sec6_1"])
        fails += checks.check_final_aggregate(cong, self.docs["ode-congestion_sec6_1"],
                                              checks.congestion_nash(W),
                                              checks.CONGESTION_NASH_TOL, "the Nash equilibrium")
        fails += checks.check_final_aggregate(rps, self.docs["ode-rps_sec6_2"],
                                              np.full(3, 1.0 / 3.0),
                                              checks.RPS_CENTER_TOL, "(1/3, 1/3, 1/3)")
        for name in BUNDLED:
            doc = self.docs[f"lyapunov-{name}"]
            gamma = (doc.get("analysis") or {}).get(
                "gamma_lower", checks.contractivity(checks.payoff_matrix(doc))[0])
            fails += checks.check_lyapunov(self.outdir(f"lyapunov-{name}"),
                                           self.outdir(f"ode-{name}"), doc, gamma)
        return fails


class Agents(Workload):
    """agents on rps Sec. 6.2 at N = 1e4, horizon 10, a few seeded seeds."""

    name = "agents"
    seeds_per_run = AGENT_SEEDS
    record_events = False

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        doc = bundled_doc(root, "rps_sec6_2")
        seeds = self.rng.choice(1_000_000, size=self.seeds_per_run, replace=False)
        doc["stochastic"] = {"N": AGENT_N, "seeds": sorted(int(s) for s in seeds),
                             "horizon": AGENT_HORIZON}
        if self.record_events:
            doc["stochastic"]["record_events"] = True
        self.add("agents", "agents", doc)
        self.ref = None
        self.digests = None

    def check(self) -> list[str]:
        doc = self.docs["agents"]
        if self.ref is None:
            self.ref = checks.reference_solution(doc, AGENT_HORIZON)
        fails, digests = checks.check_agents(self.outdir("agents"), doc, self.ref)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            fails.append("agents: a seed's CSV changed between rounds of the same input")
        return fails


class AgentEvents(Agents):
    """The agents workload with one seed and recorded event logs."""

    name = "agents-events"
    seeds_per_run = 1
    record_events = True

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.log_digest = None

    def check(self) -> list[str]:
        """The log is replayed once; later rounds must write the same bytes
        (same seed, same log), which costs a hash instead of a replay."""
        fails = super().check()
        doc = self.docs["agents"]
        seed = doc["stochastic"]["seeds"][0]
        digest = checks.file_digest(self.outdir("agents") / f"agents_events_seed{seed}.csv")
        if self.log_digest is None:
            more, shares = checks.check_event_log(self.outdir("agents"), doc, seed)
            self.notes.update(shares)
            if not more:
                self.log_digest = digest
            return fails + more
        if digest != self.log_digest:
            fails.append("agents-events: the event log changed between rounds of the same input")
        return fails


def contractive_game(rng: np.random.Generator, n: int) -> list[list[float]]:
    """W = -(G G'/n + I/2) + (S - S')/2: -sym(W) >= I/2, so strictly contractive."""
    G = rng.standard_normal((n, n))
    S = rng.standard_normal((n, n))
    W = -(G @ G.T / n + 0.5 * np.eye(n)) + (S - S.T) / 2.0
    return W.tolist()


class Certificate(Workload):
    """stability on generated strictly contractive games over CERT_SHAPES,
    and on both bundled scenarios."""

    name = "certificate"

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        for n, m in CERT_SHAPES:
            doc = {
                "game": {"matrix": contractive_game(self.rng, n)},
                "protocol": {"name": "smith"},
                "params": {"n": n, "m": m, "lambda": float(self.rng.uniform(2.0, 40.0))},
                "initial": {"aggregate": [1.0 / n] * n, "extension": "uniform"},
                "run": {"horizon": 50.0, "solver": "rk45", "sample_dt": 0.05},
            }
            self.add(f"game-n{n}-m{m}", "stability", doc)
        for name in BUNDLED:
            self.add(name, "stability", bundled_doc(root, name))
        self.sigma_cache: dict[int, float] = {}

    def check(self) -> list[str]:
        fails: list[str] = []
        for label, doc in self.docs.items():
            fails += checks.check_stability(self.outdir(label) / "stability_report.json",
                                            doc, self.sigma_cache)
        fails += checks.check_paper_threshold(self.outdir("rps_sec6_2") / "stability_report.json")
        return fails


WORKLOADS = {cls.name: cls for cls in (MeanField, Agents, AgentEvents, Certificate)}
