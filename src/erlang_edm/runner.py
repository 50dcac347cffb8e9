"""Run drivers behind the command line: each takes a Scenario and an output
directory, writes the artifacts for one subcommand, and returns the summary
that was written as a dict.

Parallel stochastic replication rebuilds the scenario inside each worker
process from its plain-dict form, because games and protocols hold closures
and do not pickle.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .agents import simulate, write_event_csv
from .dynamics import convergence_report, integrate, write_trajectory_csv
from .errors import ScenarioError
from .games import contractivity_margins
from .scenario import Scenario, scenario_from_dict
from .stability import (
    alpha_max,
    lyapunov_series,
    solve_lyapunov,
    stability_report,
    write_lyapunov_csv,
)


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def _finite_or_none(value: float):
    v = float(value)
    return v if math.isfinite(v) else None


def _clipped_aggregates(traj) -> np.ndarray:
    return np.array([s.grid.sum(axis=1) for s in traj.states()])


def run_ode(scenario: Scenario, outdir: str) -> dict:
    os.makedirs(outdir, exist_ok=True)
    game = scenario.build_game()
    protocol = scenario.build_protocol()
    params = scenario.build_params()
    traj = integrate(
        game,
        protocol,
        params,
        scenario.initial_grid(),
        horizon=scenario.run["horizon"],
        solver=scenario.solver_options(),
        sample_dt=scenario.run["sample_dt"],
    )
    csv_name = "ode_trajectory.csv"
    write_trajectory_csv(os.path.join(outdir, csv_name), traj.times, traj.raw, game)
    report = convergence_report(traj, game)
    final_xbar = _clipped_aggregates(traj)[-1]
    summary = {
        "n": params.n,
        "m": params.m,
        "lambda": params.lam,
        "solver": traj.method,
        "horizon": scenario.run["horizon"],
        "sample_dt": scenario.run["sample_dt"],
        "t_final": traj.t_final,
        "stopped_early": traj.stopped_early,
        "accepted_steps": traj.accepted_steps,
        "final_xbar": [float(v) for v in final_xbar],
        "ne_residual": report.final_ne_residual,
        "ene_residual": report.final_ene_residual,
        "is_potential": report.potential_monotone is not None,
        "potential_monotone": report.potential_monotone,
        "csv": csv_name,
    }
    _write_json(os.path.join(outdir, "ode_summary.json"), summary)
    return summary


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("EDM_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ScenarioError(
                f"EDM_THREADS must be a positive integer, got {raw!r}"
            ) from None
        if cap < 1:
            raise ScenarioError("EDM_THREADS must be >= 1")
    return max(1, min(cap, n_jobs))


def _agents_one_seed(args):
    doc, seed, sample_times, outdir, record_events = args
    scenario = scenario_from_dict(doc)
    game = scenario.build_game()
    protocol = scenario.build_protocol()
    params = scenario.build_params()
    st = scenario.stochastic
    horizon = st.get("horizon", scenario.run["horizon"])
    emp = simulate(
        st["N"],
        game,
        protocol,
        params,
        scenario.initial_grid(),
        horizon,
        seed,
        sample_times=np.asarray(sample_times),
        record_events=record_events,
    )
    csv_name = f"agents_seed{seed}.csv"
    write_trajectory_csv(
        os.path.join(outdir, csv_name), emp.times, emp.proportions, game
    )
    if record_events:
        write_event_csv(
            os.path.join(outdir, f"agents_events_seed{seed}.csv"), emp.events
        )
    xbar = emp.proportions.sum(axis=2)
    return seed, xbar, csv_name


def run_agents(scenario: Scenario, outdir: str) -> dict:
    if scenario.stochastic is None:
        raise ScenarioError("scenario has no 'stochastic' block; nothing to simulate")
    os.makedirs(outdir, exist_ok=True)
    game = scenario.build_game()
    protocol = scenario.build_protocol()
    params = scenario.build_params()
    st = scenario.stochastic
    horizon = st.get("horizon", scenario.run["horizon"])
    record_events = st.get("record_events", False)

    reference = integrate(
        game,
        protocol,
        params,
        scenario.initial_grid(),
        horizon=horizon,
        solver=scenario.solver_options(),
        sample_dt=scenario.run["sample_dt"],
        early_stop=False,
    )
    ref_csv = "agents_reference.csv"
    write_trajectory_csv(
        os.path.join(outdir, ref_csv), reference.times, reference.raw, game
    )
    ref_xbar = _clipped_aggregates(reference)

    doc = scenario.to_dict()
    times = [float(t) for t in reference.times]
    jobs = [(doc, seed, times, outdir, record_events) for seed in st["seeds"]]
    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_agents_one_seed, jobs))
    else:
        results = [_agents_one_seed(job) for job in jobs]

    per_seed = []
    for seed, xbar, csv_name in results:
        sup_dev = float(np.max(np.abs(xbar - ref_xbar)))
        per_seed.append({"seed": seed, "N": st["N"], "sup_deviation": sup_dev,
                         "csv": csv_name})
    summary = {
        "N": st["N"],
        "seeds": list(st["seeds"]),
        "horizon": horizon,
        "sample_dt": scenario.run["sample_dt"],
        "workers": workers,
        "reference_csv": ref_csv,
        "per_seed": per_seed,
        "max_sup_deviation": max(e["sup_deviation"] for e in per_seed),
    }
    _write_json(os.path.join(outdir, "agents_summary.json"), summary)
    return summary


def run_stability(scenario: Scenario, outdir: str) -> dict:
    os.makedirs(outdir, exist_ok=True)
    game = scenario.build_game()
    protocol = scenario.build_protocol()
    params = scenario.build_params()
    report = stability_report(
        game, protocol, params, overrides=scenario.overrides()
    )
    payload = report.to_dict()
    _write_json(os.path.join(outdir, "stability_report.json"), payload)
    return payload


def run_lyapunov(scenario: Scenario, outdir: str) -> dict:
    os.makedirs(outdir, exist_ok=True)
    game = scenario.build_game()
    protocol = scenario.build_protocol()
    params = scenario.build_params()

    matrix_m = solve_lyapunov(params.m)
    overrides = scenario.overrides()
    if "gamma_lower" in overrides:
        gamma_lower = float(overrides["gamma_lower"])
    else:
        gamma_lower = contractivity_margins(game).gamma_lower

    # L, P and Q need no contractivity: with an explicit alpha and no
    # positive margin the bound is reported as null; "auto" raises
    # NonContractive there.
    setting = scenario.alpha_setting()
    a_max = math.nan
    if setting == "auto" or gamma_lower > 0:
        a_max = alpha_max(params.m, gamma_lower, matrix_m)
    if setting == "auto":
        alpha = 1.0 if not math.isfinite(a_max) else 0.5 * a_max
    else:
        alpha = float(setting)

    traj = integrate(
        game,
        protocol,
        params,
        scenario.initial_grid(),
        horizon=scenario.run["horizon"],
        solver=scenario.solver_options(),
        sample_dt=scenario.run["sample_dt"],
    )
    samples = lyapunov_series(traj, game, protocol, params, alpha, matrix_m)
    csv_name = "lyapunov.csv"
    write_lyapunov_csv(os.path.join(outdir, csv_name), samples)
    summary = {
        "alpha": alpha,
        "alpha_max": _finite_or_none(a_max),
        "gamma_lower": gamma_lower,
        "n_samples": len(samples),
        "final_L": samples[-1].L if samples else None,
        "csv": csv_name,
    }
    _write_json(os.path.join(outdir, "lyapunov_summary.json"), summary)
    return summary
