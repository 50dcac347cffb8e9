"""Mean-field vector field, integrators, and trajectory outputs."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from scipy.linalg import expm

import erlang_edm as edm
from conftest import congestion_game_61, rps_game_62
from erlang_edm.errors import NegativeStayRate


def test_params_validation():
    with pytest.raises(ValueError):
        edm.ErlangParams(0, 2, 1.0)
    with pytest.raises(ValueError):
        edm.ErlangParams(2, 0, 1.0)
    with pytest.raises(ValueError):
        edm.ErlangParams(2, 2, -1.0)


def test_vector_field_matches_hand_formula():
    game = rps_game_62()
    proto = edm.smith_protocol(3, 5.8)
    params = edm.ErlangParams(3, 4, 5.8)
    rng = np.random.default_rng(11)
    for _ in range(20):
        grid = rng.dirichlet(np.ones(12)).reshape(3, 4)
        xbar = grid.sum(axis=1)
        p = game.payoff(xbar)
        T = edm.switch_rate_matrix(proto, xbar, p)
        z = grid[:, -1]
        expected = np.empty_like(grid)
        expected[:, 0] = T.T @ z - 5.8 * grid[:, 0]
        for stage in range(1, 4):
            expected[:, stage] = 5.8 * (grid[:, stage - 1] - grid[:, stage])
        field = edm.vector_field(game, proto, params, grid).reshape(3, 4)
        assert np.max(np.abs(field - expected)) <= 1e-13


def test_field_conserves_mass():
    game = rps_game_62()
    proto = edm.smith_protocol(3, 5.8)
    params = edm.ErlangParams(3, 4, 5.8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        grid = rng.dirichlet(np.ones(12)).reshape(3, 4)
        field = edm.vector_field(game, proto, params, grid)
        assert abs(field.sum()) <= 1e-13


def test_aggregate_dynamics_identity():
    # summing the field over stages leaves (T^t - lambda I) applied to the
    # last-stage slice
    game = rps_game_62()
    proto = edm.smith_protocol(3, 5.8)
    params = edm.ErlangParams(3, 4, 5.8)
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = rng.dirichlet(np.ones(12)).reshape(3, 4)
        xbar = grid.sum(axis=1)
        T = edm.switch_rate_matrix(proto, xbar, game.payoff(xbar))
        z = grid[:, -1]
        xbar_dot = (T.T - 5.8 * np.eye(3)) @ z
        field = edm.vector_field(game, proto, params, grid).reshape(3, 4)
        assert np.max(np.abs(field.sum(axis=1) - xbar_dot)) <= 1e-13


def test_single_stage_field_is_classic_edm():
    # with one stage the last-stage slice is the whole population, so the
    # field collapses to the familiar sum_j xbar_j T_ji - lambda xbar_i
    game = rps_game_62()
    lam = 50.0  # a roomy budget: worst-case pairwise payoff gaps stay admissible
    proto = edm.smith_protocol(3, lam)
    params = edm.ErlangParams(3, 1, lam)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        xbar = rng.dirichlet(np.ones(3))
        T = edm.switch_rate_matrix(proto, xbar, game.payoff(xbar))
        classic = T.T @ xbar - lam * xbar
        field = edm.vector_field(game, proto, params, xbar.reshape(3, 1))
        assert np.max(np.abs(field.reshape(3) - classic)) <= 1e-15


def test_budget_mismatch_rejected():
    game = rps_game_62()
    proto = edm.smith_protocol(3, 2.0)
    params = edm.ErlangParams(3, 4, 5.8)
    with pytest.raises(ValueError):
        edm.vector_field(game, proto, params, np.full((3, 4), 1.0 / 12.0))


def test_stage_relaxation_matches_matrix_exponential():
    # with no switching, each strategy's stage column evolves under the
    # circulant generator lambda (S - I), S the cyclic stage shift
    n, m, lam = 2, 4, 3.0
    game = edm.Game(
        n=n,
        payoff=lambda x: np.zeros(n),
        jacobian=lambda x: np.zeros((n, n)),
        name="flat",
    )
    proto = edm.null_protocol(n, lam)
    params = edm.ErlangParams(n, m, lam)
    rng = np.random.default_rng(2)
    grid = rng.dirichlet(np.ones(n * m)).reshape(n, m)
    t_end = 0.7
    traj = edm.integrate(
        game, proto, params, grid, horizon=t_end, sample_dt=t_end, early_stop=False
    )
    shift = np.zeros((m, m))
    for l in range(1, m):
        shift[l, l - 1] = 1.0
    shift[0, m - 1] = 1.0
    G = lam * (shift - np.eye(m))
    expected = grid @ expm(G * t_end).T
    assert np.max(np.abs(traj.raw[-1] - expected)) <= 1e-8
    # aggregates never move
    assert np.max(np.abs(traj.raw[-1].sum(axis=1) - grid.sum(axis=1))) <= 1e-9


def test_rk4_agrees_with_rk45():
    game, proto = congestion_game_61(), edm.smith_protocol(3, 5.0)
    params = edm.ErlangParams(3, 3, 5.0)
    x0 = np.zeros((3, 3))
    x0[0, 2], x0[1, 0], x0[2, 0] = 0.2, 0.2, 0.6
    kw = dict(horizon=5.0, sample_dt=0.5, early_stop=False)
    a = edm.integrate(game, proto, params, x0, **kw)
    b = edm.integrate(
        game, proto, params, x0, solver=edm.SolverOptions(method="rk4"), **kw
    )
    assert a.method == "rk45" and b.method == "rk4"
    assert np.max(np.abs(a.raw[-1] - b.raw[-1])) <= 1e-6


def test_accepted_steps_stay_nonnegative():
    # positive invariance, read off the solver's own accepted steps rather
    # than the resampled output, and before any clipping
    game, proto = congestion_game_61(), edm.smith_protocol(3, 5.0)
    params = edm.ErlangParams(3, 3, 5.0)
    x0 = np.zeros((3, 3))
    x0[0, 2], x0[1, 0], x0[2, 0] = 0.2, 0.2, 0.6
    traj = edm.integrate(game, proto, params, x0, horizon=50.0, sample_dt=5.0)
    assert len(traj.step_times) > 10
    assert min(step.min() for step in traj.step_raw) >= -1e-7
    assert max(abs(step.sum() - 1.0) for step in traj.step_raw) <= 1e-6


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_single_sampling_path(method):
    game, proto = congestion_game_61(), edm.smith_protocol(3, 5.0)
    params = edm.ErlangParams(3, 3, 5.0)
    x0 = np.zeros((3, 3))
    x0[0, 2], x0[1, 0], x0[2, 0] = 0.2, 0.2, 0.6
    traj = edm.integrate(
        game, proto, params, x0, horizon=2.0, sample_dt=0.1, early_stop=False,
        solver=edm.SolverOptions(method=method, step=0.01),
    )
    # the sample grid is filled by the same call a user makes
    assert np.array_equal(traj.raw, traj.interp_raw(traj.times))
    at_steps = traj.interp_raw(traj.step_times)
    assert at_steps.shape == traj.step_raw.shape
    if method == "rk4":
        assert np.array_equal(at_steps, traj.step_raw)
    else:
        # a step time is the end of the interpolant that OdeSolution picks,
        # so the polynomial meets the step's state up to roundoff
        assert np.max(np.abs(at_steps - traj.step_raw)) <= 1e-14
    assert np.array_equal(traj.interp_raw(0.0), x0)
    assert traj.interp_raw(traj.step_times[3]).shape == (3, 3)
    with pytest.raises(ValueError):
        traj.interp_raw(2.5)


def test_early_stop_cuts_horizon():
    game, proto = congestion_game_61(), edm.smith_protocol(3, 5.0)
    params = edm.ErlangParams(3, 3, 5.0)
    x0 = np.zeros((3, 3))
    x0[0, 2], x0[1, 0], x0[2, 0] = 0.2, 0.2, 0.6
    traj = edm.integrate(game, proto, params, x0, horizon=150.0, sample_dt=0.05)
    assert traj.stopped_early
    assert traj.t_final < 150.0
    # the rule is checked at every accepted step, so the run ends on one
    assert traj.t_final == traj.step_times[-1]
    assert edm.ene_residual(game, traj.states()[-1]) <= 1e-6


def test_sample_grid_covers_horizon():
    game = rps_game_62()
    proto = edm.smith_protocol(3, 5.8)
    params = edm.ErlangParams(3, 4, 5.8)
    x0 = edm.uniform_extension(np.array([0.5, 0.25, 0.25]), 4).grid
    traj = edm.integrate(
        game, proto, params, x0, horizon=1.23, sample_dt=0.25, early_stop=False
    )
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.23)
    assert np.all(np.diff(traj.times) > 0)
    mid = edm.extended_state(traj.states()[3].grid)
    assert mid.grid.shape == (3, 4)


def test_integration_refuses_insufficient_budget():
    # steep payoff differences exhaust a tiny rate budget immediately
    game = edm.linear_game([[0.0, 0.0], [50.0, 0.0]])
    proto = edm.smith_protocol(2, 1.0)
    params = edm.ErlangParams(2, 2, 1.0)
    x0 = edm.uniform_extension(np.array([0.5, 0.5]), 2).grid
    with pytest.raises(NegativeStayRate):
        edm.integrate(game, proto, params, x0, horizon=5.0)


def test_convergence_report_residual_series():
    game = rps_game_62()
    proto = edm.smith_protocol(3, 5.8)
    params = edm.ErlangParams(3, 4, 5.8)
    x0 = np.zeros((3, 4))
    x0[0, 3], x0[1, 0], x0[2, 0] = 0.2, 0.2, 0.6
    traj = edm.integrate(game, proto, params, x0, horizon=5.0, sample_dt=0.5)
    report = edm.convergence_report(traj, game)
    assert report.times.shape == report.ne_residuals.shape
    assert report.final_ene_residual >= report.final_ne_residual >= 0.0
    direct = edm.ene_residual(game, traj.states()[-1])
    assert report.final_ene_residual == pytest.approx(direct, rel=1e-9)
    # rock-paper-scissors carries no potential
    assert report.potential_values is None
    assert report.potential_monotone is None


def test_trajectory_csv_format(tmp_path):
    header = edm.dynamics.trajectory_csv_header(2, 2)
    assert header == "t,x_1_1,x_1_2,x_2_1,x_2_2,xbar_1,xbar_2,p_1,p_2"
    game = edm.linear_game(np.zeros((2, 2)))
    times = np.array([0.0, 0.5])
    grids = np.array(
        [[[0.25, 0.25], [0.25, 0.25]], [[0.4, 0.1], [0.3, 0.2]]]
    )
    path = tmp_path / "traj.csv"
    edm.write_trajectory_csv(path, times, grids, game)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header.split(",")
    assert len(rows) == 3
    # 17 significant digits round-trip doubles exactly
    assert float(rows[1][1]) == 0.25
    assert float(rows[2][5]) == pytest.approx(0.5, abs=1e-16)
    assert all(len(row) == 9 for row in rows)
