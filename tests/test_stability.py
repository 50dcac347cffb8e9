"""Certificates: gain constants, switch-rate bounds, Lyapunov machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.linalg import expm, solve_continuous_lyapunov

import erlang_edm as edm
from conftest import congestion_game_61, rps_game_62
from erlang_edm.errors import (
    InvalidOrder,
    NonContractive,
    NotImpartial,
    OutOfRange,
)

# independently derived reference values for the gain constant, orders
# beyond the closed form's reach
SIGMA_HIGH_ORDER = {5: 1.124629724, 6: 1.327439604, 8: 1.776694283}

# shapes on which the (m-1)-dimensional certificate objects are checked
# against the full n(m-1)-dimensional mismatch system
KRON_SHAPES = [(n, m) for n in (1, 3, 5) for m in (1, 2, 4, 6)]


def kron_system(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference A = K kron I_n, B = e_1 kron I_n of the full mismatch system."""
    K = edm.stage_coupling(m)
    return np.kron(K, np.eye(n)), np.kron(np.eye(m - 1, 1), np.eye(n))


def test_stage_coupling_matrix():
    K = edm.stage_coupling(4)
    expected = np.array([[-1.0, 0.0, -1.0], [1.0, -1.0, -1.0], [0.0, 1.0, -2.0]])
    assert np.array_equal(K, expected)
    assert edm.stage_coupling(2).tolist() == [[-2.0]]


def test_stage_coupling_hurwitz():
    # K kron I_n has K's spectrum, so this covers the full system for every n
    for m in (2, 3, 4, 6, 8):
        eigs = np.linalg.eigvals(edm.stage_coupling(m))
        assert np.max(eigs.real) < 0.0


def test_stage_coupling_edge_orders():
    assert edm.stage_coupling(1).shape == (0, 0)
    with pytest.raises(InvalidOrder):
        edm.stage_coupling(0)


def test_sigma_closed_form_values():
    assert edm.sigma_bar_closed_form(1) == 0.0
    assert edm.sigma_bar_closed_form(2) == pytest.approx(0.5, abs=1e-15)
    assert edm.sigma_bar_closed_form(3) == pytest.approx(np.sqrt(5.0 / 9.0), abs=1e-15)
    assert edm.sigma_bar_closed_form(4) == pytest.approx(np.sqrt(7.0 / 8.0), abs=1e-15)
    for bad in (0, 5):
        with pytest.raises(OutOfRange):
            edm.sigma_bar_closed_form(bad)


def test_sigma_bisection_independent_of_n():
    values = [edm.sigma_bar_bisection(n, 3, tol=1e-10) for n in (1, 2, 3)]
    assert max(values) - min(values) <= 1e-8


def test_sigma_bisection_high_orders():
    for m, expected in SIGMA_HIGH_ORDER.items():
        assert edm.sigma_bar_bisection(1, m) == pytest.approx(expected, abs=1e-6)
    # the constant grows with the order and exceeds the m=4 closed form
    assert edm.sigma_bar_bisection(1, 6) > edm.sigma_bar_closed_form(4)


def test_sigma_bisection_rejects_degenerate_order():
    with pytest.raises(InvalidOrder):
        edm.sigma_bar_bisection(2, 1)
    with pytest.raises(InvalidOrder):
        edm.sigma_sweep(1)
    with pytest.raises(ValueError):
        edm.sigma_bar_bisection(0, 3)


def test_sigma_sweep_agrees_with_bisection():
    swept = edm.sigma_sweep(4)
    assert swept == pytest.approx(edm.sigma_bar_bisection(1, 4), abs=1e-6)


def test_compute_c_vertex_values():
    rps = rps_game_62()
    smith58 = edm.smith_protocol(3, 5.8)
    assert edm.compute_c(rps, smith58) == pytest.approx(7.0, abs=1e-12)
    congestion = congestion_game_61()
    smith5 = edm.smith_protocol(3, 5.0)
    assert edm.compute_c(congestion, smith5) == pytest.approx(5.7, abs=1e-12)


def test_compute_c_sampled_lower_bound():
    rps = rps_game_62()
    smith = edm.smith_protocol(3, 5.8)
    rng = np.random.default_rng(6)
    sampled = edm.compute_c(rps, smith, method="sample", rng=rng)
    assert 6.5 <= sampled <= 7.0 + 1e-9


def test_lambda_lower_bound_reference_value():
    value = edm.lambda_lower_bound(1.0, 1.0, 4.0, edm.sigma_bar_closed_form(4), 3, 4)
    assert value == pytest.approx(5.796550698475776, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_lambda_lower_bound_monotone_in_c(c_small, bump):
    base = edm.lambda_lower_bound(1.0, 1.0, c_small, 0.9, 3, 4)
    more = edm.lambda_lower_bound(1.0, 1.0, c_small + bump, 0.9, 3, 4)
    assert more > base


def test_lambda_lower_bound_directions():
    args = dict(gamma_upper=1.0, gamma_lower=1.0, c=4.0, sigma_bar=0.9, n=3, m=4)
    base = edm.lambda_lower_bound(**args)
    assert edm.lambda_lower_bound(**{**args, "gamma_upper": 2.0}) > base
    assert edm.lambda_lower_bound(**{**args, "gamma_lower": 2.0}) < base
    assert edm.lambda_lower_bound(**{**args, "sigma_bar": 1.2}) > base
    assert edm.lambda_lower_bound(**{**args, "n": 4}) > base
    assert edm.lambda_lower_bound(**{**args, "m": 5}) < base
    with pytest.raises(NonContractive):
        edm.lambda_lower_bound(**{**args, "gamma_lower": 0.0})
    with pytest.raises(ValueError):
        edm.lambda_lower_bound(**{**args, "c": -1.0})


def test_solve_lyapunov_residual_and_quadrature():
    K = edm.stage_coupling(4)
    M = edm.solve_lyapunov(4)
    k = M.shape[0]
    residual = np.linalg.norm(K.T @ M + M @ K + np.eye(k), 2)
    assert residual <= 1e-10
    assert np.allclose(M, M.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(M)) > 0.0
    # independent route: M = integral of e^{K^T t} e^{K t} dt
    quad, _ = quad_vec(
        lambda t: expm(K.T * t) @ expm(K * t), 0.0, 60.0,
        epsabs=1e-12,
    )
    assert np.max(np.abs(M - quad)) <= 1e-8


def test_solve_lyapunov_m1_is_empty():
    empty = edm.solve_lyapunov(1)
    assert empty.shape == (0, 0)


def test_alpha_max_reference_values():
    _, B = kron_system(3, 4)
    M = edm.solve_lyapunov(4)
    assert np.linalg.norm(np.kron(M, np.eye(3)) @ B, 2) == pytest.approx(
        0.6576473218982941, abs=1e-12
    )
    assert edm.alpha_max(4, 1.0, M) == pytest.approx(
        5.780346820809268, abs=1e-12
    )
    with pytest.raises(NonContractive):
        edm.alpha_max(4, 0.0, M)
    assert np.isinf(edm.alpha_max(1, 1.0, np.zeros((0, 0))))


@pytest.mark.parametrize("n, m", KRON_SHAPES)
def test_lyapunov_weight_matches_full_system(n, m):
    A, B = kron_system(n, m)
    assert A.shape == (n * (m - 1),) * 2 and B.shape == (n * (m - 1), n)
    M_K = edm.solve_lyapunov(m)
    M = np.kron(M_K, np.eye(n))
    if m > 1:
        full = solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
        assert np.max(np.abs(M - full)) <= 1e-13
        gamma = 0.7
        mb = np.linalg.norm(M @ B, 2)
        assert edm.alpha_max(m, gamma, M_K) == pytest.approx(
            (m + 1) * gamma / (2.0 * mb**2), rel=1e-13
        )
    else:
        assert M.shape == (0, 0) and np.isinf(edm.alpha_max(m, 0.7, M_K))


@pytest.mark.parametrize("n, m", KRON_SHAPES)
def test_lyapunov_terms_match_full_system(n, m):
    # L and the P/Q split against the n(m-1)-dimensional formulas
    # s'Ms, alpha lambda ||s||^2 and 2 alpha s'MB xbardot
    rng = np.random.default_rng(100 * n + m)
    game = edm.linear_game(rng.uniform(-1.0, 1.0, (n, n)))
    lam = 3.0 * n  # above the worst Smith switch rate 2(n-1)
    proto = edm.smith_protocol(n, lam)
    params = edm.ErlangParams(n, m, lam)
    M_K = edm.solve_lyapunov(m)
    _, B = kron_system(n, m)
    M = np.kron(M_K, np.eye(n))
    alpha = 0.8
    for _ in range(10):
        grid = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        xbar = grid.sum(axis=1)
        p = np.asarray(game.payoff(xbar), dtype=float)
        s = edm.tilde(grid).stacked()
        S = proto.psi_totals(p)
        L = edm.lyapunov_value(grid, p, alpha, proto, M_K)
        assert L == pytest.approx(xbar @ S + alpha * (s @ M @ s), rel=1e-13, abs=1e-15)

        T = edm.switch_rate_matrix(proto, xbar, p)
        phi_net = T.T - lam * np.eye(n)
        z = grid[:, m - 1]
        xbardot = phi_net @ z
        pdot = np.asarray(game.jacobian(xbar), dtype=float) @ xbardot
        phi_od = phi_net - np.diag(np.diag(phi_net))
        P_ref = (alpha * lam * (s @ s) + ((lam - np.diag(T)) * S) @ z
                 - S @ (phi_od @ z))
        blocks = s.reshape(m - 1, n).sum(axis=0)
        Q_ref = (m * (xbardot @ pdot) + (phi_net @ blocks) @ pdot
                 + 2.0 * alpha * (s @ (M @ (B @ xbardot))))
        P, Q = edm.pq_decomposition(grid, game, proto, params, alpha, M_K)
        assert P == pytest.approx(P_ref, rel=1e-12, abs=1e-14)
        assert Q == pytest.approx(Q_ref, rel=1e-12, abs=1e-14)


def test_lyapunov_value_zero_at_equilibrium():
    proto = edm.smith_protocol(3, 5.8)
    M = edm.solve_lyapunov(4)
    xstar = edm.uniform_extension(np.full(3, 1.0 / 3.0), 4)
    p_eq = rps_game_62().payoff(np.full(3, 1.0 / 3.0))
    assert edm.lyapunov_value(xstar, p_eq, 1.0, proto, M) == pytest.approx(
        0.0, abs=1e-14
    )
    # positive away from equilibrium
    grid = np.zeros((3, 4))
    grid[0, 3], grid[1, 0], grid[2, 0] = 0.2, 0.2, 0.6
    x = edm.extended_state(grid)
    p = rps_game_62().payoff(grid.sum(axis=1))
    assert edm.lyapunov_value(x, p, 1.0, proto, M) > 0.0


def test_lyapunov_value_requires_impartial():
    M = edm.solve_lyapunov(2)
    xstar = edm.uniform_extension(np.full(3, 1.0 / 3.0), 2)
    with pytest.raises(NotImpartial):
        edm.lyapunov_value(xstar, np.zeros(3), 1.0, edm.null_protocol(3, 5.8), M)


def test_pq_nonnegative_p_at_random_states():
    # budget 8 exceeds the worst-case switching rate 7, so every state in
    # the simplex is admissible
    game = rps_game_62()
    lam = 8.0
    proto = edm.smith_protocol(3, lam)
    params = edm.ErlangParams(3, 4, lam)
    M = edm.solve_lyapunov(4)
    rng = np.random.default_rng(12)
    for _ in range(50):
        grid = rng.dirichlet(np.ones(12)).reshape(3, 4)
        P, Q = edm.pq_decomposition(grid, game, proto, params, 1.5, M)
        assert P >= -1e-12
        assert np.isfinite(Q)


def test_lyapunov_series_decreases_overall(rps_run, rps_setup):
    game, proto, params, _ = rps_setup
    traj, _ = rps_run
    M = edm.solve_lyapunov(params.m)
    alpha = 0.5 * edm.alpha_max(params.m, 1.0, M)
    samples = edm.lyapunov_series(
        traj, game, proto, params, alpha, M,
        times=np.array([0.0, 5.0, 40.0]),
    )
    values = [s.L for s in samples]
    assert values[2] <= values[1] <= values[0]
    assert values[2] >= 0.0


def test_integrated_q_bound(rps_run, rps_setup):
    # the integral of Q up to t is controlled by the decaying stage
    # mismatch: int_0^t Q <= (alpha + 2 gamma_upper n c^2) |e^{lam A t} s0|^2
    game, proto, params, x0 = rps_setup
    traj, _ = rps_run
    A, _ = kron_system(params.n, params.m)
    M = edm.solve_lyapunov(params.m)
    alpha = 0.5 * edm.alpha_max(params.m, 1.0, M)
    gamma_upper, c = 1.0, 4.0
    s0 = edm.tilde(x0).stacked()
    factor = alpha + 2.0 * gamma_upper * params.n * c**2
    for t_end in (1.0, 5.0, 20.0):
        grid = np.linspace(0.0, t_end, 801)
        qs = []
        for t in grid:
            state = traj.interp_raw(t)
            _, q = edm.pq_decomposition(state, game, proto, params, alpha, M)
            qs.append(q)
        integral = np.trapezoid(np.asarray(qs), grid)
        bound = factor * np.linalg.norm(
            expm(params.lam * A * t_end) @ s0
        ) ** 2
        assert integral <= bound + 1e-9


def test_stability_report_certifies_reference_setup():
    report = edm.stability_report(
        rps_game_62(),
        edm.smith_protocol(3, 5.8),
        edm.ErlangParams(3, 4, 5.8),
        overrides={"gamma_lower": 1.0, "gamma_upper": 1.0, "c": 4.0},
    )
    assert report.certified
    assert report.lambda_lower == pytest.approx(5.796550698475776, abs=1e-9)
    assert report.c_method == "override"
    assert report.sigma_bar == pytest.approx(np.sqrt(7.0 / 8.0), abs=1e-12)
    assert report.literal_c == pytest.approx(7.0, abs=1e-9)
    assert report.literal_gamma_lower == pytest.approx(0.5, abs=1e-9)
    payload = report.to_dict()
    required = {
        "gamma_lower", "gamma_upper", "c", "c_method", "sigma_bar",
        "lambda_lower", "alpha_max", "m", "n", "lambda", "certified",
    }
    assert required <= payload.keys()
    assert payload["certified"] is True
    assert payload["is_potential"] is False


def test_stability_report_rejects_slow_revision():
    report = edm.stability_report(
        rps_game_62(),
        edm.smith_protocol(3, 5.0),
        edm.ErlangParams(3, 4, 5.0),
        overrides={"gamma_lower": 1.0, "gamma_upper": 1.0, "c": 4.0},
    )
    assert not report.certified
    assert report.lambda_lower > 5.0


def test_stability_report_congestion_literals():
    report = edm.stability_report(
        congestion_game_61(),
        edm.smith_protocol(3, 5.0),
        edm.ErlangParams(3, 3, 5.0),
    )
    assert report.gamma_lower == pytest.approx(1.25475542, abs=1e-6)
    assert report.gamma_upper == pytest.approx(3.87857791, abs=1e-6)
    assert report.c == pytest.approx(5.7, abs=1e-9)
    assert report.is_potential
    assert not report.certified  # threshold sits far above lambda = 5


def test_stability_report_non_contractive_without_overrides():
    with pytest.raises(NonContractive):
        edm.stability_report(
            edm.linear_game(np.eye(3)),
            edm.smith_protocol(3, 5.0),
            edm.ErlangParams(3, 2, 5.0),
        )
