"""Revision protocols: rate formulas, the rate-budget diagonal, impartiality."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erlang_edm as edm
from erlang_edm.errors import NegativeStayRate

payoff_vectors = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=3, max_size=3
).map(np.array)


def test_smith_off_diagonal_formula():
    proto = edm.smith_protocol(3, 20.0)
    p = np.array([1.0, -0.5, 2.0])
    x = np.array([0.2, 0.3, 0.5])
    off = proto.rates(x, p)
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else max(p[j] - p[i], 0.0)
            assert off[i, j] == expected
    assert proto.is_impartial
    assert proto.kind == "impartial-pairwise-comparison"


@settings(max_examples=100, deadline=None)
@given(payoff_vectors)
def test_sign_preservation(p):
    proto = edm.smith_protocol(3, 20.0)
    off = proto.rates(np.array([0.2, 0.3, 0.5]), p)
    for i in range(3):
        for j in range(3):
            assert (off[i, j] > 0) == (p[j] > p[i])


def test_sign_preservation_bulk():
    # same property as above, but over a fixed large draw so the sample
    # count does not depend on the hypothesis profile
    proto = edm.smith_protocol(2, 20.0)
    x = np.array([0.5, 0.5])
    rng = np.random.default_rng(11)
    draws = rng.normal(0.0, 2.0, size=(1000, 2))
    for p in draws:
        off = proto.rates(x, p)
        assert (off[0, 1] > 0) == (p[1] > p[0])
        assert (off[1, 0] > 0) == (p[0] > p[1])


def test_smith_rates_ignore_population_state():
    proto = edm.smith_protocol(3, 20.0)
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)
    reference = proto.rates(rng.dirichlet(np.ones(3)), p)
    for _ in range(25):
        other = proto.rates(rng.dirichlet(np.ones(3)), p)
        assert np.array_equal(other, reference)


@settings(max_examples=50, deadline=None)
@given(payoff_vectors)
def test_row_sums_meet_rate_budget(p):
    lam = 25.0
    proto = edm.smith_protocol(3, lam)
    x = np.array([0.2, 0.3, 0.5])
    T = edm.switch_rate_matrix(proto, x, p)
    sums = T.sum(axis=1)
    assert np.max(np.abs(sums - lam)) <= 1e-12 * lam
    # the diagonal is literally the budget minus the off-diagonal row sum,
    # so that identity must hold bit for bit, not just approximately
    off = proto.rates(x, p)
    assert np.array_equal(np.diag(T), lam - off.sum(axis=1))


def test_negative_stay_rate_refused():
    proto = edm.smith_protocol(2, 1.0)
    x = np.array([0.5, 0.5])
    with pytest.raises(NegativeStayRate) as info:
        edm.switch_rate_matrix(proto, x, np.array([0.0, 5.0]))
    assert info.value.row == 0
    assert info.value.stay_rate == pytest.approx(-4.0)


def test_roundoff_stay_rate_accepted():
    # at this rps Sec. 6.2 state strategy 1's Smith outflow is exactly the
    # budget 5.8, but the float row sum leaves a stay rate of about -9e-16;
    # that is roundoff, not an exhausted budget, and it is kept unclamped
    sc = edm.bundled_scenario("rps_sec6_2")
    game, proto = sc.build_game(), sc.build_protocol()
    x = np.array([0.2, 0.8, 0.0])
    p = game.payoff(x)
    T = edm.switch_rate_matrix(proto, x, p)
    off = proto.rates(x, p)
    assert np.array_equal(np.diag(T), 5.8 - off.sum(axis=1))
    assert -1e-15 < T[0, 0] < 0.0


def test_negative_stay_rate_pickles():
    # worker processes hand exceptions back to the parent through pickle
    err = NegativeStayRate(2, -0.75)
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is NegativeStayRate
    assert (again.row, again.stay_rate, str(again)) == (2, -0.75, str(err))
    custom = pickle.loads(pickle.dumps(NegativeStayRate(1, -3.0, "custom text")))
    assert (custom.row, custom.stay_rate, str(custom)) == (1, -3.0, "custom text")


def test_psi_is_antiderivative_of_phi():
    # S[i] = sum_k Psi(p_k - p_i), so dS[i]/dp_i = -sum_k phi(p_k - p_i):
    # minus the total rate of switching away from strategy i
    proto = edm.smith_protocol(3, 20.0)
    x = np.array([0.2, 0.3, 0.5])
    h = 1e-6
    for p in ([0.3, 1.7, -0.8], [1.0, -0.5, 2.0], [0.0, 0.4, 0.1]):
        p = np.array(p)
        outflow = proto.rates(x, p).sum(axis=1)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (proto.psi_totals(p + e)[i] - proto.psi_totals(p - e)[i]) / (2 * h)
            assert fd == pytest.approx(-outflow[i], abs=1e-6)
    S = edm.smith_protocol(2, 5.0).psi_totals(np.array([0.0, 1.0]))
    assert S[0] == pytest.approx(0.5)  # Psi(1)
    assert S[1] == 0.0  # Psi(-1)


def test_psi_shape():
    proto = edm.smith_protocol(2, 5.0)
    grid = np.linspace(-4.0, 4.0, 201)
    # against a single rival with payoff s, strategy 1's total is Psi(s)
    values = np.array([proto.psi_totals(np.array([0.0, s]))[0] for s in grid])
    assert np.all(values >= 0.0)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(values[grid <= 0.0] == 0.0)
    three = edm.smith_protocol(3, 5.0)
    rng = np.random.default_rng(4)
    for p in rng.normal(0.0, 2.0, size=(200, 3)):
        assert np.all(three.psi_totals(p) >= 0.0)
    for level in (-2.5, 0.0, 3.0):
        assert np.all(three.psi_totals(np.full(3, level)) == 0.0)


def test_null_protocol_never_switches():
    proto = edm.null_protocol(3, 5.0)
    assert proto.kind == "general"
    assert proto.psi_totals is None
    off = proto.rates(np.array([0.2, 0.3, 0.5]), np.array([5.0, -2.0, 0.0]))
    assert np.all(off == 0.0)
    T = edm.switch_rate_matrix(proto, np.array([0.2, 0.3, 0.5]), np.zeros(3))
    assert np.allclose(T, 5.0 * np.eye(3))
