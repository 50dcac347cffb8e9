"""Revision protocols: switch-rate maps with fixed row budget.

A protocol assigns each (current strategy i, candidate j) an off-diagonal
switch rate; the diagonal "stay" rate is whatever is left of the budget
lambda, and rows always sum to lambda exactly.  Pairwise-comparison
protocols react only to payoffs, switching toward strictly better ones;
the impartial subclass (IPC) uses per-destination functions of the payoff
difference, phi_j, whose antiderivatives Psi_j feed the Lyapunov
diagnostics.

The contract is array-valued: `rates(xbar, p)` gives the whole switch-rate
matrix, and an impartial protocol's `psi_totals(p)` gives every strategy's
Psi total at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeStayRate

GENERAL = "general"
IPC = "impartial-pairwise-comparison"

# Stay rates down to -STAY_ROUNDOFF * lambda are float roundoff of a row
# whose switch rates sum to exactly lambda, not an exhausted budget.
STAY_ROUNDOFF = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class RevisionProtocol:
    n: int
    rate_budget: float
    # (xbar, payoffs) -> fresh float n x n switch-rate matrix, zero diagonal
    rates: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = GENERAL
    name: str = "custom"
    # IPC only: payoffs -> S with S[i] = sum_k Psi_k(p_k - p_i), where
    # Psi_k(s) = integral_0^s phi_k; None for a protocol that is not impartial
    psi_totals: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def is_impartial(self) -> bool:
        return self.kind == IPC


def smith_protocol(n: int, rate_budget: float) -> RevisionProtocol:
    """Switch toward j at rate max(payoff_j - payoff_i, 0), capped by budget."""
    if rate_budget <= 0:
        raise ValueError("rate budget must be positive")

    def gains(p) -> np.ndarray:
        # entry (i, j) is phi(p_j - p_i) with phi(s) = max(s, 0)
        p = np.asarray(p, dtype=float)
        return np.maximum(p[None, :] - p[:, None], 0.0)

    def psi_totals(p) -> np.ndarray:
        # Psi(s) = max(s, 0)^2 / 2
        d = gains(p)
        return 0.5 * (d * d).sum(axis=1)

    return RevisionProtocol(
        n=n,
        rate_budget=float(rate_budget),
        rates=lambda xbar, p: gains(p),
        kind=IPC,
        name="smith",
        psi_totals=psi_totals,
    )


def null_protocol(n: int, rate_budget: float) -> RevisionProtocol:
    """No switching: every revision keeps the current strategy.

    Not pairwise-comparison (it ignores payoffs entirely); useful for
    isolating the pure stage-relaxation dynamics.
    """
    return RevisionProtocol(
        n=n,
        rate_budget=float(rate_budget),
        rates=lambda xbar, p: np.zeros((n, n)),
        kind=GENERAL,
        name="null",
    )


def switch_rate_matrix(protocol: RevisionProtocol, xbar, payoffs) -> np.ndarray:
    """Full rate matrix with the stay rate on the diagonal.

    The diagonal is computed as budget minus the off-diagonal row sum, so
    rows sum to the budget bitwise.  Raises NegativeStayRate when some row's
    off-diagonal rates exceed the budget by more than roundoff; we never
    clamp, so a roundoff-level negative stay rate is kept as computed.
    """
    T = protocol.rates(xbar, payoffs)
    if T.min() < 0:
        raise ValueError("off-diagonal switch rates must be nonnegative")
    lam = protocol.rate_budget
    stay = lam - T.sum(axis=1)
    worst = int(stay.argmin())
    if stay[worst] < -STAY_ROUNDOFF * lam:
        raise NegativeStayRate(worst, float(stay[worst]))
    T.flat[:: protocol.n + 1] = stay
    return T
