"""Certificates and diagnostics for the Erlang revision dynamics.

The stage-mismatch state obeys a linear system (K kron I_n, e_1 kron I_n)
driven by the aggregate velocity; its gain constant sigma_bar, the
worst-case switch rate c, and the contractivity margins combine into the
revision-rate threshold lambda_lower.  The Lyapunov machinery (matrix M, value L_alpha,
and the P/Q split of dL/dt) provides the runtime checks: P is the
dissipation term, nonnegative by construction, and dL/dt = -P + Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import minimize

from .dynamics import ErlangParams, Trajectory, field_function
from .errors import (
    InvalidOrder,
    NonContractive,
    NotImpartial,
    NumericalFailure,
    OutOfRange,
)
from .games import Game, contractivity_margins, is_potential, sample_simplex
from .protocols import RevisionProtocol, switch_rate_matrix
from .states import ExtendedState, tilde


def stage_coupling(m: int) -> np.ndarray:
    """The (m-1) x (m-1) block K driving the stage-mismatch state.

    -1 on the diagonal (doubled in the last entry by the last column),
    1 on the subdiagonal, -1 down the last column; empty for m = 1.  The
    mismatch system is A = K kron I_n, B = e_1 kron I_n, so every
    certificate object below is built from K and e_1 alone.
    """
    if m < 1:
        raise InvalidOrder(f"m must be >= 1, got {m}")
    K = -np.eye(m - 1)
    if m > 1:
        K += np.eye(m - 1, k=-1)
        K[:, -1] -= 1.0
    return K


def sigma_bar_closed_form(m: int) -> float:
    """DC-gain formula ((2m^2 - 3m + 1)/(6m))^(1/2), valid for m <= 4.

    Equals the true supremum gain for m <= 3; at m = 4 the gain curve
    peaks slightly off zero frequency and this value undershoots the
    supremum by about 7.9e-4 (see sigma_bar_bisection).
    """
    if m < 1 or m > 4:
        raise OutOfRange(f"closed form only covers 1 <= m <= 4, got {m}")
    return math.sqrt((2 * m * m - 3 * m + 1) / (6 * m))


def _gain(K: np.ndarray, w) -> np.ndarray:
    """||(jwI - K)^(-1) e_1|| at each frequency in w, in one batched solve."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    k = K.shape[0]
    lhs = np.repeat(-K[None].astype(complex), w.size, axis=0)
    lhs[:, range(k), range(k)] += 1j * w[:, None]
    e1 = np.eye(k, 1)
    return np.linalg.norm(np.linalg.solve(lhs, e1)[..., 0], axis=-1)


def sigma_sweep(m: int, points: int = 4096) -> float:
    """Dense frequency sweep of the gain of (K, e_1) with golden-section
    refinement of the peak."""
    if m < 2:
        raise InvalidOrder(f"sweep needs m >= 2, got {m}")
    K = stage_coupling(m)
    gain_at = lambda w: float(_gain(K, w)[0])
    ws = np.concatenate([[0.0], np.logspace(-3, 3, points)])
    vals = _gain(K, ws)
    k = int(np.argmax(vals))
    lo = ws[max(k - 1, 0)]
    hi = ws[min(k + 1, len(ws) - 1)]
    best = float(vals[k])
    if hi > lo:
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = gain_at(c), gain_at(d)
        for _ in range(200):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = gain_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = gain_at(d)
            if b - a < 1e-13 * max(1.0, b):
                break
        best = max(best, fc, fd)
    return best


def _hamiltonian_has_imag_eig(K: np.ndarray, gamma: float) -> bool:
    k = K.shape[0]
    R = np.zeros((k, k))
    R[0, 0] = 1.0 / gamma**2  # e_1 e_1' / gamma^2
    H = np.block([
        [K, R],
        [-np.eye(k), -K.T],
    ])
    eigs = np.linalg.eigvals(H)
    if not np.all(np.isfinite(eigs)):
        raise NumericalFailure("Hamiltonian eigenvalues did not converge")
    return bool(np.any(np.abs(eigs.real) < 1e-9 * (1.0 + np.abs(eigs.imag))))


def sigma_bar_bisection(n: int, m: int, tol: float = 1e-8) -> float:
    """Supremum over frequencies of the largest singular value of
    (jwI - A)^(-1) B, to within tol.

    That matrix is ((jwI - K)^(-1) e_1) kron I_n, whose largest singular
    value is the norm of the vector factor, so the gain depends on m alone:
    n is checked and otherwise unused.

    Bisection on the gain level using the imaginary-axis-eigenvalue test of
    the associated Hamiltonian matrix: the test matrix has an imaginary
    eigenvalue exactly when the level is below the norm.  A dense frequency
    sweep cross-checks the result and serves as the fallback if the
    eigenvalue solves fail.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise InvalidOrder(f"bisection needs m >= 2, got {m}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    K = stage_coupling(m)
    try:
        lower = float(_gain(K, [0.0, 1.0 / np.linalg.norm(K, 2)]).max())
        upper = 2.0 * np.linalg.norm(np.linalg.inv(K), 2)  # ||e_1|| = 1
        if upper <= lower:
            upper = 2.0 * lower
        while _hamiltonian_has_imag_eig(K, upper):
            upper *= 2.0
        while upper - lower > tol:
            mid = 0.5 * (lower + upper)
            if _hamiltonian_has_imag_eig(K, mid):
                lower = mid
            else:
                upper = mid
        value = 0.5 * (lower + upper)
    except NumericalFailure:
        return sigma_sweep(m)
    check = sigma_sweep(m, points=1024)
    if check > value + 10.0 * tol + 1e-12:
        raise NumericalFailure(
            f"bisection value {value} misses sweep lower bound {check}"
        )
    return value


def _worst_row_rate(game: Game, protocol: RevisionProtocol, xi: np.ndarray) -> float:
    p = np.asarray(game.payoff(xi), dtype=float)
    off = protocol.rates(xi, p)
    return float(off.sum(axis=1).max())


def default_c_method(game: Game, protocol: RevisionProtocol) -> str:
    """Exact vertex enumeration applies when the switch-rate objective is
    convex: linear payoffs composed with the Smith protocol's max()."""
    if game.linear and protocol.name == "smith":
        return "vertex-exact"
    return "sampled-lower-bound"


def compute_c(
    game: Game,
    protocol: RevisionProtocol,
    method: str = "auto",
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst-case total switch-out rate over strategies and simplex states.

    method "vertex" enumerates simplex vertices (exact for convex
    objectives); "sample" draws Dirichlet points and polishes the best ten
    with Nelder-Mead in softmax coordinates, yielding a lower bound;
    "auto" picks per default_c_method.
    """
    if method == "auto":
        method = "vertex" if default_c_method(game, protocol) == "vertex-exact" else "sample"
    n = game.n
    if method == "vertex":
        best = 0.0
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            best = max(best, _worst_row_rate(game, protocol, e))
        return best
    if method != "sample":
        raise ValueError(f"unknown method {method!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    pts = sample_simplex(n, samples, rng)
    vals = np.array([_worst_row_rate(game, protocol, xi) for xi in pts])
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])

    def neg_objective(y: np.ndarray) -> float:
        e = np.exp(y - y.max())
        return -_worst_row_rate(game, protocol, e / e.sum())

    for idx in order[:10]:
        y0 = np.log(np.maximum(pts[idx], 1e-12))
        res = minimize(neg_objective, y0, method="Nelder-Mead",
                       options={"maxiter": 400, "xatol": 1e-8, "fatol": 1e-10})
        best = max(best, -float(res.fun))
    return best


def lambda_lower_bound(
    gamma_upper: float,
    gamma_lower: float,
    c: float,
    sigma_bar: float,
    n: int,
    m: int,
) -> float:
    """Revision-rate threshold 2 c sigma_bar (n gamma_upper / ((m+1) gamma_lower))^(1/2)."""
    if gamma_lower <= 0:
        raise NonContractive(f"gamma_lower must be positive, got {gamma_lower}")
    if min(gamma_upper, c, sigma_bar) < 0:
        raise ValueError("gamma_upper, c and sigma_bar must be nonnegative")
    return 2.0 * c * sigma_bar * math.sqrt(n * gamma_upper / ((m + 1) * gamma_lower))


def solve_lyapunov(m: int) -> np.ndarray:
    """Symmetric positive-definite M_K with K'M_K + M_K K = -I, residual
    <= 1e-10; empty for m = 1.  M = M_K kron I_n solves it for A = K kron
    I_n.  The positive-definite check also guards that K is Hurwitz.
    """
    K = stage_coupling(m)
    if m == 1:
        return np.zeros((0, 0))
    eye = np.eye(m - 1)
    M = solve_continuous_lyapunov(K.T, -eye)
    M = 0.5 * (M + M.T)
    residual = np.linalg.norm(K.T @ M + M @ K + eye, 2)
    if not np.isfinite(residual) or residual > 1e-10:
        raise NumericalFailure(f"Lyapunov residual {residual:.3e} exceeds 1e-10")
    if np.linalg.eigvalsh(M).min() <= 0:
        raise NumericalFailure("Lyapunov solution not positive definite")
    return M


def alpha_max(m: int, gamma_lower: float, M: np.ndarray) -> float:
    """Upper end (m+1) gamma_lower / (2 ||MB||_2^2) of the admissible
    weighting interval; +inf when m = 1 (no mismatch term exists).  With
    M = M_K from solve_lyapunov, ||MB||_2 is the norm of M_K e_1.
    """
    if gamma_lower <= 0:
        raise NonContractive(f"gamma_lower must be positive, got {gamma_lower}")
    if m == 1:
        return math.inf
    return (m + 1) * gamma_lower / (2.0 * np.linalg.norm(M[:, 0]) ** 2)


def _grid_of(x) -> np.ndarray:
    return x.grid if isinstance(x, ExtendedState) else np.asarray(x, dtype=float)


def lyapunov_value(x, p, alpha: float, protocol: RevisionProtocol, M: np.ndarray) -> float:
    """L_alpha = sum_i xbar_i sum_j Psi_j(p_j - p_i) + alpha xt' M xt.

    With M = M_K from solve_lyapunov and D' the mismatch blocks of `tilde`,
    the mismatch term is sum(M_K * D'D).  Zero exactly on the
    extended-equilibrium set of the game that produced the payoffs;
    requires an impartial protocol (the Psi_j exist).
    """
    if not protocol.is_impartial:
        raise NotImpartial(f"protocol {protocol.name!r} is not impartial")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    g = _grid_of(x)
    pv = np.asarray(getattr(p, "entries", p), dtype=float)
    Dt = tilde(g).blocks
    value = float(g.sum(axis=1) @ protocol.psi_totals(pv))
    return value + alpha * float(np.sum(M * (Dt @ Dt.T)))


def pq_decomposition(
    x,
    game: Game,
    protocol: RevisionProtocol,
    params: ErlangParams,
    alpha: float,
    M: np.ndarray,
) -> tuple[float, float]:
    """Split dL_alpha/dt = -P + Q along the dynamics.

    P = alpha lambda ||D||_F^2 + sum_{i != j} T_ji x_{j,m} (S(j) - S(i))
    with D and S as in lyapunov_value; both parts are nonnegative for any
    game, because switches only run from lower to higher payoffs and Psi
    totals order the same way.  Q collects the payoff-velocity terms
    m xbardot' pdot + (phi D 1)' pdot + 2 alpha xbardot' D M_K e_1 with phi
    the generator of the aggregate flow; the identity relies on M_K solving
    the Lyapunov equation for K.  Contractivity is not checked here; it
    only sharpens how negative Q eventually becomes.
    """
    if not protocol.is_impartial:
        raise NotImpartial(f"protocol {protocol.name!r} is not impartial")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    g = _grid_of(x)
    n, m = g.shape
    lam = params.lam
    xbar = g.sum(axis=1)
    p = np.asarray(game.payoff(xbar), dtype=float)
    T = switch_rate_matrix(protocol, xbar, p)
    phi_net = T.T - lam * np.eye(n)  # generator of the aggregate flow
    z = g[:, m - 1]
    xbardot = phi_net @ z
    pdot = np.asarray(game.jacobian(xbar), dtype=float) @ xbardot

    S = protocol.psi_totals(p)
    offsum = lam - np.diag(T)
    phi_od = phi_net - np.diag(np.diag(phi_net))
    Dt = tilde(g).blocks
    P = alpha * lam * float(np.vdot(Dt, Dt)) + float((offsum * S) @ z) - float(S @ (phi_od @ z))

    Q = m * float(xbardot @ pdot) + float((phi_net @ Dt.sum(axis=0)) @ pdot)
    # M[:1] is e_1' M_K as a row, empty when m = 1
    Q += 2.0 * alpha * float(np.sum(M[:1] @ (Dt @ xbardot)))
    return P, Q


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    L: float
    P: float
    Q: float
    dL_dt_fd: float


def lyapunov_series(
    traj: Trajectory,
    game: Game,
    protocol: RevisionProtocol,
    params: ErlangParams,
    alpha: float,
    M: np.ndarray,
    times=None,
    fd_step: float = 1e-4,
) -> list[LyapunovSample]:
    """L, P, Q and a finite-difference dL/dt at chosen trajectory times.

    The derivative is a central difference of L along the field direction,
    (L(y + h f(y)) - L(y - h f(y))) / 2h with h = fd_step: one field
    evaluation per sample, an O(h^2) error, and no use of the P/Q formulas,
    so dL_dt_fd + P - Q checks them independently.
    """
    times = traj.times if times is None else np.asarray(times, dtype=float)
    f = field_function(game, protocol, params)

    def value_at(y: np.ndarray) -> float:
        grid = y.reshape(params.n, params.m)
        p = np.asarray(game.payoff(grid.sum(axis=1)), dtype=float)
        return lyapunov_value(grid, p, alpha, protocol, M)

    out = []
    for t, grid in zip(times, traj.interp_raw(times)):
        y = grid.ravel()
        P, Q = pq_decomposition(grid, game, protocol, params, alpha, M)
        step = fd_step * f(float(t), y)
        out.append(LyapunovSample(
            t=float(t), L=value_at(y), P=P, Q=Q,
            dL_dt_fd=(value_at(y + step) - value_at(y - step)) / (2.0 * fd_step),
        ))
    return out


def write_lyapunov_csv(path, samples: list[LyapunovSample]) -> None:
    fmt = lambda v: format(float(v), ".17g")
    with open(path, "w") as fh:
        fh.write("t,L,P,Q,dL_dt_fd\n")
        for s in samples:
            fh.write(",".join(fmt(v) for v in (s.t, s.L, s.P, s.Q, s.dL_dt_fd)) + "\n")


@dataclass
class StabilityReport:
    gamma_lower: float
    gamma_upper: float
    c: float
    c_method: str
    sigma_bar: float
    sigma_bar_method: str
    lambda_lower: float
    alpha_max: float
    m: int
    n: int
    lam: float
    certified: bool
    is_potential: bool
    literal_gamma_lower: float
    literal_gamma_upper: float
    literal_c: float

    def to_dict(self) -> dict:
        return {
            "gamma_lower": self.gamma_lower,
            "gamma_upper": self.gamma_upper,
            "c": self.c,
            "c_method": self.c_method,
            "sigma_bar": self.sigma_bar,
            "sigma_bar_method": self.sigma_bar_method,
            "lambda_lower": self.lambda_lower,
            "alpha_max": self.alpha_max,
            "m": self.m,
            "n": self.n,
            "lambda": self.lam,
            "certified": self.certified,
            "is_potential": self.is_potential,
            "literal": {
                "gamma_lower": self.literal_gamma_lower,
                "gamma_upper": self.literal_gamma_upper,
                "c": self.literal_c,
            },
        }


def stability_report(
    game: Game,
    protocol: RevisionProtocol,
    params: ErlangParams,
    overrides: dict | None = None,
    margin_samples: int = 10_000,
    c_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> StabilityReport:
    """Full certificate: margins, c, sigma_bar, threshold, alpha interval.

    Literal margins and c are always computed; entries of `overrides`
    (gamma_lower, gamma_upper, c) replace them in the derived quantities,
    covering conventions that differ from the unit-norm tangent one.  The
    gain constant uses the closed form for m <= 4 and bisection beyond.
    Raises NonContractive when the effective gamma_lower is not positive.
    """
    overrides = dict(overrides or {})
    margins = contractivity_margins(game, samples=margin_samples, rng=rng)
    c_method = default_c_method(game, protocol)
    c_literal = compute_c(game, protocol, method="auto", samples=c_samples, rng=rng)

    g_lo = float(overrides.get("gamma_lower", margins.gamma_lower))
    g_up = float(overrides.get("gamma_upper", margins.gamma_upper))
    c_eff = float(overrides.get("c", c_literal))
    if "c" in overrides:
        c_method = "override"

    if params.m <= 4:
        sigma = sigma_bar_closed_form(params.m)
        sigma_method = "closed-form"
    else:
        sigma = sigma_bar_bisection(params.n, params.m, tol=1e-8)
        sigma_method = "bisection"

    lam_lower = lambda_lower_bound(g_up, g_lo, c_eff, sigma, params.n, params.m)
    a_max = alpha_max(params.m, g_lo, solve_lyapunov(params.m))
    certified = bool(protocol.is_impartial and g_lo > 0 and params.lam > lam_lower)
    return StabilityReport(
        gamma_lower=g_lo,
        gamma_upper=g_up,
        c=c_eff,
        c_method=c_method,
        sigma_bar=sigma,
        sigma_bar_method=sigma_method,
        lambda_lower=lam_lower,
        alpha_max=a_max,
        m=params.m,
        n=params.n,
        lam=params.lam,
        certified=certified,
        is_potential=is_potential(game),
        literal_gamma_lower=margins.gamma_lower,
        literal_gamma_upper=margins.gamma_upper,
        literal_c=c_literal,
    )
