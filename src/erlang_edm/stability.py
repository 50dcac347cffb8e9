"""Certificates and diagnostics for the Erlang revision dynamics.

The stage-mismatch state obeys a linear system (A, B) driven by the
aggregate velocity; its gain constant sigma_bar, the worst-case switch
rate c, and the contractivity margins combine into the revision-rate
threshold lambda_lower.  The Lyapunov machinery (matrix M, value L_alpha,
and the P/Q split of dL/dt) provides the runtime checks: P is the
dissipation term, nonnegative by construction, and dL/dt = -P + Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import minimize

from .dynamics import ErlangParams, Trajectory, field_function, rk4_step
from .errors import (
    InvalidOrder,
    NonContractive,
    NotImpartial,
    NumericalFailure,
    OutOfRange,
)
from .games import Game, contractivity_margins, is_potential, sample_simplex
from .protocols import RevisionProtocol, switch_rate_matrix
from .states import ExtendedState


@dataclass(frozen=True)
class SystemMatrices:
    a: np.ndarray  # n(m-1) x n(m-1)
    b: np.ndarray  # n(m-1) x n
    n: int
    m: int


def stage_coupling(m: int) -> np.ndarray:
    """The (m-1) x (m-1) block K driving the stage-mismatch state.

    -1 on the diagonal (doubled in the last entry by the last column),
    1 on the subdiagonal, -1 down the last column.
    """
    K = -np.eye(m - 1)
    if m > 2:
        K += np.diag(np.ones(m - 2), -1)
    K[:, -1] -= 1.0
    return K


def build_system_matrices(n: int, m: int) -> SystemMatrices:
    """A = K kron I_n, B = e_1 kron I_n; empty for m = 1.

    The mismatch state evolves as d/dt xt = lambda A xt + B u with u the
    aggregate velocity.  A is verified Hurwitz at construction.
    """
    if m < 1:
        raise InvalidOrder(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m == 1:
        return SystemMatrices(a=np.zeros((0, 0)), b=np.zeros((0, n)), n=n, m=m)
    A = np.kron(stage_coupling(m), np.eye(n))
    e1 = np.zeros((m - 1, 1))
    e1[0, 0] = 1.0
    B = np.kron(e1, np.eye(n))
    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise NumericalFailure(f"A not Hurwitz for n={n}, m={m}")
    return SystemMatrices(a=A, b=B, n=n, m=m)


def sigma_bar_closed_form(m: int) -> float:
    """DC-gain formula ((2m^2 - 3m + 1)/(6m))^(1/2), valid for m <= 4.

    Equals the true supremum gain for m <= 3; at m = 4 the gain curve
    peaks slightly off zero frequency and this value undershoots the
    supremum by about 7.9e-4 (see sigma_bar_bisection).
    """
    if m < 1 or m > 4:
        raise OutOfRange(f"closed form only covers 1 <= m <= 4, got {m}")
    return math.sqrt((2 * m * m - 3 * m + 1) / (6 * m))


def _sigma_at(A: np.ndarray, B: np.ndarray, w: float) -> float:
    N = A.shape[0]
    G = np.linalg.solve(1j * w * np.eye(N) - A, B)
    return float(np.linalg.svd(G, compute_uv=False)[0])


def sigma_sweep(A: np.ndarray, B: np.ndarray, points: int = 4096) -> float:
    """Dense frequency sweep with golden-section refinement of the peak."""
    ws = np.concatenate([[0.0], np.logspace(-3, 3, points)])
    vals = np.array([_sigma_at(A, B, w) for w in ws])
    k = int(np.argmax(vals))
    lo = ws[max(k - 1, 0)]
    hi = ws[min(k + 1, len(ws) - 1)]
    best = float(vals[k])
    if hi > lo:
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = _sigma_at(A, B, c), _sigma_at(A, B, d)
        for _ in range(200):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = _sigma_at(A, B, c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = _sigma_at(A, B, d)
            if b - a < 1e-13 * max(1.0, b):
                break
        best = max(best, fc, fd)
    return best


def _hamiltonian_has_imag_eig(A: np.ndarray, B: np.ndarray, gamma: float) -> bool:
    N = A.shape[0]
    H = np.block([
        [A, (B @ B.T) / gamma**2],
        [-np.eye(N), -A.T],
    ])
    eigs = np.linalg.eigvals(H)
    if not np.all(np.isfinite(eigs)):
        raise NumericalFailure("Hamiltonian eigenvalues did not converge")
    return bool(np.any(np.abs(eigs.real) < 1e-9 * (1.0 + np.abs(eigs.imag))))


def sigma_bar_bisection(n: int, m: int, tol: float = 1e-8) -> float:
    """Supremum over frequencies of the largest singular value of
    (jwI - A)^(-1) B, to within tol.

    Bisection on the gain level using the imaginary-axis-eigenvalue test of
    the associated Hamiltonian matrix: the test matrix has an imaginary
    eigenvalue exactly when the level is below the norm.  A dense frequency
    sweep cross-checks the result and serves as the fallback if the
    eigenvalue solves fail.
    """
    if m < 2:
        raise InvalidOrder(f"bisection needs m >= 2, got {m}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    sysm = build_system_matrices(n, m)
    A, B = sysm.a, sysm.b
    try:
        lower = max(_sigma_at(A, B, 0.0), _sigma_at(A, B, 1.0 / np.linalg.norm(A, 2)))
        upper = 2.0 * np.linalg.norm(B, 2) * np.linalg.norm(np.linalg.inv(A), 2)
        if upper <= lower:
            upper = 2.0 * lower
        while _hamiltonian_has_imag_eig(A, B, upper):
            upper *= 2.0
        while upper - lower > tol:
            mid = 0.5 * (lower + upper)
            if _hamiltonian_has_imag_eig(A, B, mid):
                lower = mid
            else:
                upper = mid
        value = 0.5 * (lower + upper)
    except NumericalFailure:
        return sigma_sweep(A, B)
    check = sigma_sweep(A, B, points=1024)
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


def solve_lyapunov(sysmat: SystemMatrices) -> np.ndarray:
    """Symmetric positive-definite M with A'M + MA = -I, residual <= 1e-10."""
    if sysmat.m == 1:
        return np.zeros((0, 0))
    A = sysmat.a
    M = solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
    M = 0.5 * (M + M.T)
    residual = np.linalg.norm(A.T @ M + M @ A + np.eye(A.shape[0]), 2)
    if not np.isfinite(residual) or residual > 1e-10:
        raise NumericalFailure(f"Lyapunov residual {residual:.3e} exceeds 1e-10")
    if np.linalg.eigvalsh(M).min() <= 0:
        raise NumericalFailure("Lyapunov solution not positive definite")
    return M


def alpha_max(m: int, gamma_lower: float, M: np.ndarray, B: np.ndarray) -> float:
    """Upper end (m+1) gamma_lower / (2 ||MB||_2^2) of the admissible
    weighting interval; +inf when m = 1 (no mismatch term exists)."""
    if gamma_lower <= 0:
        raise NonContractive(f"gamma_lower must be positive, got {gamma_lower}")
    if m == 1 or M.size == 0:
        return math.inf
    norm_mb = np.linalg.norm(M @ B, 2)
    return (m + 1) * gamma_lower / (2.0 * norm_mb**2)


def _grid_of(x) -> np.ndarray:
    return x.grid if isinstance(x, ExtendedState) else np.asarray(x, dtype=float)


def lyapunov_value(x, p, alpha: float, protocol: RevisionProtocol, M: np.ndarray) -> float:
    """L_alpha = sum_i xbar_i sum_j Psi_j(p_j - p_i) + alpha xt' M xt.

    Zero exactly on the extended-equilibrium set of the game that produced
    the payoffs; requires an impartial protocol (the Psi_j exist).
    """
    if not protocol.is_impartial:
        raise NotImpartial(f"protocol {protocol.name!r} is not impartial")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    g = _grid_of(x)
    pv = np.asarray(getattr(p, "entries", p), dtype=float)
    m = g.shape[1]
    xbar = g.sum(axis=1)
    S = protocol.psi_totals(pv)
    value = float(xbar @ S)
    if m > 1:
        s = (g[:, : m - 1] - g[:, [m - 1]]).T.ravel()
        value += alpha * float(s @ M @ s)
    return value


def pq_decomposition(
    x,
    game: Game,
    protocol: RevisionProtocol,
    params: ErlangParams,
    alpha: float,
    M: np.ndarray,
    B: np.ndarray,
) -> tuple[float, float]:
    """Split dL_alpha/dt = -P + Q along the dynamics.

    P = alpha lambda ||xt||^2 + sum_{i != j} T_ji x_{j,m} (S(j) - S(i))
    with S as in lyapunov_value; both parts are nonnegative for any game,
    because switches only run from lower to higher payoffs and Psi totals
    order the same way.  Q collects the payoff-velocity terms
    m xbardot' pdot + sum_l ddelta_l' pdot + 2 alpha xt' M B xbardot with
    ddelta_l the net-flow image of the l-th mismatch block; the identity
    relies on M solving the Lyapunov equation for A.  Contractivity is not
    checked here; it only sharpens how negative Q eventually becomes.
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
    if m > 1:
        s = (g[:, : m - 1] - g[:, [m - 1]]).T.ravel()
    else:
        s = np.zeros(0)
    P = alpha * lam * float(s @ s) + float((offsum * S) @ z) - float(S @ (phi_od @ z))

    Q = m * float(xbardot @ pdot)
    if m > 1:
        blocks = g[:, : m - 1] - g[:, [m - 1]]  # columns are mismatch blocks
        ddelta_sum = phi_net @ blocks.sum(axis=1)
        Q += float(ddelta_sum @ pdot)
        Q += 2.0 * alpha * float(s @ (M @ (B @ xbardot)))
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
    B: np.ndarray,
    times=None,
    fd_step: float = 1e-4,
) -> list[LyapunovSample]:
    """L, P, Q and a finite-difference dL/dt at chosen trajectory times.

    The derivative uses one short integrator step forward and backward from
    the sampled state rather than differencing the dense interpolant; the
    local truncation error is far below the interpolant's noise floor.
    """
    times = traj.times if times is None else np.asarray(times, dtype=float)
    f = field_function(game, protocol, params)
    out = []
    for t, grid in zip(times, traj.interp_raw(times)):
        y = grid.ravel()
        p = np.asarray(game.payoff(grid.sum(axis=1)), dtype=float)
        L = lyapunov_value(grid, p, alpha, protocol, M)
        P, Q = pq_decomposition(grid, game, protocol, params, alpha, M, B)
        y_plus = rk4_step(f, float(t), y, fd_step)
        y_minus = rk4_step(f, float(t), y, -fd_step)
        gp = y_plus.reshape(params.n, params.m)
        gm = y_minus.reshape(params.n, params.m)
        Lp = lyapunov_value(gp, np.asarray(game.payoff(gp.sum(axis=1)), dtype=float), alpha, protocol, M)
        Lm = lyapunov_value(gm, np.asarray(game.payoff(gm.sum(axis=1)), dtype=float), alpha, protocol, M)
        out.append(LyapunovSample(
            t=float(t), L=L, P=P, Q=Q, dL_dt_fd=(Lp - Lm) / (2.0 * fd_step),
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
    matrix_m: np.ndarray
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
    sysm = build_system_matrices(params.n, params.m)
    M = solve_lyapunov(sysm)
    a_max = alpha_max(params.m, g_lo, M, sysm.b)
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
        matrix_m=M,
        literal_gamma_lower=margins.gamma_lower,
        literal_gamma_upper=margins.gamma_upper,
        literal_c=c_literal,
    )
