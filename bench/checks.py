"""Output checks, computed apart from the program.

Every reference here is rebuilt from the model's definitions with numpy and
scipy alone; nothing in this file imports erlang_edm.  Each check returns a
list of failure messages, empty when the output is right.

The references:

* the Erlang vector field (Smith switch rates, stage relaxation at rate
  lambda) integrated by DOP853 at rtol 1e-11;
* the congestion game's Nash equilibrium from the linear system
  W x = const, sum x = 1 (all routes are used at equilibrium);
* the Lyapunov function L rebuilt from trajectory rows, with the
  mismatch weight M = M_K (x) I_n taken from the (m-1)-dimensional
  Lyapunov equation K'M_K + M_K K = -I;
* the gain sigma_bar from a frequency sweep of (jwI - K)^-1 e_1, c from
  Smith vertex enumeration, and gamma from the projected eigenvalues of
  -sym(W) in a Helmert basis of the tangent space;
* event logs replayed from the t = 0 counts.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

# Tolerances.  Each sits an order of magnitude above what the method can
# reach, and far below what a corrupted output (a row shifted by one
# sample, a wrong constant, a truncated log) produces.
RK45_TOL = 1e-5  # program rtol 1e-7 / atol 1e-9 over 50 time units
RK4_TOL = 1e-7  # fixed step 1e-3, fourth order
CONGESTION_NASH_TOL = 1e-4
RPS_CENTER_TOL = 5e-3
AGENT_SUP_TOL = 0.05  # deviation of one N = 1e4 run from the mean field
EVENT_COUNT_SIGMAS = 5.0
SIGMA_TOL = 1e-6
PAPER_RPS_LAMBDA_LOWER = 5.7965  # paper, Sec. 6.2


# -- the model --------------------------------------------------------------


def payoff_matrix(doc: dict) -> np.ndarray:
    """W with F(x) = W x for a scenario's game block."""
    game = doc["game"]
    if "matrix" in game:
        return np.asarray(game["matrix"], dtype=float)
    costs = np.asarray(game["congestion"]["link_costs"], dtype=float)
    routes = [set(r) for r in game["congestion"]["routes"]]
    n = len(routes)
    W = np.array([[sum(costs[l - 1] for l in routes[r] & routes[s])
                   for s in range(n)] for r in range(n)])
    return -W  # payoffs are negated route costs


def smith_offdiag(p: np.ndarray) -> np.ndarray:
    """Off-diagonal Smith rates max(p_j - p_i, 0)."""
    return np.maximum(p[None, :] - p[:, None], 0.0)


def initial_grid(doc: dict) -> np.ndarray:
    n, m = doc["params"]["n"], doc["params"]["m"]
    init = doc["initial"]
    if "extended" in init:
        return np.asarray(init["extended"], dtype=float)
    xbar = np.asarray(init["aggregate"], dtype=float)
    if init.get("extension", "uniform") == "uniform":
        return np.repeat(xbar[:, None] / m, m, axis=1)
    grid = np.zeros((n, m))
    grid[:, 0] = xbar
    return grid


def erlang_field(W: np.ndarray, n: int, m: int, lam: float):
    """dx_{i,1} = sum_j x_{j,m} T_ji - lam x_{i,1};
    dx_{i,l} = lam (x_{i,l-1} - x_{i,l}) for l >= 2; T_ii = lam - sum_j T_ij."""

    def f(t, y):
        X = y.reshape(n, m)
        p = W @ X.sum(axis=1)
        T = smith_offdiag(p)
        last = X[:, m - 1]
        out = np.empty((n, m))
        out[:, 0] = T.T @ last + (lam - T.sum(axis=1)) * last - lam * X[:, 0]
        out[:, 1:] = lam * (X[:, :-1] - X[:, 1:])
        return out.ravel()

    return f


def reference_solution(doc: dict, horizon: float):
    """Dense DOP853 solution of the scenario's mean field on [0, horizon]."""
    n, m, lam = doc["params"]["n"], doc["params"]["m"], doc["params"]["lambda"]
    f = erlang_field(payoff_matrix(doc), n, m, lam)
    sol = solve_ivp(f, (0.0, horizon), initial_grid(doc).ravel(), method="DOP853",
                    rtol=1e-11, atol=1e-13, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.sol


def max_smith_outflow(doc: dict, sol, horizon: float, points: int = 2001) -> float:
    """Largest total switch-out rate along the reference trajectory."""
    n, m = doc["params"]["n"], doc["params"]["m"]
    W = payoff_matrix(doc)
    grids = sol(np.linspace(0.0, horizon, points)).T.reshape(-1, n, m)
    return max(float(smith_offdiag(W @ g.sum(axis=1)).sum(axis=1).max())
               for g in grids)


def congestion_nash(W: np.ndarray) -> np.ndarray:
    """Equilibrium with every route used: W x = const * 1, sum x = 1."""
    n = W.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = W
    A[:n, n] = -1.0
    A[n, :n] = 1.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return np.linalg.solve(A, rhs)[:n]


def stage_block(m: int) -> np.ndarray:
    """K of the mismatch dynamics s' = lam (K (x) I) s + (e_1 (x) I) xbar'.

    With s_l = x_l - x_m: s_1' = xbar' - lam (s_1 + s_{m-1}) and
    s_l' = lam (s_{l-1} - s_l - s_{m-1}) for 2 <= l <= m-1.
    """
    K = np.zeros((m - 1, m - 1))
    for l in range(m - 1):
        K[l, l] -= 1.0
        if l > 0:
            K[l, l - 1] += 1.0
        K[l, m - 2] -= 1.0
    return K


def mismatch_weight(m: int) -> np.ndarray:
    """M_K with K'M_K + M_K K = -I; the program's M is M_K (x) I_n."""
    K = stage_block(m)
    return solve_continuous_lyapunov(K.T, -np.eye(m - 1))


def gain(m: int, w) -> np.ndarray:
    """|(jwI - K)^-1 e_1| at each frequency in w."""
    K = stage_block(m)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    mats = 1j * w[:, None, None] * np.eye(m - 1) - K
    e1 = np.zeros((m - 1, 1))
    e1[0] = 1.0
    G = np.linalg.solve(mats, np.broadcast_to(e1, (len(w), m - 1, 1)))
    return np.linalg.norm(G[:, :, 0], axis=1)


def sigma_sup(m: int) -> float:
    """Supremum of the gain over frequencies: log sweep, then golden section."""
    ws = np.concatenate([[0.0], np.logspace(-4, 4, 4001)])
    vals = gain(m, ws)
    k = int(np.argmax(vals))
    a, b = ws[max(k - 1, 0)], ws[min(k + 1, len(ws) - 1)]
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        c, d = b - r * (b - a), a + r * (b - a)
        gc, gd = gain(m, [c, d])
        if gc > gd:
            b = d
        else:
            a = c
    return max(float(vals[k]), float(gain(m, [0.5 * (a + b)])[0]))


def helmert_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of {eta : sum eta = 0}, by columns."""
    H = np.zeros((n, n - 1))
    for k in range(1, n):
        H[:k, k - 1] = 1.0
        H[k, k - 1] = -float(k)
        H[:, k - 1] /= math.sqrt(k * (k + 1))
    return H


def contractivity(W: np.ndarray) -> tuple[float, float]:
    H = helmert_basis(W.shape[0])
    eigs = np.linalg.eigvalsh(H.T @ (-0.5 * (W + W.T)) @ H)
    return float(eigs[0]), float(eigs[-1])


def smith_c(W: np.ndarray) -> float:
    """max over vertices e_k and rows i of sum_j max(W_jk - W_ik, 0)."""
    return max(float(smith_offdiag(W[:, k]).sum(axis=1).max())
               for k in range(W.shape[0]))


# -- file readers -------------------------------------------------------------


def read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def trajectory_header(n: int, m: int) -> list[str]:
    return (["t"] + [f"x_{i + 1}_{l + 1}" for i in range(n) for l in range(m)]
            + [f"xbar_{i + 1}" for i in range(n)] + [f"p_{i + 1}" for i in range(n)])


def split_trajectory(data: np.ndarray, n: int, m: int):
    t = data[:, 0]
    cells = data[:, 1:1 + n * m].reshape(-1, n, m)
    xbar = data[:, 1 + n * m:1 + n * m + n]
    p = data[:, 1 + n * m + n:]
    return t, cells, xbar, p


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fail_if(fails: list, cond: bool, message: str) -> None:
    if cond:
        fails.append(message)


# -- mean field ----------------------------------------------------------------


def check_trajectory(path, doc: dict, sol, tol: float, proportions_of: int | None = None) -> list[str]:
    """Header, time grid, simplex invariants, payoff columns, and (with a
    reference solution) the distance of every sample to it.  With
    proportions_of = N, cells must be multiples of 1/N instead."""
    n, m = doc["params"]["n"], doc["params"]["m"]
    W = payoff_matrix(doc)
    fails: list[str] = []
    header, data = read_table(path)
    name = Path(path).name
    if header != trajectory_header(n, m) or data.shape[1] != len(header):
        return [f"{name}: header {header[:3]}... does not match n={n}, m={m}"]
    t, cells, xbar, p = split_trajectory(data, n, m)
    dt = doc["run"]["sample_dt"]
    _fail_if(fails, len(t) < 2 or t[0] != 0.0
             or float(np.abs(t - dt * np.arange(len(t))).max()) > 1e-9 * max(1.0, t[-1]),
             f"{name}: sample times are not the grid k * {dt}")
    _fail_if(fails, float(cells.min()) < 0.0, f"{name}: negative cell {cells.min():.3g}")
    mass_err = float(np.abs(cells.sum(axis=(1, 2)) - 1.0).max())
    _fail_if(fails, mass_err > 1e-12, f"{name}: mass off by {mass_err:.3g}")
    agg_err = float(np.abs(xbar - cells.sum(axis=2)).max())
    _fail_if(fails, agg_err > 1e-12, f"{name}: xbar columns off by {agg_err:.3g}")
    pay_err = float(np.abs(p - xbar @ W.T).max())
    _fail_if(fails, pay_err > 1e-12 * (1.0 + np.abs(W).max()),
             f"{name}: payoff columns differ from F(xbar) by {pay_err:.3g}")
    if proportions_of is not None:
        counts = cells * proportions_of
        frac_err = float(np.abs(counts - np.rint(counts)).max())
        _fail_if(fails, frac_err > 1e-6,
                 f"{name}: proportions are not multiples of 1/{proportions_of} ({frac_err:.3g})")
    if sol is not None:
        ref = sol(t).T.reshape(-1, n, m)
        err = float(np.abs(cells - ref).max())
        _fail_if(fails, err > tol, f"{name}: {err:.3g} from the DOP853 reference (tol {tol:g})")
    return fails


def check_final_aggregate(path, doc: dict, target: np.ndarray, tol: float, what: str) -> list[str]:
    n, m = doc["params"]["n"], doc["params"]["m"]
    _, data = read_table(path)
    xbar = split_trajectory(data, n, m)[2][-1]
    err = float(np.abs(xbar - target).max())
    if err > tol:
        return [f"{Path(path).name}: final aggregate {np.round(xbar, 6).tolist()} is "
                f"{err:.3g} from {what} (tol {tol:g})"]
    return []


def lyapunov_terms(cells: np.ndarray, W: np.ndarray, alpha: float, MK: np.ndarray) -> np.ndarray:
    """L = sum_i xbar_i sum_j Psi(p_j - p_i) + alpha s'(M_K (x) I)s with
    Psi(s) = max(s, 0)^2 / 2 and s_l = x_l - x_m, for every row."""
    m = cells.shape[2]
    xbar = cells.sum(axis=2)
    p = xbar @ W.T
    adv = np.maximum(p[:, None, :] - p[:, :, None], 0.0)
    psi = 0.5 * (adv * adv).sum(axis=2)
    L = (xbar * psi).sum(axis=1)
    if m > 1:
        S = cells[:, :, : m - 1] - cells[:, :, [m - 1]]  # (rows, n, m-1)
        gram = np.einsum("kil,kiq->klq", S, S)
        L = L + alpha * np.einsum("lq,klq->k", MK, gram)
    return L


def check_lyapunov(lyap_dir, ode_dir, doc: dict, gamma_lower: float) -> list[str]:
    """L against the benchmark's L from the ode rows; dL/dt = -P + Q; P >= 0."""
    n, m = doc["params"]["n"], doc["params"]["m"]
    W = payoff_matrix(doc)
    fails: list[str] = []
    header, lyap = read_table(Path(lyap_dir) / "lyapunov.csv")
    if header != ["t", "L", "P", "Q", "dL_dt_fd"]:
        return [f"lyapunov.csv: unexpected header {header}"]
    summary = json.loads((Path(lyap_dir) / "lyapunov_summary.json").read_text())
    _, ode = read_table(Path(ode_dir) / "ode_trajectory.csv")
    t, cells, _, _ = split_trajectory(ode, n, m)
    if lyap.shape[0] != len(t) or float(np.abs(lyap[:, 0] - t).max()) > 1e-12:
        return ["lyapunov.csv: sample times differ from the ode trajectory"]
    MK = mismatch_weight(m)
    norm_mb = float(np.linalg.norm(MK[:, 0]))
    alpha_auto = 0.25 * (m + 1) * gamma_lower / norm_mb**2
    alpha = float(summary["alpha"])
    _fail_if(fails, abs(alpha - alpha_auto) > 1e-9 * alpha_auto,
             f"lyapunov: alpha {alpha} is not half of alpha_max ({alpha_auto})")
    L_ref = lyapunov_terms(cells, W, alpha_auto, MK)
    L, P, Q, dL = lyap[:, 1], lyap[:, 2], lyap[:, 3], lyap[:, 4]
    err = float((np.abs(L - L_ref) / (1e-9 + np.abs(L_ref))).max())
    _fail_if(fails, err > 1e-6, f"lyapunov: L differs from the rebuilt L by {err:.3g} (relative)")
    resid = float((np.abs(dL + P - Q) / (1.0 + np.abs(P) + np.abs(Q))).max())
    _fail_if(fails, resid > 1e-6, f"lyapunov: dL_dt_fd + P - Q reaches {resid:.3g}")
    _fail_if(fails, float(P.min()) < -1e-12, f"lyapunov: P goes negative ({P.min():.3g})")
    return fails


# -- agents ---------------------------------------------------------------------


def check_agents(outdir, doc: dict, sol) -> tuple[list[str], dict]:
    """Every seed's run against the mean field; returns failures and the
    digest of each seed's CSV for the repeat check."""
    outdir = Path(outdir)
    st = doc["stochastic"]
    n, m, N = doc["params"]["n"], doc["params"]["m"], st["N"]
    fails: list[str] = []
    summary = json.loads((outdir / "agents_summary.json").read_text())
    if summary["seeds"] != st["seeds"] or summary["N"] != N:
        return [f"agents_summary.json: seeds {summary['seeds']} / N {summary['N']} "
                f"do not match the scenario"], {}
    fails += check_trajectory(outdir / "agents_reference.csv", doc, sol, RK45_TOL)
    _, ref_data = read_table(outdir / "agents_reference.csv")
    ref_xbar = split_trajectory(ref_data, n, m)[2]
    reported = {e["seed"]: e["sup_deviation"] for e in summary["per_seed"]}
    digests = {}
    for seed in st["seeds"]:
        path = outdir / f"agents_seed{seed}.csv"
        fails += check_trajectory(path, doc, None, 0.0, proportions_of=N)
        _, data = read_table(path)
        t, _, xbar, _ = split_trajectory(data, n, m)
        mf = sol(t).T.reshape(-1, n, m).sum(axis=2)
        dev = float(np.abs(xbar - mf).max())
        _fail_if(fails, dev > AGENT_SUP_TOL,
                 f"{path.name}: {dev:.3g} from the mean field (tol {AGENT_SUP_TOL})")
        own = float(np.abs(xbar - ref_xbar).max()) if len(xbar) == len(ref_xbar) else math.inf
        _fail_if(fails, abs(own - reported.get(seed, math.nan)) > 1e-12 or not math.isfinite(own),
                 f"{path.name}: summary sup_deviation {reported.get(seed)} != {own}")
        digests[seed] = file_digest(path)
    return fails, digests


def largest_remainder(N: int, grid: np.ndarray) -> np.ndarray:
    flat = grid.ravel()
    base = np.floor(N * flat).astype(np.int64)
    frac = N * flat - base
    order = sorted(range(flat.size), key=lambda k: (-frac[k], k))
    for k in order[: N - int(base.sum())]:
        base[k] += 1
    return base.reshape(grid.shape)


def read_events(path):
    """Columns t, kind (1 = revision), i, l, j (0 when empty) of an event log."""
    text = Path(path).read_bytes()
    header, _, body = text.partition(b"\n")
    if header != b"t,kind,i,l,j":
        raise ValueError(f"unexpected event header {header!r}")
    body = (body.replace(b",stage-advance,", b",0,").replace(b",revision,", b",1,")
            .replace(b",\n", b",0\n"))
    data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != 5:
        raise ValueError("event rows need five columns")
    cols = data[:, 1:].astype(np.int64)
    return data[:, 0], cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]


def check_event_log(outdir, doc: dict, seed: int) -> tuple[list[str], dict]:
    """Event count near lam N H; replaying the log from the t = 0 counts
    reproduces the seed's CSV at every sample.  Also returns the shares of
    revisions per event and switches per revision."""
    outdir = Path(outdir)
    st = doc["stochastic"]
    n, m, N, lam = doc["params"]["n"], doc["params"]["m"], st["N"], doc["params"]["lambda"]
    H = st.get("horizon", doc["run"]["horizon"])
    fails: list[str] = []
    try:
        t, kind, i, l, j = read_events(outdir / f"agents_events_seed{seed}.csv")
    except (ValueError, KeyError, IndexError) as exc:
        return [f"agents_events_seed{seed}.csv: unreadable ({exc})"], {}
    expected = lam * N * H
    count = len(t)
    _fail_if(fails, abs(count - expected) > EVENT_COUNT_SIGMAS * math.sqrt(expected),
             f"event log: {count} events, expected {expected:.0f} +- "
             f"{EVENT_COUNT_SIGMAS:g} sqrt(lam N H)")
    rev = kind == 1
    bad = ((i < 1) | (i > n) | (rev & ((l != m) | (j < 1) | (j > n)))
           | (~rev & ((l < 1) | (l >= m) | (j != 0))))
    if count == 0 or bad.any() or (np.diff(t) < 0).any() or t[0] <= 0 or t[-1] >= H:
        return fails + ["event log: malformed rows or times out of order"], {}
    src = (i - 1) * m + (l - 1)
    dst = np.where(rev, (j - 1) * m, src + 1)
    _, data = read_table(outdir / f"agents_seed{seed}.csv")
    times, cells, _, _ = split_trajectory(data, n, m)
    # an event at time e is seen by every sample s >= e (right-continuous)
    bucket = np.searchsorted(times, t, side="left")
    delta = np.zeros((len(times) + 1, n * m), dtype=np.int64)
    np.add.at(delta, (bucket, src), -1)
    np.add.at(delta, (bucket, dst), 1)
    counts = largest_remainder(N, initial_grid(doc)).ravel() + np.cumsum(delta, axis=0)[:-1]
    err = float(np.abs(counts / N - cells.reshape(len(times), -1)).max())
    _fail_if(fails, err > 1e-12, f"event log: replay differs from agents_seed{seed}.csv by {err:.3g}")
    shares = {"revisions_per_event": float(rev.mean()),
              "switches_per_revision": float((j[rev] != i[rev]).mean())}
    return fails, shares


# -- certificates ---------------------------------------------------------------


def check_stability(path, doc: dict, sigma_cache: dict) -> list[str]:
    """Every constant of the report against its own computation."""
    rep = json.loads(Path(path).read_text())
    n, m, lam = doc["params"]["n"], doc["params"]["m"], doc["params"]["lambda"]
    W = payoff_matrix(doc)
    over = doc.get("analysis") or {}
    fails: list[str] = []
    name = Path(path).parent.name

    def close(key, got, want, rel=1e-9):
        if not (isinstance(got, (int, float)) and abs(got - want) <= rel * (1.0 + abs(want))):
            fails.append(f"{name}: {key} = {got}, expected {want}")

    g_lo, g_up = contractivity(W)
    c = smith_c(W)
    close("literal.gamma_lower", rep["literal"]["gamma_lower"], g_lo)
    close("literal.gamma_upper", rep["literal"]["gamma_upper"], g_up)
    close("literal.c", rep["literal"]["c"], c)
    g_lo = float(over.get("gamma_lower", g_lo))
    g_up = float(over.get("gamma_upper", g_up))
    c = float(over.get("c", c))
    close("gamma_lower", rep["gamma_lower"], g_lo)
    close("gamma_upper", rep["gamma_upper"], g_up)
    close("c", rep["c"], c)
    if m not in sigma_cache:
        sigma_cache[m] = sigma_sup(m)
    if m <= 4:
        # the paper's closed form is the zero-frequency gain
        dc = float(gain(m, [0.0])[0])
        close("sigma_bar (closed form)", rep["sigma_bar"], dc)
        close("sigma_bar (formula)", rep["sigma_bar"], math.sqrt((2 * m * m - 3 * m + 1) / (6 * m)))
        _fail_if(fails, rep["sigma_bar_method"] != "closed-form",
                 f"{name}: sigma_bar_method {rep['sigma_bar_method']!r} for m = {m}")
    else:
        close("sigma_bar (sweep)", rep["sigma_bar"], sigma_cache[m], rel=SIGMA_TOL)
    sigma = float(rep["sigma_bar"])
    lam_lower = 2.0 * c * sigma * math.sqrt(n * g_up / ((m + 1) * g_lo))
    close("lambda_lower", rep["lambda_lower"], lam_lower)
    _fail_if(fails, rep["certified"] != bool(g_lo > 0 and lam > lam_lower),
             f"{name}: certified = {rep['certified']} with lambda {lam}, lambda_lower {lam_lower}")
    _fail_if(fails, (rep["n"], rep["m"], rep["lambda"]) != (n, m, lam),
             f"{name}: report dimensions {(rep['n'], rep['m'], rep['lambda'])}")
    return fails


def check_paper_threshold(path) -> list[str]:
    got = json.loads(Path(path).read_text())["lambda_lower"]
    if abs(got - PAPER_RPS_LAMBDA_LOWER) > 1e-4:
        return [f"rps_sec6_2: lambda_lower {got} differs from the paper's {PAPER_RPS_LAMBDA_LOWER}"]
    return []
