"""Mean-field dynamics: the Erlang revision vector field and its integration.

Each strategy's mass is spread over m stages.  Stage-one mass is fed by
revisions (agents finishing stage m pick a destination via the protocol's
rate matrix, including the stay rate on the diagonal) and drained at rate
lambda; later stages relax toward their predecessors at rate lambda.  With
m = 1 this reduces to the classical single-clock dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45, OdeSolution

from .errors import StepFailure
from .games import Game
from .protocols import RevisionProtocol, switch_rate_matrix
from .states import DRIFT_TOL, ExtendedState, ene_residual, extended_state, ne_residual

# Early-stop rule: stop once the equilibrium residual stays below this for
# one full time unit.  Horizon default matches the bundled scenarios.
EARLY_STOP_RESIDUAL = 1e-6
EARLY_STOP_WINDOW = 1.0
DEFAULT_HORIZON = 50.0


@dataclass(frozen=True)
class ErlangParams:
    n: int
    m: int
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class SolverOptions:
    method: str = "rk45"  # "rk45" adaptive | "rk4" fixed step
    rtol: float = 1e-7
    atol: float = 1e-9
    step: float = 1e-3  # rk4 only


def _as_grid(x, params: ErlangParams) -> np.ndarray:
    g = x.grid if isinstance(x, ExtendedState) else np.asarray(x, dtype=float)
    if g.shape != (params.n, params.m):
        g = g.reshape(params.n, params.m)
    return g


def field_function(game: Game, protocol: RevisionProtocol, params: ErlangParams):
    """Right-hand side f(t, y) on flat state vectors, for the integrators."""
    n, m, lam = params.n, params.m, params.lam

    def f(t: float, y: np.ndarray) -> np.ndarray:
        X = y.reshape(n, m)
        xbar = X.sum(axis=1)
        p = np.asarray(game.payoff(xbar), dtype=float)
        T = switch_rate_matrix(protocol, xbar, p)
        out = np.empty_like(X)
        out[:, 0] = T.T @ X[:, m - 1] - lam * X[:, 0]
        if m > 1:
            out[:, 1:] = lam * (X[:, : m - 1] - X[:, 1:])
        return out.ravel()

    return f


def vector_field(game: Game, protocol: RevisionProtocol, params: ErlangParams, x) -> np.ndarray:
    """Time derivative of the extended state, flattened strategy-major.

    Stage-one components are sum_j x_{j,m} T_{j,i} - lambda x_{i,1} (the
    rate matrix includes its diagonal); stage l >= 2 components are
    lambda (x_{i,l-1} - x_{i,l}).  Components sum to zero because rows of
    the rate matrix sum to lambda.
    """
    if game.n != params.n or protocol.n != params.n:
        raise ValueError("game/protocol dimension does not match params.n")
    if protocol.rate_budget != params.lam:
        raise ValueError("protocol rate budget must equal params.lam")
    g = _as_grid(x, params)
    return field_function(game, protocol, params)(0.0, g.ravel())


def _clip(g: np.ndarray) -> np.ndarray:
    c = np.maximum(g, 0.0)
    return c / c.sum()


@dataclass
class Trajectory:
    """Sampled solution plus the raw accepted-step record.

    `raw` keeps solver output before clipping so invariance diagnostics can
    inspect roundoff; `states()` applies the output policy (clip negatives
    to zero, renormalize) and validates at the drift tolerance.
    """

    times: np.ndarray  # sample grid, shape (k,)
    raw: np.ndarray  # shape (k, n, m), pre-clip
    step_times: np.ndarray  # accepted solver steps
    step_raw: np.ndarray  # states at accepted steps, pre-clip
    params: ErlangParams
    method: str
    stopped_early: bool = False
    meta: dict = field(default_factory=dict)
    # RK45 dense output over all steps; None for the fixed-step record
    _solution: OdeSolution | None = field(default=None, repr=False)

    @property
    def accepted_steps(self) -> int:
        return len(self.step_times)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def states(self) -> list[ExtendedState]:
        return [extended_state(_clip(g), tol=DRIFT_TOL) for g in self.raw]

    def state_at(self, k: int) -> ExtendedState:
        return extended_state(_clip(self.raw[k]), tol=DRIFT_TOL)

    def interp_raw(self, t) -> np.ndarray:
        """Raw state at a time, or states at an array of times, inside the
        integrated span: the solver's dense output for RK45, linear
        interpolation between steps for the fixed-step record."""
        t = np.asarray(t, dtype=float)
        ts = self.step_times
        if t.size and (t.min() < ts[0] or t.max() > ts[-1] + 1e-12):
            raise ValueError(f"t={t} outside the integrated span")
        if self._solution is not None:
            y = np.moveaxis(self._solution(t), 0, -1)
            return y.reshape(t.shape + (self.params.n, self.params.m))
        k = np.clip(np.searchsorted(ts, t), 1, len(ts) - 1)
        w = np.minimum((t - ts[k - 1]) / (ts[k] - ts[k - 1]), 1.0)[..., None, None]
        return (1 - w) * self.step_raw[k - 1] + w * self.step_raw[k]


def rk4_step(f, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk45_steps(f, y0, horizon, opts):
    """Accepted steps of one RK45 run: (t, y, dense interpolant)."""
    rk = RK45(f, 0.0, y0, horizon, rtol=opts.rtol, atol=opts.atol)
    while rk.status == "running":
        message = rk.step()
        if rk.status == "failed":
            raise StepFailure(message)
        yield rk.t, rk.y, rk.dense_output()


def _rk4_steps(f, y0, horizon, opts):
    h = opts.step
    y = y0
    for k in range(1, int(round(horizon / h)) + 1):
        y = rk4_step(f, (k - 1) * h, y, h)
        yield k * h, y, None


def integrate(
    game: Game,
    protocol: RevisionProtocol,
    params: ErlangParams,
    x0,
    horizon: float = DEFAULT_HORIZON,
    solver: SolverOptions | None = None,
    sample_dt: float = 0.05,
    early_stop: bool = True,
) -> Trajectory:
    """Integrate the revision dynamics from x0 over [0, horizon].

    Adaptive embedded Runge-Kutta 4(5) by default, stepped in one pass over
    the whole span, with a fixed-step RK4 option for bitwise-reproducible
    runs.  The early-stop rule (equilibrium residual below 1e-6 for a full
    time unit) is checked at every accepted step, so a stopped run ends at
    that step's time.  Negative roundoff entries are clipped and
    renormalized only when states are materialized, never inside the
    stepper.
    """
    if solver is None:
        solver = SolverOptions()
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    steppers = {"rk45": _rk45_steps, "rk4": _rk4_steps}
    if solver.method not in steppers:
        raise ValueError(f"unknown solver method {solver.method!r}")
    x0 = extended_state(_as_grid(x0, params))
    f = field_function(game, protocol, params)
    y0 = x0.grid.ravel().copy()

    step_times, step_states, interpolants = [0.0], [y0], []
    low_since: float | None = None
    t_end, stopped = horizon, False
    for t, y, dense in steppers[solver.method](f, y0, horizon, solver):
        step_times.append(t)
        step_states.append(y)
        if dense is not None:
            interpolants.append(dense)
        if not early_stop:
            continue
        if ene_residual(game, y.reshape(params.n, params.m)) >= EARLY_STOP_RESIDUAL:
            low_since = None
        elif low_since is None:
            low_since = t
        elif t - low_since >= EARLY_STOP_WINDOW:
            t_end, stopped = t, True
            break

    grid = np.arange(0.0, t_end + sample_dt * 1e-9, sample_dt)
    if grid[-1] < t_end - sample_dt * 1e-9:
        grid = np.append(grid, t_end)

    step_times = np.array(step_times)
    traj = Trajectory(
        times=grid,
        raw=np.empty(0),
        step_times=step_times,
        step_raw=np.array(step_states).reshape(len(step_times), params.n, params.m),
        params=params,
        method=solver.method,
        stopped_early=stopped,
        meta={"rtol": solver.rtol, "atol": solver.atol, "step": solver.step},
        _solution=OdeSolution(step_times, interpolants) if interpolants else None,
    )
    traj.raw = traj.interp_raw(grid)
    return traj


@dataclass
class ConvergenceReport:
    times: np.ndarray
    ne_residuals: np.ndarray
    ene_residuals: np.ndarray
    final_ne_residual: float
    final_ene_residual: float
    # potential diagnostics at accepted steps, when the game carries one
    potential_times: np.ndarray | None = None
    potential_values: np.ndarray | None = None
    potential_monotone: bool | None = None
    monotone_tol: float = 1e-8


def convergence_report(traj: Trajectory, game: Game) -> ConvergenceReport:
    """Residual series at the samples; potential monotonicity at the steps.

    The potential check uses accepted solver steps (the finest record) and
    flags whether each increment stays above -monotone_tol.
    """
    ne = np.array([ne_residual(game, g.sum(axis=1)) for g in traj.raw])
    ene = np.array([ene_residual(game, g) for g in traj.raw])
    report = ConvergenceReport(
        times=traj.times,
        ne_residuals=ne,
        ene_residuals=ene,
        final_ne_residual=float(ne[-1]),
        final_ene_residual=float(ene[-1]),
    )
    if game.potential is not None:
        vals = np.array([game.potential(g.sum(axis=1)) for g in traj.step_raw])
        report.potential_times = traj.step_times
        report.potential_values = vals
        report.potential_monotone = bool(np.all(np.diff(vals) >= -report.monotone_tol))
    return report


def trajectory_csv_header(n: int, m: int) -> str:
    cols = ["t"]
    cols += [f"x_{i + 1}_{l + 1}" for i in range(n) for l in range(m)]
    cols += [f"xbar_{i + 1}" for i in range(n)]
    cols += [f"p_{i + 1}" for i in range(n)]
    return ",".join(cols)


def write_trajectory_csv(path, times, grids, game: Game) -> None:
    """Write sampled states as CSV: cells, aggregates, payoffs per row.

    All numbers carry 17 significant digits so doubles round-trip.
    """
    n, m = grids[0].shape
    fmt = lambda v: format(float(v), ".17g")
    with open(path, "w") as fh:
        fh.write(trajectory_csv_header(n, m) + "\n")
        for t, g in zip(times, grids):
            c = _clip(np.asarray(g))
            xbar = c.sum(axis=1)
            p = np.asarray(game.payoff(xbar), dtype=float)
            row = [fmt(t)] + [fmt(v) for v in c.ravel()] + [fmt(v) for v in xbar] + [fmt(v) for v in p]
            fh.write(",".join(row) + "\n")
