"""Spans and counters around the program's public functions, from outside.

Each target is a name in the module where its caller looks it up (for
example `erlang_edm.runner.integrate`, which the runner imported from
dynamics).  `install` swaps in wrappers and `uninstall` puts the original
functions back, so traced and untraced rounds can alternate in one process.
A target missing after a refactor is listed as absent and the run goes on.

Spans (name, start, end, parent, attributes) stay in memory; self time is a
span's duration minus the time its direct children cover.  Functions called
thousands of times per round (the vector field, the rate matrix) get
counters only.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

# (module where the caller looks the function up, attribute, span name)
SPAN_TARGETS = (
    ("erlang_edm.cli", "load_scenario", "scenario.load_scenario"),
    ("erlang_edm.cli", "run_ode", "runner.run_ode"),
    ("erlang_edm.cli", "run_lyapunov", "runner.run_lyapunov"),
    ("erlang_edm.cli", "run_agents", "runner.run_agents"),
    ("erlang_edm.cli", "run_stability", "runner.run_stability"),
    ("erlang_edm.runner", "integrate", "dynamics.integrate"),
    ("erlang_edm.runner", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("erlang_edm.runner", "convergence_report", "dynamics.convergence_report"),
    ("erlang_edm.runner", "simulate", "agents.simulate"),
    ("erlang_edm.runner", "write_event_csv", "agents.write_event_csv"),
    ("erlang_edm.runner", "lyapunov_series", "stability.lyapunov_series"),
    ("erlang_edm.runner", "write_lyapunov_csv", "stability.write_lyapunov_csv"),
    ("erlang_edm.runner", "solve_lyapunov", "stability.solve_lyapunov"),
    ("erlang_edm.runner", "contractivity_margins", "games.contractivity_margins"),
    ("erlang_edm.runner", "stability_report", "stability.stability_report"),
    ("erlang_edm.stability", "sigma_bar_bisection", "stability.sigma_bar_bisection"),
    ("erlang_edm.stability", "sigma_sweep", "stability.sigma_sweep"),
    ("erlang_edm.stability", "solve_lyapunov", "stability.solve_lyapunov"),
    ("erlang_edm.stability", "compute_c", "stability.compute_c"),
    ("erlang_edm.stability", "contractivity_margins", "games.contractivity_margins"),
)
# functions counted per call, without spans
COUNT_TARGETS = (
    ("erlang_edm.agents", "switch_rate_matrix", "agents.rate_row_builds"),
    ("erlang_edm.dynamics", "switch_rate_matrix", "dynamics.switch_rate_matrix"),
)
# factories whose returned right-hand side is counted per evaluation
FIELD_TARGETS = (
    ("erlang_edm.dynamics", "field_function", "dynamics.field_calls"),
    ("erlang_edm.stability", "field_function", "stability.field_calls"),
)

# (n, m) of the certificate workload's generated games: 5 <= m <= 10 and
# n(m-1) <= 90.  Each shape's bisection is timed on its own.
CERT_SHAPES = ((2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (8, 10), (10, 10),
               (15, 7), (18, 6), (22, 5))

# Every per-layer metric, in BENCHMARK.json order.  Span metrics are self
# time per call, except runner.run_*, which are whole calls.
LAYER_METRICS = (
    ("erlang_edm.import_ms", "ms"),
    ("scenario.load_ms", "ms"),
    ("runner.run_ode_ms", "ms"),
    ("runner.run_lyapunov_ms", "ms"),
    ("runner.run_agents_ms", "ms"),
    ("runner.run_stability_ms", "ms"),
    ("dynamics.integrate_ms", "ms"),
    ("dynamics.accepted_steps", "count"),
    ("dynamics.field_calls", "count"),
    ("dynamics.field_us", "us"),
    ("dynamics.integrate_rk4_ms", "ms"),
    ("dynamics.write_trajectory_csv_ms_per_krow", "ms"),
    ("dynamics.convergence_report_ms", "ms"),
    ("protocols.switch_rate_matrix_us", "us"),
    ("agents.simulate_s", "s"),
    ("agents.events_per_s", "1/s"),
    ("agents.rate_row_builds", "count"),
    ("agents.simulate_events_s", "s"),
    ("agents.event_count", "count"),
    ("agents.write_event_csv_s", "s"),
    ("agents.simulate_events_rss_growth_mb", "MB"),
    ("stability.lyapunov_series_ms_per_sample", "ms"),
    ("stability.write_lyapunov_csv_ms", "ms"),
    ("stability.stability_report_ms", "ms"),
    ("stability.sigma_bar_bisection_ms", "ms"),
    *((f"stability.sigma_bar_bisection_ms.n{n}_m{m}", "ms") for n, m in CERT_SHAPES),
    ("stability.sigma_sweep_ms", "ms"),
    ("stability.solve_lyapunov_ms", "ms"),
    ("stability.compute_c_ms", "ms"),
    ("games.contractivity_margins_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for module, attr, name in SPAN_TARGETS:
            self._plan(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNT_TARGETS:
            self._plan(module, attr, lambda fn, name=name: self._counted(name, fn))
        for module, attr, name in FIELD_TARGETS:
            self._plan(module, attr, lambda fn, name=name: self._field_factory(name, fn))

    def _plan(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        self._patches.append((mod, attr, fn, make(fn)))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _field_factory(self, name: str, factory):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            f = factory(*args, **kwargs)

            def counted(t, y):
                counts[name] += 1
                return f(t, y)

            return counted

        return wrapper

    def _span(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "attrs": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            ctx = before(args, kwargs) if before else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after:
                try:
                    after(span["attrs"], ctx, args, kwargs, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    span["attrs"]["error"] = repr(exc)
            return result

        return wrapper

    # attribute hooks, looked up by span name

    def _before_dynamics_integrate(self, args, kwargs):
        return self.counts.get("dynamics.field_calls", 0)

    def _after_dynamics_integrate(self, attrs, ctx, args, kwargs, result):
        solver = kwargs.get("solver") or (args[5] if len(args) > 5 else None)
        attrs["method"] = getattr(solver, "method", "rk45")
        attrs["accepted_steps"] = int(result.accepted_steps)
        attrs["field_calls"] = self.counts.get("dynamics.field_calls", 0) - ctx

    def _after_dynamics_write_trajectory_csv(self, attrs, ctx, args, kwargs, result):
        attrs["rows"] = len(args[1])

    def _before_agents_simulate(self, args, kwargs):
        return rss_mb(), self.counts.get("agents.rate_row_builds", 0)

    def _after_agents_simulate(self, attrs, ctx, args, kwargs, result):
        N, params, horizon = args[0], args[3], args[5]
        attrs["expected_events"] = params.lam * N * horizon
        attrs["rate_row_builds"] = self.counts.get("agents.rate_row_builds", 0) - ctx[1]
        if result.events is not None:
            attrs["events"] = len(result.events)
            attrs["rss_growth_mb"] = rss_mb() - ctx[0]

    def _after_stability_lyapunov_series(self, attrs, ctx, args, kwargs, result):
        attrs["samples"] = len(result)

    def _after_stability_sigma_bar_bisection(self, attrs, ctx, args, kwargs, result):
        attrs["shape"] = f"n{args[0]}_m{args[1]}"

    # -- derived figures --------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans; 0 where the layer never ran."""
        own = self.self_times()
        by: dict[str, list[tuple[dict, float, float]]] = {}
        for s, o in zip(self.spans, own):
            by.setdefault(s["name"], []).append((s, s["end"] - s["start"], o))

        def per_call(name, ms=True, total=False, where=lambda s: True):
            rows = [(d if total else o) for s, d, o in by.get(name, []) if where(s)]
            return _mean(rows) * (1e3 if ms else 1.0)

        def attr_mean(name, key, where=lambda s: True):
            return _mean(s["attrs"][key] for s, _, _ in by.get(name, [])
                         if where(s) and key in s["attrs"])

        rk45 = lambda s: s["attrs"].get("method") == "rk45"
        rk4 = lambda s: s["attrs"].get("method") == "rk4"
        plain = lambda s: "events" not in s["attrs"]
        recorded = lambda s: "events" in s["attrs"]
        out = {}
        for stage in ("ode", "lyapunov", "agents", "stability"):
            out[f"runner.run_{stage}_ms"] = per_call(f"runner.run_{stage}", total=True)
        out["dynamics.integrate_ms"] = per_call("dynamics.integrate", where=rk45)
        out["dynamics.accepted_steps"] = attr_mean("dynamics.integrate", "accepted_steps", rk45)
        out["dynamics.field_calls"] = attr_mean("dynamics.integrate", "field_calls", rk45)
        out["dynamics.integrate_rk4_ms"] = per_call("dynamics.integrate", where=rk4)
        writes = by.get("dynamics.write_trajectory_csv", [])
        rows = sum(s["attrs"].get("rows", 0) for s, _, _ in writes)
        out["dynamics.write_trajectory_csv_ms_per_krow"] = (
            1e6 * sum(o for _, _, o in writes) / rows if rows else 0.0)
        out["dynamics.convergence_report_ms"] = per_call("dynamics.convergence_report")
        sims = [(s, o) for s, _, o in by.get("agents.simulate", []) if plain(s)]
        out["agents.simulate_s"] = per_call("agents.simulate", ms=False, where=plain)
        sim_time = sum(o for _, o in sims)
        out["agents.events_per_s"] = (
            sum(s["attrs"]["expected_events"] for s, _ in sims) / sim_time if sim_time else 0.0)
        out["agents.rate_row_builds"] = attr_mean("agents.simulate", "rate_row_builds", plain)
        out["agents.simulate_events_s"] = per_call("agents.simulate", ms=False, where=recorded)
        out["agents.event_count"] = attr_mean("agents.simulate", "events", recorded)
        out["agents.write_event_csv_s"] = per_call("agents.write_event_csv", ms=False)
        out["agents.simulate_events_rss_growth_mb"] = attr_mean(
            "agents.simulate", "rss_growth_mb", recorded)
        series = by.get("stability.lyapunov_series", [])
        samples = sum(s["attrs"].get("samples", 0) for s, _, _ in series)
        out["stability.lyapunov_series_ms_per_sample"] = (
            1e3 * sum(o for _, _, o in series) / samples if samples else 0.0)
        out["stability.write_lyapunov_csv_ms"] = per_call("stability.write_lyapunov_csv")
        out["stability.stability_report_ms"] = per_call("stability.stability_report")
        out["stability.sigma_bar_bisection_ms"] = per_call("stability.sigma_bar_bisection")
        for n, m in CERT_SHAPES:
            shape = f"n{n}_m{m}"
            out[f"stability.sigma_bar_bisection_ms.{shape}"] = per_call(
                "stability.sigma_bar_bisection",
                where=lambda s, shape=shape: s["attrs"].get("shape") == shape)
        out["stability.sigma_sweep_ms"] = per_call("stability.sigma_sweep")
        out["stability.solve_lyapunov_ms"] = per_call("stability.solve_lyapunov")
        out["stability.compute_c_ms"] = per_call("stability.compute_c")
        out["games.contractivity_margins_ms"] = per_call("games.contractivity_margins")
        return out

    def shares(self, traced_wall: float) -> dict[str, float]:
        """Each span name's self time as a share of the traced rounds' wall."""
        totals: dict[str, float] = {}
        for s, o in zip(self.spans, self.self_times()):
            totals[s["name"]] = totals.get(s["name"], 0.0) + o
        return {k: v / traced_wall for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def microbench(edm, repeats: int = 7, calls: int = 500) -> dict[str, float]:
    """Per-call time of the vector field and of the rate matrix at the rps
    Sec. 6.2 initial state, in microseconds (median of repeats)."""
    out = {}
    try:
        sc = edm.scenario.bundled_scenario("rps_sec6_2")
        game, protocol, params = sc.build_game(), sc.build_protocol(), sc.build_params()
        y = sc.initial_grid().ravel().copy()
        f = edm.dynamics.field_function(game, protocol, params)
        xbar = y.reshape(params.n, params.m).sum(axis=1)
        p = game.payoff(xbar)
        srm = edm.protocols.switch_rate_matrix
    except AttributeError:
        return out

    def per_call(fn, *args):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append((time.perf_counter() - t0) / calls * 1e6)
        return statistics.median(times)

    out["dynamics.field_us"] = per_call(f, 0.0, y)
    out["protocols.switch_rate_matrix_us"] = per_call(srm, protocol, xbar, p)
    return out
