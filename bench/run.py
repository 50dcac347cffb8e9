"""Benchmark of erlang-edm: one workload as a closed loop of CLI subcommands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The inputs are made from --seed
and written as scenario files; a workload process (bench/child.py) imports
erlang_edm from the checkout's src/, loads them, and repeats whole rounds
of subcommands through erlang_edm.cli.main until the rounds have taken
--seconds of wall time.  This process checks each round's outputs between
rounds, outside the timed span, against computations of its own.

End-to-end metrics (--trace 0), every one a median; the three times are
scaled to a reference host speed by the calibration kernel of bench/host.py:
  setup_s      start of a workload process until erlang_edm is imported and
               every scenario is loaded and validated (SETUP_SAMPLES processes)
  wall_s       wall time of one round
  cpu_s        CPU time of one round, worker processes included
  peak_rss_mb  peak resident memory of the workload process plus its
               largest worker
With --trace 1 the rounds alternate untraced and traced, and the per-layer
metrics of bench/tracer.py are printed instead; spans go to .bench_trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import host

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3  # workload processes started per run, the last one does the rounds
DEADLINE_S = 170.0  # a run ends in failure past this


def parse_args(argv=None):
    from workloads import NAMES

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class WorkloadProcess:
    """A child.py process with a kill timer, read and written by lines."""

    def __init__(self, plan_file: Path, setup_only: bool, env: dict, deadline: float):
        argv = [sys.executable, str(BENCH / "child.py"), str(plan_file)]
        if setup_only:
            argv.append("--setup-only")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=env)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def send(self, payload: dict) -> None:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()

    def close(self) -> int:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            code = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()
        return code


def measure(args) -> dict:
    from workloads import WORKLOADS

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_out" / args.workload
    wl = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    plan_file = workdir / "plan.json"
    trace_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
    plan_file.write_text(json.dumps({
        "root": str(ROOT), "ops": [argv for _, argv in wl.ops],
        "scenario_files": wl.scenario_files, "trace": bool(args.trace),
        "trace_file": str(trace_file)}))
    env = dict(os.environ)
    if args.trace:
        env["EDM_THREADS"] = "1"  # keeps the agents spans in this process

    setups = []
    host.kernel_seconds()  # the first pass pays numpy's and LAPACK's own set-up

    def start(setup_only: bool) -> WorkloadProcess:
        kernel = host.kernel_seconds()
        child = WorkloadProcess(plan_file, setup_only, env, deadline)
        try:
            child.read()  # the ready line
        except BaseException:
            child.close()
            raise
        setups.append((time.perf_counter() - child.start, kernel))
        return child

    for _ in range(SETUP_SAMPLES - 1):
        if start(setup_only=True).close() != 0:
            raise RuntimeError("set-up process failed")
    child = start(setup_only=False)
    try:
        res = run_rounds(child, wl, args)
        child.send({"stop": True})
        res["final"] = child.read()
    finally:
        code = child.close()
    if code != 0:
        raise RuntimeError(f"workload process exit code {code}")
    res.update(setups=setups, notes=wl.notes, trace_file=trace_file)
    return res


def run_rounds(child: WorkloadProcess, wl, args) -> dict:
    """Whole rounds until --seconds are spent; the last one starts only if
    at least half of it fits.  A traced run needs one round of each kind."""
    rounds, attempted, failed, problems = [], 0, 0, []
    while len(rounds) < 1 + args.trace or (sum(r["wall"] for r in rounds)
                                           + 0.5 * rounds[-1]["wall"] < args.seconds):
        for out in wl.outputs.iterdir():
            shutil.rmtree(out)
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        child.send({"round": k, "traced": traced})
        r = child.read()
        r["traced"] = traced
        rounds.append(r)
        attempted += len(r["rcs"])
        bad = [label for (label, _), rc in zip(wl.ops, r["rcs"]) if rc != 0]
        failed += len(bad)
        if bad:
            print(f"round {k}: failed {bad}", flush=True)
            continue
        t_check = time.perf_counter()
        try:
            problems += wl.check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"round {k}: outputs unreadable: {exc!r}")
        print(f"round {k}{' traced' if traced else ''}: wall {r['wall']:.4f} s, "
              f"cpu {r['cpu']:.4f} s, kernel {r['kernel']:.4f} s, "
              f"checked in {time.perf_counter() - t_check:.2f} s", flush=True)
    return {"rounds": rounds, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(res: dict) -> dict:
    """Medians of the time metrics at the reference host speed, and the
    peak memory.  The raw medians are printed alongside."""
    rounds = res["rounds"]
    scale = host.scaled
    raw = {"setup_s": statistics.median(s for s, _ in res["setups"]),
           "wall_s": statistics.median(r["wall"] for r in rounds),
           "cpu_s": statistics.median(r["cpu"] for r in rounds)}
    print("raw medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
          + f"; kernel {statistics.median(r['kernel'] for r in rounds):.4f} s", flush=True)
    return {
        "setup_s": {"value": statistics.median(scale(*s) for s in res["setups"]), "unit": "s"},
        "wall_s": {"value": statistics.median(scale(r["wall"], r["kernel"]) for r in rounds),
                   "unit": "s"},
        "cpu_s": {"value": statistics.median(scale(r["cpu"], r["kernel"]) for r in rounds),
                  "unit": "s"},
        "peak_rss_mb": {"value": res["final"]["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    from tracer import LAYER_METRICS

    rounds = res["rounds"]
    layers = dict(res["final"]["layers"])
    plain = [host.scaled(r["wall"], r["kernel"]) for r in rounds if not r["traced"]]
    traced = [host.scaled(r["wall"], r["kernel"]) for r in rounds if r["traced"]]
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        if plain and traced else 0.0)
    missing = [name for name, _ in LAYER_METRICS if name not in layers]
    if missing or res["final"]["absent"]:
        print(f"absent: {sorted(set(missing) | set(res['final']['absent']))}", flush=True)
    idle = [name for name, _ in LAYER_METRICS if layers.get(name, 0.0) == 0.0]
    print(f"not exercised by this workload (reported as 0): {idle}", flush=True)
    for name, share in res["final"]["shares"].items():
        print(f"share of traced wall: {name} {100.0 * share:.1f} %", flush=True)
    print(f"spans: {res['trace_file'].relative_to(ROOT)}", flush=True)
    return {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "erlang_edm" / "__init__.py").is_file():
        print(f"error: no erlang_edm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    res = measure(args)
    for msg in res["problems"]:
        print(f"check failed: {msg}", flush=True)
    for key, value in res["notes"].items():
        print(f"{key}: {value:.4f}", flush=True)
    metrics = per_layer(res) if args.trace else end_to_end(res)
    if not args.trace:
        for name, m in metrics.items():
            print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}", flush=True)
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
