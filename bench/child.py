"""The workload process: imports erlang_edm, loads the workload's scenarios,
then runs rounds of CLI subcommands on request.

It talks to run.py by JSON lines: it writes {"ready": ...} once set up,
then reads {"round": k, "traced": bool} or {"stop": true} from stdin and
answers each with one line on stdout.  The subcommands' own printing is
captured so it cannot mix with that channel.

    python3 bench/child.py PLAN_JSON [--setup-only]
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _send(channel, payload: dict) -> None:
    channel.write(json.dumps(payload) + "\n")
    channel.flush()


def _cpu() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _run_op(main, argv) -> int:
    """One subcommand; an escaping exception counts as exit code 1, as it
    would for the installed command."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    setup_only = "--setup-only" in sys.argv[2:]
    channel = sys.stdout
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import erlang_edm
    import erlang_edm.cli
    from erlang_edm.scenario import load_scenario

    import_ms = (time.perf_counter() - t0) * 1e3
    if Path(erlang_edm.__file__).resolve().parent != (src / "erlang_edm").resolve():
        print(f"erlang_edm was imported from {erlang_edm.__file__}, not {src}", file=sys.stderr)
        return 2
    load_ms = []
    for path in plan["scenario_files"]:
        t = time.perf_counter()
        load_scenario(path)
        load_ms.append((time.perf_counter() - t) * 1e3)
    _send(channel, {"ready": True, "import_ms": import_ms,
                    "load_ms": sum(load_ms) / len(load_ms)})
    if setup_only:
        return 0

    import host

    host.kernel_seconds()  # the first pass pays numpy's and LAPACK's own set-up
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
    traced_wall = 0.0
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("stop"):
            break
        traced = tracer is not None and cmd["traced"]
        if traced:
            tracer.install()
        rcs = []
        kernel = host.kernel_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            wall0, cpu0 = time.perf_counter(), _cpu()
            for argv in plan["ops"]:
                rcs.append(_run_op(erlang_edm.cli.main, argv))
            wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        time.sleep(host.SETTLE_S)
        kernel = 0.5 * (kernel + host.kernel_seconds())
        if traced:
            tracer.uninstall()
            traced_wall += wall
        _send(channel, {"round": cmd["round"], "wall": wall, "cpu": cpu, "kernel": kernel,
                        "rcs": rcs})

    final = {"peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(tracing.microbench(erlang_edm))
        layers["erlang_edm.import_ms"] = import_ms
        layers["scenario.load_ms"] = sum(load_ms) / len(load_ms)
        final["layers"] = layers
        final["absent"] = tracer.absent
        final["shares"] = tracer.shares(traced_wall) if traced_wall else {}
        Path(plan["trace_file"]).parent.mkdir(parents=True, exist_ok=True)
        Path(plan["trace_file"]).write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent,
             "layers": layers, "shares": final["shares"]}, indent=1))
    _send(channel, final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
