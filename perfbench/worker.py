"""One benchmark run of iea_sim in a fresh interpreter.

  worker.py setup SCENARIO RESULT          time set-up only
  worker.py run SCENARIO OUT RESULT [--trace]
                                           set-up, then `iea-sim run` on SCENARIO
  worker.py micro RESULT SECONDS           fixed-input timings of hot functions
  worker.py node TRACE -- ARGS...          `iea-sim ARGS` with tracing (a traced
                                           distributed run starts its nodes so)

Set-up is the import of the package, `load_scenario` and
`ScenarioConfig.cells()`. RESULT receives one JSON object. The program is
imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _setup(scenario: str) -> float:
    t0 = time.perf_counter()
    from iea_sim import cli  # noqa: F401  (the import is what is timed)
    from iea_sim.harness import load_scenario
    load_scenario(scenario).cells()
    return time.perf_counter() - t0


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _trace_nodes(trace_dir: Path) -> None:
    """Start the node processes of a distributed run through `node` mode."""
    import itertools
    import subprocess
    import types

    from iea_sim import harness
    counter = itertools.count()

    def popen(args, **kwargs):
        if list(args[1:3]) == ["-m", "iea_sim.cli"]:
            trace = trace_dir / f"node{next(counter)}.json"
            args = [args[0], str(Path(__file__).resolve()), "node", str(trace),
                    "--", *args[3:]]
        return subprocess.Popen(args, **kwargs)

    harness.subprocess = types.SimpleNamespace(
        Popen=popen, TimeoutExpired=subprocess.TimeoutExpired)


def cmd_run(scenario: str, out: str, result: str, trace: bool) -> int:
    setup_s = _setup(scenario)
    from iea_sim import cli
    tracer = None
    trace_dir = Path(out) / "node_traces"
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        trace_dir.mkdir(parents=True, exist_ok=True)
        _trace_nodes(trace_dir)
    cpu0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            rc = cli.main(["run", "--scenario", scenario, "--out", out])
        finally:
            sys.stdout = stdout
    wall_s = time.perf_counter() - t0
    res = {
        "rc": rc, "setup_s": setup_s, "wall_s": wall_s,
        "cpu_s": _cpu(resource.RUSAGE_SELF) - cpu0,
        "children_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - child0,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children_maxrss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import merge
        dumps = [tracer.dump()]
        dumps += [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        res["trace"] = merge(dumps)
        res["trace_processes"] = len(dumps)
    Path(result).write_text(json.dumps(res))
    return rc


def cmd_node(trace: str, argv: list[str]) -> int:
    import signal

    from tracer import Tracer

    from iea_sim import cli
    tracer = Tracer()
    tracer.install()

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    # the parent ends camera nodes with SIGTERM; unwind so the trace is kept
    signal.signal(signal.SIGTERM, stop)
    try:
        return cli.main(argv)
    finally:
        Path(trace).write_text(json.dumps(tracer.dump()))


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        setup_s = _setup(rest[0])
        Path(rest[1]).write_text(json.dumps({"setup_s": setup_s}))
        return 0
    if cmd == "run":
        return cmd_run(rest[0], rest[1], rest[2], "--trace" in rest[3:])
    if cmd == "micro":
        from micro import micro_timings
        Path(rest[0]).write_text(json.dumps(micro_timings(float(rest[1]))))
        return 0
    if cmd == "node":
        return cmd_node(rest[0], rest[2:])
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
