"""Command-line entry point.

  iea-sim run --scenario F [--mode lockstep|distributed] [--seed N]
              [--out DIR] [--dump-frames]
  iea-sim compare A B
  iea-sim export LOG [--out DIR]
  iea-sim node --id veh|mssp1|mssp2|... --scenario F --out DIR
              [--dump-frames]
      (prints `ready` once set up, then reads t = 0 as a time.time()
       from one stdin line)

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import mssp_node_main, run_scenario, vehicle_node_main
from .runlog import compare_runs, export_plot_data
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="iea-sim",
                                description="Roadside-camera autonomy simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--scenario", required=True,
                     help="scenario file path or bundled name")
    run.add_argument("--mode", choices=["lockstep", "distributed"])
    run.add_argument("--seed", type=int)
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--dump-frames", action="store_true",
                     help="write every rendered frame as PGM")

    cmp_ = sub.add_parser("compare", help="trajectory difference of two run.csv")
    cmp_.add_argument("run_a")
    cmp_.add_argument("run_b")

    exp = sub.add_parser("export", help="export plot-ready series from a run.csv")
    exp.add_argument("log")
    exp.add_argument("--out", default=None,
                     help="output directory (default: next to the log)")

    node = sub.add_parser("node", help="run a single node process (distributed)")
    node.add_argument("--id", required=True,
                      help="veh for the vehicle, else a camera id, e.g. mssp2")
    node.add_argument("--scenario", required=True)
    node.add_argument("--out", required=True)
    node.add_argument("--dump-frames", action="store_true")
    return p


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    overrides = {key: getattr(args, key) for key in ("mode", "seed")
                 if getattr(args, key) is not None}
    if overrides:  # a replaced scenario is validated, and scanned, again
        cfg = dataclasses.replace(cfg, **overrides)
    result = run_scenario(cfg, Path(args.out), dump_frames=args.dump_frames)
    print(json.dumps(result.summary, indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = compare_runs(Path(args.run_a), Path(args.run_b))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_export(args) -> int:
    log = Path(args.log)
    out = Path(args.out) if args.out else log.parent / "plots"
    paths = export_plot_data(log, out)
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_node(args) -> int:
    cfg = load_scenario(args.scenario)
    ids = list(cfg.nodes())
    if args.id not in ids:
        raise ValueError(f"--id {args.id!r} names no node of scenario "
                         f"{cfg.name!r}; valid ids: {', '.join(ids)}")
    if args.id == "veh":
        return vehicle_node_main(cfg, Path(args.out))
    return mssp_node_main(cfg, args.id, Path(args.out),
                          dump_frames=args.dump_frames)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "export": _cmd_export, "node": _cmd_node}
    try:
        return handlers[args.command](args)
    except (ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
