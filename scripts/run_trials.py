#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line result per run.

Exits 1 if any run did not end stopped (`stop_reason` other than
"stopped"), such as a vehicle still driving at `duration_cap_s`.

Usage: python scripts/run_trials.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from iea_sim.harness import run_scenario
from iea_sim.scenario import load_scenario

SCENARIOS = ["straight_3ms", "straight_6ms", "baseline_truth_3ms",
             "distributed_smoke"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/trials")
    args = ap.parse_args(argv)
    root = Path(args.out)
    unstopped = []
    for source in SCENARIOS:
        cfg = load_scenario(source)
        name = cfg.name
        res = run_scenario(cfg, root / name)
        s = res.summary
        ct = s["cross_track"]["max_after_settle_m"]
        print(f"{name:<22} mode={s['mode']:<11} end_t={s['end_t']:6.2f}s "
              f"stop_reason={s['stop_reason']} "
              f"first_fix={s['first_fix_t']} "
              f"settled_ct_max={'n/a' if ct is None else f'{ct:.3f} m'} "
              f"overshoot={s['overshoot_peak_m']:.3f} m")
        if s["stop_reason"] != "stopped":
            unstopped.append(name)
    print(f"full logs under {root}/")
    if unstopped:
        print(f"not stopped: {', '.join(unstopped)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
