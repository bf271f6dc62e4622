#!/usr/bin/env python3
"""Recompute a run's summary from its CSV logs and diff it against the
summary.json the run wrote. Exit 0 when they agree to 1e-9.

Usage: python scripts/recompute_summary.py RUN_DIR
"""

import argparse
import math
import sys
from pathlib import Path

from iea_sim.harness import read_run
from iea_sim.runlog import summarize

TOL = 1e-9


def close(a, b, path="$"):
    """Yield difference descriptions between two JSON-like values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                yield f"{path}.{k}: present in only one summary"
            else:
                yield from close(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if not math.isclose(a, b, rel_tol=TOL, abs_tol=TOL):
            yield f"{path}: {a!r} != {b!r}"
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("run_dir", type=Path)
    args = ap.parse_args()
    out = args.run_dir
    run = read_run(out)
    recomputed = summarize(run.rows, run.est_records, run.net_records, run.cfg)
    diffs = list(close(recomputed, run.summary))
    if diffs:
        print(f"summary mismatch ({len(diffs)} fields):", file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        return 1
    print(f"summary for {out} reproduces from the CSV logs (tol {TOL})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
