"""Run every workload once and print every end-to-end metric with its unit.

Usage:
    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--save FILE]

Times are at reference speed (see refspeed.py), with the wall-clock value of
each end-to-end metric beside it.  Each workload runs in its own interpreter
through run.py.  ``--trace`` adds
a traced run per workload and prints its per-layer metrics; ``--save`` writes
the records for compare.py.  Exits 1 when an output check failed in any run
and 2 when a run produced no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload through run.py and return its record."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
        timeout=180 + 3 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{name}: run.py exited {proc.returncode} without a result\n{proc.stderr}")
    if proc.returncode == 1:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-2])["record"]


def format_meta(meta: dict) -> str:
    return " ".join(f"{k}={meta[k]}" for k in ("kernel", "python", "numpy", "nproc", "git_rev", "seed"))


def print_records(records: list) -> None:
    print(format_meta(records[0]["meta"]))
    print(f"{'workload':<20}{'metric':<40}{'value':>14}  {'unit':<10}{'samples':>8}{'wall clock':>14}")
    for rec in records:
        name = rec["workload"] + (" (traced)" if rec["trace"] else "")
        wall = rec.get("wall_clock_metrics", {})
        for key, m in rec["metrics"].items():
            raw = f"{wall[key]:>14.6g}" if key in wall else ""
            print(f"{name:<20}{key:<40}{m['value']:>14.6g}  {m['unit']:<10}{m['samples']:>8}{raw}")
        for key in ("fail_ratio", "repeated_input_share"):
            print(f"{name:<20}{key:<40}{rec[key]:>14.6g}  {'1':<10}{rec['attempted']:>8}")
        print(f"{'':<20}input per op: {rec['input_size']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    parser.add_argument("--save", default=None, help="write the records here as JSON")
    args = parser.parse_args(argv)
    records = []
    try:
        for name in workloads.WORKLOADS:
            records.append(run_workload(name, args.seed, args.seconds, False))
            if args.trace:
                records.append(run_workload(name, args.seed, args.seconds, True))
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print_records(records)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"records": records}, fh, indent=1)
    return 1 if any(rec["failed"] for rec in records) else 0


if __name__ == "__main__":
    sys.exit(main())
