"""Compare two files saved by ``report.py --save``, metric by metric.

Usage:
    python3 perfbench/compare.py OLD.json NEW.json

Prints NEW / OLD for every metric of every workload present in both.  Results
measured with different root kernels (signspectra.KERNEL) are not comparable:
the script then exits 2 with an error and prints no ratio.
"""

from __future__ import annotations

import json
import sys


def _load(path: str) -> dict:
    with open(path) as fh:
        records = json.load(fh)["records"]
    return {(r["workload"], r["trace"]): r for r in records}


def _label(key) -> str:
    workload, traced = key
    return workload + (" (traced)" if traced else "")


def kernel_mismatches(old: dict, new: dict) -> list:
    out = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key]["meta"]["kernel"], new[key]["meta"]["kernel"]
        if a != b:
            out.append(f"{_label(key)}: {a} vs {b}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _load(argv[0]), _load(argv[1])
    mismatches = kernel_mismatches(old, new)
    if mismatches:
        print(
            "perfbench: cannot compare results measured with different root kernels: "
            + "; ".join(mismatches),
            file=sys.stderr,
        )
        return 2
    print(f"{'workload':<20}{'metric':<40}{'old':>12}{'new':>12}{'new/old':>10}  unit")
    for key in sorted(old.keys() & new.keys()):
        name = _label(key)
        for metric, m_old in old[key]["metrics"].items():
            m_new = new[key]["metrics"].get(metric)
            if m_new is None:
                continue
            a, b = m_old["value"], m_new["value"]
            ratio = f"{b / a:10.3f}" if a else f"{'-':>10}"
            print(f"{name:<20}{metric:<40}{a:>12.5g}{b:>12.5g}{ratio}  {m_old['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
