"""Time one set-up in a fresh interpreter: package import plus one warm-up op.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints one JSON object {"setup_s": ..., "reference_s": ..., "ok": ...}.  The
clock starts before the package is imported (for cli-mixed, signspectra.cli)
and stops after the warm-up op returns; the warm-up op's output check is not
timed.  reference_s is the median time of the host-speed reference kernel
(refspeed.py) right afterwards, so the caller can scale setup_s to reference
speed; refspeed is imported after the clock stops, so its imports are not
preloaded into the timed import.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports no package module)


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    w = workloads.create(name, seed, workdir)
    inp = w.make_input(workloads.WARM_UP)
    out = w.run(inp)
    setup_s = time.perf_counter() - start
    import refspeed

    reference_s = statistics.median(refspeed.time_kernel() for _ in range(7))
    ok = bool(w.check(inp, out))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
