"""End-to-end and per-layer benchmark for signspectra.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One client drives the workload in a
closed loop, in this process and thread, until the timed ops add up to S
seconds.  Every op's output is checked outside its timed window, and an op
that raises or fails its check counts as failed.

End-to-end times are given at reference speed (see refspeed.py): each wall
time is scaled by how fast a fixed reference kernel ran just before it, so
the drift of a shared host's speed cancels.  The raw wall-clock values are
in the record as well.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run (see
layertrace.py).  The line before it is a JSON record with the same metrics,
their sample counts, fail_ratio, the repeated-input share, and the root
kernel, Python and numpy versions, CPU count, git rev and seed.  The exit code
is 1 when any op failed (or the harness itself raised, with a traceback) and 2
when the benchmark cannot run: no package under src/, a failed warm-up check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 5

# Share of the traced ops replayed untraced to measure trace.overhead_ratio.
OVERHEAD_SHARE = 0.25

# (module layer, function) pairs reported with their own self time.
SELF_TIMED = (
    ("roots", "find_roots"),
    ("poly", "char_poly"),
    ("poly", "poly_mul"),
    ("poly", "coefficient_residual"),
    ("matrices", "conforms"),
    ("matrices", "block_diag"),
    ("verify", "sample_conforming_matrix"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing package, broken harness)."""


def load_package():
    """Import signspectra from this checkout's src/ and return it."""
    if not os.path.isfile(os.path.join(SRC, "signspectra", "__init__.py")):
        raise BenchmarkError(f"no signspectra package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import signspectra

    if os.path.dirname(os.path.dirname(os.path.abspath(signspectra.__file__))) != SRC:
        raise BenchmarkError(f"signspectra was imported from {signspectra.__file__}, not {SRC}")
    return signspectra


def git_rev(root: str) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(ss, seed: int) -> dict:
    import numpy

    return {
        "kernel": ss.KERNEL,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(ROOT),
        "seed": seed,
    }


def _log_failure(failures: list, message: str) -> None:
    # the first message is enough to diagnose; later ones only count
    if not failures:
        print(f"perfbench: {message}", file=sys.stderr)
    failures.append(message)


def _checked(w, inp, out, failures: list) -> bool:
    try:
        ok = bool(w.check(inp, out))
    except Exception as exc:
        _log_failure(failures, "output check raised:\n" + "".join(traceback.format_exception(exc)))
        return False
    if not ok:
        _log_failure(failures, f"output check failed for input {inp!r}")
    return ok


def closed_loop(w, seconds: float, ops: int | None = None, tracer=None) -> dict:
    """Run ops back to back until their timed windows sum to ``seconds``
    (or exactly ``ops`` of them), checking each output between ops."""
    speed = refspeed.HostSpeed()
    latencies = []
    scaled = []
    failures = []
    ok_ops = 0
    distinct = set()
    busy = 0.0
    k = 0
    while (k < ops) if ops is not None else (busy < seconds):
        inp = w.make_input(k)
        distinct.add(hash(inp))
        speed.refresh()
        out = error = None
        with tracer.window() if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                out = w.run(inp)
            except Exception as exc:
                error = exc
            elapsed = time.perf_counter() - start
        # a timing after the op as well tracks speed changes during long ops
        speed.refresh()
        if error is not None:
            _log_failure(failures, "op raised:\n" + "".join(traceback.format_exception(error)))
        elif _checked(w, inp, out, failures):
            ok_ops += 1
        latencies.append(elapsed)
        scaled.append(elapsed * speed.scale())
        busy += elapsed
        k += 1
    return {
        "latencies": latencies,
        "scaled": scaled,
        "reference_s": statistics.median(speed.samples),
        "attempted": k,
        "failed": k - ok_ops,
        "ok_ops": ok_ops,
        "distinct_inputs": len(distinct),
    }


def _setup_times(name: str, seed: int, workdir: str) -> list:
    """(wall seconds, reference-kernel seconds) of each fresh-interpreter set-up."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, name, str(seed), workdir],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        probe_out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not probe_out["ok"]:
            raise BenchmarkError("warm-up op failed its output check in a fresh interpreter")
        times.append((probe_out["setup_s"], probe_out["reference_s"]))
    return times


def _percentile_ms(latencies: list, q: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end_metrics(latencies: list, ok_ops: int, setup_s: list) -> dict:
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (ok_ops / sum(latencies), "1/s", ok_ops),
        "op_p50_ms": (_percentile_ms(latencies, 50), "ms", n),
        "op_p90_ms": (_percentile_ms(latencies, 90), "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def _overhead_ratio(w, loop: dict) -> float:
    """Traced over untraced time of the first ops, replayed untraced.

    The replay covers OVERHEAD_SHARE of the traced time.  Both sides are
    compared at reference speed, since the host's speed differs between the
    traced phase and the replay.
    """
    budget = OVERHEAD_SHARE * sum(loop["latencies"])
    count, spent, traced = 0, 0.0, 0.0
    for elapsed, scaled in zip(loop["latencies"], loop["scaled"]):
        if count and spent + elapsed > budget:
            break
        spent += elapsed
        traced += scaled
        count += 1
    replay = closed_loop(w, 0.0, ops=count)
    return traced / sum(replay["scaled"])


def per_layer_metrics(tracer, loop: dict, overhead_ratio: float) -> dict:
    n = loop["attempted"]
    out = {}
    for layer in layertrace.LAYERS:
        label = layer.lstrip("_")
        out[f"{label}.calls"] = (tracer.layer_calls(layer) / n, "calls/op", n)
        out[f"{label}.self_s"] = (tracer.layer_self_s(layer) / n, "s/op", n)
    out["aberth.sweeps"] = (tracer.counters["aberth.sweeps"] / n, "sweeps/op", n)
    out["aberth.unconverged"] = (tracer.counters["aberth.unconverged"], "count", n)
    for layer, fn in SELF_TIMED:
        out[f"{layer}.{fn}.self_s"] = (tracer.self_s[(layer, fn)] / n, "s/op", n)
    out["roots.cert_failures"] = (tracer.counters["roots.cert_failures"], "count", n)
    out["realize.select_triple.calls"] = (tracer.calls[("realize", "select_triple")] / n, "calls/op", n)
    out["realize.worst_residual"] = (tracer.maxima["realize.worst_residual"], "1", n)
    out["realize.perturbation"] = (tracer.maxima["realize.perturbation"], "1", n)
    out["cli.exit_nonzero"] = (tracer.counters["cli.exit_nonzero"], "count", n)
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio", n)
    out["trace.unattributed_s"] = (tracer.unattributed_s / n, "s/op", n)
    return out


def _traced(w, seconds: float, ops: int | None) -> tuple:
    modules = layertrace.package_modules()
    tracer = layertrace.Tracer()
    tracer.install(modules)
    try:
        loop = closed_loop(w, seconds, ops, tracer)
    finally:
        tracer.uninstall()
    layertrace.assert_unwrapped(modules)
    attributed = sum(tracer.self_s.values()) + tracer.unattributed_s
    if abs(attributed - tracer.wall_s) > 1e-6 + 1e-3 * tracer.wall_s:
        raise BenchmarkError(
            f"layer self times plus unattributed time ({attributed:.6f} s) "
            f"do not add up to the traced wall time ({tracer.wall_s:.6f} s)"
        )
    return loop, per_layer_metrics(tracer, loop, _overhead_ratio(w, loop))


def measure(name: str, seed: int, seconds: float, trace: bool, ops: int | None = None) -> dict:
    """One benchmark run; returns the record printed before the result line.

    ``ops`` fixes the number of timed ops instead of the duration, so two
    runs can be compared count for count.
    """
    if name not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    ss = load_package()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        w = workloads.create(name, seed, workdir)
        warm = w.make_input(workloads.WARM_UP)
        if not w.check(warm, w.run(warm)):
            raise BenchmarkError("warm-up op failed its output check")
        raw = None
        if trace:
            loop, metrics = _traced(w, seconds, ops)
        else:
            layertrace.assert_unwrapped(layertrace.package_modules())
            setups = _setup_times(name, seed, workdir)
            loop = closed_loop(w, seconds, ops)
            scaled_setup = [wall * refspeed.REFERENCE_S / ref for wall, ref in setups]
            metrics = end_to_end_metrics(loop["scaled"], loop["ok_ops"], scaled_setup)
            raw = end_to_end_metrics(loop["latencies"], loop["ok_ops"], [wall for wall, _ in setups])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = loop["attempted"]
    record = {
        "workload": name,
        "input_size": w.size,
        "trace": bool(trace),
        "seconds": seconds,
        "meta": run_meta(ss, seed),
        "attempted": attempted,
        "failed": loop["failed"],
        "fail_ratio": loop["failed"] / attempted,
        "repeated_input_share": 1.0 - loop["distinct_inputs"] / attempted,
        "metrics": {
            key: {"value": value, "unit": unit, "samples": samples}
            for key, (value, unit, samples) in metrics.items()
        },
        "reference_kernel_ms": loop["reference_s"] * 1e3,
    }
    if raw is not None:
        record["wall_clock_metrics"] = {key: value for key, (value, _, _) in raw.items()}
    return record


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": m["value"], "unit": m["unit"]} for key, m in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
