"""Tests of the benchmark harness itself.

Run with:  python3 -m pytest perfbench/tests -q

Two traced runs at one seed must count exactly the same calls, kernel sweeps
and CLI exits; a difference means hidden state or a cache leaks across ops.
A different seed must change the realize-chain and certify-identities inputs
without changing the op count or the calls each op makes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Fixed op counts: whole cycles for cli-mixed, a few ops elsewhere.
OPS = {"realize-chain": 3, "certify-identities": 4, "inertia-sweep": 20, "cli-mixed": 14}


def _traced(name: str, seed: int) -> dict:
    record = run.measure(name, seed, seconds=1.0, trace=True, ops=OPS[name])
    assert record["attempted"] == OPS[name]
    assert record["failed"] == 0
    return record


def _exact_counts(record: dict) -> dict:
    exact = {"aberth.sweeps", "aberth.unconverged", "roots.cert_failures", "cli.exit_nonzero"}
    return {
        key: m["value"]
        for key, m in record["metrics"].items()
        if key.endswith(".calls") or key in exact
    }


@pytest.mark.parametrize("name", sorted(OPS))
def test_same_seed_gives_identical_counts(name):
    first, second = _traced(name, 5), _traced(name, 5)
    assert _exact_counts(first) == _exact_counts(second)


@pytest.mark.parametrize("name", ["realize-chain", "certify-identities"])
def test_other_seed_changes_inputs_not_op_counts(name, tmp_path):
    run.load_package()
    a = workloads.create(name, 5, str(tmp_path))
    b = workloads.create(name, 6, str(tmp_path))
    assert all(a.make_input(k) != b.make_input(k) for k in range(OPS[name]))
    calls = [
        {k: v for k, v in _exact_counts(_traced(name, seed)).items() if k.endswith(".calls")}
        for seed in (5, 6)
    ]
    assert calls[0] == calls[1]


def test_traced_run_restores_every_binding():
    _traced("inertia-sweep", 1)
    layertrace.assert_unwrapped(layertrace.package_modules())


def test_unwrapped_check_catches_a_left_over_wrapper():
    run.load_package()
    modules = layertrace.package_modules()
    tracer = layertrace.Tracer()
    tracer.install(modules)
    try:
        with pytest.raises(RuntimeError, match="realize_poly"):
            layertrace.assert_unwrapped(modules)
    finally:
        tracer.uninstall()
    layertrace.assert_unwrapped(modules)


def test_emitted_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = _traced("certify-identities", 0)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: m["unit"] for k, m in traced.items()}
    untraced = run.end_to_end_metrics([0.1, 0.2], 2, [0.3])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: m[1] for k, m in untraced.items()}


def test_compare_refuses_different_kernels(tmp_path, capsys):
    record = {"workload": "inertia-sweep", "trace": False, "meta": {"kernel": "python"}, "metrics": {}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"records": [record]}))
    new.write_text(json.dumps({"records": [dict(record, meta={"kernel": "compiled"})]}))
    assert compare.main([str(old), str(new)]) == 2
    out = capsys.readouterr()
    assert "different root kernels" in out.err
    assert out.out == ""


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inertia-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
