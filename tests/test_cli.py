import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

import signspectra
from signspectra import (
    Polynomial,
    RealizationReport,
    RefinedInertia,
    SignPattern,
    matrix_from_dict,
    poly_mul,
    polynomial_from_dict,
    verify_realization,
)
from signspectra.cli import main


def product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = poly_mul(out, p)
    return out


DEGREE16 = product(
    [Polynomial((1, 0, 1))] * 5 + [Polynomial((k, 0, 1)) for k in (2, 3, 4)]
)
DEGREE8 = product(
    [Polynomial(c) for c in ((1, 1, 1), (2, -1, 1), (1, 0, 1), (-1, 0, 1))]
)


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None

    @property
    def output(self) -> str:
        # what a terminal shows: a success test that parses it also finds stderr empty
        return self.stdout + self.stderr


def run(*args, input=None):
    """Run main as the console script does, on the given stdin text, in process."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), io.StringIO(), io.StringIO()
    try:
        main(list(args), standalone_mode=True)
    except SystemExit as e:
        stop = e
    else:
        pytest.fail("main returned instead of exiting")
    finally:
        stdout, stderr = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(stop.code, stdout, stderr, stop if stop.code else None)


def poly_json(p):
    return json.dumps(p.to_dict())


# --- realize ------------------------------------------------------------------


def test_realize_from_stdin():
    result = run("realize", "-", "--t", "1", "--d", "5", input=poly_json(DEGREE16))
    assert result.exit_code == 0, result.output + result.stderr
    data = json.loads(result.output)
    assert data["matrix"]["n"] == 16
    assert data["pattern"]["n"] == 16
    assert data["block_tags"] == ["T", "D", "D", "D", "D", "D"]
    assert data["residual"] <= 1e-6
    assert data["backend"] == "float"
    # output target echoes the parsed input exactly
    assert polynomial_from_dict(data["target"]) == DEGREE16


def test_realize_usage_errors():
    result = run("realize", "-", "--t", "1", "--d", "4", input=poly_json(DEGREE16))
    assert result.exit_code == 2
    assert "d must be at least 5" in result.stderr

    result = run("realize", "-", "--t", "0", "--d", "5", input=poly_json(DEGREE16))
    assert result.exit_code == 2
    assert "degree must be" in result.stderr

    result = run("realize", "-", "--t", "1", "--d", "5", input="{not json")
    assert result.exit_code == 2
    assert "invalid polynomial input" in result.stderr

    result = run(
        "realize", "-", "--t", "1", "--d", "5", "--tol", "0", input=poly_json(DEGREE16)
    )
    assert result.exit_code == 2
    assert "tol must be positive" in result.stderr


def assert_one_usage_error(result, message):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize(
    "args, stdin, message",
    [
        (("realize", "-", "--t", "1", "--d", "5"), poly_json(DEGREE16), "tol must be positive and finite"),
        # inertia counts exactly and takes no --tol
        (("inertia", "2", "2", "0", "2"), None, "unrecognized arguments: --tol"),
        (("factor", "-"), poly_json(DEGREE8), "tol must be positive and finite"),
        (("verify", "theorem", "--samples", "10"), None, "tol must be positive and finite"),
    ],
    ids=["realize", "inertia", "factor", "verify"],
)
def test_non_finite_tolerance_is_a_usage_error(args, stdin, message, tol):
    # an infinite tolerance would pass any residual bound, and nan fails
    # every comparison with a misleading message
    assert_one_usage_error(run(*args, "--tol", tol, input=stdin), message)


@pytest.mark.parametrize("tol", ["1", "1e10"])
@pytest.mark.parametrize(
    "args, stdin",
    [
        (("realize", "-", "--t", "1", "--d", "5"), poly_json(DEGREE16)),
        (("factor", "-"), poly_json(DEGREE8)),
        (("verify", "theorem", "--samples", "10"), None),
    ],
    ids=["realize", "factor", "verify"],
)
def test_tolerance_of_one_or_more_is_a_usage_error(args, stdin, tol):
    # a backward error never exceeds 1, so a root certificate at tol >= 1
    # passes any point and the residual bound 10 * tol * degree any residual
    assert_one_usage_error(run(*args, "--tol", tol, input=stdin), "tol must be below 1")


def test_realize_unattainable_tolerance_fails_cleanly():
    coeffs = [0.3, -1.2, 0.7, 2.0, -0.4, 1.1, -2.2, 0.9] + [0.1] * 8 + [1.0]
    blob = json.dumps({"coeffs": coeffs})
    result = run("realize", "-", "--t", "1", "--d", "5", "--tol", "1e-30", input=blob)
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_realize_rational_backend_writes_file(tmp_path):
    target = product([Polynomial((-1, 1))] * 5 + [Polynomial((2, 1))] * 5)
    out = tmp_path / "report.json"
    result = run(
        "realize",
        "-",
        "--t",
        "0",
        "--d",
        "5",
        "--backend",
        "rational",
        "--out",
        str(out),
        input=poly_json(target),
    )
    assert result.exit_code == 0
    assert result.output == ""
    data = json.loads(out.read_text())
    assert data["residual"] == 0.0
    assert data["backend"] == "rational"
    # rational matrices serialize entries as exact fraction strings
    flat = [e for row in data["matrix"]["entries"] for e in row]
    assert all(isinstance(e, str) for e in flat)


# --- inertia ------------------------------------------------------------------


def test_inertia_roundtrip():
    result = run("inertia", "3", "3", "0", "1")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["matrix"]["n"] == 8
    assert data["requested"] == [3, 3, 0, 1]
    assert data["classified"] == [3, 3, 0, 1]


def test_inertia_all_axis():
    result = run("inertia", "0", "0", "0", "4")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["classified"] == [0, 0, 0, 4]


def test_inertia_echo_mismatch_exits_1(monkeypatch):
    # a construction that returns a matrix of another inertia fails the echo
    other = signspectra.realize_inertia((0, 0, 8, 0))
    monkeypatch.setattr("signspectra.cli.realize_inertia", lambda nu: other)
    result = run("inertia", "2", "2", "0", "2")
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["requested"] == [2, 2, 0, 2]
    assert data["classified"] == [0, 0, 8, 0]
    assert "error:" in result.stderr


def test_root_certificate_failure_exits_1_without_traceback():
    factor_input = json.dumps({"coeffs": [4, 0, 5, 0, 1]})
    for args, stdin in ((("factor", "-"), factor_input), (("verify", "theorem", "--samples", "5"), None)):
        result = run(*args, "--tol", "1e-300", input=stdin)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: residual certificate failed" in result.stderr
        assert "Traceback" not in result.output + result.stderr


def test_inertia_usage_errors():
    result = run("inertia", "1", "1", "1", "1")
    assert result.exit_code == 2
    assert "must equal 8" in result.stderr

    result = run("inertia", "--", "-1", "3", "0", "3")
    assert result.exit_code == 2
    assert "nonnegative" in result.stderr


# --- verify -------------------------------------------------------------------


def test_verify_identities():
    result = run("verify", "identities", "--samples", "50", "--seed", "3")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["identities"]["T"]["all_passed"] is True
    assert data["identities"]["Tprime"]["all_passed"] is True
    assert data["identities"]["T"]["samples"] == 50


def test_verify_divisors():
    result = run("verify", "divisors")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["divisors"]["count"] == 4
    assert data["divisors"]["passed"] is True
    assert all(d["violates"] for d in data["divisors"]["divisors"])


def test_verify_all():
    result = run("verify", "all", "--samples", "40")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert set(data) == {"identities", "divisors", "theorem"}
    assert data["theorem"]["passed"] is True
    assert data["theorem"]["part2"]["inertia_total"] == 95


def test_verify_usage_errors():
    assert run("verify", "everything").exit_code == 2
    result = run("verify", "identities", "--samples", "0")
    assert result.exit_code == 2
    assert "at least 1" in result.stderr


# --- factor -------------------------------------------------------------------


def test_factor_degree8():
    result = run("factor", "-", input=poly_json(DEGREE8))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["quadratics"]) == 4
    assert "triple" not in data
    rebuilt = product(
        [Polynomial((q["b"], q["a"], 1.0)) for q in data["quadratics"]]
    )
    assert max(
        abs(a - b) for a, b in zip(rebuilt.coeffs, DEGREE8.to_float().coeffs)
    ) <= 1e-7


def test_factor_reports_triple_at_degree16():
    result = run("factor", "-", input=poly_json(DEGREE16))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["quadratics"]) == 8
    assert data["triple"]["label"] == "zero"
    assert len(data["triple"]["quadratics"]) == 3
    assert all(q["a"] == 0.0 for q in data["triple"]["quadratics"])


def test_factor_usage_and_failure_paths():
    result = run("factor", "-", input=json.dumps({"coeffs": [1, 0, 0, 1]}))
    assert result.exit_code == 2
    assert "even" in result.stderr

    # irrational simple roots cannot be certified at an absurd tolerance
    result = run(
        "factor", "-", "--tol", "1e-30", input=json.dumps({"coeffs": [1, 1, 0, 0, 1]})
    )
    assert result.exit_code == 1
    assert "error:" in result.stderr

    # t^2 (t^2 + 1e308): the closed-form roots overflow, and a non-finite
    # root must not reach stdout as NaN or Infinity
    result = run("factor", "-", input=json.dumps({"coeffs": [0, 0, 1e308, 0, 1]}))
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "NaN" not in result.output and "Infinity" not in result.output
    assert "Traceback" not in result.output + result.stderr


def test_factor_prints_zero_coefficients_as_plus_zero():
    # t**2 + 1, t**2, README's (t**2 + 1)(t**2 + 4) and t(t + 1)
    for coeffs in ([1, 0, 1], [0, 0, 1], [4, 0, 5, 0, 1], [0, 1, 1]):
        result = run("factor", "-", input=json.dumps({"coeffs": coeffs}))
        assert result.exit_code == 0
        assert "-0.0" not in result.output
        for q in json.loads(result.output)["quadratics"]:
            for c in (q["a"], q["b"]):
                assert c != 0.0 or math.copysign(1.0, c) == 1.0, (coeffs, q)


def test_factor_rational_quadratic_with_cancelling_roots():
    # t^2 + 1e8 t + 1: the small root -1e-8 needs the cancellation-free formula
    result = run("factor", "-", input=json.dumps({"coeffs": ["1", "100000000", "1"]}))
    assert result.exit_code == 0
    (quad,) = json.loads(result.output)["quadratics"]
    assert quad["a"] == pytest.approx(1e8, rel=1e-12)
    assert quad["b"] == pytest.approx(1.0, rel=1e-12)


def test_arithmetic_error_exits_1_without_traceback():
    # a rational coefficient beyond the double range overflows in float()
    huge = json.dumps({"coeffs": ["1", "1e400", "1"]})
    result = run("factor", "-", input=huge)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert "too large for a float" in result.stderr
    assert "Traceback" not in result.output + result.stderr


def test_float_quadratic_block_keeps_delta_at_extreme_scale():
    # (t^2 - 1e17 t + 1)(t^2 + 1)^4: delta = alpha + p1 would round to 0 in
    # doubles; formed as |p0| + 2 it stays positive and the block conforms
    target = product(
        [Polynomial((1, -(10**17), 1))] + [Polynomial((1, 0, 1))] * 4
    )
    args = ("realize", "-", "--t", "0", "--d", "5")
    for backend in ("float", "rational"):
        result = run(*args, "--backend", backend, input=poly_json(target))
        assert result.exit_code == 0, result.stderr
        data = json.loads(result.output)
        report = RealizationReport(
            matrix=matrix_from_dict(data["matrix"]),
            pattern=SignPattern.from_dict(data["pattern"]),
            target=polynomial_from_dict(data["target"]),
            residual=data["residual"],
            perturbation=data["perturbation"],
            block_orders=tuple(data["block_orders"]),
            block_tags=tuple(data["block_tags"]),
            backend=data["backend"],
        )
        assert report.target == target
        assert report.residual <= 1e-9
        assert verify_realization(report, 1e-9)


def test_construction_failure_on_valid_input_exits_1():
    # float t^16 + 1e300: the 2x2 blocks carry their determinants at the
    # scale p0**2, so the exact residual misses 10 * tol * degree; the input is
    # valid, so this is a computation failure, not a usage error
    blob = json.dumps({"coeffs": [1e300] + [0.0] * 15 + [1.0]})
    result = run("realize", "-", "--t", "1", "--d", "5", input=blob)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1
    assert "exact residual" in result.stderr and "exceeds the bound" in result.stderr
    assert "--help" not in result.stderr
    assert "Traceback" not in result.output + result.stderr


def test_factor_rejects_non_finite_coefficients():
    # Python's json module accepts the Infinity and NaN literals
    for blob in ('{"coeffs": [1.0, Infinity, 0.0, 0.0, 1.0]}', '{"coeffs": [NaN, 0.0, 1.0]}'):
        result = run("factor", "-", input=blob)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid polynomial input" in result.stderr


def test_zero_denominator_is_a_usage_error():
    blob = '{"coeffs": ["1/0", "1", "0", "1"]}'
    for args in (("factor", "-"), ("realize", "-", "--t", "0", "--d", "5")):
        result = run(*args, input=blob)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid polynomial input" in result.stderr
        assert "Traceback" not in result.output + result.stderr


def test_boolean_coefficient_is_a_usage_error():
    for blob in ('{"coeffs": [true, false, true]}', '{"coeffs": ["1", true, "1"]}'):
        result = run("factor", "-", input=blob)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid polynomial input" in result.stderr and "is a boolean, not a number" in result.stderr
        assert "Traceback" not in result.output + result.stderr


def test_string_coeffs_is_a_usage_error():
    # a JSON string is not a coefficient list, though iterating it yields digits:
    # "201" once read as t**2 + 2, and 17 digits realized as a degree-16 target
    for args, blob in (
        (("factor", "-"), '{"coeffs": "201"}'),
        (("realize", "-", "--t", "1", "--d", "5"), json.dumps({"coeffs": "1" * 17})),
    ):
        result = run(*args, input=blob)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "Error: invalid polynomial input: coeffs must be a list, got str\n"


def test_oversized_integer_coefficient_is_a_usage_error():
    blob = json.dumps({"coeffs": [10**400, 0, 1]})
    for args in (("factor", "-"), ("realize", "-", "--t", "0", "--d", "5")):
        result = run(*args, input=blob)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid polynomial input" in result.stderr
        assert "Traceback" not in result.output + result.stderr


# --- pattern ------------------------------------------------------------------


def test_pattern_lookup():
    result = run("pattern", "T")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["n"] == 6
    assert data["rows"][0] == "++0000"

    result = run("pattern", "Tprime")
    data = json.loads(result.output)
    assert data["rows"][2][0] == "+"


def test_pattern_composite():
    result = run("pattern", "V", "--t", "1", "--d", "5")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["n"] == 16

    result = run("pattern", "U3")
    assert json.loads(result.output)["n"] == 32


def test_pattern_usage_errors():
    result = run("pattern", "V")
    assert result.exit_code == 2
    assert "requires both t and d" in result.stderr

    result = run("pattern", "nonsense")
    assert result.exit_code == 2
    assert "known names" in result.stderr

    result = run("pattern", "T", "--t", "1", "--d", "5")
    assert result.exit_code == 2
    assert "does not take" in result.stderr


def test_inertia_classification_matches_library():
    result = run("inertia", "2", "4", "2", "0")
    data = json.loads(result.output)
    assert RefinedInertia(*data["classified"]) == RefinedInertia(2, 4, 2, 0)



# --- the command boundary -----------------------------------------------------


def test_out_writes_exactly_what_stdout_shows(tmp_path):
    commands = [
        (("realize", "-", "--t", "1", "--d", "5"), poly_json(DEGREE16)),
        (("inertia", "3", "3", "0", "1"), None),
        (("verify", "divisors"), None),
        (("factor", "-"), poly_json(DEGREE8)),
        (("pattern", "U3"), None),
    ]
    out = tmp_path / "x.json"
    for args, stdin in commands:
        shown = run(*args, input=stdin)
        assert shown.exit_code == 0, shown.stderr
        written = run(*args, "--out", str(out), input=stdin)
        assert written.exit_code == 0, written.stderr
        assert written.stdout == ""
        assert out.read_bytes() == shown.stdout.encode()

    # an --out that cannot be opened is a usage error, not a traceback
    missing = tmp_path / "missing" / "x.json"
    result = run("pattern", "U3", "--out", str(missing))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    (line,) = [x for x in result.stderr.splitlines() if x.startswith("Error:")]
    assert str(missing) in line
    assert "Traceback" not in result.output + result.stderr
    assert not missing.exists()

    # so is an --out that is a directory
    result = run("pattern", "U3", "--out", str(tmp_path))
    assert result.exit_code == 2
    (line,) = [x for x in result.stderr.splitlines() if x.startswith("Error:")]
    assert str(tmp_path) in line
    assert result.stdout == ""

    # a command that fails before its write creates no file
    failed = tmp_path / "f.json"
    blob = json.dumps({"coeffs": [1, 1, 0, 0, 1]})
    result = run("factor", "-", "--tol", "1e-30", "--out", str(failed), input=blob)
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert not failed.exists()


def test_failed_verify_prints_its_json_then_one_error_line(monkeypatch):
    report = dataclasses.replace(signspectra.check_divisor_obstruction(), passed=False)
    monkeypatch.setattr("signspectra.cli.check_divisor_obstruction", lambda: report)
    result = run("verify", "divisors")
    assert result.exit_code == 1
    assert json.loads(result.stdout)["divisors"]["passed"] is False
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1
    assert "divisors" in result.stderr

def test_unreadable_poly_is_a_usage_error(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        for args in (("factor", str(path)), ("realize", str(path), "--t", "1", "--d", "5")):
            result = run(*args)
            assert result.exit_code == 2
            (line,) = result.stderr.splitlines()
            assert line.startswith("Error:") and str(path) in line
            assert result.stdout == ""


def test_poly_file_reads_as_stdin_does(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(poly_json(DEGREE16))
    for args in (("realize", "{}", "--t", "1", "--d", "5"), ("factor", "{}")):
        from_file = run(*(a.format(path) for a in args))
        from_stdin = run(*(a.format("-") for a in args), input=poly_json(DEGREE16))
        assert from_file.exit_code == from_stdin.exit_code == 0, from_file.stderr
        assert from_file.stdout == from_stdin.stdout


def test_option_abbreviations_are_rejected():
    # --to must not be read as --tol
    for args, stdin in (
        (("factor", "-"), poly_json(DEGREE8)),
        (("verify", "divisors"), None),
        (("inertia", "2", "2", "0", "2"), None),
    ):
        result = run(*args, "--to", "1e-9", input=stdin)
        assert result.exit_code == 2
        assert "unrecognized arguments: --to" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize(
    "args, stdin",
    [
        (("inertia", "2", "2", "0", "2", "--tol", "1e-9"), None),
        (("factor", "-", "--to", "1e-9"), poly_json(DEGREE8)),
    ],
    ids=["inertia", "factor"],
)
def test_unknown_option_after_a_command_prints_that_commands_usage(args, stdin):
    result = run(*args, input=stdin)
    assert_one_usage_error(result, "unrecognized arguments: ")
    assert result.stderr.startswith(f"usage: signspectra {args[0]} ")


def test_unknown_option_before_a_command_prints_the_top_level_usage():
    result = run("--bogus", "pattern", "U3")
    assert_one_usage_error(result, "unrecognized arguments: --bogus")
    assert result.stderr.splitlines()[0] == "usage: signspectra [-h] COMMAND ..."


def test_missing_or_unknown_command_is_a_usage_error():
    for args in ((), ("nonsense",)):
        result = run(*args)
        assert result.exit_code == 2
        assert result.stderr.startswith("usage: signspectra [-h] COMMAND")
        assert [x for x in result.stderr.splitlines() if x.startswith("Error:")]
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def test_help_exits_0(capsys):
    for args in (("--help",), ("realize", "--help")):
        result = run(*args)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: signspectra")
    # without standalone_mode the exit code is returned, as for every command
    assert main(["realize", "--help"], standalone_mode=False) == 0
    assert capsys.readouterr().out.startswith("usage: signspectra realize")


def test_module_entry_point_runs_commands():
    src = os.path.dirname(os.path.dirname(os.path.abspath(signspectra.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run(
        [sys.executable, "-m", "signspectra.cli", "pattern", "U3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["n"] == 32


def test_closed_stdout_exits_1_without_traceback():
    # a reader that stops early (`signspectra ... | head`) leaves a pipe with no reader
    src = os.path.dirname(os.path.dirname(os.path.abspath(signspectra.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "signspectra.cli", "pattern", "V", "--t", "8", "--d", "8"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""
