"""Command-line front end: realization, inertia construction, verification,
factoring, and pattern lookup as subcommands with JSON input and output.

Every command body returns its JSON-ready dict and either None or a one-line
failure message; ``main`` is the only boundary between those bodies and the
terminal.  It prints the JSON to stdout or --out, and maps failures to exit
codes: 0 success; 1 a failed check, a root-finding failure or an
ArithmeticError (a construction that missed its own bounds), each with one
"error: ..." line on stderr; 2 a usage error, a ValueError (bad input or an
unmet precondition), or a POLY or --out that cannot be opened, each with one
"Error: ..." line.  A reader that closes stdout before the JSON is written
gets exit 1 and no message.  No failure shows a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .patterns import builtin_pattern
from .poly import polynomial_from_dict
from .realize import realize_inertia, realize_poly, select_triples, zero_class_tol
from .roots import RootFindingError, _check_tol, find_roots, refined_inertia_of, roots_to_quadratics
from .verify import check_divisor_obstruction, check_identity, run_theorem_suite


def _load_poly(path: str):
    try:
        if path == "-":
            return polynomial_from_dict(json.load(sys.stdin))
        with open(path) as fh:
            return polynomial_from_dict(json.load(fh))
    except OSError as e:
        raise ValueError(f"cannot open POLY '{path}': {e.strerror}") from None
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"invalid polynomial input: {e}") from None


def _realize(poly, t, d, tol, backend):
    """Realize a monic degree-(6T + 2D) polynomial over the composite pattern.

    POLY is a polynomial JSON file, or - for stdin.
    """
    f = _load_poly(poly)
    return realize_poly(f, t, d, tol=tol, backend=backend).to_dict(), None


def _inertia(n_plus, n_minus, n_zero, n_imag):
    """Build an 8x8 matrix over diag(T, D) with the requested refined inertia.

    The four arguments count eigenvalues with positive real part, negative
    real part, zero, and purely imaginary conjugate pairs; they must satisfy
    N_PLUS + N_MINUS + N_ZERO + 2*N_IMAG = 8.  The matrix is rational, and
    its refined inertia is classified exactly, with no tolerance; exits 1
    when the classification differs from the request.
    """
    nu = (n_plus, n_minus, n_zero, n_imag)
    matrix = realize_inertia(nu)
    classified = refined_inertia_of(matrix)
    data = {"matrix": matrix.to_dict(), "requested": list(nu), "classified": list(classified)}
    if tuple(classified) != nu:
        return data, f"classified inertia {list(classified)} differs from the request"
    return data, None


def _verify(which, samples, seed, tol):
    """Run exact certificates: coefficient identities, the divisor
    obstruction, or the full three-part suite.

    Exits 1 when any requested check fails.
    """
    # checked here, as identities and divisors never reach find_roots
    _check_tol(tol)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    result = {}
    passed = {}
    if which in ("identities", "all"):
        rt = check_identity("T", samples, seed)
        rtp = check_identity("Tprime", samples, seed)
        result["identities"] = {"T": rt.to_dict(), "Tprime": rtp.to_dict()}
        passed["identities"] = rt.all_passed and rtp.all_passed
    if which in ("divisors", "all"):
        obstruction = check_divisor_obstruction()
        result["divisors"] = obstruction.to_dict()
        passed["divisors"] = obstruction.passed
    if which in ("theorem", "all"):
        suite = run_theorem_suite(seed=seed, tol=tol, identity_samples=samples)
        result["theorem"] = suite.to_dict()
        passed["theorem"] = suite.passed
    failed = [name for name, ok in passed.items() if not ok]
    return result, f"failed checks: {', '.join(failed)}" if failed else None


def _factor(poly, tol):
    """Split an even-degree monic polynomial into monic quadratics.

    When the degree is at least 16, also report the sign-homogeneous triple
    the realization engine would route to a 6x6 block.
    """
    f = _load_poly(poly)
    if f.degree < 2 or f.degree % 2:
        raise ValueError(f"degree must be even and at least 2, got {f.degree}")
    quads = roots_to_quadratics(find_roots(f, tol=tol))
    data = {"quadratics": [{"a": float(q.a), "b": float(q.b)} for q in quads]}
    if f.degree >= 16:
        sel = select_triples(quads, 1, zero_class_tol(quads, tol))
        data["triple"] = {
            "label": sel.labels[0],
            "quadratics": [{"a": float(q.a), "b": float(q.b)} for q in sel.triples[0]],
            "snapped": sel.snapped[0],
        }
    return data, None


def _pattern(name, t, d):
    """Print a built-in sign pattern as JSON.

    Known names: T, Tprime, D, X_template, S, Sprime, TD, U1, U2, U3, and V
    (which needs --t and --d).
    """
    return builtin_pattern(name, t=t, d=d).to_dict(), None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # raise instead of exiting, so main prints a parse error like any other usage error
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="signspectra",
        description=(
            "Constructive spectra for sign patterns.  Polynomials are JSON objects"
            ' {"coeffs": [c0, c1, ...]} in ascending order; string coefficients like'
            ' "-2/7" select exact rational arithmetic.  Matrices print as'
            ' {"n": ..., "entries": [[...], ...]}.'
        ),
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(body, summary):
        sub = commands.add_parser(
            body.__name__[1:], help=summary, description=body.__doc__, allow_abbrev=False
        )
        sub.set_defaults(body=body, parser=sub)
        return sub

    tol_help = "Root-finding tolerance (default: %(default)s)."
    poly_help = "Polynomial JSON file, or - for stdin."

    sub = command(_realize, "Realize a polynomial over the composite pattern.")
    sub.add_argument("poly", metavar="POLY", help=poly_help)
    sub.add_argument("--t", type=int, required=True, help="Number of 6x6 template blocks.")
    sub.add_argument("--d", type=int, required=True, help="Number of 2x2 blocks (at least 5).")
    sub.add_argument("--tol", type=float, default=1e-9, help=tol_help)
    sub.add_argument(
        "--backend",
        choices=["rational", "float"],
        default="float",
        help="Arithmetic for the constructed blocks (default: %(default)s).",
    )

    sub = command(_inertia, "Build an 8x8 matrix with a given refined inertia.")
    for name in ("n_plus", "n_minus", "n_zero", "n_imag"):
        sub.add_argument(name, metavar=name.upper(), type=int)

    sub = command(_verify, "Run the exact certificates.")
    sub.add_argument(
        "which",
        metavar="WHICH",
        choices=["identities", "divisors", "theorem", "all"],
        help="One of identities, divisors, theorem, all.",
    )
    sub.add_argument(
        "--samples", type=int, default=1000, help="Samples per identity check (default: %(default)s)."
    )
    sub.add_argument("--seed", type=int, default=0, help="Sampling seed (default: %(default)s).")
    sub.add_argument(
        "--tol", type=float, default=1e-9, help=tol_help + "  Checked, but unused by identities and divisors."
    )

    sub = command(_factor, "Split a polynomial into monic quadratics.")
    sub.add_argument("poly", metavar="POLY", help=poly_help)
    sub.add_argument("--tol", type=float, default=1e-9, help=tol_help)

    sub = command(_pattern, "Print a built-in sign pattern.")
    sub.add_argument("name", metavar="NAME")
    sub.add_argument("--t", type=int, help="Template block count (pattern V only).")
    sub.add_argument("--d", type=int, help="2x2 block count (pattern V only).")

    for sub in commands.choices.values():
        sub.add_argument("--out", help="Write JSON here instead of stdout (- is stdout).")
    return parser


# built once: a parser per call would cost more than the parse itself
_PARSER = _build_parser()


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            # flushed so that an error line on stderr follows the JSON
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early (`| head`): point stdout at devnull, so
            # that the interpreter's last flush does not report the pipe again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    try:
        fh = open(out, "w")
    except OSError as e:
        raise ValueError(f"cannot open --out '{out}': {e.strerror}") from None
    with fh:
        fh.write(text)


def main(argv=None, standalone_mode: bool = True):
    """Run one command line (``sys.argv[1:]`` when argv is None).

    With standalone_mode, exit the process with the command's exit code;
    otherwise return that code as an int.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        namespace, extra = _PARSER.parse_known_args(argv)
        args = vars(namespace)
        body, out, parser = args.pop("body"), args.pop("out"), args.pop("parser")
        if extra:
            # the usage line that comes first is the top-level one when a leftover
            # precedes the command's name, and the command's otherwise
            before = argv[: argv.index(body.__name__[1:])]
            reporter = _PARSER if set(before) & set(extra) else parser
            reporter.error(f"unrecognized arguments: {' '.join(extra)}")
        data, error = body(**args)
        # --out is opened only now, so a command that fails first creates no file
        _write(json.dumps(data, indent=2) + "\n", out)
    except SystemExit as e:
        # --help printed its text, and argparse exits 0 after it
        code = e.code
    except ValueError as e:
        print(f"Error: {e}", file=sys.stderr)
        code = 2
    except (RootFindingError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # nobody reads the JSON: exit 1 with no message, as the reader is gone
        code = 1
    else:
        code = 0
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
