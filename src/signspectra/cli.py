"""Command-line front end: realization, inertia construction, verification,
factoring, and pattern lookup as subcommands with JSON input and output.

Every command body returns its JSON-ready dict and either None or a one-line
failure message; one command class is the only boundary between those bodies
and the terminal.  It adds --out to every command, prints the JSON, and maps
failures to exit codes: 0 success; 1 a failed check, a root-finding failure
or an ArithmeticError (a construction that missed its own bounds), each with
one "error: ..." line on stderr; 2 a usage error, a ValueError (bad input or
an unmet precondition), or an --out that cannot be opened.  No failure shows
a traceback.
"""

from __future__ import annotations

import json
import math

import click

from .patterns import builtin_pattern
from .poly import polynomial_from_dict
from .realize import realize_inertia, realize_poly, select_triple, zero_class_tol
from .roots import RootFindingError, find_roots, refined_inertia_of, roots_to_quadratics
from .verify import check_divisor_obstruction, check_identity, run_theorem_suite


def _load_poly(fh):
    try:
        return polynomial_from_dict(json.load(fh))
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"invalid polynomial input: {e}") from None


def _check_tol(tol: float, below_one: bool = True) -> None:
    # inf would make every residual bound pass, and nan fails every comparison
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    if below_one and tol >= 1:
        raise ValueError(
            "tolerance must be below 1: a backward error never exceeds 1, so any point would pass"
        )


class _Command(click.Command):
    """A command whose callback returns (data, error): prints data as JSON to
    stdout or --out, then exits 1 with one error line when error is set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        out = click.Option(["--out"], type=click.File("w", lazy=True), help="Write JSON here instead of stdout.")
        self.params.append(out)

    def invoke(self, ctx):
        # the lazy file opens at the write, so a command that fails first creates no file
        out = ctx.params.pop("out")
        try:
            data, error = super().invoke(ctx)
            click.echo(json.dumps(data, indent=2), file=out)
        except ValueError as e:
            raise click.UsageError(str(e), ctx)
        except click.FileError as e:
            raise click.UsageError(e.format_message(), ctx)
        except (RootFindingError, ArithmeticError) as e:
            error = str(e)
        if error is not None:
            click.echo(f"error: {error}", err=True)
            ctx.exit(1)


class _Main(click.Group):
    command_class = _Command


@click.group(cls=_Main)
def main():
    """Constructive spectra for sign patterns.

    Polynomials are JSON objects {"coeffs": [c0, c1, ...]} in ascending
    order; string coefficients like "-2/7" select exact rational arithmetic.
    Matrices print as {"n": ..., "entries": [[...], ...]}.
    """


@main.command()
@click.argument("poly", type=click.File("r"))
@click.option("--t", "t", type=int, required=True, help="Number of 6x6 template blocks.")
@click.option("--d", "d", type=int, required=True, help="Number of 2x2 blocks (at least 5).")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Root-finding tolerance.")
@click.option(
    "--backend",
    type=click.Choice(["rational", "float"]),
    default="float",
    show_default=True,
    help="Arithmetic for the constructed blocks.",
)
def realize(poly, t, d, tol, backend):
    """Realize a monic degree-(6T + 2D) polynomial over the composite pattern.

    POLY is a polynomial JSON file, or - for stdin.
    """
    _check_tol(tol)
    f = _load_poly(poly)
    return realize_poly(f, t, d, tol=tol, backend=backend).to_dict(), None


@main.command()
@click.argument("n_plus", type=int)
@click.argument("n_minus", type=int)
@click.argument("n_zero", type=int)
@click.argument("n_imag", type=int)
@click.option(
    "--tol",
    type=float,
    default=1e-9,
    show_default=True,
    help="Accepted and checked, but unused: the exact matrix is classified exactly.",
)
def inertia(n_plus, n_minus, n_zero, n_imag, tol):
    """Build an 8x8 matrix over diag(T, D) with the requested refined inertia.

    The four arguments count eigenvalues with positive real part, negative
    real part, zero, and purely imaginary conjugate pairs; they must satisfy
    N_PLUS + N_MINUS + N_ZERO + 2*N_IMAG = 8.  The matrix is rational, and
    its refined inertia is classified exactly, with no tolerance; exits 1
    when the classification differs from the request.
    """
    # --tol is still checked: a non-positive or non-finite value is a usage error
    _check_tol(tol, below_one=False)
    nu = (n_plus, n_minus, n_zero, n_imag)
    matrix = realize_inertia(nu)
    classified = refined_inertia_of(matrix, tol=tol)
    data = {"matrix": matrix.to_dict(), "requested": list(nu), "classified": list(classified)}
    if tuple(classified) != nu:
        return data, f"classified inertia {list(classified)} differs from the request"
    return data, None


@main.command()
@click.argument("which", type=click.Choice(["identities", "divisors", "theorem", "all"]))
@click.option("--samples", type=int, default=1000, show_default=True, help="Samples per identity check.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
def verify(which, samples, seed, tol):
    """Run exact certificates: coefficient identities, the divisor
    obstruction, or the full three-part suite.

    Exits 1 when any requested check fails.
    """
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


@main.command()
@click.argument("poly", type=click.File("r"))
@click.option("--tol", type=float, default=1e-9, show_default=True)
def factor(poly, tol):
    """Split an even-degree monic polynomial into monic quadratics.

    When the degree is at least 16, also report the sign-homogeneous triple
    the realization engine would route to a 6x6 block.
    """
    _check_tol(tol)
    f = _load_poly(poly)
    if f.degree < 2 or f.degree % 2:
        raise ValueError(f"degree must be even and at least 2, got {f.degree}")
    quads = roots_to_quadratics(find_roots(f, tol=tol))
    data = {"quadratics": [{"a": float(q.a), "b": float(q.b)} for q in quads]}
    if f.degree >= 16:
        sel = select_triple(quads, zero_class_tol(quads, tol))
        data["triple"] = {
            "label": sel.label,
            "quadratics": [{"a": float(q.a), "b": float(q.b)} for q in sel.triple],
            "snapped": sel.snapped,
        }
    return data, None


@main.command()
@click.argument("name")
@click.option("--t", "t", type=int, default=None, help="Template block count (pattern V only).")
@click.option("--d", "d", type=int, default=None, help="2x2 block count (pattern V only).")
def pattern(name, t, d):
    """Print a built-in sign pattern as JSON.

    Known names: T, Tprime, D, X_template, S, Sprime, TD, U1, U2, U3, and V
    (which needs --t and --d).
    """
    return builtin_pattern(name, t=t, d=d).to_dict(), None


if __name__ == "__main__":
    main()
