"""The four benchmark workloads: seeded inputs, the timed op, and its output check.

Each workload is driven by a closed loop with one client: the next op starts
only after the previous one returned and was checked.  ``make_input(k)``
builds the k-th input from the workload seed alone, ``run`` is the op the
harness times, and ``check`` verifies the output outside the timed window.

Importing this module imports nothing from signspectra; ``create`` does, so
a fresh interpreter can time the package import as part of set-up.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
from contextlib import redirect_stdout


# Input index of the untimed warm-up op.  Timed ops use 0, 1, 2, ...; as a
# multiple of 7 it makes cli-mixed warm up with its realize command.
WARM_UP = -7


def _rng(name: str, seed: int, k) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}")


def _inertia_tuples(ss) -> list:
    out = []
    for ni in range(5):
        rest = 8 - 2 * ni
        for nz in range(rest + 1):
            for npos in range(rest - nz + 1):
                out.append(ss.RefinedInertia(npos, rest - nz - npos, nz, ni))
    return out


class RealizeChain:
    """realize_poly at degree 64 over the 8-fold chain diag(U3, U3).

    The paper's part-3 chain: the float root path and the exact block
    product do almost all the work.  No input repeats.
    """

    name = "realize-chain"
    size = "1 monic float polynomial of degree 64 (t=8, d=8, alternating)"
    module = "signspectra"

    def __init__(self, seed: int, workdir: str):
        self.ss = ss = importlib.import_module(self.module)
        self.seed = seed
        self.chain = ss.block_diag([ss.builtin_pattern("U3")] * 2)

    def make_input(self, k):
        return self.ss.random_monic_polynomial(64, _rng(self.name, self.seed, k))

    def run(self, f):
        return self.ss.realize_poly(f, 8, 8, tol=1e-7, arrangement="alternating")

    def check(self, f, report) -> bool:
        ss = self.ss
        return (
            report.target == f
            and ss.conforms(report.matrix, self.chain)
            and report.residual <= 1e-5
            and ss.verify_realization(report, 1e-5)
        )


class CertifyIdentities:
    """check_identity over 100 exact samples, alternating T and Tprime.

    Exact 6x6 arithmetic with no root finding at all, so a change to the
    root layer is predicted to change nothing here.
    """

    name = "certify-identities"
    size = "100 exact 6x6 samples per op"
    module = "signspectra"

    def __init__(self, seed: int, workdir: str):
        self.ss = importlib.import_module(self.module)
        self.seed = seed

    def make_input(self, k):
        which = "T" if k % 2 == 0 else "Tprime"
        return which, _rng(self.name, self.seed, k).randrange(2**32)

    def run(self, inp):
        which, sample_seed = inp
        return self.ss.check_identity(which, samples=100, seed=sample_seed)

    def check(self, inp, report) -> bool:
        which, sample_seed = inp
        return (
            report.all_passed
            and report.samples == 100
            and report.seed == sample_seed
            and report.pattern == self.ss.builtin_pattern(which)
        )


class InertiaSweep:
    """realize_inertia then refined_inertia_of, cycling over all 95 tuples.

    Rational degree-8 inputs with repeated roots take the exact squarefree
    split, not the float path at degree 64.  The 95 tuples are the whole
    input domain, so inputs repeat by design: a cache shows up here only.
    """

    name = "inertia-sweep"
    size = "1 refined inertia of total 8 (8x8 rational matrix)"
    module = "signspectra"

    def __init__(self, seed: int, workdir: str):
        self.ss = ss = importlib.import_module(self.module)
        self.order = _inertia_tuples(ss)
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        self.pattern = ss.builtin_pattern("TD")

    def make_input(self, k):
        return self.order[k % len(self.order)]

    def run(self, nu):
        m = self.ss.realize_inertia(nu)
        return m, self.ss.refined_inertia_of(m, tol=1e-6)

    def check(self, nu, out) -> bool:
        m, classified = out
        return classified == nu and self.ss.conforms(m, self.pattern)


class CliMixed:
    """In-process signspectra.cli.main calls cycling through seven commands.

    Measures the cli layer and the JSON/to_dict cost, which no other workload
    reaches.  Pattern lookup (U3) and construction (V) are separate commands;
    with an odd number of commands the median latency falls inside one
    command's class instead of jumping between two.  The per-process import cost of a real CLI call is in setup_s.
    ``python -m signspectra.cli`` is a silent no-op (no __main__ guard), so
    main is called directly and empty stdout counts as a failure.
    """

    name = "cli-mixed"
    size = "1 CLI command (realize/factor on degree-16 input, inertia, verify, pattern)"
    commands = 7
    module = "signspectra.cli"

    def __init__(self, seed: int, workdir: str):
        self.cli = importlib.import_module(self.module)
        self.ss = importlib.import_module("signspectra")
        self.click = importlib.import_module("click")
        self.seed = seed
        self.path = os.path.join(workdir, "poly.json")
        # One stdout for every call, as in a real process: click caches a
        # wrapper per stream and keeps every stream it has seen alive.
        self.stdout = io.StringIO()
        self.tuples = _inertia_tuples(self.ss)
        random.Random(f"{self.name}:{seed}").shuffle(self.tuples)

    def make_input(self, k):
        kind = k % self.commands
        rng = _rng(self.name, self.seed, k)
        text = None
        if kind in (0, 2):
            text = json.dumps(self.ss.random_monic_polynomial(16, rng).to_dict())
            with open(self.path, "w") as fh:
                fh.write(text)
        if kind == 0:
            args = ("realize", self.path, "--t", "1", "--d", "5")
        elif kind == 1:
            nu = self.tuples[(k // self.commands) % len(self.tuples)]
            args = ("inertia",) + tuple(str(x) for x in nu)
        elif kind == 2:
            args = ("factor", self.path)
        elif kind == 3:
            args = ("verify", "divisors")
        elif kind == 4:
            args = ("verify", "identities", "--samples", "20", "--seed", str(rng.randrange(2**31)))
        elif kind == 5:
            args = ("pattern", "V", "--t", "4", "--d", "6")
        else:
            args = ("pattern", "U3")
        return args, text

    def run(self, inp):
        args, _ = inp
        self.stdout.seek(0)
        self.stdout.truncate()
        try:
            with redirect_stdout(self.stdout):
                rv = self.cli.main(list(args), standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except self.click.ClickException as e:
            code = e.exit_code
        return code, self.stdout.getvalue()

    def check(self, inp, out) -> bool:
        args, text = inp
        code, stdout = out
        if code != 0 or not stdout.strip():
            return False
        data = json.loads(stdout)
        command = args[0] if args[0] != "verify" else args[1]
        if command == "realize":
            target = self.ss.polynomial_from_dict(json.loads(text))
            return (
                set(data) >= {"matrix", "pattern", "target", "residual", "block_tags"}
                and data["target"] == target.to_dict()
                and data["residual"] <= 10 * 1e-9 * 16
            )
        if command == "inertia":
            return set(data) == {"matrix", "requested", "classified"} and data["classified"] == [
                int(x) for x in args[1:]
            ]
        if command == "factor":
            return set(data) == {"quadratics", "triple"} and len(data["quadratics"]) == 8
        if command == "divisors":
            return set(data) == {"divisors"} and data["divisors"]["passed"]
        if command == "identities":
            ids = data["identities"]
            return set(data) == {"identities"} and ids["T"]["all_passed"] and ids["Tprime"]["all_passed"]
        return set(data) == {"n", "rows"} and data["n"] == (36 if args[1] == "V" else 32)


WORKLOADS = {w.name: w for w in (RealizeChain, CertifyIdentities, InertiaSweep, CliMixed)}


def create(name: str, seed: int, workdir: str):
    """Import the package and build the named workload."""
    return WORKLOADS[name](seed, workdir)
