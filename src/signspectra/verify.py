"""Certification of the package's negative results and the end-to-end claims.

Two kinds of evidence live here.  Exact evidence: coefficient identities for
the 6x6 patterns checked on exact random rational samples (a single failing
sample would disprove an identity; exact agreement on a thousand generic
points is treated as acceptance), and an exhaustive divisor enumeration
showing one specific degree-8 polynomial admits no realizable degree-6
divisor, hence no realization over diag(T, D).  The identities read only the
t**5 and t**3 coefficients, and compute them exactly from the power sums
tr A, tr A² and tr A³ over the closed walks of each sample's own support, by
Newton's identities: not by either path of char_poly (the cycle-cover
expansion or the trace recursion), which builds and checks realizations.
Each sample is checked as one flat, row-major list of n*n ints, entry (i, j)
at index i*n + j: its draw fills the nonzero positions of the pattern's flat
form, one ``tuple(map(bool, a))`` pass gives the support that ``conforms``'s
own predicate compares with the pattern's and that picks the walk sums, and
the walk sums are one straight-line expression compiled once per support.
Sampled evidence: spectral arbitrariness is a universally quantified claim
over an uncountable set, so the suite realizes batches of random targets and
labels the evidence kind rather than overclaiming.

A random conforming sample draws only at the pattern's nonzero entries, in
row-major order: a numerator k, then a denominator l, each uniform in 1..100,
and the entry is the pattern's sign times k/l.  Each number is drawn as
``rng.randint(1, 100)`` draws it on CPython (``getrandbits(7)`` until the
value is below 100, plus one), so a seed gives the same samples and leaves
the same generator state as a loop of ``randint(1, 100)`` calls would.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .matrices import RationalMatrix, _flat_conforms, _require_ints, block_diag, block_orders, conforms
from .patterns import SignPattern, builtin_pattern, is_superpattern
from .poly import (
    Polynomial,
    _charpoly_residual,
    _charpoly_scaled,
    _descaled,
    _rational_product,
    char_poly,
    divisors_degree6,
)
from .realize import _Report, _residual_bound, realize_even_sextic, realize_inertia, realize_poly, violates_sextic_gate
from .roots import RefinedInertia, refined_inertia_of


def random_monic_polynomial(degree: int, rng: random.Random) -> Polynomial:
    """Monic float polynomial with non-leading coefficients uniform in [-5, 5]."""
    return Polynomial(tuple(rng.uniform(-5.0, 5.0) for _ in range(degree)) + (1.0,))


def _draw(signs: tuple, rng: random.Random) -> tuple:
    # the signed numerators k and the denominators l of one sample, one of
    # each per nonzero entry in row-major order: k then l uniform in 1..100
    # by randint(1, 100)'s own rejection loop, k taking the entry's sign
    bits = rng.getrandbits
    ks, ls = [], []
    for s in signs:
        k = bits(7)
        while k >= 100:
            k = bits(7)
        l = bits(7)
        while l >= 100:
            l = bits(7)
        ks.append(s * (k + 1))
        ls.append(l + 1)
    return ks, ls


def _scaled_sample(n: int, positions: tuple, ks: list, ls: list) -> list:
    # the n x n int matrix lcm(l) * (k/l), flat and row-major: zero off the drawn entries
    scale = math.lcm(*ls)
    a = [0] * (n * n)
    for p, k, l in zip(positions, ks, ls):
        a[p] = k * (scale // l)
    return a


def _sample_matrix(n: int, positions: tuple, ks: list, ls: list) -> RationalMatrix:
    flat = [0] * (n * n)
    for p, k, l in zip(positions, ks, ls):
        flat[p] = Fraction(k, l)
    return RationalMatrix.from_rows([flat[i : i + n] for i in range(0, n * n, n)])


def sample_conforming_matrix(pattern: SignPattern, rng: random.Random) -> RationalMatrix:
    """Random rational matrix conforming to the pattern.

    Only the nonzero entries draw, in row-major order: k, then l, each
    uniform in 1..100, and the entry is the pattern's sign times k/l.  Zero
    entries are exactly zero.  Each number consumes the same random stream
    as ``rng.randint(1, 100)``.
    """
    _, positions, signs, _ = pattern._flat
    return _sample_matrix(pattern.n, positions, *_draw(signs, rng))


@dataclass(frozen=True)
class IdentityCheckReport(_Report):
    """Outcome of exact randomized identity checking over one pattern."""

    pattern: SignPattern
    samples: int
    seed: int
    all_passed: bool
    first_failure: RationalMatrix | None


def _sum_source(walks: list) -> str:
    # one Python sum over the walks' products of a[ij], each cyclic rotation
    # class written once with its size as an integer coefficient; "0" when
    # there is no walk
    classes = Counter(min(w[r:] + w[:r] for r in range(len(w))) for w in walks)
    terms = [(f"{c:d}*" if c > 1 else "") + "*".join([f"a[{ij:d}]" for ij in w]) for w, c in classes.items()]
    return " + ".join(terms) or "0"


@functools.lru_cache(maxsize=8)
def _power_sums(support: tuple, n: int):
    # a compiled function from a flat, row-major order-n matrix a with this
    # support to (tr A, tr A², tr A³): each p_k is a straight-line sum over
    # the closed walks of length k of the digraph with an arc i -> j where
    # support[i*n + j] is true, written from their arcs' flat integer
    # indices only, (ii,), (ij, ji) and (ij, jk, ki)
    arcs = [(i, j) for i in range(n) for j in range(n) if support[i * n + j]]
    loops = [(i * n + i,) for i, j in arcs if i == j]
    walks2 = [(i * n + j, j * n + i) for i, j in arcs if support[j * n + i]]
    walks3 = [
        (i * n + j, j * n + k, k * n + i)
        for i, j in arcs
        for k in range(n)
        if support[j * n + k] and support[k * n + i]
    ]
    sums = ", ".join(_sum_source(w) for w in (loops, walks2, walks3))
    return eval(f"lambda a: ({sums})", {"__builtins__": {}})


def _walk_coefficients(a: list, n: int, support: tuple) -> tuple:
    # (c[n-3], c[n-1]) of det(tI - A) for a square int matrix A of order
    # n >= 3, given as the row-major list a, exact and without char_poly's
    # cycle covers or trace recursion: p_k = tr A**k is a sum over the closed
    # walks of length k in A's own support (support is tuple(map(bool, a)),
    # which the caller has already computed), and Newton's identities give
    # e2 = (p1**2 - p2)/2 and e3 = (e2*p1 - p1*p2 + p3)/3, so c[n-1] = -p1
    # and c[n-3] = -e3.  Both divisions are exact because e2 and e3 are sums
    # of principal minors of an integer matrix.
    p1, p2, p3 = _power_sums(support, n)(a)
    e2, r2 = divmod(p1 * p1 - p2, 2)
    e3, r3 = divmod(e2 * p1 - p1 * p2 + p3, 3)
    if r2 or r3:
        raise ArithmeticError("power sums lost exactness on integer input")
    return -e3, -p1


def _identity_holds(which: str, a: list, support: tuple) -> bool:
    # a is L*M, row-major, for a 6x6 rational M and an integer L > 0, so the
    # char poly of L*M has C5 = L*a5 and C3 = L**3*a3, and both identities
    # scale the same way; C3 and C5 come from the closed walks of a's support
    # tuple(map(bool, a)), so an entry outside the named pattern still counts.
    # r11, r22, r56 and r65 are a[0], a[7], a[29] and a[34]; Tprime's r12,
    # r23 and r31 are a[1], a[8] and a[12]
    c3, c5 = _walk_coefficients(a, 6, support)
    head = a[0] + a[7]
    expected5 = -head
    expected3 = head * a[29] * a[34]
    if which == "Tprime":
        expected3 = expected3 - a[1] * a[8] * a[12]
    return c3 == expected3 and c5 == expected5


def check_identity(which: str, samples: int = 1000, seed: int = 0) -> IdentityCheckReport:
    """Exact check of the closed forms for the t**3 and t**5 coefficients.

    For pattern "T", every conforming matrix satisfies
    a5 = -(r11 + r22) and a3 = (r11 + r22) * r56 * r65; since r56 > 0 and
    r65 < 0, a3 and a5 always share a sign or both vanish, which is the
    realizability gate's origin.  For pattern "Tprime" the t**3 coefficient
    gains the term -r12 * r23 * r31, so a3 and a5 can never both vanish: no
    conforming matrix is nilpotent.

    The samples are the successive draws of ``sample_conforming_matrix``
    from ``random.Random(seed)``: nonzero entries only, row-major, k then l
    uniform in 1..100 on the stream of ``randint(1, 100)``.  Each is checked
    as the integer matrix lcm(l) * (k/l), written straight into the pattern's
    flat nonzero positions of one row-major list a of n*n ints.  One pass
    ``tuple(map(bool, a))`` gives the sample's support.  Conformance is the
    predicate ``conforms`` calls: that support equal to the pattern's and
    each of the pattern's nonzeros of its sign.  The t**5 and t**3
    coefficients are computed exactly from tr A, tr A² and tr A³, by
    Newton's identities; the three power sums are one straight-line
    expression over the closed walks of the sample's own support, compiled
    once per support.  This check shares no code with either path of
    ``char_poly``, the cycle-cover expansion or the trace recursion.  The
    first failing sample is reported as drawn, as a ``RationalMatrix``.
    samples and seed must be ints (not bools), so that the report names the
    run.
    """
    if which not in ("T", "Tprime"):
        raise ValueError(f'identity pattern must be "T" or "Tprime", got {which!r}')
    _require_ints(("samples", samples), ("seed", seed))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    pattern = builtin_pattern(which)
    n = pattern.n
    key, positions, signs, plus = pattern._flat
    rng = random.Random(seed)
    first_failure = None
    for _ in range(samples):
        ks, ls = _draw(signs, rng)
        a = _scaled_sample(n, positions, ks, ls)
        support = tuple(map(bool, a))
        if not (_flat_conforms(a, support, key, positions, plus) and _identity_holds(which, a, support)):
            first_failure = _sample_matrix(n, positions, ks, ls)
            break
    return IdentityCheckReport(
        pattern=pattern,
        samples=samples,
        seed=seed,
        all_passed=first_failure is None,
        first_failure=first_failure,
    )


@dataclass(frozen=True)
class DivisorObstructionReport:
    """Exhaustive evidence that one degree-8 polynomial has no realizable sextic divisor."""

    target: Polynomial
    factors: tuple
    divisors: tuple
    violations: tuple
    passed: bool

    @property
    def count(self) -> int:
        return len(self.divisors)

    def to_dict(self) -> dict:
        return {
            "target": self.target.to_dict(),
            "factors": [f.to_dict() for f in self.factors],
            "divisors": [
                {
                    "coeffs": d.to_dict()["coeffs"],
                    "a3": str(d.coeffs[3]),
                    "a5": str(d.coeffs[5]),
                    "violates": v,
                }
                for d, v in zip(self.divisors, self.violations)
            ],
            "count": self.count,
            "passed": self.passed,
        }


def check_divisor_obstruction() -> DivisorObstructionReport:
    """Enumerate the degree-6 divisors of a specific degree-8 polynomial.

    The polynomial (t²+t+1)(t²−t+2)(t²+1)(t²−1) factors over the reals into
    three irreducible quadratics and two linear factors.  Any realization over
    diag(T, D) would hand some degree-6 divisor to the 6x6 block, but each of
    the four degree-6 divisors violates the a3/a5 condition, so no such
    realization exists, although every refined inertia of total 8 is
    realizable over the same pattern.
    """
    factors = (
        Polynomial((1, 1, 1)),
        Polynomial((2, -1, 1)),
        Polynomial((1, 0, 1)),
        Polynomial((-1, 1)),
        Polynomial((1, 1)),
    )
    target = _rational_product(factors)
    divisors = tuple(divisors_degree6(factors))
    violations = tuple(violates_sextic_gate(d) for d in divisors)
    return DivisorObstructionReport(
        target=target,
        factors=factors,
        divisors=divisors,
        violations=violations,
        passed=bool(divisors) and all(violations),
    )


def verify_realization(report, bound: float) -> bool:
    """Recompute a realization report's claims independently.

    Checks conformance, that every declared block boundary is a cut of the
    matrix (everything outside the declared diagonal blocks is exactly zero),
    and that the exact characteristic polynomial of the matrix's entries
    matches the target: its largest coefficient residual is at most bound
    (0 demands exactness).
    """
    matrix, orders = report.matrix, report.block_orders
    if matrix.n != report.pattern.n or report.target.degree != matrix.n:
        return False
    if not conforms(matrix, report.pattern):
        return False
    if not all(k > 0 for k in orders) or sum(orders) != matrix.n:
        return False
    if not set(accumulate(block_orders(matrix))).issuperset(accumulate(orders)):
        return False
    return _charpoly_residual(matrix, report.target) <= bound


@dataclass(frozen=True)
class SuperpatternEvidence(_Report):
    """Part 1: the 16x16 pattern is spectrally arbitrary (sampled evidence),
    its one-entry superpattern is not (exact identity evidence)."""

    superpattern_ok: bool
    extra_positions: tuple
    realization_count: int
    worst_residual: float
    residual_bound: float
    realizations_ok: bool
    identity_report: IdentityCheckReport
    nilpotence_lift_ok: bool
    evidence_kind: str = "sampled realizations + exact identities"

    @property
    def passed(self) -> bool:
        return (
            self.superpattern_ok
            and self.realizations_ok
            and self.identity_report.all_passed
            and self.nilpotence_lift_ok
        )


@dataclass(frozen=True)
class InertiaEvidence(_Report):
    """Part 2: every refined inertia of total 8 is realizable over diag(T, D)
    (each rational matrix classified exactly), yet one specific degree-8
    polynomial is not (exact divisor enumeration)."""

    obstruction: DivisorObstructionReport
    inertia_total: int
    inertia_failures: tuple

    @property
    def passed(self) -> bool:
        return self.obstruction.passed and not self.inertia_failures


@dataclass(frozen=True)
class ChainEvidence(_Report):
    """Part 3: an 8-fold diagonal chain of the 8x8 pattern realizes sampled
    degree-64 targets while the single 8x8 link does not realize everything;
    which link first becomes spectrally arbitrary stays undecided."""

    base_not_arbitrary: bool
    chain_order: int
    pattern_matches_chain: bool
    realization_count: int
    worst_residual: float
    residual_bound: float
    realizations_ok: bool
    undecided: tuple = ("U2", "U3")
    evidence_kind: str = "sampled realizations + exact obstruction"

    @property
    def passed(self) -> bool:
        return self.base_not_arbitrary and self.pattern_matches_chain and self.realizations_ok


@dataclass(frozen=True)
class TheoremReport(_Report):
    """Aggregate of the three evidence parts."""

    part1: SuperpatternEvidence
    part2: InertiaEvidence
    part3: ChainEvidence

    @property
    def passed(self) -> bool:
        return self.part1.passed and self.part2.passed and self.part3.passed


def _pattern_difference(sup: SignPattern, sub: SignPattern) -> tuple:
    return tuple(
        (i + 1, j + 1)
        for i in range(sub.n)
        for j in range(sub.n)
        if sup[i, j] is not sub[i, j]
    )


def _is_nilpotent_charpoly(m: RationalMatrix) -> bool:
    cp = char_poly(m)
    return all(c == 0 for c in cp.coeffs[:-1])


def _unsplit_charpoly(m: RationalMatrix) -> Polynomial:
    # the whole matrix as one uncut block, not cut at its diagonal blocks as
    # char_poly is, so it does not assume the product rule it checks
    return _descaled(*_charpoly_scaled([m.entries]))


def _nilpotence_lift_holds(rng: random.Random) -> bool:
    """Block-diagonal nilpotence is equivalent to blockwise nilpotence.

    Checked directly on characteristic polynomials: a matrix is nilpotent
    exactly when its char poly is t**n.  The pool mixes nilpotent blocks
    (strictly triangular, and the all-zero even sextic realization) with
    random dense ones.  char_poly itself multiplies the polynomials of the
    diagonal blocks, so the whole matrix's polynomial is also recomputed
    without the split, and must agree with it.
    """
    nil6 = realize_even_sextic(0, 0, 0)
    nil2 = RationalMatrix.from_rows([[0, 1], [0, 0]])
    pool = [nil6, nil2]
    for _ in range(4):
        size = rng.choice([2, 3])
        pool.append(
            RationalMatrix.from_rows(
                [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
            )
        )
    for _ in range(_LIFT_ROUNDS):
        a = rng.choice(pool)
        b = rng.choice(pool)
        m = block_diag([a, b])
        cp = char_poly(m)
        if _unsplit_charpoly(m) != cp:
            return False
        whole = all(c == 0 for c in cp.coeffs[:-1])
        parts = _is_nilpotent_charpoly(a) and _is_nilpotent_charpoly(b)
        if whole != parts:
            return False
    return True


def _all_inertia_tuples():
    # the 95 refined inertias of total 8
    for ni in range(5):
        rest = 8 - 2 * ni
        for nz in range(rest + 1):
            for npos in range(rest - nz + 1):
                yield RefinedInertia(npos, rest - nz - npos, nz, ni)


# fixed settings of the suite: the part-1 sample and nilpotence-lift round
# counts, the part-3 sample count, and the root tolerance and residual bound
# of the degree-64 chain realizations
_POLY_SAMPLES = 20
_LIFT_ROUNDS = 20
_CHAIN_SAMPLES = 5
_CHAIN_TOL = 1e-7
_CHAIN_BOUND = 1e-5


def run_theorem_suite(*, seed: int = 0, tol: float = 1e-9, identity_samples: int = 1000) -> TheoremReport:
    """Run all three evidence parts and aggregate the results.

    seed drives every random draw (the part-1 identity check draws from
    seed + 1), tol is the root tolerance of the part-1 realizations, and
    identity_samples is the part-1 identity check's sample count.
    """
    rng = random.Random(seed)

    # Part 1: the composite 16x16 pattern realizes sampled targets; adding one
    # entry (block position (3,1)) kills spectral arbitrariness because the
    # enlarged 6x6 block admits no nilpotent realization.
    s = builtin_pattern("S")
    sprime = builtin_pattern("Sprime")
    extra = _pattern_difference(sprime, s)
    superpattern_ok = is_superpattern(sprime, s) and extra == ((3, 1),)
    worst = 0.0
    realizations_ok = True
    bound1 = _residual_bound(tol, 16)
    for _ in range(_POLY_SAMPLES):
        f = random_monic_polynomial(16, rng)
        rep = realize_poly(f, 1, 5, tol=tol)
        ok = conforms(rep.matrix, s) and rep.residual <= bound1
        worst = max(worst, rep.residual)
        realizations_ok = realizations_ok and ok
    identity_report = check_identity("Tprime", identity_samples, seed + 1)
    part1 = SuperpatternEvidence(
        superpattern_ok=superpattern_ok,
        extra_positions=extra,
        realization_count=_POLY_SAMPLES,
        worst_residual=worst,
        residual_bound=bound1,
        realizations_ok=realizations_ok,
        identity_report=identity_report,
        nilpotence_lift_ok=_nilpotence_lift_holds(rng),
    )

    # Part 2: exhaustive inertia sweep against the exact divisor obstruction.
    nus = list(_all_inertia_tuples())
    failures = []
    for nu in nus:
        m = realize_inertia(nu)
        if refined_inertia_of(m) != nu:  # an exact count, block by block
            failures.append(tuple(nu))
    part2 = InertiaEvidence(
        obstruction=check_divisor_obstruction(),
        inertia_total=len(nus),
        inertia_failures=tuple(failures),
    )

    # Part 3: the doubled chain (eight 6x6 and eight 2x2 blocks, interleaved)
    # realizes sampled degree-64 targets; the single 8x8 link fails on the
    # part-2 polynomial.  Whether the intermediate doublings already suffice
    # is left undecided on purpose.
    u3 = builtin_pattern("U3")
    chain = block_diag([u3, u3])
    worst3 = 0.0
    ok3 = True
    matches = True
    for _ in range(_CHAIN_SAMPLES):
        f = random_monic_polynomial(64, rng)
        rep = realize_poly(f, 8, 8, tol=_CHAIN_TOL, arrangement="alternating")
        matches = matches and rep.pattern == chain and conforms(rep.matrix, chain)
        worst3 = max(worst3, rep.residual)
        ok3 = ok3 and rep.residual <= _CHAIN_BOUND
    part3 = ChainEvidence(
        base_not_arbitrary=part2.obstruction.passed,
        chain_order=chain.n,
        pattern_matches_chain=matches,
        realization_count=_CHAIN_SAMPLES,
        worst_residual=worst3,
        residual_bound=_CHAIN_BOUND,
        realizations_ok=ok3,
    )
    return TheoremReport(part1=part1, part2=part2, part3=part3)
