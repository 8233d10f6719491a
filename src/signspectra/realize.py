"""Constructive realizations of target spectra over the built-in sign patterns.

The central object is a parameterized 6x6 template whose sign pattern matches
the built-in pattern "T" whenever all nine parameters are positive.  One
closed-form parameter assignment realizes, exactly on the rational backend,
every monic sextic that passes the gate of T's exact coefficient identities:
a3 and a5 vanish together (even sextics (t**2+b)(t**2+c)(t**2+d) among them)
or have a positive ratio.  No other sextic is realizable over T.

A 2x2 construction realizes any monic quadratic over the pattern "D".  The
block-diagonal engine splits an arbitrary monic target of degree 6t + 2d
(d >= 5) into quadratics by root finding, picks t sign-homogeneous triples of
them in one pass as degree-6 targets for the template, and routes the rest to
2x2 blocks.  Finally, any refined inertia of total 8 is realized over diag(T, D).
Each construction follows its values, as Polynomial does: floats give a
FloatMatrix, ints and Fractions an exact RationalMatrix.

"Large enough" free parameters are fixed in one pass by explicit lower bounds
that make every positivity condition provable.  A float parameter that rounding
leaves nonpositive, or a realize_poly residual above 10*tol*degree, raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import mul

from .matrices import FloatMatrix, RationalMatrix, block_diag, conforms
from .patterns import builtin_pattern
from .poly import Polynomial, Quadratic, _charpoly_scaled, _convolve, _over_common_denominator, _residual
from .roots import RefinedInertia, find_roots, roots_to_quadratics


def _jsonable(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class _Report:
    """JSON form shared by the report dataclasses: every field in declaration
    order (nested reports and values through their own to_dict, tuples as
    lists), then "passed" when the class defines it."""

    def to_dict(self) -> dict:
        data = {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}
        if hasattr(self, "passed"):
            data["passed"] = self.passed
        return data


class GateError(ValueError):
    """Degree-6 target that violates the gate: a3 and a5 neither both zero nor of positive ratio."""


def _reject_bools(*values) -> None:
    # a bool is an int to isinstance: True, False would realize t**2 + t
    if bool in map(type, values):
        raise TypeError("coefficients must be numbers, got bool")


def _sqrt_upper(q):
    """An upper bound for sqrt(q), q >= 0: exact for floats and for rational
    perfect squares, and the cheap bound (isqrt(num)+1)/isqrt(den) otherwise."""
    if isinstance(q, float):
        return math.sqrt(q)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return Fraction(rn + 1, rd)


def violates_sextic_gate(p: Polynomial) -> bool:
    """True when a monic degree-6 polynomial cannot be realized over pattern T.

    The exact identities of T force a3 and a5 to vanish together or to have a
    strictly positive ratio; anything else is unrealizable, and realize_sextic
    realizes every sextic that meets the condition.  Signs are compared, not a
    quotient, so a float ratio cannot underflow into a false rejection.
    """
    if p.degree != 6:
        raise ValueError(f"expected degree 6, got {p.degree}")
    return _gate_fails(p.coeffs[3], p.coeffs[5])


def _gate_fails(a3, a5) -> bool:
    # the gate's one body: a3 and a5 differ in sign (zero counts as a sign)
    return (a3 > 0) - (a3 < 0) != (a5 > 0) - (a5 < 0)


def _sextic_params(a, x3, one) -> tuple:
    # margins formed directly so floats cannot cancel them below 1; over the
    # rationals x2 = a5 + x1, x5 = k5 + x9, x6 = u + x8 and x7 = x1*x8 - w
    a0, a1, a2, a4, a5 = a[0], a[1], a[2], a[4], a[5]
    zero = one - one
    s = _sqrt_upper(max(zero, x3 - a4))
    x1 = one + abs(a5) + s
    x2 = one + s + max(zero, 2 * a5)
    x4 = x1 * x1 + a5 * x1 + (a4 - x3)
    k5 = x3 * x3 - a4 * x3 + a2
    x9 = one + max(zero, -k5)
    x5 = one + max(zero, k5)
    u = a1 + x1 * x5 + a5 * x9
    w = a0 - x9 * (x3 - a4)
    v = (one + w) / x1
    x8 = max(one, one - u, v)
    x6 = max(one, u + one, u + v)
    x7 = max(one, x1 - w, x1 * (one - u) - w)
    return x1, x2, x3, x4, x5, x6, x7, x8, x9


def _exact_sextic_params(a) -> tuple:
    # _sextic_params on a rational target, on ints: each margin is an int over
    # a power of one base b = d*q*r (d the target's common denominator,
    # x3 = p/q and s = S/r).  Returns the nine numerators and their positive
    # denominators, unreduced.
    (a0, a1, a2, a3, a4, a5, _), d = _over_common_denominator(a)
    x3 = Fraction(a3, a5) if a5 else Fraction(1)
    p, q = x3.numerator, x3.denominator
    gap = p * d - a4 * q
    s = _sqrt_upper(Fraction(gap, q * d)) if gap > 0 else Fraction(0)
    r = s.denominator
    b = d * q * r
    b2 = b * b
    b3 = b2 * b
    a0, a1, a2, a4, a5 = (c * q * r for c in (a0, a1, a2, a4, a5))
    x3b = p * d * r
    sb = s.numerator * d * q
    # x1, x2 over b; x4, k5, x5, x9 over b2; u, w over b3; v = vn / (b2*x1)
    x1 = b + abs(a5) + sb
    x2 = b + sb + max(0, 2 * a5)
    x4 = x1 * x1 + a5 * x1 + (a4 - x3b) * b
    k5 = x3b * x3b - a4 * x3b + a2 * b
    x9 = b2 + max(0, -k5)
    x5 = b2 + max(0, k5)
    u = a1 * b2 + x1 * x5 + a5 * x9
    w = a0 * b2 - x9 * (x3b - a4)
    vn = b3 + w
    # the maxes, cross-multiplied: max(1, 1 - u) = m/b3, x8 = max(m/b3, v),
    # x6 = max(1, u + 1, u + v), and x7 = max(1, x1*m/b3 - w) over b3*b, as
    # x1 - w <= x1*(1 - u) - w exactly when u <= 0
    m = b3 - min(0, u)
    x8, d8 = (vn, b2 * x1) if vn * b > m * x1 else (m, b3)
    x6, d6 = b3 + max(0, u), b3
    if (uv := u * x1 + vn * b) > x6 * x1:
        x6, d6 = uv, b3 * x1
    x7 = max(b3 * b, x1 * m - w * b)
    return (x1, x2, p, x4, x5, x6, x7, x8, x9), (b, b, q, b2, b2, d6, b3 * b, d8, b2)


# the sign of the template entry that holds each parameter x1..x9
_SIGNS = (1, -1, -1, -1, -1, -1, 1, 1, 1)


def realize_sextic(target: Polynomial):
    """Matrix over pattern T matching a monic degree-6 target that passes the gate.

    The matrix is the template with nine positive entries x1..x9, each at an
    entry of T that has its sign, so it conforms to T:

        [[ x1,   1,  0, 0,   0, 0],
         [-x4, -x2,  1, 0,   0, 0],
         [  0,   0,  0, 1,   0, 0],
         [  0,   0,  0, 0,   1, 0],
         [-x6, -x5,  0, 0,   0, 1],
         [ x7,  x8, x9, 0, -x3, 0]]

    It is built on the target's backend: a RationalMatrix, exact, for a
    rational target and a FloatMatrix for a float one.  x3 is a3/a5, or 1
    when a3 = a5 = 0, and the other eight follow in one closed-form pass;
    on a rational target that pass runs on integers over one common base,
    and each entry becomes a Fraction once.
    Raises GateError exactly when violates_sextic_gate holds: such sextics
    admit no realization over T.  A float parameter that rounding leaves
    nonpositive or non-finite (x3 underflow, x4 cancellation, overflow)
    raises ArithmeticError naming it.
    """
    if violates_sextic_gate(target):
        raise GateError(
            "degree-6 target needs a3 = a5 = 0 or a3/a5 > 0; "
            f"got a3 = {target.coeffs[3]}, a5 = {target.coeffs[5]}"
        )
    a = target.coeffs
    # the monic lead, Fraction(1) or 1.0
    one = a[-1]
    if target.backend == "rational":
        cls, (params, dens) = RationalMatrix, _exact_sextic_params(a)
        # the denominators are positive, so each numerator carries its
        # parameter's sign, and each entry is one Fraction, made signed
        entries = list(map(Fraction, map(mul, _SIGNS, params), dens))
    else:
        cls, params = FloatMatrix, _sextic_params(a, a[3] / a[5] if a[5] else one, one)
        entries = list(map(mul, _SIGNS, params))
    for k, x in enumerate(params, start=1):
        if not 0 < x < math.inf:
            value = _SIGNS[k - 1] * entries[k - 1]
            raise ArithmeticError(f"template parameter x{k} = {value} is not positive and finite")
    # n_k is the entry -x_k
    x1, n2, n3, n4, n5, n6, x7, x8, x9 = entries
    o = cls.zero
    return cls.from_rows(
        [
            [x1, one, o, o, o, o],
            [n4, n2, one, o, o, o],
            [o, o, o, one, o, o],
            [o, o, o, o, one, o],
            [n6, n5, o, o, o, one],
            [x7, x8, x9, o, n3, o],
        ]
    )


def _sextic_target(quads) -> Polynomial:
    # product of three monic quadratics t**2 + q.a*t + q.b as given: poly_mul's
    # convolutions, validated once; Polynomial takes the backend from the values
    p0, p1, p2 = ((q.b, q.a, 1) for q in quads)
    return Polynomial(tuple(_convolve(_convolve(p0, p1), p2)))


def realize_even_sextic(b, c, d):
    """Matrix over pattern T with characteristic polynomial (t²+b)(t²+c)(t²+d).

    Total: the product has a3 = a5 = 0, so it passes the gate and realize_sextic
    builds it (with x3 = 1), exactly unless one of b, c, d is a float.
    """
    _reject_bools(b, c, d)
    return realize_sextic(_sextic_target([Quadratic(0, v) for v in (b, c, d)]))


def realize_quadratic(p1, p0):
    """2x2 matrix over pattern D with characteristic polynomial t**2 + p1*t + p0.

    [[alpha, 1], [-gamma, -delta]] with alpha = |p1| + |p0| + 2 and
    delta = alpha + p1 has trace -p1; gamma = p0 + alpha*delta makes the
    determinant p0, and alpha*delta > |p0| keeps gamma positive.  delta is
    formed as |p0| + 2 (p1 < 0) or 2*p1 + |p0| + 2 (p1 >= 0), which cannot
    cancel in floating point.  Total: a FloatMatrix when p1 or p0 is a float,
    as in Polynomial, and otherwise exact (on ints when both are ints).
    """
    _reject_bools(p1, p0)
    if isinstance(p1, float) or isinstance(p0, float):
        p1, p0 = float(p1), float(p0)
    cls = FloatMatrix if isinstance(p1, float) else RationalMatrix
    alpha = abs(p1) + abs(p0) + 2
    delta = abs(p0) + 2 if p1 < 0 else 2 * p1 + abs(p0) + 2
    gamma = p0 + alpha * delta
    return cls.from_rows([[alpha, 1], [-gamma, -delta]])


def zero_class_tol(quads, tol: float) -> float:
    """The eps_zero realize_poly hands select_triples: tol scaled by the largest coefficient."""
    return tol * (1.0 + max(max(abs(q.a), abs(q.b)) for q in quads))


@dataclass(frozen=True)
class TripleSelection:
    """Sign-homogeneous triples of quadratics, one label and one snapped sum each, and the rest."""

    triples: tuple
    rest: tuple
    labels: tuple
    snapped: tuple


def select_triples(quads, t, eps_zero) -> TripleSelection:
    """Pick t triples of quadratics t**2 + a*t + b whose a's share a sign class.

    Each quadratic with b >= 0 is classified once by its a: zero (|a| <=
    eps_zero, snapped to exactly 0), positive, or negative.  Each triple is the
    first three left, in input order, of the class largest at its turn (ties
    prefer zero, then positive), as t one-triple picks would choose; snapped[k]
    sums the |a| dropped from triple k.  With at least 3t + 5 quadratics, at
    most one with b < 0, the pigeonhole principle guarantees every triple.
    """
    quads = list(quads)
    if not 0 < eps_zero < math.inf:
        raise ValueError(f"eps_zero must be positive and finite, got {eps_zero}")
    if len(quads) < 3 * t + 5:
        raise ValueError(f"need at least {3 * t + 5} quadratics, got {len(quads)}")
    if sum(1 for q in quads if q.b < 0) > 1:
        raise ValueError("at most one quadratic may have a negative constant term")
    classes = {"zero": [], "positive": [], "negative": []}
    for i, q in enumerate(quads):
        if not q.b < 0:
            classes["zero" if abs(q.a) <= eps_zero else "positive" if q.a > 0 else "negative"].append(i)
    triples, labels, snapped, taken = [], [], [], set()
    for _ in range(t):
        label = max(classes, key=lambda k: len(classes[k]))
        chosen, classes[label] = classes[label][:3], classes[label][3:]
        taken.update(chosen)
        triple, total = [], 0.0
        for i in chosen:
            q = quads[i]
            if label == "zero" and q.a != 0:
                total += abs(float(q.a))
                q = Quadratic(q.a - q.a, q.b)
            triple.append(q)
        triples.append(tuple(triple))
        labels.append(label)
        snapped.append(total)
    rest = tuple([q for i, q in enumerate(quads) if i not in taken])
    return TripleSelection(tuple(triples), rest, tuple(labels), tuple(snapped))


@dataclass(frozen=True)
class RealizationReport(_Report):
    """A realized matrix together with the evidence that it hits its target."""

    matrix: object
    pattern: object
    target: Polynomial
    residual: float
    perturbation: float
    block_orders: tuple
    block_tags: tuple
    backend: str


def _residual_bound(tol: float, degree: int) -> float:
    """The largest exact residual a float realization of a degree-n target may keep."""
    return 10.0 * tol * degree


def realize_poly(
    f: Polynomial,
    t: int,
    d: int,
    tol: float = 1e-9,
    backend: str = "float",
    arrangement: str = "grouped",
) -> RealizationReport:
    """Realize a monic target of degree 6t + 2d over t template and d 2x2 blocks.

    Needs d >= 5.  Roots are extracted once and grouped into 3t + d monic
    quadratics, lifted to Fractions on the rational backend; select_triples
    picks t sign-homogeneous triples, each multiplied into a degree-6 block
    target (sign homogeneity makes it pass the gate; the snapped zero class
    gives a3 = a5 = 0), and the rest map to 2x2 blocks.  At most one quadratic
    has a negative constant term and it always lands in a 2x2 block, which
    keeps the triple selection fed.

    Conformance and the residual are checked on the blocks before the dense
    matrix is assembled.  The residual is computed exactly: the product of the
    blocks' characteristic polynomials is taken on integers scaled from their
    entries and compared with the target's exact value before anything is
    rounded, so float cancellation cannot hide a miss.  A residual above
    10*tol*degree, or a template parameter that float rounding leaves
    nonpositive, raises ArithmeticError.  find_roots, tol's first use,
    raises ValueError unless 0 < tol < 1.  arrangement is "grouped" (template
    blocks first) or "alternating" (template and 2x2 blocks interleaved;
    needs t == d), which changes the conforming pattern but not the spectrum.
    """
    if d < 5:
        raise ValueError("d must be at least 5")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.degree != 6 * t + 2 * d:
        raise ValueError(f"degree must be 6*t + 2*d = {6 * t + 2 * d}, got {f.degree}")
    if arrangement not in ("grouped", "alternating"):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    if arrangement == "alternating" and t != d:
        raise ValueError("alternating arrangement needs t == d")
    if backend not in ("rational", "float"):
        raise ValueError(f"unknown backend {backend!r}")

    quads = roots_to_quadratics(find_roots(f, tol=tol))
    eps_zero = zero_class_tol(quads, tol)
    if backend == "rational":
        quads = [q.lift() for q in quads]
    sel = select_triples(quads, t, eps_zero)
    t_blocks = [realize_sextic(_sextic_target(triple)) for triple in sel.triples]
    d_blocks = [realize_quadratic(q.a, q.b) for q in sel.rest]
    perturbation = 0.0  # added left to right: sum() compensates from Python 3.12
    for snapped in sel.snapped:
        perturbation += snapped

    if arrangement == "grouped":
        blocks = t_blocks + d_blocks
        tags = ["T"] * t + ["D"] * d
    else:
        blocks = [b for pair in zip(t_blocks, d_blocks) for b in pair]
        tags = ["T", "D"] * t
    patterns = [builtin_pattern(tag) for tag in tags]
    # block by block: block_diag fills the off-diagonal blocks of both the
    # matrix and the pattern with zeros, so this is the dense check
    if not all(map(conforms, blocks, patterns)):
        raise ArithmeticError("constructed matrix does not conform; parameter bounds failed")

    residual = _residual(*_charpoly_scaled([b.entries for b in blocks]), f)
    if residual > (bound := _residual_bound(tol, f.degree)):
        raise ArithmeticError(f"exact residual {residual} exceeds the bound 10*tol*degree = {bound}")
    return RealizationReport(
        matrix=block_diag(blocks),
        pattern=block_diag(patterns),
        target=f,
        residual=residual,
        perturbation=perturbation,
        block_orders=tuple([b.n for b in blocks]),
        block_tags=tuple(tags),
        backend=backend,
    )


def _as_inertia(nu) -> RefinedInertia:
    nu = RefinedInertia(*nu)
    if any(x < 0 for x in nu):
        raise ValueError(f"inertia components must be nonnegative, got {tuple(nu)}")
    return nu


# the root that stands for each refined-inertia class, in RefinedInertia
# field order: t - 1 (+1), t + 1 (-1), t (0) and t**2 + 1 (the pair ±i)
_CLASS_FACTORS = ([-1, 1], [1, 1], [0, 1], [1, 0, 1])

# monic cubics with prescribed signs, first fit first: the (n_plus, n_minus)
# split each realizes, and the multipliers of N**3, N**2 and N in its
# ascending int coefficients: (t-N)^3, (t+N)^3, (t+3N)(t-N)^2, (t-3N)(t+N)^2
_CUBICS = (
    ((3, 0), (-1, 3, -3)),
    ((0, 3), (1, 3, 3)),
    ((2, 1), (3, -5, 1)),
    ((1, 2), (-3, -5, -1)),
)


def _class_poly(counts) -> list:
    # monic int polynomial, ascending, with counts[k] roots of class k
    p = [1]
    for factor, count in zip(_CLASS_FACTORS, counts):
        for _ in range(count):
            p = _convolve(p, factor)
    return p


def realize_subinertia(nu) -> tuple:
    """From a refined inertia of total 8, build a 6x6 matrix over pattern T
    whose refined inertia mu is componentwise at most nu (total 6).

    When nu has at least six eigenvalues on the axes (n_zero + 2*n_imag >= 6),
    an even sextic does it.  Otherwise at least three eigenvalues sit off the
    axes: two eigenvalues are dropped from nu, three real ones are realized by
    a scaled cubic, and the remaining degree-3 factor h is fixed; scaling the
    cubic by doubling N makes the product pass the a3/a5 gate.  N runs
    through 1, 2, 4 and 8, which suffices for every nu of total 8; past it
    the construction raises ArithmeticError naming nu.  The gate is tested
    on the product's integer coefficients, and one Polynomial is built, for
    the first N that passes.
    """
    nu = _as_inertia(nu)
    if nu.order() != 8:
        raise ValueError(
            "refined inertia must have total 8: n_plus + n_minus + n_zero + 2*n_imag "
            f"must equal 8, got {nu.order()}"
        )
    if nu.n_zero + 2 * nu.n_imag >= 6:
        mi = min(nu.n_imag, 3)
        m0 = 6 - 2 * mi
        vals = ((2, 3, 5)[:mi] + (0, 0, 0))[:3]
        return RefinedInertia(0, 0, m0, mi), realize_even_sextic(*vals)

    # drop an imaginary pair; otherwise two eigenvalues one at a time, a zero
    # first, else one from the larger real side (ties go to plus)
    n_plus, n_minus, n_zero, n_imag = nu
    if n_imag:
        n_imag -= 1
    else:
        for _ in range(2):
            if n_zero:
                n_zero -= 1
            elif n_plus >= n_minus:
                n_plus -= 1
            else:
                n_minus -= 1
    mu = RefinedInertia(n_plus, n_minus, n_zero, n_imag)

    # mu keeps at least three nonzero real eigenvalues, so some split fits
    (s_plus, s_minus), (c3, c2, c1) = next(
        c for c in _CUBICS if mu.n_plus >= c[0][0] and mu.n_minus >= c[0][1]
    )
    h = _class_poly((mu.n_plus - s_plus, mu.n_minus - s_minus, mu.n_zero, mu.n_imag))

    # on the 95 inertias of total 8 the gate is passed by N = 8
    for n in (1, 2, 4, 8):
        c = _convolve([c3 * n**3, c2 * n**2, c1 * n, 1], h)
        if not _gate_fails(c[3], c[5]):
            return mu, realize_sextic(Polynomial(tuple(c)))
    raise ArithmeticError(f"no cubic scale N up to 8 passes the sextic gate for {tuple(nu)}")


def realize_inertia(nu):
    """8x8 matrix over diag(T, D) with refined inertia exactly nu (total 8).

    The 6x6 block realizes some mu <= nu; the 2x2 block realizes the score
    left over, nu - mu, of total 2, with the quadratic that has one root of
    the same class for each eigenvalue in it.
    """
    mu, m6 = realize_subinertia(nu)
    p0, p1, _ = _class_poly([a - b for a, b in zip(nu, mu)])
    return block_diag([m6, realize_quadratic(p1, p0)])
