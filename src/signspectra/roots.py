"""Root extraction for monic real polynomials, with exact preprocessing.

Both backends share one solver: zero roots are stripped exactly, degrees 1
and 2 are solved in closed form (the quadratic forms its discriminant in the
coefficients' own arithmetic and takes the cancellation-free second root
r2 = b / r1), and higher degrees take the eigenvalues of the companion matrix,
which are backward stable (Edelman & Murakami, Math. Comp. 1995).  The
backward-error certificate in find_roots is the only gate on the result.  A
rational polynomial of degree at most _SQUAREFREE_DEGREE_CAP is first split
into squarefree factors and each factor goes through the same solver, so
multiple roots (including high-order zero and purely imaginary roots) are
located without the clustering loss that a float solve suffers.  The split
walks the gcd chain g, gcd(g, g'), ... of the primitive integer polynomial
with the same roots, and reads the factors off the chain by exact division
(Musser's gcd-chain method): denominators are cleared once, gcds are the last
terms of signed remainder sequences, and every quotient is an exact integer
division, so no Fraction arithmetic runs until the monic factors are formed.

Conjugate closure has one rule, RootMultiset's, which find_roots applies once
to the raw roots: near-real roots are snapped onto the axis, every other root
must come with its exact conjugate, and a NaN or infinite root is rejected.
The raw pairs are exact: the quadratic builds -a/2 +- i*im from one value, and
LAPACK's dgeev returns a real matrix's complex pairs as wr +- i*wi.  A NaN
backward error counts as the worst, so it fails the certificate.

The certificate is evaluated once per conjugate pair, at the root above the
axis, and at every real root.  This is exact, not an estimate: the
coefficients are real, so Horner's rule at z-bar computes the conjugate of
each of its steps at z (negating a part is exact and IEEE rounding is
symmetric), and |z-bar| = |z|; the backward error at z-bar is the same
double, or NaN at both.

The refined inertia of a matrix, rational or float (every double is a dyadic
rational), is counted exactly, with no root and no tolerance, block by block
on the integer characteristic polynomial q of each diagonal block, its zero
roots stripped: one signed remainder sequence of the real and imaginary parts
of q(iy) gives n_plus - n_minus as a Cauchy index (Routh-Hurwitz; Gantmacher,
Theory of Matrices, vol. 2, ch. XV) and, as its last term, a multiple of
gcd(q(t), q(-t)) = H(t**2) at t = iy; H's negative roots are the imaginary
pairs, counted along H's chain of gcds with its derivative.  One
sign-preserving pseudo-remainder serves every remainder sequence, and one
gcd chain (_gcd_chain) serves both the refined inertia and the squarefree
split.

numpy is imported on the first companion-matrix solve, not with the module:
the exact certificates, the exact refined inertia and the closed forms never
load it.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .poly import Polynomial, Quadratic, _charpoly_int, _diagonal_blocks, _over_common_denominator

# The one root kernel: companion-matrix eigenvalues through numpy.
KERNEL = "numpy"

# Above this degree the exact squarefree split is skipped: coefficient growth
# in the exact gcd outweighs its benefit, and simple roots do not need it.
_SQUAREFREE_DEGREE_CAP = 32


class RootFindingError(RuntimeError):
    """Raised when the residual certificate cannot be met."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _check_tol(tol) -> None:
    # the package's one tolerance rule: at inf every root would snap onto the
    # real axis, NaN fails every comparison, and a backward error is at most 1
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol >= 1:
        raise ValueError(f"tol must be below 1, got {tol}: a backward error never exceeds 1, so any point would pass")


@dataclass(frozen=True)
class RootMultiset:
    """Roots with multiplicity (repeated entries), exactly closed under conjugation.

    Every root must be finite.  A root with |Im| <= tol is stored on the real
    axis; every other root must come with its exact conjugate, as LAPACK's
    dgeev returns a complex pair (wr + i*wi, wr - i*wi) and the closed forms
    build theirs from one value.  Anything else, and a tol outside
    0 < tol < 1 (_check_tol), raises ValueError.  Stored sorted by (Re, Im),
    a pair as the root above the axis and its conjugate.
    """

    roots: tuple
    tol: float

    def __post_init__(self):
        _check_tol(self.tol)
        closed = []  # the real roots first, then the pairs
        upper = []
        partners = []  # the conjugates of the roots below the axis
        for z in map(complex, self.roots):
            if not cmath.isfinite(z):
                raise ValueError(f"root {z} is not finite")
            if abs(z.imag) <= self.tol:
                closed.append(complex(z.real))
            elif z.imag > 0:
                upper.append(z + 0.0)  # a -0.0 real part is stored as 0.0
            else:
                partners.append(z.conjugate())
        key = lambda z: (z.real, z.imag)
        upper.sort(key=key)
        partners.sort(key=key)
        if upper != partners:
            above, below = Counter(upper) - Counter(partners), Counter(partners) - Counter(upper)
            z = next(iter(above)) if above else next(iter(below)).conjugate()
            raise ValueError(f"root multiset is not closed under conjugation: root {z} has no conjugate partner")
        closed += upper + [z.conjugate() for z in upper]
        object.__setattr__(self, "roots", tuple(sorted(closed, key=key)))

    @property
    def n(self) -> int:
        return len(self.roots)


class RefinedInertia(NamedTuple):
    """Eigenvalue location counts: open right half plane, open left half plane,
    zero, and nonzero imaginary-axis conjugate pairs.  The total matrix order
    is n_plus + n_minus + n_zero + 2 * n_imag."""

    n_plus: int
    n_minus: int
    n_zero: int
    n_imag: int

    def order(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero + 2 * self.n_imag

    def dominates(self, other: "RefinedInertia") -> bool:
        """Componentwise >= comparison (tuple order is lexicographic, not useful here)."""
        return all(a >= b for a, b in zip(self, other))


def _quadratic_roots(a, b) -> list:
    # Roots of t^2 + a t + b.  The discriminant is formed in the coefficients'
    # own arithmetic (exact for Fractions), the rest in double precision; the
    # second real root comes from r1 * r2 = b, which does not cancel.
    disc = a * a - 4 * b
    if disc >= 0:
        sq = math.sqrt(disc)
        r1 = (-a - sq) / 2.0 if a >= 0 else (-a + sq) / 2.0
        r2 = b / r1 if r1 != 0.0 else -a
        return [complex(r1), complex(r2)]
    im = math.sqrt(-disc) / 2.0
    return [complex(-a / 2.0, im), complex(-a / 2.0, -im)]


def _roots_of_coeffs(coeffs: list) -> list:
    # The one closed form per degree, on float or Fraction coefficients (monic,
    # ascending).  Zero roots are factored out exactly first.
    zeros = 0
    while zeros < len(coeffs) - 1 and coeffs[zeros] == 0:
        zeros += 1
    work = coeffs[zeros:]
    deg = len(work) - 1
    if deg == 0:
        roots = []
    elif deg == 1:
        roots = [complex(-work[0] / work[1])]
    elif deg == 2:
        roots = _quadratic_roots(work[1] / work[2], work[0] / work[2])
    else:  # companion-matrix eigenvalues
        import numpy as np  # here, so a process that solves no cubic never loads it

        roots = [complex(z) for z in np.roots([float(c) for c in reversed(work)])]
    return [0j] * zeros + roots


# --- exact squarefree split over primitive integer coefficient lists (ascending) ---


def _ztrim(p: list) -> list:
    # a copy of p without vanishing leading coefficients; zero stays [0]
    n = len(p)
    while n > 1 and not p[n - 1]:
        n -= 1
    return p[:n]


def _primitive(p: list) -> list:
    # p divided by its content, with a positive leading coefficient; p nonzero
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _zprem(a: list, b: list) -> list:
    # a positive multiple of the remainder of a by b (b nonzero, no leading
    # zero), trimmed; each step scales by |lb| / gcd(lb, lead) > 0 only, so
    # the sign is kept for a Sturm sequence
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        lr = r.pop()
        if lr:
            g = math.gcd(lb, lr)
            s, t, k = abs(lb) // g, (lr if lb > 0 else -lr) // g, len(r) - db
            r = [s * c for c in r]
            for j in range(db):
                r[k + j] -= t * b[j]
    return _ztrim(r) if r else [0]


def _sturm_sequence(a: list, b: list) -> list:
    # a, b, then minus a positive multiple of the remainder of the two before,
    # over its content, until the remainder vanishes
    seq = [a]
    while any(b):
        seq.append(b)
        r = _zprem(seq[-2], b)
        g = -math.gcd(*r)
        b = [c // g for c in r] if g else r
    return seq


def _zdiv_exact(a: list, b: list) -> list:
    # a / b over the integers.  b is primitive, so by Gauss's lemma a quotient
    # that is exact over the rationals has integer coefficients.
    r = list(a)
    lb, db = b[-1], len(b) - 1
    q = [0] * max(1, len(r) - db)
    for k in range(len(r) - db - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division in squarefree split")
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division in squarefree split")
    return q


def _zderivative(p: list) -> list:
    return [k * p[k] for k in range(1, len(p))] or [0]


def _gcd_chain(h: list):
    # (g, the Sturm sequence of (g, g')) for g = h, gcd(h, h'), gcd(g, g'), ...
    # while g is not constant; h is primitive with a positive leading
    # coefficient, and so is every g.  The sequence's last term is a multiple
    # of gcd(g, g'), whose roots are g's with multiplicity one less.
    while len(h) > 1:
        sturm = _sturm_sequence(h, _zderivative(h))
        yield h, sturm
        h = _primitive(sturm[-1])


def _squarefree_factors(p: Polynomial) -> list:
    """Decompose a monic rational polynomial into (squarefree factor, multiplicity).

    The gcd chain g_0 = a, g_1, ..., g_M (_gcd_chain), then g_{M+1} = 1, of
    the primitive integer polynomial a with p's roots: the layer g_k / g_{k+1}
    holds, once each, the roots of multiplicity above k, so layer k - 1 over
    layer k is the factor of multiplicity k (Musser's gcd-chain method).
    The denominators are cleared once, every quotient is an exact integer
    division, constant factors are dropped, and the factors come back monic,
    in increasing multiplicity.
    """
    chain = [g for g, _ in _gcd_chain(_primitive(_over_common_denominator(p.coeffs)[0]))] + [[1]]
    layers = [_zdiv_exact(g, h) for g, h in zip(chain, chain[1:])] + [[1]]
    factors = [(_zdiv_exact(f, g), k) for k, (f, g) in enumerate(zip(layers, layers[1:]), 1)]
    if len(factors) == 1:  # squarefree: p itself
        return [(p, 1)]
    return [(Polynomial(tuple([Fraction(c, f[-1]) for c in f])), k) for f, k in factors if len(f) > 1]


# --- exact refined inertia of an integer polynomial, by remainder sequences ---


def _variations(values) -> int:
    # sign changes along a sequence of numbers, zeros skipped
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _at_minus_inf(p: list) -> int:
    # a number with the sign of p(t) as t -> -inf
    return p[-1] if len(p) % 2 else -p[-1]


def _exact_inertia(nums: list) -> RefinedInertia:
    """Refined inertia of the integer polynomial sum_k nums[k] t**k (nonzero
    leading coefficient), with no rounding (Gantmacher, Theory of Matrices,
    vol. 2, ch. XV).

    The zero roots are the vanishing low coefficients; q is the rest.  With
    q(t) = E(t**2) + t*O(t**2), q(iy) = A(y) + i*B(y) for A(y) = E(-y**2)
    and B(y) = y*O(-y**2); one signed remainder sequence of A and B gives
    the other counts.  Its last term is a constant times gcd(A, B) =
    H(-y**2), H = gcd(E, O), so H is read off its even coefficients.
    H(t**2) = gcd(q(t), q(-t)): its roots are the z with -z a root of q too,
    each imaginary-axis root with its full multiplicity.  A negative root s
    of H of multiplicity m is m pairs +-i*sqrt(-s); every other root of H
    gives one root in each open half-plane.  The Sturm sequence of (h, h')
    counts h's distinct roots in (-inf, 0) (h(0) != 0, as q(0) != 0), and
    its last term is gcd(h, h'), whose roots are h's with multiplicity one
    less, so the counts along that chain from h = H add up the
    multiplicities.  So n_plus - n_minus is that of the cofactor
    c = q / H(t**2), which has no imaginary-axis root: the argument of c(iy)
    turns by pi * (n_minus - n_plus) over the real line, the Cauchy index of
    B/A (deg q even) or -A/B (deg q odd; deg c has the same parity).
    H(-y**2) cancels from that ratio and divides every term of the sequence,
    so the index is read off the sequence's sign variations at -inf and +inf.
    """
    n_zero = 0
    while not nums[n_zero]:
        n_zero += 1
    q = _primitive(nums[n_zero:])
    even, odd = _ztrim(q[0::2]), _ztrim(q[1::2] or [0])
    re = [0] * (2 * len(even) - 1)
    re[0::2] = [-c if j % 2 else c for j, c in enumerate(even)]
    im = [0] * (2 * len(odd))
    im[1::2] = [-c if j % 2 else c for j, c in enumerate(odd)]
    im = _ztrim(im)
    seq = _sturm_sequence(re, im) if len(re) > len(im) else _sturm_sequence(im, re)
    index = _variations(map(_at_minus_inf, seq)) - _variations(p[-1] for p in seq)
    deg = len(q) - 1
    diff = index if deg % 2 == 0 else -index  # n_plus - n_minus
    h = _primitive([-c if j % 2 else c for j, c in enumerate(seq[-1][0::2])])
    # a constant H (no root of q has its negative as a root) gives an empty chain
    n_imag = sum(_variations(map(_at_minus_inf, s)) - _variations(p[0] for p in s) for _, s in _gcd_chain(h))
    return RefinedInertia((deg - 2 * n_imag + diff) // 2, (deg - 2 * n_imag - diff) // 2, n_zero, n_imag)


def _backward_errors(coeffs: list, zs) -> list:
    # backward_error at each z, with |c_k| taken once for all of them; an
    # evaluation whose modulus leaves the double range gives NaN
    lead, lead_mag = complex(coeffs[-1]), abs(coeffs[-1])
    rest = coeffs[-2::-1]
    terms = list(zip(rest, map(abs, rest)))
    out = []
    for z in zs:
        acc = lead
        emag = lead_mag
        try:
            az = abs(z)
            for c, ac in terms:
                acc = acc * z + c
                emag = emag * az + ac
            out.append(0.0 if emag == 0.0 else abs(acc) / emag)
        except OverflowError:  # abs() of a finite complex beyond the double range
            out.append(math.nan)
    return out


def backward_error(coeffs: list, z: complex) -> float:
    """Smallest relative coefficient perturbation making z an exact root.

    Computed as |p(z)| / sum_k |c_k| |z|^k with both Horner passes in double
    precision, NaN if an evaluation leaves the double range.  This is the
    certificate quantity for find_roots: a flat denominator such as max|c_k|
    is unattainable at high degree, since the evaluation of p near a root of
    magnitude r carries rounding noise of order eps * sum |c_k| r^k
    regardless of the root's accuracy.
    """
    return _backward_errors(coeffs, (z,))[0]


def find_roots(p: Polynomial, tol: float = 1e-9) -> RootMultiset:
    """All complex roots of p with multiplicity, certified by residuals.

    The raw roots are closed under conjugation once, by RootMultiset's rule;
    a root set it rejects raises RootFindingError.  Every returned root z
    satisfies |p(z)| <= tol * sum_k |c_k| |z|^k in double-precision
    evaluation, i.e. z is an exact root of some polynomial whose coefficients
    differ relatively from p's by at most tol; otherwise RootFindingError is
    raised with the worst backward error, NaN if an evaluation overflowed.
    The error is computed once per conjugate pair, at the root above the
    axis: the stored pairs are exact conjugates and the coefficients are
    real, so the root below has bitwise the same error (see the module
    docstring), and the bound holds for it too.  tol must satisfy
    0 < tol < 1, or ValueError is raised: at inf every root would snap onto
    the real axis, and at 1 or more any point would pass the certificate.
    """
    if p.degree < 1:
        raise ValueError("cannot extract roots of a constant polynomial")
    _check_tol(tol)
    if p.backend == "rational" and p.degree <= _SQUAREFREE_DEGREE_CAP:
        factors = _squarefree_factors(p)
    else:
        factors = [(p, 1)]
    roots = []
    for factor, mult in factors:
        for r in _roots_of_coeffs(list(factor.coeffs)):
            roots.extend([r] * mult)
    try:
        rm = RootMultiset(tuple(roots), tol)
    except ValueError as e:
        raise RootFindingError(str(e)) from e

    # the coefficients are real, so a root below the axis has the same
    # backward error as its stored conjugate above it
    errors = _backward_errors(p.float_coeffs(), [z for z in rm.roots if z.imag >= 0])
    # max() drops a NaN that is not first, so NaN is ranked above every number
    worst = max(errors, key=lambda e: math.inf if math.isnan(e) else e)
    if not (worst <= tol):
        raise RootFindingError(
            f"residual certificate failed: worst backward error {worst:.3e} > {tol:.1e}",
            residual=worst,
        )
    return rm


def roots_to_quadratics(multiset: RootMultiset) -> list:
    """Group a conjugation-closed multiset of even size into monic quadratics.

    Conjugate pairs become t**2 - 2*Re(z)*t + |z|**2.  Real roots are paired
    within their sign class, largest magnitude first, and zeros pair among
    themselves, so every quadratic has nonnegative constant term except for at
    most one pairing a positive with a negative leftover.
    """
    if multiset.n % 2:
        raise ValueError("total multiplicity must be even to group into quadratics")
    tol = multiset.tol
    zeros = []
    positives = []
    negatives = []
    conj = []
    for z in multiset.roots:
        if z.imag == 0:  # the closure stores its real roots on the axis
            r = z.real
            if abs(r) <= tol:
                zeros.append(0.0)
            elif r > 0:
                positives.append(r)
            else:
                negatives.append(r)
        elif z.imag > 0:
            conj.append(z)

    # 0.0 - x is -x bit for bit when x != 0 and +0.0 when x is a zero, so no
    # coefficient comes out as -0.0
    quads = [Quadratic(0.0 - 2.0 * z.real, abs(z) ** 2) for z in conj]
    leftovers = []
    for reals in (sorted(positives, reverse=True), sorted(negatives), zeros):
        for i in range(0, len(reals) - 1, 2):
            r, s = reals[i], reals[i + 1]
            quads.append(Quadratic(0.0 - (r + s), r * s))
        if len(reals) % 2:
            leftovers.append(reals[-1])
    # the non-real roots come in exact conjugate pairs and the total is even,
    # so the real roots are even in number and 0 or 2 classes leave one over
    if leftovers:
        r, s = leftovers
        # a negative times the zero 0.0 is -0.0; adding 0.0 turns only that to +0.0
        quads.append(Quadratic(0.0 - (r + s), r * s + 0.0))
    return quads


def refined_inertia_of(matrix, tol: float = 1e-9) -> RefinedInertia:
    """Classify the eigenvalues of a matrix by sign of real part, exactly.

    The spectrum of a block-diagonal matrix is the union of its blocks'
    spectra, so each diagonal block is counted on its own: its entries, as
    ints over the block's common denominator (a positive scale keeps the
    inertia), give an integer characteristic polynomial, and _exact_inertia
    counts it by remainder sequences, with no root.  A FloatMatrix is counted
    on the exact rationals its doubles are.  tol is validated (0 < tol < 1)
    but unused.
    """
    _check_tol(tol)
    counts = [0, 0, 0, 0]
    for block in _diagonal_blocks(matrix):
        flat = _over_common_denominator([e for row in block for e in row])[0]
        nu = _exact_inertia(_charpoly_int(flat, len(block)))
        counts = [c + k for c, k in zip(counts, nu)]
    return RefinedInertia(*counts)
