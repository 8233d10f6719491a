"""Monic dense polynomials over Fraction or float, and characteristic polynomials.

Characteristic polynomials follow the det(tI - M) convention, so they are
always monic.  Every matrix, rational or float, takes one exact path from its
diagonal blocks: the entries of the blocks are scaled by their common
denominator to Python ints straight from each entry's integer ratio (a double
is a dyadic rational, so nothing is rounded), each block's polynomial is
computed over the ints, and the block polynomials are multiplied by the same
convolution as poly_mul.  char_poly and verify_realization find the blocks by
scanning the dense matrix for its block-diagonal cuts; realize_poly passes the
blocks it built.

The exact kernels read a square int matrix in one layout: the flat row-major
list of its n*n entries, so a_ij is a[i*n + j], with its support keyed as
tuple(map(bool, a)), as in verify's identity check.  A block's polynomial
takes one of two exact paths, chosen by that support alone.  A sparse
support, such as the 6x6 templates T and Tprime and the 2x2 block D, sums
signed products over its sets of vertex-disjoint cycles, which are
enumerated once per support and memoized.  A support whose enumeration would
cost more than the trace recursion (Faddeev-LeVerrier over the ints), such
as a dense one, runs that recursion.  Both give the same ints.

Exact coefficients have one scaled-integer form, (nums, den): coefficient k
is nums[k] / den, all ints.  The characteristic polynomial comes out in it,
and so does any polynomial put over its common denominator.  Residuals
compare two such forms over one denominator and round the quotient once;
char_poly divides each coefficient out once at the end.  No Fraction matrix
is built.  poly_mul on the rational backend follows the same rule: with
p = a / da and q = b / db over their common denominators, p * q is the int
convolution of a and b over da * db, and each of its coefficients becomes a
Fraction once, instead of a Fraction multiply-add (and its gcd) per term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .matrices import FloatMatrix, RationalMatrix, _as_float, block_orders, parse_rational

_FLOAT_MONIC_SLACK = 1e-12


def _normalize_coeffs(coeffs):
    # A single float commits the whole polynomial to the float backend;
    # otherwise ints are taken exactly as rationals.  A bool is an int to
    # isinstance, so it is rejected first.
    if bool in map(type, coeffs):
        raise TypeError("coefficients must be numbers, got bool")
    if any(isinstance(c, float) for c in coeffs):
        if not all(isinstance(c, (float, int)) for c in coeffs):
            raise TypeError("cannot mix float and Fraction coefficients")
        return tuple([float(c) for c in coeffs])
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return tuple([c if type(c) is Fraction else Fraction(c) for c in coeffs])
    raise TypeError("coefficients must be Fraction/int or float")


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial; coeffs are ascending, so coeffs[k] multiplies t**k.

    The leading coefficient must be exactly 1 on the rational backend and
    within 1e-12 of 1 on the float backend, where it is snapped to 1.0.
    Float coefficients must be finite.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least the leading coefficient")
        coeffs = _normalize_coeffs(tuple(self.coeffs))
        lead = coeffs[-1]
        if isinstance(lead, Fraction):
            if lead != 1:
                raise ValueError(f"polynomial must be monic, leading coefficient is {lead}")
        else:
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError("polynomial coefficients must be finite")
            if abs(lead - 1.0) > _FLOAT_MONIC_SLACK:
                raise ValueError(f"polynomial must be monic, leading coefficient is {lead!r}")
            coeffs = coeffs[:-1] + (1.0,)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def backend(self) -> str:
        return "rational" if isinstance(self.coeffs[0], Fraction) else "float"

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return poly_mul(self, other)

    def __call__(self, z):
        """Horner evaluation; complex arguments are fine on either backend."""
        acc = self.coeffs[-1] * (1 + 0j if isinstance(z, complex) else 1)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def to_float(self) -> "Polynomial":
        return Polynomial(tuple(float(c) for c in self.coeffs))

    def lift(self) -> "Polynomial":
        """Exact rational image of a float polynomial (leading 1.0 maps to 1)."""
        if self.backend == "rational":
            return self
        return Polynomial(tuple(Fraction(c) for c in self.coeffs))

    def float_coeffs(self) -> list:
        return [float(c) for c in self.coeffs]

    def to_dict(self) -> dict:
        if self.backend == "rational":
            return {"coeffs": [str(c) for c in self.coeffs]}
        return {"coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def polynomial_from_dict(data: dict) -> Polynomial:
    """Parse {"coeffs": [...]}; any string coefficient selects the rational
    backend, and otherwise every coefficient is read as a float.  A boolean
    coefficient raises ValueError naming it, and so does coeffs that is not
    a list (a string would otherwise be read as its characters)."""
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise ValueError(f"coeffs must be a list, got {type(raw).__name__}")
    parse = parse_rational if any(isinstance(c, str) for c in raw) else _as_float
    return Polynomial(tuple([parse(c, f"coefficient {i}") for i, c in enumerate(raw)]))


def _convolve(a: Sequence, b: Sequence) -> list:
    # schoolbook product of ascending coefficient sequences
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of monic polynomials on a common backend.

    On the rational backend each factor is put over its own common
    denominator, the ints are convolved, and each coefficient is divided by
    the product of the two denominators once (see the module docstring).
    """
    if p.backend != q.backend:
        raise ValueError(f"backend mismatch: {p.backend} * {q.backend}")
    if p.backend == "float":
        return Polynomial(tuple(_convolve(p.coeffs, q.coeffs)))
    return _rational_product((p, q))


def _rational_product(factors) -> Polynomial:
    # poly_mul's rational rule over any number of factors: one Fraction per
    # coefficient of the whole product
    nums, den = [1], 1
    for f in factors:
        a, da = _over_common_denominator(f.coeffs)
        nums = _convolve(a, nums)
        den *= da
    return _descaled(nums, den)


@functools.lru_cache(maxsize=32)
def _linear_subdigraphs(support: tuple, n: int) -> tuple | None:
    """The signed cycle covers that expand det(tI - A) on one support, or None.

    support is the flat row-major key tuple(map(bool, a)) of an order-n
    matrix, the same key as verify._power_sums: support[i*n + j] is true
    where a_ij may be nonzero, and the digraph has an arc i -> j there.
    Entry k of the result lists, as (sign, arcs), every set of
    vertex-disjoint cycles that covers exactly n - k vertices: arcs are the
    flat indices i*n + j of its cycles' arcs, each cycle from its least
    vertex, and sign is (-1)**(number of cycles).  Then c[k] of det(tI - A)
    is the sum of sign * prod(a[ij] for ij in arcs) over entry k (Brualdi and
    Cvetković, A Combinatorial Approach to Matrix Theory, 2008, ch. 4);
    entry n is the empty set, so c[n] = 1.  The terms are structure only, so
    monomials in the entries can take the place of ints.

    The search decides the vertices in increasing order: each is left out or
    is the least vertex of a new cycle, which grows through unused vertices
    above it until it returns, so every set is listed once.  The trace
    recursion takes n matrix products of n**3 multiplications each.  So the
    search gives up, and returns None, once its steps or the arcs of its
    terms pass n * n * nnz, which is that n**4 on a dense support and less
    on a sparser one: a dense support gives up after about one recursion's
    multiplications in search steps, and the memo holds at most that many
    arcs per support.
    """
    succ = [[(j, i * n + j) for j in range(n) if support[i * n + j]] for i in range(n)]
    budget = n * n * sum(support)
    terms = [[] for _ in range(n + 1)]
    arc_count = steps = 0
    # a state is (root, u, used, path, sign): with u < 0 the vertices below
    # root are decided; else a cycle from root has reached u.  path links
    # the arcs taken, newest first, as (earlier path, arc).
    stack = [(0, -1, 0, None, 1)]
    while stack:
        steps += 1
        if steps > budget:
            return None
        root, u, used, path, sign = stack.pop()
        if u < 0:
            while root < n and used >> root & 1:
                root += 1
            if root == n:
                arcs = []
                while path is not None:
                    path, arc = path
                    arcs.append(arc)
                arc_count += len(arcs)
                if arc_count > budget:
                    return None
                terms[n - len(arcs)].append((sign, tuple(reversed(arcs))))
                continue
            stack.append((root + 1, -1, used, path, sign))
            stack.append((root, root, used | 1 << root, path, sign))
        else:
            for w, arc in succ[u]:
                if w == root:
                    stack.append((root + 1, -1, used, (path, arc), -sign))
                elif w > root and not used >> w & 1:
                    stack.append((root, w, used | 1 << w, (path, arc), sign))
    return tuple(map(tuple, terms))


def _charpoly_int(a: list, n: int) -> list:
    # det(tI - A) of an order-n int matrix A, given as the flat row-major list
    # a of its n*n entries, as ascending ints: the signed sum over the cycle
    # covers of its support, else the trace recursion
    expansion = _linear_subdigraphs(tuple(map(bool, a)), n)
    if expansion is None:
        return _charpoly_trace(a, n)
    c = []
    for terms in expansion:
        ck = 0
        for sign, arcs in terms:
            p = sign
            for ij in arcs:
                p *= a[ij]
            ck += p
        c.append(ck)
    return c


def _charpoly_trace(a: list, n: int) -> list:
    # Trace recursion over Python ints on the flat row-major a: M0 = 0,
    # Mk = A(Mk-1 + c[n-k+1] I), c[n-k] = -tr(Mk)/k.  The division by k is
    # exact for integer input because the coefficients are integers.
    c = [0] * (n + 1)
    c[n] = 1
    m = [0] * (n * n)
    for k in range(1, n + 1):
        for ii in range(0, n * n, n + 1):
            m[ii] += c[n - k + 1]
        nxt = [0] * (n * n)
        for i in range(0, n * n, n):
            for l in range(n):
                ail = a[i + l]
                for j in range(n):
                    nxt[i + j] += ail * m[l * n + j]
        m = nxt
        q, r = divmod(-sum(m[:: n + 1]), k)
        if r:
            raise ArithmeticError("trace recursion lost exactness on integer input")
        c[n - k] = q
    return c


def _over_common_denominator(values) -> tuple:
    # exact rationals (ints, Fractions or doubles) as ints over their lcm denominator
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios], den


def _diagonal_blocks(matrix) -> list:
    # the diagonal blocks of the matrix's finest block-diagonal split, as rows
    if not isinstance(matrix, (RationalMatrix, FloatMatrix)):
        raise TypeError(f"expected a matrix, got {type(matrix).__name__}")
    cuts = [0, *accumulate(block_orders(matrix))]
    return [[row[lo:hi] for row in matrix.entries[lo:hi]] for lo, hi in zip(cuts, cuts[1:])]


def _charpoly_scaled(blocks) -> tuple:
    """(nums, den) with det(tI - M) = sum_k nums[k] / den * t**k, all ints,
    for the block-diagonal M of order n with these diagonal blocks (each a
    row sequence).

    With scale = odd << shift the common denominator of the block entries,
    taken straight from their integer ratios, and c the characteristic
    polynomial of scale*M (the product of its blocks' polynomials),
    nums[k] = c[k] * odd**k << shift*k and den = odd**n << shift*n, which is
    c[k] * scale**k and scale**n.  A double is dyadic, so odd is 1 for a
    float matrix and the powers of its scale are shifts.  Entries outside the
    blocks are zero and do not change the scale, so any split of M into
    diagonal blocks gives the same (nums, den).  Each block's polynomial comes
    from _charpoly_int: the cycle covers of its support when they are few (the
    T, Tprime and D blocks of every realization), else the trace recursion.
    """
    flat, scale = _over_common_denominator([e for block in blocks for row in block for e in row])
    shift = (scale & -scale).bit_length() - 1
    odd = scale >> shift
    c = [1]
    pos = 0
    for block in blocks:
        order = len(block)
        # the short block polynomial as the outer operand; ints commute exactly
        c = _convolve(_charpoly_int(flat[pos : pos + order * order], order), c)
        pos += order * order
    nums = []
    power = 1  # odd**k
    for k, ck in enumerate(c):
        nums.append((ck * power) << (shift * k))
        power *= odd
    # c is monic, so its leading term is den
    return nums, nums[-1]


def char_poly(matrix) -> Polynomial:
    """Characteristic polynomial det(tI - M), monic, on the matrix's backend.

    Computed exactly for either backend (see the module docstring); the
    coefficients of a FloatMatrix are the correctly rounded doubles of the
    exact characteristic polynomial of its entries.
    """
    nums, den = _charpoly_scaled(_diagonal_blocks(matrix))
    if isinstance(matrix, FloatMatrix):
        coeffs = []
        for k, nk in enumerate(nums):
            try:
                coeffs.append(nk / den)
            except OverflowError:
                raise OverflowError(
                    f"the t^{k} coefficient of the characteristic polynomial of an "
                    f"order-{matrix.n} matrix lies beyond the double range"
                ) from None
        return Polynomial(tuple(coeffs))
    return _descaled(nums, den)


def _descaled(nums: list, den: int) -> Polynomial:
    # the scaled form as an exact rational polynomial
    return Polynomial(tuple(Fraction(nk, den) for nk in nums))


def _residual(p: list, pden: int, target: Polynomial) -> float:
    # max_k |p[k]/pden - t_k| / max(1, max_j |t_j|) over the target's common
    # denominator, rounded once: the same double as the Fraction expression
    if len(p) != len(target.coeffs):
        raise ValueError(f"degree mismatch: {len(p) - 1} vs {target.degree}")
    t, tden = _over_common_denominator(target.coeffs)
    err = max(abs(pk * tden - tk * pden) for pk, tk in zip(p, t))
    try:
        return err / (pden * max(tden, max(abs(tk) for tk in t)))
    except OverflowError:
        raise OverflowError(
            f"the coefficient residual at order {target.degree} lies beyond the double range"
        ) from None


def _charpoly_residual(matrix, target: Polynomial) -> float:
    """coefficient_residual(char_poly(matrix), target) without rounding the
    characteristic polynomial first: exact, from the scaled ints."""
    return _residual(*_charpoly_scaled(_diagonal_blocks(matrix)), target)


def coefficient_residual(p: Polynomial, target: Polynomial) -> float:
    """max_k |p_k - target_k| / max(1, max_j |target_j|), computed exactly.

    Both polynomials are taken as exact rationals (ints over a common
    denominator), so the residual reflects true coefficient deviations rather
    than float cancellation; the quotient is rounded once.
    """
    return _residual(*_over_common_denominator(p.coeffs), target)


def divisors_degree6(factors: Sequence[Polynomial]) -> list:
    """All degree-6 products of subsets of pairwise coprime monic factors.

    Returned in the subset enumeration order induced by the input order.
    """
    factors = list(factors)
    if any(f.backend != "rational" for f in factors):
        raise ValueError("divisor enumeration requires the rational backend")
    degrees = [f.degree for f in factors]
    out = []
    for mask in range(1, 1 << len(factors)):
        chosen = [i for i in range(len(factors)) if mask >> i & 1]
        if sum([degrees[i] for i in chosen]) == 6:
            out.append(_rational_product([factors[i] for i in chosen]))
    return out


@dataclass(frozen=True)
class Quadratic:
    """Monic quadratic t**2 + a*t + b, kept as its two non-leading coefficients."""

    a: object
    b: object

    def to_polynomial(self) -> Polynomial:
        return Polynomial((self.b, self.a, 1))

    def lift(self) -> "Quadratic":
        return Quadratic(Fraction(self.a), Fraction(self.b))
