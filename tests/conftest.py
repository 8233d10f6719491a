"""Shared oracles for the test suite.

The characteristic-polynomial oracle here expands det(tI - M) by cofactors
over exact rational polynomial arithmetic, sharing no code with the trace
recursion under test; the gcd oracle is Euclid's algorithm over Fraction
coefficient lists, sharing no code with the integer squarefree split.
"""

from fractions import Fraction

from hypothesis import HealthCheck, settings

from signspectra import Polynomial, poly_mul

# Property tests are derandomized, so every run draws the same examples.
PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)


def _pl_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pl_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def pl_product(factors):
    """Product of ascending Fraction coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        out = _pl_mul(out, f)
    return out


def pl_gcd(a, b):
    """Monic gcd of two ascending coefficient lists by Euclid over Fractions."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        while b[-1] == 0:
            b.pop()
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for j, c in enumerate(b):
                r[shift + j] -= q * c
            r.pop()
        a, b = b, r or [Fraction(0)]
    return [c / a[-1] for c in a]


def _pl_det(rows):
    # Laplace expansion along the first row; entries are coefficient lists.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = [Fraction(0)]
    for j in range(n):
        entry = rows[0][j]
        if all(c == 0 for c in entry):
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = _pl_mul(entry, _pl_det(minor))
        if j % 2:
            term = [-c for c in term]
        total = _pl_add(total, term)
    return total


def charpoly_by_cofactors(matrix) -> Polynomial:
    """det(tI - M) via cofactor expansion; exact, independent of the library path."""
    n = matrix.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            const = -Fraction(matrix[i, j])
            row.append([const, Fraction(1)] if i == j else [const])
        rows.append(row)
    coeffs = _pl_det(rows)
    coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
    return Polynomial(tuple(coeffs))


def poly_from_real_roots(roots) -> Polynomial:
    """Monic float polynomial with the given real roots, built by convolution."""
    p = Polynomial((1.0,))
    for r in roots:
        p = poly_mul(p, Polynomial((-float(r), 1.0)))
    return p


def poly_from_root_spec(reals, pairs) -> Polynomial:
    """Monic float polynomial from real roots and conjugate pairs (re, im)."""
    p = poly_from_real_roots(reals)
    for re, im in pairs:
        p = poly_mul(p, Polynomial((re * re + im * im, -2.0 * re, 1.0)))
    return p
