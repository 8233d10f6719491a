"""Monic dense polynomials over Fraction or float, and characteristic polynomials.

Characteristic polynomials follow the det(tI - M) convention, so they are
always monic.  On the rational backend the trace recursion runs over scaled
integers, which keeps every division exact and avoids Fraction normalization
in the inner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .matrices import FloatMatrix, RationalMatrix

_FLOAT_MONIC_SLACK = 1e-12


def _normalize_coeffs(coeffs):
    # A single float commits the whole polynomial to the float backend;
    # otherwise ints are taken exactly as rationals.
    if any(isinstance(c, float) for c in coeffs):
        if not all(isinstance(c, (float, int)) for c in coeffs):
            raise TypeError("cannot mix float and Fraction coefficients")
        return tuple(float(c) for c in coeffs)
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return tuple(Fraction(c) for c in coeffs)
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
    """Parse {"coeffs": [...]}; any string coefficient selects the rational backend."""
    raw = data["coeffs"]
    if any(isinstance(c, str) for c in raw):
        coeffs = []
        for c in raw:
            if isinstance(c, str):
                coeffs.append(Fraction(c))
            elif isinstance(c, int):
                coeffs.append(Fraction(c))
            elif isinstance(c, float) and c.is_integer():
                coeffs.append(Fraction(int(c)))
            else:
                raise ValueError("rational coefficients must be strings or integers")
        return Polynomial(tuple(coeffs))
    return Polynomial(tuple(float(c) for c in raw))


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of monic polynomials on a common backend."""
    if p.backend != q.backend:
        raise ValueError(f"backend mismatch: {p.backend} * {q.backend}")
    zero = Fraction(0) if p.backend == "rational" else 0.0
    out = [zero] * (p.degree + q.degree + 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(tuple(out))


def _charpoly_int(a: list, n: int) -> list:
    # Trace recursion over Python ints: M1 = A, c[n-1] = -tr M1,
    # Mk = A(Mk-1 + c[n-k+1] I), c[n-k] = -tr(Mk)/k.  The division by k is
    # exact for integer input because the coefficients are integers.
    c = [0] * (n + 1)
    c[n] = 1
    m = [row[:] for row in a]
    c[n - 1] = -sum(m[i][i] for i in range(n))
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += c[n - k + 1]
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            arow = a[i]
            row = nxt[i]
            for l in range(n):
                ail = arow[l]
                if ail:
                    mrow = m[l]
                    for j in range(n):
                        row[j] += ail * mrow[j]
        m = nxt
        tr = sum(m[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("trace recursion lost exactness on integer input")
        c[n - k] = q
    return c


def _charpoly_rational(matrix: RationalMatrix) -> Polynomial:
    n = matrix.n
    scale = 1
    for row in matrix.entries:
        for e in row:
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
    a = [[int(e * scale) for e in row] for row in matrix.entries]
    c = _charpoly_int(a, n)
    # char poly of scale*M has coefficients c[k]; undo via c[k] / scale**(n-k)
    coeffs = tuple(Fraction(c[k], scale ** (n - k)) for k in range(n + 1))
    return Polynomial(coeffs)


def _charpoly_float(matrix: FloatMatrix) -> Polynomial:
    a = matrix.to_numpy()
    n = a.shape[0]
    c = np.zeros(n + 1)
    c[n] = 1.0
    m = a.copy()
    c[n - 1] = -np.trace(m)
    eye = np.eye(n)
    for k in range(2, n + 1):
        m = a @ (m + c[n - k + 1] * eye)
        c[n - k] = -np.trace(m) / k
    return Polynomial(tuple(float(x) for x in c))


def char_poly(matrix) -> Polynomial:
    """Characteristic polynomial det(tI - M), monic, on the matrix's backend."""
    if isinstance(matrix, RationalMatrix):
        return _charpoly_rational(matrix)
    if isinstance(matrix, FloatMatrix):
        return _charpoly_float(matrix)
    raise TypeError(f"expected a matrix, got {type(matrix).__name__}")


def coefficient_residual(p: Polynomial, target: Polynomial) -> float:
    """max_k |p_k - target_k| / max(1, max_j |target_j|), computed exactly.

    Both polynomials are lifted to the rational backend first, so the residual
    reflects true coefficient deviations rather than float cancellation.
    """
    if p.degree != target.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {target.degree}")
    pc = p.lift().coeffs
    tc = target.lift().coeffs
    err = max(abs(a - b) for a, b in zip(pc, tc))
    scale = max(Fraction(1), max(abs(c) for c in tc))
    return float(err / scale)


def divisors_degree6(factors: Sequence[Polynomial]) -> list:
    """All degree-6 products of subsets of pairwise coprime monic factors.

    Returned in the subset enumeration order induced by the input order.
    """
    factors = list(factors)
    if any(f.backend != "rational" for f in factors):
        raise ValueError("divisor enumeration requires the rational backend")
    out = []
    for mask in range(1, 1 << len(factors)):
        chosen = [factors[i] for i in range(len(factors)) if mask >> i & 1]
        if sum(f.degree for f in chosen) != 6:
            continue
        prod = chosen[0]
        for f in chosen[1:]:
            prod = poly_mul(prod, f)
        out.append(prod)
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
