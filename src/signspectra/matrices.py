"""Square arrays: rational and float matrices, the one direct sum, and conformance.

One private frozen base, ``_Square``, holds a tuple of row tuples for the
two matrix types here and for ``patterns.SignPattern``.  It converts and
checks each row through the subclass's ``_row``, then checks once that the
array is square of order at least 1.  ``block_diag`` is the package's only
direct sum: it fills the off-diagonal blocks with the class's ``zero`` and does
not re-check the blocks, which were checked when they were built.

The rational type keeps every entry as a Fraction; the float type is the
working representation for numeric pipelines.  Every finite double is a
rational number, so both types have exact characteristic polynomials and
residuals (computed in poly.py on integers scaled straight from the
entries), and a float matrix lifts to the rational type without loss.
Conformance has one predicate, ``_flat_conforms``, over a flat row-major
list of entries and the pattern's cached flat form; ``conforms`` and the
identity check in verify.py both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def _require_ints(*named) -> None:
    # (name, value) pairs; a bool is an int to isinstance, so True would count as 1
    for name, value in named:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        if isinstance(value, bool):  # an int to isinstance, but not a number here
            raise TypeError("rational entries must be int, str or Fraction, got bool")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(
        f"rational entries must be int, str or Fraction, got {type(value).__name__}; "
        "lift float matrices with FloatMatrix.lift()"
    )


@dataclass(frozen=True)
class _Square:
    """Immutable n x n array of row tuples.

    Subclasses set ``_noun`` (for shape errors), ``zero`` (the off-diagonal
    filler of ``block_diag``) and ``_row``, which converts and checks one row
    and returns it as a tuple.
    """

    entries: tuple

    _noun = "matrix"

    def __post_init__(self):
        rows = tuple([self._row(row) for row in self.entries])
        n = len(rows)
        if n == 0:
            raise ValueError(f"{self._noun} must have order at least 1")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"{self._noun} must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        return cls(rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries!r})"


class RationalMatrix(_Square):
    """Immutable square matrix with Fraction entries."""

    zero = Fraction(0)

    @staticmethod
    def _row(row) -> tuple:
        return tuple([_as_fraction(e) for e in row])

    def lift(self) -> "RationalMatrix":
        """Already exact; returned unchanged, like Polynomial.lift()."""
        return self

    def to_float(self) -> "FloatMatrix":
        """Round each entry to the nearest double."""
        return FloatMatrix(tuple(tuple(float(e) for e in row) for row in self.entries))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(e) for e in row] for row in self.entries],
        }


class FloatMatrix(_Square):
    """Immutable square matrix with finite float entries."""

    zero = 0.0

    @staticmethod
    def _row(row) -> tuple:
        # a bool is an int to float(); one C-level scan of the types finds it
        if bool in map(type, row):
            raise TypeError("float entries must be numbers, got bool")
        # hot-path tuples are built from lists: a tuple built from a generator
        # is over-allocated and shrunk, and the shrunk tuples pile up on
        # CPython's per-size free lists, raising peak memory
        row = tuple([float(e) for e in row])
        if not all(map(math.isfinite, row)):
            raise ValueError("matrix entries must be finite")
        return row

    def lift(self) -> RationalMatrix:
        """Exact rational image; doubles are dyadic rationals so nothing is lost."""
        return RationalMatrix(
            tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        )

    def to_dict(self) -> dict:
        return {"n": self.n, "entries": [list(row) for row in self.entries]}


def parse_rational(value, where: str) -> Fraction:
    """Exact value of one JSON entry on the rational backend.

    Strings like "3" or "-2/7" and integer-valued numbers are accepted;
    anything else, a boolean and a zero denominator among them, raises
    ValueError.  where names the entry in the boolean's error.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where} is a boolean, not a number")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (str, int)):
        raise ValueError("rational entries must be strings or integers")
    return _as_fraction(value)


def _as_float(value, where: str) -> float:
    # one JSON number on the float backend; where names it in the error
    if isinstance(value, bool):
        raise ValueError(f"{where} is a boolean, not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{where} is too large for a float; a quoted string keeps the value exact"
        ) from None


def matrix_from_dict(data: dict):
    """Parse a matrix mapping; string entries select the rational backend.

    Entries may be JSON numbers (float backend) or strings like "3" or "-2/7"
    (rational backend).  A single string entry commits the whole matrix to the
    rational backend, in which case integer-valued numbers are accepted
    exactly and non-integer numbers are rejected as ambiguous.  On the float
    backend an integer beyond the double range raises ValueError naming the
    entry, and so does a boolean on either backend.  entries must be a list
    of row lists; a string row would otherwise be read as its characters.
    """
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("entries must be a list of row lists")
    if any(isinstance(e, str) for row in entries for e in row):
        parse, cls = parse_rational, RationalMatrix
    else:
        parse, cls = _as_float, FloatMatrix
    matrix = cls.from_rows(
        [[parse(e, f"entry ({i}, {j})") for j, e in enumerate(row)] for i, row in enumerate(entries)]
    )
    if "n" in data and data["n"] != matrix.n:
        raise ValueError(f"declared order {data['n']} does not match {matrix.n} rows")
    return matrix


def conforms(matrix, pattern: SignPattern) -> bool:
    """True when every entry's sign matches the pattern entry exactly.

    Zero pattern entries require exactly zero matrix entries; no tolerance is
    applied on either backend.  The rows are flattened once for ``_flat_conforms``.
    """
    if matrix.n != pattern.n:
        raise ValueError(f"order mismatch: matrix is {matrix.n}, pattern is {pattern.n}")
    a = [e for row in matrix.entries for e in row]
    key, positions, _, plus = pattern._flat
    return _flat_conforms(a, tuple(map(bool, a)), key, positions, plus)


def _flat_conforms(a: list, support: tuple, key: tuple, positions: tuple, plus: list) -> bool:
    # the row-major entries a, of support tuple(map(bool, a)), are zero exactly
    # where the pattern's key is false, and the entries at the pattern's
    # nonzero positions are positive exactly where plus says so
    return support == key and [a[p] > 0 for p in positions] == plus


def block_diag(blocks: Iterable):
    """Direct sum of square blocks of one type, zero filling the off-diagonal blocks.

    All blocks must be of the same type: RationalMatrix, FloatMatrix or
    SignPattern.  The blocks are not re-checked: each was checked when it was
    built and ``zero`` is the class's own valid entry, so the result equals
    the one the checked constructor builds from the same dense rows.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    first = type(blocks[0])
    if any(type(b) is not first for b in blocks):
        raise TypeError("all blocks must have the same type")
    if not issubclass(first, _Square):
        raise TypeError(f"cannot build a block diagonal of {first.__name__}")
    n = sum(b.n for b in blocks)
    rows = []
    for b in blocks:
        left = (first.zero,) * len(rows)
        right = (first.zero,) * (n - len(rows) - b.n)
        rows += [left + row + right for row in b.entries]
    result = object.__new__(first)
    object.__setattr__(result, "entries", tuple(rows))
    return result


def block_orders(matrix) -> tuple:
    """Orders of the finest split of a matrix into contiguous diagonal blocks.

    There is a cut after index k exactly when every entry with one index at
    most k and the other above k is zero, in both triangles; a single nonzero
    entry in either off-diagonal block removes the cut.  Row and column k are
    read from the far end down to the furthest index any earlier row or
    column reaches, so the scan reads O(n**2) entries at most.
    """
    rows = matrix.entries
    n = len(rows)
    orders = []
    start = reach = 0
    for k in range(n):
        reach = max(reach, k)
        for j in range(n - 1, reach, -1):
            if rows[k][j] or rows[j][k]:
                reach = j
                break
        if reach == k:
            orders.append(k + 1 - start)
            start = k + 1
    return tuple(orders)
