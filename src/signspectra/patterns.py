"""Square sign patterns over {+, 0, -} and the built-in family used by the realizers.

A sign pattern prescribes, entry by entry, whether a real matrix entry must be
positive, zero, or negative.  ``SignPattern`` shares the square-array base of
the matrix types in matrices.py, so one shape rule and one direct sum,
``block_diag``, serve patterns and matrices alike.  The built-ins cover the
parameterized 6x6 template pattern, a 2x2 companion-style pattern, and their
block-diagonal compositions up to arbitrary size.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Sequence

from .matrices import _Square, block_diag


class Sign(Enum):
    """Qualitative sign of a real number."""

    PLUS = "+"
    ZERO = "0"
    MINUS = "-"

    @classmethod
    def of(cls, value) -> "Sign":
        """Sign of a number.  Zero must be exact; no tolerance is applied."""
        if value > 0:
            return cls.PLUS
        if value < 0:
            return cls.MINUS
        return cls.ZERO

    @classmethod
    def from_char(cls, ch: str) -> "Sign":
        try:
            return cls(ch)
        except ValueError:
            raise ValueError(f"invalid sign character {ch!r}, expected one of '+', '0', '-'") from None

    def __repr__(self) -> str:
        return f"Sign({self.value!r})"


class SignPattern(_Square):
    """Immutable n x n array of Sign values."""

    _noun = "sign pattern"
    zero = Sign.ZERO

    @staticmethod
    def _row(row) -> tuple:
        row = tuple(row)
        for s in row:
            if not isinstance(s, Sign):
                raise TypeError(f"pattern entries must be Sign, got {type(s).__name__}")
        return row

    @cached_property
    def _codes(self) -> tuple:
        # entry signs as ints 1, 0, -1, the value of (e > 0) - (e < 0); compared
        # by identity, since hashing an Enum member runs Python code
        plus, minus = Sign.PLUS, Sign.MINUS
        return tuple(
            tuple([1 if s is plus else -1 if s is minus else 0 for s in row]) for row in self.entries
        )

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "SignPattern":
        """Build from strings of '+', '0', '-', one per row."""
        return cls(tuple(tuple(Sign.from_char(ch) for ch in row) for row in rows))

    def to_rows(self) -> list:
        # "0+-"[code] is the character of code 0, 1 or -1
        return ["".join(["0+-"[s] for s in row]) for row in self._codes]

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": self.to_rows()}

    @classmethod
    def from_dict(cls, data: dict) -> "SignPattern":
        pattern = cls.from_rows(data["rows"])
        if "n" in data and data["n"] != pattern.n:
            raise ValueError(f"declared order {data['n']} does not match {pattern.n} rows")
        return pattern

    def __repr__(self) -> str:
        return f"SignPattern.from_rows({self.to_rows()!r})"


def is_superpattern(p: SignPattern, q: SignPattern) -> bool:
    """True when p agrees with q on every nonzero entry of q.

    Equal patterns are superpatterns of each other; the relation allows p to
    fill in zeros of q with any sign.
    """
    if p.n != q.n:
        return False
    for i in range(q.n):
        for j in range(q.n):
            s = q[i, j]
            if s is not Sign.ZERO and p[i, j] is not s:
                return False
    return True


_T_ROWS = ("++0000", "--+000", "000+00", "0000+0", "--000+", "+++0-0")
_TPRIME_ROWS = ("++0000", "--+000", "+00+00", "0000+0", "--000+", "+++0-0")
_D_ROWS = ("++", "--")

_T = SignPattern.from_rows(_T_ROWS)
_TPRIME = SignPattern.from_rows(_TPRIME_ROWS)
_D = SignPattern.from_rows(_D_ROWS)


def composite_pattern(t: int, d: int) -> SignPattern:
    """Direct sum of t copies of the 6x6 template pattern and d 2x2 blocks, in that order."""
    if t < 0 or d < 0 or t + d == 0:
        raise ValueError("need t >= 0, d >= 0 and at least one block")
    return block_diag([_T] * t + [_D] * d)


def builtin_pattern(name: str, t: int | None = None, d: int | None = None) -> SignPattern:
    """Look up a named pattern.

    Recognized names: "T", "Tprime", "D", "X_template" (alias of "T"), "S"
    (one T block and five D blocks), "Sprime" (same with Tprime), "TD" (one T,
    one D), "U1" (alias of "TD"), "U2", "U3" (repeated doublings of U1), and
    "V" which takes the block counts t and d explicitly.
    """
    if name == "V":
        if t is None or d is None:
            raise ValueError('pattern "V" requires both t and d')
        return composite_pattern(t, d)
    if t is not None or d is not None:
        raise ValueError(f"pattern {name!r} does not take t or d")
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise ValueError(f"unknown pattern name {name!r}; known names: {known}") from None


def _build_builtins() -> dict:
    td = block_diag([_T, _D])
    u2 = block_diag([td, td])
    u3 = block_diag([u2, u2])
    return {
        "T": _T,
        "Tprime": _TPRIME,
        "D": _D,
        "X_template": _T,
        "S": block_diag([_T] + [_D] * 5),
        "Sprime": block_diag([_TPRIME] + [_D] * 5),
        "TD": td,
        "U1": td,
        "U2": u2,
        "U3": u3,
    }


_BUILTINS = _build_builtins()

BUILTIN_NAMES = tuple(_BUILTINS) + ("V",)
