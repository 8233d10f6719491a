import math
import random
from fractions import Fraction

import pytest
from conftest import PROPERTY_SETTINGS
from hypothesis import given
from hypothesis import strategies as st

from signspectra import (
    FloatMatrix,
    Polynomial,
    RationalMatrix,
    Sign,
    SignPattern,
    block_diag,
    builtin_pattern,
    conforms,
    matrix_from_dict,
    poly_mul,
    realize_poly,
)
from signspectra.matrices import block_orders


def test_rational_matrix_entry_coercion():
    m = RationalMatrix.from_rows([[1, "2/3"], [Fraction(-1, 7), 0]])
    assert m.n == 2
    assert m[0, 1] == Fraction(2, 3)
    assert m[1, 0] == Fraction(-1, 7)
    assert isinstance(m[1, 1], Fraction)


def test_rational_matrix_rejects_floats():
    with pytest.raises(TypeError, match="lift"):
        RationalMatrix.from_rows([[0.5, 0], [0, 0]])


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="square"):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="at least 1"):
        FloatMatrix(())
    with pytest.raises(ValueError, match="finite"):
        FloatMatrix.from_rows([[float("inf")]])
    with pytest.raises(ValueError, match="finite"):
        FloatMatrix.from_rows([[float("nan")]])


def test_float_lift_is_exact():
    m = FloatMatrix.from_rows([[0.1, -2.5], [3.0, 0.0]])
    r = m.lift()
    assert r[0, 0] == Fraction(0.1)  # the exact dyadic value, not 1/10
    assert r[0, 1] == Fraction(-5, 2)
    assert r[1, 0] == 3
    assert m.lift().to_float() == m


def test_rational_to_float_rounds():
    m = RationalMatrix.from_rows([["1/3", 0], [0, 1]])
    f = m.to_float()
    assert f[0, 0] == pytest.approx(1 / 3)


def test_matrix_from_dict_backends():
    r = matrix_from_dict({"n": 2, "entries": [["1/2", -3], [2.0, "0"]]})
    assert isinstance(r, RationalMatrix)
    assert r[0, 0] == Fraction(1, 2)
    assert r[1, 0] == 2

    f = matrix_from_dict({"entries": [[0.5, 1.0], [2.5, -1.0]]})
    assert isinstance(f, FloatMatrix)
    assert f[1, 0] == 2.5


def test_matrix_from_dict_errors():
    with pytest.raises(ValueError, match="strings or integers"):
        matrix_from_dict({"entries": [["1/2", 0.25], [1, 1]]})
    with pytest.raises(ValueError, match="does not match"):
        matrix_from_dict({"n": 3, "entries": [[1.0]]})
    with pytest.raises(ValueError, match="zero denominator"):
        matrix_from_dict({"entries": [["1/0"]]})
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        RationalMatrix.from_rows([["1/0"]])
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is too large for a float; a quoted string"):
        matrix_from_dict({"entries": [[1.0, 0.0], [10**400, 1.0]]})
    # JSON booleans are not numbers on either backend
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is a boolean, not a number"):
        matrix_from_dict({"entries": [[True, 0.5], [1.0, False]]})
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is a boolean, not a number"):
        matrix_from_dict({"entries": [["1", 0], [True, "1"]]})
    exact = matrix_from_dict({"entries": [[1, 0], [str(10**400), 1]]})
    assert isinstance(exact, RationalMatrix)
    assert exact[1, 0] == 10**400


def test_matrix_from_dict_needs_a_list_of_row_lists():
    # a string row would otherwise be read as its digit characters
    for entries in (["12", "34"], "1234", [[1.0, 0.0], "01"]):
        with pytest.raises(ValueError, match="entries must be a list of row lists"):
            matrix_from_dict({"entries": entries})


def test_rational_matrix_rejects_a_bool_entry():
    # a bool is an int to isinstance, so without the check True read as 1
    with pytest.raises(TypeError, match="got bool"):
        RationalMatrix.from_rows([[True]])
    with pytest.raises(TypeError, match="got bool"):
        RationalMatrix.from_rows([[1, 0], [False, "1/2"]])


def test_float_matrix_rejects_a_bool_entry():
    with pytest.raises(TypeError, match="got bool"):
        FloatMatrix.from_rows([[True]])
    with pytest.raises(TypeError, match="got bool"):
        FloatMatrix.from_rows([[1.0, 0.0], [0.5, False]])


def test_matrix_dict_round_trip():
    r = RationalMatrix.from_rows([["1/2", "-3/7"], [0, 1]])
    assert matrix_from_dict(r.to_dict()) == r
    f = FloatMatrix.from_rows([[0.5, -1.25], [0.0, 1.0]])
    assert matrix_from_dict(f.to_dict()) == f


def test_conforms_is_exact():
    d = builtin_pattern("D")
    assert conforms(FloatMatrix.from_rows([[1.0, 2.0], [-3.0, -0.5]]), d)
    assert conforms(RationalMatrix.from_rows([[1, 1], ["-1/9", -2]]), d)
    # a zero slot must be exactly zero and a signed slot must not vanish
    assert not conforms(FloatMatrix.from_rows([[1.0, 0.0], [-1.0, -1.0]]), d)
    # no tolerance: any nonzero magnitude satisfies its sign slot
    assert conforms(FloatMatrix.from_rows([[1e-300, 1.0], [-1.0, -1.0]]), d)
    p = SignPattern.from_rows(["+0", "0-"])
    assert not conforms(FloatMatrix.from_rows([[1.0, 1e-300], [0.0, -1.0]]), p)
    with pytest.raises(ValueError, match="order mismatch"):
        conforms(FloatMatrix.from_rows([[1.0]]), d)


# nonzero magnitudes and zeros of each backend, the extremes included: the
# smallest normal and subnormal doubles, tiny and huge Fractions, and -0.0
_FLOAT_MAGNITUDES = (1.0, 2.5, 1e-300, 5e-324, 1e300)
_FLOAT_ZEROS = (0.0, -0.0)
_RATIONAL_MAGNITUDES = (Fraction(1), Fraction(1, 7), Fraction(1, 10**30), Fraction(10**30, 3))
_RATIONAL_ZEROS = (Fraction(0),)


@st.composite
def _near_pattern(draw):
    # a random pattern of order 1-8 and a matrix of either backend with the
    # pattern's sign at every entry, then at most one entry corrupted: a
    # nonzero flipped or zeroed, or a zero made nonzero
    n = draw(st.integers(1, 8))
    signs = draw(st.lists(st.sampled_from(Sign), min_size=n * n, max_size=n * n))
    pattern = SignPattern(tuple(tuple(signs[i : i + n]) for i in range(0, n * n, n)))
    rational = draw(st.booleans())
    magnitudes = _RATIONAL_MAGNITUDES if rational else _FLOAT_MAGNITUDES
    zeros = _RATIONAL_ZEROS if rational else _FLOAT_ZEROS
    sign_of = {Sign.PLUS: 1, Sign.MINUS: -1}
    a = [
        draw(st.sampled_from(zeros)) if s is Sign.ZERO else sign_of[s] * draw(st.sampled_from(magnitudes))
        for s in signs
    ]
    nonzero = [p for p, s in enumerate(signs) if s is not Sign.ZERO]
    zero = [p for p, s in enumerate(signs) if s is Sign.ZERO]
    kinds = ["none"] + ["flip", "zero"] * bool(nonzero) + ["nonzero"] * bool(zero)
    kind = draw(st.sampled_from(kinds))
    if kind in ("flip", "zero"):
        p = draw(st.sampled_from(nonzero))
        a[p] = -a[p] if kind == "flip" else draw(st.sampled_from(zeros))
    elif kind == "nonzero":
        p = draw(st.sampled_from(zero))
        a[p] = draw(st.sampled_from((1, -1))) * draw(st.sampled_from(magnitudes))
    cls = RationalMatrix if rational else FloatMatrix
    return cls.from_rows([a[i : i + n] for i in range(0, n * n, n)]), pattern, kind


def test_conforms_matches_the_entrywise_reference():
    # conforms against Sign.of entry by entry, on both backends: every
    # uncorrupted matrix conforms and every corruption is caught
    @PROPERTY_SETTINGS
    @given(_near_pattern())
    def same_verdict(case):
        m, p, kind = case
        n = p.n
        reference = all(Sign.of(m[i, j]) is p[i, j] for i in range(n) for j in range(n))
        assert reference == (kind == "none")
        assert conforms(m, p) is reference

    same_verdict()


def test_block_diag_matrices():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[5]])
    m = block_diag([a, b])
    assert m.n == 3
    assert m[1, 1] == 4 and m[2, 2] == 5
    assert m[0, 2] == 0 and m[2, 0] == 0

    fa = FloatMatrix.from_rows([[1.0]])
    fm = block_diag([fa, fa])
    assert isinstance(fm, FloatMatrix)
    assert fm[0, 1] == 0.0


def test_block_diag_equals_the_checked_constructor():
    # block_diag skips the constructor's checks; its result must not differ
    r = RationalMatrix.from_rows([[1, "2/3"], ["-1/7", 0]])
    f = FloatMatrix.from_rows([[0.5, -1.0], [2.0, 0.0]])
    cases = (
        [r, RationalMatrix.from_rows([[5]]), r],
        [f, FloatMatrix.from_rows([[-3.0]]), f],
        [builtin_pattern("T"), builtin_pattern("D")],
        [builtin_pattern("U2"), builtin_pattern("U2")],
    )
    for blocks in cases:
        cls = type(blocks[0])
        n = sum(b.n for b in blocks)
        rows = [[cls.zero] * n for _ in range(n)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b.entries):
                rows[offset + i][offset : offset + b.n] = row
            offset += b.n
        fast, checked = block_diag(blocks), cls(rows)
        assert type(fast) is cls
        assert fast == checked
        assert hash(fast) == hash(checked)
        assert repr(fast) == repr(checked)
        assert fast.entries == checked.entries
        assert all(type(row) is tuple for row in fast.entries)
    # U3 is composed from U2 by block_diag; its flat form matches the checked pattern's
    u3 = builtin_pattern("U3")
    assert u3._flat == SignPattern(u3.entries)._flat


def test_block_diag_type_rules():
    a = RationalMatrix.from_rows([[1]])
    f = FloatMatrix.from_rows([[1.0]])
    with pytest.raises(TypeError, match="same type"):
        block_diag([a, f])
    with pytest.raises(ValueError, match="at least one"):
        block_diag([])
    with pytest.raises(TypeError, match="cannot build a block diagonal"):
        block_diag([Polynomial((1,))])
    with pytest.raises(TypeError, match="same type"):
        block_diag([builtin_pattern("D"), FloatMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])])


def test_square_array_reprs_and_equality():
    r = RationalMatrix.from_rows([[1, "2/3"], [0, -4]])
    f = FloatMatrix.from_rows([[1.5, 0], [2, -3]])
    assert repr(r) == (
        "RationalMatrix(((Fraction(1, 1), Fraction(2, 3)), (Fraction(0, 1), Fraction(-4, 1))))"
    )
    assert repr(f) == "FloatMatrix(((1.5, 0.0), (2.0, -3.0)))"
    assert repr(builtin_pattern("D")) == "SignPattern.from_rows(['++', '--'])"
    # equal entries on the two backends are still different matrices
    assert RationalMatrix.from_rows([[1, 0], [2, -3]]) != FloatMatrix.from_rows([[1.0, 0.0], [2.0, -3.0]])


def test_reprs_evaluate_back_to_equal_values_of_the_same_type():
    namespace = {
        "Fraction": Fraction,
        "FloatMatrix": FloatMatrix,
        "Polynomial": Polynomial,
        "RationalMatrix": RationalMatrix,
        "Sign": Sign,
        "SignPattern": SignPattern,
    }
    values = [
        Sign.PLUS,
        builtin_pattern("TD"),
        Polynomial((Fraction(1, 2), -3, 1)),
        Polynomial((-0.0, 2.5, 1.0)),
        RationalMatrix.from_rows([[1, "2/3"], [0, -4]]),
        FloatMatrix.from_rows([[1.5, 0], [2, -3]]),
    ]
    for x in values:
        y = eval(repr(x), namespace)
        assert type(y) is type(x)
        assert y == x
    # the coefficients keep their type, and the float one its zero's sign
    rational, floating = (eval(repr(p), namespace) for p in values[2:4])
    assert all(type(c) is Fraction for c in rational.coeffs)
    assert all(type(c) is float for c in floating.coeffs)
    assert math.copysign(1.0, floating.coeffs[0]) == -1.0


def test_block_orders_finest_split():
    assert block_orders(RationalMatrix.from_rows([[1]])) == (1,)
    assert block_orders(FloatMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])) == (1, 1)
    assert block_orders(RationalMatrix.from_rows([[1, 0, 1], [0, 2, 0], [0, 0, 3]])) == (3,)

    f = Polynomial((1,))
    rng = random.Random(64)
    for _ in range(32):
        f = poly_mul(f, Polynomial((rng.randint(1, 9), rng.randint(-9, 9), 1)))
    report = realize_poly(f.to_float(), 8, 8, arrangement="alternating")
    assert block_orders(report.matrix) == report.block_orders
    # one entry in either off-diagonal block of the cut after index 7 merges
    # the second and third blocks
    merged = report.block_orders[:1] + (8,) + report.block_orders[3:]
    for i, j in ((6, 9), (9, 6)):
        rows = [list(row) for row in report.matrix.entries]
        rows[i][j] = 1.0
        assert block_orders(FloatMatrix.from_rows(rows)) == merged
