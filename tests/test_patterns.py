import pytest

from signspectra import (
    BUILTIN_NAMES,
    Sign,
    SignPattern,
    block_diag,
    builtin_pattern,
    composite_pattern,
    is_superpattern,
)

T_ROWS = ["++0000", "--+000", "000+00", "0000+0", "--000+", "+++0-0"]
TPRIME_ROWS = ["++0000", "--+000", "+00+00", "0000+0", "--000+", "+++0-0"]
D_ROWS = ["++", "--"]


def test_sign_of():
    assert Sign.of(3) is Sign.PLUS
    assert Sign.of(-0.5) is Sign.MINUS
    assert Sign.of(0) is Sign.ZERO
    assert Sign.of(0.0) is Sign.ZERO
    # no tolerance: any nonzero float has a sign
    assert Sign.of(1e-300) is Sign.PLUS


def test_sign_from_char():
    assert Sign.from_char("+") is Sign.PLUS
    assert Sign.from_char("0") is Sign.ZERO
    assert Sign.from_char("-") is Sign.MINUS
    with pytest.raises(ValueError, match="invalid sign character"):
        Sign.from_char("x")


def test_pattern_round_trip():
    p = SignPattern.from_rows(T_ROWS)
    assert p.n == 6
    assert p.to_rows() == T_ROWS
    assert p[0, 0] is Sign.PLUS
    assert p[5, 4] is Sign.MINUS
    assert p[2, 2] is Sign.ZERO
    assert SignPattern.from_dict(p.to_dict()) == p


def test_pattern_validation():
    with pytest.raises(ValueError, match="square"):
        SignPattern.from_rows(["+0", "+"])
    with pytest.raises(ValueError, match="at least 1"):
        SignPattern(())
    with pytest.raises(TypeError, match="must be Sign"):
        SignPattern((("+",),))
    with pytest.raises(ValueError, match="does not match"):
        SignPattern.from_dict({"n": 3, "rows": ["+"]})
    # a string would be read as its characters, and a non-string row is not a row
    for rows in ("+", ["+", 5], ("+",), [["+"]]):
        with pytest.raises(ValueError, match="rows must be a list of strings"):
            SignPattern.from_dict({"rows": rows})


def test_superpattern_basic():
    t = SignPattern.from_rows(T_ROWS)
    tprime = SignPattern.from_rows(TPRIME_ROWS)
    # the primed pattern fills one zero of the plain one with +
    assert is_superpattern(tprime, t)
    assert not is_superpattern(t, tprime)
    assert is_superpattern(t, t)
    assert not is_superpattern(t, SignPattern.from_rows(D_ROWS))


def test_superpattern_rejects_sign_flip():
    p = SignPattern.from_rows(["+-", "0+"])
    q = SignPattern.from_rows(["+-", "0-"])
    assert not is_superpattern(p, q)
    assert not is_superpattern(q, p)


def test_builtin_rows_and_orders():
    assert builtin_pattern("T").to_rows() == T_ROWS
    assert builtin_pattern("Tprime").to_rows() == TPRIME_ROWS
    assert builtin_pattern("D").to_rows() == D_ROWS
    assert builtin_pattern("X_template") == builtin_pattern("T")
    assert builtin_pattern("S").n == 16
    assert builtin_pattern("Sprime").n == 16
    assert builtin_pattern("TD").n == 8
    assert builtin_pattern("U1") == builtin_pattern("TD")
    assert builtin_pattern("U2").n == 16
    assert builtin_pattern("U3").n == 32
    for name in BUILTIN_NAMES:
        if name != "V":
            assert builtin_pattern(name).n >= 2


def test_to_rows_spells_each_entry_by_its_sign_value():
    patterns = [builtin_pattern(name) for name in BUILTIN_NAMES if name != "V"]
    patterns += [builtin_pattern("V", t=4, d=6), SignPattern.from_rows(["+-0", "0-+", "-0+"])]
    for p in patterns:
        assert p.to_rows() == ["".join(s.value for s in row) for row in p.entries]


def test_primed_composite_differs_in_one_entry():
    s = builtin_pattern("S")
    sprime = builtin_pattern("Sprime")
    diff = [
        (i, j)
        for i in range(16)
        for j in range(16)
        if s[i, j] is not sprime[i, j]
    ]
    assert diff == [(2, 0)]
    assert s[2, 0] is Sign.ZERO and sprime[2, 0] is Sign.PLUS
    assert is_superpattern(sprime, s)


def test_chain_patterns_are_doublings():
    u1 = builtin_pattern("U1")
    assert builtin_pattern("U2") == block_diag([u1, u1])
    assert builtin_pattern("U3") == block_diag([builtin_pattern("U2"), builtin_pattern("U2")])


def test_composite_pattern():
    t = builtin_pattern("T")
    d = builtin_pattern("D")
    v = composite_pattern(1, 5)
    assert v == builtin_pattern("S")
    assert v == block_diag([t, d, d, d, d, d])
    assert composite_pattern(0, 1) == d
    assert builtin_pattern("V", t=2, d=3).n == 18
    with pytest.raises(ValueError):
        composite_pattern(0, 0)
    with pytest.raises(ValueError):
        composite_pattern(-1, 2)
    # a bool is an int to isinstance: True would count as one block
    for t, d, name in ((True, 5, "t"), (1.0, 5, "t"), (1, False, "d"), (1, 5.0, "d"), (None, 5, "t")):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            composite_pattern(t, d)


def test_builtin_lookup_errors():
    with pytest.raises(ValueError, match="unknown pattern") as err:
        builtin_pattern("Q")
    assert "U3" in str(err.value)
    with pytest.raises(ValueError, match='requires both t and d'):
        builtin_pattern("V")
    with pytest.raises(ValueError, match="does not take"):
        builtin_pattern("T", t=1, d=1)


def test_block_diag_patterns_layout():
    d = builtin_pattern("D")
    p = block_diag([d, d])
    assert p.n == 4
    assert p.to_rows() == ["++00", "--00", "00++", "00--"]
