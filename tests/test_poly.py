import random
from fractions import Fraction

import pytest
from conftest import PROPERTY_SETTINGS, charpoly_by_cofactors
from hypothesis import given
from hypothesis import strategies as st

from signspectra import (
    FloatMatrix,
    Polynomial,
    Quadratic,
    RationalMatrix,
    block_diag,
    builtin_pattern,
    char_poly,
    coefficient_residual,
    divisors_degree6,
    poly_mul,
    polynomial_from_dict,
    realize_even_sextic,
)
from signspectra.poly import (
    _charpoly_int,
    _charpoly_residual,
    _charpoly_scaled,
    _charpoly_trace,
    _convolve,
    _linear_subdigraphs,
    _over_common_denominator,
)
from signspectra.verify import _power_sums, _walk_coefficients


def test_polynomial_backends():
    r = Polynomial((1, 2, 1))
    assert r.backend == "rational"
    assert all(isinstance(c, Fraction) for c in r.coeffs)
    f = Polynomial((1.0, 2, 1))
    assert f.backend == "float"
    assert all(isinstance(c, float) for c in f.coeffs)
    assert r.degree == 2


def test_polynomial_monic_enforcement():
    with pytest.raises(ValueError, match="monic"):
        Polynomial((1, 2))
    with pytest.raises(ValueError, match="monic"):
        Polynomial((0.0, 2.0))
    # float leading coefficients within 1e-12 of 1 snap to exactly 1.0
    p = Polynomial((3.0, 1.0 + 5e-13))
    assert p.coeffs[-1] == 1.0
    with pytest.raises(ValueError):
        Polynomial(())


def test_polynomial_type_rules():
    with pytest.raises(TypeError):
        Polynomial((Fraction(1, 2), 0.5, 1))
    with pytest.raises(TypeError):
        Polynomial(("1/2", 1))


def test_polynomial_evaluation():
    p = Polynomial((2, 0, 1))  # t**2 + 2
    assert p(3) == 11
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert p(1j) == 1 + 0j


def test_polynomial_lift_round_trip():
    f = Polynomial((0.1, -2.0, 1.0))
    lifted = f.lift()
    assert lifted.backend == "rational"
    assert lifted.coeffs[0] == Fraction(0.1)
    assert lifted.to_float() == f
    r = Polynomial((1, 1))
    assert r.lift() is r


def test_polynomial_from_dict():
    f = polynomial_from_dict({"coeffs": [1.0, 0.0, 1.0]})
    assert f.backend == "float"
    r = polynomial_from_dict({"coeffs": ["1/2", -3, "1"]})
    assert r.backend == "rational"
    assert r.coeffs[0] == Fraction(1, 2)
    # integer-valued floats are accepted once a string forces rationals
    r2 = polynomial_from_dict({"coeffs": ["1/2", 3.0, "1"]})
    assert r2.coeffs[1] == 3
    with pytest.raises(ValueError, match="strings or integers"):
        polynomial_from_dict({"coeffs": ["1/2", 0.25, "1"]})
    with pytest.raises(ValueError, match="zero denominator"):
        polynomial_from_dict({"coeffs": ["1/0", "1", "0", "1"]})
    # an integer past the double range is bad float input; quoted, it is exact
    with pytest.raises(ValueError, match="coefficient 0 is too large for a float; a quoted string"):
        polynomial_from_dict({"coeffs": [10**400, 0, 1]})
    assert polynomial_from_dict({"coeffs": [str(10**400), 0, 1]}).coeffs[0] == 10**400
    # a JSON boolean is not a number on either backend
    with pytest.raises(ValueError, match="coefficient 0 is a boolean, not a number"):
        polynomial_from_dict({"coeffs": [True, False, True]})
    with pytest.raises(ValueError, match="coefficient 1 is a boolean, not a number"):
        polynomial_from_dict({"coeffs": ["1", True, "1"]})
    # a string is not a coefficient list, though its characters are digits
    with pytest.raises(ValueError, match="coeffs must be a list, got str"):
        polynomial_from_dict({"coeffs": "201"})
    for p in (f, r):
        assert polynomial_from_dict(p.to_dict()) == p


def test_polynomial_rejects_a_bool_coefficient():
    # on either backend: without the check (True, False, True) read as t**2 + 1
    with pytest.raises(TypeError, match="got bool"):
        Polynomial((True, False, True))
    with pytest.raises(TypeError, match="got bool"):
        Polynomial((0.5, True, 1.0))


def test_poly_mul_known_products():
    t2p1 = Polynomial((1, 0, 1))
    t2m1 = Polynomial((-1, 0, 1))
    assert poly_mul(t2p1, t2m1) == Polynomial((-1, 0, 0, 0, 1))
    # schoolbook convolution: (t**2+t+1)(t**2-t+2) = t**4 + 2t**2 + t + 2
    assert poly_mul(Polynomial((1, 1, 1)), Polynomial((2, -1, 1))) == Polynomial((2, 1, 2, 0, 1))
    p = Polynomial((4, 3, 2, 1))
    assert poly_mul(p, Polynomial((1,))) == p
    with pytest.raises(ValueError, match="backend mismatch"):
        poly_mul(t2p1, Polynomial((1.0, 0.0, 1.0)))
    # the * operator is poly_mul on either backend
    for q, r in ((t2p1, p), (t2p1.to_float(), p.to_float())):
        assert q * r == poly_mul(q, r)
        assert (q * r).backend == q.backend
    with pytest.raises(ValueError, match="backend mismatch"):
        t2p1 * Polynomial((1.0, 0.0, 1.0))
    # factors over coprime denominators: (t + 1/2)(t - 1/3) = t**2 + t/6 - 1/6
    # and (t**2 + 2t/3 + 1/5)(t - 3/7) = t**3 + 5t**2/21 - 3t/35 - 3/35
    F = Fraction
    assert poly_mul(Polynomial((F(1, 2), 1)), Polynomial((F(-1, 3), 1))) == Polynomial((F(-1, 6), F(1, 6), 1))
    prod = poly_mul(Polynomial((F(1, 5), F(2, 3), 1)), Polynomial((F(-3, 7), 1)))
    assert prod.coeffs == (F(-3, 35), F(-3, 35), F(5, 21), 1)
    assert all(type(c) is Fraction for c in prod.coeffs)


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def test_rational_poly_mul_matches_the_fraction_schoolbook_product():
    @PROPERTY_SETTINGS
    @given(
        st.lists(st.one_of(st.just(Fraction(0)), _RATIONALS), max_size=6),
        st.lists(st.one_of(st.just(Fraction(0)), _RATIONALS), max_size=6),
    )
    def same_product(a, b):
        a, b = a + [Fraction(1)], b + [Fraction(1)]
        expected = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                expected[i + j] += x * y
        prod = poly_mul(Polynomial(tuple(a)), Polynomial(tuple(b)))
        assert prod.coeffs == tuple(expected)
        assert all(type(c) is Fraction for c in prod.coeffs)

    same_product()


def test_char_poly_small_cases():
    eye2 = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert char_poly(eye2) == Polynomial((1, -2, 1))
    # companion matrix of t**3 - 2t + 5 round trips
    companion = RationalMatrix.from_rows([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(companion) == Polynomial((5, -2, 0, 1))
    with pytest.raises(TypeError):
        char_poly([[1]])


def test_char_poly_even_sextic_realization_exact():
    m = realize_even_sextic(1, 2, 3)
    expected = poly_mul(poly_mul(Polynomial((1, 0, 1)), Polynomial((2, 0, 1))), Polynomial((3, 0, 1)))
    assert char_poly(m) == expected
    assert charpoly_by_cofactors(m) == expected


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [
                [Fraction(rng.randint(-10, 10)) / rng.randint(1, 5) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert char_poly(m) == charpoly_by_cofactors(m)
    # split inputs: a zeroed off-diagonal block pair is a real cut; a single
    # nonzero in one off-diagonal block is not, in either triangle
    for _ in range(100):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        rows = [
            [
                Fraction(rng.randint(-10, 10)) / rng.randint(1, 5) if (i < k) == (j < k) else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
        m = RationalMatrix.from_rows(rows)
        assert char_poly(m) == charpoly_by_cofactors(m)
        i, j = rng.randrange(k), rng.randrange(k, n)
        if rng.random() < 0.5:
            i, j = j, i
        rows[i][j] = Fraction(rng.choice([-3, -1, 2, 7]), rng.randint(1, 5))
        m = RationalMatrix.from_rows(rows)
        assert char_poly(m) == charpoly_by_cofactors(m)


def test_char_poly_float_agrees_with_rational():
    rng = random.Random(7)
    rows = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(5)]
    f = FloatMatrix.from_rows(rows)
    # correctly rounded: the doubles nearest the exact coefficients
    assert char_poly(f) == char_poly(f.lift()).to_float()


def test_char_poly_pinned_outputs():
    # frozen values on both backends, so a change of the integer path shows
    f = FloatMatrix.from_rows([[0.5, -3.25, 0.0], [1e-3, 2.0, 7.0], [0.0, -1.5, 1e10]])
    assert char_poly(f).coeffs == (-10032500005.25, 25000000011.50325, -10000000002.5, 1.0)
    assert [str(c) for c in char_poly(f.lift()).coeffs] == [
        "-45182363285238399166741979/4503599627370496",
        "115292150513734074791474849907/4611686018427387904",
        "-20000000005/2",
        "1",
    ]
    r = RationalMatrix.from_rows(
        [[Fraction(1, 3), 2, 0], [Fraction(-5, 7), 0, 1], [4, Fraction(1, 2), -1]]
    )
    assert [str(c) for c in char_poly(r).coeffs] == ["-269/42", "25/42", "2/3", "1"]
    assert char_poly(r.to_float()).coeffs == (
        -6.404761904761905,
        0.5952380952380953,
        0.6666666666666667,
        1.0,
    )


@st.composite
def _residual_case(draw):
    # entries come from a Random with a drawn seed: cheap to generate at order
    # 12 and spread over the whole range rather than crowded near zero
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rational = draw(st.booleans())
    # float entries span a drawn window of decades inside 1e-300..1e300, the
    # whole range in some examples; a quarter of them are signed zeros
    lo = draw(st.integers(min_value=-300, max_value=299))
    hi = draw(st.integers(min_value=lo, max_value=299))

    def entry(rational):
        if rational:
            return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        if rng.random() < 0.25:
            return rng.choice([0.0, -0.0])
        return rng.choice([1, -1]) * rng.uniform(1.0, 9.99) * 10.0 ** rng.randint(lo, hi)

    def square(k):
        return (RationalMatrix if rational else FloatMatrix).from_rows(
            [[entry(rational) for _ in range(k)] for _ in range(k)]
        )

    if draw(st.booleans()):
        m = square(draw(st.integers(min_value=1, max_value=12)))
    else:
        sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
        m = block_diag([square(k) for k in sizes])
    kind = draw(st.sampled_from(["float", "rational", "exact"]))
    if kind == "exact":
        return m, char_poly(m.lift())
    return m, Polynomial(tuple(entry(kind == "rational") for _ in range(m.n)) + (1,))


def _outcome(fn):
    try:
        return fn()
    except OverflowError:
        return "overflow"


def _fraction_residual(p, target):
    # the residual formula written out in Fractions, sharing no code with poly
    pc = [Fraction(c) for c in p.coeffs]
    tc = [Fraction(c) for c in target.coeffs]
    err = max(abs(a - b) for a, b in zip(pc, tc))
    return float(err / max(Fraction(1), max(abs(c) for c in tc)))


def test_charpoly_residual_equals_coefficient_residual():
    @PROPERTY_SETTINGS
    @given(_residual_case())
    def same_residual(case):
        m, target = case
        exact = char_poly(m.lift())
        residual = _outcome(lambda: _charpoly_residual(m, target))
        assert residual == _outcome(lambda: coefficient_residual(exact, target))
        assert residual == _outcome(lambda: _fraction_residual(exact, target))
        # char_poly itself is unchanged: correctly rounded on floats, and the
        # exact polynomial agrees with the cofactor oracle
        if isinstance(m, FloatMatrix):
            assert _outcome(lambda: char_poly(m).coeffs) == _outcome(
                lambda: tuple(float(c) for c in exact.coeffs)
            )
        if m.n <= 5:
            assert exact == charpoly_by_cofactors(m)

    same_residual()
    f = FloatMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="degree mismatch"):
        _charpoly_residual(f, Polynomial((1.0, 1.0)))


@st.composite
def _int_matrix(draw, min_order=1):
    # sparse integer matrices with small or huge entries, some rows and
    # columns entirely zero
    n = draw(st.integers(min_order, 9))
    bound = draw(st.sampled_from([3, 10**6, 10**30]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(a)
    ]


def _scaled_by_powers(blocks):
    # the scaled form as c[k] * scale**k over scale**n, the block polynomials
    # multiplied in as the inner operand
    flat, scale = _over_common_denominator([e for block in blocks for row in block for e in row])
    c = [1]
    pos = 0
    for block in blocks:
        k = len(block)
        c = _convolve(c, _charpoly_int(flat[pos : pos + k * k], k))
        pos += k * k
    return [ck * scale**k for k, ck in enumerate(c)], scale ** (len(c) - 1)


@st.composite
def _mixed_blocks(draw):
    # one to four diagonal blocks, each rational (denominators with odd parts,
    # such as 1/3 and 5/12), float, or integer
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kinds = draw(st.lists(st.sampled_from(["rational", "float", "int"]), min_size=1, max_size=4))

    def entry(kind):
        if kind == "rational":
            return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 12]))
        if kind == "float":
            return rng.choice([0.0, rng.uniform(-1, 1) * 2.0 ** rng.randint(-80, 80)])
        return rng.randint(-9, 9)

    blocks = []
    for kind in kinds:
        k = rng.randint(1, 5)
        blocks.append([[entry(kind) for _ in range(k)] for _ in range(k)])
    return blocks


def test_charpoly_scaled_equals_the_powers_of_the_scale():
    # scale = odd << shift: 12 = 3 << 2, 4 = 1 << 2, and 1 = 1 << 0
    assert _charpoly_scaled([[[Fraction(1, 3), Fraction(5, 12)], [1, 0]]]) == ([-60, -48, 144], 144)
    assert _charpoly_scaled([[[0.5, 0.25], [1.0, 0.0]]]) == ([-4, -8, 16], 16)
    assert _charpoly_scaled([[[2, 0], [0, 3]]]) == ([6, -5, 1], 1)

    @PROPERTY_SETTINGS
    @given(_mixed_blocks())
    def same_ints(blocks):
        assert _charpoly_scaled(blocks) == _scaled_by_powers(blocks)

    same_ints()


def test_charpoly_int_matches_cofactor_expansion():
    @PROPERTY_SETTINGS
    @given(_int_matrix())
    def matches_cofactors(a):
        n = len(a)
        if n <= 5:
            full = _charpoly_int(_flat(a), n)
            assert Polynomial(tuple(full)) == charpoly_by_cofactors(RationalMatrix.from_rows(a))

    matches_cofactors()


def _flat(a):
    # the row-major list the exact kernels read
    return [e for row in a for e in row]


def _support(a):
    # the flat support key and order that _linear_subdigraphs takes
    return tuple(map(bool, _flat(a))), len(a)


def test_cycle_covers_match_the_trace_recursion():
    @PROPERTY_SETTINGS
    @given(_int_matrix())
    def same_ints(a):
        n = len(a)
        assert _charpoly_int(_flat(a), n) == _charpoly_trace(_flat(a), n)

    same_ints()


@pytest.mark.parametrize("name", ["T", "Tprime", "D", "S"])
def test_cycle_covers_of_the_builtin_supports(name):
    # huge entries of every sign on the pattern's support; S is block
    # diagonal with 65625 cycle covers, so it takes the trace recursion
    pattern = builtin_pattern(name)
    n = pattern.n
    key, positions, signs, _ = pattern._flat
    codes = [0] * (n * n)
    for p, s in zip(positions, signs):
        codes[p] = s
    rng = random.Random(name)
    for _ in range(20):
        a = [s * rng.randint(1, 10**30) for s in codes]
        assert _charpoly_int(a, n) == _charpoly_trace(a, n)
    assert (_linear_subdigraphs(key, n) is None) == (name == "S")


def test_cycle_cover_terms():
    # the term counts per coefficient c[0], ..., c[n] of the templates, as a
    # symbolic expansion of det(tI - M) counts them; D's terms are
    # c[0] = a00*a11 - a01*a10 and c[1] = -a00 - a11
    counts = {"T": [4, 5, 4, 2, 3, 2, 1], "Tprime": [4, 6, 4, 3, 3, 2, 1]}
    for name, expected in counts.items():
        terms = _linear_subdigraphs(builtin_pattern(name)._flat[0], 6)
        assert [len(ck) for ck in terms] == expected
        for k, ck in enumerate(terms):
            for sign, arcs in ck:
                assert len(arcs) == 6 - k
                pairs = [divmod(ij, 6) for ij in arcs]
                assert sorted(i for i, _ in pairs) == sorted(j for _, j in pairs)
    # arcs are flat indices i*2 + j: 1 is a01, 2 is a10, 0 is a00 and 3 is a11
    assert [sorted(ck) for ck in _linear_subdigraphs(builtin_pattern("D")._flat[0], 2)] == [
        [(-1, (1, 2)), (1, (0, 3))],
        [(-1, (0,)), (-1, (3,))],
        [(1, ())],
    ]


def test_a_dense_support_takes_the_trace_recursion():
    # an all-nonzero order-20 support has more than 20! cycle covers; the
    # search gives up within its budget and the recursion answers
    rng = random.Random(20)
    a = [rng.randint(-9, 9) or 1 for _ in range(20 * 20)]
    assert _linear_subdigraphs(tuple(map(bool, a)), 20) is None
    assert _charpoly_int(a, 20) == _charpoly_trace(a, 20)


def test_trace_recursion_matches_cofactors_where_the_covers_give_up():
    # two dense int blocks of order 3-6, their direct sum conjugated by a
    # random permutation: the cover search gives up on that support, so the
    # recursion is checked against the product of the blocks' cofactor
    # expansions, which shares no code with it
    rng = random.Random(35)
    for _ in range(12):
        blocks = []
        for _ in range(2):
            k = rng.randint(3, 6)
            blocks.append([[rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(k)] for _ in range(k)])
        p = len(blocks[0])
        n = p + len(blocks[1])
        perm = list(range(n))
        rng.shuffle(perm)
        a = [0] * (n * n)
        for lo, block in ((0, blocks[0]), (p, blocks[1])):
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    a[perm[lo + i] * n + perm[lo + j]] = x
        assert _linear_subdigraphs(tuple(map(bool, a)), n) is None
        oracle = _convolve(*(charpoly_by_cofactors(RationalMatrix.from_rows(b)).coeffs for b in blocks))
        assert _charpoly_trace(a, n) == oracle
        assert _charpoly_int(a, n) == oracle


def test_walk_coefficients_match_charpoly_int():
    # the identity check's closed-walk power sums give the same t**(n-1) and
    # t**(n-3) coefficients as the full _charpoly_int, on random supports
    # that no built-in pattern has as well as on the patterns' own
    @PROPERTY_SETTINGS
    @given(_int_matrix(min_order=3))
    def same_coefficients(a):
        n = len(a)
        full = _charpoly_int(_flat(a), n)
        # the support read off the rows, and the caller's one map(bool) pass
        rows_support = tuple([e != 0 for row in a for e in row])
        assert _walk_coefficients(_flat(a), n, rows_support) == (full[n - 3], full[n - 1])
        assert _walk_coefficients(_flat(a), n, _support(a)[0]) == (full[n - 3], full[n - 1])

    same_coefficients()


def _edge_support_matrices(n, rng):
    # (name, flat matrix) of order n whose support leaves some power sum of
    # the identity check with no closed walk at all
    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, 10**6)

    cells = [(i, j) for i in range(n) for j in range(n)]
    half = n // 2
    # one arc of each pair of vertices, in a random direction: a tournament
    forward = {(i, j): rng.random() < 0.5 for i, j in cells if i < j}
    arcs = {(i, j) if up else (j, i) for (i, j), up in forward.items()}
    yield "all zero", [0] * (n * n)
    # no loops: p1 is the empty sum
    yield "no loops", [0 if i == j else entry() for i, j in cells]
    # no loops and no 2-cycles: p1 and p2 are empty
    yield "no 2-cycles", [entry() if (i, j) in arcs else 0 for i, j in cells]
    # bipartite, both directions: no closed walk of odd length, so p1 and p3 are empty
    yield "no 3-cycles", [entry() if (i < half) != (j < half) else 0 for i, j in cells]
    # the same with loops: p3 keeps only the loop and loop-2-cycle terms
    yield "no 3-cycles, loops", [entry() if (i < half) != (j < half) or i == j else 0 for i, j in cells]
    # one loop: each sum has a single term
    yield "one loop", [entry() if i == j == 0 else 0 for i, j in cells]


def test_power_sums_on_edge_supports():
    # the compiled walk sums match _charpoly_int's two coefficients at orders
    # 3-8 on supports where a sum has no term; an empty sum is the int 0
    rng = random.Random(38)
    for n in range(3, 9):
        for _ in range(5):
            for name, a in _edge_support_matrices(n, rng):
                full = _charpoly_int(a, n)
                assert _walk_coefficients(a, n, tuple(map(bool, a))) == (full[n - 3], full[n - 1]), (name, n)
                sums = _power_sums(tuple(map(bool, a)), n)(a)
                assert type(sums) is tuple and len(sums) == 3 and all(type(p) is int for p in sums)
                if name == "all zero":
                    assert sums == (0, 0, 0)
                if name == "no 2-cycles":
                    assert sums[:2] == (0, 0)
                if name == "no 3-cycles":
                    assert sums[0] == sums[2] == 0
                if name == "one loop":
                    assert sums == (a[0], a[0] ** 2, a[0] ** 3)


def test_power_sums_cache_stays_bounded():
    # one compiled function per support, and never more than maxsize kept
    rng = random.Random(7)
    maxsize = _power_sums.cache_info().maxsize
    assert maxsize == 8
    for _ in range(200):
        n = rng.randint(3, 8)
        a = [rng.choice((0, 0, 1, -2)) for _ in range(n * n)]
        full = _charpoly_int(a, n)
        assert _walk_coefficients(a, n, tuple(map(bool, a))) == (full[n - 3], full[n - 1])
        assert _power_sums.cache_info().currsize <= maxsize


def test_exactness_guards_raise_on_a_non_integer_entry():
    # both exact paths divide by k on the promise of integer input; a 2-cycle
    # of product 1/2 leaves p2 = tr A**2 = 1 odd, so e2 = (p1**2 - p2)/2 is
    # not an integer and each path must refuse it rather than round
    half = Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="power sums lost exactness"):
        a = [0, half, 0, 1, 0, 0, 0, 0, 0]
        _walk_coefficients(a, 3, tuple(map(bool, a)))
    with pytest.raises(ArithmeticError, match="trace recursion lost exactness"):
        _charpoly_trace([0, half, 0, 1, 0, 0, 0, 0, 0], 3)


def test_coefficient_residual():
    p = Polynomial((1, 2, 1))
    assert coefficient_residual(p, p) == 0.0
    q = Polynomial((Fraction(3, 2), 2, 1))
    # max|diff| = 1/2, scale = max(1, 2) = 2
    assert coefficient_residual(q, p) == 0.25
    f = Polynomial((1.0, 2.0, 1.0))
    assert coefficient_residual(f, p) == 0.0
    with pytest.raises(ValueError, match="degree mismatch"):
        coefficient_residual(p, Polynomial((1, 1)))


def test_results_beyond_the_double_range_name_what_overflowed():
    # det(tI - M) = t^2 - 2e200 t + 1e400: the constant term is no double
    m = FloatMatrix([[1e200, 0], [0, 1e200]])
    with pytest.raises(OverflowError, match=r"t\^0 coefficient .* order-2 matrix"):
        char_poly(m)
    with pytest.raises(OverflowError, match="coefficient residual at order 2"):
        _charpoly_residual(m, Polynomial((1.0, 0.0, 1.0)))
    with pytest.raises(OverflowError, match="coefficient residual at order 1"):
        coefficient_residual(Polynomial((10**400, 1)), Polynomial((0, 1)))
    # the exact polynomial is still there on the rational backend
    assert char_poly(m.lift()).coeffs[0] == Fraction(1e200) ** 2


FACTORS = (
    Polynomial((1, 1, 1)),
    Polynomial((2, -1, 1)),
    Polynomial((1, 0, 1)),
    Polynomial((-1, 1)),
    Polynomial((1, 1)),
)


def test_divisors_degree6_enumeration():
    divisors = divisors_degree6(FACTORS)
    assert len(divisors) == 4
    assert all(d.degree == 6 for d in divisors)
    # the quadratic-triple product, by schoolbook multiplication
    q3 = poly_mul(poly_mul(FACTORS[0], FACTORS[1]), FACTORS[2])
    assert q3 == Polynomial((2, 1, 4, 1, 3, 0, 1))
    assert q3 in divisors
    assert Polynomial((-1, -1, -1, 0, 1, 1, 1)) in divisors
    assert divisors_degree6([Polynomial((1, 0, 1))]) == []


def test_divisors_degree6_rejects_floats():
    with pytest.raises(ValueError, match="rational"):
        divisors_degree6([Polynomial((1.0, 0.0, 1.0))])


def test_quadratic():
    q = Quadratic(-3, 2)
    assert q.to_polynomial() == Polynomial((2, -3, 1))
    lifted = Quadratic(0.5, 1.0).lift()
    assert lifted.a == Fraction(1, 2)
    assert isinstance(lifted.b, Fraction)
