import cmath
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import PROPERTY_SETTINGS, pl_gcd, pl_product, poly_from_real_roots, poly_from_root_spec
from hypothesis import example, given
from hypothesis import strategies as st

from signspectra import (
    FloatMatrix,
    Polynomial,
    Quadratic,
    RationalMatrix,
    RefinedInertia,
    RootFindingError,
    RootMultiset,
    backward_error,
    builtin_pattern,
    coefficient_residual,
    find_roots,
    poly_mul,
    char_poly,
    random_monic_polynomial,
    realize_even_sextic,
    realize_inertia,
    realize_poly,
    refined_inertia_of,
    roots_to_quadratics,
)
from signspectra import roots
from signspectra.matrices import block_diag
from signspectra.poly import _charpoly_scaled
from signspectra.roots import (
    _SQUAREFREE_DEGREE_CAP,
    _gcd_chain,
    _primitive,
    _roots_of_coeffs,
    _squarefree_factors,
    _sturm_sequence,
    _zdiv_exact,
    _zderivative,
    _ztrim,
)
from signspectra.verify import _all_inertia_tuples

F_FACTORS = (
    Polynomial((1, 1, 1)),
    Polynomial((2, -1, 1)),
    Polynomial((1, 0, 1)),
    Polynomial((-1, 0, 1)),
)


def f_degree8() -> Polynomial:
    p = F_FACTORS[0]
    for q in F_FACTORS[1:]:
        p = poly_mul(p, q)
    return p


def closed_form_roots_of_f():
    # quadratic formula on each published factor
    return [
        complex(-0.5, math.sqrt(3) / 2),
        complex(-0.5, -math.sqrt(3) / 2),
        complex(0.5, math.sqrt(7) / 2),
        complex(0.5, -math.sqrt(7) / 2),
        1j,
        -1j,
        1.0 + 0j,
        -1.0 + 0j,
    ]


def assert_root_sets_match(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    remaining = list(expected)
    for z in got:
        dist, j = min((abs(z - remaining[j]), j) for j in range(len(remaining)))
        assert dist <= tol * (1.0 + abs(z))
        remaining.pop(j)


def test_find_roots_quadratics():
    assert_root_sets_match(find_roots(Polynomial((1, 0, 1))).roots, [1j, -1j], tol=0)
    assert_root_sets_match(find_roots(Polynomial((-1, 0, 1))).roots, [1, -1], tol=0)


def test_find_roots_closed_forms_degree8():
    rm = find_roots(f_degree8(), tol=1e-9)
    assert_root_sets_match(rm.roots, closed_form_roots_of_f())


def test_find_roots_float_backend_degree8():
    rm = find_roots(f_degree8().to_float(), tol=1e-9)
    assert_root_sets_match(rm.roots, closed_form_roots_of_f())

    rm = find_roots(Polynomial((2.0, -1.0, -2.0, 1.0)), tol=1e-9)  # (t-1)(t+1)(t-2)
    got = sorted(z.real for z in rm.roots)
    for a, b in zip(got, [-1.0, 1.0, 2.0]):
        assert a == pytest.approx(b, abs=1e-9)


def test_find_roots_multiplicities():
    rm = find_roots(Polynomial((0, 0, 0, 0, 0, 0, 1)))  # t**6
    assert rm.roots == (0j,) * 6
    # squarefree split handles repeated quadratic factors exactly
    p = poly_mul(Polynomial((1, 0, 1)), Polynomial((1, 0, 1)))
    rm = find_roots(p)
    assert_root_sets_match(rm.roots, [1j, 1j, -1j, -1j], tol=0)


# Squarefree factors of the 95 inertia characteristic polynomials: ascending
# coefficients of each monic factor, then its multiplicity.
INERTIA_SQUAREFREE = {
    (0, 8, 0, 0): "1 1 ^8",
    (1, 7, 0, 0): "-1 1 ^1 | 2 1 ^3 | 1 1 ^4",
    (2, 6, 0, 0): "-1 1 ^2 | 4 5 1 ^3",
    (3, 5, 0, 0): "-1 1 ^3 | 1 1 ^5",
    (4, 4, 0, 0): "-1 0 1 ^4",
    (5, 3, 0, 0): "1 1 ^3 | -1 1 ^5",
    (6, 2, 0, 0): "1 1 ^2 | 4 -5 1 ^3",
    (7, 1, 0, 0): "1 1 ^1 | -2 1 ^3 | -1 1 ^4",
    (8, 0, 0, 0): "-1 1 ^8",
    (0, 7, 1, 0): "0 1 ^1 | 1 1 ^7",
    (1, 6, 1, 0): "0 -1 1 ^1 | 2 3 1 ^3",
    (2, 5, 1, 0): "0 1 ^1 | -1 0 1 ^2 | 4 1 ^3",
    (3, 4, 1, 0): "0 1 ^1 | -1 1 ^3 | 1 1 ^4",
    (4, 3, 1, 0): "0 1 ^1 | 1 1 ^3 | -1 1 ^4",
    (5, 2, 1, 0): "0 1 ^1 | -1 0 1 ^2 | -4 1 ^3",
    (6, 1, 1, 0): "0 1 1 ^1 | 2 -3 1 ^3",
    (7, 0, 1, 0): "0 1 ^1 | -1 1 ^7",
    (0, 6, 2, 0): "0 1 ^2 | 1 1 ^6",
    (1, 5, 2, 0): "-1 1 ^1 | 0 1 1 ^2 | 2 1 ^3",
    (2, 4, 2, 0): "1 1 ^1 | 0 -1 1 ^2 | 4 1 ^3",
    (3, 3, 2, 0): "0 1 ^2 | -1 0 1 ^3",
    (4, 2, 2, 0): "-1 1 ^1 | 0 1 1 ^2 | -4 1 ^3",
    (5, 1, 2, 0): "1 1 ^1 | 0 -1 1 ^2 | -2 1 ^3",
    (6, 0, 2, 0): "0 1 ^2 | -1 1 ^6",
    (0, 5, 3, 0): "0 1 ^3 | 1 1 ^5",
    (1, 4, 3, 0): "-1 0 1 ^1 | 0 2 1 ^3",
    (2, 3, 3, 0): "-1 1 ^2 | 0 8 1 ^3",
    (3, 2, 3, 0): "1 1 ^2 | 0 -8 1 ^3",
    (4, 1, 3, 0): "-1 0 1 ^1 | 0 -2 1 ^3",
    (5, 0, 3, 0): "0 1 ^3 | -1 1 ^5",
    (0, 4, 4, 0): "0 1 1 ^4",
    (1, 3, 4, 0): "-1 1 ^1 | 4 1 ^3 | 0 1 ^4",
    (2, 2, 4, 0): "6 7 1 ^1 | -2 1 ^2 | 0 1 ^4",
    (3, 1, 4, 0): "1 1 ^1 | -4 1 ^3 | 0 1 ^4",
    (4, 0, 4, 0): "0 -1 1 ^4",
    (0, 3, 5, 0): "1 1 ^3 | 0 1 ^5",
    (1, 2, 5, 0): "-3 1 ^1 | 1 1 ^2 | 0 1 ^5",
    (2, 1, 5, 0): "3 1 ^1 | -1 1 ^2 | 0 1 ^5",
    (3, 0, 5, 0): "-1 1 ^3 | 0 1 ^5",
    (0, 2, 6, 0): "1 1 ^2 | 0 1 ^6",
    (1, 1, 6, 0): "-1 0 1 ^1 | 0 1 ^6",
    (2, 0, 6, 0): "-1 1 ^2 | 0 1 ^6",
    (0, 1, 7, 0): "1 1 ^1 | 0 1 ^7",
    (1, 0, 7, 0): "-1 1 ^1 | 0 1 ^7",
    (0, 0, 8, 0): "0 1 ^8",
    (0, 6, 0, 1): "1 0 1 ^1 | 1 1 ^6",
    (1, 5, 0, 1): "-1 1 -1 1 ^1 | 1 1 ^2 | 2 1 ^3",
    (2, 4, 0, 1): "1 1 1 1 ^1 | -1 1 ^2 | 4 1 ^3",
    (3, 3, 0, 1): "1 0 1 ^1 | -1 0 1 ^3",
    (4, 2, 0, 1): "-1 1 -1 1 ^1 | 1 1 ^2 | -4 1 ^3",
    (5, 1, 0, 1): "1 1 1 1 ^1 | -1 1 ^2 | -2 1 ^3",
    (6, 0, 0, 1): "1 0 1 ^1 | -1 1 ^6",
    (0, 5, 1, 1): "0 1 0 1 ^1 | 1 1 ^5",
    (1, 4, 1, 1): "0 -1 0 0 0 1 ^1 | 2 1 ^3",
    (2, 3, 1, 1): "0 1 0 1 ^1 | -1 1 ^2 | 8 1 ^3",
    (3, 2, 1, 1): "0 1 0 1 ^1 | 1 1 ^2 | -8 1 ^3",
    (4, 1, 1, 1): "0 -1 0 0 0 1 ^1 | -2 1 ^3",
    (5, 0, 1, 1): "0 1 0 1 ^1 | -1 1 ^5",
    (0, 4, 2, 1): "1 0 1 ^1 | 0 1 ^2 | 1 1 ^4",
    (1, 3, 2, 1): "-1 1 -1 1 ^1 | 0 1 ^2 | 4 1 ^3",
    (2, 2, 2, 1): "6 7 7 7 1 ^1 | 0 -2 1 ^2",
    (3, 1, 2, 1): "1 1 1 1 ^1 | 0 1 ^2 | -4 1 ^3",
    (4, 0, 2, 1): "1 0 1 ^1 | 0 1 ^2 | -1 1 ^4",
    (0, 3, 3, 1): "1 0 1 ^1 | 0 1 1 ^3",
    (1, 2, 3, 1): "-3 1 -3 1 ^1 | 1 1 ^2 | 0 1 ^3",
    (2, 1, 3, 1): "3 1 3 1 ^1 | -1 1 ^2 | 0 1 ^3",
    (3, 0, 3, 1): "1 0 1 ^1 | 0 -1 1 ^3",
    (0, 2, 4, 1): "2 0 1 ^1 | 1 1 ^2 | 0 1 ^4",
    (1, 1, 4, 1): "-2 0 1 0 1 ^1 | 0 1 ^4",
    (2, 0, 4, 1): "2 0 1 ^1 | -1 1 ^2 | 0 1 ^4",
    (0, 1, 5, 1): "2 2 1 1 ^1 | 0 1 ^5",
    (1, 0, 5, 1): "-2 2 -1 1 ^1 | 0 1 ^5",
    (0, 0, 6, 1): "2 0 1 ^1 | 0 1 ^6",
    (0, 4, 0, 2): "1 0 1 ^2 | 1 1 ^4",
    (1, 3, 0, 2): "-1 1 ^1 | 1 0 1 ^2 | 2 1 ^3",
    (2, 2, 0, 2): "6 7 1 ^1 | -2 1 -2 1 ^2",
    (3, 1, 0, 2): "1 1 ^1 | 1 0 1 ^2 | -2 1 ^3",
    (4, 0, 0, 2): "1 0 1 ^2 | -1 1 ^4",
    (0, 3, 1, 2): "0 1 ^1 | 1 0 1 ^2 | 1 1 ^3",
    (1, 2, 1, 2): "0 -3 1 ^1 | 1 1 1 1 ^2",
    (2, 1, 1, 2): "0 3 1 ^1 | -1 1 -1 1 ^2",
    (3, 0, 1, 2): "0 1 ^1 | 1 0 1 ^2 | -1 1 ^3",
    (0, 2, 2, 2): "6 0 5 0 1 ^1 | 0 1 1 ^2",
    (1, 1, 2, 2): "-6 0 1 0 4 0 1 ^1 | 0 1 ^2",
    (2, 0, 2, 2): "6 0 5 0 1 ^1 | 0 -1 1 ^2",
    (0, 1, 3, 2): "6 6 5 5 1 1 ^1 | 0 1 ^3",
    (1, 0, 3, 2): "-6 6 -5 5 -1 1 ^1 | 0 1 ^3",
    (0, 0, 4, 2): "6 0 5 0 1 ^1 | 0 1 ^4",
    (0, 2, 0, 3): "30 0 31 0 10 0 1 ^1 | 1 1 ^2",
    (1, 1, 0, 3): "-30 0 -1 0 21 0 9 0 1 ^1",
    (2, 0, 0, 3): "30 0 31 0 10 0 1 ^1 | -1 1 ^2",
    (0, 1, 1, 3): "0 30 30 31 31 10 10 1 1 ^1",
    (1, 0, 1, 3): "0 -30 30 -31 31 -10 10 -1 1 ^1",
    (0, 0, 2, 3): "30 0 31 0 10 0 1 ^1 | 0 1 ^2",
    (0, 0, 0, 4): "30 0 61 0 41 0 11 0 1 ^1",
}


def _split_as_text(p):
    return " | ".join(
        " ".join(str(c) for c in f.coeffs) + f" ^{k}" for f, k in _squarefree_factors(p)
    )


def test_squarefree_split_pinned_on_inertia_charpolys():
    assert len(INERTIA_SQUAREFREE) == 95
    for nu, expected in INERTIA_SQUAREFREE.items():
        assert _split_as_text(char_poly(realize_inertia(nu))) == expected, nu


def test_squarefree_split_edge_cases():
    t8 = Polynomial((0,) * 8 + (1,))
    assert _squarefree_factors(t8) == [(Polynomial((0, 1)), 8)]
    # a squarefree input comes back as itself
    p = f_degree8()
    assert _squarefree_factors(p) == [(p, 1)]
    # degree 32, the cap: split, so every multiple root is located exactly
    factors = [
        (Polynomial((Fraction(-1, 2), 1)), 1),
        (Polynomial((2, 1)), 3),
        (Polynomial((1, 0, 1)), 4),
        (Polynomial((5, Fraction(1, 3), 1)), 10),
    ]
    p32 = Polynomial((1,))
    for f, k in factors:
        for _ in range(k):
            p32 = poly_mul(p32, f)
    assert p32.degree == _SQUAREFREE_DEGREE_CAP
    assert _squarefree_factors(p32) == factors
    roots = find_roots(p32).roots
    assert roots.count(-2) == 3 and roots.count(1j) == 4 and roots.count(-1j) == 4


def test_exact_integer_division_raises_when_inexact():
    # a leading coefficient that does not divide, and a nonzero remainder tail
    with pytest.raises(ArithmeticError, match="inexact"):
        _zdiv_exact([0, 1], [1, 2])
    with pytest.raises(ArithmeticError, match="inexact"):
        _zdiv_exact([1, 0, 1], [1, 1])
    assert _zdiv_exact([1, 2, 1], [1, 1]) == [1, 1]


_INT_POLY = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@PROPERTY_SETTINGS
@given(_INT_POLY.filter(any), _INT_POLY, _INT_POLY.filter(lambda g: g[-1] != 0))
def test_gcd_of_two_multiples_of_g(a, b, g):
    # the gcd that _exact_inertia reads as H and _gcd_chain reads as its next term
    ag = _ztrim([int(c) for c in pl_product([a, g])])
    bg = _ztrim([int(c) for c in pl_product([b, g])])
    h = _primitive(_sturm_sequence(ag, bg)[-1])
    assert math.gcd(*h) == 1 and h[-1] > 0
    _zdiv_exact(ag, h)
    _zdiv_exact(bg, h)
    _zdiv_exact(h, _primitive(g))
    assert [Fraction(c, h[-1]) for c in h] == pl_gcd(ag, bg)


# pairwise coprime squarefree integer factors, one of them not monic
_COPRIME_FACTORS = ([0, 1], [2, 1], [-1, 1], [3, 2], [1, 0, 1], [1, 1, 1], [-2, 0, 1])


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 4), min_size=len(_COPRIME_FACTORS), max_size=len(_COPRIME_FACTORS)))
@example([0] * len(_COPRIME_FACTORS))
@example([1] * len(_COPRIME_FACTORS))
def test_gcd_chain_drops_one_multiplicity_per_step(mults):
    # on prod f_i**m_i the chain has max m_i terms, and its k-th (from 0)
    # holds every root of multiplicity m_i > k with multiplicity m_i - k
    a = _primitive([int(c) for c in pl_product([f for f, m in zip(_COPRIME_FACTORS, mults) for _ in range(m)])])
    chain = list(_gcd_chain(a))
    assert len(chain) == max(mults)
    assert [g for g, _ in chain[:1]] == ([a] if max(mults) else [])
    for k, (g, sturm) in enumerate(chain):
        assert len(g) - 1 == sum(max(0, m - k) * (len(f) - 1) for f, m in zip(_COPRIME_FACTORS, mults))
        assert sturm == _sturm_sequence(g, _zderivative(g))


@st.composite
def _repeated_factor_product(draw):
    # rational linear and quadratic factors with multiplicities 1-4, total
    # degree at most 32; factors may coincide, share roots or be reducible
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    factors = []
    degree = 0
    for low, mult in draw(
        st.lists(
            st.tuples(st.lists(coeff, min_size=1, max_size=2), st.integers(1, 4)),
            min_size=1,
            max_size=10,
        )
    ):
        f = low + [Fraction(1)]
        if degree + (len(f) - 1) * mult <= 32:
            factors += [f] * mult
            degree += (len(f) - 1) * mult
    return pl_product(factors)


def _derivative(f):
    return [k * f[k] for k in range(1, len(f))]


@PROPERTY_SETTINGS
@given(_repeated_factor_product())
def test_squarefree_split_against_fraction_oracle(coeffs):
    split = _squarefree_factors(Polynomial(tuple(coeffs)))
    fs = [list(f.coeffs) for f, _ in split]
    mults = [k for _, k in split]
    assert mults == sorted(set(mults))
    for f in fs:
        assert len(f) >= 2 and f[-1] == 1
        assert pl_gcd(f, _derivative(f)) == [1]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            assert pl_gcd(fs[i], fs[j]) == [1]
    assert pl_product([f for f, k in zip(fs, mults) for _ in range(k)]) == coeffs


def test_find_roots_rational_exact_real_roots():
    p = Polynomial((6, -5, 1))  # (t-2)(t-3)
    assert_root_sets_match(find_roots(p).roots, [2, 3], tol=0)


def test_find_roots_float_multiple_roots_within_certificate():
    # the float path has no exact squarefree split; double roots pass the
    # backward-error certificate at position accuracy ~sqrt(tol)
    p = poly_mul(Polynomial((1.0, 0.0, 1.0)), Polynomial((1.0, 0.0, 1.0)))
    p = poly_mul(p, Polynomial((-1.0, 1.0)))
    rm = find_roots(p, tol=1e-7)
    assert_root_sets_match(rm.roots, [1j, 1j, -1j, -1j, 1.0], tol=1e-3)
    fc = p.float_coeffs()
    assert max(backward_error(fc, z) for z in rm.roots) <= 1e-7


def assert_distinct_roots_match_relative(got, expected, rel=1e-12):
    # every root in got lies within rel * |w| of some root w in expected
    for z in set(got):
        assert min(abs(z - w) / abs(w) for w in expected) <= rel


CANCELLING_QUADRATICS = (
    Polynomial((1, 10**8, 1)),
    Polynomial((1, -(10**6), 1)),
    Polynomial((Fraction(1, 3), 10**5, 1)),
)


def test_rational_quadratics_use_the_cancellation_free_formula():
    # (-a +- sqrt(a^2 - 4b)) / 2 loses the small root to cancellation when
    # |a| >> |b|; the rational path must solve these as well as the float one
    for q in CANCELLING_QUADRATICS:
        expected = find_roots(q.to_float()).roots
        for p in (q, poly_mul(q, q)):
            rm = find_roots(p, tol=1e-9)
            assert rm.n == p.degree
            assert_distinct_roots_match_relative(rm.roots, expected)


def test_rational_quadratic_discriminant_is_exact():
    # (t - 1)(t - r) with r near 1: a float discriminant a^2 - 4b would keep
    # only a few digits of (r - 1)^2; the exact one keeps both roots within
    # an ulp
    for r in (Fraction(6, 5), Fraction(10**6 + 1, 10**6), Fraction(10**9 + 1, 10**9)):
        q = Polynomial((r, -1 - r, 1))
        for p in (q, poly_mul(q, q)):
            got = sorted(set(z.real for z in find_roots(p).roots))
            assert len(got) == 2
            for z, exact in zip(got, (1, r)):
                assert abs(z - float(exact)) <= 2.3e-16 * float(exact)


@PROPERTY_SETTINGS
@given(
    exps=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    signs=st.tuples(st.sampled_from((-1, 1)), st.sampled_from((-1, 1))),
    mult=st.integers(1, 4),
)
def test_rational_quadratic_powers_certify(exps, signs, mult):
    # coefficients are exact images of doubles, so q.to_float() is the same
    # polynomial and only the root path can make the two results differ
    b, a = (Fraction(s * 10.0**e) for s, e in zip(signs, exps))
    q = Polynomial((b, a, Fraction(1)))
    p = Polynomial((Fraction(1),))
    for _ in range(mult):
        p = poly_mul(p, q)
    rm = find_roots(p, tol=1e-9)
    assert rm.n == 2 * mult
    assert_distinct_roots_match_relative(rm.roots, find_roots(q.to_float()).roots)


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(Polynomial((1,)))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_find_roots_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # at inf the pair ±i√5 would snap onto the axis and certify as a double 0
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        find_roots(Polynomial((5.0, 0.0, 1.0)), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        refined_inertia_of(realize_inertia((3, 3, 0, 1)), tol=tol)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_root_multiset_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # at inf the pair 1 ± 2i would be stored as the double root 1, and
    # roots_to_quadratics would return t**2 for (t - 1)**2 + 4
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        RootMultiset((1 + 2j, 1 - 2j), tol)


@pytest.mark.parametrize("tol", [1.0, 1e10])
def test_every_tolerance_check_rejects_one_or_more(tol):
    # a backward error never exceeds 1, so at tol 1 find_roots would certify
    # the double root 0 of t**2 + 1/4, whose roots are +-i/2
    with pytest.raises(ValueError, match="tol must be below 1"):
        find_roots(Polynomial((0.25, 0.0, 1.0)), tol=tol)
    with pytest.raises(ValueError, match="tol must be below 1"):
        RootMultiset((0.5j, -0.5j), tol)
    with pytest.raises(ValueError, match="tol must be below 1"):
        refined_inertia_of(realize_inertia((3, 3, 0, 1)), tol=tol)


def test_backward_error_measures_perturbation():
    coeffs = [2.0, -3.0, 1.0]  # (t-1)(t-2)
    assert backward_error(coeffs, 1.0 + 0j) == 0.0
    assert backward_error(coeffs, 2.0 + 0j) == 0.0
    # p(3) = 2 against sum |c_k| 3**k = 2 + 9 + 9 = 20
    assert backward_error(coeffs, 3.0 + 0j) == pytest.approx(0.1)


# p at its companion root pair of modulus about 5e80 has finite parts and a
# modulus beyond the double range; its real roots give 0.0 and 1.0
_OVERFLOWING_PAIR = Polynomial(
    (-1.230517505741236e180, 1.6394194476331448e242, 0.0, 1.5267462500597595e-05, 1.0)
)


def test_backward_error_beyond_the_double_range_is_nan():
    # |p(i)| and |z| have finite parts but a modulus above the largest double;
    # abs() raises there, and the documented result is NaN at z and at z-bar
    for coeffs, z in (([1.5e308, 1.5e308], 1j), ([0.0, 1.0], 1.5e308 + 1.5e308j)):
        assert math.isnan(backward_error(coeffs, z))
        assert math.isnan(backward_error(coeffs, z.conjugate()))
    # find_roots reaches it
    with pytest.raises(RootFindingError, match="worst backward error nan") as err:
        find_roots(_OVERFLOWING_PAIR, tol=1e-9)
    assert math.isnan(err.value.residual)


@PROPERTY_SETTINGS
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
def test_backward_error_is_conjugate_symmetric(coeffs, z):
    # on real coefficients the error at z-bar is bitwise the error at z, or
    # NaN at both, over the whole double range: find_roots certifies one
    # root per conjugate pair on this
    assert backward_error(coeffs, z.conjugate()).hex() == backward_error(coeffs, z).hex()


def test_failed_certificate_reports_the_worst_over_all_roots():
    # find_roots evaluates one root per conjugate pair; the worst it reports
    # on a forced failure is still the worst over every root of the multiset
    rng = random.Random(11)
    targets = [random_monic_polynomial(degree, rng) for degree in (5, 16, 16, 64)]
    targets.append(_OVERFLOWING_PAIR)
    tol = 1e-20
    for p in targets:
        rm = RootMultiset(tuple(_roots_of_coeffs(list(p.coeffs))), tol)
        assert any(z.imag < 0 for z in rm.roots)
        fc = p.float_coeffs()
        errors = [backward_error(fc, z) for z in rm.roots]
        expected = math.nan if any(map(math.isnan, errors)) else max(errors)
        with pytest.raises(RootFindingError, match="certificate") as err:
            find_roots(p, tol=tol)
        assert err.value.residual.hex() == expected.hex()


def test_certificate_bounds_returned_roots():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = tuple(rng.uniform(-5, 5) for _ in range(16)) + (1.0,)
        p = Polynomial(coeffs)
        rm = find_roots(p, tol=1e-9)
        fc = p.float_coeffs()
        assert max(backward_error(fc, z) for z in rm.roots) <= 1e-9
    for degree in (128, 256):
        p = random_monic_polynomial(degree, rng)
        rm = find_roots(p, tol=1e-9)
        assert rm.n == degree
        fc = p.float_coeffs()
        assert max(backward_error(fc, z) for z in rm.roots) <= 1e-9


def test_wilkinson_degree20_certified_with_real_roots():
    # coefficients reach 20! ~ 2.4e18; both backends must still certify
    p = Polynomial((1,))
    for k in range(1, 21):
        p = poly_mul(p, Polynomial((-k, 1)))
    for q in (p, p.to_float()):
        rm = find_roots(q, tol=1e-9)
        assert rm.n == 20
        assert all(z.imag == 0.0 for z in rm.roots)
        fc = q.float_coeffs()
        assert max(backward_error(fc, z) for z in rm.roots) <= 1e-9


def test_non_finite_coefficients_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Polynomial((bad, 0.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Polynomial((1.0, bad, 0.0, 0.0, 1.0))


def test_overflowing_evaluation_fails_certificate():
    # finite coefficients near the double maximum overflow the backward-error
    # evaluation to NaN, which must fail the certificate rather than pass it,
    # also when the NaN is not the first error (here the root 1e308 sorts last)
    for p in (
        Polynomial((1.7e308, 1.7e308, 1.7e308, 1.7e308, 1.0)),
        Polynomial((0.0, 0.0, 1.0, 0.0, -1e308, 1.0)),
    ):
        with pytest.raises(RootFindingError, match="certificate") as err:
            find_roots(p, tol=1e-9)
        assert math.isnan(err.value.residual)
    # the closed-form roots of t^2 + 1e308 overflow to +-inf*i, and the
    # companion roots of t^2 - 1e308 t + 1e308 come back as 5e307+nanj twice:
    # a non-finite root is rejected before any certificate
    for p in (
        Polynomial((0.0, 1e308, 0.0, 1.0)),
        Polynomial((0.0, 0.0, 1e308, -1e308, 1.0)),
    ):
        with pytest.raises(RootFindingError, match="not finite"):
            find_roots(p, tol=1e-9)


def sample_separated_reals(rng, count, lo, hi, gap):
    reals = []
    while len(reals) < count:
        r = rng.uniform(lo, hi)
        if all(abs(r - s) >= gap for s in reals):
            reals.append(r)
    return reals


def test_scale_relative_residuals_on_tame_populations():
    # with separated roots in a small disk the coefficient-scale form of the
    # residual certificate holds as well
    rng = random.Random(11)
    for _ in range(50):
        deg = rng.randint(2, 8)
        reals = sample_separated_reals(rng, deg, -1.5, 1.5, 0.05)
        p = poly_from_real_roots(reals)
        rm = find_roots(p, tol=1e-9)
        fc = p.float_coeffs()
        scale = max(abs(c) for c in fc)
        for z in rm.roots:
            acc = complex(fc[-1])
            for c in reversed(fc[:-1]):
                acc = acc * z + c
            assert abs(acc) <= 1e-9 * scale


def test_root_multiset_validation():
    with pytest.raises(ValueError, match="not closed"):
        RootMultiset((1j,), 1e-9)
    with pytest.raises(ValueError, match="conjugate partner"):
        RootMultiset((1 + 1j, -1 - 1.5j), 1e-9)
    rm = RootMultiset((1 + 1j, 1 - 1j, 0.5), 1e-9)
    assert rm.n == 3
    # a near-real root is stored on the axis, and the roots in (Re, Im) order
    rm = RootMultiset((1 + 1j, 0.5 + 1e-12j, 1 - 1j, -2), 1e-9)
    assert rm.roots == (-2 + 0j, 0.5 + 0j, 1 - 1j, 1 + 1j)
    assert rm.roots[1].imag == 0.0
    assert rm.roots[2] == rm.roots[3].conjugate()
    # a pair must be exact: one that is off by 1e-10 is not averaged
    with pytest.raises(ValueError, match=r"not closed.*root \(1\+1j\) has no conjugate partner"):
        RootMultiset((1 + 1j, 1 - 1.0000000001j), 1e-9)
    # the unpaired root named may lie below the axis, or be one of a repeat
    with pytest.raises(ValueError, match=r"root \(2-1j\) has no conjugate partner"):
        RootMultiset((1 + 1j, 2 - 1j, 1 - 1j), 1e-9)
    with pytest.raises(ValueError, match=r"root \(1\+1j\) has no conjugate partner"):
        RootMultiset((1 + 1j, 1 - 1j, 1 + 1j), 1e-9)
    # a -0.0 real part of a pair is stored as 0.0
    rm = RootMultiset((complex(-0.0, 1.0), complex(-0.0, -1.0)), 1e-9)
    assert [z.real.hex() for z in rm.roots] == ["0x0.0p+0", "0x0.0p+0"]
    with pytest.raises(ValueError, match="not finite"):
        RootMultiset((complex(math.nan, 1.0), complex(math.nan, -1.0)), 1e-9)


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e-9, 1e-9)), max_size=6),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)), max_size=6),
    st.data(),
)
def test_closure_does_not_depend_on_input_order(near_real, pairs, data):
    roots = [complex(x, e) for x, e in near_real] + [complex(x, s * y) for x, y in pairs for s in (1, -1)]
    shuffled = data.draw(st.permutations(roots))
    assert RootMultiset(tuple(shuffled), 1e-9).roots == RootMultiset(tuple(roots), 1e-9).roots


def _exactly_closed(roots) -> bool:
    # every finite root off the axis has its exact conjugate, with multiplicity
    off_axis = Counter(z for z in roots if cmath.isfinite(z) and z.imag != 0)
    return off_axis == Counter(z.conjugate() for z in off_axis.elements())


# a float coefficient anywhere from 1e-300 to 1e300 in magnitude, or zero
_WIDE_COEFF = st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300))


@PROPERTY_SETTINGS
@given(st.lists(_WIDE_COEFF, min_size=3, max_size=64))
def test_raw_float_roots_come_in_exact_conjugate_pairs(low):
    # RootMultiset pairs roots by equality, not by distance: the closed forms
    # and dgeev (wr + i*wi, wr - i*wi) must hand it exact pairs
    assert _exactly_closed(_roots_of_coeffs(low + [1.0]))


@PROPERTY_SETTINGS
@given(_repeated_factor_product())
def test_raw_roots_of_squarefree_factors_come_in_exact_conjugate_pairs(coeffs):
    assert _exactly_closed(_roots_of_coeffs([float(c) for c in coeffs]))
    for f, _ in _squarefree_factors(Polynomial(tuple(coeffs))):
        assert _exactly_closed(_roots_of_coeffs(list(f.coeffs)))


def test_raw_roots_come_in_exact_conjugate_pairs_at_high_degree():
    for degree in (128, 256):
        for seed in range(3):
            rng = random.Random(seed)
            assert _exactly_closed(_roots_of_coeffs(list(random_monic_polynomial(degree, rng).coeffs)))
            low = [rng.uniform(-10, 10) * 10.0 ** rng.randint(-300, 300) for _ in range(degree)]
            assert _exactly_closed(_roots_of_coeffs(low + [1.0]))


def test_conjugate_closure_snaps_and_pairs():
    # the companion solve's exact pairs come back with both roots stored
    rm = find_roots(poly_from_root_spec([0.5], [(1.0, 2.0), (-1.0, 0.25)]), tol=1e-9)
    ups = [z for z in rm.roots if z.imag > 0]
    for z in ups:
        assert z.conjugate() in rm.roots


def test_refined_inertia_of_diagonal():
    m = FloatMatrix.from_rows([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0.0]])
    assert refined_inertia_of(m) == RefinedInertia(1, 1, 1, 0)


def test_refined_inertia_of_rejects_what_is_not_a_matrix():
    for rows in ([[1, 0], [0, 1]], builtin_pattern("D")):
        with pytest.raises(TypeError, match="expected a matrix"):
            refined_inertia_of(rows)
        with pytest.raises(TypeError, match="expected a matrix"):
            char_poly(rows)


def test_refined_inertia_of_even_sextic_realization():
    m = realize_even_sextic(1, 2, 3)
    assert refined_inertia_of(m) == RefinedInertia(0, 0, 0, 3)


def test_refined_inertia_counts_of_degree8_roots():
    rm = find_roots(f_degree8(), tol=1e-9)
    tol = 1e-9
    n_plus = n_minus = n_zero = n_axis = 0
    for z in rm.roots:
        if abs(z) <= tol:
            n_zero += 1
        elif abs(z.real) <= tol:
            n_axis += 1
        elif z.real > 0:
            n_plus += 1
        else:
            n_minus += 1
    assert (n_plus, n_minus, n_zero, n_axis // 2) == (3, 3, 0, 1)
    assert refined_inertia_of(_companion(list(f_degree8().coeffs))) == RefinedInertia(3, 3, 0, 1)


def _companion(coeffs) -> RationalMatrix:
    # the companion matrix of the monic polynomial with these ascending coefficients
    n = len(coeffs) - 1
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    return RationalMatrix.from_rows(rows + [[-c for c in coeffs[:-1]]])


_POSITIVE = st.builds(Fraction, st.integers(1, 30), st.integers(1, 9))
_NONZERO = st.builds(lambda v, s: s * v, _POSITIVE, st.sampled_from((-1, 1)))


def _quad(a, b):
    # (t - a)**2 + b**2, ascending
    return [a * a + b * b, -2 * a, 1]


# each factor with the refined inertia of its roots
_INERTIA_FACTORS = st.one_of(
    _POSITIVE.map(lambda r: ([-r, 1], (1, 0, 0, 0))),
    _POSITIVE.map(lambda r: ([r, 1], (0, 1, 0, 0))),
    st.just(([0, 1], (0, 0, 1, 0))),
    _POSITIVE.map(lambda w: ([w * w, 0, 1], (0, 0, 0, 1))),
    st.builds(lambda a, b: (_quad(a, b), (2, 0, 0, 0) if a > 0 else (0, 2, 0, 0)), _NONZERO, _POSITIVE),
    _POSITIVE.map(lambda r: ([-r * r, 0, 1], (1, 1, 0, 0))),
    st.builds(lambda a, b: (pl_product([_quad(a, b), _quad(-a, b)]), (2, 2, 0, 0)), _POSITIVE, _POSITIVE),
)


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(_INERTIA_FACTORS, st.integers(1, 3)), min_size=1, max_size=4).filter(
        lambda fs: sum((len(f) - 1) * mult for (f, _), mult in fs) <= 16  # companion order
    )
)
@example([(([-1, 1], (1, 0, 0, 0)), 1)])  # an odd cofactor: the Cauchy index's sign
@example([(([1, 0, 1], (0, 0, 0, 1)), 2)])  # (t**2 + 1)**2: H's roots with multiplicity
@example([(([1, 0, 1], (0, 0, 0, 1)), 3), (([-4, 0, 1], (1, 1, 0, 0)), 2), (([0, 1], (0, 0, 1, 0)), 1)])
@example([(([0, 1], (0, 0, 1, 0)), 3)])  # t**3: q is constant
@example([(([-1, 1], (1, 0, 0, 0)), 1), (([1, 1, 1], (0, 2, 0, 0)), 1)])  # t**3 - 1: E trims short
@example([(([2, -2, 1], (2, 0, 0, 0)), 1), (([2, 2, 1], (0, 2, 0, 0)), 1)])  # t**4 + 4 = H(t**2), off the axes
@example([(([1, 0, 1], (0, 0, 0, 1)), 1), (([-4, 0, 1], (1, 1, 0, 0)), 1)])  # (t**2 + 1)(t**2 - 4): O = 0
def test_exact_refined_inertia_of_known_products(factors):
    coeffs = pl_product([f for (f, _), mult in factors for _ in range(mult)])
    expected = [0, 0, 0, 0]
    for (_, nu), mult in factors:
        expected = [e + mult * k for e, k in zip(expected, nu)]
    assert refined_inertia_of(_companion(coeffs)) == RefinedInertia(*expected)


# The refined inertias of the float images of realize_inertia's matrices, lifted
# exactly, where they differ from the request: rounding the entries moves the
# zero eigenvalues (and a zero-real-part pair) off the axes.  Checked against an
# independent high-precision root count.
_LIFTED_FLOAT_INERTIA = {
    (0, 5, 3, 0): (0, 6, 2, 0), (1, 4, 3, 0): (1, 5, 2, 0), (2, 3, 3, 0): (2, 4, 2, 0),
    (3, 2, 3, 0): (4, 2, 2, 0), (4, 1, 3, 0): (5, 1, 2, 0), (0, 4, 4, 0): (2, 4, 2, 0),
    (1, 3, 4, 0): (1, 5, 2, 0), (2, 2, 4, 0): (2, 4, 2, 0), (3, 1, 4, 0): (4, 2, 2, 0),
    (0, 3, 5, 0): (1, 5, 2, 0), (3, 0, 5, 0): (5, 1, 2, 0), (0, 5, 1, 1): (0, 6, 0, 1),
    (1, 4, 1, 1): (1, 5, 0, 1), (2, 3, 1, 1): (2, 4, 0, 1), (3, 2, 1, 1): (4, 2, 0, 1),
    (4, 1, 1, 1): (5, 1, 0, 1), (0, 4, 2, 1): (2, 4, 0, 1), (1, 3, 2, 1): (1, 5, 0, 1),
    (2, 2, 2, 1): (2, 4, 0, 1), (3, 1, 2, 1): (4, 2, 0, 1), (0, 3, 3, 1): (1, 5, 0, 1),
    (3, 0, 3, 1): (5, 1, 0, 1), (0, 4, 0, 2): (0, 6, 0, 1), (1, 3, 0, 2): (1, 5, 0, 1),
    (2, 2, 0, 2): (4, 2, 0, 1), (3, 1, 0, 2): (5, 1, 0, 1), (0, 3, 1, 2): (3, 3, 0, 1),
    (3, 0, 1, 2): (3, 3, 0, 1),
}


def test_exact_refined_inertia_of_the_lifted_float_images():
    # find_roots at tol 1e-6 rejects the characteristic polynomials of 6 of
    # these, (0, 4, 4, 0) among them: its closure snaps a pair like
    # 2.2e-15 +- 2.98e-8i onto the axis.  The exact count answers all 95, on
    # the float matrix at any tol as on its lift
    tuples = list(_all_inertia_tuples())
    assert len(tuples) == 95
    for nu in tuples:
        m = realize_inertia(nu).to_float()
        expected = _LIFTED_FLOAT_INERTIA.get(nu, nu)
        assert refined_inertia_of(m.lift()) == expected, nu
        for tol in (1e-6, 1e-9):
            assert refined_inertia_of(m, tol=tol) == expected, (nu, tol)


@st.composite
def _integer_blocks(draw):
    # a square integer block: a random one of order 1-3, a zero block, or a
    # 2x2 rotation block a*I + w*J with eigenvalues a +- i*w (a = 0 puts the
    # pair on the imaginary axis)
    kind = draw(st.sampled_from(("random", "zero", "rotation")))
    n = draw(st.integers(1, 3))
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "rotation":
        a, w = draw(st.sampled_from((0, 0, 1, -2))), draw(st.integers(1, 3))
        return [[a, -w], [w, a]]
    return [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]


@PROPERTY_SETTINGS
@given(st.lists(_integer_blocks(), min_size=1, max_size=5))
@example([[[0, -1], [1, 0]], [[0]], [[0, 0], [0, 0]], [[2]], [[0, -3], [3, 0]]])
def test_blockwise_refined_inertia_equals_the_whole_count(blocks):
    # the sum over the diagonal blocks equals the uncut count on the whole
    # matrix's characteristic polynomial, on one scale
    m = block_diag(RationalMatrix.from_rows(b) for b in blocks)
    assert refined_inertia_of(m) == roots._exact_inertia(_charpoly_scaled([m.entries])[0])


def test_degree64_rational_realization_is_counted_on_its_blocks(monkeypatch):
    # the count runs on the 6x6 and 2x2 blocks' polynomials, never on the
    # degree-64 product, whose coefficients run to 100k bits
    f = random_monic_polynomial(64, random.Random(64))
    m = realize_poly(f, 8, 8, backend="rational").matrix
    degrees = []
    count = roots._exact_inertia

    def spy(nums):
        degrees.append(len(nums) - 1)
        return count(nums)

    monkeypatch.setattr(roots, "_exact_inertia", spy)
    nu = refined_inertia_of(m)
    assert sorted(degrees) == [2] * 8 + [6] * 8
    # f's roots lie well off the imaginary axis, so the float solve agrees
    rm = find_roots(f, tol=1e-9)
    assert nu == RefinedInertia(sum(z.real > 0 for z in rm.roots), sum(z.real < 0 for z in rm.roots), 0, 0)


def test_exact_inertia_splits_h_only_when_it_has_positive_degree(monkeypatch):
    # H = gcd(E, O) is constant for t**2 + 3t + 2, so no root pairs with its
    # negative and no Sturm count runs; (t**2 + 1)(t + 1) has H = t + 1,
    # squarefree, so its gcd chain stops after one Sturm sequence
    calls = []
    derivative = roots._zderivative

    def spy(h):
        calls.append(list(h))
        return derivative(h)

    monkeypatch.setattr(roots, "_zderivative", spy)
    assert roots._exact_inertia([2, 3, 1]) == RefinedInertia(0, 2, 0, 0)
    assert calls == []
    assert roots._exact_inertia([1, 1, 1, 1]) == RefinedInertia(0, 1, 0, 1)
    assert calls == [[1, 1]]


def test_refined_inertia_tuple_helpers():
    nu = RefinedInertia(3, 3, 0, 1)
    assert nu.order() == 8
    assert nu.dominates(RefinedInertia(3, 2, 0, 1))
    assert not nu.dominates(RefinedInertia(4, 0, 0, 0))


def pairing_negative_counts(reals):
    # enumerate all perfect matchings; count of products < 0 per matching
    if not reals:
        return [0]
    first, rest = reals[0], list(reals[1:])
    counts = []
    for i in range(len(rest)):
        partner = rest[i]
        sub = rest[:i] + rest[i + 1 :]
        for c in pairing_negative_counts(sub):
            counts.append(c + (1 if first * partner < 0 else 0))
    return counts


def quads_of(roots):
    return roots_to_quadratics(RootMultiset(tuple(roots), 1e-9))


def test_roots_to_quadratics_frozen_pairings():
    quads = quads_of([1.0, -1.0, 2.0, 3.0])
    assert set((q.a, q.b) for q in quads) == {(-5.0, 6.0), (0.0, -1.0)}
    assert sum(1 for q in quads if q.b < 0) == 1

    quads = quads_of([1.0, 2.0, -3.0, -4.0])
    assert set((q.a, q.b) for q in quads) == {(-3.0, 2.0), (7.0, 12.0)}
    assert all(q.b >= 0 for q in quads)

    quads = quads_of([1j, -1j, 1.0, -1.0])
    assert set((q.a, q.b) for q in quads) == {(0.0, 1.0), (0.0, -1.0)}


def test_roots_to_quadratics_is_optimal_on_frozen_examples():
    for roots in ([1.0, -1.0, 2.0, 3.0], [1.0, 2.0, -3.0, -4.0]):
        got = sum(1 for q in quads_of(roots) if q.b < 0)
        assert got == min(pairing_negative_counts(roots))


def test_roots_to_quadratics_zero_roots_snap():
    quads = quads_of([0.0, 0.0, 5e-10, -5e-10])
    assert all(q.b == 0.0 and q.a == 0.0 for q in quads)


def test_roots_to_quadratics_writes_zero_coefficients_as_plus_zero():
    # in floating point -2*Re(z) with Re(z) = 0, -(r + s) over a zero pair
    # and a negative root times the zero 0.0 are all -0.0
    for roots in ([1j, -1j], [0.0, 0.0], [1e-10, -1e-10], [-1.0, 0.0], [2.0, 0.0], [3j, -3j, -2.0, 0.0]):
        for q in quads_of(roots):
            for c in (q.a, q.b):
                assert c != 0.0 or math.copysign(1.0, c) == 1.0, (roots, q)


def test_roots_to_quadratics_mixed_parities():
    # one positive, one negative, two zeros: zeros pair, leftovers cross
    quads = quads_of([2.0, -3.0, 0.0, 0.0])
    assert sum(1 for q in quads if q.b < 0) == 1
    assert Quadratic(0.0, 0.0) in quads


def test_roots_to_quadratics_order():
    # select_triple scans the quadratics in this order: conjugate pairs, then
    # positives and negatives by decreasing magnitude, then zeros, then the
    # pair of leftovers from the two classes with odd counts
    quads = quads_of([3.0, 1.0, 2.0, 4.0, -1.0, -2.0, -5.0, 0.0, 0.0, 5e-10, 3j, -3j])
    assert quads == [
        Quadratic(0.0, 9.0),
        Quadratic(-7.0, 12.0),
        Quadratic(-3.0, 2.0),
        Quadratic(7.0, 10.0),
        Quadratic(0.0, 0.0),
        Quadratic(1.0, 0.0),
    ]
    quads = quads_of([3.0, 1.0, 2.0, -1.0, -2.0, -5.0, 0.0, 0.0])
    assert quads == [
        Quadratic(-5.0, 6.0),
        Quadratic(7.0, 10.0),
        Quadratic(0.0, 0.0),
        Quadratic(0.0, -1.0),
    ]


def test_roots_to_quadratics_odd_total_rejected():
    with pytest.raises(ValueError, match="even"):
        quads_of([1.0, 2.0, 3.0])


def test_roots_to_quadratics_reconstructs_input():
    p = poly_from_root_spec([0.3, -1.2, 2.0, -0.7], [(0.5, 1.5), (-1.0, 0.8)])
    rm = find_roots(p, tol=1e-9)
    prod = Polynomial((1,))
    for q in roots_to_quadratics(rm):
        prod = poly_mul(prod, q.lift().to_polynomial())
    assert coefficient_residual(prod, p) <= 10 * 1e-9 * p.degree


def test_kernel_reports_numpy():
    from signspectra import KERNEL

    assert KERNEL == "numpy"


def test_numpy_loads_only_for_a_companion_matrix_solve():
    # the exact certificates, the pattern output and the CLI import never
    # reach the companion matrix, so a fresh process leaves numpy unloaded;
    # the CLI runs on argparse, so its import loads no click either
    script = """
import sys
import signspectra.cli as cli
assert "click" not in sys.modules, "click loaded by the CLI import"
from signspectra import Polynomial, builtin_pattern, check_divisor_obstruction, check_identity, find_roots
assert check_identity("T", 20).all_passed
assert check_divisor_obstruction().passed
builtin_pattern("U3").to_dict()
cli.main(["pattern", "U3"], standalone_mode=False)
assert "numpy" not in sys.modules, "numpy loaded before any root solve"
find_roots(Polynomial((1.0, 2.0, 3.0, 1.0)))
assert "numpy" in sys.modules, "a cubic did not reach the companion matrix"
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_exact_inertia_loads_no_numpy():
    # a rational matrix is classified by remainder sequences, not by a root solve
    script = """
import sys
import signspectra.cli as cli
from signspectra import RefinedInertia, realize_inertia, refined_inertia_of
assert refined_inertia_of(realize_inertia((2, 2, 0, 2))) == RefinedInertia(2, 2, 0, 2)
# a float image whose polynomial find_roots rejects at tol 1e-6, counted exactly
assert refined_inertia_of(realize_inertia((0, 4, 4, 0)).to_float(), tol=1e-6) == RefinedInertia(2, 4, 2, 0)
cli.main(["inertia", "2", "2", "0", "2"], standalone_mode=False)
assert "numpy" not in sys.modules, "numpy loaded by an exact classification"
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_unattainable_tolerance_reports_residual():
    # tolerances below the double-precision evaluation floor cannot be
    # certified; the raised error carries the achieved residual as evidence.
    # All roots are kept far from the real axis so conjugation closure is
    # not the failing step.
    p = poly_from_root_spec([], [(0.5, 1.0), (-0.5, 1.2), (1.0, 0.7), (-1.0, 1.5)])
    with pytest.raises(RootFindingError) as err:
        find_roots(p, tol=1e-18)
    assert err.value.residual is not None
    assert err.value.residual > 1e-18
