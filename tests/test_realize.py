import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import PROPERTY_SETTINGS, charpoly_by_cofactors
from hypothesis import given
from hypothesis import strategies as st

from signspectra import (
    FloatMatrix,
    GateError,
    block_diag,
    Polynomial,
    Quadratic,
    RationalMatrix,
    RefinedInertia,
    builtin_pattern,
    char_poly,
    coefficient_residual,
    conforms,
    find_roots,
    poly_mul,
    realize_even_sextic,
    realize_inertia,
    realize_poly,
    realize_quadratic,
    realize_sextic,
    realize_subinertia,
    refined_inertia_of,
    roots_to_quadratics,
    select_triples,
    verify_realization,
    violates_sextic_gate,
)
from signspectra import realize
from signspectra.poly import _charpoly_residual
from signspectra.verify import _all_inertia_tuples

T = builtin_pattern("T")
D = builtin_pattern("D")


def product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = poly_mul(out, p)
    return out


def even_sextic_target(b, c, d):
    return product([Polynomial((v, 0, 1)) for v in (b, c, d)])


# --- 6x6 template -----------------------------------------------------------


def template_params(m):
    # x1..x9 read back from their template entries (see realize_sextic)
    return (m[0, 0], -m[1, 1], -m[5, 4], -m[1, 0], -m[4, 1], -m[4, 0], m[5, 0], m[5, 1], m[5, 2])


def test_realize_sextic_builds_on_the_target_backend():
    target = even_sextic_target(1, 2, 3)
    assert isinstance(realize_sextic(target), RationalMatrix)
    assert isinstance(realize_sextic(target.to_float()), FloatMatrix)


def test_realize_sextic_puts_each_parameter_at_its_template_entry():
    sextics = (product([Polynomial((k, 1, 1)) for k in (1, 2, 3)]), even_sextic_target(1, 2, 3))
    for target in sextics + tuple(p.to_float() for p in sextics):
        a = target.coeffs
        one = Fraction(1) if target.backend == "rational" else 1.0
        x3 = one if a[5] == 0 else a[3] / a[5]
        m = realize_sextic(target)
        assert template_params(m) == realize._sextic_params(a, x3, one)
        assert [m[i, i + 1] for i in range(5)] == [1] * 5
        assert conforms(m, T)


def test_realize_even_sextic_frozen_examples():
    cases = [
        ((1, 2, 3), (6, 0, 11, 0, 6, 0, 1)),
        ((0, 0, 0), (0, 0, 0, 0, 0, 0, 1)),
        ((-1, 1, 0), (0, 0, -1, 0, 0, 0, 1)),
    ]
    for (b, c, d), coeffs in cases:
        m = realize_even_sextic(b, c, d)
        assert conforms(m, T)
        cp = char_poly(m)
        assert cp == Polynomial(coeffs)
        assert cp == even_sextic_target(b, c, d)
        assert cp == charpoly_by_cofactors(m)


def test_realize_even_sextic_negative_inputs():
    # all-real eigenvalue case: (t**2-4)(t**2-9)(t**2-16)
    m = realize_even_sextic(-4, -9, -16)
    assert conforms(m, T)
    assert char_poly(m) == even_sextic_target(-4, -9, -16)
    assert refined_inertia_of(m) == RefinedInertia(3, 3, 0, 0)


def test_realize_even_sextic_float_backend():
    target = even_sextic_target(1, 2, 3).to_float()
    m = realize_sextic(target)
    assert isinstance(m, FloatMatrix)
    assert conforms(m, T)
    assert coefficient_residual(char_poly(m), target) <= 1e-12
    # float values give the float construction, as realize_sextic does
    assert realize_even_sextic(1.0, 2.0, 3.0) == m
    assert realize_even_sextic(1, 2.0, Fraction(3)) == m


def test_realize_even_sextic_rejects_a_bool():
    # a bool is an int to isinstance; True would read as 1
    for values in ((True, 2, 3), (1, 2, False), (1.0, True, 3.0)):
        with pytest.raises(TypeError, match="bool"):
            realize_even_sextic(*values)


def test_realize_even_sextic_random_exact():
    rng = random.Random(20240818)
    for _ in range(25):
        b, c, d = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))
        m = realize_even_sextic(b, c, d)
        assert conforms(m, T)
        assert char_poly(m) == even_sextic_target(b, c, d)


# --- general sextic realizer ------------------------------------------------


def test_realize_sextic_frozen_example():
    target = product([Polynomial((k, 1, 1)) for k in (1, 2, 3)])
    assert target.coeffs == tuple(Fraction(c) for c in (6, 11, 17, 13, 9, 3, 1))
    m = realize_sextic(target)
    assert conforms(m, T)
    assert char_poly(m) == target
    assert charpoly_by_cofactors(m) == target


def test_realize_sextic_repeated_real_root():
    target = product([Polynomial((1, 1))] * 6)  # (t+1)**6
    assert target.coeffs == tuple(Fraction(c) for c in (1, 6, 15, 20, 15, 6, 1))
    m = realize_sextic(target)
    assert char_poly(m) == target
    assert refined_inertia_of(m) == RefinedInertia(0, 6, 0, 0)


def test_realize_sextic_negative_a5():
    target = product([Polynomial((-1, 1))] * 6)  # (t-1)**6, a5 = -6, a3 = -20
    m = realize_sextic(target)
    assert conforms(m, T)
    assert char_poly(m) == target


def assert_realizes_sextic(target):
    m = realize_sextic(target)
    assert conforms(m, T)
    assert char_poly(m) == target
    assert charpoly_by_cofactors(m) == target


def test_realize_sextic_gate_rejections():
    assert_realizes_sextic(even_sextic_target(1, 1, 1))  # a3 = a5 = 0: realizable
    with pytest.raises(GateError):
        realize_sextic(Polynomial((0, 0, 0, 1, 0, 0, 1)))  # a5 = 0, a3 = 1
    with pytest.raises(GateError):
        realize_sextic(Polynomial((1, 0, 0, -1, 0, 1, 1)))  # a3/a5 = -1
    with pytest.raises(GateError):
        realize_sextic(Polynomial((1, 0, 0, 0, 0, 1, 1)))  # a3 = 0
    with pytest.raises(ValueError, match="degree 6"):
        realize_sextic(Polynomial((1, 0, 0, 0, 0, 1)))


def test_realize_sextic_a3_a5_zero_targets():
    # a3 = a5 = 0 leaves x3 free; odd a1 and a repeated root included
    for coeffs in ((0, 1, 0, 0, 0, 0, 1), (0,) * 6 + (1,), (1, 0, 1, 0, 3, 0, 1)):
        assert_realizes_sextic(Polynomial(coeffs))


def test_realize_sextic_raises_exactly_on_the_gate():
    rng = random.Random(4242)
    rejected = 0
    for _ in range(300):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(6)]
        for k in (3, 5):
            if rng.random() < 0.4:
                coeffs[k] = Fraction(0)
        target = Polynomial(tuple(coeffs) + (Fraction(1),))
        if violates_sextic_gate(target):
            rejected += 1
            with pytest.raises(GateError):
                realize_sextic(target)
        else:
            m = realize_sextic(target)
            assert conforms(m, T)
            assert char_poly(m) == target
            # the one-pass margins equal the substituted closed forms exactly
            a0, a1, a2, _, a4, a5 = coeffs
            x1, x2, x3, _, x5, x6, x7, x8, x9 = template_params(m)
            k5 = x3 * x3 - a4 * x3 + a2
            u = a1 + x1 * x5 + a5 * x9
            w = a0 - x9 * (x3 - a4)
            assert x2 == a5 + x1
            assert x5 == k5 + x9
            assert x6 == u + x8
            assert x7 == x1 * x8 - w
    assert 0 < rejected < 300


def test_extreme_float_target_misses_the_residual_bound():
    # float t^16 + 1e300: every 2x2 block carries its determinant at the
    # scale p0**2 ~ 1e75, so the exact residual misses 10 * tol * degree and
    # realize_poly reports it as an internal failure of a valid input
    target = Polynomial((1e300,) + (0.0,) * 15 + (1.0,))
    with pytest.raises(ArithmeticError, match="exceeds the bound 10\\*tol\\*degree"):
        realize_poly(target, 1, 5)


def test_realize_sextic_float_margins_survive_cancellation():
    # x6 and x7 written as differences cancel below zero in floats on this
    # sextic; the direct margins keep the rational x1 and a tiny residual
    quads = ((1651.423, 841261.755), (1595.815, 660342.651), (1237.262, 958337.488))
    target = product([Polynomial((b, a, 1.0)) for a, b in quads])
    m = realize_sextic(target)
    assert all(math.isfinite(x) for x in template_params(m))
    assert template_params(m)[0] == 4485.5
    assert conforms(m, T)
    assert _charpoly_residual(m, target) <= 1e-13


def test_gate_compares_signs_without_float_underflow():
    # a3 / a5 = 1e-400 underflows to 0.0 in floats; the gate must still pass
    # it, and the underflowed x3 is then a construction failure
    target = Polynomial((1.0, 0, 0, 1e-200, 0, 1e200, 1.0))
    assert not violates_sextic_gate(target)
    assert not violates_sextic_gate(target.lift())
    with pytest.raises(ArithmeticError, match="x3 = 0.0"):
        realize_sextic(target)
    m = realize_sextic(target.lift())
    assert conforms(m, T)
    assert char_poly(m) == target.lift()


_MAGNITUDE = st.floats(-3.0, 12.0).map(lambda e: 10.0**e)


@PROPERTY_SETTINGS
@given(
    sign=st.sampled_from((-1.0, 0.0, 1.0)),
    quads=st.lists(st.tuples(_MAGNITUDE, _MAGNITUDE), min_size=3, max_size=3),
)
def test_realize_sextic_float_sign_homogeneous_triples(sign, quads):
    # a sign-homogeneous triple always passes the gate; on floats the result
    # is a positive finite parameter set or an ArithmeticError, nothing else
    target = product([Polynomial((b, sign * a, 1.0)) for a, b in quads])
    assert not violates_sextic_gate(target)
    try:
        m = realize_sextic(target)
    except ArithmeticError:
        return
    assert all(0 < x < math.inf for x in template_params(m))
    assert conforms(m, T)


_RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@PROPERTY_SETTINGS
@given(
    low=st.tuples(_RATIONAL, _RATIONAL, _RATIONAL),
    a5=_RATIONAL,
    ratio=st.one_of(st.none(), st.builds(Fraction, st.integers(1, 50), st.integers(1, 12))),
    gap=st.one_of(_RATIONAL, _RATIONAL.map(lambda r: r * r)),
)
def test_realize_sextic_exact_parameters_equal_the_fraction_formulas(low, a5, ratio, gap):
    # the integer kernel against _sextic_params on Fractions: a3 = a5 = 0 when
    # ratio is None or a5 = 0, a5 of either sign, and x3 - a4 = gap negative
    # (s = 0), a rational square (s exact) or a non-square (s rounded up)
    a3, a5 = (Fraction(0), Fraction(0)) if ratio is None else (ratio * a5, a5)
    one = Fraction(1)
    x3 = one if a5 == 0 else ratio
    target = Polynomial((*low, a3, x3 - gap, a5, one))
    assert not violates_sextic_gate(target)
    m = realize_sextic(target)
    assert template_params(m) == realize._sextic_params(target.coeffs, x3, one)
    assert all(type(e) is Fraction for row in m.entries for e in row)


def test_realize_sextic_random_exact():
    rng = random.Random(77)
    count = 0
    while count < 25:
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(6)]
        a3, a5 = coeffs[3], coeffs[5]
        if a5 == 0 or a3 / a5 <= 0:
            continue
        count += 1
        target = Polynomial(tuple(coeffs) + (Fraction(1),))
        m = realize_sextic(target)
        assert conforms(m, T)
        assert char_poly(m) == target


# --- 2x2 realizer ------------------------------------------------------------


def test_realize_quadratic_frozen_construction():
    m = realize_quadratic(0, 1)
    assert m.entries == ((Fraction(3), Fraction(1)), (Fraction(-10), Fraction(-3)))
    assert char_poly(m) == Polynomial((1, 0, 1))

    m = realize_quadratic(0, 0)
    assert m.entries == ((Fraction(2), Fraction(1)), (Fraction(-4), Fraction(-2)))
    assert char_poly(m) == Polynomial((0, 0, 1))


def test_realize_quadratic_real_spectrum():
    m = realize_quadratic(-3, 2)
    assert char_poly(m) == Polynomial((2, -3, 1))
    assert find_roots(char_poly(m)).roots == (1 + 0j, 2 + 0j)


def test_realize_quadratic_conforms_and_exact():
    rng = random.Random(13)
    for _ in range(50):
        p1 = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
        p0 = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
        m = realize_quadratic(p1, p0)
        assert conforms(m, D)
        assert char_poly(m) == Polynomial((p0, p1, 1))


def test_realize_quadratic_float_backend():
    m = realize_quadratic(0.5, -2.0)
    assert isinstance(m, FloatMatrix)
    assert conforms(m, D)
    assert coefficient_residual(char_poly(m), Polynomial((-2.0, 0.5, 1.0))) <= 1e-15
    # one float commits both coefficients to floats, as in Polynomial
    assert realize_quadratic(Fraction(1, 2), -2.0) == m
    assert realize_quadratic(0.5, -2) == m
    assert isinstance(realize_quadratic(Fraction(1, 2), -2), RationalMatrix)


@pytest.mark.parametrize("one", [1, 1.0], ids=["rational", "float"])
def test_realize_quadratic_rejects_a_bool(one):
    # a bool is an int to isinstance; True, False would realize t**2 + t
    with pytest.raises(TypeError, match="bool"):
        realize_quadratic(True, False)
    with pytest.raises(TypeError, match="bool"):
        realize_quadratic(one, False)
    with pytest.raises(TypeError, match="bool"):
        realize_quadratic(True, one)


# --- triple selection ---------------------------------------------------------


def quads_from_a(avals, b=1.0):
    return [Quadratic(float(a), float(b)) for a in avals]


def test_select_triple_zero_class_snaps():
    quads = quads_from_a([1e-12, -1e-12, 0.0, 5e-13, 2.0, -2.0, 3e-13, 1e-12])
    sel = select_triples(quads, 1, 1e-9)
    assert sel.labels == ("zero",)
    assert all(q.a == 0.0 for q in sel.triples[0])
    assert sel.snapped[0] == pytest.approx(2e-12)
    assert len(sel.rest) == 5


def test_select_triple_majority_class_in_input_order():
    quads = quads_from_a([1.0, 2.0, -1.0, -2.0, 3.0, -3.0, 0.0, 4.0])
    sel = select_triples(quads, 1, 1e-9)
    assert sel.labels == ("positive",)
    assert tuple(q.a for q in sel.triples[0]) == (1.0, 2.0, 3.0)
    assert tuple(q.a for q in sel.rest) == (-1.0, -2.0, -3.0, 0.0, 4.0)
    assert sel.snapped == (0.0,)


def test_select_triple_negative_class_can_win():
    quads = quads_from_a([1e-12, -1e-12, 1.0, 2.0, -1.0, -2.0, -3.0])
    quads.append(Quadratic(0.0, -1.0))  # negative constant term: excluded from classes
    sel = select_triples(quads, 1, 1e-9)
    assert sel.labels == ("negative",)
    assert tuple(q.a for q in sel.triples[0]) == (-1.0, -2.0, -3.0)
    assert Quadratic(0.0, -1.0) in sel.rest


def test_select_triple_tie_breaks():
    # zero and positive classes tie at 3: zero wins
    quads = quads_from_a([1e-12, 0.0, -5e-13, 1.0, 2.0, 5.0, -1.0, -2.0])
    assert select_triples(quads, 1, 1e-9).labels == ("zero",)
    # positive and negative tie at 3: positive wins
    quads = quads_from_a([1e-12, -1e-12, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    assert select_triples(quads, 1, 1e-9).labels == ("positive",)


def test_select_triples_takes_the_largest_class_at_each_turn():
    # five positive, four zero, four negative and one b < 0: positive, then
    # zero (its tie with negative at four goes to zero), then negative
    quads = quads_from_a([1.0, 0.0, -1.0, 2.0, 1e-12, -2.0, 3.0, -3.0, 4.0, 0.0, 5.0, -4.0, 0.0])
    quads.append(Quadratic(7.0, -1.0))
    sel = select_triples(quads, 3, 1e-9)
    assert sel.labels == ("positive", "zero", "negative")
    assert [[q.a for q in triple] for triple in sel.triples] == [
        [1.0, 2.0, 3.0],
        [0.0, 0.0, 0.0],
        [-1.0, -2.0, -3.0],
    ]
    assert sel.snapped == (0.0, 1e-12, 0.0)
    assert sel.rest == (*quads_from_a([4.0, 5.0, -4.0, 0.0]), Quadratic(7.0, -1.0))
    assert select_triples(quads, 0, 1e-9) == realize.TripleSelection((), tuple(quads), (), ())


def test_select_triple_validation():
    with pytest.raises(ValueError, match="need at least 8 quadratics"):
        select_triples(quads_from_a([1.0] * 7), 1, 1e-9)
    with pytest.raises(ValueError, match="need at least 11 quadratics"):
        select_triples(quads_from_a([1.0] * 10), 2, 1e-9)
    bad = quads_from_a([1.0] * 6) + [Quadratic(1.0, -1.0), Quadratic(2.0, -2.0)]
    with pytest.raises(ValueError, match="at most one"):
        select_triples(bad, 1, 1e-9)
    with pytest.raises(ValueError, match="eps_zero"):
        select_triples(quads_from_a([1.0] * 8), 1, 0.0)


@pytest.mark.parametrize("eps_zero", [math.nan, math.inf])
def test_select_triples_rejects_a_non_finite_eps_zero(eps_zero):
    # at NaN every comparison is false, so a = 1e-12 fell in the positive
    # class; at inf a = 2 and a = 3 were snapped to 0
    quads = quads_from_a([1e-12, 2.0, 3.0, 4.0, -1.0, -2.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="eps_zero must be positive and finite"):
        select_triples(quads, 1, eps_zero)


EPS_ZERO = 1e-9
_A_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, EPS_ZERO, -EPS_ZERO, math.nextafter(EPS_ZERO, 1.0)]),
    st.floats(-2 * EPS_ZERO, 2 * EPS_ZERO),
    st.floats(-1e3, 1e3),
)


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(_A_VALUES, st.floats(0.0, 1e3)), min_size=8, max_size=14),
    st.one_of(st.none(), st.integers(0, 13)),
)
def test_select_triple_always_takes_the_largest_class(pairs, negative_at):
    # the pigeonhole argument: with at least 8 quadratics and at most one
    # b < 0, the three classes hold 7 or more, so the largest holds 3 or more
    quads = [Quadratic(a, b) for a, b in pairs]
    if negative_at is not None and negative_at < len(quads):
        quads[negative_at] = Quadratic(quads[negative_at].a, -1.0)
    classes = {"zero": [], "positive": [], "negative": []}
    for i, q in enumerate(quads):
        if q.b >= 0:
            label = "zero" if abs(q.a) <= EPS_ZERO else "positive" if q.a > 0 else "negative"
            classes[label].append(i)
    label = max(classes, key=lambda k: len(classes[k]))
    chosen = classes[label][:3]
    assert len(chosen) == 3

    sel = select_triples(quads, 1, EPS_ZERO)
    assert sel.labels == (label,)
    if label == "zero":
        expected = [Quadratic(0.0, quads[i].b) for i in chosen]
        assert sel.snapped == (sum(abs(quads[i].a) for i in chosen),)
    else:
        expected = [quads[i] for i in chosen]
        assert sel.snapped == (0.0,)
    assert list(sel.triples[0]) == expected
    assert list(sel.rest) == [q for i, q in enumerate(quads) if i not in chosen]


def _greedy_pick(quads, eps_zero):
    # one triple as the single-pick greedy rule states it: classify what is
    # left, take the first three of the largest class (ties: zero, positive,
    # negative), snap a zero-class a to 0 and sum the |a| it drops
    classes = {"zero": [], "positive": [], "negative": []}
    for i, q in enumerate(quads):
        if not q.b < 0:
            label = "zero" if abs(q.a) <= eps_zero else "positive" if q.a > 0 else "negative"
            classes[label].append(i)
    label = max(classes, key=lambda k: len(classes[k]))
    chosen = classes[label][:3]
    snapped = 0.0
    triple = []
    for i in chosen:
        q = quads[i]
        if label == "zero" and q.a != 0:
            snapped += abs(q.a)
            q = Quadratic(0.0, q.b)
        triple.append(q)
    rest = [q for i, q in enumerate(quads) if i not in chosen]
    return tuple(triple), label, snapped, rest


@PROPERTY_SETTINGS
@given(
    st.integers(0, 4),
    st.lists(st.tuples(_A_VALUES, st.floats(0.0, 1e3)), min_size=8, max_size=20),
    st.one_of(st.none(), st.integers(0, 19)),
)
def test_select_triples_equals_successive_single_picks(t, pairs, negative_at):
    # t up to 4, as many as the 3t + 5 quadratics drawn allow
    quads = [Quadratic(a, b) for a, b in pairs]
    t = min(t, (len(quads) - 5) // 3)
    if negative_at is not None and negative_at < len(quads):
        quads[negative_at] = Quadratic(quads[negative_at].a, -1.0)
    triples, labels, snapped, rest = [], [], [], quads
    for _ in range(t):
        triple, label, s, rest = _greedy_pick(rest, EPS_ZERO)
        triples.append(triple)
        labels.append(label)
        snapped.append(s)

    sel = select_triples(quads, t, EPS_ZERO)
    assert sel.triples == tuple(triples)
    assert sel.labels == tuple(labels)
    assert sel.snapped == tuple(snapped)
    assert sel.rest == tuple(rest)


# --- block-diagonal realization ----------------------------------------------


def test_realize_poly_one_template_five_quadratics():
    f = product([Polynomial((1, 0, 1))] * 5 + [Polynomial((k, 0, 1)) for k in (2, 3, 4)])
    report = realize_poly(f, 1, 5)
    assert report.block_tags == ("T", "D", "D", "D", "D", "D")
    assert report.block_orders == (6, 2, 2, 2, 2, 2)
    assert report.matrix.n == 16
    assert report.backend == "float"
    assert conforms(report.matrix, report.pattern)
    assert report.residual <= 1e-6
    assert report.perturbation <= 1e-6
    # the target itself has all sixteen eigenvalues on the imaginary axis
    rm = find_roots(f, tol=1e-9)
    assert all(abs(z.real) <= 1e-12 and abs(z) > 0.5 for z in rm.roots)


def test_realize_poly_rational_backend_exact_residual():
    f = product([Polynomial((-1, 1))] * 5 + [Polynomial((2, 1))] * 5)  # (t-1)^5 (t+2)^5
    report = realize_poly(f, 0, 5, backend="rational")
    assert report.residual == 0.0
    assert report.block_tags == ("D",) * 5
    assert isinstance(report.matrix, RationalMatrix)
    assert char_poly(report.matrix) == f


def test_realize_poly_mixed_spectrum():
    f = product(
        [Polynomial((-1, 1))] * 3 + [Polynomial((2, 1))] * 3 + [Polynomial((1, 0, 1))] * 5
    )
    report = realize_poly(f, 1, 5)
    assert report.block_tags == ("T", "D", "D", "D", "D", "D")
    assert report.residual <= 1e-6
    assert report.perturbation == 0.0
    assert conforms(report.matrix, report.pattern)


def test_realize_poly_alternating_arrangement():
    # above the exact-split degree cap the whole pipeline runs in floats, so
    # the target population is random coefficients (simple, well-spread roots)
    rng = random.Random(404)
    f = Polynomial(tuple(rng.uniform(-5.0, 5.0) for _ in range(40)) + (1.0,))
    report = realize_poly(f, 5, 5, arrangement="alternating")
    assert report.block_tags == ("T", "D") * 5
    assert report.block_orders == (6, 2) * 5
    assert report.pattern == block_diag([builtin_pattern("TD")] * 5)
    assert report.residual <= 1e-5
    assert conforms(report.matrix, report.pattern)


def test_realize_poly_clustered_float_roots():
    # multiple roots on the float backend: the exact residual stays within
    # the suite's bound 10 * tol * degree, and the report verifies
    tol = 1e-9
    cases = (
        (Polynomial((-1.0, 1.0)), 16, 1, 5),
        (Polynomial((-3.0, 1.0)), 16, 1, 5),
        (Polynomial((-1.0, 1.0)), 64, 8, 8),
        (Polynomial((1.0, 0.0, 1.0)), 8, 1, 5),
    )
    for base, power, t, d in cases:
        f = product([base] * power)
        report = realize_poly(f, t, d, tol=tol)
        bound = 10 * tol * f.degree
        assert report.residual <= bound
        assert verify_realization(report, bound)


@PROPERTY_SETTINGS
@given(
    signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=8, max_size=8),
    quads=st.lists(
        st.tuples(st.floats(-3.0, 6.0), st.floats(-3.0, 6.0)), min_size=8, max_size=8
    ),
)
def test_realize_poly_never_returns_a_miss(signs, quads):
    # wide-range degree-16 float targets: a returned report is within the
    # bound 10 * tol * degree and verifies at it; a miss is an ArithmeticError
    tol = 1e-9
    f = product([Polynomial((10.0**eb, s * 10.0**ea, 1.0)) for s, (ea, eb) in zip(signs, quads)])
    try:
        report = realize_poly(f, 1, 5, tol=tol)
    except ArithmeticError:
        return
    bound = 10 * tol * f.degree
    assert report.residual <= bound
    assert verify_realization(report, bound)


def test_realize_poly_residual_equals_the_dense_residual():
    # the residual taken from the blocks is the dense scan's, as the same double
    rng = random.Random(12)
    cases = []
    for _ in range(3):
        f16 = Polynomial(tuple(rng.uniform(-5.0, 5.0) for _ in range(16)) + (1.0,))
        f64 = Polynomial(tuple(rng.uniform(-5.0, 5.0) for _ in range(64)) + (1.0,))
        exact = product([Polynomial((rng.randint(1, 9), rng.randint(-9, 9), 1)) for _ in range(8)])
        cases += [
            (f16, dict(t=1, d=5)),
            (f64, dict(t=8, d=8, tol=1e-7, arrangement="alternating")),
            (exact, dict(t=1, d=5, backend="rational")),
        ]
    for f, kwargs in cases:
        report = realize_poly(f, **kwargs)
        assert report.residual == _charpoly_residual(report.matrix, report.target)
        assert verify_realization(report, report.residual)


def _pinned_realizations():
    # seeded rational quadratics q1 q2^2 ... q5^5 (degree 30), t**38 times one
    # more (degree 40, also as a float target), and a degree-22 target whose
    # two triples both come from the zero class with nonzero a's; every root
    # comes from the exact squarefree split, the exact zero strip and the
    # closed-form quadratic, so no LAPACK rounding enters the digest
    rng = random.Random(29)

    def quad():
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        return Polynomial((Fraction(rng.randint(-40, 40), rng.randint(1, 9)), a, 1))

    for _ in range(2):
        q = [quad() for _ in range(5)]
        f30 = product([p for k, p in enumerate(q) for _ in range(k + 1)])
        for t, d in ((0, 15), (1, 12), (3, 6)):
            yield f30, dict(t=t, d=d)
        f40 = product([Polynomial((0, 1))] * 38 + [quad()])
        for target in (f40, f40.to_float()):
            for arrangement in ("grouped", "alternating"):
                yield target, dict(t=5, d=5, arrangement=arrangement)
    zero = [Polynomial((k, Fraction(k, 10**11), 1)) for k in (2, 3)]
    f22 = product([zero[0]] * 5 + [zero[1]] * 3 + [Polynomial((4, 3, 1))] * 2 + [Polynomial((5, -1, 1))])
    yield f22, dict(t=2, d=5)


# sha256 of json.dumps([realize_poly(f, backend=backend, **kwargs).to_dict() ...])
# over _pinned_realizations() and both backends, as the per-turn selection
# loop and the backend-coerced constructions printed them
_REALIZATIONS_SHA256 = "40c2ea82d0963f60c856299f6568485f94c6ac41e84fc80b7f423015dceb3a2f"


def test_realize_poly_reports_are_pinned():
    reports = [
        realize_poly(f, backend=backend, **kwargs)
        for f, kwargs in _pinned_realizations()
        for backend in ("float", "rational")
    ]
    assert len(reports) == 30
    # the last target's two triples are zero-class, each with a snapped a
    f22 = reports[-1].target
    quads = roots_to_quadratics(find_roots(f22))
    sel = select_triples(quads, 2, realize.zero_class_tol(quads, 1e-9))
    assert sel.labels == ("zero", "zero") and all(s > 0 for s in sel.snapped)
    assert reports[-1].perturbation == sel.snapped[0] + sel.snapped[1]
    text = json.dumps([r.to_dict() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == _REALIZATIONS_SHA256


def test_realize_poly_checks_each_block_conforms(monkeypatch):
    # a 2x2 block with one sign flipped fails the per-block check before the
    # residual bound is reached
    built = []

    def flipped(p1, p0):
        block = realize_quadratic(p1, p0)
        built.append(block)
        if len(built) == 3:
            (alpha, beta), row = block.entries
            return type(block).from_rows([(alpha, -beta), row])
        return block

    monkeypatch.setattr(realize, "realize_quadratic", flipped)
    f = product([Polynomial((k, 0, 1)) for k in range(1, 9)])
    with pytest.raises(ArithmeticError, match="does not conform"):
        realize_poly(f, 1, 5)
    assert len(built) == 5


def test_realize_poly_validation():
    f10 = product([Polynomial((k, 0, 1)) for k in (1, 2, 3, 4, 5)])
    with pytest.raises(ValueError, match="at least 5"):
        realize_poly(f10, 0, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        realize_poly(f10, -1, 8)
    with pytest.raises(ValueError, match="degree must be"):
        realize_poly(f10, 1, 5)
    with pytest.raises(ValueError, match="arrangement"):
        realize_poly(f10, 0, 5, arrangement="stacked")
    with pytest.raises(ValueError, match="t == d"):
        f16 = product([Polynomial((k, 0, 1)) for k in (1, 2, 3, 4, 5, 6, 7, 8)])
        realize_poly(f16, 1, 5, arrangement="alternating")
    with pytest.raises(ValueError, match="backend"):
        realize_poly(f10, 0, 5, backend="decimal")


def test_realize_poly_rejects_tolerance_of_one_or_more():
    # a backward error never exceeds 1, so at tol >= 1 the root certificate
    # passes any point and the bound 10 * tol * degree passes any residual
    rng = random.Random(3)
    f = Polynomial(tuple(rng.uniform(-5.0, 5.0) for _ in range(16)) + (1.0,))
    for tol in (1.0, 1e10):
        with pytest.raises(ValueError, match="tol must be below 1"):
            realize_poly(f, 1, 5, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        realize_poly(f, 1, 5, tol=math.inf)


def test_realize_poly_report_serializes():
    f = product([Polynomial((-1, 1))] * 5 + [Polynomial((2, 1))] * 5)
    report = realize_poly(f, 0, 5, backend="rational")
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert list(data) == [
        "matrix",
        "pattern",
        "target",
        "residual",
        "perturbation",
        "block_orders",
        "block_tags",
        "backend",
    ]
    assert data["block_tags"] == ["D"] * 5
    assert data["residual"] == 0.0
    assert data["matrix"]["n"] == 10


# --- refined inertia realization -----------------------------------------------


def test_realize_subinertia_axis_heavy_cases():
    mu, m = realize_subinertia((0, 0, 8, 0))
    assert mu == RefinedInertia(0, 0, 6, 0)
    assert char_poly(m) == Polynomial((0, 0, 0, 0, 0, 0, 1))

    mu, m = realize_subinertia((0, 0, 2, 3))
    assert mu == RefinedInertia(0, 0, 0, 3)
    assert refined_inertia_of(m) == mu


def test_realize_subinertia_off_axis_case():
    nu = RefinedInertia(4, 4, 0, 0)
    mu, m = realize_subinertia(nu)
    assert mu.order() == 6
    assert nu.dominates(mu)
    assert conforms(m, T)
    assert refined_inertia_of(m) == mu


def test_realize_subinertia_validation():
    with pytest.raises(ValueError, match="total 8"):
        realize_subinertia((1, 1, 1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        realize_subinertia((-1, 1, 0, 4))


def test_realize_subinertia_raises_when_no_cubic_scale_passes_the_gate(monkeypatch):
    # the cubic t**3 at every N: nu = (3, 1, 4, 0) keeps mu = (3, 1, 2, 0), so
    # h = (t + 1) t**2 and the sextic t**6 + t**5 has a3 = 0 but a5 = 1
    monkeypatch.setattr(realize, "_CUBICS", (((3, 0), (0, 0, 0)),))
    with pytest.raises(ArithmeticError, match=r"\(3, 1, 4, 0\)"):
        realize_subinertia((3, 1, 4, 0))


def test_realize_inertia_spot_checks():
    td = builtin_pattern("TD")
    for nu in [(3, 3, 0, 1), (0, 0, 0, 4), (8, 0, 0, 0), (1, 1, 6, 0), (0, 5, 3, 0)]:
        m = realize_inertia(nu)
        assert m.n == 8
        assert conforms(m, td)
        assert refined_inertia_of(m) == RefinedInertia(*nu)


def test_refined_inertias_of_total_8_reach_every_branch_and_no_other(monkeypatch):
    # The 95 tuples of total 8 are the whole domain of realize_subinertia and
    # realize_inertia.  Over it, some cubic split always fits, the doubling
    # of the cubic scale N stops by N = 8, and every leftover nu - mu is one
    # of seven tuples, so none of these needs a fallback.
    gate = realize._gate_fails
    calls = []
    monkeypatch.setattr(realize, "_gate_fails", lambda a3, a5: calls.append((a3, a5)) or gate(a3, a5))
    paths = Counter()
    leftovers = Counter()
    quads = {}
    for nu in _all_inertia_tuples():
        calls.clear()
        mu, _ = realize_subinertia(nu)
        # the scale loop tests the gate on (a3, a5) once per N, and
        # realize_sextic once more on the sextic it is given: that is the even
        # sextic's only call, and the last of the cubic path's
        if len(calls) == 1:
            assert calls[0] == (0, 0)
            paths["even sextic"] += 1
        else:
            paths[f"N = {2 ** (len(calls) - 2)}"] += 1
        leftover = tuple(a - b for a, b in zip(nu, mu))
        leftovers[leftover] += 1
        # the 2x2 block's char poly t**2 + p1*t + p0, from its trace and det
        (a11, a12), (a21, a22) = (row[6:] for row in realize_inertia(nu).entries[6:])
        quads.setdefault(leftover, set()).add((-(a11 + a22), a11 * a22 - a12 * a21))
    assert paths == {"even sextic": 25, "N = 1": 37, "N = 2": 17, "N = 4": 12, "N = 8": 4}
    assert leftovers == {
        (0, 0, 2, 0): 26,
        (0, 0, 0, 1): 32,
        (1, 1, 0, 0): 5,
        (2, 0, 0, 0): 8,
        (0, 2, 0, 0): 8,
        (1, 0, 1, 0): 8,
        (0, 1, 1, 0): 8,
    }
    # each leftover gets one quadratic (p1, p0): one root per eigenvalue class
    assert quads == {
        (0, 0, 2, 0): {(0, 0)},
        (0, 0, 0, 1): {(0, 1)},
        (1, 1, 0, 0): {(0, -1)},
        (2, 0, 0, 0): {(-2, 1)},
        (0, 2, 0, 0): {(2, 1)},
        (1, 0, 1, 0): {(-1, 0)},
        (0, 1, 1, 0): {(1, 0)},
    }


# sha256 of json.dumps([realize_inertia(nu).to_dict() for nu in _all_inertia_tuples()]),
# the 95 matrices as the Fraction construction printed them
_INERTIA_MATRICES_SHA256 = "5884aa6962c90d5461238ee55ee2c3141544386062b2ccb2296ce00574fa6a41"


def test_realize_inertia_matrices_are_pinned_and_all_fractions():
    matrices = [realize_inertia(nu) for nu in _all_inertia_tuples()]
    assert len(matrices) == 95
    # an int or a float (a / between two ints) leaking into an entry fails here
    assert all(type(e) is Fraction for m in matrices for row in m.entries for e in row)
    text = json.dumps([m.to_dict() for m in matrices])
    assert hashlib.sha256(text.encode()).hexdigest() == _INERTIA_MATRICES_SHA256


def test_realize_inertia_validation():
    with pytest.raises(ValueError, match="total 8"):
        realize_inertia((2, 2, 2, 2))
