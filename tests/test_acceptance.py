"""Acceptance gate: one pass/fail line per criterion, frozen tolerances.

Each test prints exactly one line of the form

    ACCEPTANCE <n> <name>: PASS|FAIL (<details>)

and fails loudly when its criterion is not met.  Criteria and tolerances are
the package's external contract; do not weaken them.
"""

import random
import time
from fractions import Fraction

from conftest import PROPERTY_SETTINGS, charpoly_by_cofactors, poly_from_root_spec
from hypothesis import assume, given
from hypothesis import strategies as st

from signspectra import (
    Polynomial,
    RationalMatrix,
    RefinedInertia,
    Sign,
    SignPattern,
    block_diag,
    builtin_pattern,
    char_poly,
    check_divisor_obstruction,
    check_identity,
    coefficient_residual,
    conforms,
    find_roots,
    is_superpattern,
    poly_mul,
    random_monic_polynomial,
    realize_even_sextic,
    realize_inertia,
    realize_poly,
    realize_sextic,
    refined_inertia_of,
    roots_to_quadratics,
)


def _report(num: int, name: str, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {num} ({name}) failed: {details}"


def _product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = poly_mul(out, p)
    return out


def test_criterion_1_even_sextic_exact():
    rng = random.Random(1001)
    t = builtin_pattern("T")
    start = time.perf_counter()
    good = 0
    for _ in range(50):
        b, c, d = (Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(3))
        m = realize_even_sextic(b, c, d)
        target = _product([Polynomial((v, 0, 1)) for v in (b, c, d)])
        if conforms(m, t) and char_poly(m) == target:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == 50 and elapsed < 1.0
    _report(1, "even sextic realization", ok, f"{good}/50 exact and conforming, {elapsed:.2f}s < 1s")


def test_criterion_2_gated_sextic_exact():
    # targets: products of three quadratics t^2 + a t + b with the three a
    # sharing one sign and b >= 0, which always pass the a3/a5 gate
    rng = random.Random(1002)
    t = builtin_pattern("T")
    start = time.perf_counter()
    good = 0
    for _ in range(50):
        sign = rng.choice((1, -1))
        quads = [
            Polynomial(
                (
                    Fraction(rng.randint(0, 12), rng.randint(1, 6)),
                    sign * Fraction(rng.randint(1, 12), rng.randint(1, 6)),
                    Fraction(1),
                )
            )
            for _ in range(3)
        ]
        target = _product(quads)
        m = realize_sextic(target)
        if conforms(m, t) and char_poly(m) == target:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == 50 and elapsed < 1.0
    _report(2, "gated sextic realization", ok, f"{good}/50 exact and conforming, {elapsed:.2f}s < 1s")


def test_criterion_3_degree16_composite():
    rng = random.Random(42)
    s = builtin_pattern("S")
    good = 0
    worst = 0.0
    slowest = 0.0
    for _ in range(100):
        f = random_monic_polynomial(16, rng)
        t0 = time.perf_counter()
        rep = realize_poly(f, 1, 5)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        worst = max(worst, rep.residual)
        if conforms(rep.matrix, s) and rep.pattern == s and rep.residual <= 1e-6:
            good += 1
    ok = good == 100 and slowest < 2.0
    _report(
        3,
        "degree-16 composite realization",
        ok,
        f"{good}/100 conforming with residual <= 1e-6 (worst {worst:.2e}), slowest {slowest:.3f}s < 2s",
    )


def test_criterion_4_exact_identities():
    rt = check_identity("T", samples=1000, seed=42)
    rtp = check_identity("Tprime", samples=1000, seed=7)
    ok = rt.all_passed and rtp.all_passed
    _report(
        4,
        "coefficient identities",
        ok,
        f"T {rt.samples} samples seed {rt.seed}, Tprime {rtp.samples} samples seed {rtp.seed}, 0 failures",
    )


def test_criterion_5_divisor_obstruction():
    report = check_divisor_obstruction()
    factors = list(report.factors)
    n = len(factors)
    oracle_ok = True
    seen = []
    for mask in range(1, 1 << n):
        chosen = [factors[i] for i in range(n) if mask >> i & 1]
        if sum(f.degree for f in chosen) != 6:
            continue
        divisor = _product(chosen)
        rest = [factors[i] for i in range(n) if not mask >> i & 1]
        oracle_ok = oracle_ok and _product([divisor] + rest) == report.target
        seen.append(divisor)
    witness = Polynomial((2, 1, 4, 1, 3, 0, 1))
    ok = (
        report.passed
        and report.count == 4
        and all(report.violations)
        and oracle_ok
        and seen == list(report.divisors)
        and witness in seen
        and witness.coeffs[5] == 0
        and witness.coeffs[3] == 1
    )
    _report(
        5,
        "divisor obstruction",
        ok,
        f"{report.count} degree-6 divisors, all violate the gate, witness with a5=0 a3=1 present, "
        f"divisor*cofactor oracle exact",
    )


def test_criterion_6_all_inertias():
    td = builtin_pattern("TD")
    start = time.perf_counter()
    tuples = []
    for ni in range(5):
        rest = 8 - 2 * ni
        for nz in range(rest + 1):
            for npos in range(rest - nz + 1):
                tuples.append(RefinedInertia(npos, rest - nz - npos, nz, ni))
    good = 0
    for nu in tuples:
        m = realize_inertia(nu)
        if conforms(m, td) and refined_inertia_of(m) == nu:
            good += 1
    elapsed = time.perf_counter() - start
    ok = len(tuples) == 95 and good == 95 and elapsed < 30.0
    _report(
        6,
        "all refined inertias of total 8",
        ok,
        f"{good}/{len(tuples)} realized and classified exactly, {elapsed:.2f}s < 30s",
    )


def test_criterion_7_degree64_chain():
    rng = random.Random(7)
    u3 = builtin_pattern("U3")
    chain = block_diag([u3, u3])
    start = time.perf_counter()
    good = 0
    worst = 0.0
    for _ in range(10):
        f = random_monic_polynomial(64, rng)
        rep = realize_poly(f, 8, 8, tol=1e-7, arrangement="alternating")
        worst = max(worst, rep.residual)
        if rep.pattern == chain and conforms(rep.matrix, chain) and rep.residual <= 1e-5:
            good += 1
    elapsed = time.perf_counter() - start
    base_blocked = check_divisor_obstruction().passed
    ok = good == 10 and elapsed < 60.0 and base_blocked
    _report(
        7,
        "degree-64 chain realization",
        ok,
        f"{good}/10 with residual <= 1e-5 (worst {worst:.2e}), {elapsed:.2f}s < 60s; "
        f"single 8x8 link blocked by exact obstruction",
    )


# --- criterion 8: property suites (>= 200 cases each) ---------------------------

_SIGNS = (Sign.PLUS, Sign.MINUS, Sign.ZERO)


@st.composite
def _two_rational_matrices(draw):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    mats = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=4))
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        mats.append(RationalMatrix.from_rows(rows))
    return mats


@st.composite
def _pattern_chain(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    top_rows = [[draw(st.sampled_from(_SIGNS)) for _ in range(n)] for _ in range(n)]
    chain = [SignPattern(tuple(tuple(r) for r in top_rows))]
    rows = top_rows
    for _ in range(2):
        rows = [
            [Sign.ZERO if draw(st.booleans()) else rows[i][j] for j in range(n)]
            for i in range(n)
        ]
        chain.append(SignPattern(tuple(tuple(r) for r in rows)))
    return chain


@st.composite
def _separated_root_spec(draw):
    # grid spacing 0.05 keeps every root simple and well separated
    real_grid = draw(
        st.lists(st.integers(min_value=-40, max_value=40), max_size=4, unique=True)
    )
    if len(real_grid) % 2:
        real_grid = real_grid[:-1]
    pair_grid = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-40, max_value=40),
                st.integers(min_value=2, max_value=40),
            ),
            max_size=3,
            unique=True,
        )
    )
    assume(len(real_grid) + 2 * len(pair_grid) >= 2)
    reals = [k / 20 for k in real_grid]
    pairs = [(a / 20, b / 20) for a, b in pair_grid]
    return reals, pairs


def test_criterion_8_property_suites():
    counts = {}

    @PROPERTY_SETTINGS
    @given(_two_rational_matrices())
    def block_charpoly_multiplies(mats):
        counts["blocks"] = counts.get("blocks", 0) + 1
        a, b = mats
        whole = block_diag([a, b])
        product = poly_mul(char_poly(a), char_poly(b))
        assert char_poly(whole) == product
        # char_poly splits at block cuts itself, so also check an independent path
        assert charpoly_by_cofactors(whole) == product

    @PROPERTY_SETTINGS
    @given(_pattern_chain())
    def superpattern_is_a_partial_order(chain):
        counts["order"] = counts.get("order", 0) + 1
        top, mid, low = chain
        assert is_superpattern(top, top)
        assert is_superpattern(top, mid)
        assert is_superpattern(mid, low)
        assert is_superpattern(top, low)
        if mid != top:
            assert not is_superpattern(mid, top)
        if low != mid:
            assert not is_superpattern(low, mid)

    @PROPERTY_SETTINGS
    @given(_separated_root_spec())
    def quadratic_split_reconstructs(root_spec):
        counts["reconstruct"] = counts.get("reconstruct", 0) + 1
        reals, pairs = root_spec
        p = poly_from_root_spec(reals, pairs)
        rm = find_roots(p, tol=1e-9)
        prod = Polynomial((1,))
        for q in roots_to_quadratics(rm):
            prod = poly_mul(prod, q.lift().to_polynomial())
        assert coefficient_residual(prod, p) <= 10 * 1e-9 * p.degree

    @PROPERTY_SETTINGS
    @given(_separated_root_spec())
    def at_most_one_negative_constant(root_spec):
        counts["negb"] = counts.get("negb", 0) + 1
        reals, pairs = root_spec
        p = poly_from_root_spec(reals, pairs)
        quads = roots_to_quadratics(find_roots(p, tol=1e-9))
        assert sum(1 for q in quads if q.b < 0) <= 1

    block_charpoly_multiplies()
    superpattern_is_a_partial_order()
    quadratic_split_reconstructs()
    at_most_one_negative_constant()

    ok = all(counts.get(k, 0) >= 200 for k in ("blocks", "order", "reconstruct", "negb"))
    _report(
        8,
        "property suites",
        ok,
        "block char poly multiplicativity {blocks}, superpattern partial order {order}, "
        "quadratic reconstruction {reconstruct}, negative-constant cap {negb} cases".format(
            **counts
        ),
    )
