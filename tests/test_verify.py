import dataclasses
import importlib
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import charpoly_by_cofactors

from signspectra import (
    Polynomial,
    RationalMatrix,
    RealizationReport,
    RefinedInertia,
    Sign,
    block_diag,
    builtin_pattern,
    char_poly,
    check_divisor_obstruction,
    check_identity,
    conforms,
    poly_mul,
    random_monic_polynomial,
    realize_even_sextic,
    realize_poly,
    run_theorem_suite,
    sample_conforming_matrix,
    verify_realization,
    violates_sextic_gate,
)
from signspectra import verify
from signspectra.cli import main

T6 = Polynomial((0, 0, 0, 0, 0, 0, 1))


# --- samplers -----------------------------------------------------------------


def test_random_monic_polynomial_shape():
    rng = random.Random(1)
    p = random_monic_polynomial(16, rng)
    assert p.degree == 16
    assert p.backend == "float"
    assert p.coeffs[-1] == 1.0
    assert all(-5.0 <= c <= 5.0 for c in p.coeffs[:-1])
    # deterministic for a fixed seed
    assert random_monic_polynomial(16, random.Random(1)).coeffs == p.coeffs


def test_sample_conforming_matrix_respects_pattern():
    pattern = builtin_pattern("Tprime")
    rng = random.Random(2)
    for _ in range(10):
        m = sample_conforming_matrix(pattern, rng)
        assert conforms(m, pattern)
        for i in range(pattern.n):
            for j in range(pattern.n):
                if pattern[i, j] is Sign.ZERO:
                    assert m[i, j] == 0
                else:
                    assert Fraction(1, 100) <= abs(m[i, j]) <= 100


# --- exact coefficient identities ----------------------------------------------


def test_check_identity_smoke():
    cases = [("T", 42), ("Tprime", 7)] + [(w, s) for w in ("T", "Tprime") for s in range(5)]
    for which, seed in cases:
        report = check_identity(which, samples=200, seed=seed)
        assert report.to_dict() == {
            "pattern": builtin_pattern(which).to_dict(),
            "samples": 200,
            "seed": seed,
            "all_passed": True,
            "first_failure": None,
        }
        json.dumps(report.to_dict())


def test_check_identity_shares_no_code_with_char_poly(monkeypatch):
    poly = importlib.import_module("signspectra.poly")

    def broken(*args):
        raise AssertionError("the identity check reached char_poly")

    monkeypatch.setattr(poly, "_charpoly_int", broken)
    monkeypatch.setattr(poly, "_linear_subdigraphs", broken)
    with pytest.raises(AssertionError, match="reached char_poly"):
        char_poly(realize_even_sextic(1, 2, 3))
    for which in ("T", "Tprime"):
        assert check_identity(which, samples=50, seed=3).all_passed


def test_check_identity_first_failure_is_the_drawn_sample(monkeypatch):
    # failing the identity on the k-th sample reports exactly the k-th draw
    # of sample_conforming_matrix, so the RNG order and the signs are shared
    verify = importlib.import_module("signspectra.verify")
    for which in ("T", "Tprime"):
        pattern = builtin_pattern(which)
        for seed, k in ((0, 1), (11, 3)):
            calls = []

            def fail_on_kth(which_arg, a, support, calls=calls, k=k):
                calls.append(which_arg)
                return len(calls) < k

            monkeypatch.setattr(verify, "_identity_holds", fail_on_kth)
            report = check_identity(which, samples=5, seed=seed)
            rng = random.Random(seed)
            draws = [sample_conforming_matrix(pattern, rng) for _ in range(k)]
            assert not report.all_passed
            assert calls == [which] * k
            assert report.first_failure == draws[-1]
            assert conforms(report.first_failure, pattern)


def test_sample_conforming_matrix_pinned_draw():
    m = sample_conforming_matrix(builtin_pattern("Tprime"), random.Random(2024))
    assert m.to_dict()["entries"] == [
        ["61/24", "94/75", "0", "0", "0", "0"],
        ["-3/2", "-93/53", "97/92", "0", "0", "0"],
        ["49/17", "0", "0", "69/32", "0", "0"],
        ["0", "0", "0", "0", "82/95", "0"],
        ["-32/23", "-27/34", "0", "0", "0", "94/79"],
        ["7/10", "10/13", "43/67", "0", "-5/47", "0"],
    ]


def randint_draw(pattern, rng):
    # reference sampler: k then l by randint(1, 100) at each nonzero entry,
    # row-major; returns the (signed k, l) pairs and the matrix they make
    pairs = []
    rows = [[Fraction(0)] * pattern.n for _ in range(pattern.n)]
    for i in range(pattern.n):
        for j in range(pattern.n):
            s = pattern[i, j]
            if s is not Sign.ZERO:
                k = rng.randint(1, 100)
                l = rng.randint(1, 100)
                k = k if s is Sign.PLUS else -k
                pairs.append((k, l))
                rows[i][j] = Fraction(k, l)
    return pairs, RationalMatrix.from_rows(rows)


STREAM_PATTERNS = [builtin_pattern(w) for w in ("T", "Tprime", "S", "Sprime", "U3")] + [
    builtin_pattern("V", t=4, d=6)
]


@pytest.mark.parametrize("pattern", STREAM_PATTERNS, ids=["T", "Tprime", "S", "Sprime", "U3", "V46"])
def test_sampler_consumes_the_randint_stream(pattern):
    # each draw equals the randint(1, 100) reference and leaves the generator
    # in the same state; a changed bit width, rejection bound or draw order
    # gives other numbers or another state
    verify = importlib.import_module("signspectra.verify")
    n = pattern.n
    key, positions, signs = verify._flat_pattern(pattern)
    nonzeros = [(i, j) for i in range(n) for j in range(n) if pattern[i, j] is not Sign.ZERO]
    assert [divmod(p, n) for p in positions] == nonzeros
    assert key == tuple(pattern[i, j] is not Sign.ZERO for i in range(n) for j in range(n))
    for seed in (0, 1, 7, 2024, 2**40 + 3):
        ref, mine, sampled = random.Random(seed), random.Random(seed), random.Random(seed)
        for _ in range(4):
            pairs, matrix = randint_draw(pattern, ref)
            ks, ls = verify._draw(signs, mine)
            assert len(ks) == len(ls) == len(nonzeros)
            assert list(zip(ks, ls)) == pairs
            assert mine.getstate() == ref.getstate()
            assert sample_conforming_matrix(pattern, sampled) == matrix
            assert sampled.getstate() == ref.getstate()


def test_check_identity_checks_the_sample_it_reports(monkeypatch):
    # the integer matrix handed to both checks is lcm(l) times the entries of
    # the sample_conforming_matrix draw of the same seed, row-major, on every
    # sample; conformance reads that same flat list of n*n entries, with the
    # one support pass that the identity check reads too
    verify = importlib.import_module("signspectra.verify")
    flat_conforms = verify._flat_conforms
    for which in ("T", "Tprime"):
        pattern = builtin_pattern(which)
        for seed in (0, 3, 99):
            conformed, checked = [], []

            def record_conform(a, support, *rest, conformed=conformed):
                conformed.append((a, support))
                return flat_conforms(a, support, *rest)

            def record_identity(which_arg, a, support, checked=checked):
                checked.append((a, support))
                return True

            monkeypatch.setattr(verify, "_flat_conforms", record_conform)
            monkeypatch.setattr(verify, "_identity_holds", record_identity)
            assert check_identity(which, samples=6, seed=seed).all_passed
            ref, sampled = random.Random(seed), random.Random(seed)
            expected = []
            for _ in range(6):
                pairs, _ = randint_draw(pattern, ref)
                scale = math.lcm(*(l for _, l in pairs))
                m = sample_conforming_matrix(pattern, sampled)
                expected.append([scale * e for row in m.entries for e in row])
            assert [a for a, _ in checked] == expected
            assert conformed == checked
            assert all(support == tuple(map(bool, a)) for a, support in checked)
            assert all(type(e) is int for a, _ in checked for e in a)


def _corruptions(pattern):
    # (name, flat index, how) for every entry conformance must reject: each
    # nonzero with its sign flipped or set to zero, and each zero set to +1
    n = pattern.n
    for p in range(n * n):
        if pattern[divmod(p, n)] is Sign.ZERO:
            yield "nonzero at a pattern zero", p, lambda e: 1
        else:
            yield "wrong sign at a pattern nonzero", p, lambda e: -e
            yield "zero at a pattern nonzero", p, lambda e: 0


def test_check_identity_fails_a_sample_that_does_not_conform(monkeypatch):
    # one entry of the k-th scaled sample is corrupted before its checks run:
    # conformance over all n*n entries must reject it before the identity
    # check sees it, and the report names the k-th draw of
    # sample_conforming_matrix, as drawn
    verify = importlib.import_module("signspectra.verify")
    scaled_sample, identity_holds = verify._scaled_sample, verify._identity_holds
    for which in ("T", "Tprime"):
        pattern = builtin_pattern(which)
        for seed, k in ((0, 1), (11, 3)):
            rng = random.Random(seed)
            drawn = [sample_conforming_matrix(pattern, rng) for _ in range(k)][-1]
            kinds = set()
            for name, p, how in _corruptions(pattern):
                built, identities = [], []

                def corrupt_kth(*args, built=built, p=p, how=how, k=k):
                    a = scaled_sample(*args)
                    built.append(a)
                    if len(built) == k:
                        a[p] = how(a[p])
                    return a

                def record_identity(*args, identities=identities):
                    identities.append(args)
                    return identity_holds(*args)

                monkeypatch.setattr(verify, "_scaled_sample", corrupt_kth)
                monkeypatch.setattr(verify, "_identity_holds", record_identity)
                report = check_identity(which, samples=5, seed=seed)
                assert not report.all_passed, (name, p)
                assert report.first_failure == drawn, (name, p)
                assert len(built) == k and len(identities) == k - 1, (name, p)
                kinds.add(name)
            assert len(kinds) == 3


def test_check_identity_validation():
    with pytest.raises(ValueError, match='"T" or "Tprime"'):
        check_identity("D")
    with pytest.raises(ValueError, match="at least 1"):
        check_identity("T", samples=0)
    # a report must name the run that produced it: no OS-entropy seed, no
    # bool standing in for a count, no float the sample loop cannot take
    for kwargs, name in (
        ({"seed": None}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"samples": True}, "samples"),
        ({"samples": 2.0}, "samples"),
        ({"samples": None}, "samples"),
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            check_identity("T", **kwargs)


def test_identity_terms_match_cofactor_expansion():
    # on Tprime samples the t**3 coefficient needs the 3-cycle correction
    # term; without it the plain identity must fail on generic samples
    pattern = builtin_pattern("Tprime")
    rng = random.Random(99)
    for _ in range(10):
        m = sample_conforming_matrix(pattern, rng)
        cp = char_poly(m)
        assert cp == charpoly_by_cofactors(m)
        head = m[0, 0] + m[1, 1]
        cycle = m[0, 1] * m[1, 2] * m[2, 0]
        assert cp.coeffs[5] == -head
        assert cp.coeffs[3] == head * m[4, 5] * m[5, 4] - cycle
        assert cp.coeffs[3] != head * m[4, 5] * m[5, 4]


def test_identity_check_separates_the_patterns():
    # on Tprime draws, scaled to ints as check_identity scales them, the
    # 3-cycle term changes c3, so T's identity must fail and Tprime's hold
    verify = importlib.import_module("signspectra.verify")
    pattern = builtin_pattern("Tprime")
    rng = random.Random(5)
    _, positions, signs = verify._flat_pattern(pattern)
    for _ in range(50):
        a = verify._scaled_sample(6, positions, *verify._draw(signs, rng))
        assert not verify._identity_holds("T", a)
        assert verify._identity_holds("Tprime", a)


def test_identity_reads_the_sample_support_not_the_named_pattern():
    # one extra nonzero at (3, 1) on a T sample closes the 3-cycle 1 -> 2 -> 3,
    # whose term T's identity lacks: the check must see the entry even though
    # the named pattern has no arc there
    # (the two-argument call reads the support of the a it is given)
    verify = importlib.import_module("signspectra.verify")
    _, positions, signs = verify._flat_pattern(builtin_pattern("T"))
    a = verify._scaled_sample(6, positions, *verify._draw(signs, random.Random(3)))
    assert verify._identity_holds("T", a)
    a[12] = 1
    assert not verify._identity_holds("T", a)
    assert verify._identity_holds("Tprime", a)
    assert not verify._identity_holds("T", a, tuple(map(bool, a)))
    assert verify._identity_holds("Tprime", a, tuple(map(bool, a)))


def test_identity_verdict_matches_char_poly_on_the_same_sample():
    # _identity_holds reads the row-major int sample L*M; char_poly reads M.
    # On 100 draws each of T and Tprime, and on every T draw again with one
    # extra entry +-1 at each of T's zero positions (+-1/L in M, so the two
    # stay one sample), the verdict must be that of char_poly's t**5 and t**3
    # under the named identity.  A wrong flat index, or closed walks taken
    # from the pattern instead of the sample's support, changes a verdict.
    verify = importlib.import_module("signspectra.verify")
    rng = random.Random(34)
    cases, scales = [], []
    for which in ("T", "Tprime"):
        pattern = builtin_pattern(which)
        _, positions, signs = verify._flat_pattern(pattern)
        for _ in range(100):
            ks, ls = verify._draw(signs, rng)
            cases.append(
                (verify._scaled_sample(6, positions, ks, ls), verify._sample_matrix(6, positions, ks, ls).entries)
            )
            if which == "T":
                scales.append(math.lcm(*ls))
    zeros = [(i, j) for i in range(6) for j in range(6) if builtin_pattern("T")[i, j] is Sign.ZERO]
    assert len(zeros) == 22
    for (a, rows), scale in zip(cases[:100], scales):
        for i, j in zeros:
            step = rng.choice((-1, 1))
            b = list(a)
            b[i * 6 + j] += step
            m = [list(row) for row in rows]
            m[i][j] += Fraction(step, scale)
            cases.append((b, m))
    verdicts = {"T": set(), "Tprime": set()}
    for a, rows in cases:
        c = char_poly(RationalMatrix.from_rows(rows)).coeffs
        head = rows[0][0] + rows[1][1]
        expected3 = head * rows[4][5] * rows[5][4]
        cycle = rows[0][1] * rows[1][2] * rows[2][0]
        for which, e3 in (("T", expected3), ("Tprime", expected3 - cycle)):
            holds = c[5] == -head and c[3] == e3
            assert verify._identity_holds(which, a) == holds
            verdicts[which].add(holds)
    assert verdicts == {"T": {True, False}, "Tprime": {True, False}}


def test_traceless_sample_is_never_nilpotent():
    # r11 = 1, r22 = -1 makes a5 vanish, but then the 3-cycle forces a3 != 0
    rows = [
        [1, 1, 0, 0, 0, 0],
        [-1, -1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [-1, -1, 0, 0, 0, 1],
        [1, 1, 1, 0, -1, 0],
    ]
    m = RationalMatrix.from_rows(rows)
    assert conforms(m, builtin_pattern("Tprime"))
    cp = char_poly(m)
    assert cp.coeffs[5] == 0
    assert cp.coeffs[3] == -1
    assert cp != T6


def test_nilpotent_realization_exists_without_the_extra_entry():
    # over T the all-zero even sextic realization is genuinely nilpotent
    m = realize_even_sextic(0, 0, 0)
    assert conforms(m, builtin_pattern("T"))
    assert char_poly(m) == T6


def test_nilpotence_is_blockwise():
    nil6 = realize_even_sextic(0, 0, 0)
    nil2 = RationalMatrix.from_rows([[0, 1], [0, 0]])
    dense2 = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert char_poly(block_diag([nil6, nil2])) == Polynomial((0,) * 8 + (1,))
    cp = char_poly(block_diag([nil6, dense2]))
    assert any(c != 0 for c in cp.coeffs[:-1])


def test_nilpotence_lift_does_not_trust_char_poly(monkeypatch):
    # a char_poly that calls every matrix nilpotent agrees with itself
    # blockwise; only the unsplit recomputation catches it
    verify = importlib.import_module("signspectra.verify")
    assert verify._nilpotence_lift_holds(random.Random(0))
    monkeypatch.setattr(verify, "char_poly", lambda m: Polynomial((0,) * m.n + (1,)))
    assert not verify._nilpotence_lift_holds(random.Random(0))


# --- gate and divisor obstruction ----------------------------------------------


def test_violates_sextic_gate_frozen_cases():
    assert violates_sextic_gate(T6) is False  # a3 = a5 = 0: realizable
    assert violates_sextic_gate(Polynomial((0, 0, 0, 1, 0, 0, 1))) is True  # a5 = 0
    assert violates_sextic_gate(Polynomial((0, 0, 0, -1, 0, 1, 1))) is True  # ratio < 0
    assert violates_sextic_gate(Polynomial((0, 0, 0, 1, 0, 1, 1))) is False
    assert violates_sextic_gate(Polynomial((0, 0, 0, -1, 0, -1, 1))) is False
    with pytest.raises(ValueError, match="degree 6"):
        violates_sextic_gate(Polynomial((1, 1)))


def test_check_divisor_obstruction_exhaustive():
    report = check_divisor_obstruction()
    assert report.passed
    assert report.count == 4
    assert all(report.violations)

    # the target is the product of the declared factors
    prod = report.factors[0]
    for f in report.factors[1:]:
        prod = poly_mul(prod, f)
    assert report.target == prod
    assert report.target == Polynomial((-2, -1, -2, 0, 1, 1, 2, 0, 1))

    # frozen divisors: all three quadratics, and each pair of quadratics
    # together with both linear factors
    divisors = set(report.divisors)
    assert Polynomial((2, 1, 4, 1, 3, 0, 1)) in divisors
    assert Polynomial((-1, -1, -1, 0, 1, 1, 1)) in divisors
    json.dumps(report.to_dict())


def test_divisor_obstruction_against_reconstruction_oracle():
    # every enumerated divisor must actually divide the target: multiply each
    # divisor by its complementary subset and compare exactly
    report = check_divisor_obstruction()
    factors = list(report.factors)
    n = len(factors)
    reconstructed = []
    for mask in range(1, 1 << n):
        chosen = [factors[i] for i in range(n) if mask >> i & 1]
        if sum(f.degree for f in chosen) != 6:
            continue
        rest = [factors[i] for i in range(n) if not mask >> i & 1]
        prod = chosen[0]
        for f in chosen[1:]:
            prod = poly_mul(prod, f)
        reconstructed.append(prod)
        for f in rest:
            prod = poly_mul(prod, f)
        assert prod == report.target
    assert reconstructed == list(report.divisors)


# --- realization verification ---------------------------------------------------


def exact_report():
    f = poly_mul(
        Polynomial((-1, 1)), Polynomial((2, 1))
    )
    target = f
    for _ in range(4):
        target = poly_mul(target, f)  # (t-1)^5 (t+2)^5
    return realize_poly(target, 0, 5, backend="rational")


def test_verify_realization_accepts_exact_report():
    report = exact_report()
    assert report.residual == 0.0
    assert verify_realization(report, bound=0.0)


def test_verify_realization_rejects_tampering():
    report = exact_report()
    rows = [list(row) for row in report.matrix.entries]
    rows[0][0] = -rows[0][0]
    tampered = dataclasses.replace(report, matrix=RationalMatrix.from_rows(rows))
    assert not verify_realization(tampered, bound=0.0)

    wrong_target = dataclasses.replace(
        report, target=Polynomial((1,) + (0,) * 9 + (1,))
    )
    assert not verify_realization(wrong_target, bound=0.0)

    short_target = dataclasses.replace(report, target=Polynomial((0, 0, 1)))
    assert not verify_realization(short_target, bound=0.0)


def test_verify_realization_rejects_offblock_entries():
    # an entry outside the declared blocks fails even when the pattern allows
    # it, in the upper-right and in the lower-left off-diagonal block
    from signspectra import SignPattern

    d = builtin_pattern("D")
    for i, j in ((0, 3), (3, 0)):
        rows = [[3, 1, 0, 0], [-10, -3, 0, 0], [0, 0, 3, 1], [0, 0, -10, -3]]
        rows[i][j] = 1
        pattern_rows = [list(row) for row in block_diag([d, d]).entries]
        pattern_rows[i][j] = Sign.PLUS
        report = RealizationReport(
            matrix=RationalMatrix.from_rows(rows),
            pattern=SignPattern(tuple(tuple(r) for r in pattern_rows)),
            target=poly_mul(Polynomial((1, 0, 1)), Polynomial((1, 0, 1))),
            residual=0.0,
            perturbation=0.0,
            block_orders=(2, 2),
            block_tags=("D", "D"),
            backend="rational",
        )
        assert conforms(report.matrix, report.pattern)
        assert not verify_realization(report, bound=1.0)


def test_verify_realization_rejects_block_orders_that_do_not_partition_n():
    # the cut and residual checks alone pass both: 4 is a cut of D (+) D, and
    # so is 2, and the matrix's char poly is the target exactly
    d = builtin_pattern("D")
    report = RealizationReport(
        matrix=RationalMatrix.from_rows([[3, 1, 0, 0], [-10, -3, 0, 0], [0, 0, 3, 1], [0, 0, -10, -3]]),
        pattern=block_diag([d, d]),
        target=poly_mul(Polynomial((1, 0, 1)), Polynomial((1, 0, 1))),
        residual=0.0,
        perturbation=0.0,
        block_orders=(2, 2),
        block_tags=("D", "D"),
        backend="rational",
    )
    assert verify_realization(report, bound=0.0)
    for orders in ((4, 0), (2,)):
        assert not verify_realization(dataclasses.replace(report, block_orders=orders), bound=0.0), orders


def test_verify_realization_float_report():
    rng = random.Random(8)
    f = random_monic_polynomial(16, rng)
    report = realize_poly(f, 1, 5)
    assert verify_realization(report, bound=1e-6)
    assert not verify_realization(report, bound=0.0)


# --- the full suite --------------------------------------------------------------


def test_run_theorem_suite_reports_a_misclassified_inertia(monkeypatch, capsys):
    # part 2's failure branch: one tuple classified wrongly fails part 2, the
    # whole report, and `verify theorem` with one error line
    wrong = (2, 2, 0, 2)
    exact = verify.refined_inertia_of

    def misclassify(matrix):
        nu = exact(matrix)
        return RefinedInertia(3, 1, 0, 2) if nu == wrong else nu

    monkeypatch.setattr(verify, "refined_inertia_of", misclassify)
    report = run_theorem_suite(seed=0, tol=1e-8, identity_samples=20)
    assert report.part2.inertia_failures == (wrong,)
    assert report.part2.passed is False
    assert report.passed is False
    capsys.readouterr()
    assert main(["verify", "theorem", "--samples", "20"], standalone_mode=False) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: failed checks: theorem"]


def test_run_theorem_suite_light():
    report = run_theorem_suite(seed=0, tol=1e-8, identity_samples=120)
    assert report.passed

    part1 = report.part1
    assert part1.superpattern_ok
    assert part1.extra_positions == ((3, 1),)
    assert part1.realization_count == 20
    assert part1.worst_residual <= part1.residual_bound
    assert part1.identity_report.all_passed
    # the arguments reach part 1; the identities are drawn at seed + 1
    assert part1.identity_report.samples == 120
    assert part1.identity_report.seed == 1
    assert part1.residual_bound == 10 * 1e-8 * 16
    assert part1.nilpotence_lift_ok
    assert "sampled" in part1.evidence_kind

    part2 = report.part2
    assert part2.inertia_total == 95
    assert part2.inertia_failures == ()
    assert part2.obstruction.count == 4

    part3 = report.part3
    assert part3.chain_order == 64
    assert part3.realization_count == 5
    assert part3.base_not_arbitrary
    assert part3.pattern_matches_chain
    assert part3.undecided == ("U2", "U3")
    assert part3.worst_residual <= 1e-5

    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert data["passed"] is True
    assert data["part2"]["inertia_total"] == 95
    assert data["part1"]["extra_positions"] == [[3, 1]]
    assert list(data) == ["part1", "part2", "part3", "passed"]
    assert list(data["part1"]) == [
        "superpattern_ok",
        "extra_positions",
        "realization_count",
        "worst_residual",
        "residual_bound",
        "realizations_ok",
        "identity_report",
        "nilpotence_lift_ok",
        "evidence_kind",
        "passed",
    ]
    assert list(data["part1"]["identity_report"]) == [
        "pattern",
        "samples",
        "seed",
        "all_passed",
        "first_failure",
    ]
    assert list(data["part2"]) == ["obstruction", "inertia_total", "inertia_failures", "passed"]
    assert list(data["part3"]) == [
        "base_not_arbitrary",
        "chain_order",
        "pattern_matches_chain",
        "realization_count",
        "worst_residual",
        "residual_bound",
        "realizations_ok",
        "undecided",
        "evidence_kind",
        "passed",
    ]
