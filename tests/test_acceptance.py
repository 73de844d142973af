"""
Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (integer polynomial identities, exact set
equality), with wall-clock ceilings asserted where stated.
"""

import math
import random
import time

from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations
from schubfactor.polynomial import Polynomial, VariableSpace
from schubfactor import cohomology as coh
from schubfactor.schubert import (
    expand_in_schubert_basis,
    schubert_poly,
    schubert_poly_oracle,
)
from schubfactor.verifier import (
    ORTHOGONAL,
    SYMPLECTIC,
    ASCENDING_LETTER_VARIANT_24,
    member_set,
    schubert_sum,
    sweep,
    verify_equivariant_suite,
    verify_identity_for_members,
)
from schubfactor.wset import (
    standardize,
    w_set_full_orthogonal,
    w_set_full_symplectic,
    w_set_orthogonal,
    w_set_symplectic,
)


def _words(perms):
    return {str(w) for w in perms}


def test_criterion_1_wset_goldens():
    start = time.perf_counter()

    assert _words(w_set_full_orthogonal(5)) == {
        "24531", "25341", "34512", "35142", "42513", "45123", "52314", "53124",
    }
    assert _words(w_set_orthogonal(Composition((4, 2))).members) == {
        "465321", "563421", "643521",
    }
    assert _words(w_set_full_symplectic(6)) == {
        "135642", "153462", "315624", "351264", "513426", "531246",
    }
    assert str(standardize((1, 5, 4, 6), {1, 4, 5, 6})) == "1324"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s exceeds 1s budget"
    print(f"criterion 1: PASS - member-set goldens exact ({elapsed * 1000:.0f} ms)")


def test_criterion_2_worked_example():
    start = time.perf_counter()

    sp = VariableSpace(7)
    members = [
        Permutation((6, 7, 5, 2, 4, 3, 1)),
        Permutation((6, 7, 5, 3, 4, 1, 2)),
        Permutation((6, 7, 5, 4, 2, 1, 3)),
        Permutation((7, 5, 6, 2, 4, 3, 1)),
        Permutation((7, 5, 6, 3, 4, 1, 2)),
        Permutation((7, 5, 6, 4, 2, 1, 3)),
    ]
    lhs = schubert_sum(members, sp)
    rhs = Polynomial.monomial(
        sp, {sp.x(1): 5, sp.x(2): 4, sp.x(3): 4, sp.x(4): 1, sp.x(5): 1}
    )
    for (j, k) in ((1, 2), (4, 5), (4, 6)):
        rhs = rhs * (
            Polynomial.variable(sp, sp.x(j)) + Polynomial.variable(sp, sp.x(k))
        )
    assert lhs == rhs

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s exceeds 10s budget"
    print(f"criterion 2: PASS - six-term S_7 sum equals the factored product ({elapsed:.2f} s)")


def test_criterion_3_identity_sweep():
    start = time.perf_counter()

    orthogonal_reports = []
    for n in range(1, 7):
        orthogonal_reports.extend(sweep(n, ORTHOGONAL))
    assert len(orthogonal_reports) == 63
    failures = [r for r in orthogonal_reports if not r.passed]
    assert not failures, [r.text() for r in failures]

    symplectic_reports = []
    for two_n in (2, 4, 6, 8):
        symplectic_reports.extend(sweep(two_n, SYMPLECTIC))
    assert len(symplectic_reports) == 15  # includes all 8 compositions of 2n=8
    failures = [r for r in symplectic_reports if not r.passed]
    assert not failures, [r.text() for r in failures]

    # the degree comes from the class's exponents and pairs; every member has that length
    for r in orthogonal_reports + symplectic_reports:
        assert {w.length for w in member_set(r.mu, r.family).members} == {r.degree}, r.text()

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s exceeds 5min budget"
    print(
        f"criterion 3: PASS - 63 orthogonal + 15 symplectic identities verified ({elapsed:.1f} s)"
    )


def test_criterion_4_schubert_support_law():
    start = time.perf_counter()

    for n in range(1, 7):
        for mu in enumerate_compositions(n):
            expansion = expand_in_schubert_basis(coh.ordinary_class_orthogonal(mu), n)
            assert expansion.support() == set(w_set_orthogonal(mu).members), mu
            assert all(c == 1 for c in expansion.coeffs.values()), mu
    for two_n in (2, 4, 6, 8):
        for mu in enumerate_compositions(two_n, even_parts_only=True):
            expansion = expand_in_schubert_basis(coh.ordinary_class_symplectic(mu), two_n)
            assert expansion.support() == set(w_set_symplectic(mu).members), mu
            assert all(c == 1 for c in expansion.coeffs.values()), mu

    elapsed = time.perf_counter() - start
    print(
        "criterion 4: PASS - product sides expand over exactly the member sets, "
        f"all coefficients 1 ({elapsed:.1f} s)"
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()

    mismatches = 0
    for w in all_permutations(5):
        if schubert_poly(w) != schubert_poly_oracle(w):
            mismatches += 1
    rng = random.Random(20260811)
    for _ in range(200):
        w = Permutation(rng.sample(range(1, 8), 7))
        if schubert_poly(w) != schubert_poly_oracle(w):
            mismatches += 1
    assert mismatches == 0

    elapsed = time.perf_counter() - start
    print(
        "criterion 5: PASS - recursion and pipe-dream oracle agree on all of S_5 "
        f"and 200 random S_7 elements ({elapsed:.1f} s)"
    )


def test_criterion_6_localization_suite():
    start = time.perf_counter()

    # exhaustive fixed-point localization for all mu of n <= 5
    points = 0
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for mu in enumerate_compositions(n):
            chern = coh.cross_block_chern_class(mu)
            for w in perms:
                assert coh.restrict_to_fixed_point(chern, w) == coh.fixed_point_weight_product(mu, w), (mu, w)
                points += 1

    # block-torus restriction and ordinary specialization for all mu of n <= 6
    for n in range(1, 7):
        for mu in enumerate_compositions(n):
            chern = coh.cross_block_chern_class(mu)
            assert coh.restrict_to_block_torus(chern) == coh.cross_block_factor(mu), mu
            eq = coh.equivariant_class_orthogonal(mu)
            expected = coh.ordinary_class_orthogonal(mu) * (2 ** mu.half_weight())
            assert coh.zero_equivariant_vars(eq) == expected, mu
    for two_n in (2, 4, 6):
        for mu in enumerate_compositions(two_n, even_parts_only=True):
            eq = coh.equivariant_class_symplectic(mu)
            assert coh.zero_equivariant_vars(eq) == coh.ordinary_class_symplectic(mu), mu

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds 1min budget"
    print(
        f"criterion 6: PASS - {points} fixed-point restrictions plus block-torus and "
        f"specialization checks ({elapsed:.1f} s)"
    )


def test_criterion_7_discrepancy_regression():
    start = time.perf_counter()

    mu = Composition((2, 4))
    printed = ASCENDING_LETTER_VARIANT_24
    assert _words(printed) == {"123564", "125346"}
    bad = verify_identity_for_members(mu, SYMPLECTIC, printed)
    assert not bad.passed
    assert bad.degree == 10
    assert max(w.length for w in printed) == 2  # degree mismatch 2 != 10

    derived = w_set_symplectic(mu).members
    assert _words(derived) == {"561342", "563124"}
    good = verify_identity_for_members(mu, SYMPLECTIC, derived)
    assert good.passed

    elapsed = time.perf_counter() - start
    print(
        "criterion 7: PASS - ascending-letter variant fails (degree 2 != 10), "
        f"derived member set passes ({elapsed * 1000:.0f} ms)"
    )


def test_criterion_8_divided_difference_algebra():
    start = time.perf_counter()

    rng = random.Random(16180339)
    spaces = {n: VariableSpace(n) for n in range(2, 7)}

    def random_poly(space):
        f = Polynomial.zero(space)
        for _ in range(rng.randint(1, 6)):
            exps = {}
            budget = rng.randint(0, 8)
            for _ in range(budget):
                vid = rng.randrange(space.n)
                exps[vid] = exps.get(vid, 0) + 1
            c = rng.randint(-9, 9)
            if c:
                f = f + Polynomial.monomial(space, exps, c)
        return f

    for _ in range(1000):
        n = rng.randint(2, 6)
        f = random_poly(spaces[n])
        i = rng.randint(1, n - 1)
        assert f.divided_difference(i).divided_difference(i).is_zero()
        far = [j for j in range(1, n) if abs(j - i) >= 2]
        if far:
            j = rng.choice(far)
            assert (
                f.divided_difference(i).divided_difference(j)
                == f.divided_difference(j).divided_difference(i)
            )
        if n >= 3:
            k = rng.randint(1, n - 2)
            b1 = (
                f.divided_difference(k)
                .divided_difference(k + 1)
                .divided_difference(k)
            )
            b2 = (
                f.divided_difference(k + 1)
                .divided_difference(k)
                .divided_difference(k + 1)
            )
            assert b1 == b2

    elapsed = time.perf_counter() - start
    print(
        "criterion 8: PASS - square-zero, far-commutation and braid relations on "
        f"1000 random polynomials ({elapsed:.1f} s)"
    )


def test_criterion_9_localization_suites_to_n6():
    start = time.perf_counter()

    # every suite of n <= 6 with fixed-point localization at all n! points
    cases = [(mu, ORTHOGONAL) for n in range(1, 7) for mu in enumerate_compositions(n)]
    cases += [
        (mu, SYMPLECTIC)
        for two_n in (2, 4, 6)
        for mu in enumerate_compositions(two_n, even_parts_only=True)
    ]
    points = 0
    for mu, family in cases:
        report = verify_equivariant_suite(mu, family, localization_max_n=6)
        assert report.passed, report.text()
        assert report.support == math.factorial(mu.total), (mu, family)
        points += report.support

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds 1min budget"
    print(
        f"criterion 9: PASS - {len(cases)} equivariant suites of n <= 6 localized at "
        f"{points} fixed points ({elapsed:.1f} s)"
    )
