import functools
import gc
import random
import tracemalloc

import pytest

from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations
from schubfactor.polynomial import Polynomial
from schubfactor import cohomology as coh, verifier
from schubfactor.schubert import expand_in_schubert_basis, in_staircase_span, schubert_poly, schubert_poly_oracle
from schubfactor.verifier import (
    ORTHOGONAL,
    SYMPLECTIC,
    ASCENDING_LETTER_VARIANT_24,
    member_set,
    product_side,
    schubert_sum,
    sweep,
    verify_equivariant_suite,
    verify_identity,
    verify_identity_for_members,
)
from schubfactor.wset import w_set_orthogonal, w_set_symplectic


def test_schubert_sum_examples():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    members = w_set_orthogonal(mu).members
    assert schubert_sum(members, sp) == Polynomial.variable(sp, sp.x(1))

    mu = Composition((4,))
    sp = coh.space_for(mu)
    members = w_set_symplectic(mu).members
    x = lambda i: Polynomial.variable(sp, sp.x(i))
    assert schubert_sum(members, sp) == x(1) * x(1) + x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    assert schubert_sum(members, sp) == schubert_poly(
        Permutation((1, 3, 4, 2)), sp
    ) + schubert_poly(Permutation((3, 1, 2, 4)), sp)


def test_worked_example_lhs_equals_product():
    mu = Composition((3, 4))
    sp = coh.space_for(mu)
    members = w_set_orthogonal(mu).members
    assert schubert_sum(members, sp) == coh.ordinary_class_orthogonal(mu)


def test_verify_identity_passes():
    for mu, family in [
        (Composition((2,)), ORTHOGONAL),
        (Composition((3, 4)), ORTHOGONAL),
        (Composition((2, 4)), SYMPLECTIC),
    ]:
        report = verify_identity(mu, family)
        assert report.passed, report.text()
        assert report.witness is None


def test_verify_identity_report_fields():
    report = verify_identity(Composition((3, 4)), ORTHOGONAL)
    assert report.family == ORTHOGONAL
    assert report.mu.parts == (3, 4)
    assert report.degree == 18
    assert report.support == 6
    assert report.ms >= 0.0

    # a report is built once: no field can be set, and _replace returns a new report
    mu = Composition((2,))
    first = verifier.IdentityReport(ORTHOGONAL, mu, "pass", 1, support=0)
    with pytest.raises(AttributeError):
        first.verdict = "fail"
    assert first.flags == () and isinstance(report.flags, tuple)
    edited = first._replace(verdict="fail", witness=("x1", "1", "0"), degree=2, support=3, flags=("note",), ms=4.5)
    assert edited.to_json_dict(include_ms=True) == {
        "family": ORTHOGONAL,
        "mu": [2],
        "verdict": "fail",
        "degree": 2,
        "support": 3,
        "witness": ["x1", "1", "0"],
        "flags": ["note"],
        "ms": 4.5,
    }
    assert first == verifier.IdentityReport(ORTHOGONAL, mu, "pass", 1, support=0)


def test_symplectic_24_carries_convention_flag():
    report = verify_identity(Composition((2, 4)), SYMPLECTIC)
    assert report.passed
    assert any("ascending-letter" in flag for flag in report.flags)


def test_ascending_letter_variant_fails():
    report = verify_identity_for_members(
        Composition((2, 4)), SYMPLECTIC, ASCENDING_LETTER_VARIANT_24
    )
    assert not report.passed
    assert report.witness is not None


def test_passing_ascending_letter_variant_fails_the_24_report(monkeypatch):
    # the regression input replaced by the real member set passes, so (2,4) must fail with a flag
    mu = Composition((2, 4))
    monkeypatch.setattr(verifier, "ASCENDING_LETTER_VARIANT_24", member_set(mu, SYMPLECTIC).members)
    assert verify_identity(mu, SYMPLECTIC).to_json_dict() == {
        "family": "symplectic",
        "mu": [2, 4],
        "verdict": "fail",
        "degree": 10,
        "support": 2,
        "witness": None,
        "flags": ["ascending-letter variant {561342, 563124} unexpectedly passes"],
        "ms": None,
    }


def test_wrong_members_produce_witness():
    # drop one member: the sum misses its Schubert polynomial
    mu = Composition((3, 4))
    members = w_set_orthogonal(mu).members[:-1]
    report = verify_identity_for_members(mu, ORTHOGONAL, members)
    assert not report.passed
    monomial, lhs_c, rhs_c = report.witness
    assert lhs_c != rhs_c


def test_dropped_member_of_orthogonal_9_keeps_its_witness():
    mu = Composition((9,))
    members = w_set_orthogonal(mu).members
    report = verify_identity_for_members(mu, ORTHOGONAL, members[1:])
    assert report.verdict == "fail" and report.flags == ()
    assert report.witness == ("x1 x2^2 x3^3 x4^4 x5^4 x6^3 x7^2 x8", "0", "1")


EXPANSION_FLAG = "Schubert expansion of the product side is not the member set with unit coefficients"


def test_member_from_smaller_group_fails_without_witness():
    # S_312 == S_3124, so the sum equals the product side, but the product
    # side expands to 3124 in S_4, not to the member 312
    members = [Permutation((1, 3, 4, 2)), Permutation((3, 1, 2))]
    report = verify_identity_for_members(Composition((4,)), SYMPLECTIC, members)
    assert report.verdict == "fail"
    assert report.witness is None
    assert report.flags == (EXPANSION_FLAG,)


def test_member_from_larger_group_fails_without_witness():
    # 3214 lies outside S_3, so no Schubert sum exists in the product side's space
    members = [Permutation((3, 2, 1, 4))]
    report = verify_identity_for_members(Composition((2, 1)), ORTHOGONAL, members)
    assert report.verdict == "fail"
    assert report.witness is None
    assert report.flags == (EXPANSION_FLAG,)


def test_duplicated_member_fails_with_witness():
    mu = Composition((3, 4))
    members = w_set_orthogonal(mu).members
    report = verify_identity_for_members(mu, ORTHOGONAL, members + members[:1])
    assert report.verdict == "fail"
    assert report.witness == ("x1^5 x2^5 x3^4 x4 x5^2 x6", "2", "1")
    assert report.flags == ()
    assert (report.degree, report.support) == (18, 7)


def test_repeated_member_fails_even_when_the_sum_matches(monkeypatch):
    # no real product side has a coefficient 2, so give one: 2 S_213, the sum of [213, 213]
    # (S_213 = x1, so the factored class 2 * x1 with no linear factors)
    mu, w = Composition((2, 1)), Permutation((2, 1, 3))
    sp = coh.space_for(mu)
    doubled = coh.FactoredClass(sp, 2, ((sp.x(1), 1),), ())
    monkeypatch.setattr(coh, "ordinary_factored", lambda mu, half_slots: doubled)
    assert schubert_sum([w, w], sp) == doubled.expand() == 2 * schubert_poly(w, sp)
    report = verify_identity_for_members(mu, ORTHOGONAL, [w, w])
    assert report.verdict == "fail"
    assert report.witness is None and report.flags == (EXPANSION_FLAG,)


def test_report_text_shows_witness_and_notes():
    mu = Composition((2, 1))
    members = w_set_orthogonal(mu).members
    report = verify_identity_for_members(mu, ORTHOGONAL, members + members)._replace(ms=1.0)
    assert report.text() == (
        "orthogonal mu=2,1: fail (degree 3, support 2, 1.0 ms)\n"
        "  witness x1^2 x2: lhs=2 rhs=1"
    )
    report = verify_identity_for_members(mu, ORTHOGONAL, [Permutation((3, 2, 1, 4))])
    assert report.text().splitlines()[1:] == [f"  note: {EXPANSION_FLAG}"]


@pytest.mark.parametrize("parts", [(8,), (1, 8)])
def test_verify_path_peaks_within_a_bound_of_its_product_side(parts):
    # a passing verify expands the class in the Schubert basis by Monk's rule and builds no
    # monomial map at all; a Schubert sum built beside the product side peaks at about 2.9 times it
    mu = Composition(parts)
    verify_identity(mu, ORTHOGONAL)  # builds and keeps the base sets, which are not the path's cost
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rhs = product_side(mu, ORTHOGONAL)
        size = tracemalloc.get_traced_memory()[0] - base
        del rhs
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert verify_identity(mu, ORTHOGONAL).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.65 * size, f"verify peaks at {peak / size:.2f} times its product side"


def _expansion_verdict(rhs, n, members):
    """The verdict by span scan and greedy Schubert expansion of the monomial product side."""
    return (
        len(set(members)) == len(members)
        and in_staircase_span(rhs, n)
        and expand_in_schubert_basis(rhs, n).coeffs == dict.fromkeys(members, 1)
    )


def _oracle_witness(rhs, members, oracle):
    """
    (monomial, lhs, rhs) at the canonically first monomial of rhs minus the
    pipe-dream oracle summed over the members, repeats counted; None when that is 0.
    """
    lhs = Polynomial.zero(rhs.space)
    for w in members:
        lhs = lhs + oracle(w.word, rhs.space)
    remainder = rhs - lhs
    if remainder.is_zero():
        return None
    key, _ = remainder.leading_term()
    return (Polynomial(rhs.space, {key: 1}).text(), str(lhs.terms.get(key, 0)), str(rhs.terms.get(key, 0)))


def _edited_member_sets(members, n, perms, by_length, rng):
    """
    The set itself, the empty set, one member dropped, repeated, swapped,
    dropped with another repeated or joined by one from S_(n-1) or S_(n+1),
    and seeded draws from S_n.
    """
    yield members
    yield []
    for i, w in enumerate(members):
        rest = members[:i] + members[i + 1:]
        yield rest
        yield members + [w]
        if rest:
            yield rest + [rest[0]]  # one member dropped and another repeated: the same size
        other = next((u for u in by_length[w.length] if u not in members), None)
        if other is not None:
            yield rest + [other]
        if w.word[-1] == n and n > 1:
            yield rest + [Permutation(w.word[:-1])]  # S_w of S_(n-1): the same polynomial
        yield rest + [Permutation(w.word + (n + 1,))]
    if n > 1:
        yield members + [Permutation(range(1, n))]
    yield members + [Permutation(range(1, n + 2))]
    for _ in range(3):
        yield members + [rng.choice(perms)]
        yield rng.sample(perms, min(len(perms), len(members)))


def test_verdict_agrees_with_expansion_oracle():
    cases = [(mu, ORTHOGONAL) for n in range(1, 7) for mu in enumerate_compositions(n)]
    cases += [
        (mu, SYMPLECTIC) for n in (2, 4, 6, 8) for mu in enumerate_compositions(n, even_parts_only=True)
    ]
    rng = random.Random(11)
    perms, by_length = {}, {}
    seen = set()
    oracle = functools.cache(lambda word, space: schubert_poly_oracle(Permutation(word), space))
    witnessed = 0
    for mu, family in cases:
        n = mu.total
        if n not in perms:
            perms[n] = list(all_permutations(n))
            by_length[n] = {}
            for u in perms[n]:
                by_length[n].setdefault(u.length, []).append(u)
        rhs = product_side(mu, family)
        for members in _edited_member_sets(list(member_set(mu, family).members), n, perms[n], by_length[n], rng):
            report = verify_identity_for_members(mu, family, members)
            assert report.passed == _expansion_verdict(rhs, n, members), (mu, family, members)
            smaller = any(w.n < n for w in members)
            seen.add((report.verdict, smaller and schubert_sum(members, rhs.space) == rhs))
            if not report.passed and n <= 6:
                # a member of S_(n+1) has no Schubert polynomial in the product side's space
                fits = all(w.n <= n for w in members)
                assert report.witness == (_oracle_witness(rhs, members, oracle) if fits else None), (mu, members)
                witnessed += report.witness is not None
    # both verdicts, and a failing set whose sum equals the product side through a member of S_(n-1)
    assert seen >= {("pass", False), ("fail", False), ("fail", True)}
    assert witnessed


def test_verify_identity_rejects_unknown_family():
    with pytest.raises(ValueError):
        verify_identity(Composition((2,)), "unitary")


FAMILY_CHECKED_CALLS = {
    "product_side": product_side,
    "member_set": member_set,
    "verify_identity": verify_identity,
    "verify_equivariant_suite": verify_equivariant_suite,
    "sweep": lambda mu, family: sweep(mu.total, family),
}


@pytest.mark.parametrize("name", list(FAMILY_CHECKED_CALLS))
@pytest.mark.parametrize(
    "family, message", [("unknown", "unknown family"), (SYMPLECTIC, "even")]
)
def test_family_name_rules(name, family, message):
    # (3,) has an odd part and an odd total, so symplectic must refuse it
    with pytest.raises(ValueError, match=message):
        FAMILY_CHECKED_CALLS[name](Composition((3,)), family)


def test_sweep_counts_and_verdicts():
    reports = sweep(4, ORTHOGONAL)
    assert len(reports) == 8
    assert all(r.passed for r in reports)

    reports = sweep(4, SYMPLECTIC)
    assert [r.mu.parts for r in reports] == [(4,), (2, 2)]
    assert all(r.passed for r in reports)

    reports = sweep(1, ORTHOGONAL)
    assert len(reports) == 1 and reports[0].degree == 0


def test_equivariant_suite_22():
    report = verify_equivariant_suite(Composition((2, 2)), ORTHOGONAL)
    assert report.passed, report.text()
    assert report.support == 24  # all of S_4 restricted
    assert 0 < report.ms < 60_000  # the elapsed time of this call, not of the process


def test_equivariant_suite_trivial_single_block():
    for family in (ORTHOGONAL, SYMPLECTIC):
        report = verify_equivariant_suite(Composition((4,)), family)
        assert report.passed


def test_equivariant_suite_23_matches_displayed_cross_factor():
    mu = Composition((2, 3))
    report = verify_equivariant_suite(mu, ORTHOGONAL)
    assert report.passed
    chern = coh.cross_block_chern_class(mu)
    assert coh.restrict_to_block_torus(chern) == coh.cross_pair_factor(mu, 1, 2)


def test_equivariant_suite_skips_localization_above_limit():
    report = verify_equivariant_suite(Composition((3, 3)), ORTHOGONAL, localization_max_n=5)
    assert report.passed
    assert report.support == 0
    assert any("localization skipped" in flag for flag in report.flags)


def test_equivariant_suite_symplectic_needs_even_parts():
    with pytest.raises(ValueError):
        verify_equivariant_suite(Composition((3, 3)), SYMPLECTIC)


def test_equivariant_suite_localization_mismatch(monkeypatch):
    # negate the weight product at 123, the word of the one block-preserving item, which
    # stands for its orbit 123, 213
    weight_product = coh.fixed_point_weight_product
    perturbed = Permutation((1, 2, 3))
    monkeypatch.setattr(
        coh,
        "fixed_point_weight_product",
        lambda mu, w: weight_product(mu, w) * (-1 if w == perturbed else 1),
    )
    report = verify_equivariant_suite(Composition((2, 1)), ORTHOGONAL)
    assert report.to_json_dict() == {
        "family": "orthogonal",
        "mu": [2, 1],
        "verdict": "fail",
        "degree": 2,
        "support": 1,
        "witness": ["y3^2", "1", "-1"],
        "flags": ["localization mismatch at w=123"],
        "ms": None,
    }


def _vanish_at_123(fixed_point_restrictions):
    def restrictions(f, parts=None):
        for word, image in fixed_point_restrictions(f, parts):
            yield word, image * 0 if word == (1, 2, 3) else image

    return restrictions


def _drop_item_132(fixed_point_restrictions):
    def restrictions(f, parts=None):
        return (item for item in fixed_point_restrictions(f, parts) if item[0] != (1, 3, 2))

    return restrictions


def _nonzero_at_132(fixed_point_restrictions):
    def restrictions(f, parts=None):
        images = {}
        for word, image in fixed_point_restrictions(f, parts):
            images[word] = image
            yield word, images[(1, 2, 3)] if word == (1, 3, 2) else image

    return restrictions


@pytest.mark.parametrize(
    "attr, plant, support, witness, flag",
    [
        # the tree zeroes the block-preserving item 123, so the weight product at 123 is compared
        ("fixed_point_restrictions", _vanish_at_123, 1, ["y3^2", "0", "1"], "localization mismatch at w=123"),
        # the tree loses the item 132, which stands for 132 and 312
        ("fixed_point_restrictions", _drop_item_132, 4, None, "localization: the tree's items stand for 4 of 6 fixed points"),
        # the tree gives 132, which moves 3 into block 1 and so has weight 0, the image at 123
        ("fixed_point_restrictions", _nonzero_at_132, 2, ["y3^2", "1", "0"], "localization mismatch at w=132"),
    ],
)
def test_equivariant_suite_vanished_prefix_faults(monkeypatch, attr, plant, support, witness, flag):
    # the tree's items for (2,1): 123 (orbit 123, 213), and 132 and 231, whose images are 0
    monkeypatch.setattr(coh, attr, plant(getattr(coh, attr)))
    report = verify_equivariant_suite(Composition((2, 1)), ORTHOGONAL)
    assert report.to_json_dict() == {
        "family": "orthogonal",
        "mu": [2, 1],
        "verdict": "fail",
        "degree": 2,
        "support": support,
        "witness": witness,
        "flags": [flag],
        "ms": None,
    }


def test_equivariant_suite_block_torus_mismatch(monkeypatch):
    cross_block_factor = coh.cross_block_factor
    monkeypatch.setattr(coh, "cross_block_factor", lambda mu: cross_block_factor(mu) * 2)
    report = verify_equivariant_suite(Composition((2, 1)), ORTHOGONAL)
    assert report.to_json_dict() == {
        "family": "orthogonal",
        "mu": [2, 1],
        "verdict": "fail",
        "degree": 2,
        "support": 6,
        "witness": ["z2^2", "1", "2"],
        "flags": ["block-torus restriction of the Chern class mismatches"],
        "ms": None,
    }


SPECIALIZATION_FLAG = "equivariant class does not specialize to the ordinary class"


@pytest.mark.parametrize(
    "attr, perturb, parts, family, degree, support, witness, flags",
    [
        ("base_class_orthogonal", lambda f: f * 2, (2, 1), ORTHOGONAL, 2, 6,
         ["z1", "-4", "-2"], ["base-class factorization fails for part 2"]),
        ("base_class_symplectic", lambda f: f + 1, (2, 2), SYMPLECTIC, 4, 24,
         ["1", "2", "1"], ["base-class factorization fails for part 2"]),
        ("zero_equivariant_vars", lambda f: -f, (2, 1), ORTHOGONAL, 3, 6,
         ["x1^2 x2", "-2", "2"], [SPECIALIZATION_FLAG]),
        ("zero_equivariant_vars", lambda f: -f, (3, 3), ORTHOGONAL, 13, 0,
         ["x1^4 x2^4 x3^3 x4 x5", "-4", "4"], ["localization skipped (n=6 > 5)", SPECIALIZATION_FLAG]),
        # a Chern class times x1 is not symmetric in x1, x2: the tree walk must not run
        ("cross_block_chern_class", lambda f: f * Polynomial.variable(f.space, 0), (2, 1), ORTHOGONAL, 3, 0,
         ["y3^2", "1", "0"], ["Chern class is not symmetric in x1, x2 inside block 1"]),
    ],
)
def test_equivariant_suite_later_stage_mismatch(
    monkeypatch, attr, perturb, parts, family, degree, support, witness, flags
):
    # perturb one stage's left-hand side; every earlier stage still passes
    original = getattr(coh, attr)
    monkeypatch.setattr(coh, attr, lambda arg: perturb(original(arg)))
    report = verify_equivariant_suite(Composition(parts), family)
    assert report.to_json_dict() == {
        "family": family,
        "mu": list(parts),
        "verdict": "fail",
        "degree": degree,
        "support": support,
        "witness": witness,
        "flags": flags,
        "ms": None,
    }


def test_report_json_shape():
    report = verify_identity(Composition((2,)), ORTHOGONAL)
    data = report.to_json_dict()
    assert set(data) == {"family", "mu", "verdict", "degree", "support", "witness", "flags", "ms"}
    assert data["ms"] is None
    timed = report.to_json_dict(include_ms=True)
    assert isinstance(timed["ms"], float)
