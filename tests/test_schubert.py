import random
import re

import pytest

from schubfactor.cohomology import cross_pair_factor, space_for
from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations, from_code, longest_element
from schubfactor import schubert
from schubfactor.polynomial import Polynomial, VariableSpace
from schubfactor.schubert import (
    SchubertExpansion,
    _diagram_permutation,
    _ladder_successors,
    expand_in_schubert_basis,
    in_staircase_span,
    pipe_dreams,
    schubert_poly,
    schubert_poly_oracle,
)
from schubfactor.verifier import ORTHOGONAL, SYMPLECTIC, member_set, needs_even_parts, product_side
from schubfactor.wset import block_word


def xvar(space, i):
    return Polynomial.variable(space, space.x(i))


def test_schubert_identity_is_one():
    assert schubert_poly(Permutation((1, 2))) == Polynomial.one(VariableSpace(2))


def test_schubert_longest_is_staircase():
    assert schubert_poly(Permutation((3, 2, 1))).text() == "x1^2 x2"
    sp = VariableSpace(5)
    staircase = Polynomial.monomial(sp, {sp.x(i): 5 - i for i in range(1, 5)})
    assert schubert_poly(longest_element(5), sp) == staircase


def test_schubert_132():
    sp = VariableSpace(3)
    assert schubert_poly(Permutation((1, 3, 2)), sp) == xvar(sp, 1) + xvar(sp, 2)


def test_schubert_chain_independence_spot():
    # the recursion always takes the smallest ascent; w = 2143 also admits
    # the chain 2143 -> 2413 -> 2431 -> 4231 -> 4321 through the larger one
    sp = VariableSpace(4)
    staircase = schubert_poly(longest_element(4), sp)
    alt = (
        staircase.divided_difference(2)
        .divided_difference(1)
        .divided_difference(3)
        .divided_difference(2)
    )
    assert alt == schubert_poly(Permutation((2, 1, 4, 3)), sp)


@pytest.mark.parametrize("n", range(2, 6))
def test_schubert_homogeneous_positive_with_code_leading_term(n):
    for w in all_permutations(n):
        f = schubert_poly(w)
        assert all(Polynomial(f.space, {e: 1}).total_degree() == w.length for e in f.terms)
        assert all(c > 0 for c in f.terms.values())
        exp, c = f.leading_term()
        assert c == 1
        assert _x_exponents(f.space, exp, n) == w.code()
        # the basis expansion takes the smallest key, not the canonical order
        smallest = min(f.terms)
        assert _x_exponents(f.space, smallest, n) == w.code()
        assert f.terms[smallest] == 1


def _x_exponents(space, key, n):
    """(e_1, ..., e_n) of an opaque terms key, read back through degree_in."""
    one = Polynomial(space, {key: 1})
    return tuple(one.degree_in(space.x(i)) for i in range(1, n + 1))


def test_oracle_examples():
    assert schubert_poly_oracle(Permutation((1, 2))) == Polynomial.one(VariableSpace(2))
    assert schubert_poly_oracle(Permutation((2, 1))).text() == "x1"


def test_too_small_space_is_rejected_before_any_work(monkeypatch):
    w = Permutation((1, 2, 3, 4, 5, 6, 7, 8))  # the recursion would walk down from w0 in S_8
    misses = schubert._schubert_terms.cache_info().misses
    with pytest.raises(ValueError, match="space has 3 x variables, need 8"):
        schubert_poly(w, VariableSpace(3))
    assert schubert._schubert_terms.cache_info().misses == misses

    def no_pipe_dreams(_w):
        raise AssertionError("pipe dreams enumerated before the size check")

    monkeypatch.setattr(schubert, "pipe_dreams", no_pipe_dreams)
    with pytest.raises(ValueError, match="space has 3 x variables, need 8"):
        schubert_poly_oracle(w, VariableSpace(3))


@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_matches_recursion_exhaustively(n):
    for w in all_permutations(n):
        assert schubert_poly_oracle(w) == schubert_poly(w), w


def test_pipe_dream_wirings_are_reduced_and_correct():
    # every enumerated diagram wires to w with exactly length(w) crosses
    for w in all_permutations(4):
        for diagram in pipe_dreams(w):
            assert len(diagram) == w.length
            assert _diagram_permutation(diagram, w.n) == w
            assert all(i + j <= w.n for (i, j) in diagram)


def _row_counts(diagram, n):
    counts = [0] * n
    for (i, _j) in diagram:
        counts[i - 1] += 1
    return tuple(counts)


@pytest.mark.parametrize("n", range(1, 7))
def test_ladder_moves_raise_row_counts_lexicographically(n):
    # the order the basis expansion relies on, checked on the pipe dreams alone:
    # the code diagram is the smallest, so x^code(w) is the smallest monomial
    for w in all_permutations(n):
        for diagram in pipe_dreams(w):
            counts = _row_counts(diagram, n)
            for moved in _ladder_successors(diagram):
                assert _row_counts(moved, n) > counts, (w, sorted(diagram))


def test_oracle_random_s7_sample():
    rng = random.Random(271828)
    words = [tuple(rng.sample(range(1, 8), 7)) for _ in range(20)]
    for word in words:
        w = Permutation(word)
        assert schubert_poly_oracle(w) == schubert_poly(w), w


# -- staircase span -------------------------------------------------------------


def test_in_staircase_span_examples():
    sp = VariableSpace(2)
    assert in_staircase_span(xvar(sp, 1), 2)
    assert not in_staircase_span(xvar(sp, 2), 2)


def test_in_staircase_span_product_example():
    sp = VariableSpace(7)
    f = Polynomial.monomial(
        sp, {sp.x(1): 5, sp.x(2): 4, sp.x(3): 4, sp.x(4): 1, sp.x(5): 1}
    )
    for (j, k) in ((1, 2), (4, 5), (4, 6)):
        f = f * (xvar(sp, j) + xvar(sp, k))
    assert in_staircase_span(f, 7)


def test_in_staircase_span_rejects_non_x():
    sp = VariableSpace(2)
    with pytest.raises(ValueError):
        in_staircase_span(Polynomial.variable(sp, sp.yfull(1)), 2)


def test_non_x_variable_raises_whatever_the_term_order():
    # x2 alone is outside the span for n = 2, so an early "not in span" answer
    # would hide y1 when x2's term comes first
    sp = VariableSpace(2)
    x2, y1 = xvar(sp, 2), Polynomial.variable(sp, sp.yfull(1))
    for f in (x2 + y1, y1 + x2):
        with pytest.raises(ValueError, match="non-x variable y1"):
            in_staircase_span(f, 2)
        with pytest.raises(ValueError, match="non-x variable y1"):
            expand_in_schubert_basis(f, 2)


# -- expansion -------------------------------------------------------------------


def test_expand_constant():
    sp = VariableSpace(3)
    exp = expand_in_schubert_basis(Polynomial.one(sp), 3)
    assert exp.coeffs == {Permutation((1, 2, 3)): 1}


def test_expand_linear():
    sp = VariableSpace(3)
    exp = expand_in_schubert_basis(xvar(sp, 1) + xvar(sp, 2), 3)
    assert exp.coeffs == {Permutation((1, 3, 2)): 1}


def test_expand_product_example():
    sp = VariableSpace(4)
    f = (xvar(sp, 1) + xvar(sp, 2)) * (xvar(sp, 1) + xvar(sp, 3))
    exp = expand_in_schubert_basis(f, 4)
    assert exp.coeffs == {
        Permutation((1, 3, 4, 2)): 1,
        Permutation((3, 1, 2, 4)): 1,
    }


def test_expand_rejects_outside_span():
    sp = VariableSpace(2)
    with pytest.raises(ValueError):
        expand_in_schubert_basis(xvar(sp, 2), 2)


@pytest.mark.parametrize("k", [1, 2])
def test_expand_rejects_n_beyond_space(k):
    # x1 lies in the staircase span for n = 3, but a space with fewer than
    # 3 x variables cannot hold the S_3 basis
    sp = VariableSpace(k)
    assert in_staircase_span(xvar(sp, 1), 3)
    with pytest.raises(ValueError, match="n <="):
        expand_in_schubert_basis(xvar(sp, 1), 3)
    with pytest.raises(ValueError, match="n <="):
        expand_in_schubert_basis(Polynomial.one(sp), 0)


@pytest.mark.parametrize(
    "sp", [VariableSpace(5), space_for(Composition((2, 3)))], ids=["plain", "blocks"]
)
def test_expand_in_smaller_group_than_space(sp):
    # the x-exponents beyond x_n and every y/z exponent are dropped before
    # the greedy expansion; only the span check may reject them
    for w in all_permutations(3):
        assert expand_in_schubert_basis(schubert_poly(w, sp), 3).coeffs == {w: 1}
    with pytest.raises(ValueError, match="staircase span"):
        expand_in_schubert_basis(xvar(sp, 4), 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_expansion_round_trip(n):
    for w in all_permutations(n):
        exp = expand_in_schubert_basis(schubert_poly(w), n)
        assert exp.coeffs == {w: 1}


def test_expansion_linearity():
    sp = VariableSpace(4)
    rng = random.Random(5)
    words = [tuple(rng.sample(range(1, 5), 4)) for _ in range(4)]
    f = schubert_poly(Permutation(words[0]), sp) * 3 + schubert_poly(
        Permutation(words[1]), sp
    )
    g = schubert_poly(Permutation(words[2]), sp) * -2
    ef = expand_in_schubert_basis(f, 4).coeffs
    eg = expand_in_schubert_basis(g, 4).coeffs
    combined = dict(ef)
    for w, c in eg.items():
        combined[w] = combined.get(w, 0) + c
    combined = {w: c for w, c in combined.items() if c}
    assert expand_in_schubert_basis(f + g, 4).coeffs == combined
    # combinations of all of S_5 mix degrees and cancel monomials, so plain
    # tuple order and the canonical grevlex order pick different steps
    sp = VariableSpace(5)
    for seed in range(3):
        rng = random.Random(seed)
        coeffs = {w: rng.randint(-3, 3) for w in all_permutations(5)}
        f = Polynomial.zero(sp)
        for w, c in coeffs.items():
            f = f + schubert_poly(w, sp) * c
        want = {w: c for w, c in coeffs.items() if c}
        assert expand_in_schubert_basis(f, 5).coeffs == want


def test_expansion_reconstructs():
    sp = VariableSpace(4)
    f = (xvar(sp, 1) + xvar(sp, 2)) * (xvar(sp, 1) + xvar(sp, 3)) * xvar(sp, 1)
    exp = expand_in_schubert_basis(f, 4)
    assert exp.to_polynomial(sp) == f


def _oracle_fold(pairs, space):
    """sum c * S_w as a Polynomial + fold over pipe-dream polynomials; asserts the memo is untouched."""
    memo = schubert._schubert_terms.cache_info()
    total = Polynomial.zero(space)
    for w, c in pairs:
        total = total + schubert_poly_oracle(w, space) * c
    assert schubert._schubert_terms.cache_info() == memo
    return total


def test_schubert_sum_matches_oracle_fold_with_repeats_and_smaller_groups():
    sp = VariableSpace(5, (2, 3))
    members = [
        Permutation((2, 1, 5, 3, 4)),
        Permutation((3, 1, 2)),  # padded from S_3
        Permutation((2, 1, 5, 3, 4)),  # a repeat counts twice
        Permutation((1, 4, 2, 3, 5)),
        Permutation((2, 1)),
    ]
    want = _oracle_fold([(w, 1) for w in members], sp)
    assert schubert.schubert_sum(members, sp) == want
    assert schubert.schubert_sum(iter(members), sp) == want
    assert schubert.schubert_sum([], sp).is_zero()


def test_to_polynomial_matches_oracle_fold_with_signed_coefficients():
    rng = random.Random(3)
    coeffs = {w: rng.choice([-3, -1, 1, 2, 5]) for w in rng.sample(list(all_permutations(5)), 15)}
    # S_213 - S_132 = x1 - (x1 + x2): the shared monomial cancels
    coeffs.update({Permutation((2, 1, 3, 4, 5)): 1, Permutation((1, 3, 2, 4, 5)): -1})
    expansion = SchubertExpansion(5, coeffs)
    for sp in (VariableSpace(5), VariableSpace(5, (3, 2)), VariableSpace(6)):
        assert expansion.to_polynomial(sp) == _oracle_fold(coeffs.items(), sp)
    assert expansion.to_polynomial() == _oracle_fold(coeffs.items(), VariableSpace(5))
    with pytest.raises(ValueError, match="space has 4 x variables, need 5"):
        expansion.to_polynomial(VariableSpace(4))


def test_expansion_json():
    exp = SchubertExpansion(3, {Permutation((1, 3, 2)): 1, Permutation((2, 1, 3)): 2})
    assert exp.to_json_dict() == {
        "n": 3,
        "terms": [
            {"perm": [1, 3, 2], "coeff": "1"},
            {"perm": [2, 1, 3], "coeff": "2"},
        ],
    }


# -- second expansion oracle: constant terms of divided differences ----------------


def _macdonald_coefficients(f, n):
    """
    {w: c_w} for f = sum c_w S_w over S_n: c_w is the constant term of d_w f
    (Macdonald, Notes on Schubert Polynomials, 1991).  d_w strips right
    descents i of w (w -> w s_i) one at a time and applies d_i in that
    order.  Builds no Schubert polynomial and never reads the memo; it
    shares only the divided-difference kernel with the expansion.
    """
    (one,) = Polynomial.one(f.space).terms  # the key of the constant monomial, read as an opaque key
    coeffs = {}
    for w in all_permutations(n):
        g, v = f, w
        while g.terms and (i := next((i for i in range(1, n) if v(i) > v(i + 1)), None)):
            g, v = g.divided_difference(i), v.times_s(i)
        if g.terms.get(one):
            coeffs[w] = g.terms[one]
    return coeffs


@pytest.mark.parametrize("n", range(1, 6))
def test_macdonald_oracle_reads_off_each_schubert_polynomial(n):
    # the constant term of d_w S_v is 1 if v = w and 0 otherwise
    for v in all_permutations(n):
        assert _macdonald_coefficients(schubert_poly(v), n) == {v: 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_expansion_matches_macdonald_oracle_on_random_span_polynomials(n):
    sp = VariableSpace(n)
    rng = random.Random(n)
    for _ in range(3):
        f = Polynomial.zero(sp)
        for _ in range(30):
            exps = {sp.x(i): rng.randint(0, n - i) for i in range(1, n + 1)}
            f = f + Polynomial.monomial(sp, exps, rng.randint(-3, 3))
        assert expand_in_schubert_basis(f, n).coeffs == _macdonald_coefficients(f, n)


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_product_sides_expand_to_their_member_sets_by_macdonald_oracle(family):
    even = needs_even_parts(family)
    for n in (2, 4, 6) if even else range(1, 7):
        for mu in enumerate_compositions(n, even_parts_only=even):
            rhs = product_side(mu, family)
            members = dict.fromkeys(member_set(mu, family).members, 1)
            assert _macdonald_coefficients(rhs, n) == members
            assert expand_in_schubert_basis(rhs, n).coeffs == members


NON_INTEGER_INDEX_USES = {
    "divided_difference": lambda i: xvar(VariableSpace(3), 1).divided_difference(i),
    "times_s": lambda i: Permutation((1, 2, 3)).times_s(i),
    "from_code": lambda i: from_code((i, 0)),
    "expand_in_schubert_basis": lambda n: expand_in_schubert_basis(Polynomial.one(VariableSpace(3)), n),
    "block_word": lambda i: block_word(Permutation((1, 2, 3)), Composition((1, 2)), i),
    "cross_pair_factor": lambda i: cross_pair_factor(Composition((1, 2)), i, 2),
    "enumerate_compositions": lambda n: enumerate_compositions(n),
}


@pytest.mark.parametrize("index", [True, 1.0])
@pytest.mark.parametrize("use", list(NON_INTEGER_INDEX_USES))
def test_non_integer_index_is_rejected(use, index):
    # True must not act as 1, and a float must not reach list indexing as a TypeError
    with pytest.raises(ValueError, match=re.escape(repr(index))):
        NON_INTEGER_INDEX_USES[use](index)
