import random

import pytest

from schubfactor.cohomology import space_for
from schubfactor.composition import Composition
from schubfactor.permutation import Permutation, all_permutations, longest_element
from schubfactor.polynomial import Polynomial, VariableSpace
from schubfactor.schubert import (
    SchubertExpansion,
    _diagram_permutation,
    expand_in_schubert_basis,
    in_staircase_span,
    pipe_dreams,
    schubert_poly,
    schubert_poly_oracle,
)


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
        assert all(sum(e) == w.length for e in f.terms)
        assert all(c > 0 for c in f.terms.values())
        exp, c = f.leading_term()
        assert c == 1
        assert tuple(exp[:n]) == w.code()


def test_oracle_examples():
    assert schubert_poly_oracle(Permutation((1, 2))) == Polynomial.one(VariableSpace(2))
    assert schubert_poly_oracle(Permutation((2, 1))).text() == "x1"


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


def test_expansion_reconstructs():
    sp = VariableSpace(4)
    f = (xvar(sp, 1) + xvar(sp, 2)) * (xvar(sp, 1) + xvar(sp, 3)) * xvar(sp, 1)
    exp = expand_in_schubert_basis(f, 4)
    assert exp.to_polynomial(sp) == f


def test_expansion_json():
    exp = SchubertExpansion(3, {Permutation((1, 3, 2)): 1, Permutation((2, 1, 3)): 2})
    assert exp.to_json_dict() == {
        "n": 3,
        "terms": [
            {"perm": [1, 3, 2], "coeff": "1"},
            {"perm": [2, 1, 3], "coeff": "2"},
        ],
    }
