import functools
import random
import re
from functools import reduce

import pytest

from schubfactor.cohomology import cross_pair_factor, ordinary_shape, space_for
from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations, from_code, identity, longest_element
from schubfactor import schubert
from schubfactor.polynomial import Polynomial, VariableSpace, product_of_linear_forms
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
from schubfactor.verifier import (
    ORTHOGONAL,
    SYMPLECTIC,
    member_set,
    needs_even_parts,
    product_side,
    verify_equivariant_suite,
)
from schubfactor.wset import block_word, w_set_full_orthogonal, w_set_full_symplectic


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
    # the recursion climbs 2143 -> 2413 -> 4213 (code 3100, dominant) at the smallest
    # i with code_i < code_{i+1}; w = 2143 also admits the chain 2143 -> 2413 -> 2431
    # -> 4231 -> 4321 from w0, through the larger ascent of 2413
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


@pytest.fixture
def dd_calls(monkeypatch):
    """(i, width) of every divided difference the Schubert module runs from here on."""
    calls = []
    step = schubert.divided_difference_terms

    def counted(terms, i, width, *out):
        calls.append((i, width))
        return step(terms, i, width, *out)

    monkeypatch.setattr(schubert, "divided_difference_terms", counted)
    return calls


def test_too_small_space_is_rejected_before_any_work(monkeypatch, dd_calls):
    w = Permutation((1, 2, 3, 4, 5, 6, 8, 7))  # s_7 of S_8: code 0000 0010, six steps from its dominant code
    with pytest.raises(ValueError, match="space has 3 x variables, need 8"):
        schubert_poly(w, VariableSpace(3))
    assert dd_calls == []
    sevens = "x1 + x2 + x3 + x4 + x5 + x6 + x7"
    assert schubert_poly(w, VariableSpace(8)).text() == sevens and len(dd_calls) == 6  # the counter counts

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
    with pytest.raises(ValueError, match="n >= 1"):
        in_staircase_span(xvar(sp, 1), 0)


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


def _oracle_fold(pairs, space, dd_calls):
    """sum c * S_w as a Polynomial + fold over pipe-dream polynomials; asserts no divided difference runs."""
    before = len(dd_calls)
    total = Polynomial.zero(space)
    for w, c in pairs:
        total = total + schubert_poly_oracle(w, space) * c
    assert len(dd_calls) == before
    return total


def _chain_to_dominant(w):
    """
    (i, v) for each word v on w's chain w, w s_i, ... up to its first dominant word u (a weakly
    decreasing code), u left out; i is the smallest with code(v)_i < code(v)_{i+1}, an ascent of v.
    """
    chain = []
    while True:
        code = w.code()
        i = next((i for i in range(1, w.n) if code[i - 1] < code[i]), None)
        if i is None:
            return chain
        assert w(i) < w(i + 1)
        chain.append((i, w.word))
        w = w.times_s(i)


def _nodes_below_dominant(w):
    """The words on w's chain up to its dominant word, that word itself left out."""
    return {v for _i, v in _chain_to_dominant(w)}


def _climb(w):
    """The steps (i_1, ..., i_k) of w's chain read from its dominant word u down: S_w = d_{i_k} ... d_{i_1} x^code(u)."""
    return tuple(i for i, _v in reversed(_chain_to_dominant(w)))


def test_sum_runs_one_divided_difference_per_distinct_node(dd_calls):
    sp = VariableSpace(6)
    members = list(member_set(Composition((6,)), ORTHOGONAL).members) + [
        Permutation((3, 5, 6, 1, 4, 2)),  # a repeat
        Permutation((1, 2, 3, 4, 5, 6)),  # dominant: a leaf of the root, no divided difference
        Permutation((3, 1, 2)),  # from S_3, dominant
        Permutation((2, 1)),  # from S_2, dominant
        Permutation((1, 3, 2)),  # from S_3: its one step is the first step of S_6 words
    ]
    assert members.count(Permutation((3, 5, 6, 1, 4, 2))) == 2
    # over all sizes together, the fold runs one divided difference per distinct nonempty
    # suffix of a path (a node of the trie keyed from the outermost step): the S_3 and S_6
    # words share nodes, where one trie per size ran 11
    paths = {_climb(w) for w in members}
    want = len({p[-k:] for p in paths for k in range(1, len(p) + 1)})
    nodes = set().union(*map(_nodes_below_dominant, members))
    assert want == 10 and len(nodes) == 24  # a walk per distinct node would run 24
    first = schubert.schubert_sum(members, sp)
    assert len(dd_calls) == want
    assert {width for _i, width in dd_calls} == {sp.num_vars}  # every node, on the space's own keys
    assert schubert.schubert_sum(members, sp) == first
    assert len(dd_calls) == 2 * want  # the second call recomputes: nothing is kept


def test_expansion_folds_each_greedy_code_to_its_dominant_code(dd_calls):
    # each greedy code is folded on its own into the remainder: one divided difference
    # per step of its path from its dominant code, on the space's own keys; the greedy
    # steps raise the remainder's smallest key, so the words come in increasing code order
    rhs = product_side(Composition((6,)), ORTHOGONAL)
    width = rhs.space.num_vars
    expansion = expand_in_schubert_basis(rhs, 6)
    steps = sorted(expansion.coeffs, key=Permutation.code)
    want = [(i, width) for w in steps for i in _climb(w)]
    assert dd_calls == want and len(want) == 24 and width > 6  # keys above a nonzero field offset
    assert expand_in_schubert_basis(rhs, 6) == expansion
    assert dd_calls == 2 * want  # the second call recomputes: nothing is kept


def _avoids_132(word):
    """No positions i < j < k with w(i) < w(k) < w(j), checked over all triples."""
    n = len(word)
    return not any(
        word[i] < word[k] < word[j] for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_dominant_words_are_leaves_read_off_their_code(n, dd_calls):
    # a 132-avoiding w has a weakly decreasing code and S_w = x^code(w) (Macdonald (4.7)):
    # the fold adds it as a leaf and runs no divided difference
    sp = VariableSpace(n)
    dominant = [w for w in all_permutations(n) if _avoids_132(w.word)]
    assert len(dominant) == [1, 2, 5, 14, 42, 132][n - 1]  # the Catalan numbers
    for w in dominant:
        code = w.code()
        assert all(a >= b for a, b in zip(code, code[1:])), w
        monomial = Polynomial.monomial(sp, {sp.x(i + 1): c for i, c in enumerate(code) if c})
        assert schubert_poly(w, sp) == monomial == schubert_poly_oracle(w, sp), w
    assert dd_calls == []


def test_words_of_two_sizes_share_one_dominant_leaf(dd_calls):
    sp = VariableSpace(5, (2, 3))
    small, padded = Permutation((3, 1, 2)), Permutation((3, 1, 2, 4))  # both of code 200
    x1 = xvar(sp, 1)
    assert schubert.schubert_sum([small, padded], sp) == x1 * x1 * 2
    assert SchubertExpansion(4, {small: 1, padded: -1}).to_polynomial(sp).is_zero()
    assert dd_calls == []


def test_orthogonal_nine_sum_starts_at_dominant_codes(dd_calls):
    # each of the 384 members climbs only to its first dominant code; climbs to w0 would run 3311
    mu = Composition((9,))
    members = member_set(mu, ORTHOGONAL).members
    rhs = product_side(mu, ORTHOGONAL)
    assert schubert.schubert_sum(members, rhs.space) == rhs
    assert len(dd_calls) == 467


def test_expansion_raises_when_a_greedy_step_leaves_the_smallest_key(monkeypatch):
    # a fold that subtracts nothing leaves the first word's code as the smallest key: the
    # greedy loop fails at the second step instead of running forever
    rhs = product_side(Composition((6,)), ORTHOGONAL)
    first = from_code((min(rhs.terms) >> 8 * (rhs.space.num_vars - 6)).to_bytes(6, "big"))
    monkeypatch.setattr(schubert, "_fold", lambda items, terms, width: None)
    with pytest.raises(RuntimeError, match=f"greedy step at {first} did not raise the smallest key"):
        expand_in_schubert_basis(rhs, 6)


def test_oracle_shares_no_code_with_the_recursion(monkeypatch):
    sp = VariableSpace(5, (2, 3))
    w = Permutation((3, 1, 2))  # padded from S_3
    want = schubert_poly(w, sp)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the recursion side")

    for name in ("_combination", "_fold", "divided_difference_terms", "packed_key", "_monk_step", "_monk_expansion"):
        monkeypatch.setattr(schubert, name, forbidden)
    assert schubert_poly_oracle(w, sp) == want


def test_schubert_sum_matches_oracle_fold_with_repeats_and_smaller_groups(dd_calls):
    sp = VariableSpace(5, (2, 3))
    members = [
        Permutation((2, 1, 5, 3, 4)),
        Permutation((3, 1, 2)),  # padded from S_3
        Permutation((2, 1, 5, 3, 4)),  # a repeat counts twice
        Permutation((1, 4, 2, 3, 5)),
        Permutation((2, 1)),
    ]
    want = _oracle_fold([(w, 1) for w in members], sp, dd_calls)
    assert schubert.schubert_sum(members, sp) == want
    assert schubert.schubert_sum(iter(members), sp) == want
    assert schubert.schubert_sum([], sp).is_zero()
    # words of three sizes, each size with many members whose paths share suffixes: all of
    # S_4 (the suffix groups hold up to 6 members), the orthogonal (5) set (8 members, 4 suffixes) and S_3
    members = [
        *all_permutations(4),
        *member_set(Composition((5,)), ORTHOGONAL).members,
        *all_permutations(3),
    ]
    assert {w.n for w in members} == {3, 4, 5}
    want = _oracle_fold([(w, 1) for w in members], sp, dd_calls)
    assert schubert.schubert_sum(members, sp) == want
    # paths that share their dominant code 42000 and their first 2 steps from it and end in
    # different last steps, so the trie keyed from the outermost step shares none of that prefix
    members = [
        Permutation(word) for word in ((1, 3, 2, 5, 4), (1, 3, 5, 2, 4), (3, 1, 2, 5, 4), (3, 1, 5, 2, 4))
    ]
    paths = [_climb(w) for w in members]
    assert {p[:2] for p in paths} == {(1, 2)} and {p[-1] for p in paths} == {1, 2, 3}
    assert {reduce(Permutation.times_s, reversed(p), w).code() for w, p in zip(members, paths)} == {(4, 2, 0, 0, 0)}
    want = _oracle_fold([(w, 1) for w in members], sp, dd_calls)
    assert schubert.schubert_sum(members, sp) == want


def test_to_polynomial_matches_oracle_fold_with_signed_coefficients(dd_calls):
    rng = random.Random(3)
    coeffs = {w: rng.choice([-3, -1, 1, 2, 5]) for w in rng.sample(list(all_permutations(5)), 15)}
    # S_213 - S_132 = x1 - (x1 + x2): the shared monomial cancels
    coeffs.update({Permutation((2, 1, 3, 4, 5)): 1, Permutation((1, 3, 2, 4, 5)): -1})
    expansion = SchubertExpansion(5, coeffs)
    for sp in (VariableSpace(5), VariableSpace(5, (3, 2)), VariableSpace(6)):
        assert expansion.to_polynomial(sp) == _oracle_fold(coeffs.items(), sp, dd_calls)
    assert expansion.to_polynomial() == _oracle_fold(coeffs.items(), VariableSpace(5), dd_calls)
    with pytest.raises(ValueError, match="space has 4 x variables, need 5"):
        expansion.to_polynomial(VariableSpace(4))
    # all of S_4 with signed coefficients: 1432 and 2413 take the same first step, so they
    # share a group, and their children S_4132 and S_4213 share a monomial that cancels there
    rng = random.Random(4)
    coeffs = {w: rng.choice([-2, -1, 1, 3]) for w in all_permutations(4)}
    coeffs.update({Permutation((1, 4, 3, 2)): 1, Permutation((2, 4, 1, 3)): -1})
    expansion = SchubertExpansion(4, coeffs)
    for sp in (VariableSpace(4), VariableSpace(5, (2, 3))):
        assert expansion.to_polynomial(sp) == _oracle_fold(coeffs.items(), sp, dd_calls)
    # words of three sizes that share dominant leaves of the root: 312 and 3124 (code 200),
    # 21 and 21345 (code 10), so S_312 - S_3124 and 2 S_21 - 2 S_21345 cancel across sizes
    # there, and 3 S_14235 = 3 S_1423 is left
    coeffs = {
        Permutation((3, 1, 2)): 1,
        Permutation((3, 1, 2, 4)): -1,
        Permutation((2, 1)): 2,
        Permutation((2, 1, 3, 4, 5)): -2,
        Permutation((1, 4, 2, 3, 5)): 3,
    }
    sp = VariableSpace(5, (2, 3))
    got = SchubertExpansion(5, coeffs).to_polynomial(sp)
    assert got == _oracle_fold(coeffs.items(), sp, dd_calls)
    assert got == schubert_poly_oracle(Permutation((1, 4, 2, 3)), sp) * 3


def test_expansion_json():
    exp = SchubertExpansion(3, {Permutation((1, 3, 2)): 1, Permutation((2, 1, 3)): 2})
    assert exp.to_json_dict() == {
        "n": 3,
        "terms": [
            {"perm": [1, 3, 2], "coeff": "1"},
            {"perm": [2, 1, 3], "coeff": "2"},
        ],
    }


# -- Monk's rule -------------------------------------------------------------------


def _padded(word, n):
    return Permutation(word + tuple(range(len(word) + 1, n + 1)))


@pytest.mark.parametrize("n", range(1, 6))
def test_monk_step_matches_oracle_product(n):
    # x_k S_w against the pipe-dream oracle, for every k <= len(word), on the keys the
    # expansion carries: every w of S_n, and every w of S_(n+1) that does not end in n + 1
    sp = VariableSpace(n + 2)
    oracle = functools.cache(lambda word: schubert_poly_oracle(_padded(word, n + 2), sp))
    words = [w.word for w in all_permutations(n)]
    words += [w.word for w in all_permutations(n + 1) if w.word[-1] != n + 1]
    for word in words:
        for k in range(1, len(word) + 1):
            out = {}
            schubert._monk_step(out, word, k, k)
            total = Polynomial.zero(sp)
            for key, c in out.items():
                # the shortest word of its class with at least n letters
                assert c and (len(key) == n or key[-1] != len(key)), (word, k, key)
                total = total + c * oracle(key)
            assert total == k * xvar(sp, k) * oracle(word), (word, k)


def test_skew_sum_factors_into_its_blocks():
    # S_(u ⊖ v) = (x1...xa)^b S_u(x1..xa) S_v(x_(a+1)..x_(a+b)), u ⊖ v = (u(1) + b, ..., u(a) + b,
    # v(1), ..., v(b)), every side from the pipe-dream oracle: every u in S_a and v in S_b, a + b <= 7
    pairs = 0
    for size in range(2, 8):
        sp = VariableSpace(size)
        oracle = functools.cache(lambda word, sp=sp: schubert_poly_oracle(_padded(word, sp.n), sp))
        for a in range(1, size):
            b = size - a
            head = Polynomial.monomial(sp, {sp.x(i): b for i in range(1, a + 1)})
            shift = {sp.x(i): xvar(sp, a + i) for i in range(1, b + 1)}
            for u in all_permutations(a):
                left = head * oracle(u.word)
                for v in all_permutations(b):
                    want = left * oracle(v.word).substitute(shift)
                    assert oracle(tuple(p + b for p in u.word) + v.word) == want, (u, v)
                    pairs += 1
    assert pairs == 2673


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_monk_expansion_matches_greedy_expansion_of_every_product_side(family):
    even = needs_even_parts(family)
    for n in (2, 4, 6, 8) if even else range(1, 8):
        for mu in enumerate_compositions(n, even_parts_only=even):
            want = expand_in_schubert_basis(product_side(mu, family), n).coeffs
            got = schubert._monk_expansion(*ordinary_shape(mu, half_slots=not even))
            assert {_padded(word, n): c for word, c in got.items()} == want, mu


def test_monk_expansion_of_random_shapes_matches_the_product():
    # shapes no family makes: a weakly decreasing e with n <= 6 and seeded pairs j < k <= n, repeats
    # allowed, against x^e * prod (x_j + x_k) multiplied out; every key is the shortest word of its
    # class with at least n letters, so it has n letters or does not end in its own length
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 6)
        e = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        pairs = [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(rng.randint(0, 5) if n > 1 else 0)]
        expansion = schubert._monk_expansion(e, pairs)
        assert all(len(w) == n or w[-1] != len(w) for w in expansion), (e, pairs)
        sp = VariableSpace(max(n, *map(len, expansion)))
        head = Polynomial.monomial(sp, {sp.x(i): p for i, p in enumerate(e, 1)})
        forms = [xvar(sp, j) + xvar(sp, k) for j, k in pairs]
        want = product_of_linear_forms(sp, forms, head=head)
        assert schubert._combination(((Permutation(w), c) for w, c in expansion.items()), sp) == want, (e, pairs)


def test_monk_expansion_of_shape_examples():
    # S_u for the dominant u of code e, padded only to the length e needs
    assert schubert._monk_expansion([1, 0, 0], []) == {(2, 1, 3): 1}
    assert schubert._monk_expansion([2, 0], []) == {(3, 1, 2): 1}
    # x1 (x1 + x2) = S_312 + S_231
    assert schubert._monk_expansion([1, 0, 0], [(1, 2)]) == {(3, 1, 2): 1, (2, 3, 1): 1}
    # (x1 + x2)(x1 + x3) = S_312 + S_1342, the last one outside S_3
    assert schubert._monk_expansion([0, 0, 0], [(1, 2), (1, 3)]) == {(3, 1, 2): 1, (1, 3, 4, 2): 1}
    # (x1 + x2)^2 = S_231 + S_1423 with n = 2: both outside S_2, each keyed by its shortest word
    assert schubert._monk_expansion([0, 0], [(1, 2), (1, 2)]) == {(2, 3, 1): 1, (1, 4, 2, 3): 1}


def test_monk_expansion_refuses_what_is_not_a_dominant_head_times_binomials():
    # a shape of integer pairs is always binomials x_j + x_k, so only the head can be refused
    with pytest.raises(ValueError, match="head exponents \\[0, 1, 0\\] are not weakly decreasing"):
        schubert._monk_expansion([0, 1, 0], [])


# -- second expansion oracle: constant terms of divided differences ----------------


def _macdonald_coefficients(f, n):
    """
    {w: c_w} for f = sum c_w S_w over S_n: c_w is the constant term of d_w f
    (Macdonald, Notes on Schubert Polynomials, 1991).  d_w strips right
    descents i of w (w -> w s_i) one at a time and applies d_i in that
    order.  Builds no Schubert polynomial and never walks the Schubert
    tree; it shares only the divided-difference kernel with the expansion.
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
    rng = random.Random(n)
    for _ in range(3):
        draws = [([rng.randint(0, n - i) for i in range(1, n + 1)], rng.randint(-3, 3)) for _ in range(30)]
        # the same polynomial on x1..x_n alone and in a space whose keys hold x_{n+1}, y and z
        # fields below x_n, so the expansion's keys sit above a nonzero field offset
        for sp in (VariableSpace(n), VariableSpace(n + 1, (1, n))):
            f = Polynomial.zero(sp)
            for exps, c in draws:
                f = f + Polynomial.monomial(sp, {sp.x(i): e for i, e in enumerate(exps, 1)}, c)
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
    "identity": identity,
    "longest_element": longest_element,
    "all_permutations": lambda n: next(all_permutations(n)),
    "w_set_full_orthogonal": w_set_full_orthogonal,
    "w_set_full_symplectic": w_set_full_symplectic,
    "in_staircase_span": lambda n: in_staircase_span(xvar(VariableSpace(3), 1), n),
    "verify_equivariant_suite": lambda n: verify_equivariant_suite(Composition((2, 1)), localization_max_n=n),
}
# True and 1.0 are odd sizes, which the symplectic family rejects anyway
NON_INTEGER_INDICES = {"w_set_full_symplectic": (2.0,)}


@pytest.mark.parametrize("use, index", [
    pytest.param(use, index, id=f"{use}-{index}")
    for use in NON_INTEGER_INDEX_USES
    for index in NON_INTEGER_INDICES.get(use, (True, 1.0))
])
def test_non_integer_index_is_rejected(use, index):
    # True must not act as 1, and a float must not reach list indexing as a TypeError
    with pytest.raises(ValueError, match=re.escape(repr(index))):
        NON_INTEGER_INDEX_USES[use](index)
