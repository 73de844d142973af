"""
Differential tests of the packed-key polynomial kernel against a dense
reference that keys monomials by exponent tuples.

The reference lives only here.  It reads polynomials through the JSON form
and writes them back through monomial sums, so it never sees a packed key.
Where a result would hold an exponent above MAX_EXPONENT, the kernel must
raise ValueError instead.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from schubfactor.polynomial import (
    MAX_EXPONENT,
    Polynomial,
    VariableSpace,
    bijective_substitutions,
    product_of_linear_forms,
)


SPACE = VariableSpace(3, (2, 1))  # x, y, one y-block and two z variables: 9 fields
N = SPACE.num_vars
NAMES = {SPACE.name(vid): vid for vid in range(N)}


# -- the dense reference ---------------------------------------------------------


def dense(f):
    """{exponent tuple: c} of a polynomial, read from its JSON form."""
    out = {}
    for term in f.to_json_dict()["terms"]:
        exp = [0] * N
        for name, e in term["exp"]:
            exp[NAMES[name]] = e
        out[tuple(exp)] = int(term["coeff"])
    return out


def packed(terms):
    """The polynomial of a dense map, built as a sum of monomials."""
    f = Polynomial.zero(SPACE)
    for exp, c in terms.items():
        f = f + Polynomial.monomial(SPACE, dict(enumerate(exp)), c)
    return f


def unit(vid):
    """The exponent tuple of the variable vid."""
    return tuple(int(v == vid) for v in range(N))


def dense_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(int.__add__, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense_pow(a, k):
    out = {(0,) * N: 1}
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def dense_substitute(f, images):
    """(result, overflow): overflow if the image of some term, before the sum, passes MAX_EXPONENT."""
    out, overflow = {}, False
    for exp, c in f.items():
        kept = tuple(0 if vid in images else e for vid, e in enumerate(exp))
        term = {kept: c}
        for vid, img in images.items():
            term = dense_mul(term, dense_pow(img, exp[vid]))
        overflow |= any(e > MAX_EXPONENT for key in term for e in key)
        for key, c2 in term.items():
            out[key] = out.get(key, 0) + c2
    return {e: c for e, c in out.items() if c}, overflow


def dense_divided_difference(f, i):
    xi, xj = i - 1, i
    out = {}
    for exp, c in f.items():
        a, b = exp[xi], exp[xj]
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        for k in range(lo, hi):
            key = list(exp)
            key[xi], key[xj] = k, lo + hi - 1 - k
            out[tuple(key)] = out.get(tuple(key), 0) + sign
    return {e: c for e, c in out.items() if c}


def expect(result, overflow, run):
    if overflow:
        with pytest.raises(ValueError, match="exponent"):
            run()
    else:
        got = run()
        assert dense(got) == result
        assert got == packed(result)


# -- strategies ---------------------------------------------------------------------

# small exponents, and large ones whose sums reach or pass the limit
_exponent = st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(40, MAX_EXPONENT))
_exponents = st.tuples(*[_exponent] * N)
_coefficient = st.integers(-4, 4).filter(bool)
_dense_poly = st.dictionaries(_exponents, _coefficient, max_size=4)
_vid = st.integers(0, N - 1)
_image = st.one_of(  # 0, an integer, a variable or c * monomial
    st.just({}),
    st.builds(
        lambda exps, c: {tuple(exps.get(v, 0) for v in range(N)): c},
        st.dictionaries(_vid, st.integers(1, 3), max_size=2),
        _coefficient,
    ),
)

_affine_form = st.builds(  # [c1 v1 + c2 v2 + c3 v3 + k]
    lambda cs, k: [{(0,) * N: k, **{unit(vid): c for vid, c in cs.items()}}],
    st.dictionaries(_vid, _coefficient, max_size=3),
    st.integers(-3, 3),
)
_cancelling_pair = st.builds(  # [a u - b v, a u + b v]: the cross terms of their product cancel
    lambda u, v, a, b: [{unit(u): a, unit(v): -b}, {unit(u): a, unit(v): b}],
    _vid, _vid, st.integers(-3, 3), st.integers(-3, 3),
)


# -- the differential tests -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_dense_poly, _dense_poly)
def test_mul_matches_dense(a, b):
    result = dense_mul(a, b)
    overflow = bool(a) and bool(b) and any(
        x + y > MAX_EXPONENT for e1 in a for e2 in b for x, y in zip(e1, e2)
    )
    expect(result, overflow, lambda: packed(a) * packed(b))


@settings(max_examples=350, deadline=None)
@given(st.one_of(
    # large exponents in f, images of at most one term: the overflow rule
    st.tuples(_dense_poly, st.dictionaries(_vid, _image, min_size=1, max_size=4)),
    # small exponents in f, multi-term images too
    st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * N), _coefficient, max_size=4),
        st.dictionaries(
            _vid,
            st.one_of(_image, st.dictionaries(st.tuples(*[st.integers(0, 1)] * N), _coefficient, max_size=3)),
            min_size=1,
            max_size=4,
        ),
    ),
))
def test_grouped_substitute_matches_dense(case):
    f, images = case
    result, overflow = dense_substitute(f, images)
    expect(result, overflow, lambda: packed(f).substitute({v: packed(img) for v, img in images.items()}))


_substituted_poly = st.one_of(_dense_poly, st.dictionaries(st.tuples(*[st.integers(0, 2)] * N), _coefficient, max_size=8))


@settings(max_examples=150, deadline=None)
@given(_substituted_poly, st.permutations(range(N)), st.integers(0, 4))
def test_bijective_substitutions_match_dense(f, order, k):
    # k distinct sources and k other targets, anywhere among the x, y, y-block and z fields
    sources, targets = order[:k], order[k : 2 * k]
    units = [{unit(vid): 1} for vid in targets]
    items = bijective_substitutions(packed(f), sources, targets)
    for w in itertools.permutations(range(k)):
        result, overflow = dense_substitute(f, {v: units[j] for v, j in zip(sources, w)})
        try:
            item = next(items, None)
        except ValueError as exc:
            # raised at the first w whose path holds a term above the limit
            assert overflow and "exponent" in str(exc), w
            return
        # one item per word, in word order: a walk that prunes, skips or repeats a word fails here
        assert item is not None and item[0] == tuple(j + 1 for j in w), (item, w)
        assert dense(item[1]) == result and max(map(max, result), default=0) <= MAX_EXPONENT, w
    assert next(items, None) is None


@settings(max_examples=150, deadline=None)
@given(_substituted_poly, st.permutations(range(N)), st.integers(0, 4), st.data())
def test_bijective_substitutions_block_orbits_match_dense(f, order, k, data):
    # blocks of consecutive sources, and f symmetrized over the permutations inside them
    sources, targets = order[:k], order[k : 2 * k]
    cuts = sorted(data.draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
    bounds = [0, *cuts, k] if k else [0]
    parts = [b - a for a, b in zip(bounds, bounds[1:])]
    symmetric = {}
    for sigma in itertools.product(*[itertools.permutations(range(a, b)) for a, b in zip(bounds, bounds[1:])]):
        moved = [i for block in sigma for i in block]  # source i takes the exponent of source moved[i]
        for exp, c in f.items():
            new = list(exp)
            for i, j in enumerate(moved):
                new[sources[i]] = exp[sources[j]]
            symmetric[tuple(new)] = symmetric.get(tuple(new), 0) + c
    symmetric = {e: c for e, c in symmetric.items() if c}
    units = [{unit(vid): 1} for vid in targets]
    expected = [
        dense_substitute(symmetric, {v: units[j] for v, j in zip(sources, w)})
        for w in itertools.permutations(range(k))
    ]
    try:
        items = list(bijective_substitutions(packed(symmetric), sources, targets, parts))
    except ValueError as exc:
        assert any(overflow for _, overflow in expected) and "exponent" in str(exc)
        return
    def block_sorted(word):
        return tuple(v for a, b in zip(bounds, bounds[1:]) for v in sorted(word[a:b]))

    # one item per word rising inside every block, in word order: a walk that prunes, skips or repeats a word fails here
    words = list(itertools.permutations(range(1, k + 1)))
    assert [word for word, _ in items] == [w for w in words if block_sorted(w) == w], parts
    by_word = dict(items)
    for w, (result, _) in zip(words, expected):
        assert dense(by_word[block_sorted(w)]) == result, (w, parts)


@settings(max_examples=150, deadline=None)
@given(_dense_poly, st.integers(1, SPACE.n - 1))
def test_divided_difference_matches_dense(f, i):
    assert packed(f).divided_difference(i) == packed(dense_divided_difference(f, i))


@settings(max_examples=350, deadline=None)
@given(st.lists(st.one_of(_affine_form, _cancelling_pair), max_size=5), _exponents, st.integers(-4, 4))
def test_product_of_linear_forms_matches_dense(groups, head_exp, head_c):
    forms = [form for group in groups for form in group]
    expected = {(0,) * N: 1}
    for form in forms:
        expected = dense_mul(expected, form)
    got = product_of_linear_forms(SPACE, [packed(form) for form in forms])
    assert got == packed(expected)
    # the degree the product carries is the one its decoded keys give, 0 when a form is 0
    assert got.total_degree() == Polynomial(SPACE, got.terms).total_degree() == max(map(sum, expected), default=0)
    # from a one-term head, 0 when head_c is 0: overflow if some partial product passes the limit
    expected, overflow = {head_exp: head_c} if head_c else {}, False
    for form in forms:
        expected = dense_mul(expected, form)
        overflow |= any(e > MAX_EXPONENT for key in expected for e in key)
    head = packed({head_exp: head_c} if head_c else {})
    expect(expected, overflow, lambda: product_of_linear_forms(SPACE, [packed(form) for form in forms], head=head))
    if not overflow:
        got = product_of_linear_forms(SPACE, [packed(form) for form in forms], head=head)
        assert got.total_degree() == Polynomial(SPACE, got.terms).total_degree() == max(map(sum, expected), default=0)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exponents, min_size=1, max_size=8, unique=True))
def test_int_order_of_keys_is_tuple_order(exps):
    # the Schubert expansion takes min() of keys for the lexicographically smallest exponent vector
    keys = {next(iter(Polynomial.monomial(SPACE, dict(enumerate(e))).terms)): e for e in exps}
    assert [keys[k] for k in sorted(keys)] == sorted(exps)
    assert keys[min(keys)] == min(exps)
