"""
Differential tests of the packed-key polynomial kernel against a dense
reference that keys monomials by exponent tuples.

The reference lives only here.  It reads polynomials through the JSON form
and writes them back through monomial sums, so it never sees a packed key.
Where a result would hold an exponent above MAX_EXPONENT, the kernel must
raise ValueError instead.
"""

import pytest
from hypothesis import given, settings, strategies as st

from schubfactor.polynomial import MAX_EXPONENT, Polynomial, VariableSpace, product_of_linear_forms


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


def _image(max_exp):
    one_term = st.builds(
        lambda exps, c: {tuple(exps.get(v, 0) for v in range(N)): c},
        st.dictionaries(_vid, st.integers(1, max_exp), max_size=2),
        _coefficient,
    )
    return st.one_of(st.just({}), one_term)  # 0, an integer, a variable or c * monomial


# -- the differential tests -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_dense_poly, _dense_poly)
def test_mul_matches_dense(a, b):
    result = dense_mul(a, b)
    overflow = bool(a) and bool(b) and any(
        x + y > MAX_EXPONENT for e1 in a for e2 in b for x, y in zip(e1, e2)
    )
    expect(result, overflow, lambda: packed(a) * packed(b))


@settings(max_examples=200, deadline=None)
@given(_dense_poly, st.dictionaries(_vid, _image(3), min_size=1, max_size=4))
def test_remap_substitute_matches_dense(f, images):
    result, overflow = dense_substitute(f, images)
    expect(result, overflow, lambda: packed(f).substitute({v: packed(img) for v, img in images.items()}))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * N), _coefficient, max_size=4),
    st.dictionaries(
        _vid,
        st.one_of(_image(2), st.dictionaries(st.tuples(*[st.integers(0, 1)] * N), _coefficient, max_size=3)),
        min_size=1,
        max_size=3,
    ),
)
def test_grouped_substitute_matches_dense(f, images):
    result, overflow = dense_substitute(f, images)
    expect(result, overflow, lambda: packed(f).substitute({v: packed(img) for v, img in images.items()}))


@settings(max_examples=150, deadline=None)
@given(_dense_poly, st.integers(1, SPACE.n - 1))
def test_divided_difference_matches_dense(f, i):
    assert packed(f).divided_difference(i) == packed(dense_divided_difference(f, i))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(range(N)), _coefficient, max_size=3), max_size=5),
       st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_product_of_linear_forms_matches_dense(coeffs, consts):
    forms = [{(0,) * N: k} if k else {} for k in consts[: len(coeffs)]]
    for form, cs in zip(forms, coeffs):
        for vid, c in cs.items():
            form[tuple(int(v == vid) for v in range(N))] = c
    expected = {(0,) * N: 1}
    for form in forms:
        expected = dense_mul(expected, form)
    assert product_of_linear_forms(SPACE, [packed(form) for form in forms]) == packed(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exponents, min_size=1, max_size=8, unique=True))
def test_int_order_of_keys_is_tuple_order(exps):
    # the Schubert expansion takes min() of keys for the lexicographically smallest exponent vector
    keys = {next(iter(Polynomial.monomial(SPACE, dict(enumerate(e))).terms)): e for e in exps}
    assert [keys[k] for k in sorted(keys)] == sorted(exps)
    assert keys[min(keys)] == min(exps)
