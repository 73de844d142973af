import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from schubfactor.polynomial import (
    Polynomial,
    VariableSpace,
    product_of_linear_forms,
)


SPACE3 = VariableSpace(3)
SPACE22 = VariableSpace(4, (2, 2))


def x(i, space=SPACE3):
    return Polynomial.variable(space, space.x(i))


def y(i, space=SPACE3):
    return Polynomial.variable(space, space.yfull(i))


def random_poly(rng, space, max_terms=6, max_exp=3, max_coeff=9):
    f = Polynomial.zero(space)
    for _ in range(rng.randint(0, max_terms)):
        exps = {
            vid: rng.randint(0, max_exp) if rng.random() < 0.5 else 0
            for vid in range(space.num_vars)
        }
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            f = f + Polynomial.monomial(space, exps, c)
    return f


def key_of(space, exps):
    """The opaque terms key of the monomial prod x_vid^e, read from a public constructor."""
    (key,) = Polynomial.monomial(space, exps).terms
    return key


def exponents(space, key):
    """{vid: e} of an opaque terms key, read back through degree_in."""
    one = Polynomial(space, {key: 1})
    return {vid: one.degree_in(vid) for vid in range(space.num_vars) if one.degree_in(vid)}


# -- variable space ------------------------------------------------------------


def test_space_families_and_order():
    sp = VariableSpace(5, (2, 3))
    names = [sp.name(v) for v in range(sp.num_vars)]
    assert names == [
        "x1", "x2", "x3", "x4", "x5",
        "y1", "y2", "y3", "y4", "y5",
        "y1_1", "y2_1",
        "z1", "z2",
    ]
    assert sp.x(1) == 0 and sp.yfull(1) == 5 and sp.yblock(2, 1) == 11 and sp.z(2) == 13


def test_space_bad_block_indices():
    sp = VariableSpace(4, (2, 2))
    with pytest.raises(ValueError):
        sp.yblock(1, 2)  # block 1 has a single half slot
    with pytest.raises(ValueError):
        sp.z(3)


@pytest.mark.parametrize("n, mu", [
    (True, None),
    (2.0, None),
    ("2", None),
    (2, (1.0, 1.0)),
    (2, (True, True)),
    (3, (2, "1")),
])
def test_space_rejects_non_integer_sizes(n, mu):
    with pytest.raises(ValueError, match="not an integer"):
        VariableSpace(n, mu)


def test_space_equality():
    assert VariableSpace(3) == VariableSpace(3)
    assert VariableSpace(3) != VariableSpace(4)
    assert VariableSpace(4, (2, 2)) != VariableSpace(4, (4,))
    assert VariableSpace(4, (2, 2)) != VariableSpace(4)


def test_space_is_immutable_and_round_trips():
    sp = VariableSpace(4, (2, 2))
    for attr, value in (("n", 4), ("mu", (4,)), ("num_vars", 3), ("_names", ())):
        with pytest.raises(AttributeError):
            setattr(sp, attr, value)
        with pytest.raises(AttributeError):
            delattr(sp, attr)
    assert sp.n == 4 and sp.mu == (2, 2) and sp.num_vars == 12 and sp.name(11) == "z2"
    p = Polynomial.linear_form(sp, {sp.x(1): 2, sp.yblock(2, 1): -1, sp.z(2): 3}) * x(4, sp)
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert back == p and back.space == sp and back.text() == p.text()
        assert back.space.num_vars == sp.num_vars and back + p == 2 * p


# -- ring arithmetic -----------------------------------------------------------


def test_add_cancels():
    assert (x(1) + (-1) * x(1)).is_zero()


def test_product_expansion():
    lhs = (x(1) + x(2)) * (x(1) + x(3))
    rhs = x(1) * x(1) + x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    assert lhs == rhs


def test_scale():
    assert x(1) * 2 == x(1) + x(1)
    assert 2 * x(1) == x(1) * 2


@pytest.mark.parametrize("build, message", [
    (lambda: Polynomial.monomial(SPACE3, {SPACE3.x(1): 1}, 2.7), "coefficient 2.7"),
    (lambda: Polynomial.linear_form(SPACE3, {SPACE3.x(1): 0.5, SPACE3.x(2): 1}), "coefficient 0.5"),
    (lambda: Polynomial.monomial(SPACE3, {SPACE3.x(1): 1.5}), "exponent 1.5"),
], ids=["monomial-coefficient", "linear-form-coefficient", "monomial-exponent"])
def test_constructors_reject_non_integers_instead_of_truncating(build, message):
    with pytest.raises(ValueError, match=f"{message} is not an integer"):
        build()


def test_integer_operands_still_work_and_equality_never_raises():
    assert (x(1) + 1) - 1 == x(1)
    assert Polynomial.one(SPACE3) == 1 and Polynomial.one(SPACE3) == True  # noqa: E712
    assert x(1) + True == x(1) + 1
    assert not x(1) == 1.5 and not x(1) == "x1" and not Polynomial.zero(SPACE3) == 0.0


def test_space_mismatch_raises():
    with pytest.raises(ValueError):
        x(1) + x(1, VariableSpace(4))
    with pytest.raises(ValueError):
        x(1) * x(1, VariableSpace(4))


def test_pow():
    f = x(1) + 1
    assert f ** 0 == Polynomial.one(SPACE3)
    assert f ** 3 == f * f * f


def test_no_zero_coefficients_stored():
    f = (x(1) + x(2)) * (x(1) - x(2)) - x(1) * x(1)
    assert all(c != 0 for c in f.terms.values())
    assert f == -(x(2) * x(2))


def test_terms_are_a_read_only_zero_free_copy():
    sp = VariableSpace(2)
    e, f = key_of(sp, {sp.x(1): 1}), key_of(sp, {sp.x(2): 1})
    # canonical form: the constructor drops zero coefficients
    zero = Polynomial(sp, {e: 0})
    assert zero.is_zero() and zero == 0 and zero.text() == "0"
    assert zero.total_degree() == 0 and zero.to_json_dict()["terms"] == []
    assert Polynomial(sp, {e: 0, f: 2}) == Polynomial(sp, {f: 2})
    # read-only
    p = Polynomial(sp, {e: 1})
    with pytest.raises(TypeError):
        p.terms[e] = 1
    with pytest.raises(TypeError):
        del p.terms[e]
    # the constructor's argument is copied, and round trips keep working
    source = {e: 3}
    q = Polynomial(sp, source)
    source[e] = 0
    source[f] = 1
    assert q.terms == {e: 3}
    for back in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
        assert back == q and back.space == sp
    # the attributes themselves cannot be rebound either
    with pytest.raises(AttributeError):
        q.terms = {e: 0}
    with pytest.raises(AttributeError):
        q.space = VariableSpace(3)
    assert q.terms == {e: 3} and q.text() == "3 x1" and q.space == sp
    assert q + q == Polynomial(sp, {e: 6})


@pytest.mark.parametrize("other", [2.5, "3", None])
def test_sub_rejects_what_add_rejects(other):
    for a, b in ((x(1), other), (other, x(1))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError, match="for -"):
            a - b


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f, g, h = (random_poly(rng, SPACE3) for _ in range(3))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial.zero(SPACE3)


def test_big_coefficients_exact():
    import math

    f = (x(1) + 1) ** 70
    assert f.degree_in(SPACE3.x(1)) == 70
    # middle binomial coefficient C(70, 35) exceeds 64-bit range
    assert f.terms[key_of(SPACE3, {SPACE3.x(1): 35})] == math.comb(70, 35)
    assert math.comb(70, 35) > 2 ** 63


# -- divided differences -------------------------------------------------------


def test_divided_difference_examples():
    assert x(1).divided_difference(1) == Polynomial.one(SPACE3)
    assert x(1).divided_difference(2).is_zero()
    f = x(1) * x(1) * x(2)  # x1^2 x2
    assert f.divided_difference(2) == x(1) * x(1)


def test_divided_difference_out_of_range():
    with pytest.raises(ValueError):
        x(1).divided_difference(3)


@settings(max_examples=100)
@given(st.integers(0, 10 ** 6))
def test_divided_difference_properties(seed):
    rng = random.Random(seed)
    f = random_poly(rng, SPACE3)
    for i in (1, 2):
        d = f.divided_difference(i)
        # exactness: d * (x_i - x_{i+1}) reproduces the antisymmetrization
        xi = Polynomial.variable(SPACE3, SPACE3.x(i))
        xj = Polynomial.variable(SPACE3, SPACE3.x(i + 1))
        assert d * (xi - xj) == f - f.swap_x(i)
        assert d.swap_x(i) == d  # symmetric in the swapped pair
        assert d.divided_difference(i).is_zero()  # square is zero
    # braid relation
    b1 = f.divided_difference(1).divided_difference(2).divided_difference(1)
    b2 = f.divided_difference(2).divided_difference(1).divided_difference(2)
    assert b1 == b2


def test_divided_difference_commutes_far_apart():
    sp = VariableSpace(5)
    rng = random.Random(7)
    f = random_poly(rng, sp)
    a = f.divided_difference(1).divided_difference(3)
    b = f.divided_difference(3).divided_difference(1)
    assert a == b


def test_divided_difference_treats_other_families_as_constants():
    f = (x(1) - y(2)) * x(1)
    d = f.divided_difference(1)
    assert d == x(1) + x(2) - y(2)


# -- substitution ---------------------------------------------------------------


def test_substitute_rename():
    f = x(1) + x(2)
    g = f.substitute({SPACE3.x(i): y(i) for i in (1, 2)})
    assert g == y(1) + y(2)


def test_substitute_collapse():
    f = x(1) - y(2)
    assert f.substitute({SPACE3.x(1): y(2)}).is_zero()
    # cancelling terms leave no zero coefficient behind
    neg_y1 = Polynomial.monomial(SPACE3, {SPACE3.yfull(1): 1}, -1)
    assert (x(1) + x(2)).substitute({SPACE3.x(1): neg_y1, SPACE3.x(2): y(1)}).is_zero()
    two_y1 = Polynomial.monomial(SPACE3, {SPACE3.yfull(1): 1}, 2)
    f = x(1) ** 2 - 4 * y(1) ** 2 + x(3)
    assert f.substitute({SPACE3.x(1): two_y1}).terms == x(3).terms


def test_substitute_to_zero():
    sp = VariableSpace(2, (2,))
    xs = [Polynomial.variable(sp, sp.x(i)) for i in (1, 2)]
    z1 = Polynomial.variable(sp, sp.z(1))
    f = xs[0] + xs[1] - 2 * z1
    assert f.substitute({sp.z(1): 0}) == xs[0] + xs[1]


def test_substitute_powers():
    f = x(1) ** 3
    g = f.substitute({SPACE3.x(1): x(2) + 1})
    assert g == (x(2) + 1) ** 3


def test_substitute_rejects_other_space():
    other = VariableSpace(4)
    with pytest.raises(ValueError):
        x(1).substitute({SPACE3.x(1): Polynomial.one(other)})


@pytest.mark.parametrize("vid", [-1, SPACE3.num_vars])
def test_substitute_rejects_out_of_range_vid(vid):
    with pytest.raises(ValueError):
        y(3).substitute({vid: y(1)})


def test_substitute_is_simultaneous():
    f = x(1) ** 2 * x(2)
    swapped = f.substitute({SPACE3.x(1): x(2), SPACE3.x(2): x(1)})
    assert swapped == x(1) * x(2) ** 2


def substitute_oracle(f, images):
    """The definition: sum of c * monomial(kept) * prod img**e, by +, * and ** alone."""
    total = Polynomial.zero(f.space)
    for key, c in f.terms.items():
        exp = exponents(f.space, key)
        kept = {vid: e for vid, e in exp.items() if vid not in images}
        term = Polynomial.monomial(f.space, kept, c)
        for vid, img in images.items():
            term = term * img ** exp.get(vid, 0)
        total = total + term
    return total


@settings(max_examples=75)
@given(st.integers(0, 10 ** 6))
def test_substitute_matches_definition(seed):
    rng = random.Random(seed)
    sp = SPACE22  # x, y, y{i}_{j} and z families
    f = random_poly(rng, sp, max_terms=5, max_exp=2)
    vids = rng.sample(range(sp.num_vars), rng.randint(1, 4))
    images = {}
    for vid in vids:
        kind = rng.randrange(4)
        if kind == 0:
            images[vid] = rng.randint(-3, 3)
        elif kind == 1:
            images[vid] = 0
        elif kind == 2:
            images[vid] = random_poly(rng, sp, max_terms=3, max_exp=1)
        else:  # mentions a substituted variable, which must not be substituted again
            images[vid] = Polynomial.variable(sp, rng.choice(vids)) + rng.randint(-2, 2)
    r = f.substitute(images)
    assert 0 not in r.terms.values()
    assert r == substitute_oracle(f, images)


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6))
def test_substitute_monomial_images_match_definition(seed):
    # images of at most one term take the exponent remap, not grouped products
    rng = random.Random(seed)
    sp = SPACE22
    f = random_poly(rng, sp, max_terms=6, max_exp=3)
    vids = rng.sample(range(sp.num_vars), rng.randint(1, 5))
    shared = rng.randrange(sp.num_vars)
    images = {}
    cycle = vids[: rng.randint(0, len(vids))]  # identity, rename, swap or longer cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        images[a] = Polynomial.variable(sp, b)
    for vid in vids[len(cycle):]:
        kind = rng.randrange(4)
        if kind == 0:  # integer constant, 0 included
            images[vid] = rng.randint(-3, 3)
        elif kind == 1:  # two sources onto one target: their exponents add
            images[vid] = Polynomial.variable(sp, shared)
        elif kind == 2:  # may name another substituted variable
            images[vid] = Polynomial.variable(sp, rng.choice(vids))
        else:  # c * monomial with negative and non-unit c
            exps = {rng.randrange(sp.num_vars): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
            images[vid] = Polynomial.monomial(sp, exps, rng.choice((-3, -2, -1, 1, 2, 5)))
    assert all(isinstance(img, int) or len(img.terms) <= 1 for img in images.values())
    g = f.substitute(images)
    assert 0 not in g.terms.values()
    assert g == substitute_oracle(f, images)


@pytest.mark.parametrize("image", [0, 3, y(1), Polynomial.monomial(SPACE3, {0: 2}, -5)])
def test_substitute_monomial_images_reject_out_of_range_vid(image):
    for vid in (-1, SPACE3.num_vars):
        with pytest.raises(ValueError, match="out of range"):
            y(3).substitute({SPACE3.x(1): y(2), vid: image})


OUT_OF_RANGE_USES = {
    "variable": lambda vid: Polynomial.variable(SPACE3, vid),
    "monomial": lambda vid: Polynomial.monomial(SPACE3, {vid: 2}),
    "zero-monomial": lambda vid: Polynomial.monomial(SPACE3, {vid: 2}, 0),
    "linear_form": lambda vid: Polynomial.linear_form(SPACE3, {vid: 1}),
    "degree_in": lambda vid: (x(1) + y(3)).degree_in(vid),
}


@pytest.mark.parametrize("vid", [-1, -2, SPACE3.num_vars])
@pytest.mark.parametrize("use", list(OUT_OF_RANGE_USES))
def test_out_of_range_vid_is_rejected(use, vid):
    # a negative id must not index from the end (y3 for -1 in SPACE3)
    with pytest.raises(ValueError, match="out of range"):
        OUT_OF_RANGE_USES[use](vid)


@pytest.mark.parametrize("image", [
    Polynomial.zero(VariableSpace(4)),
    Polynomial.integer(VariableSpace(4), -2),
    2 * Polynomial.variable(VariableSpace(4), 0),
])
def test_substitute_monomial_images_reject_other_space(image):
    with pytest.raises(ValueError, match="different variable space"):
        x(1).substitute({SPACE3.x(2): y(1), SPACE3.x(1): image})


@settings(max_examples=75)
@given(st.integers(0, 10 ** 6))
def test_substitute_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    f = random_poly(rng, SPACE3, max_terms=4, max_exp=2)
    g = random_poly(rng, SPACE3, max_terms=4, max_exp=2)
    images = {
        SPACE3.x(1): random_poly(rng, SPACE3, max_terms=2, max_exp=1),
        SPACE3.yfull(2): random_poly(rng, SPACE3, max_terms=2, max_exp=1),
    }
    fs, gs = f.substitute(images), g.substitute(images)
    sums = ((f + g).substitute(images), fs + gs)
    products = ((f * g).substitute(images), fs * gs)
    for r in sums + products:
        assert 0 not in r.terms.values()
    assert sums[0] == sums[1]
    assert products[0] == products[1]


# -- product of linear forms ------------------------------------------------------


def test_product_of_linear_forms():
    assert product_of_linear_forms(SPACE3, []) == Polynomial.one(SPACE3)
    assert product_of_linear_forms(SPACE3, [x(1)]) == x(1)
    p = product_of_linear_forms(SPACE3, [x(1) + x(2), x(1) + x(3)])
    assert p == (x(1) + x(2)) * (x(1) + x(3))


def test_product_of_linear_forms_rejects_quadratic():
    for forms in ([x(1) * x(1)], [x(1) + 1, y(2) - x(3), x(1) * y(3)]):
        with pytest.raises(ValueError, match="non-linear factor of degree 2"):
            product_of_linear_forms(SPACE3, forms)


def test_product_of_linear_forms_rejects_other_space():
    for forms in ([x(1, SPACE22)], [x(1) - 2, y(3), Polynomial.integer(SPACE22, 2)]):
        with pytest.raises(ValueError, match="variable space mismatch"):
            product_of_linear_forms(SPACE3, forms)


SPACE21 = VariableSpace(3, (2, 1))  # x, y, one y-block and two z variables
_vid = st.integers(0, SPACE21.num_vars - 1)
_coefficient = st.integers(-3, 3)
_affine_form = st.builds(
    lambda coeffs, const: [Polynomial.linear_form(SPACE21, coeffs) + const],
    st.dictionaries(_vid, _coefficient, max_size=3),  # empty: a constant form
    _coefficient,
)
_cancelling_pair = st.builds(  # (a u - b v)(a u + b v): the cross terms cancel
    lambda u, v, a, b: [
        Polynomial.linear_form(SPACE21, {u: a, v: -b}),
        Polynomial.linear_form(SPACE21, {u: a, v: b}),
    ],
    _vid, _vid, _coefficient, _coefficient,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_affine_form, _cancelling_pair), max_size=4))
def test_product_of_linear_forms_matches_generic_fold(groups):
    forms = [form for group in groups for form in group]
    expected = Polynomial.one(SPACE21)
    for form in forms:
        expected = expected * form
    assert dict(product_of_linear_forms(SPACE21, forms).terms) == dict(expected.terms)


# -- the exponent limit -------------------------------------------------------------

X1, X2, Y1 = SPACE3.x(1), SPACE3.x(2), SPACE3.yfull(1)


def test_exponents_up_to_127_work():
    f = x(1) ** 127
    assert f == x(1) ** 64 * x(1) ** 63 == Polynomial.monomial(SPACE3, {X1: 127})
    assert f.degree_in(X1) == 127 and f.total_degree() == 127 and f.text() == "x1^127"
    assert Polynomial.from_json_dict(f.to_json_dict()) == f
    assert product_of_linear_forms(SPACE3, [x(1) + 1] * 127).degree_in(X1) == 127
    assert product_of_linear_forms(SPACE3, [2 * x(1)] * 63 + [x(1) + 1] * 64) == 2 ** 63 * x(1) ** 63 * (x(1) + 1) ** 64
    assert (x(1) ** 100 * x(2) ** 27).substitute({X1: y(1), X2: y(1)}) == y(1) ** 127
    assert (x(1) ** 42).substitute({X1: 2 * y(1) ** 3}) == 2 ** 42 * y(1) ** 126
    assert (x(1) ** 100 * y(1) ** 27).substitute({X1: y(1)}) == y(1) ** 127
    assert (x(1) ** 127).substitute({X1: y(1) + 1}).degree_in(Y1) == 127
    assert (x(1) ** 127 - x(2) ** 127).divided_difference(1).degree_in(X1) == 126
    # two sources into one target whose sum would pass 127 only if both sat in one term
    assert (x(1) ** 100 + x(2) ** 100).substitute({X1: y(1), X2: y(1)}) == 2 * y(1) ** 100
    # a zero image removes its terms before their images, here of degree 200, are built
    images = {X1: y(1) + 1, X2: y(1) - 1, SPACE3.x(3): 0}
    assert (x(1) ** 100 * x(2) ** 100 * x(3) + y(2)).substitute(images) == y(2)


OVERFLOWS = {
    "x1^127 * x1": lambda: x(1) ** 127 * x(1),
    "x1 ** 128": lambda: x(1) ** 128,
    "128 forms x1 + 1": lambda: product_of_linear_forms(SPACE3, [x(1) + 1] * 128),
    "128 one-term forms x1": lambda: product_of_linear_forms(SPACE3, [x(1)] * 128),
    "64 forms x1 and 64 forms x1 + 1": lambda: product_of_linear_forms(SPACE3, [x(1)] * 64 + [x(1) + 1] * 64),
    "monomial": lambda: Polynomial.monomial(SPACE3, {X1: 128}),
    "from_json_dict": lambda: Polynomial.from_json_dict(_space3_json({"exp": [["x1", 128]], "coeff": "1"})),
    "two sources into y1": lambda: (x(1) ** 100 * x(2) ** 100).substitute({X1: y(1), X2: y(1)}),
    "image y1^3": lambda: (x(1) ** 50).substitute({X1: y(1) ** 3}),
    "source onto a kept exponent": lambda: (x(1) ** 100 * y(1) ** 28).substitute({X1: y(1)}),
    "grouped product": lambda: (x(1) ** 100 * y(1) ** 28).substitute({X1: y(1) + 1}),
}


@pytest.mark.parametrize("build", list(OVERFLOWS))
def test_exponent_above_127_raises(build):
    with pytest.raises(ValueError, match="exponent"):
        OVERFLOWS[build]()


# -- ordering, rendering, serialization -------------------------------------------


def test_leading_term_is_canonical_minimum():
    f = x(1) + x(2)  # leading is x2 under graded revlex-from-the-right
    exp, c = f.leading_term()
    assert c == 1
    exp = exponents(SPACE3, exp)
    assert exp.get(SPACE3.x(2)) == 1 and exp.get(SPACE3.x(1), 0) == 0


def test_text_rendering():
    assert Polynomial.zero(SPACE3).text() == "0"
    assert Polynomial.integer(SPACE3, -3).text() == "-3"
    f = x(1) * x(1) * x(2) * 2 - x(3) + 1
    assert f.text() == "2 x1^2 x2 - x3 + 1"


def test_json_round_trip_and_determinism():
    sp = SPACE22
    f = (
        Polynomial.variable(sp, sp.x(1))
        + Polynomial.variable(sp, sp.yblock(2, 1)) * 3
        - Polynomial.variable(sp, sp.z(2)) ** 2
    )
    blob = f.to_json()
    data = json.loads(blob)
    assert data["space"] == {"n": 4, "s": 2, "mu": [2, 2]}
    assert Polynomial.from_json_dict(data) == f
    assert f.to_json() == blob  # byte-stable
    coeffs = [t["coeff"] for t in data["terms"]]
    assert all(isinstance(c, str) for c in coeffs)


def _space3_json(*terms):
    return {"space": {"n": 3, "s": 0, "mu": []}, "terms": list(terms)}


@pytest.mark.parametrize("data, message", [
    (_space3_json({"exp": [["x1", 1]], "coeff": "0"}), "zero coefficient"),
    (_space3_json({"exp": [["x1", 1]], "coeff": "2"}, {"exp": [["x1", 1]], "coeff": "3"}), "listed twice"),
    (_space3_json({"exp": [["x1", -1]], "coeff": "1"}), "negative exponent"),
    (_space3_json({"exp": [["w1", 1]], "coeff": "1"}), "unknown variable"),
    (_space3_json({"exp": [["x1", 1], ["x1", 2]], "coeff": "1"}), "listed twice"),
    (_space3_json({"exp": [["x1", 1.7]], "coeff": "1"}), "not an integer"),
    (_space3_json({"exp": [["x1", True]], "coeff": "1"}), "not an integer"),
    (_space3_json({"exp": [["x1", "2"]], "coeff": "1"}), "not an integer"),
    (_space3_json({"exp": [["x1", 1]], "coeff": 2.5}), "not an integer"),
    (_space3_json({"exp": [["x1", 1]], "coeff": True}), "not an integer"),
    ({"space": {"n": 3, "s": 5, "mu": []}, "terms": []}, "s = 5"),
    (_space3_json({"exp": [["x1", 0], ["x1", 2]], "coeff": "1"}), "listed twice"),
    ({"space": {"n": 2.5, "s": 0, "mu": []}, "terms": []}, "not an integer"),
    ({"space": {"n": True, "s": 0, "mu": []}, "terms": []}, "not an integer"),
    ({"space": {"n": 3, "s": 1, "mu": [3.0]}, "terms": []}, "not an integer"),
], ids=[
    "zero-coefficient", "repeated-monomial", "negative-exponent", "unknown-variable", "repeated-variable",
    "float-exponent", "boolean-exponent", "string-exponent", "float-coefficient", "boolean-coefficient",
    "wrong-block-count", "repeated-variable-first-with-exponent-0", "float-space-size",
    "boolean-space-size", "float-block-size",
])
def test_from_json_dict_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        Polynomial.from_json_dict(data)
