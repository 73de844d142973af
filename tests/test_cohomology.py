import pytest

from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations, identity
from schubfactor.polynomial import Polynomial, VariableSpace
from schubfactor import cohomology as coh
from test_polynomial import substitute_oracle


def xp(space, i):
    return Polynomial.variable(space, space.x(i))


def yp(space, i):
    return Polynomial.variable(space, space.yfull(i))


def zp(space, i):
    return Polynomial.variable(space, space.z(i))


def ybp(space, i, j):
    return Polynomial.variable(space, space.yblock(i, j))


def test_space_for_builds_each_space_once():
    mu = Composition((2, 3))
    sp = coh.space_for(mu)
    assert coh.space_for(Composition(mu.parts)) is sp
    assert sp == VariableSpace(5, (2, 3))
    with pytest.raises(AttributeError):
        sp.n = 4
    assert coh.space_for(mu).n == 5
    assert coh.fixed_point_weight_product(mu, identity(5)).space is sp


# -- root system -----------------------------------------------------------------


def test_root_counts():
    assert len(coh.cross_block_roots(Composition((2, 3)))) == 2 * 3
    for n in range(2, 7):
        for mu in enumerate_compositions(n):
            cross = coh.cross_block_roots(mu)
            expected = sum(
                mu.parts[i] * mu.parts[j]
                for i in range(mu.s)
                for j in range(i + 1, mu.s)
            )
            assert len(cross) == expected
            assert len(set(cross)) == len(cross)
            assert all(k < l and mu.block_of(k) != mu.block_of(l) for k, l in cross)


# -- block factors ----------------------------------------------------------------


def test_half_block_factor_65():
    mu = Composition((6, 5))
    sp = coh.space_for(mu)
    f1 = coh.half_block_factor(mu, 1)
    assert f1 == (xp(sp, 1) - zp(sp, 1)) * (xp(sp, 2) - zp(sp, 1)) * (xp(sp, 3) - zp(sp, 1))
    f2 = coh.half_block_factor(mu, 2)
    assert f2 == (xp(sp, 7) - zp(sp, 2)) * (xp(sp, 8) - zp(sp, 2))


def test_block_pair_factor_65():
    mu = Composition((6, 5))
    sp = coh.space_for(mu)
    g2 = coh.block_pair_factor(mu, 2)
    expected = Polynomial.one(sp)
    for (j, k) in ((7, 8), (7, 9), (7, 10), (8, 9)):
        expected = expected * (xp(sp, j) + xp(sp, k) - 2 * zp(sp, 2))
    assert g2 == expected
    # g is 1 on blocks of size < 3
    assert coh.block_pair_factor(Composition((2, 2)), 1) == Polynomial.one(
        coh.space_for(Composition((2, 2)))
    )


def test_cross_pair_factor_22():
    mu = Composition((2, 2))
    sp = coh.space_for(mu)
    h = coh.cross_pair_factor(mu, 1, 2)
    expected = Polynomial.one(sp)
    for k in (1, 2):
        expected = expected * (xp(sp, k) - ybp(sp, 2, 1) - zp(sp, 2))
        expected = expected * (xp(sp, k) + ybp(sp, 2, 1) - zp(sp, 2))
    assert h == expected


def test_cross_pair_factor_23_odd_block():
    mu = Composition((2, 3))
    sp = coh.space_for(mu)
    h = coh.cross_pair_factor(mu, 1, 2)
    expected = Polynomial.one(sp)
    for k in (1, 2):
        expected = expected * (xp(sp, k) - zp(sp, 2))
        expected = expected * (xp(sp, k) - ybp(sp, 2, 1) - zp(sp, 2))
        expected = expected * (xp(sp, k) + ybp(sp, 2, 1) - zp(sp, 2))
    assert h == expected


def test_cross_pair_factor_bad_indices():
    mu = Composition((2, 2))
    with pytest.raises(ValueError):
        coh.cross_pair_factor(mu, 2, 1)


# -- ordinary classes ----------------------------------------------------------------


def test_ordinary_orthogonal_examples():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    assert coh.ordinary_class_orthogonal(mu) == xp(sp, 1)

    mu = Composition((1, 1, 1))
    sp = coh.space_for(mu)
    assert coh.ordinary_class_orthogonal(mu) == xp(sp, 1) ** 2 * xp(sp, 2)

    mu = Composition((3, 4))
    sp = coh.space_for(mu)
    expected = Polynomial.monomial(
        sp, {sp.x(1): 5, sp.x(2): 4, sp.x(3): 4, sp.x(4): 1, sp.x(5): 1}
    )
    for (j, k) in ((1, 2), (4, 5), (4, 6)):
        expected = expected * (xp(sp, j) + xp(sp, k))
    assert coh.ordinary_class_orthogonal(mu) == expected


def test_ordinary_symplectic_examples():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    assert coh.ordinary_class_symplectic(mu) == Polynomial.one(sp)

    mu = Composition((4,))
    sp = coh.space_for(mu)
    assert coh.ordinary_class_symplectic(mu) == (xp(sp, 1) + xp(sp, 2)) * (
        xp(sp, 1) + xp(sp, 3)
    )

    mu = Composition((2, 4))
    sp = coh.space_for(mu)
    expected = Polynomial.monomial(sp, {sp.x(1): 4, sp.x(2): 4})
    expected = expected * (xp(sp, 3) + xp(sp, 4)) * (xp(sp, 3) + xp(sp, 5))
    assert coh.ordinary_class_symplectic(mu) == expected


def test_ordinary_symplectic_rejects_odd():
    with pytest.raises(ValueError):
        coh.ordinary_class_symplectic(Composition((3, 4)))


def test_variable_factor_counts():
    # x_i sits in exactly n - i of the orthogonal linear factors (right mass
    # + half flag + within-block binomials), which makes the staircase-span
    # bound sharp; the symplectic product drops the half-flag slot
    for n in range(1, 7):
        for mu in enumerate_compositions(n):
            poly = coh.ordinary_class_orthogonal(mu)
            sp = poly.space
            for i in range(1, n + 1):
                assert poly.degree_in(sp.x(i)) == n - i
    for n in (2, 4, 6):
        for mu in enumerate_compositions(n, even_parts_only=True):
            poly = coh.ordinary_class_symplectic(mu)
            sp = poly.space
            for i in range(1, n + 1):
                assert poly.degree_in(sp.x(i)) == n - i - mu.first_half_flag(i)


def test_factored_text_and_expand_agree():
    mu = Composition((3, 4))
    fc = coh.ordinary_class_orthogonal_factored(mu)
    assert fc.text() == "x1^5 x2^4 x3^4 x4 x5 (x1 + x2)(x4 + x5)(x4 + x6)"
    assert fc.expand() == coh.ordinary_class_orthogonal(mu)


@pytest.mark.parametrize("build", [
    coh.ordinary_class_orthogonal_factored,
    coh.equivariant_class_orthogonal_factored,
    coh.ordinary_class_symplectic_factored,
    coh.equivariant_class_symplectic_factored,
])
def test_expand_matches_generic_fold(build):
    symplectic = "symplectic" in build.__name__
    for n in (2, 4, 6) if symplectic else range(1, 6):
        for mu in enumerate_compositions(n, even_parts_only=symplectic):
            fc = build(mu)
            expected = fc._head()
            for f in fc.factors:
                expected = expected * f
            assert dict(fc.expand().terms) == dict(expected.terms)


@pytest.mark.parametrize("scalar, monomial, factors", [
    (1, (), 0),  # the empty class: 1
    (3, ((0, 2), (2, 5)), 0),  # no factors: the head alone
    (2 ** 5, ((1, 1),), 3),
    (2 ** 70, ((0, 4),), 2),  # a scalar past 64 bits
])
def test_expand_folds_the_head_into_the_product(scalar, monomial, factors):
    sp = VariableSpace(3)
    forms = [Polynomial.linear_form(sp, {sp.x(1): 1, sp.x(k): -1}) + k for k in (2, 3, 1)][:factors]
    fc = coh.FactoredClass(sp, scalar, monomial, tuple(forms))
    expected = fc._head()
    for f in fc.factors:
        expected = expected * f
    assert dict(fc.expand().terms) == dict(expected.terms)


@pytest.mark.parametrize("scalar, monomial, with_factor, expected", [
    (1, (), False, "1"),
    (4, (), False, "4"),
    (1, (), True, "(x1 + x2)"),
    (4, (), True, "4 (x1 + x2)"),
    (1, ((0, 2), (2, 1)), True, "x1^2 x3 (x1 + x2)"),
    (2, ((1, 1),), False, "2 x2"),
])
def test_factored_text_head(scalar, monomial, with_factor, expected):
    # the head scalar * monomial renders as its one-term polynomial, and a
    # bare 1 is left out in front of factors
    sp = VariableSpace(3)
    factor = Polynomial.linear_form(sp, {sp.x(1): 1, sp.x(2): 1})
    fc = coh.FactoredClass(sp, scalar, monomial, (factor,) if with_factor else ())
    assert fc.text() == expected
    head = Polynomial.monomial(sp, dict(monomial), scalar)
    assert fc.expand() == (head * factor if with_factor else head)


# -- base classes --------------------------------------------------------------------


def test_base_class_orthogonal_small():
    base = coh.base_class_orthogonal(2)
    sp = base.space
    assert base == 2 * (xp(sp, 1) - zp(sp, 1))


def test_base_class_symplectic_small():
    base = coh.base_class_symplectic(4)
    sp = base.space
    assert base == (xp(sp, 1) + xp(sp, 2) - 2 * zp(sp, 1)) * (
        xp(sp, 1) + xp(sp, 3) - 2 * zp(sp, 1)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_base_class_orthogonal_zero_shift_form(n):
    # with the shift set to 0: 2^(n//2) * prod_{i<=n/2} x_i * prod binomials
    base = coh.base_class_orthogonal(n)
    sp = base.space
    specialized = base.substitute({sp.z(1): 0})
    expected = Polynomial.integer(sp, 2 ** (n // 2))
    for i in range(1, n // 2 + 1):
        expected = expected * xp(sp, i)
    for i in range(1, n + 1):
        for j in range(i + 1, n - i + 1):
            expected = expected * (xp(sp, i) + xp(sp, j))
    assert specialized == expected


@pytest.mark.parametrize("m", range(1, 7))
def test_base_class_orthogonal_factors_through_blocks(m):
    single = Composition((m,))
    lhs = coh.base_class_orthogonal(m)
    rhs = (
        coh.half_block_factor(single, 1)
        * coh.block_pair_factor(single, 1)
        * (2 ** (m // 2))
    )
    assert lhs == rhs
    assert coh.equivariant_class_orthogonal(single) == rhs


@pytest.mark.parametrize("m", (2, 4, 6, 8))
def test_base_class_symplectic_is_pair_factor(m):
    single = Composition((m,))
    assert coh.base_class_symplectic(m) == coh.block_pair_factor(single, 1)
    assert coh.equivariant_class_symplectic(single) == coh.block_pair_factor(single, 1)


# -- equivariant classes ----------------------------------------------------------------


def test_equivariant_orthogonal_single_even_block():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    assert coh.equivariant_class_orthogonal(mu) == 2 * (xp(sp, 1) - zp(sp, 1))


@pytest.mark.parametrize("family", ("orthogonal", "symplectic"))
def test_equivariant_specializes_to_ordinary(family):
    totals = range(1, 7) if family == "orthogonal" else (2, 4, 6)
    for n in totals:
        for mu in enumerate_compositions(n, even_parts_only=(family == "symplectic")):
            if family == "orthogonal":
                eq = coh.equivariant_class_orthogonal(mu)
                expected = coh.ordinary_class_orthogonal(mu) * (2 ** mu.half_weight())
            else:
                eq = coh.equivariant_class_symplectic(mu)
                expected = coh.ordinary_class_symplectic(mu)
            assert coh.zero_equivariant_vars(eq) == expected, mu


# -- chern class and localization -----------------------------------------------------------


def test_chern_class_examples():
    mu = Composition((3,))
    assert coh.cross_block_chern_class(mu) == Polynomial.one(coh.space_for(mu))

    mu = Composition((1, 1))
    sp = coh.space_for(mu)
    assert coh.cross_block_chern_class(mu) == xp(sp, 1) - yp(sp, 2)

    mu = Composition((2, 1))
    sp = coh.space_for(mu)
    assert coh.cross_block_chern_class(mu) == (xp(sp, 1) - yp(sp, 3)) * (
        xp(sp, 2) - yp(sp, 3)
    )


def test_restrict_to_fixed_point_examples():
    mu = Composition((1, 1))
    sp = coh.space_for(mu)
    assert coh.restrict_to_fixed_point(xp(sp, 1) + xp(sp, 2), identity(2)) == yp(sp, 1) + yp(sp, 2)
    assert coh.restrict_to_fixed_point(xp(sp, 1) - yp(sp, 2), Permutation((2, 1))).is_zero()
    chern = coh.cross_block_chern_class(mu)
    assert coh.restrict_to_fixed_point(chern, identity(2)) == yp(sp, 1) - yp(sp, 2)


def test_weight_product_examples():
    mu = Composition((1, 1))
    sp = coh.space_for(mu)
    assert coh.fixed_point_weight_product(mu, identity(2)) == yp(sp, 1) - yp(sp, 2)
    assert coh.fixed_point_weight_product(mu, Permutation((2, 1))).is_zero()

    mu = Composition((2, 2))
    sp = coh.space_for(mu)
    w = Permutation((2, 1, 3, 4))
    expected = (
        (yp(sp, 2) - yp(sp, 3))
        * (yp(sp, 2) - yp(sp, 4))
        * (yp(sp, 1) - yp(sp, 3))
        * (yp(sp, 1) - yp(sp, 4))
    )
    assert coh.fixed_point_weight_product(mu, w) == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_localization_characterization_exhaustive(n):
    for mu in enumerate_compositions(n):
        chern = coh.cross_block_chern_class(mu)
        for w in all_permutations(n):
            assert coh.restrict_to_fixed_point(chern, w) == coh.fixed_point_weight_product(mu, w)


@pytest.mark.parametrize("n", range(1, 5))
def test_restrict_to_fixed_point_matches_oracle_exhaustive(n):
    for mu in enumerate_compositions(n):
        chern = coh.cross_block_chern_class(mu)
        sp = chern.space
        for w in all_permutations(n):
            images = {sp.x(i): yp(sp, w(i)) for i in range(1, n + 1)}
            assert coh.restrict_to_fixed_point(chern, w) == substitute_oracle(chern, images), (mu, w)


@pytest.mark.parametrize(
    "family, n", [("orthogonal", n) for n in range(1, 6)] + [("symplectic", n) for n in (2, 4)]
)
def test_fixed_point_tree_matches_single_restrictions_exhaustive(family, n):
    # the equivariant class also carries the y{i}_{j} and z variables the tree never substitutes
    equivariant_class = {
        "orthogonal": coh.equivariant_class_orthogonal,
        "symplectic": coh.equivariant_class_symplectic,
    }[family]
    perms = list(all_permutations(n))
    for mu in enumerate_compositions(n, even_parts_only=family == "symplectic"):
        for f in (coh.cross_block_chern_class(mu), equivariant_class(mu)):
            pairs = list(coh.fixed_point_restrictions(f))
            assert [w for w, _ in pairs] == perms, mu
            for w, restricted in pairs:
                assert restricted == coh.restrict_to_fixed_point(f, w), (mu, w)


def test_zero_equivariant_vars_matches_oracle():
    classes = [
        coh.equivariant_class_orthogonal(mu) for n in range(1, 5) for mu in enumerate_compositions(n)
    ]
    classes += [
        coh.equivariant_class_symplectic(mu)
        for n in (2, 4)
        for mu in enumerate_compositions(n, even_parts_only=True)
    ]
    for cls in classes:
        sp = cls.space
        images = {vid: Polynomial.zero(sp) for vid in sp.equivariant_vids()}
        assert coh.zero_equivariant_vars(cls) == substitute_oracle(cls, images), sp


# -- block-torus restriction ------------------------------------------------------------------


def test_restrict_to_block_torus_even_block():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    assert coh.restrict_to_block_torus(yp(sp, 1)) == zp(sp, 1) + ybp(sp, 1, 1)
    assert coh.restrict_to_block_torus(yp(sp, 2)) == zp(sp, 1) - ybp(sp, 1, 1)


def test_restrict_to_block_torus_odd_middle():
    mu = Composition((3,))
    sp = coh.space_for(mu)
    assert coh.restrict_to_block_torus(yp(sp, 2)) == zp(sp, 1)


def test_restrict_to_block_torus_matches_cross_factor():
    mu = Composition((2, 2))
    chern = coh.cross_block_chern_class(mu)
    assert coh.restrict_to_block_torus(chern) == coh.cross_pair_factor(mu, 1, 2)


def test_restrict_to_block_torus_all_small():
    for n in range(1, 6):
        for mu in enumerate_compositions(n):
            chern = coh.cross_block_chern_class(mu)
            assert coh.restrict_to_block_torus(chern) == coh.cross_block_factor(mu), mu


def test_restrict_to_block_torus_rejects_block_vars():
    mu = Composition((2,))
    sp = coh.space_for(mu)
    with pytest.raises(ValueError):
        coh.restrict_to_block_torus(zp(sp, 1))


def test_restrict_to_block_torus_rejects_equivariant_class():
    # the class already lives on the block torus (it involves z1 and z2)
    cls = coh.equivariant_class_orthogonal(Composition((2, 1)))
    with pytest.raises(ValueError, match="is already a block coordinate"):
        coh.restrict_to_block_torus(cls)


def test_restrict_to_block_torus_rejects_space_without_blocks():
    sp = VariableSpace(2)
    with pytest.raises(ValueError, match="no blocks"):
        coh.restrict_to_block_torus(yp(sp, 1))
