import random

import pytest

from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation, all_permutations, identity
from schubfactor.polynomial import Polynomial, VariableSpace
from schubfactor import cohomology as coh


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
    for n in range(2, 8):
        for mu in enumerate_compositions(n):
            cross = coh.cross_block_roots(mu)
            per_position = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1) if mu.block_of(k) != mu.block_of(l)]
            assert cross == per_position
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


def test_ordinary_shape_exponents_match_the_block_statistics():
    # ordinary_shape reads e off the block offsets; Composition's per-position statistics,
    # each a bisection of the offsets, are its oracle
    for half_slots, sizes in ((True, range(1, 13)), (False, range(2, 13, 2))):
        for n in sizes:
            for mu in enumerate_compositions(n, even_parts_only=not half_slots):
                e, _ = coh.ordinary_shape(mu, half_slots=half_slots)
                expected = [mu.right_mass(i) + (mu.first_half_flag(i) if half_slots else 0) for i in range(1, n + 1)]
                assert e == expected, mu
                assert all(type(p) is int for p in e), mu


def test_factored_text_and_expand_agree():
    mu = Composition((3, 4))
    fc = coh.ordinary_factored(mu, half_slots=True)
    assert fc.text() == "x1^5 x2^4 x3^4 x4 x5 (x1 + x2)(x4 + x5)(x4 + x6)"
    assert fc.expand() == coh.ordinary_class_orthogonal(mu)


@pytest.mark.parametrize("build, half_slots", [
    pytest.param(coh.ordinary_factored, True, id="ordinary_class_orthogonal_factored"),
    pytest.param(coh.equivariant_factored, True, id="equivariant_class_orthogonal_factored"),
    pytest.param(coh.ordinary_factored, False, id="ordinary_class_symplectic_factored"),
    pytest.param(coh.equivariant_factored, False, id="equivariant_class_symplectic_factored"),
])
def test_expand_matches_generic_fold(build, half_slots):
    for n in range(1, 6) if half_slots else (2, 4, 6):
        for mu in enumerate_compositions(n, even_parts_only=not half_slots):
            fc = build(mu, half_slots=half_slots)
            expected = fc._head()
            for f in fc.factors:
                expected = expected * f
            assert dict(fc.expand().terms) == dict(expected.terms)


@pytest.mark.parametrize("scalar, monomial, factors", [
    (1, (), 0),  # the empty class: 1
    (3, ((0, 2), (2, 5)), 0),  # no factors: the head alone
    (2 ** 5, ((1, 1),), 3),
    (2 ** 70, ((0, 4),), 2),  # a scalar past 64 bits
    (0, ((0, 2),), 2),  # a zero scalar: 0
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
    with pytest.raises(ValueError, match="size must be even, got 3"):
        coh.base_class_symplectic(3)


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
    # a w that is not an involution pins the direction: x1 -> y_{w(1)} = y2, not y_{w^-1(1)} = y3
    sp = coh.space_for(Composition((1, 1, 1)))
    assert coh.restrict_to_fixed_point(xp(sp, 1), Permutation((2, 3, 1))) == yp(sp, 2)
    with pytest.raises(ValueError, match="permutation size 2 != space size 3"):
        coh.restrict_to_fixed_point(xp(sp, 1), identity(2))


def test_weight_product_examples():
    mu = Composition((1, 1))
    sp = coh.space_for(mu)
    assert coh.fixed_point_weight_product(mu, identity(2)) == yp(sp, 1) - yp(sp, 2)
    assert coh.fixed_point_weight_product(mu, Permutation((2, 1))).is_zero()
    with pytest.raises(ValueError, match="size mismatch"):
        coh.preserves_blocks(identity(3), mu)

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


def weight_product_oracle(mu, w):
    """
    prod (y_{w(k)} - y_{w(l)}) over the roots k < l in different blocks, by *
    from single variables, if w keeps every block; 0 otherwise.  Test-local:
    no memo and no product_of_linear_forms.
    """
    space = VariableSpace(mu.total, mu.parts)
    block = [b for b, part in enumerate(mu.parts) for _ in range(part)]
    product = Polynomial.zero(space)
    if all(block[w(i) - 1] == block[i - 1] for i in range(1, mu.total + 1)):
        product = Polynomial.one(space)
        for k in range(1, mu.total + 1):
            for l in range(k + 1, mu.total + 1):
                if block[k - 1] != block[l - 1]:
                    product = product * (yp(space, w(k)) - yp(space, w(l)))
    return product


@pytest.mark.parametrize("n", range(1, 6))
def test_weight_product_matches_oracle_exhaustive(n):
    # every composition of n, so the even-part ones of the symplectic family too
    for mu in enumerate_compositions(n):
        for w in all_permutations(n):
            assert coh.fixed_point_weight_product(mu, w) == weight_product_oracle(mu, w), (mu, w)


@pytest.mark.parametrize("parts", [(3, 3), (2, 2, 2), (1, 1, 1, 2, 1)], ids=["3,3", "2,2,2", "1,1,1,2,1"])
def test_weight_product_matches_oracle_at_n6(parts):
    # seeded w: some of all S_6, most of which break a block, and some that keep every block
    mu = Composition(parts)
    rng = random.Random(21)
    perms = [Permutation(rng.sample(range(1, 7), 6)) for _ in range(20)]
    for _ in range(10):
        word = []
        for start, part in zip(mu.nu, mu.parts):
            word += rng.sample(range(start + 1, start + part + 1), part)
        perms.append(Permutation(word))
    for w in perms:
        assert coh.fixed_point_weight_product(mu, w) == weight_product_oracle(mu, w), (mu, w)


def restrictions_by_point(f, parts=None):
    """
    {w: restriction} at every w of S_n, read off fixed_point_restrictions' items:
    their words must be exactly the words of S_n rising inside every block, in word
    order, each once, and w takes the image of w with the letters of each block
    sorted.
    """
    n = f.space.n
    parts = parts or (1,) * n
    bounds = [sum(parts[:i]) for i in range(len(parts) + 1)]
    items = list(coh.fixed_point_restrictions(f, parts if parts != (1,) * n else None))

    def block_sorted(word):
        return tuple(v for a, b in zip(bounds, bounds[1:]) for v in sorted(word[a:b]))

    # a walk that prunes, skips or repeats a word fails here
    words = [w.word for w in all_permutations(n)]
    assert [word for word, _ in items] == [word for word in words if block_sorted(word) == word]
    by_word = dict(items)
    return {w: by_word[block_sorted(w.word)] for w in all_permutations(n)}


@pytest.mark.parametrize(
    "family, n", [("orthogonal", n) for n in range(1, 6)] + [("symplectic", n) for n in (2, 4)]
)
def test_fixed_point_tree_matches_single_restrictions_exhaustive(family, n):
    # the equivariant class also carries the y{i}_{j} and z variables the tree never substitutes
    equivariant_class = {
        "orthogonal": coh.equivariant_class_orthogonal,
        "symplectic": coh.equivariant_class_symplectic,
    }[family]
    for mu in enumerate_compositions(n, even_parts_only=family == "symplectic"):
        chern = coh.cross_block_chern_class(mu)
        f = equivariant_class(mu)
        for w, restricted in restrictions_by_point(f).items():
            assert restricted == coh.restrict_to_fixed_point(f, w), (mu, w)
        # every w on its own, and by block orbit: the Chern class is symmetric in each block
        by_orbit = restrictions_by_point(chern, mu.parts)
        for w, restricted in restrictions_by_point(chern).items():
            assert restricted == by_orbit[w] == coh.restrict_to_fixed_point(chern, w), (mu, w)


@pytest.mark.parametrize(
    "parts, sample",
    [((3, 3), None), ((2, 2, 2), None), ((1,) * 6, 60), ((1, 1, 1, 2, 1), 60)],
    ids=["3,3", "2,2,2", "1^6", "1,1,1,2,1"],
)
def test_fixed_point_tree_matches_single_restrictions_at_n6(parts, sample):
    # every w for two light classes, a seeded sample of w for two heavy ones, per w and by block orbit
    mu = Composition(parts)
    chern = coh.cross_block_chern_class(mu)
    by_orbit = restrictions_by_point(chern, mu.parts)
    pairs = list(restrictions_by_point(chern).items())
    if sample:
        pairs = random.Random(6).sample(pairs, sample)
    for w, restricted in pairs:
        assert restricted == by_orbit[w] == coh.restrict_to_fixed_point(chern, w), (mu, w)


def test_preserves_blocks_needs_a_permutation_of_the_composition_size():
    # a permutation of mu.total letters is read block by block; one of any other size is a size mismatch
    mu = Composition((2, 1))
    assert coh.preserves_blocks(Permutation((2, 1, 3)), mu)
    assert not coh.preserves_blocks(Permutation((1, 3, 2)), mu) and not coh.preserves_blocks(Permutation((3, 1, 2)), mu)
    for w in [identity(1), Permutation((2, 1)), identity(2), identity(4)]:
        with pytest.raises(ValueError, match="size mismatch"):
            coh.preserves_blocks(w, mu)


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
