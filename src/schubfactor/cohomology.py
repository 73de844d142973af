"""
Factored class representatives and torus localization for type A.

All formulas live over the variable space of a composition mu of n (see
polynomial.VariableSpace); mu alone fixes that space, so every builder
derives it with space_for(mu), which builds it once per composition.  Per
block i with positions nu_i+1 .. nu_{i+1}:

    half_block_factor(mu, i)   product of (x_j - z_i) over the first
                               floor(mu_i/2) positions j of block i
    block_pair_factor(mu, i)   product of (x_j + x_k - 2 z_i) over pairs
                               nu_i+1 <= j < k <= 2 nu_i + mu_i - j
    cross_pair_factor(mu,i,j)  for blocks i < j, the product over x-positions
                               of block i of linear forms in z_j and the
                               y{j}_{l} coordinates (middle coordinate of an
                               odd block contributes a bare (x - z_j) factor)

The ordinary classes are pure-x specializations: x^e times the block pair
binomials, e_k = n - nu_{b+1} on block b, plus 1 in its first floor(mu_b/2)
slots with half slots; ordinary_shape gives them as _monk_expansion's integers.
The equivariant classes multiply the block factors with the cross-block
factor (and a power of two: one 2 per half-block slot in the orthogonal
family).  ordinary_factored and equivariant_factored build both families;
half_slots=True gives the orthogonal one, False the symplectic one.

Localization: restrict_to_fixed_point substitutes x_i -> y_{w(i)}; the top
cross-block Chern class restricts at w to fixed_point_weight_product(mu, w),
which is zero unless w preserves every block.  restrict_to_block_torus maps
the full-torus y coordinates onto the block-torus y/z coordinates of the
composition its polynomial's space carries.

restrict_to_fixed_point, restrict_to_block_torus and zero_equivariant_vars
are one Polynomial.substitute call each.  fixed_point_restrictions restricts
at every w of S_n at once through polynomial.bijective_substitutions: a
depth-first tree over raw term maps whose level i moves x_i into one unused
y_j, so the permutations that share a prefix share its partial restriction,
whose terms merge and cancel before the deeper levels.  Given the block
sizes of a class symmetric in the x's of each block, the tree takes only the
words that rise inside every block and yields one item for each, so one
item serves a block orbit w S_mu, the words that permute w's letters inside
each block.  restrict_to_fixed_point remains the independent single-w route.

fixed_point_weight_product builds its product from the roots, never from
restricted factors, in each call and keeps none: a block-preserving w
permutes the cross-block roots, so the suite builds it once, at the identity.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from .composition import Composition, check_even_parts
from .permutation import Permutation
from .polynomial import (
    Polynomial, VariableSpace, bijective_substitutions, product_of_linear_forms
)


def cross_block_roots(mu: Composition) -> list[tuple[int, int]]:
    """
    Positive roots e_k - e_l (k < l) of GL_n, as pairs (k, l), that straddle
    two different blocks; count = sum_{i<j} mu_i mu_j.  Block b covers
    (nu_b, nu_{b+1}], so its k pair with every l past its end.
    """
    n, nu = mu.total, mu.nu
    return [(k, l) for lo, hi in zip(nu, nu[1:]) for k in range(lo + 1, hi + 1) for l in range(hi + 1, n + 1)]


@functools.cache
def space_for(mu: Composition) -> VariableSpace:
    """The variable space of mu, built once per composition and shared."""
    return VariableSpace(mu.total, mu.parts)


# -- block factors -------------------------------------------------------------


def _half_block_forms(space: VariableSpace, mu: Composition, i: int) -> list[Polynomial]:
    zi = space.z(i)
    return [
        Polynomial.linear_form(space, {space.x(j): 1, zi: -1})
        for j in range(mu.nu[i - 1] + 1, mu.nu[i - 1] + mu.parts[i - 1] // 2 + 1)
    ]


def _block_pairs(mu: Composition, i: int) -> list[tuple[int, int]]:
    """The within-block pairs (j, k) of block i: nu_i < j < k <= 2 nu_i + mu_i - j."""
    nu_i, part = mu.nu[i - 1], mu.parts[i - 1]
    return [(j, k) for j in range(nu_i + 1, nu_i + part + 1) for k in range(j + 1, 2 * nu_i + part - j + 1)]


def _block_pair_forms(space: VariableSpace, mu: Composition, i: int) -> list[Polynomial]:
    """(x_j + x_k - 2 z_i) over the within-block pairs of block i."""
    zi = space.z(i)
    return [Polynomial.linear_form(space, {space.x(j): 1, space.x(k): 1, zi: -2}) for j, k in _block_pairs(mu, i)]


def _cross_pair_forms(space: VariableSpace, mu: Composition, i: int, j: int) -> list[Polynomial]:
    if type(i) is not int or type(j) is not int or not 1 <= i < j <= mu.s:
        raise ValueError(f"need integer block indices i < j, got {i!r}, {j!r}")
    zj = space.z(j)
    part_j = mu.parts[j - 1]
    forms = []
    for k in range(1, mu.parts[i - 1] + 1):
        xv = space.x(mu.nu[i - 1] + k)
        if part_j % 2 == 1:
            forms.append(Polynomial.linear_form(space, {xv: 1, zj: -1}))
        for l in range(1, part_j // 2 + 1):
            yv = space.yblock(j, l)
            forms.append(Polynomial.linear_form(space, {xv: 1, yv: -1, zj: -1}))
            forms.append(Polynomial.linear_form(space, {xv: 1, yv: 1, zj: -1}))
    return forms


def half_block_factor(mu: Composition, i: int) -> Polynomial:
    """First-half factor of block i: product of (x_j - z_i)."""
    space = space_for(mu)
    return product_of_linear_forms(space, _half_block_forms(space, mu, i))


def block_pair_factor(mu: Composition, i: int) -> Polynomial:
    """Within-block pair factor of block i: product of (x_j + x_k - 2 z_i)."""
    space = space_for(mu)
    return product_of_linear_forms(space, _block_pair_forms(space, mu, i))


def cross_pair_factor(mu: Composition, i: int, j: int) -> Polynomial:
    """Cross factor of the ordered block pair i < j in block-torus coordinates."""
    space = space_for(mu)
    return product_of_linear_forms(space, _cross_pair_forms(space, mu, i, j))


def _cross_block_forms(space: VariableSpace, mu: Composition) -> list[Polynomial]:
    return [
        form
        for i in range(1, mu.s + 1)
        for j in range(i + 1, mu.s + 1)
        for form in _cross_pair_forms(space, mu, i, j)
    ]


def cross_block_factor(mu: Composition) -> Polynomial:
    """Product of cross_pair_factor over all block pairs i < j."""
    space = space_for(mu)
    return product_of_linear_forms(space, _cross_block_forms(space, mu))


def cross_block_chern_class(mu: Composition) -> Polynomial:
    """
    Top equivariant Chern class of the cross-block directions in full-torus
    coordinates: product of (x_k - y_l) over cross-block pairs k < l.
    """
    space = space_for(mu)
    forms = [
        Polynomial.linear_form(space, {space.x(k): 1, space.yfull(l): -1})
        for (k, l) in cross_block_roots(mu)
    ]
    return product_of_linear_forms(space, forms)


# -- base (single-block) classes ------------------------------------------------


def base_class_orthogonal(n: int) -> Polynomial:
    """
    Single-block orthogonal class with one equivariant shift z1:
    product of (x_i + x_j - 2 z1) over 1 <= i <= j <= n - i
    (each diagonal pair contributes 2(x_i - z1)).
    """
    mu = Composition((n,))
    space = space_for(mu)
    z1 = space.z(1)
    forms = []
    for i in range(1, n + 1):
        for j in range(i, n - i + 1):
            if i == j:
                forms.append(Polynomial.linear_form(space, {space.x(i): 2, z1: -2}))
            else:
                forms.append(
                    Polynomial.linear_form(space, {space.x(i): 1, space.x(j): 1, z1: -2})
                )
    return product_of_linear_forms(space, forms)


def base_class_symplectic(two_n: int) -> Polynomial:
    """
    Single-block symplectic class with shift z1:
    product of (x_i + x_j - 2 z1) over 1 <= i < j <= 2n - i.
    """
    if two_n % 2 != 0:
        raise ValueError(f"size must be even, got {two_n}")
    mu = Composition((two_n,))
    space = space_for(mu)
    z1 = space.z(1)
    forms = [
        Polynomial.linear_form(space, {space.x(i): 1, space.x(j): 1, z1: -2})
        for i in range(1, two_n + 1)
        for j in range(i + 1, two_n - i + 1)
    ]
    return product_of_linear_forms(space, forms)


# -- factored classes -------------------------------------------------------------


class FactoredClass(NamedTuple):
    """A class kept in factored form: scalar * monomial * linear factors."""

    space: VariableSpace
    scalar: int
    monomial: tuple[tuple[int, int], ...]  # (vid, exponent) pairs
    factors: tuple[Polynomial, ...]

    def _head(self) -> Polynomial:
        """scalar * monomial, the one-term part before the factors."""
        return Polynomial.monomial(self.space, dict(self.monomial), self.scalar)

    def expand(self) -> Polynomial:
        """The expanded class: one product of the factors whose term map starts from the head."""
        return product_of_linear_forms(self.space, self.factors, head=self._head())

    def text(self) -> str:
        head = self._head().text()
        tail = "".join(f"({f.text()})" for f in self.factors)
        if not tail:
            return head
        return tail if head == "1" else f"{head} {tail}"


def ordinary_shape(mu: Composition, *, half_slots: bool) -> tuple[list[int], list[tuple[int, int]]]:
    """
    The ordinary class x^e * prod (x_j + x_k) (module docstring; the power of
    two divided out) as its integers: e and the within-block pairs (j, k).
    """
    check_even_parts(mu, half_slots)
    n, nu = mu.total, mu.nu  # over block (lo, hi]: e_k = n - hi, plus 1 in its first half with half slots
    e = [n - hi + (2 * (k - lo) <= hi - lo if half_slots else 0) for lo, hi in zip(nu, nu[1:])
         for k in range(lo + 1, hi + 1)]
    return e, [pair for i in range(1, mu.s + 1) for pair in _block_pairs(mu, i)]


def ordinary_factored(mu: Composition, *, half_slots: bool) -> FactoredClass:
    """The factored ordinary class of ordinary_shape: head x^e, one binomial x_j + x_k per pair."""
    e, pairs = ordinary_shape(mu, half_slots=half_slots)
    space = space_for(mu)
    head = tuple((space.x(i), p) for i, p in enumerate(e, start=1) if p)
    factors = tuple(Polynomial.linear_form(space, {space.x(j): 1, space.x(k): 1}) for j, k in pairs)
    return FactoredClass(space, 1, head, factors)


def equivariant_factored(mu: Composition, *, half_slots: bool) -> FactoredClass:
    """
    Cross-block factor * prod of within-block pair factors; with half slots
    (the orthogonal family) also the half-block factors and one 2 per
    half-block slot.
    """
    check_even_parts(mu, half_slots)
    space = space_for(mu)
    factors = []
    for i in range(1, mu.s + 1):
        if half_slots:
            factors.extend(_half_block_forms(space, mu, i))
        factors.extend(_block_pair_forms(space, mu, i))
    factors.extend(_cross_block_forms(space, mu))
    scalar = 2 ** mu.half_weight() if half_slots else 1
    return FactoredClass(space, scalar, (), tuple(factors))


def ordinary_class_orthogonal(mu: Composition) -> Polynomial:
    return ordinary_factored(mu, half_slots=True).expand()


def ordinary_class_symplectic(mu: Composition) -> Polynomial:
    return ordinary_factored(mu, half_slots=False).expand()


def equivariant_class_orthogonal(mu: Composition) -> Polynomial:
    return equivariant_factored(mu, half_slots=True).expand()


def equivariant_class_symplectic(mu: Composition) -> Polynomial:
    return equivariant_factored(mu, half_slots=False).expand()


# -- localization ----------------------------------------------------------------


def restrict_to_fixed_point(f: Polynomial, w: Permutation) -> Polynomial:
    """Restriction at the fixed point indexed by w: substitute x_i -> y_{w(i)}."""
    space = f.space
    if w.n != space.n:
        raise ValueError(f"permutation size {w.n} != space size {space.n}")
    images = {
        space.x(i): Polynomial.variable(space, space.yfull(w(i)))
        for i in range(1, space.n + 1)
    }
    return f.substitute(images)


def fixed_point_restrictions(
    f: Polynomial, parts: tuple[int, ...] | None = None
) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
    """
    The (word, restriction) items of polynomial.bijective_substitutions over
    x_i -> y_{w(i)}, in word order: one for each word rising inside every
    block of the sizes `parts` (default: blocks of one, so every w of S_n).
    With parts, f must be symmetric in the x's of each block, so that an
    item's restriction is the one at every w of its block orbit; the caller
    checks that.
    """
    space = f.space
    xs = [space.x(i) for i in range(1, space.n + 1)]
    ys = [space.yfull(i) for i in range(1, space.n + 1)]
    return bijective_substitutions(f, xs, ys, parts)


def preserves_blocks(w: Permutation, mu: Composition) -> bool:
    """
    True iff w, of size mu.total, maps every block of mu onto itself: every
    letter lies in the block of its position.
    """
    if w.n != mu.total:
        raise ValueError("size mismatch")
    nu = mu.nu
    return all(lo < v <= hi for lo, hi in zip(nu, nu[1:]) for v in w.word[lo:hi])


def fixed_point_weight_product(mu: Composition, w: Permutation) -> Polynomial:
    """
    Product of the w-images (y_{w(k)} - y_{w(l)}) of the cross-block roots if
    w preserves every block; the zero polynomial otherwise.  A block-preserving
    w maps the cross-block roots onto themselves, so its product is the one
    of (y_k - y_l) over the roots (k, l) themselves, built in the call.
    """
    space = space_for(mu)
    if not preserves_blocks(w, mu):
        return Polynomial.zero(space)
    forms = [Polynomial.linear_form(space, {space.yfull(k): 1, space.yfull(l): -1}) for k, l in cross_block_roots(mu)]
    return product_of_linear_forms(space, forms)


def restrict_to_block_torus(f: Polynomial) -> Polynomial:
    """
    Map full-torus y coordinates onto the block torus of the composition
    carried by f's space: within block i of size p and half m = floor(p/2),

        y_{nu_i + k}         -> z_i + y{i}_{k}    for k <= m
        y_{nu_i + m + 1}     -> z_i               when p is odd
        y_{nu_i + p + 1 - k} -> z_i - y{i}_{k}    for k <= m

    f must involve only x and full-torus y variables.
    """
    space = f.space
    if space.mu is None:
        raise ValueError("polynomial space carries no blocks")
    mu = Composition(space.mu)
    present = set(f.variables())
    halves = [space.yblock(i, k) for i, h in enumerate(space.halves, start=1) for k in range(1, h + 1)]
    for vid in halves + [space.z(i) for i in range(1, space.s + 1)]:
        if vid in present:
            raise ValueError(f"variable {space.name(vid)} is already a block coordinate")
    images: dict[int, Polynomial] = {}
    for i, p in enumerate(mu.parts, start=1):
        base = mu.nu[i - 1]
        m = p // 2
        zi = space.z(i)
        for k in range(1, m + 1):
            images[space.yfull(base + k)] = Polynomial.linear_form(
                space, {zi: 1, space.yblock(i, k): 1}
            )
            images[space.yfull(base + p + 1 - k)] = Polynomial.linear_form(
                space, {zi: 1, space.yblock(i, k): -1}
            )
        if p % 2 == 1:
            images[space.yfull(base + m + 1)] = Polynomial.variable(space, zi)
    return f.substitute(images)


def zero_equivariant_vars(f: Polynomial) -> Polynomial:
    """Specialize every non-x variable to 0 (the ordinary-class map)."""
    zero = Polynomial.zero(f.space)
    return f.substitute({vid: zero for vid in f.space.equivariant_vids()})
