"""
The factored class formulas and the localization machinery behind them.

Each composition block contributes a first-half factor (x_j - z_i) per
half-slot and a pair factor (x_j + x_k - 2 z_i) per staircase pair; block
pairs i < j contribute cross factors through the block-torus coordinates of
the later block.  Setting every non-x variable to zero recovers the ordinary
class, a monomial times binomials (times a power of two in the orthogonal
family).
"""

from schubfactor import (
    Composition,
    all_permutations,
    base_class_orthogonal,
    block_pair_factor,
    cross_block_chern_class,
    cross_block_factor,
    equivariant_class_orthogonal,
    fixed_point_weight_product,
    half_block_factor,
    ordinary_class_orthogonal,
    restrict_to_block_torus,
    restrict_to_fixed_point,
    zero_equivariant_vars,
)
from schubfactor.cohomology import equivariant_factored, ordinary_factored

print("== Block factors for mu = (6, 5) ==")
mu = Composition((6, 5))
for i in (1, 2):
    print(f"  half-block factor {i}: {half_block_factor(mu, i).text()}")
print(f"  pair factor 2 has degree {block_pair_factor(mu, 2).total_degree()} (4 factors)")

print()
print("== Ordinary and equivariant classes for mu = (3, 4) ==")
mu = Composition((3, 4))
print("  ordinary (factored):", ordinary_factored(mu, half_slots=True).text())
eq = equivariant_factored(mu, half_slots=True)
print(f"  equivariant: scalar {eq.scalar}, {len(eq.factors)} linear factors")
specialized = zero_equivariant_vars(equivariant_class_orthogonal(mu))
expected = ordinary_class_orthogonal(mu) * (2 ** mu.half_weight())
print("  equivariant specializes to 2^d(mu) * ordinary:", specialized == expected)

print()
print("== Single-block base class factors through the block factors ==")
for m in (2, 3, 4, 5):
    single = Composition((m,))
    lhs = base_class_orthogonal(m)
    rhs = half_block_factor(single, 1) * block_pair_factor(single, 1) * (2 ** (m // 2))
    print(f"  m={m}: base class == 2^{m // 2} * half * pair: {lhs == rhs}")

print()
print("== Localization of the cross-block Chern class, mu = (2, 2) ==")
mu = Composition((2, 2))
chern = cross_block_chern_class(mu)
print(f"  h(x, y) = {chern.text()}")
hits = 0
for w in all_permutations(4):
    restricted = restrict_to_fixed_point(chern, w)
    weights = fixed_point_weight_product(mu, w)
    assert restricted == weights, w
    if not weights.is_zero():
        hits += 1
print(f"  restriction equals the weight product at all 24 fixed points"
      f" ({hits} block-preserving, rest vanish)")

rho = restrict_to_block_torus(chern)
print("  block-torus restriction equals the cross factor:",
      rho == cross_block_factor(mu))
print(f"  h(x, y, z) = {rho.text()}")
