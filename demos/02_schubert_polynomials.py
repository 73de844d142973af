"""
Schubert polynomials two ways, and expansion in the Schubert basis.

The recursion starts from the staircase monomial of the longest element and
applies divided differences down the weak order.  The independent oracle
sums one monomial per reduced pipe dream, enumerated by ladder moves from
the left-justified diagram of the Lehmer code.  Ladder moves only lift
crosses to earlier rows, so x^code(w) is the lexicographically smallest
monomial of a Schubert polynomial, which drives the greedy basis expansion.
"""

from schubfactor import (
    Permutation,
    VariableSpace,
    all_permutations,
    expand_in_schubert_basis,
    in_staircase_span,
    longest_element,
    pipe_dreams,
    schubert_poly,
    schubert_poly_oracle,
)
from schubfactor.polynomial import Polynomial

print("== The divided-difference recursion ==")
for word in ((3, 2, 1), (1, 3, 2), (2, 1, 3), (2, 3, 1)):
    w = Permutation(word)
    print(f"  S_{w} = {schubert_poly(w).text()}   (code {w.code()}, length {w.length})")

print()
print("== Pipe dream oracle ==")
w = Permutation((2, 1, 4, 3))
print(f"w = {w}: {len(pipe_dreams(w))} reduced pipe dreams")
for d in sorted(pipe_dreams(w), key=sorted):
    rows = sorted(d)
    print(f"  crosses {rows}")
print(f"oracle: {schubert_poly_oracle(w).text()}")
print(f"recursion: {schubert_poly(w).text()}")

mismatches = sum(
    1 for u in all_permutations(5) if schubert_poly(u) != schubert_poly_oracle(u)
)
print(f"cross-check over all of S_5: {mismatches} mismatches")

print()
print("== Expansion in the Schubert basis ==")
sp = VariableSpace(4)
x = lambda i: Polynomial.variable(sp, sp.x(i))
f = (x(1) + x(2)) * (x(1) + x(3))
print(f"f = (x1 + x2)(x1 + x3) = {f.text()}")
print(f"f lies in the staircase span for n=4: {in_staircase_span(f, 4)}")
expansion = expand_in_schubert_basis(f, 4)
for u in sorted(expansion.coeffs):
    print(f"  coefficient of S_{u}: {expansion.coeffs[u]}")
print("reconstruction matches:", expansion.to_polynomial(sp) == f)

print()
print("round trip S_w -> expansion -> {w: 1} over S_4:")
ok = all(
    expand_in_schubert_basis(schubert_poly(u), 4).coeffs == {u: 1}
    for u in all_permutations(4)
)
print("  all 24 round trips exact:", ok)

print()
print("staircase monomial of the longest element of S_6:",
      schubert_poly(longest_element(6)).text())
