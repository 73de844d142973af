"""
End-to-end verification that sums of Schubert polynomials factor.

For every composition, the sum of Schubert polynomials over the member
family equals the factored ordinary class, as an identity of integer
polynomials; equivalently, expanding the product side in the Schubert basis
returns exactly the member set with unit coefficients.  The two-block
symplectic case on six letters doubles as a regression for the adjudicated
letter-order convention.
"""

from schubfactor import (
    Composition,
    ORTHOGONAL,
    SYMPLECTIC,
    ordinary_class_orthogonal,
    schubert_sum,
    sweep,
    verify_equivariant_suite,
    verify_identity,
    verify_identity_for_members,
    w_set_orthogonal,
)
from schubfactor.cohomology import ordinary_factored
from schubfactor.verifier import ASCENDING_LETTER_VARIANT_24

print("== The worked example mu = (3, 4) ==")
mu = Composition((3, 4))
wset = w_set_orthogonal(mu)
print("members:", " ".join(str(w) for w in wset.members))
print("product:", ordinary_factored(mu, half_slots=True).text())
rhs = ordinary_class_orthogonal(mu)
lhs = schubert_sum(wset.members, rhs.space)
print(f"sum of 6 Schubert polynomials == product: {lhs == rhs}"
      f"  ({len(rhs.terms)} monomials, degree {rhs.total_degree()})")

print()
print("== Reports ==")
print(verify_identity(mu, ORTHOGONAL).text())
print(verify_identity(Composition((2, 4)), SYMPLECTIC).text())

print()
print("== The rejected ascending-letter reading fails ==")
bad = verify_identity_for_members(Composition((2, 4)), SYMPLECTIC, ASCENDING_LETTER_VARIANT_24)
print(bad.text())

print()
print("== Sweeps ==")
for n in range(1, 7):
    reports = sweep(n, ORTHOGONAL)
    verdicts = "all pass" if all(r.passed for r in reports) else "FAILURES"
    print(f"orthogonal n={n}: {len(reports):2d} compositions, {verdicts}")
for two_n in (2, 4, 6, 8):
    reports = sweep(two_n, SYMPLECTIC)
    verdicts = "all pass" if all(r.passed for r in reports) else "FAILURES"
    print(f"symplectic 2n={two_n}: {len(reports)} compositions, {verdicts}")

print()
print("== Equivariant suite ==")
for parts in ((2, 2), (2, 3), (1, 1, 2)):
    print(verify_equivariant_suite(Composition(parts), ORTHOGONAL).text())
