"""
Mechanical verification of the sum-equals-product identities.

For a composition mu and a family, verify_identity checks, as exact
statements about integer polynomials:

  (a) the sum of the Schubert polynomials over the family's member set
      equals the factored ordinary class, term for term;
  (b) the product side lies in the staircase span of its ambient S_n;
  (c) expanding the product side in the Schubert basis returns exactly the
      member set, every coefficient 1.

The verdict is (a) for distinct members of S_n, decided in the Schubert
basis: Monk's rule expands the factored ordinary class, a dominant
monomial times binomials x_j + x_k (schubert._monk_expansion), and (a)
holds iff that expansion is 1 on each member and 0 elsewhere, as the
Schubert polynomials of S_infinity are a Z-basis of Z[x1, x2, ...].  A
passing check builds no monomial.  Only a failing report builds both
sides, the Schubert sum and the expanded product side, for its witness,
the canonically first monomial of their difference.  The
Schubert polynomials of S_n are a Z-basis of the staircase span
(Macdonald, Notes on Schubert Polynomials, 1991), so (b) and (c) follow
from (a): the sum lies in the span, and its expansion is unique.

verify_equivariant_suite checks the block-torus machinery for one
composition: fixed-point localization of the cross-block Chern class at
every w of S_n, compatibility of the block-torus restriction, agreement of
each distinct single-block base class (an independent product of linear
forms) with the one-block equivariant class that cohomology builds, and
the specialization of the equivariant class to (a power of two times) the
ordinary class.

Localization takes the restrictions down the polynomial kernel's tree of
raw term maps, one item per block orbit w S_mu, and every step of that
shortcut is checked:

  - the Chern class is symmetric in the x's of each block (the divided
    difference in every adjacent pair inside a block is 0), so its
    restriction is one polynomial on each block orbit;
  - an item equals fixed_point_weight_product, built on its own from the
    roots, at the item's own word, compared once for its whole orbit: for
    s in S_mu, (k, l) -> (s(k), s(l)) permutes the cross-block roots and
    keeps k < l, so the weight product at ws is the one at w, and
    preserves_blocks reads only each block's letter set, which ws shares;
  - the items stand for n! points in all, |S_mu| each.

An item's word is the first point of its orbit in word order, and the tree
yields its items in word order, so the first failing item is reported, with
its 1-based rank as the support: the point a walk over all of S_n would stop
at.

Failures are verdicts, never exceptions; a failing report carries the first
mismatching monomial as a witness, or a flag when its sum equals the
product side (a member given in a smaller S_m, say) or cannot be formed in
the product side's space (a member of a larger S_m).
"""

from __future__ import annotations

import math
import time
from typing import Sequence

from .composition import Composition, check_even_parts, enumerate_compositions
from .permutation import Permutation
from . import cohomology
from .polynomial import Polynomial
from .schubert import _monk_expansion, _stripped, schubert_sum
# perfbench wraps these three names on verifier; none is called here, so they are imported only for the wraps
from .schubert import expand_in_schubert_basis, in_staircase_span, schubert_poly
from .wset import WSet, w_set_orthogonal, w_set_symplectic

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
FAMILIES = (ORTHOGONAL, SYMPLECTIC)

# Rejected reading of the two-block symplectic set on 6 letters (letters
# ascending across blocks); kept as a permanent regression input.
ASCENDING_LETTER_VARIANT_24 = (
    Permutation((1, 2, 3, 5, 6, 4)),
    Permutation((1, 2, 5, 3, 4, 6)),
)


class IdentityReport:
    """Outcome of one identity or suite check; the suite updates it in place."""

    # A __slots__ class, not a dataclass, for the reason given at Composition.
    __slots__ = ("family", "mu", "verdict", "degree", "support", "witness", "flags", "ms")

    def __init__(
        self,
        family: str,
        mu: Composition,
        verdict: str,  # "pass" | "fail"
        degree: int,
        support: int,  # members summed (identity) or fixed points checked (suite)
        witness: tuple[str, str, str] | None = None,  # (monomial, lhs, rhs)
        flags: list[str] | None = None,  # a fresh list for each report when omitted
        ms: float = 0.0,
    ):
        self.family = family
        self.mu = mu
        self.verdict = verdict
        self.degree = degree
        self.support = support
        self.witness = witness
        self.flags = [] if flags is None else flags
        self.ms = ms

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"IdentityReport({fields})"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self, include_ms: bool = False) -> dict:
        return {
            "family": self.family,
            "mu": self.mu.to_json(),
            "verdict": self.verdict,
            "degree": self.degree,
            "support": self.support,
            "witness": list(self.witness) if self.witness else None,
            "flags": list(self.flags),
            "ms": round(self.ms, 3) if include_ms else None,
        }

    def text(self) -> str:
        line = (
            f"{self.family} mu={self.mu}: {self.verdict}"
            f" (degree {self.degree}, support {self.support}, {self.ms:.1f} ms)"
        )
        if self.witness:
            line += f"\n  witness {self.witness[0]}: lhs={self.witness[1]} rhs={self.witness[2]}"
        for flag in self.flags:
            line += f"\n  note: {flag}"
        return line


def by_family(family: str, orthogonal, symplectic):
    """
    The argument that belongs to `family`; the one place that rejects an
    unknown family name.  Callers pass module attributes looked up at the
    call, not a stored table, so a rebound attribute is always honoured.
    """
    if family == ORTHOGONAL:
        return orthogonal
    if family == SYMPLECTIC:
        return symplectic
    raise ValueError(f"unknown family {family!r}")


def needs_even_parts(family: str) -> bool:
    """Symplectic blocks carry no half slots, so every part must be even."""
    return by_family(family, False, True)


def _first_mismatch(lhs: Polynomial, rhs: Polynomial) -> tuple[str, str, str] | None:
    """
    The canonically first monomial of rhs - lhs, as (monomial, lhs
    coefficient, rhs coefficient); None when the two agree.
    """
    remainder = rhs - lhs
    if remainder.is_zero():
        return None
    key, _ = remainder.leading_term()
    return (Polynomial(rhs.space, {key: 1}).text(), str(lhs.terms.get(key, 0)), str(rhs.terms.get(key, 0)))


def product_side(mu: Composition, family: str) -> Polynomial:
    return by_family(
        family, cohomology.ordinary_class_orthogonal, cohomology.ordinary_class_symplectic
    )(mu)


def member_set(mu: Composition, family: str) -> WSet:
    return by_family(family, w_set_orthogonal, w_set_symplectic)(mu)


def verify_identity_for_members(
    mu: Composition, family: str, members: Sequence[Permutation]
) -> IdentityReport:
    """Check sum-equals-product for an explicit member set (see module docstring)."""
    start = time.perf_counter()
    n = mu.total
    factored = cohomology.ordinary_factored(mu, half_slots=not needs_even_parts(family))
    degree = sum(e for _, e in factored.monomial) + len(factored.factors)
    # only members of S_n count: S_312 == S_3124, so a member of a smaller S_m can match rhs
    ok = all(w.n == n for w in members) and len(set(members)) == len(members)
    ok = ok and _monk_expansion(*factored) == {_stripped(w.word): 1 for w in members}
    witness = None
    # a member of a larger S_m has no Schubert polynomial in the product side's space
    if not ok and all(w.n <= n for w in members):  # only a failing report builds monomials, for its witness
        witness = _first_mismatch(schubert_sum(members, factored.space), factored.expand())
    flags: list[str] = []
    if not ok and witness is None:
        flags.append("Schubert expansion of the product side is not the member set with unit coefficients")

    return IdentityReport(
        family=family,
        mu=mu,
        verdict="pass" if ok else "fail",
        degree=degree,
        support=len(members),
        witness=witness,
        flags=flags,
        ms=(time.perf_counter() - start) * 1000.0,
    )


def verify_identity(mu: Composition, family: str) -> IdentityReport:
    """
    Check sum-equals-product for the family's own member set.

    For the symplectic two-block composition (2, 4), the rejected
    ascending-letter member set is re-run as a regression and its failure is
    recorded in the flags.
    """
    wset = member_set(mu, family)
    report = verify_identity_for_members(mu, family, wset.members)
    if family == SYMPLECTIC and mu.parts == (2, 4):
        alt = verify_identity_for_members(mu, family, ASCENDING_LETTER_VARIANT_24)
        members_text = ", ".join(str(w) for w in ASCENDING_LETTER_VARIANT_24)
        if alt.passed:
            report.verdict = "fail"
            report.flags.append(
                f"ascending-letter variant {{{members_text}}} unexpectedly passes"
            )
        else:
            alt_degree = max((w.length for w in ASCENDING_LETTER_VARIANT_24), default=0)
            report.flags.append(
                f"letter-order check: ascending-letter variant {{{members_text}}} "
                f"fails as expected (summand degree {alt_degree} != product degree {report.degree}); "
                "descending letter blocks are the adjudicated convention"
            )
    return report


def _word_rank(w: Permutation) -> int:
    """The 1-based position of w in the word order of S_n, from its Lehmer code."""
    n = w.n
    return 1 + sum(c * math.factorial(n - 1 - i) for i, c in enumerate(w.code()))


def _localization_failure(
    mu: Composition, chern: Polynomial
) -> tuple[int, str, Polynomial, Polynomial] | None:
    """
    The first failure of localization, as (support, flag, lhs, rhs); None
    when it holds at every w.  One item serves a block orbit only if the
    Chern class is symmetric in the x's of each block, so a nonzero divided
    difference inside a block fails first, as (0, flag, asymmetry, 0).  Then
    the first item, in word order, whose restriction is not the weight
    product at its own word fails, as (rank, flag, restriction, weight
    product).  The items must stand for n! points in all, or the report
    fails with the count as its support.
    """
    zero = Polynomial.zero(chern.space)
    for i, (base, part) in enumerate(zip(mu.nu, mu.parts), start=1):
        for k in range(base + 1, base + part):
            asymmetry = chern.divided_difference(k)
            if not asymmetry.is_zero():
                flag = f"Chern class is not symmetric in x{k}, x{k + 1} inside block {i}"
                return 0, flag, asymmetry, zero
    covered, orbit_size = 0, math.prod(map(math.factorial, mu.parts))
    for word, image in cohomology.fixed_point_restrictions(chern, mu.parts):
        covered += orbit_size
        w = Permutation._unchecked(word)  # the tree yields each rising word of S_n once, as a tuple
        rhs = cohomology.fixed_point_weight_product(mu, w)
        if image != rhs:
            return _word_rank(w), f"localization mismatch at w={w}", image, rhs
    if covered != math.factorial(mu.total):
        flag = f"localization: the tree's items stand for {covered} of {math.factorial(mu.total)} fixed points"
        return covered, flag, zero, zero
    return None


def verify_equivariant_suite(
    mu: Composition, family: str = ORTHOGONAL, localization_max_n: int = 5
) -> IdentityReport:
    """
    Exhaustive block-torus checks for one composition (see module docstring),
    in order, stopping at the first mismatch.  Fixed-point localization
    enumerates all of S_n and is skipped (with a flag) above
    localization_max_n, which must be an int.
    """
    if type(localization_max_n) is not int:
        raise ValueError(f"localization_max_n {localization_max_n!r} is not an integer")
    start = time.perf_counter()
    half_slots = not needs_even_parts(family)
    check_even_parts(mu, half_slots)
    base_class, equivariant_class = by_family(
        family,
        (cohomology.base_class_orthogonal, cohomology.equivariant_class_orthogonal),
        (cohomology.base_class_symplectic, cohomology.equivariant_class_symplectic),
    )
    n = mu.total
    chern = cohomology.cross_block_chern_class(mu)
    report = IdentityReport(family, mu, "pass", chern.total_degree(), support=0)

    def fail(flag: str, lhs: Polynomial, rhs: Polynomial) -> None:
        report.verdict = "fail"
        report.witness = _first_mismatch(lhs, rhs)  # None when the two agree
        report.flags.append(flag)

    def mismatch(lhs: Polynomial, rhs: Polynomial, flag: str) -> bool:
        if lhs == rhs:
            return False
        fail(flag, lhs, rhs)
        return True

    try:  # every return below is the report, stamped with its time in `finally`
        # localization: restriction at every fixed point equals the weight product
        if n <= localization_max_n:
            failure = _localization_failure(mu, chern)
            if failure:
                report.support, flag, lhs, rhs = failure
                fail(flag, lhs, rhs)
                return report
            report.support = math.factorial(n)
        else:
            report.flags.append(f"localization skipped (n={n} > {localization_max_n})")

        # block-torus restriction of the Chern class is the cross-block factor
        restricted = cohomology.restrict_to_block_torus(chern)
        expected = cohomology.cross_block_factor(mu)
        if mismatch(restricted, expected, "block-torus restriction of the Chern class mismatches"):
            return report

        # each single-block base class is the one-block equivariant class
        for m in dict.fromkeys(mu.parts):  # each distinct part once, in order of first appearance
            one_block = equivariant_class(Composition((m,)))
            if mismatch(base_class(m), one_block, f"base-class factorization fails for part {m}"):
                return report

        # equivariant class specializes to (a power of two times) the ordinary class
        equivariant = equivariant_class(mu)
        report.degree = equivariant.total_degree()
        ordinary = product_side(mu, family)
        if half_slots:
            ordinary = ordinary * (2 ** mu.half_weight())
        specialized = cohomology.zero_equivariant_vars(equivariant)
        mismatch(specialized, ordinary, "equivariant class does not specialize to the ordinary class")
        return report
    finally:
        report.ms = (time.perf_counter() - start) * 1000.0


def sweep(n: int, family: str) -> list[IdentityReport]:
    """
    verify_identity for every composition of n (even parts for the symplectic
    family), in the deterministic enumeration order.
    """
    compositions = enumerate_compositions(n, even_parts_only=needs_even_parts(family))
    return [verify_identity(mu, family) for mu in compositions]
