"""
Schubert polynomials and expansion of polynomials in the Schubert basis.

Two independent constructions are provided:

  * schubert_poly        top-down divided-difference recursion from the
                         staircase monomial x1^{n-1} x2^{n-2} ... x_{n-1}
  * schubert_poly_oracle sum over reduced pipe dreams (RC-graphs), enumerated
                         as the ladder-move closure of the left-justified
                         diagram of the Lehmer code

Both return the same polynomial; the oracle never touches the recursion and
is used for cross-validation.

The Schubert polynomials of S_n form a Z-basis of the span of monomials
x^c with c_i <= n - i (the "staircase span").  Every reduced pipe dream of
w is reached from the code diagram by ladder moves, and each move lifts a
cross to an earlier row, raising the row-count vector in lexicographic order
(Bergeron & Billey, RC-graphs and Schubert polynomials, 1993).  So x^{code(w)}
is the lexicographically smallest monomial of S_w, with coefficient 1.  A
monomial key orders like its exponent vector (see polynomial), so expansion
subtracts at the smallest key with no sort key.

The raw x-only maps below key S_w of S_m by m-field keys; a space with more
variables takes them shifted up past its remaining fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .permutation import Permutation, from_code
from .polynomial import Polynomial, VariableSpace, divided_difference_terms, packed_key


def _smallest_ascent(word: tuple[int, ...]) -> int | None:
    """1-based position i with word[i] < word[i+1]; None for the longest element."""
    for i in range(len(word) - 1):
        if word[i] < word[i + 1]:
            return i + 1
    return None


@functools.cache
def _schubert_terms(word: tuple[int, ...]) -> dict[int, int]:
    """
    x-only key map of the Schubert polynomial of `word`, memoized and shared
    across all spaces: S_w = d_i S_{w s_i} at the smallest ascent i, down
    from the staircase monomial of the longest element.  The recursion is
    at most n(n-1)/2 calls deep.
    """
    i = _smallest_ascent(word)
    if i is None:
        return {packed_key(range(len(word) - 1, -1, -1)): 1}
    up = word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :]
    return divided_difference_terms(_schubert_terms(up), i, len(word))


def _add_terms(terms: dict, x_terms: Mapping, c: int, shift: int) -> None:
    """terms += c * x_terms, each key shifted up by `shift` bits; sums that reach 0 are dropped."""
    for key, c2 in x_terms.items():
        key <<= shift
        nc = terms.get(key, 0) + c * c2
        if nc:
            terms[key] = nc
        elif key in terms:
            del terms[key]


def _combination(pairs: Iterable, space: VariableSpace, x_terms: Callable = _schubert_terms) -> Polynomial:
    """sum c * S_w over (w, c) pairs, a repeat counted each time; x_terms(w.word) is S_w's x-only key map."""
    pairs = list(pairs)
    need = max((w.n for w, _ in pairs), default=1)
    if space.n < need:
        raise ValueError(f"space has {space.n} x variables, need {need}")
    terms: dict[int, int] = {}
    for w, c in pairs:
        _add_terms(terms, x_terms(w.word), c, 8 * (space.num_vars - w.n))
    return Polynomial(space, terms)


def schubert_sum(members: Iterable[Permutation], space: VariableSpace) -> Polynomial:
    """Exact sum of the Schubert polynomials of all members; a repeated member counts each time."""
    return _combination(((w, 1) for w in members), space)


def schubert_poly(w: Permutation, space: VariableSpace | None = None) -> Polynomial:
    """
    The Schubert polynomial of w, homogeneous of degree w.length, with
    canonical leading monomial x^{code(w)}.

    >>> from .permutation import Permutation
    >>> schubert_poly(Permutation((3, 2, 1))).text()
    'x1^2 x2'
    >>> schubert_poly(Permutation((1, 3, 2))).text()
    'x1 + x2'
    """
    return _combination([(w, 1)], space or VariableSpace(w.n))


# -- independent oracle: reduced pipe dreams ---------------------------------


def _ladder_successors(diagram: frozenset[tuple[int, int]]):
    """
    All diagrams reachable by one ladder move: a cross at (i, j) with
    (i, j+1) empty climbs past rows whose (row, j) and (row, j+1) are both
    crossed, landing at the first row r where both columns are empty, and
    moves to (r, j+1).
    """
    for (i, j) in diagram:
        if (i, j + 1) in diagram:
            continue
        r = i - 1
        while r >= 1:
            left, right = (r, j) in diagram, (r, j + 1) in diagram
            if left and right:
                r -= 1
                continue
            if not left and not right:
                yield diagram - {(i, j)} | {(r, j + 1)}
            break


def pipe_dreams(w: Permutation) -> set[frozenset[tuple[int, int]]]:
    """
    All reduced pipe dreams of w as sets of crossing cells (row, column),
    computed as the ladder-move closure of the left-justified diagram whose
    row i holds code(w)[i] crosses.
    """
    code = w.code()
    bottom = frozenset(
        (i + 1, j + 1) for i, c in enumerate(code) for j in range(c)
    )
    seen = {bottom}
    stack = [bottom]
    while stack:
        diagram = stack.pop()
        for nxt in _ladder_successors(diagram):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _diagram_permutation(diagram: frozenset[tuple[int, int]], n: int) -> Permutation:
    """
    Wiring of a diagram: the product of adjacent transpositions s_{i+j-1}
    over crosses, rows top to bottom and right to left within a row, with
    the earliest-read factor applied last.
    """
    word = list(range(1, n + 1))
    for i in range(1, n + 1):
        row = sorted((j for (r, j) in diagram if r == i), reverse=True)
        for j in row:
            k = i + j - 1
            word[k - 1], word[k] = word[k], word[k - 1]
    return Permutation(word)


def schubert_poly_oracle(w: Permutation, space: VariableSpace | None = None) -> Polynomial:
    """
    Schubert polynomial built monomial-by-monomial from reduced pipe dreams;
    never uses the divided-difference recursion.
    """
    return _combination([(w, 1)], space or VariableSpace(w.n), _pipe_dream_terms)


def _pipe_dream_terms(word: tuple[int, ...]) -> dict[int, int]:
    """x-only key map of S_word: each reduced pipe dream adds x^(its crosses per row)."""
    terms: dict[int, int] = {}
    for diagram in pipe_dreams(Permutation(word)):
        exp = [0] * len(word)
        for (i, _j) in diagram:
            exp[i - 1] += 1
        key = packed_key(exp)
        terms[key] = terms.get(key, 0) + 1
    return terms


# -- staircase span and basis expansion ---------------------------------------


def in_staircase_span(f: Polynomial, n: int) -> bool:
    """
    True iff every monomial of f has x_i exponent at most n - i for all i
    (with variables beyond x_n unused).  Raises if f involves any non-x
    variable, whatever else it holds.
    """
    space = f.space
    for vid in space.equivariant_vids():
        if f.degree_in(vid):
            raise ValueError(f"non-x variable {space.name(vid)} present")
    return all(f.degree_in(space.x(i)) <= max(n - i, 0) for i in range(1, space.n + 1))


@dataclass
class SchubertExpansion:
    """Finite integer combination of Schubert polynomials of S_n."""

    n: int
    coeffs: dict[Permutation, int]

    def support(self) -> set[Permutation]:
        return set(self.coeffs)

    def to_polynomial(self, space: VariableSpace | None = None) -> Polynomial:
        return _combination(self.coeffs.items(), space or VariableSpace(self.n))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"perm": w.to_json(), "coeff": str(self.coeffs[w])}
                for w in sorted(self.coeffs)
            ],
        }


def expand_in_schubert_basis(f: Polynomial, n: int) -> SchubertExpansion:
    """
    The unique expansion of f (which must lie in the staircase span for n)
    as an integer combination of Schubert polynomials of S_n.

    Greedy: the exponent vector c of the remainder's smallest key (int
    order on keys is lexicographic order on exponent vectors) is the code of
    exactly one w in S_n, and ladder moves make every other monomial of S_w
    larger.  So subtracting coeff * schubert_poly(w) cancels x^c, raises the
    smallest key and stays in the span.
    """
    if type(n) is not int or not 1 <= n <= f.space.n:
        raise ValueError(f"need an integer 1 <= n <= {f.space.n} for this space, got n={n!r}")
    if not in_staircase_span(f, n):
        raise ValueError(f"polynomial is not in the staircase span for n={n}")
    # in the span every field beyond x_n is 0, so shift them out and work on x1..x_n alone
    drop = 8 * (f.space.num_vars - n)
    remainder = {key >> drop: c for key, c in f.terms.items()}
    coeffs: dict[Permutation, int] = {}
    while remainder:
        key = min(remainder)
        c = remainder[key]
        w = from_code(key.to_bytes(n, "big"))
        _add_terms(remainder, _schubert_terms(w.word), -c, 0)
        coeffs[w] = c
    return SchubertExpansion(n, coeffs)
