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
x^c with c_i <= n - i (the "staircase span").  Within that span, the
canonical-order leading monomial of a Schubert polynomial is x^{code(w)}
with coefficient 1, so expansion works by greedy leading-term subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutation import Permutation, from_code
from .polynomial import Polynomial, VariableSpace, _term_key, divided_difference_terms

# word -> {x-exponent tuple (length n): coeff}; shared across all spaces
_SCHUBERT_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def _smallest_ascent(word: tuple[int, ...]) -> int | None:
    """1-based position i with word[i] < word[i+1]; None for the longest element."""
    for i in range(len(word) - 1):
        if word[i] < word[i + 1]:
            return i + 1
    return None


def _swap(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    lst = list(word)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def _schubert_terms(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """
    x-exponent map of the Schubert polynomial of `word`, memoized.

    Walks up the chain w, w s_i, w s_i s_j, ... (always the smallest ascent)
    until hitting the cache or the longest element, then applies divided
    differences back down.
    """
    chain: list[tuple[tuple[int, ...], int]] = []
    cur = word
    while cur not in _SCHUBERT_CACHE:
        i = _smallest_ascent(cur)
        if i is None:
            n = len(cur)
            _SCHUBERT_CACHE[cur] = {tuple(range(n - 1, -1, -1)): 1}
            break
        chain.append((cur, i))
        cur = _swap(cur, i)
    while chain:
        u, i = chain.pop()
        _SCHUBERT_CACHE[u] = divided_difference_terms(_SCHUBERT_CACHE[_swap(u, i)], i)
    return _SCHUBERT_CACHE[word]


def _materialize(x_terms: dict[tuple[int, ...], int], space: VariableSpace) -> Polynomial:
    """Place an x-exponent map (length <= space.n) into a full space."""
    width = len(next(iter(x_terms), ()))
    pad = (0,) * (space.num_vars - width)
    return Polynomial(space, {exp + pad: c for exp, c in x_terms.items()})


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
    if space is None:
        space = VariableSpace(w.n)
    if space.n < w.n:
        raise ValueError(f"space has {space.n} x variables, need {w.n}")
    return _materialize(_schubert_terms(w.word), space)


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
    if space is None:
        space = VariableSpace(w.n)
    if space.n < w.n:
        raise ValueError(f"space has {space.n} x variables, need {w.n}")
    terms: dict[tuple[int, ...], int] = {}
    for diagram in pipe_dreams(w):
        exp = [0] * w.n
        for (i, _j) in diagram:
            exp[i - 1] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
    return _materialize(terms, space)


# -- staircase span and basis expansion ---------------------------------------


def in_staircase_span(f: Polynomial, n: int) -> bool:
    """
    True iff every monomial of f has x_i exponent at most n - i for all i
    (with variables beyond x_n unused).  Raises if f involves any non-x
    variable.
    """
    space = f.space
    for exp in f.terms:
        for vid in space.equivariant_vids():
            if exp[vid]:
                raise ValueError(f"non-x variable {space.name(vid)} present")
        for idx in range(space.n):
            if exp[idx] and exp[idx] > n - idx - 1:
                return False
    return True


@dataclass
class SchubertExpansion:
    """Finite integer combination of Schubert polynomials of S_n."""

    n: int
    coeffs: dict[Permutation, int]

    def support(self) -> set[Permutation]:
        return set(self.coeffs)

    def to_polynomial(self, space: VariableSpace | None = None) -> Polynomial:
        if space is None:
            space = VariableSpace(self.n)
        total = Polynomial.zero(space)
        for w, c in self.coeffs.items():
            total = total + schubert_poly(w, space) * c
        return total

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

    Greedy: the canonical leading monomial x^c of the remainder is the code
    of exactly one w in S_n; subtract coeff * schubert_poly(w) and repeat.
    Every subtraction strictly raises the leading monomial and keeps the
    remainder in the span, so this terminates and every leading exponent is
    a Lehmer code.
    """
    if not 1 <= n <= f.space.n:
        raise ValueError(f"need 1 <= n <= {f.space.n} for this space, got n={n}")
    if not in_staircase_span(f, n):
        raise ValueError(f"polynomial is not in the staircase span for n={n}")
    # in the span every exponent beyond x_n is 0, so work on x1..x_n alone
    remainder = {exp[:n]: c for exp, c in f.terms.items()}
    coeffs: dict[Permutation, int] = {}
    while remainder:
        exp = min(remainder, key=lambda e: _term_key(n, e))
        c = remainder[exp]
        w = from_code(exp)
        for key, c2 in _schubert_terms(w.word).items():
            nc = remainder.get(key, 0) - c * c2
            if nc:
                remainder[key] = nc
            elif key in remainder:
                del remainder[key]
        coeffs[w] = c
    return SchubertExpansion(n, coeffs)
