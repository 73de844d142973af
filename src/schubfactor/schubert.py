"""
Schubert polynomials and expansion of polynomials in the Schubert basis.

Two independent constructions are provided:

  * schubert_poly        top-down divided-difference recursion from the
                         monomial x^{code(u)} of a dominant permutation u
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

One recursion builds every Schubert combination, on the space's own keys.
It rests on S_w = d_i S_{w s_i} at an ascent i of w, on S_u = x^{code(u)}
for a dominant u (a weakly decreasing Lehmer code, i.e. 132-avoiding), and
on the linearity of divided differences (Macdonald, Notes on Schubert
Polynomials, 1991; (4.7) is the dominant case).  A sum (schubert_poly,
schubert_sum, to_polynomial) and each step of the basis expansion walk
Lehmer codes, not words: a code steps at its smallest i with
c_i < c_{i+1}, always an ascent of w, to the code of w s_i.  The codes of
one step i fold into one child map, and d_i of it is added into the term
map being summed into: a fresh map for a sum, the remainder for a step of
the expansion.
The groups are the nodes of one suffix trie over codes of every size,
keyed by each word's path from its first dominant code read from its
outermost step, so each trie node runs one divided difference on an
already summed map.  A dominant code adds c * x^code in
the top fields, times the word's coefficient c; padding a word with fixed
points pads its code with zeros, so words of every size share these leaves.

The verify and expand paths expand the ordinary class x^e * prod (x_j + x_k)
from its integers alone, e weakly decreasing and the pairs (j, k) of
cohomology.ordinary_shape, with no polynomial (_monk_expansion): x^e = S_u, and
Monk's rule x_k S_w = sum_{l > k} S_{w t_kl} - sum_{j < k} S_{w t_jk}, over
the transpositions that raise the length by one (Monk, The geometry of flag
manifolds, 1959; Macdonald, ch. IV), multiplies by each x of each binomial.
Each key is built as the shortest word of its class with at least n
letters: each class of S_n is keyed by its own word, only one outside is longer.

Nothing is kept from one call to the next.  The oracle shares none of this
code.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from .permutation import Permutation, from_code
from .polynomial import Polynomial, VariableSpace, _owned, divided_difference_terms, packed_key


def _fold(items: list, terms: dict, width: int) -> None:
    """
    terms += sum c * S_w over items [code(w) as a list, c, scan start], into
    a term map whose keys have `width` fields (see the module docstring);
    every c and every value of terms is nonzero, as divided_difference_terms
    requires.
    Each code steps to that of w s_i at its smallest i with c_i < c_{i+1},
    rewritten in place to (c_{i+1} + 1, c_i): the entries before the scan
    start are weakly decreasing, so after a step at position j the next
    such i is at j - 1 or later.  The items of one step i fold into one
    child map, and d_i of it joins terms; a weakly decreasing code is
    dominant and adds c * x^code in the top fields.
    """
    groups: dict[int, list] = {}
    for item in items:
        code, c, j = item
        while j < len(code) - 1 and code[j] >= code[j + 1]:
            j += 1
        if j < len(code) - 1:
            code[j], code[j + 1] = code[j + 1] + 1, code[j]
            item[2] = max(j - 1, 0)
            groups.setdefault(j + 1, []).append(item)
        else:
            leaf = packed_key(code) << 8 * (width - len(code))
            nc = terms.get(leaf, 0) + c
            if nc:
                terms[leaf] = nc
            else:
                del terms[leaf]  # a nonzero c brought the sum to 0, so the leaf was in terms
    for i, group in groups.items():
        child: dict[int, int] = {}
        _fold(group, child, width)
        divided_difference_terms(child, i, width, terms)


def _combination(pairs: Iterable, space: VariableSpace) -> Polynomial:
    """
    sum c * S_w over (w, c) pairs, a repeat counted each time, in the
    space: the coefficients of each word are summed first, with one code
    read per distinct word, zero sums are dropped, and the codes of every
    size are folded together into a fresh map (_fold), which drops every
    sum that reaches 0.
    """
    items: dict[tuple[int, ...], list] = {}
    for w, c in pairs:
        item = items.get(w.word)
        if item is None:
            item = items[w.word] = [list(w.code()), 0, 0]
        item[1] += c
    need = max(map(len, items), default=1)
    if space.n < need:
        raise ValueError(f"space has {space.n} x variables, need {need}")
    terms: dict[int, int] = {}
    _fold([item for item in items.values() if item[1]], terms, space.num_vars)
    return _owned(space, terms)


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
    space = space or VariableSpace(w.n)
    return _combination([(w, 1)], space)


# -- Monk's rule: factored classes in the Schubert basis ------------------------


def _monk_step(out: dict, word: tuple[int, ...], k: int, c: int) -> None:
    """
    out += c * x_k S_w by Monk's rule (module docstring), for k <= len(word):
    w t_kl raises the length by one iff w(k) < w(l) and no position between
    them holds a value between them, and so does w t_jk iff w(j) < w(k)
    likewise.  The fixed point m + 1 blocks every l past it, so it is the
    one point padded to the m-letter word.  A hit on it keys the lengthened
    word, which ends in w(k); every other hit keys the first m letters, as a
    swap inside the word leaves no fixed point at its end.  Entries of out
    may reach 0.
    """
    m = len(word)
    u = [*word, m + 1]
    k -= 1
    a = u[k]
    hits = []
    bound = m + 2
    for p in range(k + 1, m + 1):
        if a < u[p] < bound:
            bound = u[p]
            hits.append((p, c))
    bound = 0
    for p in range(k - 1, -1, -1):
        if bound < u[p] < a:
            bound = u[p]
            hits.append((p, -c))
    for p, sign in hits:
        u[k], u[p] = u[p], a
        key = tuple(u) if p == m else tuple(u[:m])
        out[key] = out.get(key, 0) + sign
        u[p], u[k] = u[k], a


def _monk_expansion(e: list[int], pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """
    {shortest word with at least n = len(e) letters: nonzero coefficient} of
    x^e * prod (x_j + x_k) over pairs, 1 <= j, k <= n (cohomology.ordinary_shape),
    from S_u for the dominant u of code e: each pair takes E to x_j E + x_k E.
    u is from_code of e padded to the max of n and every i + e_i (1-based i),
    so it ends in no fixed point past n.  Raises ValueError unless e is weakly
    decreasing, as x^e = S_u needs.
    """
    if any(p < q for p, q in zip(e, e[1:])):
        raise ValueError(f"head exponents {e} are not weakly decreasing")
    size = max(len(e), *(i + p for i, p in enumerate(e, 1)))
    expansion = {from_code(e + [0] * (size - len(e))).word: 1}
    for j, k in pairs:
        out: dict[tuple[int, ...], int] = {}
        for w, c in expansion.items():
            _monk_step(out, w, j, c)
            _monk_step(out, w, k, c)
        expansion = {w: c for w, c in out.items() if c}
    return expansion


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
    Schubert polynomial built from reduced pipe dreams, each adding x^(its
    crosses per row) through the public Polynomial API; no recursion code.
    """
    space = space or VariableSpace(w.n)
    if space.n < w.n:
        raise ValueError(f"space has {space.n} x variables, need {w.n}")
    total = Polynomial.zero(space)
    for diagram in pipe_dreams(w):
        total = total + Polynomial.monomial(space, Counter(space.x(i) for i, _j in diagram))
    return total


# -- staircase span and basis expansion ---------------------------------------


def in_staircase_span(f: Polynomial, n: int) -> bool:
    """
    True iff every monomial of f has x_i exponent at most n - i for all i
    (with variables beyond x_n unused).  Raises ValueError for an n that is
    not an int >= 1, and if f involves any non-x variable, whatever else it
    holds.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"need an integer n >= 1, got n={n!r}")
    space = f.space
    for vid in space.equivariant_vids():
        if f.degree_in(vid):
            raise ValueError(f"non-x variable {space.name(vid)} present")
    return all(f.degree_in(space.x(i)) <= max(n - i, 0) for i in range(1, space.n + 1))


class SchubertExpansion(NamedTuple):
    """Finite integer combination of Schubert polynomials of S_n."""

    n: int
    coeffs: dict[Permutation, int]

    def support(self) -> set[Permutation]:
        return set(self.coeffs)

    def to_polynomial(self, space: VariableSpace | None = None) -> Polynomial:
        space = space or VariableSpace(self.n)
        return _combination(self.coeffs.items(), space)

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
    smallest key and stays in the span.  Each greedy code is folded
    with -coeff straight into the remainder (_fold), whose smallest key
    then picks the next code; from_code turns each code into its word
    once, when the result is built.  A step that does not raise the smallest
    key is a fault of the fold, not of f (which passed the span check),
    and raises RuntimeError instead of looping.
    """
    if type(n) is not int or not 1 <= n <= f.space.n:
        raise ValueError(f"need an integer 1 <= n <= {f.space.n} for this space, got n={n!r}")
    if not in_staircase_span(f, n):
        raise ValueError(f"polynomial is not in the staircase span for n={n}")
    drop = 8 * (f.space.num_vars - n)  # in the span only x1..x_n, the top n fields, are nonzero
    remainder = dict(f.terms)
    coeffs: dict[bytes, int] = {}
    prev, code = -1, b""
    while remainder:
        key = min(remainder)
        if key <= prev:
            raise RuntimeError(f"the greedy step at {from_code(code)} did not raise the smallest key")
        code = (key >> drop).to_bytes(n, "big")
        c = coeffs[code] = remainder[key]
        _fold([[list(code), -c, 0]], remainder, f.space.num_vars)
        prev = key
    return SchubertExpansion(n, {from_code(code): c for code, c in coeffs.items()})
