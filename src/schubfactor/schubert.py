"""
Schubert polynomials and expansion of polynomials in the Schubert basis.

Two independent constructions are provided:

  * schubert_poly        top-down divided-difference recursion from the
                         staircase monomial x1^{n-1} x2^{n-2} ... x_{n-1}
                         of the longest element w0
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
variables takes them shifted up past its remaining fields.  A map comes
from one walk down the divided-difference tree (_schubert_maps) that pops
back to the prefix shared with the previous path.  The basis expansion
feeds its greedy words to one walk.  A sum (schubert_poly, schubert_sum,
to_polynomial) meets in the middle, one size at a time, since divided
differences are linear (Macdonald, Notes on Schubert Polynomials, 1991):

  * split rule  each path from w0 splits into a head and a suffix, its last
                d steps, at the deepest d where the paths have no more
                distinct suffixes than distinct heads (_split_depth)
  * top         the walk, over the sorted heads, yields each distinct
                head's map once; it is added, times the member's
                coefficient, into the group of the member's suffix
  * bottom      the suffixes form a trie keyed from the outermost step,
                folded depth first: a node's map is its group plus d_a of
                each child a, so each trie node runs one divided difference
                on an already summed map, and the root's share goes
                straight into the sum's terms

Nothing is kept from one call to the next.  The oracle shares none of this
code.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .permutation import Permutation, from_code
from .polynomial import Polynomial, VariableSpace, divided_difference_terms, packed_key


def _path(word: tuple[int, ...]) -> tuple[int, ...]:
    """
    The indices (i_1, ..., i_k) with S_word = d_{i_k} ... d_{i_1} S_{w0}:
    S_w = d_i S_{w s_i} at the smallest ascent i of w, climbed up to w0 and
    read back from the top.  A node's path is a prefix of the path of every
    word below it.  The climb is a bubble sort into decreasing order: the
    entries before position j stay decreasing, so a swap at j + 1 leaves the
    next smallest ascent at j or later.
    """
    w, path, j = list(word), [], 0
    while j < len(w) - 1:
        if w[j] < w[j + 1]:
            w[j], w[j + 1] = w[j + 1], w[j]
            path.append(j + 1)
            j = max(j - 1, 0)
        else:
            j += 1
    return tuple(reversed(path))


def _shared(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The length of the longest common prefix of a and b."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def _schubert_maps(steps: Iterable[tuple]) -> Iterator[tuple[object, dict[int, int]]]:
    """
    (label, x-only key map of d_{i_k} ... d_{i_1} S_{w0}) for each
    (n, path, label) step with path (i_1, ..., i_k), in the caller's order,
    in one walk down the divided-difference tree from the staircase
    monomial of each w0; for path = _path(word) the map is S_word.  The
    walk keeps one map per level of the current path, pops back to the
    prefix shared with the previous path and extends from there, so steps
    sorted by size and then by path compute each distinct node once.  A
    step is pulled only after the caller has read the previous map.  A
    yielded map may be the parent of later ones, so the caller reads it and
    never changes it.
    """
    stack: list[dict[int, int]] = []  # stack[d]: the map d steps below w0 on the current path
    prev_n, prev = 0, ()
    for n, path, label in steps:
        if n != prev_n:
            stack = [{packed_key(range(n - 1, -1, -1)): 1}]
        else:
            del stack[_shared(path, prev) + 1 :]
        for i in path[len(stack) - 1 :]:
            stack.append(divided_difference_terms(stack[-1], i, n))
        prev_n, prev = n, path
        yield label, stack[-1]


def _add_terms(terms: dict, x_terms: Mapping, c: int, shift: int) -> None:
    """terms += c * x_terms, each key shifted up by `shift` bits; sums that reach 0 are dropped."""
    for key, c2 in x_terms.items():
        key <<= shift
        nc = terms.get(key, 0) + c * c2
        if nc:
            terms[key] = nc
        elif key in terms:
            del terms[key]


def _split_depth(paths: Collection[tuple[int, ...]]) -> int:
    """
    The deepest d at which the paths have no more distinct suffixes (their
    last d steps) than distinct heads (the rest); a path of at most d steps
    is all suffix, under the empty head.  d = 0 always qualifies, and one
    path splits at its own length.  A deeper suffix determines a shallower
    one and a shorter head is read off a longer one, so suffixes only gain
    and heads only lose as d grows, and a binary search finds the d.
    """
    lo, hi = 0, max(map(len, paths), default=0)  # lo qualifies, nothing above hi does
    while lo < hi:
        d = (lo + hi + 1) // 2
        if len({p[-d:] for p in paths}) <= len({p[:-d] for p in paths}):
            lo = d
        else:
            hi = d - 1
    return lo


def _fold_size(paths: Mapping[tuple[int, ...], int], n: int, terms: dict, width: int) -> None:
    """
    terms += sum c * S_w over the {_path(w): c} of the words w of one size
    n, into a term map whose keys have `width` fields: the walk over the
    heads fills one group per suffix, and the suffix trie is folded depth
    first into terms (see the module docstring).  A group is dropped once
    folded.
    """
    shift = 8 * (width - n)  # an n-field key moves up past the other fields
    d = _split_depth(paths)
    heads: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}  # head -> [(tail, c)]
    for path, c in paths.items():
        # the tail is the suffix read from its outermost step, the key of its trie node
        heads.setdefault(path[: max(len(path) - d, 0)], []).append((path[::-1][:d], c))
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for head, x_terms in _schubert_maps([(n, head, head) for head in sorted(heads)]):
        for tail, c in heads[head]:
            if tail:
                _add_terms(groups.setdefault(tail, {}), x_terms, c, 0)
            else:
                _add_terms(terms, x_terms, c, shift)
    stack: list[tuple[int, dict[int, int]]] = []  # (step, summed map) per trie node of the current tail
    prev: tuple[int, ...] = ()
    for tail in [*sorted(groups), ()]:  # the closing () folds what is left into the root
        shared = _shared(tail, prev)
        while len(stack) > shared:
            i, x_terms = stack.pop()
            if stack:
                divided_difference_terms(x_terms, i, n, stack[-1][1])
            else:  # a root child: its map, shifted into the space's fields, is divided straight into terms
                x_terms = {key << shift: c for key, c in x_terms.items()}
                divided_difference_terms(x_terms, i, width, terms)
        for i in tail[shared:-1]:
            stack.append((i, {}))
        if tail:
            stack.append((tail[-1], groups.pop(tail)))
        prev = tail


def _combination(pairs: Iterable, space: VariableSpace) -> Polynomial:
    """
    sum c * S_w over (w, c) pairs, a repeat counted each time: the
    coefficients of each word are summed first, zero sums are dropped, and
    each size is folded on its own (_fold_size).
    """
    coeffs: dict[tuple[int, ...], int] = {}
    for w, c in pairs:
        coeffs[w.word] = coeffs.get(w.word, 0) + c
    need = max(map(len, coeffs), default=1)
    if space.n < need:
        raise ValueError(f"space has {space.n} x variables, need {need}")
    sizes: dict[int, dict[tuple[int, ...], int]] = {}  # size -> {_path(word): c}
    for word, c in coeffs.items():
        if c:
            sizes.setdefault(len(word), {})[_path(word)] = c
    terms: dict[int, int] = {}
    for n in sorted(sizes):
        _fold_size(sizes[n], n, terms, space.num_vars)
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
    smallest key and stays in the span.  The greedy words feed one walk,
    each chosen from the remainder after the previous subtraction.
    """
    if type(n) is not int or not 1 <= n <= f.space.n:
        raise ValueError(f"need an integer 1 <= n <= {f.space.n} for this space, got n={n!r}")
    if not in_staircase_span(f, n):
        raise ValueError(f"polynomial is not in the staircase span for n={n}")
    # in the span every field beyond x_n is 0, so shift them out and work on x1..x_n alone
    drop = 8 * (f.space.num_vars - n)
    remainder = {key >> drop: c for key, c in f.terms.items()}
    coeffs: dict[tuple[int, ...], int] = {}

    def greedy_steps():
        while remainder:
            key = min(remainder)
            word = from_code(key.to_bytes(n, "big")).word
            coeffs[word] = remainder[key]
            yield n, _path(word), word

    for word, x_terms in _schubert_maps(greedy_steps()):
        _add_terms(remainder, x_terms, -coeffs[word], 0)
    return SchubertExpansion(n, {Permutation(word): c for word, c in coeffs.items()})
