"""
The permutation families indexing the Schubert-sum side of the identities.

Orthogonal family: w_set_full_orthogonal(n) builds the base set by a
recursive adjacency rule; pairs (w(i), w(n+1-i)) are chosen adjacent in the
remaining letter set, larger letter in front.  For a composition mu, members
of w_set_orthogonal(mu) are concatenations of block words: block i uses the
letter interval (n - nu_{i+1}, n - nu_i] -- letters descend across blocks --
and standardizes to a member of the base set of size mu_i.

Symplectic family: the base set for size 2m is the image of S_m under a
doubling embedding; w_set_symplectic(mu) assembles blocks the same way and
requires every part even.

Both base sets are built once per size and kept, as tuples of immutable
permutations, since every block of every composition draws from them.

Standardization is order-preserving: the k-th smallest letter becomes k.

>>> [str(w) for w in w_set_full_orthogonal(3)]
['231', '312']
>>> str(standardize((1, 5, 4, 6), {1, 4, 5, 6}))
'1324'
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

from .composition import Composition, check_even_parts
from .permutation import Permutation, all_permutations


def _adjacency_words(letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """
    All words over the rising `letters` built by the outer-pair adjacency
    recursion, in word order: the first letter rises with t, then the middles
    (in word order by induction) precede a last letter fixed by t.
    """
    k = len(letters)
    if k == 0:
        return [()]
    if k == 1:
        return [letters]
    out = []
    for t in range(k - 1):
        smaller, larger = letters[t], letters[t + 1]
        rest = letters[:t] + letters[t + 2:]
        for middle in _adjacency_words(rest):
            out.append((larger,) + middle + (smaller,))
    return out


def w_set_full_orthogonal(n: int) -> tuple[Permutation, ...]:
    """
    The orthogonal base family in S_n, in word order.  Sizes follow
    (n-1)(n-3)(n-5)...: 1, 1, 2, 3, 8, 15, ...

    >>> [str(w) for w in w_set_full_orthogonal(4)]
    ['2431', '3412', '4213']
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return _full_orthogonal(n)


@functools.cache
def _full_orthogonal(n: int) -> tuple[Permutation, ...]:
    return tuple(map(Permutation, _adjacency_words(tuple(range(1, n + 1)))))


def block_word(w: Permutation, mu: Composition, i: int) -> tuple[int, ...]:
    """
    The contiguous subword of w over block i: positions nu_i + 1 .. nu_{i+1}.

    >>> block_word(Permutation((3, 7, 1, 5, 4, 6, 2)), Composition((2, 4, 1)), 2)
    (1, 5, 4, 6)
    """
    if w.n != mu.total:
        raise ValueError(f"permutation size {w.n} != composition total {mu.total}")
    if type(i) is not int or not 1 <= i <= mu.s:
        raise ValueError(f"block index {i!r} out of range")
    return w.word[mu.nu[i - 1]: mu.nu[i]]


def standardize(word: Sequence[int], letters: Iterable[int]) -> Permutation:
    """
    Order-preserving relabeling: the k-th smallest letter of `letters`
    becomes k.  The word must use each letter exactly once.
    """
    letters = sorted(letters)
    if sorted(word) != letters:
        raise ValueError(f"word {tuple(word)} does not use letters {letters}")
    rank = {v: k for k, v in enumerate(letters, start=1)}
    return Permutation(rank[v] for v in word)


def unstandardize(u: Permutation, letters: Iterable[int]) -> tuple[int, ...]:
    """Inverse relabeling: k goes to the k-th smallest letter of u.n distinct letters."""
    letters = sorted(letters)
    if len(set(letters)) != len(letters) or len(letters) != u.n:
        raise ValueError(f"letters {letters} are not {u.n} distinct letters")
    return tuple(letters[v - 1] for v in u.word)


class WSet(NamedTuple):
    """A block-assembled permutation family for one composition."""

    family: str  # "orthogonal" | "symplectic"
    mu: Composition
    members: tuple[Permutation, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "mu": self.mu.to_json(),
            "members": [w.to_json() for w in self.members],
        }


def _assemble(mu: Composition, base_words, family: str) -> WSet:
    """
    Cartesian product over blocks: block i draws its word from
    base_words(mu_i) and its letters from the interval (low, low + mu_i] with
    low = n - nu_{i+1}, so relabeling adds low to every letter.  The
    intervals are disjoint and cover 1..n, and each block word is a checked
    base word, so every assembled word is a permutation and is stored
    without the constructor's check.  Each block's list is in word order
    and its words have one length, so the product is in word order.
    """
    n = mu.total
    prefixes: list[tuple[int, ...]] = [()]
    for i, part in enumerate(mu.parts, start=1):
        low = n - mu.nu[i]
        blocks = [tuple(v + low for v in u.word) for u in base_words(part)]
        prefixes = [pre + b for pre in prefixes for b in blocks]
    return WSet(family, mu, tuple(map(Permutation._unchecked, prefixes)))


def w_set_orthogonal(mu: Composition) -> WSet:
    """
    >>> [str(w) for w in w_set_orthogonal(Composition((4, 2))).members]
    ['465321', '563421', '643521']
    """
    return _assemble(mu, w_set_full_orthogonal, "orthogonal")


def symplectic_embedding(u: Permutation) -> Permutation:
    """
    The doubling embedding of S_n into S_2n: u goes to the word
    (2u(1)-1, ..., 2u(n)-1, 2u(n), ..., 2u(1)) -- odd letters in the first
    half, their even partners mirrored in the second half.

    >>> str(symplectic_embedding(Permutation((2, 1))))
    '3124'
    """
    first = tuple(2 * v - 1 for v in u.word)
    second = tuple(2 * v for v in reversed(u.word))
    return Permutation(first + second)


def w_set_full_symplectic(two_n: int) -> tuple[Permutation, ...]:
    """
    The symplectic base family in S_{2n}, in word order: the image of the
    doubling embedding over all of S_n; n! members, each of length n(n-1).

    >>> [str(w) for w in w_set_full_symplectic(4)]
    ['1342', '3124']
    """
    if type(two_n) is not int or two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"size must be a positive even integer, got {two_n!r}")
    return _full_symplectic(two_n // 2)


@functools.cache
def _full_symplectic(half: int) -> tuple[Permutation, ...]:
    # the embedding keeps the word order of S_half: u(i) < u'(i) gives 2u(i) - 1 < 2u'(i) - 1
    return tuple(map(symplectic_embedding, all_permutations(half)))


def w_set_symplectic(mu: Composition) -> WSet:
    """
    Block assembly with symplectic base sets; every part must be even.
    Letter intervals descend across blocks exactly as in the orthogonal case.

    >>> [str(w) for w in w_set_symplectic(Composition((2, 4))).members]
    ['561342', '563124']
    """
    check_even_parts(mu, half_slots=False)
    return _assemble(mu, w_set_full_symplectic, "symplectic")
