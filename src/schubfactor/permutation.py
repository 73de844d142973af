"""
Permutations of {1, ..., n} in one-line notation.

The word (w(1), ..., w(n)) is the canonical representation everywhere in this
package.  Text form is a digit string for n <= 9 ("2431") and comma-separated
otherwise ("2,4,3,1").  Permutations of different sizes are never equal; any
embedding of S_n into a larger symmetric group is done explicitly by the
caller.
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator, Sequence


class Permutation:
    """
    An immutable permutation of {1..n} in one-line notation.

    >>> w = Permutation((2, 3, 1))
    >>> w.length, w.code()
    (2, (1, 1, 0))
    >>> str(w.inverse())
    '312'
    >>> str(w * w.inverse())
    '123'
    """

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError("empty permutation word")
        if sorted(word) != list(range(1, n + 1)) or set(map(type, word)) != {int}:
            raise ValueError(f"not a permutation of 1..{n}: {word}")
        self.word = word

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def length(self) -> int:
        """Number of inversion pairs i < j with w(i) > w(j)."""
        return sum(self.code())

    def __call__(self, i: int) -> int:
        """Value w(i), 1-based; ValueError unless i is an int in 1..n."""
        if type(i) is not int or not 1 <= i <= len(self.word):
            raise ValueError(f"position {i!r} out of range for a permutation of 1..{len(self.word)}")
        return self.word[i - 1]

    def code(self) -> tuple[int, ...]:
        """
        Lehmer code: c_i = #{j > i : w(j) < w(i)}.

        Satisfies sum(code) == length and c_i <= n - i.

        >>> Permutation((1, 3, 4, 2)).code()
        (0, 1, 1, 0)
        """
        w = self.word
        n = len(w)
        return tuple(
            sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
        )

    def inverse(self) -> "Permutation":
        w = self.word
        inv = [0] * len(w)
        for i, v in enumerate(w):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def times_s(self, i: int) -> "Permutation":
        """
        Right multiplication by the adjacent transposition s_i: swaps the
        entries in positions i, i+1.  Changes length by exactly +-1.

        >>> str(Permutation((3, 2, 1)).times_s(1))
        '231'
        """
        w = self.word
        if type(i) is not int or not 1 <= i <= len(w) - 1:
            raise ValueError(f"index {i!r} out of range for S_{len(w)}")
        lst = list(w)
        lst[i - 1], lst[i] = lst[i], lst[i - 1]
        return Permutation(lst)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (u * v)(i) = u(v(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: S_{self.n} vs S_{other.n}")
        return Permutation(self.word[v - 1] for v in other.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __lt__(self, other: "Permutation") -> bool:
        return self.word < other.word

    def __repr__(self) -> str:
        return f"Permutation({self.word})"

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    def to_json(self) -> list[int]:
        return list(self.word)


def identity(n: int) -> Permutation:
    """
    >>> str(identity(4))
    '1234'
    """
    return Permutation(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """
    The order-reversing word (n, n-1, ..., 1), the unique element of maximal
    length n(n-1)/2.

    >>> str(longest_element(4))
    '4321'
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(range(n, 0, -1))


def from_code(code: Sequence[int]) -> Permutation:
    """
    Inverse of the Lehmer code: the unique w with w.code() == code.
    Requires 0 <= code[i] <= n - 1 - i.

    >>> str(from_code((0, 1, 1, 0)))
    '1342'
    """
    n = len(code)
    available = list(range(1, n + 1))
    word = []
    for i, c in enumerate(code):
        if type(c) is not int or not 0 <= c <= n - 1 - i:
            raise ValueError(f"entry {c!r} at position {i + 1} is not a valid code")
        word.append(available.pop(c))
    return Permutation(word)


def all_permutations(n: int) -> Iterator[Permutation]:
    """
    All of S_n in lexicographic order of one-line words.  The words of
    itertools.permutations are already permutations of 1..n, so each is
    stored without the constructor's check; n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("empty permutation word")
    new = Permutation.__new__
    for word in _itertools_permutations(range(1, n + 1)):
        w = new(Permutation)
        w.word = word
        yield w


def parse_permutation(text: str) -> Permutation:
    """
    Parse "2431" (digits, n <= 9) or "2,4,3,1".

    >>> parse_permutation("2,4,3,1") == parse_permutation("2431")
    True
    """
    text = text.strip()
    if "," in text:
        return Permutation(int(part) for part in text.split(","))
    if not text.isdigit():
        raise ValueError(f"cannot parse permutation from {text!r}")
    return Permutation(int(ch) for ch in text)
