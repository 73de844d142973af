"""
Compositions mu = (mu_1, ..., mu_s) of n and their block statistics.

Positions 1..n split into s contiguous blocks, block i covering
nu_i + 1 .. nu_{i+1} where nu_1 = 0 and nu_{i+1} = nu_i + mu_i.  The block
statistics defined here drive every product formula in the cohomology module:

    block_of(i)         the block containing position i
    right_mass(i)       combined size of all blocks strictly to the right
    first_half_flag(i)  1 iff position i sits in the first half of its block
                        (the middle of an odd block is not in the first half)
    half_weight()       sum of floor(mu_i / 2)
"""

from __future__ import annotations

from typing import Iterable


class Composition:
    """
    An immutable composition of n; compares, hashes and prints by `parts`.

    >>> Composition((2, 3))
    Composition(parts=(2, 3))
    """

    # Hand-written rather than a dataclass: importing dataclasses also loads
    # inspect, ast and dis, which no code here uses (tests/test_imports.py).
    __slots__ = ("parts", "nu", "blocks")  # blocks[i - 1] == block_of(i)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        if not parts or any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        nu = [0]
        for p in parts:
            nu.append(nu[-1] + p)
        # the only writers: __setattr__ refuses every assignment
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "nu", tuple(nu))
        object.__setattr__(self, "blocks", tuple(j for j, p in enumerate(parts, start=1) for _ in range(p)))

    def __setattr__(self, attr, value):
        raise AttributeError(f"Composition is immutable; cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"Composition is immutable; cannot delete {attr}")

    def __reduce__(self):
        return Composition, (self.parts,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Composition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Composition(parts={self.parts!r})"

    @property
    def s(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def total(self) -> int:
        return self.nu[-1]

    def block_of(self, i: int) -> int:
        """The block containing position i."""
        if type(i) is not int or not 1 <= i <= self.total:
            raise ValueError(f"position {i!r} out of range for {self}")
        return self.blocks[i - 1]

    def right_mass(self, i: int) -> int:
        """Total size of the blocks strictly to the right of position i's block."""
        return self.total - self.nu[self.block_of(i)]

    def first_half_flag(self, i: int) -> int:
        """1 iff position i lies in the first floor(mu_b / 2) slots of its block."""
        b = self.block_of(i)
        return 1 if (i - self.nu[b - 1]) <= self.parts[b - 1] // 2 else 0

    def half_weight(self) -> int:
        """Sum of floor(mu_i / 2) over all parts."""
        return sum(p // 2 for p in self.parts)

    def all_even(self) -> bool:
        return all(p % 2 == 0 for p in self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)


def parse_composition(text: str) -> Composition:
    """Parse "3,4" into Composition((3, 4))."""
    return Composition(int(part) for part in text.strip().split(","))


def enumerate_compositions(n: int, even_parts_only: bool = False) -> list[Composition]:
    """
    All compositions of n, first part largest first; 2^(n-1) of them, or
    2^(n/2 - 1) when restricted to even parts.

    >>> [str(c) for c in enumerate_compositions(3)]
    ['3', '2,1', '1,2', '1,1,1']
    >>> [str(c) for c in enumerate_compositions(4, even_parts_only=True)]
    ['4', '2,2']
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if even_parts_only and n % 2 != 0:
        raise ValueError(f"even-part compositions require even n, got {n}")
    step = 2 if even_parts_only else 1

    def rec(remaining: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(remaining, 0, -step):
            for rest in rec(remaining - first):
                out.append((first,) + rest)
        return out

    return [Composition(parts) for parts in rec(n)]
