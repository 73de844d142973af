"""
The benchmark's workloads: operation pools, their seeded order, and the
number of passes a run makes over its pool.

An operation is one composition in one family.  Pools are plain tuples, so
the parent process never imports the program; the worker turns them into
program inputs.
"""

from __future__ import annotations

import random

SWEEP = "sweep"
LOCALIZATION = "localization"
BLOCK_TORUS = "block-torus"
# BENCHMARK.json lists sweep and localization; block-torus, which covers the
# general (affine and zero image) substitute path at n = 6, runs when named.
WORKLOADS = (SWEEP, LOCALIZATION, BLOCK_TORUS)

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"

# Suite operations localize at every fixed point only up to this ambient size,
# so `localization` (n <= 5) localizes and `block-torus` (n = 6) does not.
LOCALIZATION_MAX_N = 5

# Seconds one pass over each pool took on 2 shared cores with Python 3.11.7
# at the commit that defined the benchmark (passes varied by up to 30 %).
# A run makes round(seconds / PASS_SECONDS) passes, so every run of a
# workload does the same work on every commit and the tail percentile always
# sees the same sample count.
PASS_SECONDS = {SWEEP: 6.0, LOCALIZATION: 6.0, BLOCK_TORUS: 12.0}


def compositions(n: int, even_parts_only: bool = False) -> list[tuple[int, ...]]:
    """Every composition of n (only even parts if asked), largest first part first."""
    if n == 0:
        return [()]
    step = 2 if even_parts_only else 1
    return [
        (first,) + rest
        for first in range(n - n % step, 0, -step)
        for rest in compositions(n - first, even_parts_only)
    ]


def pool(workload: str) -> list[tuple[str, tuple[int, ...]]]:
    """All (family, parts) operations of a workload, in a fixed order."""
    orthogonal_n, symplectic_n = {SWEEP: (9, 8), LOCALIZATION: (5, 4), BLOCK_TORUS: (6, 6)}[workload]
    return [(ORTHOGONAL, mu) for mu in compositions(orthogonal_n)] + [
        (SYMPLECTIC, mu) for mu in compositions(symplectic_n, even_parts_only=True)
    ]


def op_order(workload: str, seed: int, pass_index: int) -> list[tuple[str, tuple[int, ...]]]:
    """The pool in the order pass `pass_index` of a run with `seed` runs it."""
    ops = pool(workload)
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(ops)
    return ops


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def op_key(family: str, parts: tuple[int, ...]) -> str:
    return f"{family} {','.join(map(str, parts))}"
