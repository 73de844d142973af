"""
Correctness of one operation: exit status, verdict, the committed golden,
and a check that does not go through the polynomial code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import LOCALIZATION_MAX_N, SWEEP

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_goldens(workload: str) -> dict:
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def inversions(word: list[int]) -> int:
    """Length of a permutation in one-line notation."""
    return sum(1 for i, a in enumerate(word) for b in word[i + 1:] if a > b)


def check_op(workload: str, parts: list[int], status, output, golden: dict | None) -> list[str]:
    """
    Problems with one operation's result; empty when it is correct.

    status is the CLI exit code (sweep), 0 for a suite call that returned, or
    the text of the exception it raised.  output is the CLI's stdout (sweep)
    or the report's to_json_dict() (suites).
    """
    problems = []
    if status != 0:
        problems.append(f"status {status}")
    if golden is None:
        return problems + ["no golden output"]
    if workload == SWEEP:
        if output != golden["stdout"]:
            problems.append("output differs from golden")
        try:
            report = json.loads(output)
        except (TypeError, ValueError):
            return problems + ["output is not JSON"]
        lengths = {inversions(w) for w in golden["members"]}
        if lengths != {report.get("degree")}:
            problems.append(f"degree {report.get('degree')} is not the member length {sorted(lengths)}")
        if report.get("support") != len(golden["members"]):
            problems.append(f"support {report.get('support')} is not {len(golden['members'])} members")
    else:
        if output is None:
            return problems + ["no report"]
        report = output
        if report != golden["report"]:
            problems.append("report differs from golden")
        n = sum(parts)
        points = math.factorial(n) if n <= LOCALIZATION_MAX_N else 0
        if report.get("support") != points:
            problems.append(f"support {report.get('support')} is not {points} fixed points")
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')}")
    return problems
