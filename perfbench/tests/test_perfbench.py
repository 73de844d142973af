"""
Tests of the benchmark's own logic.  Run with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from checks import check_op, load_goldens  # noqa: E402
from run import TAIL_PERCENTILES_X10, tail_percentile  # noqa: E402
from spans import Tracer, outermost, self_times  # noqa: E402


# -- percentile rule ---------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
    assert tail_percentile(range(1, 1057))[0] == 99.0
    assert tail_percentile(range(1, 1321)) == (99.2, 1310, 10)
    assert tail_percentile(range(1, 10001)) == (99.9, 9990, 10)
    assert tail_percentile(range(20)) == (50.0, 9, 10)


def test_tail_no_higher_candidate_qualifies():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(11, 3000)
        pct, value, beyond = tail_percentile(rng.random() for _ in range(n))
        assert beyond >= 10
        higher = [p for p in TAIL_PERCENTILES_X10 if p > pct * 10]
        assert all(n - -(-p * n // 1000) < 10 for p in higher)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_children_at_every_depth():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert list(self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0]


def test_outermost_skips_spans_nested_in_their_own_name():
    # f > g > f : the inner f is already counted in the outer one
    assert list(outermost([-1, 0, 1], [0, 1, 0])) == [1, 1, 0]


def test_tracer_records_nested_spans_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)
    original_inner = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "outer", "layer_a.outer")
    tracer.wrap(mod, "inner", "layer_b.inner", lambda counts, args, result: counts.__setitem__("n", counts["n"] + 1))
    tracer.current_op = 0
    assert mod.outer(1) == 4
    tracer.remove()
    assert mod.inner is original_inner
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.summary(op_count=1)
    spans = summary["spans"]
    assert spans["layer_b.inner"]["calls"] == 2
    assert summary["counts"] == {"n": 2}
    outer_total = tracer.end[0] - tracer.start[0]
    inner_total = sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert spans["layer_a.outer"]["self_s"] == pytest.approx(outer_total - inner_total)
    assert summary["layer_op_self_s"]["layer_a"][0] + summary["layer_op_self_s"]["layer_b"][0] == pytest.approx(outer_total)


# -- golden checker -------------------------------------------------------------------


def _suite_case():
    goldens = load_goldens(workloads.LOCALIZATION)
    key = workloads.op_key("orthogonal", (2, 1, 2))
    return json.loads(json.dumps(goldens[key]["report"])), goldens[key]


def test_suite_golden_accepts_matching_report():
    report, golden = _suite_case()
    assert check_op(workloads.LOCALIZATION, [2, 1, 2], 0, report, golden) == []


def test_suite_golden_flags_corrupted_report_and_fail_verdict():
    report, golden = _suite_case()
    report["degree"] += 1
    assert "report differs from golden" in check_op(workloads.LOCALIZATION, [2, 1, 2], 0, report, golden)
    report, golden = _suite_case()
    report["verdict"] = "fail"
    problems = check_op(workloads.LOCALIZATION, [2, 1, 2], 0, report, golden)
    assert "verdict fail" in problems


def test_suite_support_checked_against_factorial_not_golden():
    report, golden = _suite_case()
    report["support"] = golden["report"]["support"] = 119
    problems = check_op(workloads.LOCALIZATION, [2, 1, 2], 0, report, golden)
    assert problems == ["support 119 is not 120 fixed points"]


def test_sweep_golden_flags_corrupted_output_and_fail_verdict():
    goldens = load_goldens(workloads.SWEEP)
    golden = goldens[workloads.op_key("orthogonal", (3, 3, 3))]
    assert check_op(workloads.SWEEP, [3, 3, 3], 0, golden["stdout"], golden) == []
    corrupted = golden["stdout"].replace('"degree": ', '"degree": 1')
    problems = check_op(workloads.SWEEP, [3, 3, 3], 0, corrupted, golden)
    assert "output differs from golden" in problems
    assert any(p.startswith("degree") for p in problems)
    failing = golden["stdout"].replace('"pass"', '"fail"')
    problems = check_op(workloads.SWEEP, [3, 3, 3], 1, failing, golden)
    assert {"status 1", "output differs from golden", "verdict fail"} <= set(problems)


def test_raised_operation_fails():
    _, golden = _suite_case()
    assert check_op(workloads.LOCALIZATION, [2, 1, 2], "raised ValueError()", None, golden) == [
        "status raised ValueError()", "no report"
    ]


# -- workload generation ----------------------------------------------------------------


def test_pools_have_the_documented_sizes():
    assert len(workloads.pool(workloads.SWEEP)) == 256 + 8
    assert len(workloads.pool(workloads.LOCALIZATION)) == 16 + 2
    assert len(workloads.pool(workloads.BLOCK_TORUS)) == 32 + 4


def test_seed_fixes_the_order():
    a = workloads.op_order(workloads.SWEEP, 3, 0)
    assert a == workloads.op_order(workloads.SWEEP, 3, 0)
    assert a != workloads.op_order(workloads.SWEEP, 4, 0)
    assert sorted(a) == sorted(workloads.pool(workloads.SWEEP))


def test_every_pool_operation_has_a_golden():
    for w in workloads.WORKLOADS:
        assert set(load_goldens(w)) == {workloads.op_key(f, p) for f, p in workloads.pool(w)}
