"""
The schubfactor benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 42 --trace 0

A run makes round(seconds / pass length) passes over the workload's pool,
each in a fresh interpreter (perfbench/worker.py), one after another, and
checks every operation against its committed golden.  It prints every
metric by name and unit, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics, where metrics holds the
metrics BENCHMARK.json lists for the mode: end_to_end with --trace 0,
per_layer with --trace 1.  A traced run alternates untraced and traced
passes over the same operation order, so the tracing overhead is measured
against its own base.  Exit status: 0 when every operation is correct, 1
when any fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import check_op, load_goldens

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
# Interpreter starts that stop before the first operation, run before each
# pass so that setup_s is a median of samples spread over the whole run.
SETUP_PROBES_PER_PASS = 3
# Every worker must have ended this many seconds after the run started.
RUN_LIMIT_S = 170
# Candidate tail percentiles in tenths of a percent: 99.9, 99.8, ..., 0.1.
TAIL_PERCENTILES_X10 = tuple(range(999, 0, -1))


class BenchmarkError(Exception):
    pass


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float, int]:
    """
    (percentile, value, samples beyond it) for the highest candidate
    percentile that leaves at least `min_beyond` samples above its
    nearest-rank value.
    """
    data = sorted(samples)
    n = len(data)
    for p10 in TAIL_PERCENTILES_X10:
        rank = -(-p10 * n // 1000)  # ceil(p * n / 100), 1-based
        if n - rank >= min_beyond:
            return p10 / 10, data[rank - 1], n - rank
    raise ValueError(f"need more than {min_beyond} samples for a tail, got {n}")


def run_worker(deadline: float, workload: str, seed: int, pass_index: int, *flags: str) -> dict:
    """Run one worker to completion, killing it at `deadline` (time.monotonic)."""
    cmd = [
        sys.executable, str(PERFBENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass", str(pass_index), *flags,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(0.1, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(cmd[1:])} still running {RUN_LIMIT_S} s into the run") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_op"] - spawned
    return result


def check_passes(workload: str, passes: list[dict]) -> tuple[int, int]:
    """Check every operation; print the first problems; return (attempted, failed)."""
    goldens = load_goldens(workload)
    attempted = failed = 0
    for p in passes:
        for r in p["records"]:
            attempted += 1
            key = workloads.op_key(r["family"], r["parts"])
            problems = check_op(workload, r["parts"], r["status"], r["output"], goldens.get(key))
            if problems:
                failed += 1
                if failed <= 10:
                    print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    """
    Throughput and median latency use each operation's best latency over the
    passes: on shared hosts the CPU can alternate between a fast and a much
    slower phase lasting seconds, and the best of the passes filters those
    phases out.  The tail keeps every sample, so slow phases show there.
    """
    latencies = [r["ms"] for p in passes for r in p["records"]]
    best: dict[str, float] = {}
    for p in passes:
        for r in p["records"]:
            key = workloads.op_key(r["family"], r["parts"])
            best[key] = min(r["ms"], best.get(key, r["ms"]))
    n = len(latencies)
    pct, tail, beyond = tail_percentile(latencies)
    return {
        "ops_per_s": (
            len(best) / (sum(best.values()) / 1e3), "ops/s",
            f"{len(best)} operations at their best of {len(passes)} passes",
        ),
        "op_p50_ms": (
            statistics.median(best.values()), "ms",
            f"median of {len(best)} operations' best of {len(passes)} passes",
        ),
        "op_tail_ms": (tail, "ms", f"p{pct:g} of {n} samples, {beyond} beyond it"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB", "largest ru_maxrss of the pass processes"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} interpreter starts"),
        "ops_failed": (failed / attempted, "fraction", f"{failed} of {attempted} operations"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Layer metrics per traced pass (per operation for the *.self_ms medians)."""
    t = len(traced)

    def span(name: str, field: str) -> float:
        return sum(p["trace"]["spans"].get(name, {}).get(field, 0) for p in traced) / t

    def count(name: str) -> float:
        return sum(p["trace"]["counts"].get(name, 0) for p in traced) / t

    def op_self_ms(layer: str) -> float:
        per_op = [s for p in traced for s in p["trace"]["layer_op_self_s"].get(layer, [0.0])]
        return statistics.median(per_op) * 1e3

    untraced_wall = sum(p["loop_s"] for p in untraced) / len(untraced)
    traced_wall = sum(p["loop_s"] for p in traced) / t
    self_total = sum(s["self_s"] for p in traced for s in p["trace"]["spans"].values())
    op_total = sum(r["ms"] for p in traced for r in p["records"]) / 1e3

    metrics = {
        "cli.self_ms": (op_self_ms("cli"), "ms", "median per operation"),
        "verifier.self_ms": (op_self_ms("verifier"), "ms", "median per operation"),
        "wset.member_set_s": (span("wset.member_set", "inclusive_s"), "s", "per pass"),
        "wset.members": (count("wset.members"), "count", "per pass"),
    }
    for name in ("product_side", "chern", "fixed_point", "weight_product", "block_torus",
                 "cross_factor", "equivariant_class", "specialize", "base_class"):
        metrics[f"cohomology.{name}_s"] = (span(f"cohomology.{name}", "inclusive_s"), "s", "per pass")
    metrics["cohomology.fixed_points"] = (span("cohomology.fixed_point", "calls"), "count", "per pass")
    for name in ("sum", "span", "expand"):
        metrics[f"schubert.{name}_s"] = (span(f"schubert.{name}", "inclusive_s"), "s", "per pass")
    metrics["schubert.poly_calls"] = (span("schubert.poly", "calls"), "count", "per pass")
    for name in ("expand_steps", "expand_input_terms"):
        metrics[f"schubert.{name}"] = (count(f"schubert.{name}"), "count", "per pass")
    metrics["schubert.expand_scan_bound"] = (
        count("schubert.expand_scan_bound"), "count", "per pass, computed: sum of steps x input terms"
    )
    metrics.update({
        "polynomial.mul_calls": (span("polynomial.mul", "calls"), "count", "per pass"),
        "polynomial.mul_self_s": (span("polynomial.mul", "self_s"), "s", "per pass"),
        "polynomial.mul_term_pairs": (count("polynomial.mul_term_pairs"), "count", "per pass, sum of |a|*|b|"),
        "polynomial.substitute_calls": (span("polynomial.substitute", "calls"), "count", "per pass"),
        "polynomial.substitute_self_s": (span("polynomial.substitute", "self_s"), "s", "per pass"),
        "polynomial.add_self_s": (span("polynomial.add", "self_s"), "s", "per pass"),
        "polynomial.max_terms": (
            max(p["trace"]["counts"].get("polynomial.max_terms", 0) for p in traced), "count",
            "largest polynomial operand or result",
        ),
        "trace.untraced_wall_s": (untraced_wall, "s", "operation loop per untraced pass"),
        "trace.traced_wall_s": (traced_wall, "s", "operation loop per traced pass"),
        "trace.overhead": (traced_wall / untraced_wall - 1, "ratio", "traced wall / untraced wall - 1"),
        "trace.coverage": (self_total / op_total, "fraction", "sum of span self times / operation wall"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="schubfactor benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "schubfactor" / "__init__.py").is_file():
            raise BenchmarkError(f"program source not found under {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        passes = workloads.passes_for(args.workload, args.seconds)
        if args.trace:
            pairs = max(1, passes // 2)
            passes = 2 * pairs
        print(
            f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
            f"passes {passes}  operations per pass {len(workloads.pool(args.workload))}"
        )
        if args.trace:
            untraced, traced = [], []
            for k in range(pairs):
                untraced.append(run_worker(deadline, args.workload, args.seed, k))
                traced.append(run_worker(deadline, args.workload, args.seed, k, "--trace"))
            attempted, failed = check_passes(args.workload, untraced + traced)
            metrics = per_layer(untraced, traced)
            reported = spec["per_layer"]
        else:
            probes, runs = [], []
            for k in range(passes):
                probes += [run_worker(deadline, args.workload, args.seed, k, "--setup-only")
                           for _ in range(SETUP_PROBES_PER_PASS)]
                runs.append(run_worker(deadline, args.workload, args.seed, k))
            attempted, failed = check_passes(args.workload, runs)
            setups = [r["setup_s"] for r in probes + runs]
            metrics = end_to_end(runs, setups, attempted, failed)
            reported = spec["end_to_end"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<9} {note}")
    out = {}
    for m in reported:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
