"""
One pass over a workload's pool in a fresh interpreter.

Every pass starts with the program's Schubert memo empty, as every
`schubfactor` invocation does.  The worker imports the program from the
checkout's src/, runs the operations in the seeded order, and prints one JSON
line: when the first operation started (time.monotonic, which the parent's
clock shares), the loop's wall time, peak RSS, every operation's latency,
status and output, and with --trace the span summary.  Checking is left to
the parent, so a pass contains only program work.

    python3 perfbench/worker.py --workload sweep --seed 1 --pass 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer
from workloads import LOCALIZATION_MAX_N, SWEEP

ROOT = Path(__file__).resolve().parents[1]
SPAN_DIR = Path(__file__).resolve().parent / "out"


def import_program():
    """Import schubfactor from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import schubfactor

    if Path(schubfactor.__file__).resolve().parent != src / "schubfactor":
        raise SystemExit(f"schubfactor was imported from {schubfactor.__file__}, not {src}")
    return schubfactor


def prepare(workload: str, ops) -> list:
    """Program inputs: a CLI argv for sweep, (Composition, family) for the suites."""
    from schubfactor.composition import Composition

    if workload == SWEEP:
        return [
            ["verify", "--mu", ",".join(map(str, parts)), "--family", family, "--format", "json"]
            for family, parts in ops
        ]
    return [(Composition(parts), family) for family, parts in ops]


def op_runner(workload: str):
    """A function running one prepared operation, returning (ms, status, output)."""
    from schubfactor import cli, verifier

    clock = time.perf_counter
    if workload == SWEEP:

        def run(argv):
            buf = io.StringIO()
            start = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    status = cli.main(argv)
            except Exception as exc:  # a failed operation is recorded and the pass goes on
                status = f"raised {exc!r}"
            return (clock() - start) * 1e3, status, buf.getvalue()

    else:

        def run(inp):
            mu, family = inp
            start = clock()
            try:
                report = verifier.verify_equivariant_suite(
                    mu, family, localization_max_n=LOCALIZATION_MAX_N
                )
            except Exception as exc:  # a failed operation is recorded and the pass goes on
                return (clock() - start) * 1e3, f"raised {exc!r}", None
            ms = (clock() - start) * 1e3
            return ms, 0, report.to_json_dict()

    return run


# -- counters kept at span boundaries ------------------------------------------


def _members(counts, args, result):
    counts["wset.members"] += len(result.members)


def _expansion(counts, args, result):
    steps, terms = len(result.coeffs), len(args[0].terms)  # one greedy step per basis element
    counts["schubert.expand_steps"] += steps
    counts["schubert.expand_input_terms"] += terms
    counts["schubert.expand_scan_bound"] += steps * terms


def _terms(counts, args, result):
    size = len(getattr(result, "terms", ()))
    if size > counts["polynomial.max_terms"]:
        counts["polynomial.max_terms"] = size


def _product(counts, args, result):
    a, b = args
    counts["polynomial.mul_term_pairs"] += len(a.terms) * len(getattr(b, "terms", (1,)))
    _terms(counts, args, result)


def install_spans(tracer: Tracer) -> None:
    """
    Wrap each layer's entry points.  verifier imports the Schubert and wset
    functions by name, so those are wrapped where verifier looks them up;
    Polynomial methods are wrapped on the class, so calls from every module
    are recorded.
    """
    from schubfactor import cli, cohomology, verifier
    from schubfactor.polynomial import Polynomial

    tracer.wrap(cli, "main", "cli")
    for fn in ("verify_identity", "verify_identity_for_members", "verify_equivariant_suite"):
        tracer.wrap(verifier, fn, "verifier")
    for fn in ("w_set_orthogonal", "w_set_symplectic"):
        tracer.wrap(verifier, fn, "wset.member_set", _members)
    cohomology_spans = {
        "product_side": ("ordinary_class_orthogonal", "ordinary_class_symplectic"),
        "chern": ("cross_block_chern_class",),
        "fixed_point": ("restrict_to_fixed_point",),
        "weight_product": ("fixed_point_weight_product",),
        "block_torus": ("restrict_to_block_torus",),
        "cross_factor": ("cross_block_factor",),
        "equivariant_class": ("equivariant_class_orthogonal", "equivariant_class_symplectic"),
        "specialize": ("zero_equivariant_vars",),
        "base_class": (
            "base_class_orthogonal", "base_class_symplectic", "half_block_factor", "block_pair_factor"
        ),
    }
    for span, fns in cohomology_spans.items():
        for fn in fns:
            tracer.wrap(cohomology, fn, f"cohomology.{span}")
    tracer.wrap(verifier, "schubert_sum", "schubert.sum")
    tracer.wrap(verifier, "schubert_poly", "schubert.poly")
    tracer.wrap(verifier, "in_staircase_span", "schubert.span")
    tracer.wrap(verifier, "expand_in_schubert_basis", "schubert.expand", _expansion)
    for attr in ("__mul__", "__rmul__"):
        tracer.wrap(Polynomial, attr, "polynomial.mul", _product)
    for attr in ("__add__", "__radd__"):
        tracer.wrap(Polynomial, attr, "polynomial.add", _terms)
    tracer.wrap(Polynomial, "substitute", "polynomial.substitute", _terms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans around every layer")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first operation")
    args = parser.parse_args(argv)

    import_program()
    ops = workloads.op_order(args.workload, args.seed, args.pass_index)
    inputs = prepare(args.workload, ops)
    run = op_runner(args.workload)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_spans(tracer)
    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    results = []
    loop_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer:
            tracer.current_op = i
        results.append(run(inp))
    loop_s = time.perf_counter() - loop_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = None
    if tracer:
        tracer.remove()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"{args.workload}-pass{args.pass_index}.spans")
        summary = tracer.summary(len(inputs))
    records = [
        {"family": family, "parts": list(parts), "ms": ms, "status": status, "output": output}
        for (family, parts), (ms, status, output) in zip(ops, results)
    ]
    print(json.dumps({
        "first_op": first_op, "loop_s": loop_s, "rss_kb": rss_kb, "records": records, "trace": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
