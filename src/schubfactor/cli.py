"""
Command-line front end.

Subcommands:

    wset        list a member family         (--mu, --family, [--dot])
    schubert    one Schubert polynomial      (--n, --perm)
    formula     factored ordinary class      (--mu, --family, [--expand])
    equivariant factored equivariant class   (--mu, --family, [--expand])
    expand      Schubert expansion of the ordinary class (--mu, --family)
    verify      check one identity           (--mu, --family)
    sweep       check all compositions of n  (--n, --family)

Output goes to stdout (--format text|json), diagnostics to stderr.
formula and equivariant print the factored class as text unless --expand
is given; their JSON is always the expanded class, --expand or not, so its
cost is the expansion's (ROADMAP's "An exact cost guard").  JSON output
is byte-identical across runs and to json.dumps(indent=2), written in
batches of encoder chunks; pass --timings to verify/sweep to include real
elapsed milliseconds instead of null.  Exit status: 0 on success/pass, 1
on verification failure, 2 on usage errors, 3 on an internal error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Sequence

from . import cohomology, verifier
from .composition import Composition, check_even_parts, parse_composition
from .permutation import Permutation, parse_permutation
from .schubert import SchubertExpansion, _monk_expansion, schubert_poly
from .wset import WSet

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class _UsageError(Exception):
    pass


def _check_size(args, size: int) -> None:
    if size > args.max_n:
        raise _UsageError(f"ambient size {size} exceeds guard --max-n {args.max_n}")


def _check_n(args) -> None:
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    _check_size(args, args.n)


def _parse_mu(args) -> Composition:
    try:
        mu = parse_composition(args.mu)
        _check_size(args, mu.total)
        check_even_parts(mu, not verifier.needs_even_parts(args.family))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return mu


def _emit_json(obj) -> None:
    """
    Print json.dumps(obj, indent=2), byte for byte, in joined batches of its
    chunks: json.dumps holds the list of every chunk and their join at once.
    """
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 65536)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _wset_dot(wset: WSet) -> str:
    lines = [f'graph "{wset.family}_mu_{wset.mu}" {{']
    for w in wset.members:
        lines.append(f'  "{w}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_wset(args) -> int:
    mu = _parse_mu(args)
    wset = verifier.member_set(mu, args.family)
    if args.dot:
        print(_wset_dot(wset))
    elif args.format == "json":
        _emit_json(wset.to_json_dict())
    else:
        for w in wset.members:
            print(w)
    return 0


def _cmd_schubert(args) -> int:
    _check_n(args)
    try:
        w = parse_permutation(args.perm)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if w.n != args.n:
        raise _UsageError(f"permutation {w} is not in S_{args.n}")
    poly = schubert_poly(w)
    if args.format == "json":
        _emit_json(poly.to_json_dict())
    else:
        print(poly.text())
    return 0


def _cmd_formula(args, equivariant: bool) -> int:
    build = cohomology.equivariant_factored if equivariant else cohomology.ordinary_factored
    factored = build(_parse_mu(args), half_slots=not verifier.needs_even_parts(args.family))
    if args.format == "json":
        _emit_json(factored.expand().to_json_dict())
    elif args.expand:
        print(factored.expand().text())
    else:
        print(factored.text())
    return 0


def _cmd_expand(args) -> int:
    mu = _parse_mu(args)
    factored = cohomology.ordinary_factored(mu, half_slots=not verifier.needs_even_parts(args.family))
    n = mu.total
    coeffs = {Permutation._unchecked(w): c for w, c in _monk_expansion(*factored).items()}
    if any(w.n > n for w in coeffs):  # a class of S_n is keyed by its own word
        raise ValueError(f"the ordinary class is not in the span of S_{n}")
    expansion = SchubertExpansion(n, coeffs)
    if args.format == "json":
        _emit_json(expansion.to_json_dict())
    else:
        for w in sorted(expansion.coeffs):
            print(f"{w}: {expansion.coeffs[w]}")
    return 0


def _cmd_verify(args) -> int:
    mu = _parse_mu(args)
    report = verifier.verify_identity(mu, args.family)
    if args.format == "json":
        _emit_json(report.to_json_dict(include_ms=args.timings))
    else:
        print(report.text())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    _check_n(args)
    if verifier.needs_even_parts(args.family) and args.n % 2 != 0:
        raise _UsageError(f"symplectic sweeps need even n, got {args.n}")
    reports = verifier.sweep(args.n, args.family)
    all_pass = all(r.passed for r in reports)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "family": args.family,
                "verdict": "pass" if all_pass else "fail",
                "reports": [r.to_json_dict(include_ms=args.timings) for r in reports],
            }
        )
    else:
        for r in reports:
            print(r.text())
        print(f"{len(reports)} compositions: {'all pass' if all_pass else 'FAILURES'}")
    return 0 if all_pass else 1


# Each option is declared once; each subcommand lists the options it takes
# in the order its --help screen shows them.
_OPTIONS = {
    "--mu": dict(required=True, help="composition, e.g. 3,4"),
    "--family": dict(required=True, choices=list(verifier.FAMILIES)),
    "--n": dict(type=int, required=True),
    "--perm": dict(required=True, help='one-line word, e.g. 321 or "3,2,1"'),
    "--format": dict(choices=["text", "json"], default="text"),
    "--max-n": dict(
        type=int, default=9, help="guard: reject ambient sizes above this (default 9)"
    ),
    "--dot": dict(action="store_true", help="emit a DOT graph of isolated labeled vertices"),
    "--expand": dict(action="store_true", help="print the expanded polynomial (text only: JSON is always expanded)"),
    "--timings": dict(action="store_true", help="include elapsed ms in JSON output"),
}
_COMMANDS = (  # (name, help, handler, options)
    ("wset", "list the member family of a composition", _cmd_wset,
     ("--mu", "--family", "--format", "--max-n", "--dot")),
    ("schubert", "print one Schubert polynomial", _cmd_schubert,
     ("--n", "--perm", "--format", "--max-n")),
    ("formula", "factored ordinary class for a composition",
     functools.partial(_cmd_formula, equivariant=False),
     ("--mu", "--family", "--format", "--max-n", "--expand")),
    ("equivariant", "factored equivariant class for a composition",
     functools.partial(_cmd_formula, equivariant=True),
     ("--mu", "--family", "--format", "--max-n", "--expand")),
    ("expand", "Schubert expansion of the ordinary class", _cmd_expand,
     ("--mu", "--family", "--format", "--max-n")),
    ("verify", "verify one sum-equals-product identity", _cmd_verify,
     ("--mu", "--family", "--format", "--max-n", "--timings")),
    ("sweep", "verify all compositions of n", _cmd_sweep,
     ("--family", "--n", "--format", "--max-n", "--timings")),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="schubfactor",
        description="Schubert polynomial sums, factored class formulas, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(run=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a bug, not bad input
        import traceback  # here only: it loads linecache and tokenize, which no other path needs

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
