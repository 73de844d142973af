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

Output goes to stdout (--format text|json), diagnostics to stderr.  JSON
output is byte-identical across runs; pass --timings to verify/sweep to
include real elapsed milliseconds instead of null.  Exit status: 0 on
success/pass, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import cohomology, verifier
from .composition import Composition, parse_composition
from .permutation import parse_permutation
from .schubert import expand_in_schubert_basis, schubert_poly
from .wset import WSet

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubfactor",
        description="Schubert polynomial sums, factored class formulas, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mu=False, family=False, n=False, perm=False):
        if mu:
            p.add_argument("--mu", required=True, help="composition, e.g. 3,4")
        if family:
            p.add_argument(
                "--family",
                required=True,
                choices=list(verifier.FAMILIES),
            )
        if n:
            p.add_argument("--n", type=int, required=True)
        if perm:
            p.add_argument("--perm", required=True, help='one-line word, e.g. 321 or "3,2,1"')
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument(
            "--max-n",
            type=int,
            default=9,
            help="guard: reject ambient sizes above this (default 9)",
        )

    p = sub.add_parser("wset", help="list the member family of a composition")
    add_common(p, mu=True, family=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT graph of isolated labeled vertices")
    p.set_defaults(run=_cmd_wset)

    p = sub.add_parser("schubert", help="print one Schubert polynomial")
    add_common(p, n=True, perm=True)
    p.set_defaults(run=_cmd_schubert)

    p = sub.add_parser("formula", help="factored ordinary class for a composition")
    add_common(p, mu=True, family=True)
    p.add_argument("--expand", action="store_true", help="print the expanded polynomial")
    p.set_defaults(run=functools.partial(_cmd_formula, equivariant=False))

    p = sub.add_parser("equivariant", help="factored equivariant class for a composition")
    add_common(p, mu=True, family=True)
    p.add_argument("--expand", action="store_true", help="print the expanded polynomial")
    p.set_defaults(run=functools.partial(_cmd_formula, equivariant=True))

    p = sub.add_parser("expand", help="Schubert expansion of the ordinary class")
    add_common(p, mu=True, family=True)
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("verify", help="verify one sum-equals-product identity")
    add_common(p, mu=True, family=True)
    p.add_argument("--timings", action="store_true", help="include elapsed ms in JSON output")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("sweep", help="verify all compositions of n")
    add_common(p, n=True, family=True)
    p.add_argument("--timings", action="store_true", help="include elapsed ms in JSON output")
    p.set_defaults(run=_cmd_sweep)

    return parser


class _UsageError(Exception):
    pass


def _parse_mu(args) -> Composition:
    try:
        mu = parse_composition(args.mu)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if mu.total > args.max_n:
        raise _UsageError(
            f"ambient size {mu.total} exceeds guard --max-n {args.max_n}"
        )
    if verifier.needs_even_parts(args.family) and not mu.all_even():
        raise _UsageError(f"symplectic family needs even parts, got {mu}")
    return mu


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


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
    if args.n > args.max_n:
        raise _UsageError(f"ambient size {args.n} exceeds guard --max-n {args.max_n}")
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
    mu = _parse_mu(args)
    if equivariant:
        factored = verifier.by_family(
            args.family,
            cohomology.equivariant_class_orthogonal_factored,
            cohomology.equivariant_class_symplectic_factored,
        )(mu)
    else:
        factored = verifier.by_family(
            args.family,
            cohomology.ordinary_class_orthogonal_factored,
            cohomology.ordinary_class_symplectic_factored,
        )(mu)
    if args.format == "json":
        _emit_json(factored.expand().to_json_dict())
    elif args.expand:
        print(factored.expand().text())
    else:
        print(factored.text())
    return 0


def _cmd_expand(args) -> int:
    mu = _parse_mu(args)
    poly = verifier.product_side(mu, args.family)
    expansion = expand_in_schubert_basis(poly, mu.total)
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
    if args.n > args.max_n:
        raise _UsageError(f"ambient size {args.n} exceeds guard --max-n {args.max_n}")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
