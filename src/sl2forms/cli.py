"""Command-line front end.

Subcommands expose the decomposition, singular-vector and ω-table
computations plus the verification sweeps, as human-readable text or as
JSON with a stable schema.  Exit codes: 0 success, 1 verification failure,
2 usage error.  Timing goes to stderr so identical arguments always
produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .hypergeom import km_range_verify, series_route_verify
from .modules import decompose, format_vector, tensor_of_irreducibles
from .omega import (
    InconsistencyError,
    b_closed_form,
    check_sign_alternation,
    y_annihilates,
    y_kernel_singular,
)
from .parallel import default_jobs
from .rationals import parse_rational
from .verify import SuiteResult, verify_all, verify_star

_SIGN_CHAR = {1: "+", -1: "-", 0: "0"}


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(text: str, lowest: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be {what}: {text}")
    return value


def _nonneg(text: str) -> int:
    return _int_at_least(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )


def _add_qr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_rational_arg, default=Fraction(1),
                   help="form constant on the left factor (rational, default 1)")
    p.add_argument("--r", type=_rational_arg, default=Fraction(1),
                   help="form constant on the right factor (rational, default 1)")


def _add_max(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max", type=_nonneg, default=10,
                   help="sweep bound on m and n (default 10)")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    _add_max(p)
    p.add_argument("--jobs", type=_positive, default=default_jobs(),
                   help="worker processes, at most the cpu count (default: cpu count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2forms",
        description="Exact verification of sl2 tensor-module forms and the "
        "factorial identities behind their sign pattern.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose V_m⊗V_n into irreducibles")
    p.add_argument("m", type=_nonneg)
    p.add_argument("n", type=_nonneg)
    _add_format(p)

    p = sub.add_parser("singular-vector",
                       help="the Y-kernel vector of weight -(m+n-2k)")
    p.add_argument("m", type=_nonneg)
    p.add_argument("n", type=_nonneg)
    p.add_argument("k", type=_nonneg)
    _add_format(p)

    p = sub.add_parser("omega-table",
                       help="ω_k(b,b) for k = 0..min(m,n) with sign verdict")
    p.add_argument("m", type=_nonneg)
    p.add_argument("n", type=_nonneg)
    _add_qr(p)
    _add_format(p)

    p = sub.add_parser("verify-km",
                       help="sweep the factorial identity and its series form")
    _add_max(p)
    _add_format(p)

    p = sub.add_parser("verify-star",
                       help="sweep bracket relations and *-form compatibility")
    _add_sweep(p)
    _add_qr(p)
    _add_format(p)

    p = sub.add_parser("verify-all", help="run every verification suite")
    _add_sweep(p)
    _add_qr(p)
    _add_format(p)
    p.add_argument("--debug-corrupt", action="store_true",
                   help="corrupt one matrix entry so the relations suite fails "
                        "(sanity check that failures are detectable)")

    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def cmd_decompose(args: argparse.Namespace) -> int:
    report = decompose(tensor_of_irreducibles(args.m, args.n))
    if args.format == "json":
        _emit_json({"summands": [[j, mult] for j, mult in report.summands]})
    else:
        parts = " ⊕ ".join(
            f"V{j}" if mult == 1 else f"{mult}·V{j}" for j, mult in report.summands
        )
        print(f"V{args.m}⊗V{args.n} = {parts} (dim {report.dim} ✓)")
    return 0


def cmd_singular_vector(args: argparse.Namespace) -> int:
    m, n, k = args.m, args.n, args.k
    module = tensor_of_irreducibles(m, n)
    b = b_closed_form(m, n, k)
    annihilated = y_annihilates(b)
    try:
        agrees = y_kernel_singular(m, n, k) == b
    except InconsistencyError:
        agrees = False
    s = m + n - 2 * k
    if args.format == "json":
        _emit_json({
            "m": m, "n": n, "k": k, "s": s,
            "terms": [
                [name, str(c)]
                for name, c in zip(module.basis_names, b.coords) if c
            ],
            "y_annihilates": annihilated,
            "null_space_agrees": agrees,
        })
    else:
        label = "b_0" if s == 0 else f"b_{{-{s}}}"
        mark = lambda flag: "✓" if flag else "✗"
        print(f"{label} = {format_vector(module, b.coords)}; "
              f"Yb = 0 {mark(annihilated)}; null-space route {mark(agrees)}")
    return 0 if annihilated and agrees else 1


def cmd_omega_table(args: argparse.Namespace) -> int:
    try:
        report = check_sign_alternation(args.m, args.n, args.q, args.r)
    except InconsistencyError as exc:
        print(f"route disagreement: {exc}", file=sys.stderr)
        return 1
    table = report.table
    if args.format == "json":
        _emit_json({
            "m": table.m, "n": table.n,
            "q": str(table.q), "r": str(table.r),
            "rows": [
                {"k": row.k, "s": row.s,
                 "value": str(row.value), "sign": row.sign}
                for row in table.rows
            ],
            "alternating": report.ok,
        })
    else:
        print(f"ω_k(b,b) on V{table.m}⊗V{table.n} with "
              f"q={table.q}, r={table.r}")
        for row in table.rows:
            print(f"  k={row.k}  s={row.s}  ω={row.value}  "
                  f"sign={_SIGN_CHAR[row.sign]}")
        print(f"alternating: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_verify_km(args: argparse.Namespace) -> int:
    direct = km_range_verify(args.max)
    series = series_route_verify(args.max)
    failures = [list(t) for t in direct.failures + series.failures]
    if args.format == "json":
        _emit_json({"tuples": direct.tuples, "failures": failures})
    else:
        print(f"identity sweep (m,n ≤ {args.max}): {direct.tuples} tuples, "
              f"{len(direct.failures)} failures")
        print(f"series cross-route: {series.tuples} tuples, "
              f"{len(series.failures)} failures")
    return 0 if not failures else 1


def _emit_suites(args: argparse.Namespace, suites: Sequence[SuiteResult]) -> int:
    ok = all(s.ok for s in suites)
    for s in suites:
        print(f"[time] {s.name}: {s.seconds:.2f}s", file=sys.stderr)
    if args.format == "json":
        _emit_json({
            "max": args.max,
            "q": str(args.q),
            "r": str(args.r),
            "suites": [
                {"name": s.name, "checks": s.checks, "failures": list(s.failures)}
                for s in suites
            ],
            "ok": ok,
        })
    else:
        for s in suites:
            print(f"{s.name}: {'PASS' if s.ok else 'FAIL'} ({s.checks} checks)")
            for f in s.failures:
                print(f"  ✗ {f}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_star(args: argparse.Namespace) -> int:
    return _emit_suites(args, verify_star(args.max, args.q, args.r, jobs=args.jobs))


def cmd_verify_all(args: argparse.Namespace) -> int:
    suites = verify_all(
        args.max, args.q, args.r, jobs=args.jobs, corrupt=args.debug_corrupt
    )
    return _emit_suites(args, suites)


_DISPATCH = {
    "decompose": cmd_decompose,
    "singular-vector": cmd_singular_vector,
    "omega-table": cmd_omega_table,
    "verify-km": cmd_verify_km,
    "verify-star": cmd_verify_star,
    "verify-all": cmd_verify_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("omega-table", "verify-star", "verify-all"):
        if not args.q or not args.r:
            parser.error("q and r must be nonzero")
    if args.command == "singular-vector" and args.k > min(args.m, args.n):
        parser.error(f"k must be at most min(m, n) = {min(args.m, args.n)}")
    t0 = time.perf_counter()
    code = _DISPATCH[args.command](args)
    print(f"[time] total: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code
