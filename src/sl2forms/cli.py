"""Command-line front end.

Subcommands expose the decomposition, singular-vector and ω-table
computations plus the verification sweeps, as human-readable text or as
JSON with a stable schema.  Exit codes: 0 success, 1 verification failure,
2 usage error.  Timing goes to stderr so identical arguments always
produce byte-identical stdout.  Every size, q and r the parser accepts is
bounded, and a usage error quotes no argument in full.

Each subparser names its `cmd_*` handler as `run`, and `main` calls it.
Each `cmd_*` function imports the layers it calls when it runs, so a
process loads only what its subcommand needs: `verify-km` never loads the
matrix, module, form or ω layers, and `decompose` never loads `hypergeom`,
`omega` or `verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .rationals import excerpt, parse_rational

if TYPE_CHECKING:
    from .verify import SuiteResult

_SIGN_CHAR = {1: "+", -1: "-", 0: "0"}


# q and r have numerator and denominator, in lowest terms, at most 10^1000
# in absolute value.  Then every printed q and r has at most 1001 digits and
# every ω of `omega-table m n` with m, n ≤ 200 at most 3,700, below Python's
# default limit of 4,300 digits on converting an int to str.
_QR_DIGITS = 1000
_QR_LIMIT = 10**_QR_DIGITS


def _exponent(text: str) -> int:
    """E of a literal like 1.5e-3, and 0 when there is none or it is not an int."""
    _, e, exponent = text.lower().partition("e")
    try:
        return int(exponent) if e else 0
    except ValueError:
        return 0


# The largest sizes accepted.  m and n stop at 200, where the digit bound
# above holds.  The sweep bounds were first set where one run at --jobs 1
# took about a minute on a 2-CPU x86 host with Python 3.11; one cold run at
# each bound now takes 14-15 s (verify-km), 13 s (verify-star) and 19 s
# (verify-all) there (README).
_MODULE_MAX = 200
_SWEEP_MAX = {"verify-km": 72, "verify-star": 48, "verify-all": 40}


def _fraction_reads(text: str) -> bool:
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


def _rational_pattern() -> str:
    """A rational literal as this Python's Fraction() reads it, whatever its
    length: p/q with q nonzero, or a decimal with an optional exponent.
    Fraction() refuses one only when a digit run is too long for int().
    Python 3.11 added `_` between digits and 3.12 spaces around the slash,
    so both are probed.  Like `_INTEGER` below, the pattern is built and
    compiled on the error path only: compiling both on import took about
    1 ms of every process's start."""
    digits = r"\d+(?:_\d+)*" if _fraction_reads("1_0") else r"\d+"
    slash = r"\s*/\s*" if _fraction_reads("1 / 2") else "/"
    decimal = rf"(?:{digits}(?:\.(?:{digits})?)?|\.{digits})(?:[eE][+-]?{digits})?"
    return rf"\s*[+-]?(?:{digits}{slash}(?=[0_]*[1-9]){digits}|{decimal})\s*"


def _nonzero_rational(text: str) -> Fraction:
    too_big = (
        f"numerator and denominator must be at most 10^{_QR_DIGITS}: {excerpt(text)}"
    )
    # Whatever its mantissa, a literal M·10^E with |E| > 1000 + len(text) is
    # past the bound, so it is refused before Fraction computes 10^|E|.
    if abs(_exponent(text)) > _QR_DIGITS + len(text):
        raise argparse.ArgumentTypeError(too_big)
    try:
        value = parse_rational(text)
    except ValueError as exc:
        well_formed = re.fullmatch(_rational_pattern(), text) is not None
        message = f"too many digits: {excerpt(text)}" if well_formed else str(exc)
        raise argparse.ArgumentTypeError(message) from None
    if not value:
        raise argparse.ArgumentTypeError(f"must be nonzero: {excerpt(text)}")
    if max(abs(value.numerator), value.denominator) > _QR_LIMIT:
        raise argparse.ArgumentTypeError(too_big)
    return value


# An integer literal as int() reads it, whatever its length.
_INTEGER = r"\s*([+-]?)\d+(?:_\d+)*\s*"


def _integer(lowest: int, highest: float = math.inf):
    """Argument type: an integer from `lowest`, 0 or 1, to `highest`.  The
    wording of a value below `lowest` follows from it.  A literal too long
    for int() is out of range."""
    what = {0: "nonnegative", 1: "positive"}[lowest]

    def parse(text: str) -> int:
        shown = excerpt(text)
        try:
            value = int(text)
        except ValueError:
            literal = re.fullmatch(_INTEGER, text)
            if literal is None:
                raise argparse.ArgumentTypeError(f"not an integer: {shown!r}") from None
            value = -math.inf if literal[1] == "-" else math.inf
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be {what}: {shown}")
        if value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}: {shown}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"too many digits: {shown}")
        return value

    return parse


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )


def _add_qr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_nonzero_rational, default=Fraction(1),
                   help="form constant on the left factor (rational, default 1)")
    p.add_argument("--r", type=_nonzero_rational, default=Fraction(1),
                   help="form constant on the right factor (rational, default 1)")


def _add_sizes(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, type=_integer(0, _MODULE_MAX),
                       help=f"module label, at most {_MODULE_MAX}")


def _add_max(p: argparse.ArgumentParser, command: str) -> None:
    highest = _SWEEP_MAX[command]
    p.add_argument("--max", type=_integer(0, highest), default=10,
                   help=f"sweep bound on m and n, at most {highest} (default 10)")


def _add_sweep(p: argparse.ArgumentParser, command: str) -> None:
    _add_max(p, command)
    # the default, None, reaches `parallel.parallel_map`, which reads it as
    # the usable CPUs; so no other subcommand loads the fork-join code
    p.add_argument("--jobs", type=_integer(1), default=None,
                   help="worker processes, at most the usable CPUs "
                        "(default: the CPUs this process may run on)")


class _Parser(argparse.ArgumentParser):
    """Cuts every usage error message to 200 characters.  argparse words
    some of them itself (an unknown command or choice, an unrecognized
    argument) and quotes the whole argument there.  Subparsers are built
    with this class too."""

    def error(self, message: str):
        super().error(excerpt(message, 200))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sl2forms",
        description="Exact verification of sl2 tensor-module forms and the "
        "factorial identities behind their sign pattern.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose V_m⊗V_n into irreducibles")
    p.set_defaults(run=cmd_decompose)
    _add_sizes(p, "m", "n")
    _add_format(p)

    p = sub.add_parser("singular-vector",
                       help="the Y-kernel vector of weight -(m+n-2k)")
    p.set_defaults(run=cmd_singular_vector)
    _add_sizes(p, "m", "n")
    p.add_argument("k", type=_integer(0))
    _add_format(p)

    p = sub.add_parser("omega-table",
                       help="ω_k(b,b) for k = 0..min(m,n) with sign verdict")
    p.set_defaults(run=cmd_omega_table)
    _add_sizes(p, "m", "n")
    _add_qr(p)
    _add_format(p)

    p = sub.add_parser("verify-km",
                       help="sweep the factorial identity and its series form")
    p.set_defaults(run=cmd_verify_km)
    _add_max(p, "verify-km")
    _add_format(p)

    p = sub.add_parser("verify-star",
                       help="sweep bracket relations and *-form compatibility")
    p.set_defaults(run=cmd_verify_star)
    _add_sweep(p, "verify-star")
    _add_qr(p)
    _add_format(p)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.set_defaults(run=cmd_verify_all)
    _add_sweep(p, "verify-all")
    _add_qr(p)
    _add_format(p)
    p.add_argument("--debug-corrupt", action="store_true",
                   help="corrupt one matrix entry so the relations suite fails "
                        "(sanity check that failures are detectable)")

    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def cmd_decompose(args: argparse.Namespace) -> int:
    from .modules import decompose, tensor_of_irreducibles

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
    from .modules import format_vector, tensor_of_irreducibles
    from .omega import (
        InconsistencyError,
        b_closed_form,
        y_annihilates,
        y_kernel_singular,
    )

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
            "terms": [[module.basis_names[j], str(c)] for j, c in b.terms],
            "y_annihilates": annihilated,
            "null_space_agrees": agrees,
        })
    else:
        label = "b_0" if s == 0 else f"b_{{-{s}}}"
        mark = lambda flag: "✓" if flag else "✗"
        print(f"{label} = {format_vector(module, b.terms)}; "
              f"Yb = 0 {mark(annihilated)}; null-space route {mark(agrees)}")
    return 0 if annihilated and agrees else 1


def cmd_omega_table(args: argparse.Namespace) -> int:
    from .omega import InconsistencyError, omega_table

    try:
        table = omega_table(args.m, args.n, args.q, args.r)
    except InconsistencyError as exc:
        print(f"route disagreement: {exc}", file=sys.stderr)
        return 1
    alternating = table.alternating
    if args.format == "json":
        _emit_json({
            "m": table.m, "n": table.n,
            "q": str(table.q), "r": str(table.r),
            "rows": [
                {"k": row.k, "s": row.s,
                 "value": str(row.value), "sign": row.sign}
                for row in table.rows
            ],
            "alternating": alternating,
        })
    else:
        print(f"ω_k(b,b) on V{table.m}⊗V{table.n} with "
              f"q={table.q}, r={table.r}")
        for row in table.rows:
            print(f"  k={row.k}  s={row.s}  ω={row.value}  "
                  f"sign={_SIGN_CHAR[row.sign]}")
        print(f"alternating: {'PASS' if alternating else 'FAIL'}")
    return 0 if alternating else 1


def cmd_verify_km(args: argparse.Namespace) -> int:
    from .hypergeom import (
        km_range_verify,
        km_tuple_count,
        series_route_verify,
        series_tuple_count,
    )

    # each route is timed under its suite name, and a sweep that checked
    # other than its closed-form count of tuples fails the run; stdout keeps
    # its schema, and the timings and the gap go to stderr
    reports, complete = [], True
    for name, label, sweep, count in (
        ("karlsson-minton", "identity sweep", km_range_verify, km_tuple_count),
        ("3f2-route", "series cross-route", series_route_verify, series_tuple_count),
    ):
        t0 = time.perf_counter()
        report = sweep(args.max)
        print(f"[time] {name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        expected = count(args.max)
        if report.tuples != expected:
            print(f"{label}: checked {report.tuples} tuples, expected {expected}",
                  file=sys.stderr)
            complete = False
        reports.append(report)
    direct, series = reports
    failures = [list(t) for t in direct.failures + series.failures]
    if args.format == "json":
        _emit_json({"tuples": direct.tuples, "failures": failures})
    else:
        print(f"identity sweep (m,n ≤ {args.max}): {direct.tuples} tuples, "
              f"{len(direct.failures)} failures")
        print(f"series cross-route: {series.tuples} tuples, "
              f"{len(series.failures)} failures")
    return 0 if not failures and complete else 1


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
    from .verify import verify_star

    return _emit_suites(args, verify_star(args.max, args.q, args.r, jobs=args.jobs))


def cmd_verify_all(args: argparse.Namespace) -> int:
    from .verify import verify_all

    suites = verify_all(
        args.max, args.q, args.r, jobs=args.jobs, corrupt=args.debug_corrupt
    )
    return _emit_suites(args, suites)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "singular-vector" and args.k > min(args.m, args.n):
        parser.error(f"k must be at most min(m, n) = {min(args.m, args.n)}")
    t0 = time.perf_counter()
    code = args.run(args)
    print(f"[time] total: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code
