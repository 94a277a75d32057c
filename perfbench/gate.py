"""Correctness gate: what each benchmarked CLI run must print.

The expectations are computed here, from closed-form counting and a short
`math.factorial` formula, and share no code with sl2forms.  A program that
skipped cases, dropped a suite or changed a value fails the gate, so it
cannot look faster than one that did all the work.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

SUITES = (
    "relations", "star-forms", "decomposition", "singular-vectors",
    "x-power", "karlsson-minton", "3f2-route", "omega-signs",
)


def km_tuple_count(bound: int) -> int:
    """Tuples 0 <= l <= k <= min(m, n), m, n <= bound.

    min(m, n) = j for 2(bound - j) + 1 pairs, each with (j+1)(j+2)/2 tuples.
    """
    return sum((2 * (bound - j) + 1) * (j + 1) * (j + 2) // 2 for j in range(bound + 1))


def series_tuple_count(bound: int) -> int:
    """Tuples of km_tuple_count with n + l - 2k >= 0: l runs from max(0, 2k - n) to k."""
    return sum(
        k - max(0, 2 * k - n) + 1
        for m in range(bound + 1)
        for n in range(bound + 1)
        for k in range(min(m, n) + 1)
    )


def expected_checks(bound: int, corrupt: bool = False) -> dict[str, int]:
    """Check count of every verify-all suite at sweep bound N."""
    side = bound + 1
    pairs = side * side
    # (m, n) pairs with min(m, n) = j number 2(N - j) + 1; each has j + 1 values of k.
    per_k = sum((2 * (bound - j) + 1) * (j + 1) for j in range(side))
    return {
        "relations": side + pairs + (1 if corrupt else 0),
        "star-forms": 2 * side + pairs,
        "decomposition": pairs,
        "singular-vectors": per_k,
        "x-power": per_k,
        "karlsson-minton": km_tuple_count(bound),
        "3f2-route": series_tuple_count(bound),
        "omega-signs": per_k,
    }


def _parse(stdout: str):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line on stdout, got {len(lines)}")
    return json.loads(lines[0])


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def omega_closed(m: int, n: int, k: int, q: Fraction, r: Fraction) -> Fraction:
    """omega_k(b, b) = s!·(-1)^k·qr·Σ_l (m-l)!(n-k+l)!/(l!(k-l)!), s = m+n-2k."""
    f = math.factorial
    total = sum(
        Fraction(f(m - l) * f(n - k + l), f(l) * f(k - l)) for l in range(k + 1)
    )
    return f(m + n - 2 * k) * (-1) ** k * q * r * total


def check_verify_all(stdout: str, bound: int, q: Fraction, r: Fraction) -> list[str]:
    """Problems with a `verify-all --format json` output; empty when it is right."""
    try:
        out = _parse(stdout)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems = []
    head = {"max": bound, "q": str(q), "r": str(r), "ok": True}
    for key, want in head.items():
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, expected {want!r}")
    expected = expected_checks(bound)
    suites = out.get("suites", [])
    names = [s.get("name") for s in suites]
    if names != list(SUITES):
        problems.append(f"suites {names}, expected {list(SUITES)}")
    for s in suites:
        name = s.get("name")
        if name in expected and s.get("checks") != expected[name]:
            problems.append(f"{name}: {s.get('checks')} checks, expected {expected[name]}")
        if s.get("failures"):
            problems.append(f"{name}: {len(s['failures'])} failures reported")
    return problems


def check_km(stdout: str, bound: int) -> list[str]:
    """Problems with a `verify-km --format json` output."""
    try:
        out = _parse(stdout)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems = []
    if out.get("tuples") != km_tuple_count(bound):
        problems.append(f"tuples = {out.get('tuples')}, expected {km_tuple_count(bound)}")
    if out.get("failures") != []:
        problems.append(f"failures = {out.get('failures')!r}, expected []")
    return problems


def check_omega_table(stdout: str, m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    """Problems with an `omega-table --format json` output: every omega_k and sign."""
    try:
        out = _parse(stdout)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems = []
    head = {"m": m, "n": n, "q": str(q), "r": str(r), "alternating": True}
    for key, want in head.items():
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, expected {want!r}")
    want_rows = []
    for k in range(min(m, n) + 1):
        value = omega_closed(m, n, k, q, r)
        want_rows.append({"k": k, "s": m + n - 2 * k, "value": str(value),
                          "sign": (-1) ** k * _sign(q * r)})
    rows = out.get("rows", [])
    if len(rows) != len(want_rows):
        problems.append(f"{len(rows)} rows, expected {len(want_rows)}")
    for got, want in zip(rows, want_rows):
        if got != want:
            problems.append(f"row k={want['k']} differs from the closed form")
    return problems


def check_probe(code: int, stdout: str, bound: int) -> list[str]:
    """`verify-all --debug-corrupt` must exit 1 with only the relations suite failing."""
    problems = [] if code == 1 else [f"exit code {code}, expected 1"]
    try:
        out = _parse(stdout)
    except ValueError as exc:
        return problems + [f"unparseable output: {exc}"]
    failing = [s.get("name") for s in out.get("suites", []) if s.get("failures")]
    if failing != ["relations"]:
        problems.append(f"failing suites {failing}, expected ['relations']")
    if out.get("ok") is not False:
        problems.append(f"ok = {out.get('ok')!r}, expected false")
    relations = next((s for s in out.get("suites", []) if s.get("name") == "relations"), {})
    want = expected_checks(bound, corrupt=True)["relations"]
    if relations.get("checks") != want:
        problems.append(f"relations: {relations.get('checks')} checks, expected {want}")
    return problems
