"""Verification suites: every identity the package implements, swept over a
parameter grid and reported uniformly.

Each suite returns a `SuiteResult` with an exact check count and the list
of failing cases (expected empty).  Sweeps over (m, n) pairs can run in
worker processes; aggregation follows input order, so the result is
independent of the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .forms import canonical_form, is_star_form, tensor_form
from .hypergeom import km_range_verify, series_route_verify
from .modules import (
    check_relations,
    decompose,
    irreducible,
    perturbed,
    tensor_of_irreducibles,
)
from .omega import (
    InconsistencyError,
    b_closed_form,
    check_sign_alternation,
    x_power_b_brute,
    x_power_b_closed,
    y_annihilates,
    y_kernel_singular,
)
from .parallel import parallel_map
from .rationals import Scalar


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: tuple[str, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _grid(bound: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(bound + 1) for n in range(bound + 1)]


def _collect(name, t0, results) -> SuiteResult:
    checks = sum(c for c, _ in results)
    failures = [f for _, fs in results for f in fs]
    return SuiteResult(
        name=name,
        checks=checks,
        failures=tuple(failures),
        seconds=time.perf_counter() - t0,
    )


def _relations_pair(pair: tuple[int, int]) -> tuple[int, list[str]]:
    m, n = pair
    report = check_relations(tensor_of_irreducibles(m, n))
    if report.ok:
        return 1, []
    return 1, [f"{report.label}: {', '.join(report.failures)}"]


def sweep_relations(bound: int, jobs: int = 1, corrupt: bool = False) -> SuiteResult:
    """Bracket identities on every V_m and V_m⊗V_n with m, n ≤ bound.

    With corrupt=True one deliberately damaged module is injected so the
    suite demonstrably can fail.
    """
    t0 = time.perf_counter()
    results = []
    for m in range(bound + 1):
        report = check_relations(irreducible(m))
        results.append(
            (1, [] if report.ok else [f"{report.label}: {', '.join(report.failures)}"])
        )
    if corrupt:
        bad = perturbed(irreducible(bound), "X", 0, 0, 1)
        report = check_relations(bad)
        results.append(
            (1, [] if report.ok else [f"{report.label}: {', '.join(report.failures)}"])
        )
    results += parallel_map(_relations_pair, _grid(bound), jobs)
    return _collect("relations", t0, results)


def _star_pair(pair: tuple[int, int], q: Fraction, r: Fraction) -> tuple[int, list[str]]:
    m, n = pair
    module = tensor_of_irreducibles(m, n)
    form = tensor_form(canonical_form(m, q), canonical_form(n, r), module)
    report = is_star_form(module, form)
    if report.ok:
        return 1, []
    problems = list(report.failures) + ([] if report.nondegenerate else ["degenerate"])
    return 1, [f"{report.label} q={q} r={r}: " + ", ".join(problems)]


def sweep_star_forms(
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: int = 1
) -> SuiteResult:
    """Anti-involution compatibility of canonical forms and their tensor forms."""
    t0 = time.perf_counter()
    q, r = Fraction(q), Fraction(r)
    results = []
    for m in range(bound + 1):
        for c in (q, r):
            report = is_star_form(irreducible(m), canonical_form(m, c))
            results.append(
                (1, [] if report.ok
                 else [f"{report.label} q={c}: " + ", ".join(report.failures)])
            )
    results += parallel_map(partial(_star_pair, q=q, r=r), _grid(bound), jobs)
    return _collect("star-forms", t0, results)


def _decompose_pair(pair: tuple[int, int]) -> tuple[int, list[str]]:
    m, n = pair
    expected = tuple((j, 1) for j in range(abs(m - n), m + n + 1, 2))
    try:
        got = decompose(tensor_of_irreducibles(m, n)).summands
    except ValueError as exc:
        return 1, [f"V_{m}⊗V_{n}: {exc}"]
    if got != expected:
        return 1, [f"V_{m}⊗V_{n}: got {got}, expected {expected}"]
    return 1, []


def sweep_decomposition(bound: int, jobs: int = 1) -> SuiteResult:
    """V_m⊗V_n decomposes as one copy each of V_|m-n|, V_|m-n|+2, ..., V_{m+n}."""
    t0 = time.perf_counter()
    results = parallel_map(_decompose_pair, _grid(bound), jobs)
    return _collect("decomposition", t0, results)


def _singular_pair(pair: tuple[int, int]) -> tuple[int, list[str]]:
    m, n = pair
    checks, failures = 0, []
    for k in range(min(m, n) + 1):
        checks += 1
        try:
            b = b_closed_form(m, n, k)
            if not y_annihilates(b):
                failures.append(f"(m={m},n={n},k={k}): Y·b != 0")
                continue
            kernel = y_kernel_singular(m, n, k)
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"(m={m},n={n},k={k}): {exc}")
            continue
        if kernel != b:
            failures.append(f"(m={m},n={n},k={k}): null-space route disagrees")
    return checks, failures


def sweep_singular_vectors(bound: int, jobs: int = 1) -> SuiteResult:
    """Closed-form singular vectors match the exact Y-null-space route."""
    t0 = time.perf_counter()
    results = parallel_map(_singular_pair, _grid(bound), jobs)
    return _collect("singular-vectors", t0, results)


def _x_power_pair(pair: tuple[int, int]) -> tuple[int, list[str]]:
    m, n = pair
    checks, failures = 0, []
    for k in range(min(m, n) + 1):
        checks += 1
        if x_power_b_brute(m, n, k) != x_power_b_closed(m, n, k):
            failures.append(f"(m={m},n={n},k={k}): X^s b routes disagree")
    return checks, failures


def sweep_x_power(bound: int, jobs: int = 1) -> SuiteResult:
    """Matrix powering of X on b agrees with the factorial closed form."""
    t0 = time.perf_counter()
    results = parallel_map(_x_power_pair, _grid(bound), jobs)
    return _collect("x-power", t0, results)


def sweep_karlsson_minton(bound: int) -> SuiteResult:
    """The alternating factorial sum equals (-1)^{k+l} on the whole grid."""
    t0 = time.perf_counter()
    report = km_range_verify(bound)
    failures = tuple(f"(k,l,m,n)={t}" for t in report.failures)
    return SuiteResult(
        "karlsson-minton", report.tuples, failures, time.perf_counter() - t0
    )


def sweep_series_route(bound: int) -> SuiteResult:
    """Terminating-series restatement reproduces the direct sum exactly."""
    t0 = time.perf_counter()
    report = series_route_verify(bound)
    failures = tuple(f"(k,l,m,n)={t}" for t in report.failures)
    return SuiteResult("3f2-route", report.tuples, failures, time.perf_counter() - t0)


def _omega_pair(pair: tuple[int, int], q: Fraction, r: Fraction) -> tuple[int, list[str]]:
    m, n = pair
    checks = min(m, n) + 1
    try:
        report = check_sign_alternation(m, n, q, r)
    except (InconsistencyError, ValueError) as exc:
        # a bad case is one failure; it must not abort the sweep
        return checks, [f"V_{m}⊗V_{n}: {exc}"]
    if report.ok:
        return checks, []
    signs = tuple(row.sign for row in report.table.rows)
    return checks, [f"V_{m}⊗V_{n} q={q} r={r}: signs {signs}"]


def sweep_omega_signs(
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: int = 1
) -> SuiteResult:
    """Both ω routes agree and signs alternate as (-1)^k·sign(qr)."""
    t0 = time.perf_counter()
    q, r = Fraction(q), Fraction(r)
    results = parallel_map(partial(_omega_pair, q=q, r=r), _grid(bound), jobs)
    return _collect("omega-signs", t0, results)


def verify_all(
    bound: int,
    q: Scalar = 1,
    r: Scalar = 1,
    jobs: int = 1,
    corrupt: bool = False,
) -> list[SuiteResult]:
    """Run every suite at the same bound; order is fixed and deterministic.

    A negative bound is rejected before any suite runs.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    return [
        sweep_relations(bound, jobs=jobs, corrupt=corrupt),
        sweep_star_forms(bound, q, r, jobs=jobs),
        sweep_decomposition(bound, jobs=jobs),
        sweep_singular_vectors(bound, jobs=jobs),
        sweep_x_power(bound, jobs=jobs),
        sweep_karlsson_minton(bound),
        sweep_series_route(bound),
        sweep_omega_signs(bound, q, r, jobs=jobs),
    ]
