"""Verification suites: every identity the package implements, swept over a
parameter grid and reported uniformly.

Each suite returns a `SuiteResult` with an exact check count and the list
of failing cases (expected empty).  The suites stated for one tensor module
run as one stream: a task per (m, n) pair builds V_m⊗V_n once and runs them
on it in order, so memory does not grow with the number of pairs.  Tasks can
run in worker processes; aggregation follows input order, so the result is
independent of the worker count.  A case that raises is one failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .forms import canonical_form, is_star_form, tensor_of_canonical_forms
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


def _relation_failures(report) -> list[str]:
    return [] if report.ok else [f"{report.label}: {', '.join(report.failures)}"]


def _relations_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    return _relation_failures(check_relations(tensor_of_irreducibles(m, n)))


def _star_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    module = tensor_of_irreducibles(m, n)
    report = is_star_form(module, tensor_of_canonical_forms(m, n, q, r))
    if report.ok:
        return []
    problems = list(report.failures) + ([] if report.nondegenerate else ["degenerate"])
    return [f"{report.label} q={q} r={r}: " + ", ".join(problems)]


def _decompose_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    expected = tuple((j, 1) for j in range(abs(m - n), m + n + 1, 2))
    got = decompose(tensor_of_irreducibles(m, n)).summands
    return [] if got == expected else [f"V_{m}⊗V_{n}: got {got}, expected {expected}"]


def _singular_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    failures = []
    for k in range(min(m, n) + 1):
        try:
            b = b_closed_form(m, n, k)
            if not y_annihilates(b):
                failures.append(f"(m={m},n={n},k={k}): Y·b != 0")
            elif y_kernel_singular(m, n, k) != b:
                failures.append(f"(m={m},n={n},k={k}): null-space route disagrees")
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"(m={m},n={n},k={k}): {exc}")
    return failures


def _x_power_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    failures = []
    for k in range(min(m, n) + 1):
        try:
            if x_power_b_brute(m, n, k) != x_power_b_closed(m, n, k):
                failures.append(f"(m={m},n={n},k={k}): X^s b routes disagree")
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"(m={m},n={n},k={k}): {exc}")
    return failures


def _omega_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    report = check_sign_alternation(m, n, q, r)
    if report.ok:
        return []
    signs = tuple(row.sign for row in report.table.rows)
    return [f"V_{m}⊗V_{n} q={q} r={r}: signs {signs}"]


# The per-pair suites in stream order.  star-forms and x-power run before
# omega-signs, so the ω brute route finds the pair's Q⊗R and every X^{s_k}b
# in their caches.
_PAIR_STEPS = {
    "relations": _relations_pair,
    "star-forms": _star_pair,
    "decomposition": _decompose_pair,
    "singular-vectors": _singular_pair,
    "x-power": _x_power_pair,
    "omega-signs": _omega_pair,
}
_PER_K = ("singular-vectors", "x-power", "omega-signs")


def _pair(pair, q, r, names) -> list[tuple[int, list[str], float]]:
    """(checks, failures, seconds) of each named suite on V_m⊗V_n."""
    m, n = pair
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            failures = _PAIR_STEPS[name](m, n, q, r)
        except (InconsistencyError, ValueError) as exc:
            # a bad case is one failure; it must not abort the stream
            failures = [f"V_{m}⊗V_{n}: {exc}"]
        checks = min(m, n) + 1 if name in _PER_K else 1
        out.append((checks, failures, time.perf_counter() - t0))
    return out


def _irreducible_checks(name, bound, q, r, corrupt) -> tuple[int, list[str]]:
    """The checks of a suite that run on the irreducibles V_m alone."""
    failures = []
    if name == "relations":
        modules = [irreducible(m) for m in range(bound + 1)]
        if corrupt:
            modules.append(perturbed(irreducible(bound), "X", 0, 0, 1))
        for module in modules:
            failures += _relation_failures(check_relations(module))
        return len(modules), failures
    if name == "star-forms":
        for m in range(bound + 1):
            for c in (q, r):
                report = is_star_form(irreducible(m), canonical_form(m, c))
                if not report.ok:
                    failures.append(f"{report.label} q={c}: " + ", ".join(report.failures))
        return 2 * (bound + 1), failures
    return 0, []


def _sweep(bound, names, q=1, r=1, jobs=1, corrupt=False) -> list[SuiteResult]:
    """The named suites: checks on each V_m in this process, then one task
    per (m, n) pair with m, n ≤ bound.  Under jobs > 1 a suite's seconds
    are worker time summed over the pairs."""
    q, r = Fraction(q), Fraction(r)
    totals = {}
    for name in names:
        t0 = time.perf_counter()
        checks, failures = _irreducible_checks(name, bound, q, r, corrupt)
        totals[name] = [checks, failures, time.perf_counter() - t0]
    grid = [(m, n) for m in range(bound + 1) for n in range(bound + 1)]
    for results in parallel_map(partial(_pair, q=q, r=r, names=names), grid, jobs):
        for total, result in zip(totals.values(), results):
            total[:] = [a + b for a, b in zip(total, result)]
    return [SuiteResult(name, c, tuple(f), s) for name, (c, f, s) in totals.items()]


def sweep_relations(bound: int, jobs: int = 1, corrupt: bool = False) -> SuiteResult:
    """Bracket identities on every V_m and V_m⊗V_n with m, n ≤ bound.

    With corrupt=True one deliberately damaged module is injected so the
    suite demonstrably can fail.
    """
    return _sweep(bound, ("relations",), jobs=jobs, corrupt=corrupt)[0]


def sweep_star_forms(
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: int = 1
) -> SuiteResult:
    """Anti-involution compatibility of canonical forms and their tensor forms."""
    return _sweep(bound, ("star-forms",), q, r, jobs)[0]


def sweep_decomposition(bound: int, jobs: int = 1) -> SuiteResult:
    """V_m⊗V_n decomposes as one copy each of V_|m-n|, V_|m-n|+2, ..., V_{m+n}."""
    return _sweep(bound, ("decomposition",), jobs=jobs)[0]


def sweep_singular_vectors(bound: int, jobs: int = 1) -> SuiteResult:
    """Closed-form singular vectors match the exact Y-null-space route."""
    return _sweep(bound, ("singular-vectors",), jobs=jobs)[0]


def sweep_x_power(bound: int, jobs: int = 1) -> SuiteResult:
    """Matrix powering of X on b agrees with the factorial closed form."""
    return _sweep(bound, ("x-power",), jobs=jobs)[0]


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


def sweep_omega_signs(
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: int = 1
) -> SuiteResult:
    """Both ω routes agree and signs alternate as (-1)^k·sign(qr)."""
    return _sweep(bound, ("omega-signs",), q, r, jobs)[0]


def verify_star(
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: int = 1
) -> list[SuiteResult]:
    """The relations and star-forms suites, in one stream over the grid."""
    return _sweep(bound, ("relations", "star-forms"), q, r, jobs)


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
    *per_module, omega = _sweep(bound, tuple(_PAIR_STEPS), q, r, jobs, corrupt)
    return [*per_module, sweep_karlsson_minton(bound), sweep_series_route(bound), omega]
