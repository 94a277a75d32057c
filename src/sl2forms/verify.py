"""Verification suites: every identity the package implements, swept over a
parameter grid and reported uniformly.

Each suite returns a `SuiteResult` with an exact check count and the list
of failing cases (expected empty).  `_sweep` runs every suite as one plan:
it rejects a negative bound, then maps one list of tasks.  Each suite's
checks not stated per (m, n) pair (on each V_m, or a Karlsson-Minton
route's own sweep) are one task, and each pair is one task that builds
V_m⊗V_n once and runs the suites stated for it in order, so memory does not
grow with the number of pairs.  Tasks are listed heaviest first by a cost
estimate, so that worker processes finish together, and their results are
put back in suite and grid order: the result is independent of the worker
count.  A case that raises is one failure.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from typing import NamedTuple

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
from .records import frozen


@frozen
class SuiteResult(NamedTuple):
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


def _star_failures(report, constants: str) -> list[str]:
    problems = list(report.failures) + ([] if report.nondegenerate else ["degenerate"])
    return [f"{report.label} {constants}: " + ", ".join(problems)] if problems else []


def _star_pair(m: int, n: int, q: Fraction, r: Fraction) -> list[str]:
    module = tensor_of_irreducibles(m, n)
    report = is_star_form(module, tensor_of_canonical_forms(m, n, q, r))
    return _star_failures(report, f"q={q} r={r}")


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


# The per-pair suites in stream order.  The ω brute route shares the pair's
# Q⊗R with star-forms and each X^{s_k}b with x-power, since all three run in
# one pair task and whichever runs first fills the cache.  The X^{s_k}b cache
# holds a whole pair only while min(m, n) < 32 (`omega.x_power_b_brute`).
_PAIR_STEPS = {
    "relations": _relations_pair,
    "star-forms": _star_pair,
    "decomposition": _decompose_pair,
    "singular-vectors": _singular_pair,
    "x-power": _x_power_pair,
    "omega-signs": _omega_pair,
}
_PER_K = ("singular-vectors", "x-power", "omega-signs")
# Every suite of `verify_all`, in report order.
SUITES = ("relations", "star-forms", "decomposition", "singular-vectors", "x-power",
          "karlsson-minton", "3f2-route", "omega-signs")


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


def _local_checks(name, bound, q, r, corrupt) -> tuple[int, list[str]]:
    """The checks not stated per pair: on each V_m, or a KM route's sweep."""
    failures = []
    if name in ("karlsson-minton", "3f2-route"):
        route = km_range_verify if name == "karlsson-minton" else series_route_verify
        report = route(bound)
        return report.tuples, [f"(k,l,m,n)={t}" for t in report.failures]
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
                failures += _star_failures(report, f"q={c}")
        return 2 * (bound + 1), failures
    return 0, []


def _cost(task, bound) -> float:
    """Estimated time of a task, in units of one basis vector of a pair.

    A pair task takes time in proportion to dim V_m⊗V_n = (m+1)(n+1).  Both
    Karlsson-Minton sweeps walk about bound^4 tuples, and the checks on
    each V_m about bound^2 basis vectors; their scales were fitted to timed
    tasks at bounds 8 to 20.  At bound 12 each route sweep is about as heavy
    as the largest pair, or heavier.
    """
    if isinstance(task, tuple):
        m, n = task
        return (m + 1) * (n + 1)
    side = (bound + 1) ** 2
    scales = {"karlsson-minton": side / 130, "3f2-route": side / 65,
              "relations": 1 / 16, "star-forms": 1 / 3}
    return side * scales.get(task, 0)


def _task(task, bound, q, r, names, corrupt) -> list[tuple[int, list[str], float]]:
    """(checks, failures, seconds) of a suite's local checks, or of each
    named suite on a pair."""
    if isinstance(task, str):
        t0 = time.perf_counter()
        checks, failures = _local_checks(task, bound, q, r, corrupt)
        return [(checks, failures, time.perf_counter() - t0)]
    return _pair(task, q, r, names)


def _sweep(bound, names, q=1, r=1, jobs=1, corrupt=False) -> list[SuiteResult]:
    """The named suites, each timed: one task per suite for its local checks
    and, if any suite is stated per pair, one per (m, n) with m, n ≤ bound.
    Under jobs > 1 a suite's seconds are summed over the processes."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    q, r = Fraction(q), Fraction(r)
    paired = tuple(name for name in names if name in _PAIR_STEPS)
    grid = [(m, n) for m in range(bound + 1) for n in range(bound + 1)] if paired else []
    tasks = [*names, *grid]
    order = sorted(range(len(tasks)), key=lambda i: -_cost(tasks[i], bound))
    run = partial(_task, bound=bound, q=q, r=r, names=paired, corrupt=corrupt)
    done = dict(zip(order, parallel_map(run, [tasks[i] for i in order], jobs)))
    totals = {name: [0, [], 0.0] for name in names}
    for i, task in enumerate(tasks):
        for name, result in zip(paired if isinstance(task, tuple) else (task,), done[i]):
            totals[name][:] = [a + b for a, b in zip(totals[name], result)]
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
    return _sweep(bound, ("karlsson-minton",))[0]


def sweep_series_route(bound: int) -> SuiteResult:
    """Terminating-series restatement reproduces the direct sum exactly."""
    return _sweep(bound, ("3f2-route",))[0]


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
    return _sweep(bound, SUITES, q, r, jobs, corrupt)
