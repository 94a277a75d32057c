"""Verification suites: every identity the package implements, swept over a
parameter grid and reported uniformly.

Each suite returns a `SuiteResult` with an exact check count and the list
of failing cases (expected empty).  `_sweep` runs the named suites as one
plan of tasks, each naming the suites it reports to and its call.  A
suite's checks not stated per (m, n) pair (on each V_m, or a
Karlsson-Minton route's own sweep) are one task, and each pair is one task
that builds V_m⊗V_n once and runs the per-pair suites in order, so memory
does not grow with the number of pairs.  The plan lists those tasks in
suite order and then the pairs in grid order, and the results are folded
in that order: the result is independent of the worker count.  Each
suite's counted checks are compared with a closed form of what the bound
promises.  A case that raises is one failure."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .forms import canonical_form, is_star_form, tensor_of_canonical_forms
from .hypergeom import (
    km_range_verify,
    km_tuple_count,
    series_route_verify,
    series_tuple_count,
)
from .modules import (
    CheckReport,
    check_relations,
    decompose,
    irreducible,
    perturbed,
    tensor_of_irreducibles,
)
from .omega import (
    InconsistencyError,
    b_closed_form,
    omega_table,
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


def _check_failures(report: CheckReport, constants: str = "") -> list[str]:
    """The one failure text of a failed module or form check: its label,
    then `constants` (empty, or " q=… r=…"), then the names that failed."""
    return [] if report.ok else [f"{report.label}{constants}: {', '.join(report.failures)}"]


# Each pair step returns (checks, failures): one check for a step stated
# per pair, and for a per-k step the number of singular lines k it checked.
_Checked = tuple[int, list[str]]


def _relations_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    return 1, _check_failures(check_relations(tensor_of_irreducibles(m, n)))


def _star_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    module = tensor_of_irreducibles(m, n)
    report = is_star_form(module, tensor_of_canonical_forms(m, n, q, r))
    return 1, _check_failures(report, f" q={q} r={r}")


def _decompose_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    expected = tuple((j, 1) for j in range(abs(m - n), m + n + 1, 2))
    got = decompose(tensor_of_irreducibles(m, n)).summands
    return 1, [] if got == expected else [f"V_{m}⊗V_{n}: got {got}, expected {expected}"]


def _singular_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    checked, failures = 0, []
    for k in range(min(m, n) + 1):
        try:
            b = b_closed_form(m, n, k)
            if not y_annihilates(b):
                failures.append(f"(m={m},n={n},k={k}): Y·b != 0")
            elif y_kernel_singular(m, n, k) != b:
                failures.append(f"(m={m},n={n},k={k}): null-space route disagrees")
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"(m={m},n={n},k={k}): {exc}")
        checked += 1
    return checked, failures


def _x_power_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    checked, failures = 0, []
    for k in range(min(m, n) + 1):
        try:
            if x_power_b_brute(m, n, k) != x_power_b_closed(m, n, k):
                failures.append(f"(m={m},n={n},k={k}): X^s b routes disagree")
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"(m={m},n={n},k={k}): {exc}")
        checked += 1
    return checked, failures


def _omega_pair(m: int, n: int, q: Fraction, r: Fraction) -> _Checked:
    table = omega_table(m, n, q, r)
    rows = table.rows
    if table.alternating:
        return len(rows), []
    return len(rows), [f"V_{m}⊗V_{n} q={q} r={r}: signs {tuple(row.sign for row in rows)}"]


# The per-pair suites in stream order, each flagged if it checks each
# singular line k = 0..min(m, n) rather than the pair once.  In one pair
# task the ω brute route reads each X^{s_k}b that x-power built, or fills
# them first (`omega.x_power_b_brute` says why its cache holds a whole
# pair); star-forms and the ω table each build their own Q⊗R.
_PAIR_STEPS = {
    "relations": (_relations_pair, False),
    "star-forms": (_star_pair, False),
    "decomposition": (_decompose_pair, False),
    "singular-vectors": (_singular_pair, True),
    "x-power": (_x_power_pair, True),
    "omega-signs": (_omega_pair, True),
}
# The suites with checks not stated per pair, each one task of its own.
_LOCAL_SUITES = ("relations", "star-forms", "karlsson-minton", "3f2-route")
# Every suite of `verify_all`, in report order.
SUITES = ("relations", "star-forms", "decomposition", "singular-vectors", "x-power",
          "karlsson-minton", "3f2-route", "omega-signs")

# (checks, failures, seconds) of each suite a task reports to
_Results = list[tuple[int, list[str], float]]


class _Task(NamedTuple):
    """A task of the plan: the suites it reports to and its call."""

    suites: tuple[str, ...]
    run: Callable[[], _Results]


def _pair(pair, q, r, names) -> _Results:
    """(checks, failures, seconds) of each named suite on V_m⊗V_n."""
    m, n = pair
    out = []
    for name in names:
        step, per_k = _PAIR_STEPS[name]
        t0 = time.perf_counter()
        try:
            checks, failures = step(m, n, q, r)
        except (InconsistencyError, ValueError) as exc:
            # a bad case is one failure; it must not abort the stream, and
            # the checks it stood for count as made, so that it is reported
            # once and not again as a gap in the suite's coverage
            checks = min(m, n) + 1 if per_k else 1
            failures = [f"V_{m}⊗V_{n}: {exc}"]
        out.append((checks, failures, time.perf_counter() - t0))
    return out


def _local_checks(name, bound, q, r, corrupt) -> _Results:
    """(checks, failures, seconds) of a suite's checks not stated per pair:
    on each V_m, or a Karlsson-Minton route's own sweep."""
    t0 = time.perf_counter()
    checks, failures = 0, []
    if name == "relations":
        modules = [irreducible(m) for m in range(bound + 1)]
        if corrupt:
            modules.append(perturbed(irreducible(bound), "X", 0, 0, 1))
        for module in modules:
            failures += _check_failures(check_relations(module))
            checks += 1
    elif name == "star-forms":
        for m in range(bound + 1):
            for c in (q, r):
                report = is_star_form(irreducible(m), canonical_form(m, c))
                failures += _check_failures(report, f" q={c}")
                checks += 1
    else:
        route = km_range_verify if name == "karlsson-minton" else series_route_verify
        report = route(bound)
        checks, failures = report.tuples, [f"(k,l,m,n)={t}" for t in report.failures]
    return [(checks, failures, time.perf_counter() - t0)]


def _coverage(bound, corrupt) -> dict[str, tuple[int, str]]:
    """Each suite's closed-form check count at `bound`, and what it counts."""
    side = (bound + 1) ** 2
    # a per-k suite checks min(m, n)+1 singular lines on each pair, and the
    # min(m, n) = j on 2(bound-j)+1 pairs
    lines = sum((2 * (bound - j) + 1) * (j + 1) for j in range(bound + 1))
    return {
        "relations": (bound + 1 + side + int(corrupt), "modules"),
        "star-forms": (2 * (bound + 1) + side, "forms"),
        "decomposition": (side, "modules"),
        "singular-vectors": (lines, "singular lines"),
        "x-power": (lines, "singular lines"),
        "omega-signs": (lines, "singular lines"),
        "karlsson-minton": (km_tuple_count(bound), "tuples"),
        "3f2-route": (series_tuple_count(bound), "tuples"),
    }


def _sweep(bound, names, q=1, r=1, jobs=1, corrupt=False) -> list[SuiteResult]:
    """The named suites, each timed: one task per suite for its local checks
    and, if any suite is stated per pair, one per (m, n) with m, n ≤ bound.
    Under jobs > 1, or jobs=None for every usable CPU (`parallel_map`), a
    suite's seconds are summed over the processes."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    q, r = Fraction(q), Fraction(r)
    if not q or not r:
        raise ValueError(f"q and r must be nonzero (got q={q}, r={r})")
    tasks = [_Task((name,), partial(_local_checks, name, bound, q, r, corrupt))
             for name in names if name in _LOCAL_SUITES]
    paired = tuple(name for name in names if name in _PAIR_STEPS)
    if paired:
        tasks += [_Task(paired, partial(_pair, (m, n), q, r, paired))
                  for m in range(bound + 1) for n in range(bound + 1)]
    totals = {name: [0, [], 0.0] for name in names}
    for task, results in zip(tasks, parallel_map(lambda task: task.run(), tasks, jobs)):
        for name, result in zip(task.suites, results):
            totals[name][:] = [a + b for a, b in zip(totals[name], result)]
    expected = _coverage(bound, corrupt)
    for name, (checks, failures, _) in totals.items():
        count, unit = expected[name]
        if checks != count:
            failures.append(f"checked {checks} {unit}, expected {count}")
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
    bound: int, q: Scalar = 1, r: Scalar = 1, jobs: Optional[int] = 1
) -> list[SuiteResult]:
    """The relations and star-forms suites, in one stream over the grid."""
    return _sweep(bound, ("relations", "star-forms"), q, r, jobs)


def verify_all(
    bound: int,
    q: Scalar = 1,
    r: Scalar = 1,
    jobs: Optional[int] = 1,
    corrupt: bool = False,
) -> list[SuiteResult]:
    """Run every suite at the same bound; order is fixed and deterministic.

    A negative bound, or a zero q or r, is rejected before any suite runs.
    """
    return _sweep(bound, SUITES, q, r, jobs, corrupt)
