"""Acceptance criteria, one test per criterion, run at full advertised
bounds.  Every comparison is exact equality of rationals — no tolerances.
Each test prints a single PASS/FAIL line so the run reads as a checklist.
"""

import json
import subprocess
import sys
from fractions import Fraction
from itertools import product

from sl2forms.forms import canonical_form, is_star_form, tensor_form
from sl2forms.hypergeom import km_range_verify, series_route_verify
from sl2forms.modules import (
    check_relations,
    decompose,
    irreducible,
    tensor_of_irreducibles,
)
from sl2forms.omega import (
    b_closed_form,
    omega_closed,
    omega_table,
    omega_value,
    x_power_b_brute,
    x_power_b_closed,
    y_annihilates,
    y_kernel_singular,
)
from sl2forms.rationals import sign

QR_GRID = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3))


def report(number, name, failures, checks):
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({checks} exact checks)")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_1_relations_and_star_structure():
    failures, checks = [], 0
    for m in range(13):
        checks += 1
        if not check_relations(irreducible(m)).ok:
            failures.append(f"relations V_{m}")
        for q in QR_GRID:
            checks += 1
            if not is_star_form(irreducible(m), canonical_form(m, q)).ok:
                failures.append(f"canonical star V_{m} q={q}")
    for m, n in product(range(13), repeat=2):
        module = tensor_of_irreducibles(m, n)
        checks += 1
        if not check_relations(module).ok:
            failures.append(f"relations V_{m}⊗V_{n}")
        for q, r in product(QR_GRID, repeat=2):
            checks += 1
            form = tensor_form(canonical_form(m, q), canonical_form(n, r), module)
            if not is_star_form(module, form).ok:
                failures.append(f"tensor star V_{m}⊗V_{n} q={q} r={r}")
    report(1, "relations & *-structure (m,n ≤ 12)", failures, checks)


def test_criterion_2_tensor_decomposition():
    failures, checks = [], 0
    for m, n in product(range(13), repeat=2):
        checks += 1
        got = decompose(tensor_of_irreducibles(m, n))
        expected = tuple((j, 1) for j in range(abs(m - n), m + n + 1, 2))
        if got.summands != expected:
            failures.append(f"V_{m}⊗V_{n}: {got.summands}")
        if got.dim != (m + 1) * (n + 1):
            failures.append(f"V_{m}⊗V_{n}: dim {got.dim}")
    report(2, "Clebsch-Gordan decomposition (m,n ≤ 12)", failures, checks)


def test_criterion_3_singular_vectors():
    failures, checks = [], 0
    for m, n in product(range(13), repeat=2):
        for k in range(min(m, n) + 1):
            checks += 1
            b = b_closed_form(m, n, k)
            if not y_annihilates(b):
                failures.append(f"Yb != 0 at ({m},{n},{k})")
            elif y_kernel_singular(m, n, k) != b:
                failures.append(f"null-space route at ({m},{n},{k})")
    report(3, "Y-kernel = closed-form singular vector (m,n ≤ 12)", failures, checks)


def test_criterion_4_x_power_dual_route():
    failures, checks = [], 0
    for m, n in product(range(11), repeat=2):
        for k in range(min(m, n) + 1):
            checks += 1
            if x_power_b_brute(m, n, k) != x_power_b_closed(m, n, k):
                failures.append(f"({m},{n},{k})")
    report(4, "X^s b brute = closed form (m,n ≤ 10)", failures, checks)


def test_criterion_5_factorial_identity_sweep():
    sweep = km_range_verify(20)
    report(
        5,
        "alternating factorial sum = (-1)^(k+l) (m,n ≤ 20)",
        list(sweep.failures),
        sweep.tuples,
    )


def test_criterion_6_series_cross_route():
    sweep = series_route_verify(12)
    report(
        6,
        "prefactor × 3F2 = direct sum (m,n ≤ 12)",
        list(sweep.failures),
        sweep.tuples,
    )


def test_criterion_7_sign_alternation_theorem():
    failures, checks = [], 0
    spot = [
        (1, 1, 0, 2),
        (1, 1, 1, -2),
        (2, 1, 0, 12),
        (2, 1, 1, -3),
    ]
    for m, n, k, expected in spot:
        checks += 1
        if omega_value(m, n, k, 1, 1) != expected:
            failures.append(f"spot ω_{k}({m},{n}) != {expected}")
    for m, n in product(range(13), repeat=2):
        for q, r in product(QR_GRID, repeat=2):
            table = omega_table(m, n, q, r)  # asserts both routes agree
            checks += len(table.rows)
            base = sign(q * r)
            for row in table.rows:
                if row.sign != (-1) ** row.k * base:
                    failures.append(f"sign at ({m},{n},{row.k},q={q},r={r})")
            if not table.alternating:
                failures.append(f"alternation at ({m},{n},q={q},r={r})")
    report(7, "ω_k signs alternate as (-1)^k·sign(qr) (m,n ≤ 12)", failures, checks)


def test_criterion_8_cli_contract():
    failures = []
    base = [sys.executable, "-m", "sl2forms"]
    clean = subprocess.run(
        base + ["verify-all", "--max", "8", "--format", "json"],
        capture_output=True, text=True, timeout=600,
    )
    if clean.returncode != 0:
        failures.append(f"clean run exited {clean.returncode}")
    else:
        doc = json.loads(clean.stdout)
        if not doc["ok"]:
            failures.append("clean run reported failures")
    corrupted = subprocess.run(
        base + ["verify-all", "--max", "8", "--debug-corrupt"],
        capture_output=True, text=True, timeout=600,
    )
    if corrupted.returncode != 1:
        failures.append(f"corrupted run exited {corrupted.returncode}, expected 1")
    if "relations: FAIL" not in corrupted.stdout:
        failures.append("corruption did not flip the relations suite")
    report(8, "CLI verify-all exit codes (clean 0, corrupted 1)", failures, 2)
