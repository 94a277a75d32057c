"""Singular vectors in V_m⊗V_n and the induced one-dimensional forms ω_k.

For 0 ≤ k ≤ min(m,n) write s_k = m+n-2k.  The Y-kernel inside the
weight-(-s_k) space of V_m⊗V_n is one-dimensional, spanned by

    b = Σ_{i=0}^{k} (-1)^i e_{-m+2i} ⊗ ẽ_{-n+2(k-i)},

and the form ω_k(v, w) = (Q⊗R)(v, X^{s_k} w) on that line has the exact
value

    ω_k(b, b) = s_k! · (-1)^k · q·r · Σ_{l=0}^{k} (m-l)!(n-k+l)!/(l!(k-l)!).

Everything is computed twice, by routes that share no algebra:

* b: closed form vs. exact null space of the restricted Y matrix;
* X^{s_k} b: closed-form terms vs. s_k-fold sparse matrix application;
* ω_k(b, b): Gram evaluation of the brute vectors vs. the closed form.

Route disagreement raises `InconsistencyError`; agreement is the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import perm
from typing import NamedTuple

from .forms import evaluate, tensor_of_canonical_forms
from .linalg import ExactMatrix, apply_power, null_space
from .modules import (
    ModuleVector,
    act,
    tensor_of_irreducibles,
    weight_space_indices,
)
from .rationals import Scalar, factorial, sign
from .records import frozen


class InconsistencyError(Exception):
    """Two independent computation routes disagreed (or a kernel had the
    wrong dimension); either would falsify an identity the package exists
    to verify."""


@frozen
class OmegaRow(NamedTuple):
    """One line of an ω table: ω_k(b,b) on the weight-(-s_k) singular line."""

    k: int
    s: int
    value: Fraction
    sign: int


@frozen
class OmegaReport(NamedTuple):
    """All rows k = 0..min(m,n) for one (m, n, q, r)."""

    m: int
    n: int
    q: Fraction
    r: Fraction
    rows: tuple[OmegaRow, ...]

    def _check(self) -> None:
        m, n, _, _, rows = self
        expected_k = tuple(range(min(m, n) + 1))
        if tuple(row.k for row in rows) != expected_k:
            raise ValueError(f"rows must cover k = 0..{min(m, n)} in order")
        for row in rows:
            if row.s != m + n - 2 * row.k:
                raise ValueError(f"row k={row.k} has s={row.s}, expected m+n-2k")
            if not row.value:
                raise ValueError(f"row k={row.k} has value 0; ω_k must be nondegenerate")


@frozen
class SignAlternationReport(NamedTuple):
    """Whether sign(ω_k) = (-1)^k · sign(qr) holds for every k."""

    table: OmegaReport
    ok: bool


def _check_k(m: int, n: int, k: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"module labels must be nonnegative (got m={m}, n={n})")
    if not 0 <= k <= min(m, n):
        raise ValueError(f"k must satisfy 0 <= k <= min(m,n)={min(m, n)} (got {k})")


def singular_weight(m: int, n: int, k: int) -> int:
    """The weight -s_k = -(m+n-2k) of the k-th singular line."""
    return -(m + n - 2 * k)


def b_closed_form(m: int, n: int, k: int) -> ModuleVector:
    """Σ_{i=0}^{k} (-1)^i e_{-m+2i}⊗ẽ_{-n+2(k-i)}, leading coefficient +1."""
    _check_k(m, n, k)
    # e_{-m+2i} sits at position i, ẽ_{-n+2(k-i)} at position k-i, so the
    # index i·(n+1) + k-i increases with i.
    terms = tuple((i * (n + 1) + (k - i), (-1) ** i) for i in range(k + 1))
    return ModuleVector(tensor_of_irreducibles(m, n), terms)


def y_kernel_singular(m: int, n: int, k: int) -> ModuleVector:
    """The Y-kernel vector of weight -s_k, by exact null-space computation.

    Restricts actY of V_m⊗V_n to the (k+1)-dimensional weight space,
    keeping only the rows those columns reach, demands a one-dimensional
    kernel, and maps the normalized basis vector (first coordinate 1) onto
    the module's terms at the weight space's indices.
    """
    _check_k(m, n, k)
    module = tensor_of_irreducibles(m, n)
    indices = weight_space_indices(module, singular_weight(m, n, k))
    columns = module.actY.transpose.nonzero_rows
    rows: dict[int, list[tuple[int, Scalar]]] = {}
    for t, j in enumerate(indices):
        for i, v in columns[j]:
            rows.setdefault(i, []).append((t, v))
    # each row is in column order, with no zeros: `_stored` takes it as it is
    restricted = ExactMatrix._stored(
        len(rows), len(indices), tuple(map(tuple, rows.values()))
    )
    kernel = null_space(restricted)
    if len(kernel) != 1:
        raise InconsistencyError(
            f"Y-kernel of the weight-{singular_weight(m, n, k)} space of "
            f"{module.label} has dimension {len(kernel)}, expected 1"
        )
    return ModuleVector(module, tuple((j, v) for j, v in zip(indices, kernel[0]) if v))


# Holds every k of one pair up to V₄₀⊗V₄₀, the largest pair of `verify-all`,
# so the x-power check and the ω brute route of a pair compute each vector
# once.  A smaller cache evicts each vector of a pair with more singular
# lines than it holds before the second read, and the ω route recomputes
# all of them.
@lru_cache(maxsize=41)
def x_power_b_brute(m: int, n: int, k: int) -> ModuleVector:
    """X^{s_k} b by s_k-fold application of the tensor module's X matrix."""
    _check_k(m, n, k)
    module = tensor_of_irreducibles(m, n)
    b = b_closed_form(m, n, k)
    s = m + n - 2 * k
    return ModuleVector(module, apply_power(module.actX, b.terms, s))


def x_power_b_closed(m: int, n: int, k: int) -> ModuleVector:
    """X^{s_k} b by the closed form

    s_k! · Σ_{l=0}^{k} (-1)^{k+l} (m-l)!(n-k+l)!/(l!(k-l)!) · e_{m-2l}⊗ẽ_{n-2(k-l)}.

    Each coefficient is an exact integer: (k-l)! divides (m-l)! and l!
    divides (n-k+l)! on the admissible range, and the quotients are
    perm(m-l, m-k) and perm(n-k+l, n-k).
    """
    _check_k(m, n, k)
    s_fact = factorial(m + n - 2 * k)
    # e_{m-2l} sits at position m-l, ẽ_{n-2(k-l)} at position n-k+l, so the
    # index (m-l)·(n+1) + n-k+l increases as l runs down from k.
    terms = tuple(
        (
            (m - l) * (n + 1) + (n - k + l),
            (-1) ** (k + l)
            * s_fact
            * perm(m - l, m - k)
            * perm(n - k + l, n - k),
        )
        for l in range(k, -1, -1)
    )
    return ModuleVector(tensor_of_irreducibles(m, n), terms)


def omega_value(m: int, n: int, k: int, q: Scalar, r: Scalar) -> Fraction:
    """ω_k(b, b) by the brute route: Gram evaluation against X^{s_k}b."""
    _check_k(m, n, k)
    qr_form = tensor_of_canonical_forms(m, n, q, r)
    return evaluate(qr_form, b_closed_form(m, n, k), x_power_b_brute(m, n, k))


def omega_closed(m: int, n: int, k: int, q: Scalar, r: Scalar) -> Fraction:
    """ω_k(b, b) by the closed form s_k!·(-1)^k·qr·Σ_l (m-l)!(n-k+l)!/(l!(k-l)!)."""
    _check_k(m, n, k)
    if not q or not r:
        raise ValueError("omega requires q != 0 and r != 0 (nondegeneracy)")
    # (m-l)!/(k-l)! and (n-k+l)!/l!, each as one falling factorial
    total = sum(perm(m - l, m - k) * perm(n - k + l, n - k) for l in range(k + 1))
    return Fraction((-1) ** k * factorial(m + n - 2 * k) * total) * q * r


def omega_table(m: int, n: int, q: Scalar, r: Scalar) -> OmegaReport:
    """Rows k = 0..min(m,n), each computed by both routes and compared;
    Q⊗R is built once, and the brute route of every k reads it."""
    _check_k(m, n, 0)
    qr_form = tensor_of_canonical_forms(m, n, q, r)
    rows = []
    for k in range(min(m, n) + 1):
        brute = evaluate(qr_form, b_closed_form(m, n, k), x_power_b_brute(m, n, k))
        closed = omega_closed(m, n, k, q, r)
        if brute != closed:
            raise InconsistencyError(
                f"ω_{k}(b,b) routes disagree on V_{m}⊗V_{n} with q={q}, r={r}: "
                f"brute {brute} vs closed {closed}"
            )
        rows.append(OmegaRow(k=k, s=m + n - 2 * k, value=brute, sign=sign(brute)))
    return OmegaReport(m=m, n=n, q=Fraction(q), r=Fraction(r), rows=tuple(rows))


def check_sign_alternation(m: int, n: int, q: Scalar, r: Scalar) -> SignAlternationReport:
    """Pass iff sign(ω_k) = (-1)^k·sign(qr) for every k (strict alternation)."""
    table = omega_table(m, n, q, r)
    base = sign(Fraction(q) * Fraction(r))
    ok = all(row.sign == (-1) ** row.k * base for row in table.rows)
    return SignAlternationReport(table=table, ok=ok)


def y_annihilates(v: ModuleVector) -> bool:
    """True when actY sends the vector to zero — the singular-vector property."""
    return act(v.module, "Y", v).is_zero()
