"""A factorial-sum identity and its terminating ₃F₂ restatement.

The identity, for integers 0 ≤ l ≤ k ≤ min(m, n):

    Σ_{i=0}^{k} (-1)^i (m-i)!(n-k+i)! / (i!(k-i)!(m-l-i)!(n+l-2k+i)!) = (-1)^{k+l}

with the convention 1/j! = 0 for j < 0, which reproduces the natural
max/min summation bounds automatically.  Multiplied by k! it involves
integers only:

    Σ_{i=0}^{k} (-1)^i C(k,i) perm(m-i, l) perm(n-k+i, k-l) = (-1)^{k+l} k!

where perm(x, j) = x!/(x-j)! is the falling factorial (`math.perm`),
which is 0 once j > x, exactly where 1/(x-j)! = 0.  `km_scaled_sum`
evaluates the left side of this form, `km_sum` divides it by k!, and
`km_range_verify` compares it with (-1)^{k+l} k! on every admissible tuple
up to a bound.

The same sum is a terminating hypergeometric series at unit argument.
Taking the ratio of consecutive summands gives

    t_{i+1}/t_i = (i-k)(i+n-k+1)(i-(m-l)) / ((i-m)(i+n+l-2k+1)(i+1)),

so, when n+l-2k ≥ 0 (the i = 0 term nonzero),

    km_sum = t₀ · ₃F₂(-k, n-k+1, -(m-l); -m, n+l-2k+1; 1),
    t₀     = m!(n-k)! / (k!(m-l)!(n+l-2k)!).

This parameterization is derived here, not quoted from anywhere;
`series_route_verify` checks t₀ · ₃F₂ against (-1)^{k+l} on its own, so
the series route shares no code with the direct sum.  `to_3f2` refuses the
n+l-2k < 0 case rather than patching prefactors.

Both sweeps walk plain (k, l, m, n) int tuples and carry only integers;
neither builds a `KMParams`, `Fraction` or `HypergeomSpec` per tuple.
`km_range_verify` compares `_km_scaled` with ±k! from a factorial table
built once per sweep.  `series_route_verify` takes the integer parameters
and the prefactor t₀, an unreduced pair of factorial products, from
`_series_map`, sums the series with `_series_pair`, and compares the two
pairs by cross-multiplication.  `km_scaled_sum`, `admissible_tuples`,
`to_3f2` and `eval_3f2_terminating` wrap the same cores.

`_series_pair` reads every parameter p/q (an int is p/1) once as an
integer pair: the Pochhammer factor a+i is (p + i·q)/q, so each term ratio
is one integer numerator over one integer denominator, and the series is
summed by Horner's rule on one integer numerator/denominator pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from numbers import Rational
from typing import Iterable, Iterator, Optional, Sequence

from .rationals import factorial


class UnsupportedMappingError(ValueError):
    """The hypergeometric restatement does not cover this parameter tuple."""


class IllDefinedSeriesError(ValueError):
    """A lower Pochhammer factor vanishes at or before the truncation index."""


@dataclass(frozen=True)
class KMParams:
    """Integer parameters with 0 ≤ l ≤ k ≤ min(m, n)."""

    k: int
    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.l <= self.k <= min(self.m, self.n):
            raise ValueError(
                f"need 0 <= l <= k <= min(m, n); got k={self.k}, l={self.l}, "
                f"m={self.m}, n={self.n}"
            )


@dataclass(frozen=True)
class HypergeomSpec:
    """A ₃F₂ series: three upper parameters, two lower, one argument.

    At least one upper parameter must be a non-positive integer so the
    series terminates.
    """

    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]
    argument: Fraction

    def __post_init__(self) -> None:
        if _truncation_index(self.upper) is None:
            raise ValueError(
                "series does not terminate: no upper parameter is a "
                "non-positive integer"
            )

    @property
    def truncation_index(self) -> int:
        """Smallest |a| over non-positive-integer upper parameters."""
        return _truncation_index(self.upper)


@dataclass(frozen=True)
class KMSweepReport:
    """Exhaustive check of the identity for all admissible tuples, m,n ≤ bound."""

    bound: int
    tuples: int
    failures: tuple[tuple[int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _km_scaled(k: int, l: int, m: int, n: int) -> int:
    """k! times the left-hand sum of the tuple (k, l, m, n), in integers."""
    total = 0
    for i in range(k + 1):
        term = comb(k, i) * perm(m - i, l) * perm(n - k + i, k - l)
        total += -term if i & 1 else term
    return total


def km_scaled_sum(p: KMParams) -> int:
    """k! times the left-hand sum, in integers (expected: (-1)^{k+l} k!)."""
    return _km_scaled(p.k, p.l, p.m, p.n)


def km_sum(p: KMParams) -> Fraction:
    """The left-hand sum, exactly (expected value: (-1)^{k+l})."""
    return Fraction(km_scaled_sum(p), factorial(p.k))


def km_check(p: KMParams) -> bool:
    """True iff the sum equals (-1)^{k+l} exactly, compared in integers."""
    return km_scaled_sum(p) == (-1) ** (p.k + p.l) * factorial(p.k)


def _tuples(bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Every (k, l, m, n) with 0 ≤ m, n ≤ bound, 0 ≤ l ≤ k ≤ min(m, n)."""
    for m in range(bound + 1):
        for n in range(bound + 1):
            for k in range(min(m, n) + 1):
                for l in range(k + 1):
                    yield k, l, m, n


def admissible_tuples(bound: int) -> Iterator[KMParams]:
    """Yield every KMParams with 0 ≤ m, n ≤ bound, 0 ≤ l ≤ k ≤ min(m, n)."""
    for k, l, m, n in _tuples(bound):
        yield KMParams(k=k, l=l, m=m, n=n)


def km_range_verify(bound: int) -> KMSweepReport:
    """Run km_check on every admissible tuple with m, n ≤ bound."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    facts = [factorial(k) for k in range(bound + 1)]
    count = 0
    failures = []
    for t in _tuples(bound):
        count += 1
        k, l, m, n = t
        if _km_scaled(k, l, m, n) != (-facts[k] if (k + l) & 1 else facts[k]):
            failures.append(t)
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def series_route_verify(bound: int) -> KMSweepReport:
    """Check prefactor × ₃F₂ = (-1)^{k+l} on every mappable tuple, m, n ≤ bound.

    Tuples with n+l-2k < 0 fall outside the series restatement and are
    skipped (they are covered by km_range_verify).
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    count = 0
    failures = []
    for t in _tuples(bound):
        k, l, m, n = t
        if n + l - 2 * k < 0:
            continue
        count += 1
        upper, lower, (pre_num, pre_den) = _series_map(k, l, m, n)
        num, den = _series_pair(upper, lower, 1)
        # prefactor·num/den = (-1)^{k+l}, cross-multiplied
        if (k + l) & 1:
            den = -den
        if pre_num * num != pre_den * den:
            failures.append(t)
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def _series_map(
    k: int, l: int, m: int, n: int
) -> tuple[tuple[int, int, int], tuple[int, int], tuple[int, int]]:
    """The ₃F₂ restatement of the tuple: integer upper and lower parameters,
    and the prefactor t₀ as an unreduced pair (num, den) of factorials."""
    shift = n + l - 2 * k
    if shift < 0:
        raise UnsupportedMappingError(
            f"n+l-2k = {shift} < 0: the sum starts above i = 0 and has no "
            "clean series form here; use km_sum"
        )
    return (
        (-k, n - k + 1, l - m),
        (-m, shift + 1),
        (
            factorial(m) * factorial(n - k),
            factorial(k) * factorial(m - l) * factorial(shift),
        ),
    )


def to_3f2(p: KMParams) -> tuple[HypergeomSpec, Fraction]:
    """Restate km_sum(p) as prefactor × ₃F₂(…; 1).

    Requires n+l-2k ≥ 0 so the i = 0 summand is nonzero; the excluded case
    is covered by km_sum directly.
    """
    upper, lower, prefactor = _series_map(p.k, p.l, p.m, p.n)
    spec = HypergeomSpec(
        upper=tuple(map(Fraction, upper)),
        lower=tuple(map(Fraction, lower)),
        argument=Fraction(1),
    )
    return spec, Fraction(*prefactor)


def _truncation_index(upper: Iterable[Rational]) -> Optional[int]:
    """Smallest |a| over the non-positive-integer upper parameters, or None
    when there is none and the series does not terminate."""
    return min(
        (-a.numerator for a in upper if a.denominator == 1 and a.numerator <= 0),
        default=None,
    )


def _pochhammer_numerators(a: Rational, t: int) -> range:
    """Numerators of the factors a, a+1, …, a+t-1 over a's denominator."""
    p, q = a.numerator, a.denominator
    return range(p, p + t * q, q)


def eval_3f2_terminating(spec: HypergeomSpec) -> Fraction:
    """Σ_{i=0}^{T} (a₁)ᵢ(a₂)ᵢ(a₃)ᵢ / ((b₁)ᵢ(b₂)ᵢ i!) zⁱ with exact arithmetic.

    T is the truncation index; a lower Pochhammer factor vanishing at or
    before T makes the series ill-defined.  The term ratio at index i is
    num/den with integers num = z_p·q_{b₁}q_{b₂}·Π(p_{aⱼ} + i·q_{aⱼ}) and
    den = z_q·q_{a₁}q_{a₂}q_{a₃}·Π(p_{bⱼ} + i·q_{bⱼ})·(i+1), where x = p_x/q_x.
    """
    return Fraction(*_series_pair(spec.upper, spec.lower, spec.argument))


def _series_pair(
    upper: Sequence[Rational], lower: Sequence[Rational], z: Rational
) -> tuple[int, int]:
    """The series of `eval_3f2_terminating` with parameters given as ints or
    `Fraction`s, as an unreduced integer pair (num, den), den != 0.

    The upper parameters must include a non-positive integer."""
    t = _truncation_index(upper)
    (a1, a2, a3), (b1, b2) = upper, lower
    num_scale = z.numerator * b1.denominator * b2.denominator
    den_scale = z.denominator * a1.denominator * a2.denominator * a3.denominator
    ratios = []
    for i, (x1, x2, x3, y1, y2) in enumerate(zip(
        _pochhammer_numerators(a1, t),
        _pochhammer_numerators(a2, t),
        _pochhammer_numerators(a3, t),
        _pochhammer_numerators(b1, t),
        _pochhammer_numerators(b2, t),
    )):
        den = y1 * y2
        if not den:
            b = b1 if not y1 else b2
            raise IllDefinedSeriesError(
                f"lower parameter {b} hits zero at index {i + 1} "
                f"(truncation index {t})"
            )
        ratios.append((num_scale * x1 * x2 * x3, den * den_scale * (i + 1)))
    # Horner's rule, 1 + r₀(1 + r₁(… (1 + r_{T-1}))), on the pair acc_num/acc_den
    acc_num = acc_den = 1
    for num, den in reversed(ratios):
        acc_den *= den
        acc_num = acc_den + num * acc_num
    return acc_num, acc_den
