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

`eval_3f2_terminating` reads every parameter p/q once as an integer pair:
the Pochhammer factor a+i is (p + i·q)/q, so each term ratio is one
integer numerator over one integer denominator, the series is summed by
Horner's rule on one integer numerator/denominator pair, and one
`Fraction` is built at the end.  `series_route_verify` builds none: it
compares the unreduced pair with the prefactor by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

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
        if not any(a.denominator == 1 and a.numerator <= 0 for a in self.upper):
            raise ValueError(
                "series does not terminate: no upper parameter is a "
                "non-positive integer"
            )

    @property
    def truncation_index(self) -> int:
        """Smallest |a| over non-positive-integer upper parameters."""
        return min(
            -a.numerator for a in self.upper
            if a.denominator == 1 and a.numerator <= 0
        )


@dataclass(frozen=True)
class KMSweepReport:
    """Exhaustive check of the identity for all admissible tuples, m,n ≤ bound."""

    bound: int
    tuples: int
    failures: tuple[tuple[int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def km_scaled_sum(p: KMParams) -> int:
    """k! times the left-hand sum, in integers (expected: (-1)^{k+l} k!)."""
    k, l, m, n = p.k, p.l, p.m, p.n
    total = 0
    for i in range(k + 1):
        term = comb(k, i) * perm(m - i, l) * perm(n - k + i, k - l)
        total += -term if i & 1 else term
    return total


def km_sum(p: KMParams) -> Fraction:
    """The left-hand sum, exactly (expected value: (-1)^{k+l})."""
    return Fraction(km_scaled_sum(p), factorial(p.k))


def km_check(p: KMParams) -> bool:
    """True iff the sum equals (-1)^{k+l} exactly, compared in integers."""
    return km_scaled_sum(p) == (-1) ** (p.k + p.l) * factorial(p.k)


def admissible_tuples(bound: int):
    """Yield every KMParams with 0 ≤ m, n ≤ bound, 0 ≤ l ≤ k ≤ min(m, n)."""
    for m in range(bound + 1):
        for n in range(bound + 1):
            for k in range(min(m, n) + 1):
                for l in range(k + 1):
                    yield KMParams(k=k, l=l, m=m, n=n)


def km_range_verify(bound: int) -> KMSweepReport:
    """Run km_check on every admissible tuple with m, n ≤ bound."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    count = 0
    failures = []
    for p in admissible_tuples(bound):
        count += 1
        if not km_check(p):
            failures.append((p.k, p.l, p.m, p.n))
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
    for p in admissible_tuples(bound):
        if p.n + p.l - 2 * p.k < 0:
            continue
        count += 1
        spec, prefactor = to_3f2(p)
        num, den = _eval_3f2_pair(spec)
        # prefactor·num/den = (-1)^{k+l}, cross-multiplied
        sign = (-1) ** (p.k + p.l)
        if prefactor.numerator * num != sign * prefactor.denominator * den:
            failures.append((p.k, p.l, p.m, p.n))
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def to_3f2(p: KMParams) -> tuple[HypergeomSpec, Fraction]:
    """Restate km_sum(p) as prefactor × ₃F₂(…; 1).

    Requires n+l-2k ≥ 0 so the i = 0 summand is nonzero; the excluded case
    is covered by km_sum directly.
    """
    shift = p.n + p.l - 2 * p.k
    if shift < 0:
        raise UnsupportedMappingError(
            f"n+l-2k = {shift} < 0: the sum starts above i = 0 and has no "
            "clean series form here; use km_sum"
        )
    spec = HypergeomSpec(
        upper=(
            Fraction(-p.k),
            Fraction(p.n - p.k + 1),
            Fraction(-(p.m - p.l)),
        ),
        lower=(Fraction(-p.m), Fraction(shift + 1)),
        argument=Fraction(1),
    )
    prefactor = Fraction(
        factorial(p.m) * factorial(p.n - p.k),
        factorial(p.k) * factorial(p.m - p.l) * factorial(shift),
    )
    return spec, prefactor


def _pochhammer_numerators(a: Fraction, t: int) -> range:
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
    return Fraction(*_eval_3f2_pair(spec))


def _eval_3f2_pair(spec: HypergeomSpec) -> tuple[int, int]:
    """The series of `eval_3f2_terminating` as an unreduced integer pair
    (num, den), den != 0."""
    t = spec.truncation_index
    (a1, a2, a3), (b1, b2) = spec.upper, spec.lower
    z = spec.argument
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
