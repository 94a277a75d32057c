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

Both sweeps walk plain (k, l, m, n) int tuples in one fixed order and
carry only integers; neither builds a record per tuple.  Each builds its
tables once per sweep, sized by the bound, and every public wrapper runs
the same core:

- Direct route.  `_km_tables` holds falling[j][x] = perm(x, j) and the
  signed binomial rows (-1)^i C(k, i).  `_km_scaled` forms one tuple's
  sum as a dot product of the row signed[k] with two slices of
  falling-factorial rows, perm(m-i, l) read backwards from falling[l] and
  perm(n-k+i, k-l) read forwards from falling[k-l].  `km_range_verify`
  compares it with ±k! from a factorial table.  `km_scaled_sum`, `km_sum`
  and `km_check` wrap the same core on one tuple, and build only the three
  rows it reads: at most 2·(max(m, n)+1) `perm` calls.
- Series route.  `_series_map` gives the integer parameters and the
  prefactor t₀, an unreduced pair of products of entries of a factorial
  table (never `perm`, so the routes share no arithmetic).
  `series_route_verify` sums the series with `_series_pair` and compares
  the two pairs by cross-multiplication; `to_3f2` wraps `_series_map`
  and `eval_3f2_terminating` wraps `_series_pair`.

`_series_pair` reads every parameter p/q (an int is p/1) once as an
integer pair: the Pochhammer factor a+i is (p + i·q)/q, so each term ratio
is one integer numerator over one integer denominator, and the series is
summed by Horner's rule on one integer numerator/denominator pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .rationals import factorial


class UnsupportedMappingError(ValueError):
    """The hypergeometric restatement does not cover this parameter tuple."""


class IllDefinedSeriesError(ValueError):
    """A lower Pochhammer factor vanishes at or before the truncation index."""


# Like every record of the package, these are NamedTuples, not dataclasses:
# importing `dataclasses` loads `inspect`, `ast` and `dis`, which no
# subcommand otherwise needs (see `records`).  A record subclasses its field
# tuple so that `__new__` can validate.
class _KMFields(NamedTuple):
    k: int
    l: int
    m: int
    n: int


class KMParams(_KMFields):
    """Integer parameters with 0 ≤ l ≤ k ≤ min(m, n)."""

    __slots__ = ()

    def __new__(cls, k: int, l: int, m: int, n: int) -> KMParams:
        if not 0 <= l <= k <= min(m, n):
            raise ValueError(
                f"need 0 <= l <= k <= min(m, n); got k={k}, l={l}, m={m}, n={n}"
            )
        return super().__new__(cls, k, l, m, n)


class _HypergeomFields(NamedTuple):
    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]
    argument: Fraction


class HypergeomSpec(_HypergeomFields):
    """A ₃F₂ series: three upper parameters, two lower, one argument.

    At least one upper parameter must be a non-positive integer so the
    series terminates.
    """

    __slots__ = ()

    def __new__(
        cls,
        upper: tuple[Fraction, Fraction, Fraction],
        lower: tuple[Fraction, Fraction],
        argument: Fraction,
    ) -> HypergeomSpec:
        if _truncation_index(upper) is None:
            raise ValueError(
                "series does not terminate: no upper parameter is a "
                "non-positive integer"
            )
        return super().__new__(cls, upper, lower, argument)

    @property
    def truncation_index(self) -> int:
        """Smallest |a| over non-positive-integer upper parameters."""
        return _truncation_index(self.upper)


class KMSweepReport(NamedTuple):
    """Exhaustive check of the identity for all admissible tuples, m,n ≤ bound."""

    bound: int
    tuples: int
    failures: tuple[tuple[int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _factorials(top: int) -> list[int]:
    """[0!, 1!, …, top!]."""
    return [factorial(j) for j in range(top + 1)]


def _km_tables(
    top: int, k: Optional[int] = None, l: Optional[int] = None
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The direct route's tables for tuples with m, n ≤ top:
    falling[j][x] = perm(x, j) and signed[k][i] = (-1)^i C(k, i), every row
    by default, or given k and l only the rows that `_km_scaled` reads for
    them: falling[l], falling[k-l] and signed[k]."""
    js, ks = (range(top + 1),) * 2 if k is None else ({l, k - l}, (k,))
    falling = {j: [perm(x, j) for x in range(top + 1)] for j in js}
    signed = {j: [-comb(j, i) if i & 1 else comb(j, i) for i in range(j + 1)] for j in ks}
    return falling, signed


def _km_scaled(
    falling: Mapping[int, list[int]], signed: Mapping[int, list[int]],
    k: int, l: int, m: int, n: int,
) -> int:
    """k! times the left-hand sum of the tuple (k, l, m, n), in integers:
    Σᵢ signed[k][i]·perm(m-i, l)·perm(n-k+i, k-l) over i = 0..k."""
    return sum(map(
        mul,
        map(mul, signed[k], falling[l][m - k:m + 1][::-1]),
        falling[k - l][n - k:n + 1],
    ))


def km_scaled_sum(p: KMParams) -> int:
    """k! times the left-hand sum, in integers (expected: (-1)^{k+l} k!)."""
    return _km_scaled(*_km_tables(max(p.m, p.n), p.k, p.l), *p)


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
    falling, signed = _km_tables(bound)
    facts = _factorials(bound)
    count = 0
    failures = []
    for t in _tuples(bound):
        count += 1
        k, l, m, n = t
        if _km_scaled(falling, signed, k, l, m, n) != (
            -facts[k] if (k + l) & 1 else facts[k]
        ):
            failures.append(t)
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def series_route_verify(bound: int) -> KMSweepReport:
    """Check prefactor × ₃F₂ = (-1)^{k+l} on every mappable tuple, m, n ≤ bound.

    Tuples with n+l-2k < 0 fall outside the series restatement and are
    skipped (they are covered by km_range_verify).
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    facts = _factorials(bound)
    count = 0
    failures = []
    for t in _tuples(bound):
        k, l, m, n = t
        if n + l - 2 * k < 0:
            continue
        count += 1
        upper, lower, (pre_num, pre_den) = _series_map(facts, k, l, m, n)
        num, den = _series_pair(upper, lower, 1)
        # prefactor·num/den = (-1)^{k+l}, cross-multiplied
        if (k + l) & 1:
            den = -den
        if pre_num * num != pre_den * den:
            failures.append(t)
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def _series_map(
    facts: Sequence[int], k: int, l: int, m: int, n: int
) -> tuple[tuple[int, int, int], tuple[int, int], tuple[int, int]]:
    """The ₃F₂ restatement of the tuple: integer upper and lower parameters,
    and the prefactor t₀ as an unreduced pair (num, den) of factorials,
    read from facts[j] = j! for j ≤ max(m, n)."""
    shift = n + l - 2 * k
    if shift < 0:
        raise UnsupportedMappingError(
            f"n+l-2k = {shift} < 0: the sum starts above i = 0 and has no "
            "clean series form here; use km_sum"
        )
    return (
        (-k, n - k + 1, l - m),
        (-m, shift + 1),
        (facts[m] * facts[n - k], facts[k] * facts[m - l] * facts[shift]),
    )


def to_3f2(p: KMParams) -> tuple[HypergeomSpec, Fraction]:
    """Restate km_sum(p) as prefactor × ₃F₂(…; 1).

    Requires n+l-2k ≥ 0 so the i = 0 summand is nonzero; the excluded case
    is covered by km_sum directly.
    """
    upper, lower, prefactor = _series_map(_factorials(max(p.m, p.n)), *p)
    spec = HypergeomSpec(
        upper=tuple(map(Fraction, upper)),
        lower=tuple(map(Fraction, lower)),
        argument=Fraction(1),
    )
    return spec, Fraction(*prefactor)


def _truncation_index(upper: Iterable[Rational]) -> Optional[int]:
    """Smallest |a| over the non-positive-integer upper parameters, or None
    when there is none and the series does not terminate."""
    t = None
    for a in upper:
        if a.denominator == 1 and a.numerator <= 0 and (t is None or -a.numerator < t):
            t = -a.numerator
    return t


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

    The upper parameters must include a non-positive integer; T is the
    truncation index.  Before any term is formed, the numerators of the
    lower factors b₁+i and b₂+i, i < T, are searched for a zero, and the
    earliest one raises IllDefinedSeriesError.  Horner's rule,
    1 + r₀(1 + r₁(… (1 + r_{T-1}))), then runs over the factors from the
    last term ratio r_{T-1} back to r₀ on one integer pair acc_num/acc_den.
    """
    t = _truncation_index(upper)
    (a1, a2, a3), (b1, b2) = upper, lower
    ys1, ys2 = _pochhammer_numerators(b1, t), _pochhammer_numerators(b2, t)
    i1 = ys1.index(0) if 0 in ys1 else t
    i2 = ys2.index(0) if 0 in ys2 else t
    if min(i1, i2) < t:
        i, b = (i1, b1) if i1 <= i2 else (i2, b2)
        raise IllDefinedSeriesError(
            f"lower parameter {b} hits zero at index {i + 1} "
            f"(truncation index {t})"
        )
    num_scale = z.numerator * b1.denominator * b2.denominator
    den_scale = z.denominator * a1.denominator * a2.denominator * a3.denominator
    acc_num = acc_den = 1
    for j, x1, x2, x3, y1, y2 in zip(
        range(t, 0, -1),
        reversed(_pochhammer_numerators(a1, t)),
        reversed(_pochhammer_numerators(a2, t)),
        reversed(_pochhammer_numerators(a3, t)),
        reversed(ys1),
        reversed(ys2),
    ):
        acc_den *= den_scale * y1 * y2 * j
        acc_num = acc_den + num_scale * x1 * x2 * x3 * acc_num
    return acc_num, acc_den
