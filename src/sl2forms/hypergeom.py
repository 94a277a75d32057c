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

Both sweeps carry only integers and build no record per tuple.  Each
builds its tables once per sweep, sized by the bound, and walks (k, l)
outermost, so that what depends only on k, l and m is computed once for a
whole block of n; each puts its failures back in the (m, n, k, l) order of
`admissible_tuples`.  The one-tuple entry points are the plain
definitions, and the sweeps are tested against them:

- Direct route.  `km_scaled_sum` is the integer sum as written above,
  2(k+1) `perm` calls.  `km_range_verify` reads the same factors from the
  tables of `_km_tables`, falling[j][x] = perm(x, j) and (-1)^i C(k, i):
  the windows perm(n-k+i, k-l) once per (k, l), the left vector
  u_i = (-1)^i C(k, i)·perm(m-i, l) once per m, and one dot product per n.
- Series route.  `to_3f2` gives the parameters and the prefactor t₀ from
  factorials (never `perm`, so the routes share no arithmetic).
  `eval_3f2_terminating` is the series as defined: each term is the last
  one times the term ratio, summed in `Fraction`s.  `series_route_verify`
  writes each tuple's integer parameters and prefactor inline, sums the
  series with `_horner`, Horner's rule on one unreduced integer
  numerator/denominator pair, and compares by cross-multiplication.  The
  reference and the sweep share only `_truncation_index` and
  `_check_lower` (the lower-parameter guard), and no arithmetic.

Each sweep reports the number of tuples it checked, and `km_tuple_count`
and `series_tuple_count` give the numbers its bound promises by counting
alone, never by walking tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional

from .rationals import factorial
from .records import frozen


class UnsupportedMappingError(ValueError):
    """The hypergeometric restatement does not cover this parameter tuple."""


class IllDefinedSeriesError(ValueError):
    """A lower Pochhammer factor vanishes at or before the truncation index."""


@frozen
class KMParams(NamedTuple):
    """Integer parameters with 0 ≤ l ≤ k ≤ min(m, n)."""

    k: int
    l: int
    m: int
    n: int

    def _check(self) -> None:
        k, l, m, n = self
        if not 0 <= l <= k <= min(m, n):
            raise ValueError(
                f"need 0 <= l <= k <= min(m, n); got k={k}, l={l}, m={m}, n={n}"
            )


@frozen
class HypergeomSpec(NamedTuple):
    """A ₃F₂ series: three upper parameters, two lower, one argument.

    At least one upper parameter must be a non-positive integer so the
    series terminates.
    """

    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]
    argument: Fraction

    def _check(self) -> None:
        if _truncation_index(self.upper) is None:
            raise ValueError(
                "series does not terminate: no upper parameter is a "
                "non-positive integer"
            )

    @property
    def truncation_index(self) -> int:
        """Smallest |a| over non-positive-integer upper parameters."""
        return _truncation_index(self.upper)


@frozen
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


def _km_tables(top: int) -> tuple[list[list[int]], list[list[int]]]:
    """The direct route's tables for tuples with m, n ≤ top:
    falling[j][x] = perm(x, j) and signed[k][i] = (-1)^i C(k, i)."""
    falling = [[perm(x, j) for x in range(top + 1)] for j in range(top + 1)]
    signed = [[-comb(k, i) if i & 1 else comb(k, i) for i in range(k + 1)]
              for k in range(top + 1)]
    return falling, signed


def km_scaled_sum(p: KMParams) -> int:
    """k! times the left-hand sum, in integers (expected: (-1)^{k+l} k!):
    Σᵢ (-1)^i C(k, i)·perm(m-i, l)·perm(n-k+i, k-l) over i = 0..k."""
    k, l, m, n = p
    return sum((-1) ** i * comb(k, i) * perm(m - i, l) * perm(n - k + i, k - l)
               for i in range(k + 1))


def km_sum(p: KMParams) -> Fraction:
    """The left-hand sum, exactly (expected value: (-1)^{k+l})."""
    return Fraction(km_scaled_sum(p), factorial(p.k))


def km_check(p: KMParams) -> bool:
    """True iff the sum equals (-1)^{k+l} exactly, compared in integers."""
    return km_scaled_sum(p) == (-1) ** (p.k + p.l) * factorial(p.k)


def admissible_tuples(bound: int) -> Iterator[KMParams]:
    """Yield every KMParams with 0 ≤ m, n ≤ bound, 0 ≤ l ≤ k ≤ min(m, n),
    in (m, n, k, l) order."""
    for m in range(bound + 1):
        for n in range(bound + 1):
            for k in range(min(m, n) + 1):
                for l in range(k + 1):
                    yield KMParams(k=k, l=l, m=m, n=n)


def km_tuple_count(bound: int) -> int:
    """The number of admissible tuples with m, n ≤ bound, by counting alone:
    min(m, n) = j on 2(bound-j)+1 pairs (m, n), each with (j+1)(j+2)/2
    tuples (k, l)."""
    return sum((2 * (bound - j) + 1) * (j + 1) * (j + 2) // 2 for j in range(bound + 1))


def series_tuple_count(bound: int) -> int:
    """The number of those tuples with n+l-2k ≥ 0, by counting alone.  Given
    k and n = k+d, l runs from max(0, k-d) to k: min(k, d)+1 values.  Over
    d = 0..bound-k that is d+1 up to d = k and k+1 after it, the same for
    each of the bound-k+1 values of m ≥ k."""
    total = 0
    for k in range(bound + 1):
        top = bound - k
        if top <= k:
            per_m = (top + 1) * (top + 2) // 2
        else:
            per_m = (k + 1) * (k + 2) // 2 + (top - k) * (k + 1)
        total += (bound - k + 1) * per_m
    return total


def km_range_verify(bound: int) -> KMSweepReport:
    """Run km_check on every admissible tuple with m, n ≤ bound.

    The walk is (k, l) outermost; the failures come back in the order of
    `admissible_tuples`.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    falling, signed = _km_tables(bound)
    facts = _factorials(bound)
    count = 0
    failures = []
    for k in range(bound + 1):
        span = range(k, bound + 1)  # both m and n run over it
        for l in range(k + 1):
            want = -facts[k] if (k + l) & 1 else facts[k]
            # perm(n-k+i, k-l), i = 0..k: the same slices for every m
            row = falling[k - l]
            windows = [row[n - k:n + 1] for n in span]
            for m in span:
                # u_i = (-1)^i C(k, i)·perm(m-i, l), the part free of n
                u = list(map(mul, signed[k], falling[l][m - k:m + 1][::-1]))
                sums = [sum(map(mul, u, w)) for w in windows]
                if sums.count(want) != len(sums):
                    failures += [(k, l, m, n) for n, s in zip(span, sums) if s != want]
                count += len(sums)
    failures.sort(key=lambda t: (t[2], t[3], t[0], t[1]))
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def series_route_verify(bound: int) -> KMSweepReport:
    """Check prefactor × ₃F₂ = (-1)^{k+l} on every mappable tuple, m, n ≤ bound.

    Tuples with n+l-2k < 0 fall outside the series restatement and are
    skipped (they are covered by km_range_verify).  The walk is (k, l, m)
    outermost and n innermost from 2k-l, the first n with n+l-2k ≥ 0.  Over
    one block of n only a₂ = n-k+1 and b₂ = n+l-2k+1 change, and both are
    positive, so the truncation index and the lower-parameter guard of the
    block's first tuple hold for every tuple of it: each is taken once per
    block, by the same `_truncation_index` and `_check_lower` as
    `eval_3f2_terminating`.  Each tuple is then the parameters and
    prefactor of `to_3f2`, in integers, and one call of the Horner kernel.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative (got {bound})")
    facts = _factorials(bound)
    count = 0
    failures = []
    for k in range(bound + 1):
        for l in range(k + 1):
            odd = (k + l) & 1
            first = 2 * k - l
            ns = range(first, bound + 1)
            for m in range(k, bound + 1):
                # the parameters of the block's first tuple, n = 2k-l
                t = _truncation_index((-k, first - k + 1, l - m))
                _check_lower(t, -m, 1)
                pre_num, pre_den = facts[m], facts[k] * facts[m - l]
                # n-k runs from k-l and n+l-2k from 0 as n runs over ns
                for n, f_nk, f_shift in zip(ns, facts[k - l:], facts):
                    num, den = _horner(t, -k, n - k + 1, l - m, -m, n + l - 2 * k + 1)
                    # prefactor·num/den = (-1)^{k+l}, cross-multiplied
                    if pre_num * f_nk * num != pre_den * f_shift * (-den if odd else den):
                        failures.append((k, l, m, n))
                    count += 1
    failures.sort(key=lambda t: (t[2], t[3], t[0], t[1]))
    return KMSweepReport(bound=bound, tuples=count, failures=tuple(failures))


def to_3f2(p: KMParams) -> tuple[HypergeomSpec, Fraction]:
    """Restate km_sum(p) as prefactor × ₃F₂(…; 1).

    Requires n+l-2k ≥ 0 so the i = 0 summand is nonzero; the excluded case
    is covered by km_sum directly.
    """
    k, l, m, n = p
    shift = n + l - 2 * k
    if shift < 0:
        raise UnsupportedMappingError(
            f"n+l-2k = {shift} < 0: the sum starts above i = 0 and has no "
            "clean series form here; use km_sum"
        )
    spec = HypergeomSpec(
        upper=(Fraction(-k), Fraction(n - k + 1), Fraction(l - m)),
        lower=(Fraction(-m), Fraction(shift + 1)),
        argument=Fraction(1),
    )
    prefactor = Fraction(factorial(m) * factorial(n - k),
                         factorial(k) * factorial(m - l) * factorial(shift))
    return spec, prefactor


def _truncation_index(upper: Iterable[Rational]) -> Optional[int]:
    """Smallest |a| over the non-positive-integer upper parameters, or None
    when there is none and the series does not terminate."""
    t = None
    for a in upper:
        if a.denominator == 1 and a.numerator <= 0 and (t is None or -a.numerator < t):
            t = -a.numerator
    return t


def eval_3f2_terminating(spec: HypergeomSpec) -> Fraction:
    """Σ_{i=0}^{T} (a₁)ᵢ(a₂)ᵢ(a₃)ᵢ / ((b₁)ᵢ(b₂)ᵢ i!) zⁱ with exact arithmetic.

    T is the truncation index; before any term is formed, `_check_lower`
    raises IllDefinedSeriesError if a lower Pochhammer factor vanishes at or
    before T.  Term i+1 is term i times (a₁+i)(a₂+i)(a₃+i)·z over
    (b₁+i)(b₂+i)(i+1), in `Fraction`s.
    """
    t = spec.truncation_index
    (a1, a2, a3), (b1, b2) = spec.upper, spec.lower
    _check_lower(t, b1, b2)
    term = total = Fraction(1)
    for i in range(t):
        term *= (a1 + i) * (a2 + i) * (a3 + i) * spec.argument
        term /= (b1 + i) * (b2 + i) * (i + 1)
        total += term
    return total


def _check_lower(t: int, b1: Rational, b2: Rational) -> None:
    """Raise IllDefinedSeriesError if a lower factor b+i, i < t, vanishes:
    b is then an integer with 0 ≤ -b < t.  The earlier index is named, b₁
    on a tie."""
    hits = [(-b.numerator, j, b) for j, b in enumerate((b1, b2))
            if b.denominator == 1 and 0 <= -b.numerator < t]
    if hits:
        i, _, b = min(hits)
        raise IllDefinedSeriesError(
            f"lower parameter {b} hits zero at index {i + 1} (truncation index {t})"
        )


def _horner(t: int, x1: int, x2: int, x3: int, y1: int, y2: int) -> tuple[int, int]:
    """The Horner kernel: 1 + r₀(1 + r₁(… (1 + r_{t-1}))) as an unreduced
    integer pair (num, den), where the term ratio r_i is
    (x1 + i)(x2 + i)(x3 + i) / ((y1 + i)(y2 + i)(i+1)).

    The factors run from index t-1 down to 0; no lower factor may vanish
    below index t.
    """
    num = den = 1
    for i in range(t - 1, -1, -1):
        den *= (y1 + i) * (y2 + i) * (i + 1)
        num = den + (x1 + i) * (x2 + i) * (x3 + i) * num
    return num, den
