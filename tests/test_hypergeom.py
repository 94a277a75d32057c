"""The factorial identity: direct summation, exhaustive sweeps, terminating
series restatement, and consistency with the tensor-module computation
(which derives the same sum without ever invoking the identity)."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2forms import hypergeom
from sl2forms.hypergeom import (
    HypergeomSpec,
    IllDefinedSeriesError,
    KMParams,
    UnsupportedMappingError,
    admissible_tuples,
    eval_3f2_terminating,
    km_check,
    km_range_verify,
    km_scaled_sum,
    km_sum,
    series_route_verify,
    to_3f2,
)
from sl2forms.rationals import factorial, reciprocal_factorial


def km_params(max_mn=10):
    return st.tuples(
        st.integers(min_value=0, max_value=max_mn),
        st.integers(min_value=0, max_value=max_mn),
    ).flatmap(
        lambda mn: st.integers(min_value=0, max_value=min(mn)).flatmap(
            lambda k: st.integers(min_value=0, max_value=k).map(
                lambda l: KMParams(k=k, l=l, m=mn[0], n=mn[1])
            )
        )
    )


def reference_km_sum(p):
    """The sum as one Fraction per reciprocal factorial, 1/j! = 0 for j < 0."""
    total = Fraction(0)
    for i in range(p.k + 1):
        total += (
            (-1) ** i
            * factorial(p.m - i)
            * factorial(p.n - p.k + i)
            * reciprocal_factorial(i)
            * reciprocal_factorial(p.k - i)
            * reciprocal_factorial(p.m - p.l - i)
            * reciprocal_factorial(p.n + p.l - 2 * p.k + i)
        )
    return total


def naive_3f2(spec):
    """Σ terms, each built from one Fraction per Pochhammer factor."""
    t = spec.truncation_index
    for i in range(t):
        for b in spec.lower:
            if b + i == 0:
                raise IllDefinedSeriesError(
                    f"lower parameter {b} hits zero at index {i + 1} "
                    f"(truncation index {t})"
                )
    total = Fraction(0)
    for i in range(t + 1):
        term = Fraction(spec.argument) ** i
        for j in range(i):
            for a in spec.upper:
                term *= Fraction(a + j)
            for b in spec.lower:
                term /= Fraction(b + j)
            term /= j + 1
        total += term
    return total


series_params = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def terminating_specs(draw):
    """Specs with one non-positive integer upper parameter in any slot,
    lower parameters that are often non-positive integers (so some specs
    are ill-defined), and an argument other than 1."""
    upper = draw(st.permutations([
        Fraction(-draw(st.integers(min_value=0, max_value=6))),
        draw(series_params),
        draw(series_params),
    ]))
    lower_param = st.one_of(
        series_params, st.integers(min_value=-6, max_value=0).map(Fraction)
    )
    lower = (draw(lower_param), draw(lower_param))
    argument = draw(
        st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
            lambda z: z != 1
        )
    )
    return HypergeomSpec(upper=tuple(upper), lower=lower, argument=argument)


class TestKMParams:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            KMParams(k=3, l=0, m=2, n=5)
        with pytest.raises(ValueError):
            KMParams(k=1, l=2, m=3, n=3)
        with pytest.raises(ValueError):
            KMParams(k=0, l=0, m=-1, n=0)


class TestRecords:
    """KMParams, HypergeomSpec and KMSweepReport are immutable value records
    that the process pool can pickle."""

    SPEC = HypergeomSpec(
        upper=(Fraction(-2), Fraction(1, 2), Fraction(1)),
        lower=(Fraction(3), Fraction(1)),
        argument=Fraction(-1, 3),
    )

    def test_invalid_input_messages(self):
        with pytest.raises(ValueError) as raised:
            KMParams(3, 0, 2, 5)
        assert str(raised.value) == (
            "need 0 <= l <= k <= min(m, n); got k=3, l=0, m=2, n=5"
        )
        with pytest.raises(ValueError) as raised:
            HypergeomSpec(
                upper=(Fraction(1), Fraction(2), Fraction(1, 2)),
                lower=(Fraction(1), Fraction(1)),
                argument=Fraction(1),
            )
        assert str(raised.value) == (
            "series does not terminate: no upper parameter is a "
            "non-positive integer"
        )

    def test_repr(self):
        assert repr(KMParams(k=2, l=1, m=3, n=4)) == "KMParams(k=2, l=1, m=3, n=4)"
        assert repr(self.SPEC) == (
            "HypergeomSpec(upper=(Fraction(-2, 1), Fraction(1, 2), "
            "Fraction(1, 1)), lower=(Fraction(3, 1), Fraction(1, 1)), "
            "argument=Fraction(-1, 3))"
        )
        assert repr(km_range_verify(1)) == (
            "KMSweepReport(bound=1, tuples=6, failures=())"
        )

    @pytest.mark.parametrize("record, field", [
        (KMParams(k=2, l=1, m=3, n=4), "k"),
        (SPEC, "upper"),
        (km_range_verify(2), "tuples"),
    ], ids=["KMParams", "HypergeomSpec", "KMSweepReport"])
    def test_immutable_hashable_and_picklable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is type(record) and copy == record
            assert hash(copy) == hash(record)

    def test_keyword_construction_and_tuple_equality(self):
        p = KMParams(k=2, l=1, m=3, n=4)
        assert (p.k, p.l, p.m, p.n) == (2, 1, 3, 4) == p
        assert self.SPEC.truncation_index == 2
        assert km_range_verify(1).ok


class TestKMSum:
    def test_k0_is_one(self):
        for m, n in [(0, 0), (5, 7), (12, 3)]:
            assert km_sum(KMParams(0, 0, m, n)) == 1

    def test_1_0_1_1(self):
        # terms: i=0 → 1!·0!/(0!1!·1!·0!)... computed by hand: 1 - 2 = -1
        assert km_sum(KMParams(1, 0, 1, 1)) == -1

    def test_1_1_2_3(self):
        # hand expansion: i=0 term 2, i=1 term -1
        p = KMParams(1, 1, 2, 3)
        t0 = Fraction(factorial(2) * factorial(2), factorial(1) * factorial(1) * factorial(2))
        t1 = -Fraction(factorial(1) * factorial(3), factorial(1) * factorial(0) * factorial(3))
        assert t0 == 2 and t1 == -1
        assert km_sum(p) == 1

    def test_truncated_low_end(self):
        # n+l-2k < 0 makes early summands vanish through 1/(negative)! = 0
        p = KMParams(k=2, l=0, m=2, n=2)
        assert km_sum(p) == (-1) ** (p.k + p.l)

    def test_matches_reciprocal_factorial_reference(self):
        for p in admissible_tuples(10):
            reference = reference_km_sum(p)
            assert km_sum(p) == reference
            assert km_scaled_sum(p) == reference * factorial(p.k)

    @settings(max_examples=60)
    @given(km_params())
    def test_identity_everywhere(self, p):
        assert km_sum(p) == (-1) ** (p.k + p.l)
        assert km_check(p)


class TestSweep:
    def test_bound_zero(self):
        report = km_range_verify(0)
        assert report.tuples == 1 and report.ok

    def test_bound_one_enumeration(self):
        # (m,n)=(0,0),(0,1),(1,0) give one tuple each; (1,1) gives k=0 plus
        # k=1 with l∈{0,1}: six tuples in total
        report = km_range_verify(1)
        assert report.tuples == 6 and report.ok
        assert len(list(admissible_tuples(1))) == 6

    def test_tuple_count_formula(self):
        # per (m,n): Σ_{k≤min}(k+1) = (min+1)(min+2)/2
        for bound in range(5):
            expected = sum(
                (min(m, n) + 1) * (min(m, n) + 2) // 2
                for m in range(bound + 1)
                for n in range(bound + 1)
            )
            assert km_range_verify(bound).tuples == expected

    def test_closed_form_counts(self):
        for bound in range(9):
            tuples = list(admissible_tuples(bound))
            mapped = [p for p in tuples if p.n + p.l - 2 * p.k >= 0]
            assert hypergeom.km_tuple_count(bound) == len(tuples)
            assert hypergeom.series_tuple_count(bound) == len(mapped)
            assert km_range_verify(bound).tuples == len(tuples)
            assert series_route_verify(bound).tuples == len(mapped)

    def test_moderate_sweep_clean(self):
        report = km_range_verify(8)
        assert report.ok

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            km_range_verify(-1)


class TestSeriesForm:
    def test_k0_trivial(self):
        spec, prefactor = to_3f2(KMParams(0, 0, 4, 6))
        assert spec.truncation_index == 0
        assert eval_3f2_terminating(spec) == 1
        assert prefactor == 1

    def test_1_0_1_2(self):
        p = KMParams(1, 0, 1, 2)  # n+l-2k = 0, the smallest mappable shift
        spec, prefactor = to_3f2(p)
        assert prefactor * eval_3f2_terminating(spec) == km_sum(p) == -1

    def test_2_1_3_4(self):
        p = KMParams(2, 1, 3, 4)
        spec, prefactor = to_3f2(p)
        assert prefactor * eval_3f2_terminating(spec) == km_sum(p) == -1

    def test_unsupported_shift_rejected(self):
        with pytest.raises(UnsupportedMappingError):
            to_3f2(KMParams(k=2, l=0, m=2, n=2))  # n+l-2k = -2

    @settings(max_examples=60)
    @given(km_params())
    def test_routes_agree_wherever_mapped(self, p):
        if p.n + p.l - 2 * p.k < 0:
            with pytest.raises(UnsupportedMappingError):
                to_3f2(p)
            return
        spec, prefactor = to_3f2(p)
        assert prefactor * eval_3f2_terminating(spec) == km_sum(p)

    @pytest.mark.parametrize("k, l, m, n", [
        (1, 0, 1, 2), (2, 1, 3, 4), (4, 1, 9, 7), (6, 6, 6, 8), (5, 2, 12, 11),
    ])
    def test_definition_shares_no_code_with_the_sweep(self, monkeypatch, k, l, m, n):
        def sweep_only(*args):
            raise AssertionError("a sweep helper ran")

        for name in ("_horner", "_factorials", "_km_tables"):
            monkeypatch.setattr(hypergeom, name, sweep_only)
        spec, prefactor = to_3f2(KMParams(k, l, m, n))
        assert prefactor * eval_3f2_terminating(spec) == (-1) ** (k + l)

    def test_sweep_clean(self):
        assert series_route_verify(8).ok

    def test_sweep_counts_only_mapped_tuples(self):
        report = series_route_verify(2)
        skipped = sum(
            1 for p in admissible_tuples(2) if p.n + p.l - 2 * p.k < 0
        )
        assert report.tuples == len(list(admissible_tuples(2))) - skipped
        assert skipped > 0


class TestEval3F2:
    def test_zero_upper_parameter_truncates_immediately(self):
        spec = HypergeomSpec(
            upper=(Fraction(0), Fraction(5, 2), Fraction(-7)),
            lower=(Fraction(1, 3), Fraction(4)),
            argument=Fraction(9),
        )
        assert eval_3f2_terminating(spec) == 1

    def test_two_term_hand_expansion(self):
        spec = HypergeomSpec(
            upper=(Fraction(-1), Fraction(1), Fraction(1)),
            lower=(Fraction(1), Fraction(1)),
            argument=Fraction(1),
        )
        assert eval_3f2_terminating(spec) == 0

    def test_truncation_uses_smallest_magnitude(self):
        spec = HypergeomSpec(
            upper=(Fraction(-5), Fraction(-2), Fraction(3)),
            lower=(Fraction(1), Fraction(1)),
            argument=Fraction(1),
        )
        assert spec.truncation_index == 2

    def test_nonterminating_rejected(self):
        with pytest.raises(ValueError):
            HypergeomSpec(
                upper=(Fraction(1), Fraction(2), Fraction(1, 2)),
                lower=(Fraction(1), Fraction(1)),
                argument=Fraction(1),
            )

    def test_ill_defined_lower_parameter(self):
        spec = HypergeomSpec(
            upper=(Fraction(-3), Fraction(1), Fraction(1)),
            lower=(Fraction(-1), Fraction(1)),
            argument=Fraction(1),
        )
        with pytest.raises(IllDefinedSeriesError):
            eval_3f2_terminating(spec)

    @settings(max_examples=300)
    @given(terminating_specs())
    # Both lower parameters vanish before truncation, b₂ = 0 first.
    @example(HypergeomSpec(
        upper=(Fraction(-2), Fraction(1), Fraction(1)),
        lower=(Fraction(-1), Fraction(0)),
        argument=Fraction(0),
    ))
    def test_matches_naive_pochhammer_evaluation(self, spec):
        try:
            expected = naive_3f2(spec)
        except IllDefinedSeriesError as exc:
            with pytest.raises(IllDefinedSeriesError) as raised:
                eval_3f2_terminating(spec)
            assert str(raised.value) == str(exc)
            return
        assert eval_3f2_terminating(spec) == expected

    def test_lower_parameter_past_truncation_is_fine(self):
        # (-5)_i never vanishes for i ≤ 2, so truncation at 2 keeps this legal
        spec = HypergeomSpec(
            upper=(Fraction(-2), Fraction(1), Fraction(1)),
            lower=(Fraction(-5), Fraction(1)),
            argument=Fraction(1),
        )
        eval_3f2_terminating(spec)  # must not raise


class TestModuleLayerConsistency:
    """The tensor computation implies the identity: dividing the brute-force
    coefficient of X^{s_k}b by the identity-free part of its expansion must
    give exactly (-1)^i-summed factorial quotient that km_sum evaluates."""

    @settings(max_examples=25, deadline=None)
    @given(km_params(max_mn=6))
    def test_km_sum_equals_brute_coefficient_ratio(self, p):
        from sl2forms.omega import x_power_b_brute

        k, l, m, n = p.k, p.l, p.m, p.n
        brute = x_power_b_brute(m, n, k)
        coeff = dict(brute.terms)[(m - l) * (n + 1) + (n - k + l)]
        scale = Fraction(
            factorial(m + n - 2 * k) * factorial(m - l) * factorial(n - k + l),
            factorial(l) * factorial(k - l),
        )
        assert Fraction(coeff) / scale == km_sum(p)


class TestCorruptionOracles:
    """Each route can fail on its own: damaging one factor of one route
    fails exactly the tuples that use it, and leaves the other route clean."""

    BOUND = 10
    # perm(7, 6) occurs as perm(m-i, l) only with l = 6 and as
    # perm(n-k+i, k-l) only with k-l = 6; both at once would need k = 12,
    # past the bound, so no tuple holds it twice and nothing can cancel.
    BAD_PERM = (7, 6)
    # The last factor of (-3)_T, doubled; -3 can be a₁ = -k, a₃ = -(m-l)
    # or b₁ = -m in the series of to_3f2.
    BAD_PARAM = Fraction(-3)

    def test_falling_factorial_fails_direct_route_only(self, monkeypatch):
        def corrupted(x, y):
            return math.perm(x, y) + ((x, y) == self.BAD_PERM)

        monkeypatch.setattr(hypergeom, "perm", corrupted)
        expected = set()
        for p in admissible_tuples(self.BOUND):
            k, l, m, n = p.k, p.l, p.m, p.n
            for i in range(k + 1):
                first, second = (m - i, l), (n - k + i, k - l)
                if (first == self.BAD_PERM and math.perm(*second)) or (
                    second == self.BAD_PERM and math.perm(*first)
                ):
                    expected.add((k, l, m, n))
        assert expected
        failures = km_range_verify(self.BOUND).failures
        assert set(failures) == expected
        # the one-tuple definition reads the same corrupted `perm`
        assert [(p.k, p.l, p.m, p.n) for p in admissible_tuples(self.BOUND)
                if not km_check(p)] == list(failures)
        assert series_route_verify(self.BOUND).ok

    def test_pochhammer_factor_fails_series_route_only(self, monkeypatch):
        def corrupted(t, *parameters):
            # the kernel's series, summed here from its factor lists, with
            # the factor at index T-1 of each parameter x = -3 doubled
            factors = []
            for x in parameters:
                row = [x + i for i in range(t)]
                if row and x == self.BAD_PARAM:
                    row[-1] *= 2
                factors.append(row)
            xs1, xs2, xs3, ys1, ys2 = factors
            num = den = 1
            for j in range(t, 0, -1):
                den *= ys1[j - 1] * ys2[j - 1] * j
                num = den + xs1[j - 1] * xs2[j - 1] * xs3[j - 1] * num
            return num, den

        monkeypatch.setattr(hypergeom, "_horner", corrupted)
        # Terms t_0..t_T of these series are all nonzero, so doubling the
        # factor at index T-1 changes the last term and hence the sum,
        # unless -3 sits in as many upper as lower slots and the change
        # divides out of the term ratio.
        expected = set()
        for p in admissible_tuples(self.BOUND):
            k, l, m, n = p.k, p.l, p.m, p.n
            if n + l - 2 * k < 0 or min(k, m - l) == 0:
                continue
            upper_hits = (-k == self.BAD_PARAM) + (l - m == self.BAD_PARAM)
            if upper_hits != (-m == self.BAD_PARAM):
                expected.add((k, l, m, n))
        assert expected
        assert set(series_route_verify(self.BOUND).failures) == expected
        assert km_range_verify(self.BOUND).ok

    def test_failures_come_in_admissible_order(self, monkeypatch):
        # both routes walk k-major; a corruption that hits tuples of several
        # (k, l) blocks must still be reported in the (m, n, k, l) order of
        # admissible_tuples
        order = [(p.k, p.l, p.m, p.n) for p in admissible_tuples(self.BOUND)]
        monkeypatch.setattr(
            hypergeom, "perm", lambda x, y: math.perm(x, y) + ((x, y) == self.BAD_PERM)
        )
        direct = km_range_verify(self.BOUND).failures
        monkeypatch.undo()
        monkeypatch.setattr(
            hypergeom, "_factorials",
            lambda top: [math.factorial(j) + (j == 5) for j in range(top + 1)],
        )
        series = series_route_verify(self.BOUND).failures
        for failures in (direct, series):
            assert len({(k, l) for k, l, _, _ in failures}) > 1
            assert list(failures) == [t for t in order if t in set(failures)]


class TestIntegerCores:
    """The sweeps' kernel calls and verdicts against the one-tuple
    definitions on every admissible tuple up to the bound."""

    BOUND = 12

    def test_tuples_match_admissible_tuples_in_order(self):
        tuples = [(p.k, p.l, p.m, p.n) for p in admissible_tuples(self.BOUND)]
        lexicographic = sorted(set(tuples), key=lambda t: (t[2], t[3], t[0], t[1]))
        assert tuples == lexicographic

    def test_direct_core_and_sweep_match_km_scaled_sum(self):
        failures = []
        for p in admissible_tuples(self.BOUND):
            if not km_check(p):
                failures.append((p.k, p.l, p.m, p.n))
        report = km_range_verify(self.BOUND)
        assert report.failures == tuple(failures)
        assert report.tuples == len(list(admissible_tuples(self.BOUND)))

    @pytest.mark.parametrize("k, l, m, n", [
        (1, 0, 400, 400), (4, 2, 9, 30), (3, 3, 5, 3), (6, 1, 12, 6),
    ])
    def test_one_tuple_builds_only_the_rows_it_reads(self, monkeypatch, k, l, m, n):
        # the wrappers read `perm` from the module, like the sweep, so a
        # patched `hypergeom.perm` sees every call they make: two per
        # summand, however large m and n are
        calls = []

        def counted(x, j):
            calls.append((x, j))
            return math.perm(x, j)

        monkeypatch.setattr(hypergeom, "perm", counted)
        p = KMParams(k, l, m, n)
        for wrapper in (km_scaled_sum, km_sum, km_check):
            calls.clear()
            wrapper(p)
            assert len(calls) == 2 * (k + 1), wrapper.__name__
        assert km_scaled_sum(p) == (-1) ** (k + l) * math.factorial(k)

    def test_series_sweep_kernel_calls_match_to_3f2(self, monkeypatch):
        # The sweep takes the truncation index and the lower-parameter guard
        # once per block of n.  On every mapped tuple its kernel call must
        # still be the truncation index and the integer upper and lower
        # parameters of `to_3f2`.
        from collections import Counter

        calls = []
        kernel = hypergeom._horner
        monkeypatch.setattr(hypergeom, "_horner",
                            lambda *args: calls.append(args) or kernel(*args))
        assert series_route_verify(self.BOUND).ok
        expected = []
        for p in admissible_tuples(self.BOUND):
            if p.n + p.l - 2 * p.k >= 0:
                spec, _ = to_3f2(p)
                parameters = spec.upper + spec.lower
                assert all(x.denominator == 1 for x in parameters)
                expected.append((spec.truncation_index, *map(int, parameters)))
        assert len(expected) == hypergeom.series_tuple_count(self.BOUND)
        assert Counter(calls) == Counter(expected)

    def test_series_cores_and_sweep_match_to_3f2_and_eval(self):
        count, failures = 0, []
        for p in admissible_tuples(self.BOUND):
            t = (p.k, p.l, p.m, p.n)
            if p.n + p.l - 2 * p.k < 0:
                with pytest.raises(UnsupportedMappingError):
                    to_3f2(p)
                continue
            spec, prefactor = to_3f2(p)
            series = eval_3f2_terminating(spec)
            count += 1
            if prefactor * series != (-1) ** (p.k + p.l):
                failures.append(t)
        report = series_route_verify(self.BOUND)
        assert (report.tuples, report.failures) == (count, tuple(failures))
