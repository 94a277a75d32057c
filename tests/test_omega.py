"""Singular vectors and the ω_k forms.

Ground truth is always the brute route (closed-form b, then exact matrix
algebra); the closed forms are checked against it, never the other way
around.  Frozen values below were first computed by hand substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2forms import omega
from sl2forms.forms import canonical_form, evaluate, tensor_form
from sl2forms.modules import (
    ModuleVector,
    act,
    tensor_of_irreducibles,
    weight_space_indices,
)
from sl2forms.omega import (
    InconsistencyError,
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

small_m = st.integers(min_value=0, max_value=6)
nonzero_q = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


def mnk_triples(max_mn=6):
    return st.tuples(
        st.integers(min_value=0, max_value=max_mn),
        st.integers(min_value=0, max_value=max_mn),
    ).flatmap(
        lambda mn: st.tuples(
            st.just(mn[0]),
            st.just(mn[1]),
            st.integers(min_value=0, max_value=min(mn)),
        )
    )


def term(module, name):
    """Coordinate index of a named tensor basis vector."""
    return module.basis_names.index(name)


def weight_space_basis(module, w):
    """The standard basis vectors of weight w, in basis order."""
    return [ModuleVector(module, ((j, 1),)) for j in weight_space_indices(module, w)]


class TestBClosedForm:
    def test_k0_is_lowest_weight_vector(self):
        for m, n in [(0, 0), (3, 2), (5, 5)]:
            b = b_closed_form(m, n, 0)
            assert b.terms == ((0, 1),)

    def test_1_1_1(self):
        t = tensor_of_irreducibles(1, 1)
        b = dict(b_closed_form(1, 1, 1).terms)
        assert b[term(t, "e_{-1}⊗ẽ_{1}")] == 1
        assert b[term(t, "e_{1}⊗ẽ_{-1}")] == -1
        assert len(b) == 2

    def test_2_3_2(self):
        t = tensor_of_irreducibles(2, 3)
        b = dict(b_closed_form(2, 3, 2).terms)
        assert b[term(t, "e_{-2}⊗ẽ_{1}")] == 1
        assert b[term(t, "e_{0}⊗ẽ_{-1}")] == -1
        assert b[term(t, "e_{2}⊗ẽ_{-3}")] == 1
        assert len(b) == 3

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError):
            b_closed_form(2, 2, 3)
        with pytest.raises(ValueError):
            b_closed_form(2, 2, -1)

    @settings(max_examples=30)
    @given(mnk_triples())
    def test_y_annihilates_and_weight(self, mnk):
        m, n, k = mnk
        b = b_closed_form(m, n, k)
        assert y_annihilates(b)
        h_b = act(b.module, "H", b)
        w = -(m + n) + 2 * k
        assert h_b.terms == tuple((j, c * w) for j, c in b.terms if w)


class TestYKernelRoute:
    def test_frozen_examples(self):
        t = tensor_of_irreducibles(1, 1)
        v = dict(y_kernel_singular(1, 1, 1).terms)
        assert v[term(t, "e_{-1}⊗ẽ_{1}")] == 1
        assert v[term(t, "e_{1}⊗ẽ_{-1}")] == -1

        t22 = tensor_of_irreducibles(2, 2)
        w = dict(y_kernel_singular(2, 2, 1).terms)
        assert w[term(t22, "e_{-2}⊗ẽ_{0}")] == 1
        assert w[term(t22, "e_{0}⊗ẽ_{-2}")] == -1
        assert len(w) == 2

    @settings(max_examples=30)
    @given(mnk_triples())
    def test_matches_closed_form(self, mnk):
        m, n, k = mnk
        assert y_kernel_singular(m, n, k) == b_closed_form(m, n, k)


class TestXPowerRoutes:
    def test_s_zero_returns_b(self):
        assert x_power_b_brute(1, 1, 1) == b_closed_form(1, 1, 1)

    def test_1_1_0(self):
        t = tensor_of_irreducibles(1, 1)
        v = x_power_b_brute(1, 1, 0)
        assert v.terms == ((term(t, "e_{1}⊗ẽ_{1}"), 2),)

    def test_2_1_1_by_hand(self):
        # X(e_{-2}⊗ẽ_{1} - e_{0}⊗ẽ_{-1}) = 2e_{0}⊗ẽ_{1} - 2e_{2}⊗ẽ_{-1} - e_{0}⊗ẽ_{1}
        #                                = e_{0}⊗ẽ_{1} - 2e_{2}⊗ẽ_{-1}
        t = tensor_of_irreducibles(2, 1)
        v = dict(x_power_b_brute(2, 1, 1).terms)
        assert v[term(t, "e_{0}⊗ẽ_{1}")] == 1
        assert v[term(t, "e_{2}⊗ẽ_{-1}")] == -2
        assert len(v) == 2

    def test_k0_single_term_coefficient(self):
        # k = 0 collapses the closed form to the single top term
        # (m+n)!·m!·n! · e_{m}⊗ẽ_{n}
        from sl2forms.rationals import factorial

        for m, n in [(1, 2), (3, 3), (4, 1)]:
            v = x_power_b_closed(m, n, 0)
            top = factorial(m + n) * factorial(m) * factorial(n)
            assert v.terms == ((v.module.dim - 1, top),)

    @settings(max_examples=30)
    @given(mnk_triples())
    def test_routes_agree(self, mnk):
        m, n, k = mnk
        assert x_power_b_brute(m, n, k) == x_power_b_closed(m, n, k)

    @settings(max_examples=20)
    @given(mnk_triples())
    def test_result_lies_in_weight_s_space(self, mnk):
        m, n, k = mnk
        v = x_power_b_brute(m, n, k)
        s = m + n - 2 * k
        h_v = act(v.module, "H", v)
        assert h_v.terms == tuple((j, c * s) for j, c in v.terms if s)


class TestOmegaValues:
    def test_frozen_spot_values(self):
        assert omega_value(1, 1, 0, 1, 1) == 2
        assert omega_value(1, 1, 1, 1, 1) == -2
        assert omega_value(2, 1, 0, 1, 1) == 12
        assert omega_value(2, 1, 1, 1, 1) == -3

    def test_closed_matches_spot_values(self):
        assert omega_closed(1, 1, 1, 1, 1) == -2
        assert omega_closed(2, 1, 1, 1, 1) == -3

    def test_diagonal_k_equals_m(self):
        # s_m = 0 and every summand is 1, so ω_m = (-1)^m (m+1) at q = r = 1
        for m in range(7):
            assert omega_closed(m, m, m, 1, 1) == (-1) ** m * (m + 1)
            assert omega_value(m, m, m, 1, 1) == (-1) ** m * (m + 1)

    def test_bilinearity_in_qr(self):
        assert omega_value(1, 1, 0, 1, -1) == -2
        assert omega_closed(2, 1, 1, Fraction(1, 2), Fraction(3)) == Fraction(-9, 2)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            omega_value(1, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            omega_closed(1, 1, 0, 1, 0)

    @settings(max_examples=30)
    @given(mnk_triples(), nonzero_q, nonzero_q)
    def test_routes_agree(self, mnk, q, r):
        m, n, k = mnk
        assert omega_value(m, n, k, q, r) == omega_closed(m, n, k, q, r)

    @settings(max_examples=15)
    @given(mnk_triples(max_mn=4), nonzero_q, nonzero_q)
    def test_omega_is_symmetric_on_weight_space(self, mnk, q, r):
        """ω_k(v,w) = (Q⊗R)(v, X^s w) is symmetric on the weight-(-s_k) space."""
        m, n, k = mnk
        t = tensor_of_irreducibles(m, n)
        form = tensor_form(canonical_form(m, q), canonical_form(n, r), t)
        s = m + n - 2 * k
        vecs = weight_space_basis(t, -(m + n) + 2 * k)

        def omega(u, w):
            powered = w
            for _ in range(s):
                powered = act(t, "X", powered)
            return evaluate(form, u, powered)

        for u in vecs:
            for w in vecs:
                assert omega(u, w) == omega(w, u)


class TestOmegaTable:
    def test_1_1_table(self):
        rows = omega_table(1, 1, 1, 1).rows
        assert [(r.k, r.s, r.value, r.sign) for r in rows] == [
            (0, 2, 2, 1),
            (1, 0, -2, -1),
        ]

    def test_2_1_table(self):
        rows = omega_table(2, 1, 1, 1).rows
        assert [(r.k, r.s, r.value, r.sign) for r in rows] == [
            (0, 3, 12, 1),
            (1, 1, -3, -1),
        ]

    def test_new_q_is_not_served_a_cached_form(self):
        # Q⊗R is cached per pair; a second q on the same pair must rebuild it
        q, q2, r = Fraction(2), Fraction(-3, 7), Fraction(5)
        first = [row.value for row in omega_table(3, 2, q, r).rows]
        second = [row.value for row in omega_table(3, 2, q2, r).rows]
        assert second == [v * q2 / q for v in first]
        assert second == [omega_closed(3, 2, k, q2, r) for k in range(3)]
        assert [omega_value(3, 2, k, q, r) for k in range(3)] == first

    def test_m0_single_row_sign_qr(self):
        for q, r in [(1, 1), (1, -1), (Fraction(1, 2), Fraction(-3))]:
            report = omega_table(0, 4, q, r)
            assert len(report.rows) == 1
            assert report.rows[0].sign == sign(Fraction(q) * Fraction(r))

    @settings(max_examples=25)
    @given(mnk_triples(), nonzero_q, nonzero_q)
    def test_sign_law(self, mnk, q, r):
        m, n, _ = mnk
        report = omega_table(m, n, q, r)
        assert report.alternating
        base = sign(Fraction(q) * Fraction(r))
        for row in report.rows:
            assert row.sign == (-1) ** row.k * base

    def test_alternation_examples(self):
        rep = omega_table(5, 3, 1, 1)
        assert rep.alternating
        assert [r.sign for r in rep.rows] == [1, -1, 1, -1]
        rep = omega_table(5, 3, 1, -1)
        assert rep.alternating
        assert [r.sign for r in rep.rows] == [-1, 1, -1, 1]
        assert omega_table(0, 0, 2, 3).alternating

    def test_wrong_signs_are_not_alternating(self, monkeypatch):
        # both routes negated: they agree, and every sign is wrong
        for name in ("evaluate", "omega_closed"):
            monkeypatch.setattr(omega, name, lambda *a, f=getattr(omega, name): -f(*a))
        report = omega_table(3, 2, 1, 1)
        assert [row.sign for row in report.rows] == [-1, 1, -1]
        assert report.alternating is False
