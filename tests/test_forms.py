"""Bilinear forms: canonical anti-diagonal construction, *-compatibility,
structure recognition, induced tensor forms.  The classification is tested
from both directions — constructed forms pass the checker, and random
symmetric perturbations pass exactly when they keep the anti-diagonal
constant shape nondegenerate."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2forms.forms import (
    BilinearForm,
    canonical_form,
    evaluate,
    is_star_form,
    structure_of,
    tensor_form,
    tensor_of_canonical_forms,
)
from sl2forms.linalg import (
    ExactMatrix,
    diagonal,
    identity,
    mat_vec,
    rank,
    zeros,
)
from sl2forms.modules import (
    ModuleVector,
    irreducible,
    perturbed,
    tensor_of_irreducibles,
    tensor_product,
)

nonzero_q = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)


def gram_with(gram, changes):
    """gram with the entries at the (i, j) keys of `changes` replaced."""
    rows = [dict(row) for row in gram.nonzero_rows]
    for (i, j), v in changes.items():
        rows[i][j] = v
    return ExactMatrix.from_sparse(gram.rows, gram.cols, (r.items() for r in rows))


def basis_vector(module, j):
    return ModuleVector(module, ((j, 1),))


def vector(module, dense):
    """The vector of a module with the given dense coordinates."""
    return ModuleVector(module, tuple((j, x) for j, x in enumerate(dense) if x))


class TestCanonicalForm:
    def test_v1_gram(self):
        assert canonical_form(1, 3).gram.entries == ((0, 3), (3, 0))

    def test_v0_gram(self):
        assert canonical_form(0, Fraction(2, 7)).gram.entries == ((Fraction(2, 7),),)

    def test_v2_anti_diagonal_ones(self):
        assert canonical_form(2, 1).gram.entries == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(3, 0)

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError):
            BilinearForm(irreducible(1), ExactMatrix.from_rows([[0, 1], [2, 0]]))


@st.composite
def square_grams(draw):
    """A sparse d×d matrix, often symmetric: each drawn entry's mirror is
    left out, or stored with the same value (maybe of another type), or
    with a drawn value."""
    d = draw(st.integers(min_value=1, max_value=5))
    values = st.sampled_from([1, -1, 2, Fraction(1), Fraction(1, 2), Fraction(-3, 2)])
    index = st.integers(min_value=0, max_value=d - 1)
    drawn = draw(st.dictionaries(st.tuples(index, index), values, max_size=2 * d))
    entries = dict(drawn)
    for (i, j), v in drawn.items():
        mirror = draw(st.sampled_from([None, v, Fraction(v), draw(values)]))
        if mirror is not None:
            entries[j, i] = mirror
    rows = [[(j, v) for (i, j), v in entries.items() if i == row] for row in range(d)]
    return ExactMatrix.from_sparse(d, d, rows)


class TestSymmetryCheck:
    """`BilinearForm` reads symmetry off the stored rows, rejecting exactly
    the Gram matrices that differ from their transpose, and leaves no
    transpose on the Gram matrix of any form it builds."""

    @settings(max_examples=200)
    @given(square_grams())
    @example(ExactMatrix.from_sparse(2, 2, [[(1, 1)], []]))  # mirror entry absent
    @example(ExactMatrix.from_sparse(2, 2, [[(1, 1)], [(0, Fraction(1))]]))
    def test_rejects_exactly_the_asymmetric(self, gram):
        try:
            BilinearForm(irreducible(gram.rows - 1), gram)
            rejected = False
        except ValueError as exc:
            assert str(exc) == "gram matrix must be symmetric"
            rejected = True
        # the transpose is the oracle only, read after the form's own check
        assert rejected == (gram != gram.transpose)

    def test_constructed_forms_keep_no_transpose(self):
        q, r = Fraction(-3, 2), Fraction(5, 7)
        forms = [
            canonical_form(3, q),
            tensor_form(canonical_form(2, q), canonical_form(1, r),
                        tensor_of_irreducibles(2, 1)),
            tensor_of_canonical_forms(3, 2, q, r),
        ]
        for form in forms:
            assert "transpose" not in vars(form.gram)


class TestIsStarForm:
    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=12), nonzero_q)
    def test_canonical_forms_pass(self, m, q):
        assert is_star_form(irreducible(m), canonical_form(m, q)).ok

    def test_identity_gram_on_v1_fails_h_condition(self):
        report = is_star_form(irreducible(1), BilinearForm(irreducible(1), identity(2)))
        assert not report.ok
        assert "Q(Hu,v)=-Q(u,Hv)" in report.failures

    def test_v0_any_nonzero_scalar_passes(self):
        form = BilinearForm(irreducible(0), ExactMatrix.from_rows([[5]]))
        assert is_star_form(irreducible(0), form).ok

    def test_degenerate_form_reported(self):
        t = irreducible(0)
        report = is_star_form(t, BilinearForm(t, ExactMatrix.from_rows([[0]])))
        assert not report.nondegenerate and not report.ok

    def test_module_mismatch_rejected(self):
        # named by the module check, not by a shape error further on
        with pytest.raises(ValueError, match="form lives on V_1, not V_2"):
            is_star_form(irreducible(2), canonical_form(1, 1))
        with pytest.raises(ValueError, match="form lives on V_3, not V_2"):
            is_star_form(irreducible(2), canonical_form(3, 1))


class TestStructureOf:
    def test_constructor_round_trip(self):
        assert structure_of(canonical_form(3, Fraction(1, 2))) == (True, Fraction(1, 2))

    def test_identity_gram_not_anti_diagonal(self):
        form = BilinearForm(irreducible(1), identity(2))
        assert structure_of(form) == (False, None)

    def test_non_constant_anti_diagonal_rejected(self):
        gram = ExactMatrix.from_rows([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
        form = BilinearForm(irreducible(2), gram)
        assert structure_of(form) == (False, None)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_classification_matches_checker(self, m, data):
        """A symmetric perturbation of a canonical form passes is_star_form
        exactly when it is still anti-diagonal-constant and nondegenerate."""
        module = irreducible(m)
        d = module.dim
        grid = [list(row) for row in canonical_form(m, 1).gram.entries]
        i = data.draw(st.integers(min_value=0, max_value=d - 1))
        j = data.draw(st.integers(min_value=0, max_value=i))
        delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        grid[i][j] += delta
        grid[j][i] = grid[i][j]
        form = BilinearForm(module, ExactMatrix.from_rows(grid))
        shape_ok, constant = structure_of(form)
        expected = shape_ok and bool(constant)
        assert is_star_form(module, form).ok == expected


def fraction_star_check(module, gram):
    """`is_star_form`'s checks as they were before the integer path: the
    identity products and the rank taken on the Gram matrix itself, in
    `Fraction` arithmetic.  Oracle only."""
    failures = []
    if module.actX.transpose @ gram != gram @ module.actX:
        failures.append("Q(Xu,v)=Q(u,Xv)")
    if module.actY.transpose @ gram != gram @ module.actY:
        failures.append("Q(Yu,v)=Q(u,Yv)")
    if module.actH.transpose @ gram != (gram @ module.actH).scaled(-1):
        failures.append("Q(Hu,v)=-Q(u,Hv)")
    return tuple(failures), rank(gram) == module.dim


# Zero, negative, integer and mixed-denominator entries.
gram_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def modules_and_grams(draw):
    """A module V_m or V_m⊗V_n (m, n ≤ 3) and a symmetric Gram matrix on it.

    The base is one of: random symmetric entries; random entries on the
    (w, -w) weight pairs only, so the H identity holds; or the tensor form
    times a + b·Ω, Ω the Casimir element, which is compatible and is
    degenerate when a + b·s(s+2) = 0 for a summand V_s.  Then up to two
    symmetric pairs of entries are overwritten.
    """
    m = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        module, s_values = irreducible(m), [m]
        form = canonical_form(m, draw(nonzero_q))
    else:
        n = draw(st.integers(min_value=0, max_value=3))
        module = tensor_of_irreducibles(m, n)
        s_values = list(range(abs(m - n), m + n + 1, 2))
        form = tensor_form(
            canonical_form(m, draw(nonzero_q)), canonical_form(n, draw(nonzero_q)),
            module,
        )
    d, w = module.dim, module.weights
    base = draw(st.sampled_from(["random", "weight-paired", "casimir"]))
    if base == "casimir":
        x, y, h = module.actX, module.actY, module.actH
        casimir = (x @ y + y @ x).scaled(2) + h @ h
        b = draw(gram_entries)
        s = draw(st.sampled_from(s_values))
        a = draw(st.one_of(gram_entries, st.just(-b * s * (s + 2))))
        grid = [list(row) for row in
                (form.gram @ (identity(d).scaled(a) + casimir.scaled(b))).entries]
    else:
        grid = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1):
                if base == "random" or w[i] + w[j] == 0:
                    grid[i][j] = grid[j][i] = draw(gram_entries)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=d - 1))
        j = draw(st.integers(min_value=0, max_value=d - 1))
        grid[i][j] = grid[j][i] = draw(gram_entries)
    return module, ExactMatrix.from_rows(grid)


class TestIntegerGramOracle:
    @settings(max_examples=300, deadline=None)
    @given(modules_and_grams())
    def test_matches_fraction_products(self, case):
        module, gram = case
        report = is_star_form(module, BilinearForm(module, gram))
        assert (report.failures, report.nondegenerate) == fraction_star_check(
            module, gram
        )


class TestLargeTensorForm:
    """Corruption oracles for star-forms on V_20⊗V_20 (441-dim), whose Gram
    matrix is q·r times the anti-identity."""

    M = 20

    def form(self, q, r):
        t = tensor_of_irreducibles(self.M, self.M)
        return t, tensor_form(canonical_form(self.M, q), canonical_form(self.M, r), t)

    @pytest.mark.parametrize("r", [Fraction(-2, 5), Fraction(2, 5)])
    def test_passes_for_either_sign_of_qr(self, r):
        t, form = self.form(Fraction(3), r)
        assert is_star_form(t, form).ok

    def test_zeroed_anti_diagonal_pair_is_degenerate(self):
        # Zeroing one pair keeps the (w, -w) pairing, so the H identity
        # holds, but GX and GY are no longer symmetric.
        t, form = self.form(Fraction(3), Fraction(-2, 5))
        i, j = 7, t.dim - 1 - 7
        gram = gram_with(form.gram, {(i, j): 0, (j, i): 0})
        report = is_star_form(t, BilinearForm(t, gram))
        assert not report.nondegenerate
        assert report.failures == ("Q(Xu,v)=Q(u,Xv)", "Q(Yu,v)=Q(u,Yv)")

    def test_degenerate_compatible_form_fails_on_rank_alone(self):
        """G·(Ω - λ), with Ω = 2(XY + YX) + H² the Casimir element and
        λ = 40·42 its value on the top summand V_40, is symmetric and
        compatible, and kills V_40: only the rank route can reject it."""
        t, form = self.form(Fraction(3), Fraction(-2, 5))
        x, y, h = t.actX, t.actY, t.actH
        casimir = (x @ y + y @ x).scaled(2) + h @ h
        s = 2 * self.M
        gram = form.gram @ (casimir - identity(t.dim).scaled(s * (s + 2)))
        report = is_star_form(t, BilinearForm(t, gram))
        assert report.failures == ()
        assert not report.nondegenerate
        assert rank(gram) == t.dim - (s + 1)

    def test_pair_moved_off_weight_pairing_fails_h_identity(self):
        t, form = self.form(Fraction(3), Fraction(-2, 5))
        i, j = 7, t.dim - 1 - 7
        assert t.weights[i] + t.weights[j] == 0
        assert t.weights[i] + t.weights[j - 1] != 0
        value = dict(form.gram.nonzero_rows[i])[j]
        gram = gram_with(
            form.gram, {(i, j): 0, (j, i): 0, (i, j - 1): value, (j - 1, i): value}
        )
        report = is_star_form(t, BilinearForm(t, gram))
        assert "Q(Hu,v)=-Q(u,Hv)" in report.failures


class TestGramCorruption:
    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
    def test_off_pairing_bump_fails_the_h_identity(self, m, n):
        """A symmetric pair of Gram entries bumped off the (w, -w) weight
        pairing fails the H identity, and exactly the identities that the
        product matrices fail."""
        t = tensor_of_irreducibles(m, n)
        form = tensor_form(
            canonical_form(m, Fraction(3)), canonical_form(n, Fraction(-2, 5)), t
        )
        w = t.weights
        pairs = [(i, j) for i in range(t.dim) for j in range(i, t.dim) if w[i] + w[j]]
        assert pairs
        for i, j in pairs:
            gram = gram_with(form.gram, {(i, j): 1, (j, i): 1})
            report = is_star_form(t, BilinearForm(t, gram))
            assert "Q(Hu,v)=-Q(u,Hv)" in report.failures
            assert report.failures == fraction_star_check(t, gram)[0]


    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
    def test_bumped_h_matches_fraction_products(self, m, n):
        """H bumped at one entry: off its diagonal the H identity takes the
        row products, on it the diagonal check.  Either way the failures
        and the rank agree with the product matrices."""
        t = tensor_of_irreducibles(m, n)
        form = tensor_form(
            canonical_form(m, Fraction(3)), canonical_form(n, Fraction(-2, 5)), t
        )
        for i in range(t.dim):
            for j in range(t.dim):
                bad = perturbed(t, "H", i, j, Fraction(1, 2))
                assert (diagonal(bad.actH) is None) == (i != j)
                report = is_star_form(bad, BilinearForm(bad, form.gram))
                assert (report.failures, report.nondegenerate) == fraction_star_check(
                    bad, form.gram
                ), (i, j)
                # a nondegenerate Gram matrix fails every bump of H
                assert "Q(Hu,v)=-Q(u,Hv)" in report.failures, (i, j)


class TestTensorForm:
    def test_extreme_pairings(self):
        t = tensor_of_irreducibles(1, 1)
        q, r = Fraction(2), Fraction(-3)
        form = tensor_form(canonical_form(1, q), canonical_form(1, r), t)
        low = basis_vector(t, 0)   # e_{-1}⊗ẽ_{-1}
        high = basis_vector(t, 3)  # e_{1}⊗ẽ_{1}
        assert evaluate(form, low, high) == q * r
        assert evaluate(form, low, low) == 0

    def test_zero_pairing_propagates(self):
        t = tensor_of_irreducibles(1, 1)
        form = tensor_form(canonical_form(1, 1), canonical_form(1, 1), t)
        # Q(e_{-1}, e_{-1}) = 0 forces (Q⊗R)(e_{-1}⊗x, e_{-1}⊗y) = 0
        assert evaluate(form, basis_vector(t, 0), basis_vector(t, 1)) == 0

    @settings(max_examples=20)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        nonzero_q,
        nonzero_q,
    )
    def test_tensor_of_star_forms_is_star_form(self, m, n, q, r):
        t = tensor_of_irreducibles(m, n)
        form = tensor_form(canonical_form(m, q), canonical_form(n, r), t)
        assert is_star_form(t, form).ok

    def test_mismatched_module_rejected(self):
        t = tensor_of_irreducibles(1, 2)
        with pytest.raises(ValueError):
            tensor_form(canonical_form(1, 1), canonical_form(1, 1), t)

    def test_wrong_basis_order_rejected(self):
        # V_2⊗V_1 and V_1⊗V_2 have equal dimension but different weight order
        t = tensor_of_irreducibles(2, 1)
        with pytest.raises(ValueError):
            tensor_form(canonical_form(1, 1), canonical_form(2, 1), t)


class TestEvaluate:
    def test_frozen_examples(self):
        v = irreducible(1)
        form = canonical_form(1, 1)
        e_minus, e_plus = basis_vector(v, 0), basis_vector(v, 1)
        assert evaluate(form, e_minus, e_plus) == 1
        assert evaluate(form, e_plus, e_plus) == 0
        zero = ModuleVector(v, ())
        assert evaluate(form, zero, e_plus) == 0

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=5),
        nonzero_q,
        st.data(),
    )
    def test_symmetry(self, m, q, data):
        module = irreducible(m)
        form = canonical_form(m, q)
        coords = st.tuples(
            *[st.integers(min_value=-3, max_value=3) for _ in range(module.dim)]
        )
        u = vector(module, data.draw(coords))
        v = vector(module, data.draw(coords))
        assert evaluate(form, u, v) == evaluate(form, v, u)

    def test_module_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vector lives in V_2, not V_1"):
            evaluate(canonical_form(1, 1), basis_vector(irreducible(2), 0),
                     basis_vector(irreducible(1), 0))
        with pytest.raises(ValueError, match="vector lives in V_2, not V_1"):
            evaluate(canonical_form(1, 1), basis_vector(irreducible(1), 0),
                     basis_vector(irreducible(2), 0))

    def test_identity_gram_is_the_dot_product(self):
        v = irreducible(1)
        form = BilinearForm(v, identity(2))
        u, w = vector(v, (1, 2)), vector(v, (3, Fraction(1, 2)))
        assert evaluate(form, u, w) == 4
        assert type(evaluate(form, u, w)) is Fraction

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
           st.data())
    def test_matches_dot_of_mat_vec(self, m, n, data):
        """evaluate against u·(G v), with G a random symmetric sparse Gram
        matrix whose products often cancel."""
        module = tensor_of_irreducibles(m, n)
        d = module.dim
        sparse = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])
        half = ExactMatrix.from_rows(
            data.draw(st.lists(st.lists(sparse, min_size=d, max_size=d),
                               min_size=d, max_size=d))
        )
        form = BilinearForm(module, half + half.transpose)
        coords = st.tuples(*[sparse] * d)
        u, v = vector(module, data.draw(coords)), vector(module, data.draw(coords))
        gram_v = dict(mat_vec(form.gram, v.terms))
        expected = sum((x * gram_v.get(j, 0) for j, x in u.terms), Fraction(0))
        assert evaluate(form, u, v) == expected


class TestIntegerGram:
    """The integer sums of `evaluate`, on symmetric sparse Gram matrices
    with a common scale drawn apart."""

    def test_zero_form_evaluates_to_fraction_zero(self):
        module = irreducible(2)
        u = vector(module, (1, Fraction(1, 2), -3))
        value = evaluate(BilinearForm(module, zeros(3, 3)), u, u)
        assert value == 0 and type(value) is Fraction

    @settings(max_examples=100)
    @given(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([1, -1, 6, Fraction(7, 3), Fraction(-2, 5)]),
        st.data(),
    )
    def test_evaluate_matches_double_sum(self, m, n, scale, data):
        module = tensor_of_irreducibles(m, n)
        d = module.dim
        sparse = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
        half = ExactMatrix.from_rows(
            data.draw(st.lists(st.lists(sparse, min_size=d, max_size=d),
                               min_size=d, max_size=d))
        )
        gram = (half + half.transpose).scaled(scale)
        form = BilinearForm(module, gram)
        coords = st.tuples(*[st.sampled_from([0, 0, 1, -2, 3, Fraction(1, 3)])] * d)
        x, y = data.draw(coords), data.draw(coords)
        g = gram.entries
        expected = sum(
            (x[i] * g[i][j] * y[j] for i in range(d) for j in range(d)), Fraction(0)
        )
        value = evaluate(form, vector(module, x), vector(module, y))
        assert value == expected and type(value) is Fraction
