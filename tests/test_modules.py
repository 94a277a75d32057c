"""Weight modules: action conventions, bracket relations, tensor products,
decomposition.  Frozen examples are hand substitutions into the action
formulas; sweeps re-derive the Clebsch-Gordan pattern."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2forms.linalg import ExactMatrix, identity, kron, zeros
from sl2forms.modules import (
    GENERATORS,
    DecompositionReport,
    ModuleVector,
    WeightModule,
    act,
    check_relations,
    decompose,
    format_vector,
    irreducible,
    perturbed,
    tensor_of_irreducibles,
    tensor_product,
    weight_space_indices,
)

small_m = st.integers(min_value=0, max_value=8)


def basis_vector(module, j):
    return ModuleVector(module, ((j, 1),))


def broken_brackets(module) -> tuple[str, ...]:
    """The bracket identities that fail, from the product matrices.
    Oracle only."""
    x, y, h = module.actX, module.actY, module.actH
    brackets = (
        ("[X,Y]=H", x @ y - y @ x, h),
        ("[H,X]=2X", h @ x - x @ h, x.scaled(2)),
        ("[H,Y]=-2Y", h @ y - y @ h, y.scaled(-2)),
    )
    return tuple(name for name, lhs, rhs in brackets if lhs != rhs)


def corrupted(module, data):
    """The module with one drawn generator entry bumped."""
    index = st.integers(min_value=0, max_value=module.dim - 1)
    return perturbed(
        module,
        data.draw(st.sampled_from(GENERATORS)),
        data.draw(index),
        data.draw(index),
        data.draw(st.sampled_from([1, -1, Fraction(1, 2)])),
    )


class TestIrreducible:
    def test_m0_all_operators_zero(self):
        v = irreducible(0)
        assert v.dim == 1 and v.weights == (0,)
        assert v.actX.entries == ((0,),)
        assert v.actY.entries == ((0,),)
        assert v.actH.entries == ((0,),)

    def test_m1_actions(self):
        v = irreducible(1)
        assert v.weights == (-1, 1)
        e_minus, e_plus = basis_vector(v, 0), basis_vector(v, 1)
        assert act(v, "X", e_minus) == e_plus
        assert act(v, "Y", e_plus) == e_minus
        assert act(v, "Y", e_minus).is_zero()
        assert act(v, "X", e_plus).is_zero()

    def test_m2_actions(self):
        v = irreducible(2)
        e = [basis_vector(v, j) for j in range(3)]
        assert act(v, "X", e[0]).terms == ((1, 2),)
        assert act(v, "X", e[1]).terms == ((2, 2),)
        assert act(v, "H", e[1]).is_zero()
        assert act(v, "H", e[2]).terms == ((2, 2),)

    def test_h_is_diagonal_with_weights(self):
        for m in range(7):
            v = irreducible(m)
            for i, row in enumerate(v.actH.entries):
                for j, entry in enumerate(row):
                    assert entry == (v.weights[i] if i == j else 0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            irreducible(-1)

    def test_basis_names(self):
        assert irreducible(2).basis_names == ("e_{-2}", "e_{0}", "e_{2}")
        assert irreducible(1, "ẽ").basis_names == ("ẽ_{-1}", "ẽ_{1}")

    def test_unknown_generator_rejected(self):
        v = irreducible(1)
        with pytest.raises(ValueError):
            act(v, "Z", basis_vector(v, 0))

    def test_module_mismatch_rejected(self):
        # named by the module check, not by a shape error further on
        with pytest.raises(ValueError, match="vector lives in V_3, not V_2"):
            act(irreducible(2), "X", basis_vector(irreducible(3), 0))


class TestRelations:
    @given(small_m)
    def test_irreducible_satisfies_brackets(self, m):
        assert check_relations(irreducible(m)).ok

    def test_relations_on_moderate_tensor(self):
        assert check_relations(tensor_of_irreducibles(2, 3)).ok

    @settings(max_examples=25)
    @given(small_m, small_m)
    def test_tensor_satisfies_brackets(self, m, n):
        assert check_relations(tensor_of_irreducibles(m, n)).ok

    def test_corrupted_module_fails(self):
        bad = perturbed(irreducible(3), "X", 0, 0, 1)
        report = check_relations(bad)
        assert not report.ok
        assert "[H,X]=2X" in report.failures

    def test_corrupted_tensor_fails(self):
        bad = perturbed(tensor_of_irreducibles(1, 2), "Y", 2, 0, 1)
        assert not check_relations(bad).ok

    def test_bump_matches_the_dense_grid(self):
        """Every entry of every generator, bumped by 1 and by minus itself
        (so a stored entry cancels and must be dropped), against the grid."""
        module = tensor_of_irreducibles(2, 1)
        for g in GENERATORS:
            mat = module.generator(g)
            for i in range(module.dim):
                for j in range(module.dim):
                    for delta in {1, -mat.entries[i][j]} - {0}:
                        grid = [list(row) for row in mat.entries]
                        grid[i][j] += delta
                        expected = ExactMatrix.from_rows(grid)
                        bad = perturbed(module, g, i, j, delta)
                        assert bad.generator(g) == expected, (g, i, j)
                        assert bad._replace(**{f"act{g}": mat}) == module._replace(
                            label="V_2⊗V_1~corrupt"
                        )

    @pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (6, 0), (0, 6), (-1, -1)])
    def test_bump_outside_the_matrix_raises(self, row, col):
        message = f"({row}, {col}) is outside the 6x6 actX of V_2⊗V_1"
        with pytest.raises(IndexError, match=re.escape(message)):
            perturbed(tensor_of_irreducibles(2, 1), "X", row, col, 1)

    @pytest.mark.parametrize("m, n", [(3, 0), (2, 1), (1, 2)])
    def test_each_bump_fails_exactly_its_brackets(self, m, n):
        """Every single-entry bump of X, Y or H fails exactly the brackets
        that full matrix products say it breaks."""
        module = tensor_of_irreducibles(m, n)
        seen = set()
        for g in GENERATORS:
            for i in range(module.dim):
                for j in range(module.dim):
                    bad = perturbed(module, g, i, j, 1)
                    expected = broken_brackets(bad)
                    assert check_relations(bad).failures == expected, (g, i, j)
                    seen.add(expected)
        # every bracket breaks somewhere, and some bumps break only part
        assert {name for failed in seen for name in failed} == {
            "[X,Y]=H", "[H,X]=2X", "[H,Y]=-2Y"
        }
        assert ("[X,Y]=H",) in seen


class TestTensor:
    def test_v1_v1_weights(self):
        t = tensor_of_irreducibles(1, 1)
        assert t.dim == 4
        assert sorted(t.weights) == [-2, 0, 0, 2]

    def test_v0_tensor_is_relabeling(self):
        t = tensor_product(irreducible(0), irreducible(4, "ẽ"))
        v = irreducible(4)
        assert t.weights == v.weights
        assert t.actX.entries == v.actX.entries
        assert t.actY.entries == v.actY.entries
        assert t.actH.entries == v.actH.entries

    def test_lowest_weight_vector_killed(self):
        t = tensor_of_irreducibles(2, 3)
        assert t.dim == 12
        assert act(t, "Y", basis_vector(t, 0)).is_zero()

    def test_label_and_names(self):
        t = tensor_of_irreducibles(1, 2)
        assert t.label == "V_1⊗V_2"
        assert t.basis_names[0] == "e_{-1}⊗ẽ_{-2}"
        assert t.basis_names[-1] == "e_{1}⊗ẽ_{2}"

    @settings(max_examples=20)
    @given(small_m, small_m)
    def test_weights_add_lexicographically(self, m, n):
        t = tensor_of_irreducibles(m, n)
        a, b = irreducible(m), irreducible(n)
        assert t.weights == tuple(wa + wb for wa in a.weights for wb in b.weights)

    @settings(max_examples=20)
    @given(small_m, small_m)
    def test_x_and_y_shift_weight_by_two(self, m, n):
        t = tensor_of_irreducibles(m, n)
        for i, row in enumerate(t.actX.nonzero_rows):
            for j, _ in row:
                assert t.weights[i] == t.weights[j] + 2
        for i, row in enumerate(t.actY.nonzero_rows):
            for j, _ in row:
                assert t.weights[i] == t.weights[j] - 2


    @settings(max_examples=40)
    @given(small_m, small_m, st.data())
    def test_leibniz_rows_match_kron_oracle(self, m, n, data):
        """Each generator is ga⊗I + I⊗gb, also with a corrupted factor."""
        a, b = irreducible(m), irreducible(n, "ẽ")
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            if data.draw(st.booleans()):
                a = corrupted(a, data)
            else:
                b = corrupted(b, data)
        t = tensor_product(a, b)
        for g in GENERATORS:
            ga, gb = a.generator(g), b.generator(g)
            expected = kron(ga, identity(b.dim)) + kron(identity(a.dim), gb)
            assert t.generator(g) == expected


class TestWeightSpaces:
    def test_zero_weight_space_of_v1_v1(self):
        t = tensor_of_irreducibles(1, 1)
        assert [t.basis_names[j] for j in weight_space_indices(t, 0)] == [
            "e_{-1}⊗ẽ_{1}",
            "e_{1}⊗ẽ_{-1}",
        ]

    def test_lowest_weight_space_is_unique(self):
        for m, n in [(0, 0), (2, 3), (4, 1)]:
            t = tensor_of_irreducibles(m, n)
            assert weight_space_indices(t, -m - n) == (0,)

    def test_missing_weight_gives_empty(self):
        assert weight_space_indices(irreducible(1), 0) == ()

    @settings(max_examples=20)
    @given(small_m, small_m, st.randoms(use_true_random=False))
    def test_weight_index_matches_linear_scan(self, m, n, rng):
        """The weight indices against a scan of the weights, also on a
        copy made by `_replace` with the weights reordered."""
        t = tensor_of_irreducibles(m, n)
        shuffled = list(t.weights)
        rng.shuffle(shuffled)
        copy = t._replace(weights=tuple(shuffled))
        for module in (t, copy):
            for w in range(-m - n - 2, m + n + 3):
                assert weight_space_indices(module, w) == tuple(
                    j for j, wt in enumerate(module.weights) if wt == w
                )

    @settings(max_examples=20)
    @given(small_m, small_m)
    def test_singular_weight_spaces_have_dimension_k_plus_1(self, m, n):
        t = tensor_of_irreducibles(m, n)
        for k in range(min(m, n) + 1):
            assert len(weight_space_indices(t, -m - n + 2 * k)) == k + 1


class TestDecompose:
    def test_frozen_examples(self):
        assert decompose(tensor_of_irreducibles(1, 1)).summands == ((0, 1), (2, 1))
        assert decompose(tensor_of_irreducibles(2, 3)).summands == (
            (1, 1),
            (3, 1),
            (5, 1),
        )
        assert decompose(irreducible(4)).summands == ((4, 1),)

    @settings(max_examples=30)
    @given(small_m, small_m)
    def test_clebsch_gordan_pattern(self, m, n):
        report = decompose(tensor_of_irreducibles(m, n))
        assert report.summands == tuple(
            (j, 1) for j in range(abs(m - n), m + n + 1, 2)
        )
        assert sum(mult * (j + 1) for j, mult in report.summands) == (m + 1) * (n + 1)

    def test_empty_module(self):
        empty = WeightModule("empty", (), (), zeros(0, 0), zeros(0, 0), zeros(0, 0))
        assert empty.dim == 0
        assert decompose(empty) == DecompositionReport(dim=0, summands=())

    def test_inconsistent_weights_rejected(self):
        broken = irreducible(2)
        lopsided = broken._replace(weights=(2, 2, 0), label="broken")
        with pytest.raises(ValueError):
            decompose(lopsided)


class TestFormatVector:
    def test_plain_combination(self):
        t = tensor_of_irreducibles(1, 1)
        assert (
            format_vector(t, ((1, 1), (2, -1))) == "e_{-1}⊗ẽ_{1} - e_{1}⊗ẽ_{-1}"
        )

    def test_scalar_coefficients(self):
        from fractions import Fraction

        v = irreducible(2)
        terms = ((0, 2), (2, Fraction(-1, 2)))
        assert format_vector(v, terms) == "2·e_{-2} - 1/2·e_{2}"
        assert format_vector(v, ()) == "0"
        assert format_vector(v, ((0, -1),)) == "-e_{-2}"
