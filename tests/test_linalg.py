"""Exact linear algebra: frozen examples plus randomized cross-checks.

The randomized rank and kernel tests compare the fraction-free engine
against a naive reduced row echelon form over Fraction written
independently here, so the two share no code path.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2forms.linalg import (
    ExactMatrix,
    _content,
    _coprime_integer_row,
    _echelon,
    apply_power,
    diagonal,
    diagonal_identity_holds,
    identity,
    kron,
    kron_sum,
    mat_vec,
    null_space,
    primitive_integer,
    product_identity_holds,
    rank,
    zeros,
)

scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(
        min_value=-4, max_value=4, max_denominator=5
    ),
)


# Mostly zeros and opposite values, so products often cancel to zero.
sparse_scalars = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])


def sparse_power_cases(max_dim: int = 6):
    """(square matrix, vector, power) triples."""
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(sparse_scalars, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ).map(ExactMatrix.from_rows),
            st.lists(sparse_scalars, min_size=d, max_size=d),
            st.integers(min_value=0, max_value=5),
        )
    )


def square_matrices(max_dim: int = 6):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.lists(
            st.lists(sparse_scalars, min_size=d, max_size=d), min_size=d, max_size=d
        ).map(ExactMatrix.from_rows)
    )


def _sparse_grid(draw, rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        draw(
            st.lists(
                st.lists(sparse_scalars, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


@st.composite
def identity_cases(draw, max_dim: int = 5):
    """(a, b, c, d, e, s) with a@b and c@d of one shape.  Half the time
    c, d = a, b, so the products cancel outright at s = 1; e is the true
    a@b - s·(c@d), that value with one entry bumped, or a free draw."""
    dim = st.integers(min_value=1, max_value=max_dim)
    rows, inner, cols = draw(dim), draw(dim), draw(dim)
    a, b = _sparse_grid(draw, rows, inner), _sparse_grid(draw, inner, cols)
    if draw(st.booleans()):
        c, d = a, b
    else:
        other = draw(dim)
        c, d = _sparse_grid(draw, rows, other), _sparse_grid(draw, other, cols)
    s = draw(st.sampled_from([1, -1, 2, -2]))
    exact = a @ b - (c @ d).scaled(s)
    kind = draw(st.sampled_from(["exact", "bumped", "free"]))
    if kind == "exact":
        e = exact
    elif kind == "bumped":
        grid = [list(row) for row in exact.entries]
        i = draw(st.integers(min_value=0, max_value=rows - 1))
        j = draw(st.integers(min_value=0, max_value=cols - 1))
        grid[i][j] += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        e = ExactMatrix.from_rows(grid)
    else:
        e = _sparse_grid(draw, rows, cols)
    return a, b, c, d, e, s


# Weights two apart, so shifts by ±2 and opposite pairs occur, plus a
# fraction that pairs with nothing.
diagonal_scalars = st.sampled_from([0, 0, 2, -2, 4, -4, Fraction(1, 2)])


@st.composite
def diagonal_cases(draw, max_dim: int = 6):
    """(h, c, a, g): a diagonal h, zero entries allowed; c in {2, -2, 0};
    a square a whose entries are drawn where h_i - h_j = c and, with one
    more free entry half the time, anywhere; a symmetric g likewise where
    h_i + h_j = 0, with one free symmetric pair half the time."""
    d = draw(st.integers(min_value=1, max_value=max_dim))
    h = draw(st.lists(diagonal_scalars, min_size=d, max_size=d))
    c = draw(st.sampled_from([2, -2, 0]))
    a = [[0] * d for _ in range(d)]
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if h[i] - h[j] == c:
                a[i][j] = draw(sparse_scalars)
            if j <= i and h[i] + h[j] == 0:
                g[i][j] = g[j][i] = draw(sparse_scalars)
    index = st.integers(min_value=0, max_value=d - 1)
    if draw(st.booleans()):
        a[draw(index)][draw(index)] = draw(sparse_scalars)
    if draw(st.booleans()):
        i, j = draw(index), draw(index)
        g[i][j] = g[j][i] = draw(sparse_scalars)
    return tuple(h), c, ExactMatrix.from_rows(a), ExactMatrix.from_rows(g)


@st.composite
def matrix_vector_cases(draw, max_dim: int = 8):
    """(matrix, vector) with mostly-zero entries that often cancel."""
    a = draw(sparse_matrices(max_dim))
    v = draw(st.lists(sparse_scalars, min_size=a.cols, max_size=a.cols))
    return a, v


def as_terms(dense) -> tuple:
    """A dense vector's nonzero (index, value) pairs, the `Row` format that
    `mat_vec` and `apply_power` take and return."""
    return tuple((j, x) for j, x in enumerate(dense) if x)


def row_walk_mat_vec(a: ExactMatrix, v) -> tuple:
    """A*v by a walk along every stored row, skipping zero vector entries.
    Oracle only."""
    out = []
    for row in a.nonzero_rows:
        acc = 0
        for j, entry in row:
            if v[j]:
                acc += entry * v[j]
        out.append(acc)
    return tuple(out)


def matrices(max_dim: int = 5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(ExactMatrix.from_rows)
        )
    )


def _zeroed(grid, zero_rows, zero_cols) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(grid)
    )


def sparse_matrices(max_dim: int = 10):
    """Matrices over `sparse_scalars` with a drawn set of rows and columns
    zeroed out."""
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.builds(
                _zeroed,
                st.lists(
                    st.lists(sparse_scalars, min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                ),
                st.sets(st.integers(min_value=0, max_value=r - 1)),
                st.sets(st.integers(min_value=0, max_value=c - 1)),
            )
        )
    )


def _signed_permutation(perm, sign, scales, combos, extra_cols) -> ExactMatrix:
    d = len(perm)
    rows = [[0] * d for _ in range(d)]
    for i, (j, scale) in enumerate(zip(perm, scales)):
        rows[i][j] = sign * scale
    rows += [
        [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(d)]
        for combo in combos
    ]
    return ExactMatrix.from_rows(row + extra for row, extra in zip(rows, extra_cols))


def signed_permutations(max_dim: int = 8):
    """A permutation matrix with positive scales on its rows and one sign on
    all of them, then rows that combine a few of its rows, then a few extra
    sparse columns.

    Scaled to coprime integers, every permutation row is ±1 of that sign and
    pivots at once, as every row of a tensor Gram matrix does.  The combined
    rows are reduced against one pivot row after another, and reach zero
    unless the extra columns keep them nonzero.
    """
    positive = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 4)])
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.integers(min_value=0, max_value=3).flatmap(
            lambda extra: st.integers(min_value=0, max_value=2).flatmap(
                lambda ncols: st.builds(
                    _signed_permutation,
                    st.permutations(range(d)),
                    st.sampled_from([1, -1]),
                    st.lists(positive, min_size=d, max_size=d),
                    st.lists(
                        st.lists(sparse_scalars, min_size=d, max_size=d),
                        min_size=extra,
                        max_size=extra,
                    ),
                    st.lists(
                        st.lists(sparse_scalars, min_size=ncols, max_size=ncols),
                        min_size=d + extra,
                        max_size=d + extra,
                    ),
                )
            )
        )
    )


def naive_rref(a: ExactMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Plain fractional reduced row echelon form and its pivot columns, used
    as an oracle only."""
    m = [[Fraction(x) for x in row] for row in a.entries]
    pivots: list[int] = []
    for c in range(a.cols):
        r = len(pivots)
        p = next((i for i in range(r, a.rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def naive_rank(a: ExactMatrix) -> int:
    return len(naive_rref(a)[1])


def naive_null_space(a: ExactMatrix) -> list[tuple]:
    """The kernel basis read off the reduced row echelon form: per free
    column, that coordinate 1, the other free ones 0, scaled so the first
    nonzero coordinate is 1, as nonzero (index, value) terms."""
    m, pivots = naive_rref(a)
    basis = []
    for free in range(a.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * a.cols
        v[free] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[free]
        lead = next(x for x in v if x)
        basis.append(as_terms(x / lead for x in v))
    return basis


def sorted_kron(a: ExactMatrix, b: ExactMatrix) -> tuple:
    """The stored rows of a⊗b, each accumulated in a dict and sorted.
    Oracle only."""
    rows = []
    for arow in a.nonzero_rows:
        for brow in b.nonzero_rows:
            acc = {j * b.cols + l: x * y for j, x in arow for l, y in brow}
            rows.append(tuple(sorted(acc.items())))
    return tuple(rows)


def sorted_kron_sum(a: ExactMatrix, b: ExactMatrix) -> tuple:
    """The stored rows of a⊗I + I⊗b, each accumulated in a dict, zeros
    dropped and sorted.  Oracle only."""
    d = b.rows
    rows = []
    for i, arow in enumerate(a.nonzero_rows):
        for j, brow in enumerate(b.nonzero_rows):
            acc = {}
            for k, x in arow:
                acc[k * d + j] = acc.get(k * d + j, 0) + x
            for l, y in brow:
                acc[i * d + l] = acc.get(i * d + l, 0) + y
            rows.append(tuple(sorted((c, v) for c, v in acc.items() if v)))
    return tuple(rows)


def _one_entry_grid(draw, rows: int, cols: int) -> ExactMatrix:
    """A matrix with at most one nonzero per row, in any column."""
    column = st.none() | st.integers(min_value=0, max_value=cols - 1)
    nonzero = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])
    picks = [draw(column) for _ in range(rows)]
    return ExactMatrix(
        rows, cols, [() if c is None else ((c, draw(nonzero)),) for c in picks]
    )


@st.composite
def kron_sum_cases(draw, max_dim: int = 6):
    """Square sparse a and b where some of b's diagonal entries are the
    negatives of a's, so diagonal sums a_ii + b_jj often cancel.  Half the
    draws hold at most one entry per row of a and of b, the shape of every
    generator of V_m; there a diagonal entry replaces b's row."""
    dim = st.integers(min_value=1, max_value=max_dim)
    da, db = draw(dim), draw(dim)
    one_entry = draw(st.booleans())
    grid = _one_entry_grid if one_entry else _sparse_grid
    a = grid(draw, da, da)
    rows = [list(row) for row in grid(draw, db, db).entries]
    diagonal = [dict(row).get(i, 0) for i, row in enumerate(a.nonzero_rows)]
    for j in range(db):
        if draw(st.booleans()):
            if one_entry:
                rows[j] = [0] * db
            rows[j][j] = -draw(st.sampled_from(diagonal))
    return a, ExactMatrix.from_rows(rows)


class TestShapes:
    def test_bad_row_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2 rows, got 1"):
            ExactMatrix(2, 2, [[(1, 1)]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="expected 2 entries per row, got 1"):
            ExactMatrix.from_rows([[1, 0], [1]])

    def test_repr_builds_an_equal_matrix(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 0, -3], [0, 0, 0]])
        assert eval(repr(m), {"ExactMatrix": ExactMatrix, "Fraction": Fraction}) == m

    def test_shape_mismatch_in_add(self):
        with pytest.raises(ValueError):
            identity(2) + zeros(2, 3)

    def test_shape_mismatch_in_matmul(self):
        with pytest.raises(ValueError):
            zeros(2, 3) @ zeros(2, 3)

    def test_transpose_of_empty_shapes(self):
        a = zeros(0, 3)
        assert a.transpose.rows == 3 and a.transpose.cols == 0
        assert a.transpose.transpose == a

    def test_from_rows_of_no_rows_and_of_one_empty_row(self):
        empty = ExactMatrix.from_rows([])
        assert (empty.rows, empty.cols) == (0, 0)
        assert empty == zeros(0, 0)
        one_empty = ExactMatrix.from_rows([[]])
        assert (one_empty.rows, one_empty.cols) == (1, 0)
        assert one_empty == zeros(1, 0)


class TestArithmetic:
    def test_matmul_small(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))

    def test_identity_is_neutral(self):
        a = ExactMatrix.from_rows([[Fraction(1, 2), 3], [0, -7]])
        assert (identity(2) @ a).entries == a.entries
        assert (a @ identity(2)).entries == a.entries

    def test_commutator_antisymmetry(self):
        a = ExactMatrix.from_rows([[0, 1], [0, 0]])
        b = ExactMatrix.from_rows([[0, 0], [1, 0]])
        h = ExactMatrix.from_rows([[1, 0], [0, -1]])
        assert product_identity_holds(a, b, b, a, h)
        assert product_identity_holds(b, a, a, b, h.scaled(-1))
        # a wrong e fails: the other bracket's value, zero, or one entry off
        assert not product_identity_holds(a, b, b, a, h.scaled(-1))
        assert not product_identity_holds(b, a, a, b, h)
        assert not product_identity_holds(a, b, b, a, zeros(2, 2))
        assert not product_identity_holds(
            a, b, b, a, ExactMatrix.from_rows([[1, 0], [0, 1]])
        )

    def test_mat_vec_matches_matmul(self):
        a = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        v = (Fraction(1, 2), 0, -1)
        col = a @ ExactMatrix.from_rows([[x] for x in v])
        assert mat_vec(a, as_terms(v)) == as_terms(row[0] for row in col.entries)

    def test_apply_power(self):
        shift = ExactMatrix.from_rows([[0, 0], [1, 0]])
        assert apply_power(shift, ((0, 1),), 0) == ((0, 1),)
        assert apply_power(shift, ((0, 1),), 1) == ((1, 1),)
        assert apply_power(shift, ((0, 1),), 2) == ()
        with pytest.raises(ValueError):
            apply_power(shift, ((0, 1),), -1)

    def test_apply_power_drops_cancelled_entries(self):
        # Av = (0, 1, 0): the first entry cancels, then comes back at A²v
        a = ExactMatrix.from_rows([[1, -1, 0], [0, 1, 1], [0, 0, 1]])
        assert apply_power(a, ((0, 1), (1, 1)), 1) == ((1, 1),)
        assert apply_power(a, ((0, 1), (1, 1)), 2) == ((0, -1), (1, 1))
        ones = ExactMatrix.from_rows([[1, -1], [1, -1]])
        half = Fraction(1, 2)
        assert apply_power(ones, ((0, half), (1, half)), 3) == ()

    @settings(max_examples=60)
    @given(sparse_power_cases())
    def test_apply_power_matches_repeated_mat_vec(self, case):
        a, v, s = case
        expected = as_terms(v)
        for _ in range(s):
            expected = mat_vec(a, expected)
        assert apply_power(a, as_terms(v), s) == expected

    @settings(max_examples=150)
    @given(matrix_vector_cases())
    def test_mat_vec_matches_row_walk(self, case):
        # the column walk adds each entry's terms in the row walk's order,
        # so the types of the values agree too
        a, v = case
        got, expected = mat_vec(a, as_terms(v)), as_terms(row_walk_mat_vec(a, v))
        assert got == expected
        assert [type(x) for _, x in got] == [type(x) for _, x in expected]

    def test_mat_vec_length_mismatch(self):
        # a vector with an index past the matrix's columns is refused
        for bad in (((2, 3),), ((0, 1), (2, 3)), ((-1, 1),)):
            with pytest.raises(ValueError, match="outside the 2 columns"):
                mat_vec(identity(2), bad)
            with pytest.raises(ValueError, match="outside the 2 columns"):
                apply_power(identity(2), bad, 1)
        # a matrix need not be square for mat_vec
        wide = ExactMatrix.from_rows([[1, 2, 3]])
        assert mat_vec(wide, ((2, 1),)) == ((0, 3),)

    def test_kron_block_layout(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([[0, 5], [6, 7]])
        k = kron(a, b)
        assert k.rows == 4 and k.cols == 4
        assert k.entries[0] == (0, 5, 0, 10)
        assert k.entries[1] == (6, 7, 12, 14)
        assert k.entries[2] == (0, 15, 0, 20)
        assert k.entries[3] == (18, 21, 24, 28)

    @settings(max_examples=200)
    @given(sparse_matrices(6), sparse_matrices(6))
    def test_kron_matches_sorted_reference(self, a, b):
        k = kron(a, b)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
        assert k.nonzero_rows == sorted_kron(a, b)

    def test_kron_of_constant_factors_shares_one_product(self):
        q, r = Fraction(-8, 3), Fraction(8, 9)
        a = ExactMatrix(3, 3, (((2 - i, q),) for i in range(3)))
        b = ExactMatrix(4, 4, (((3 - i, r),) for i in range(4)))
        values = [v for row in kron(a, b).nonzero_rows for _, v in row]
        assert len(values) == 12 and values[0] == q * r
        assert all(v is values[0] for v in values)


class TestProductIdentity:
    """`product_identity_holds` against the product matrices it avoids."""

    @settings(max_examples=200)
    @given(identity_cases())
    def test_agrees_with_product_matrices(self, case):
        a, b, c, d, e, s = case
        exact = a @ b - (c @ d).scaled(s)
        assert product_identity_holds(a, b, c, d, e, s) == (exact == e)
        assert product_identity_holds(a, b, c, d, exact, s)

    @settings(max_examples=100)
    @given(identity_cases(), st.sampled_from([2, -2, Fraction(-1, 3)]))
    def test_scale_of_e(self, case, t):
        a, b, c, d, e, s = case
        exact = a @ b - (c @ d).scaled(s)
        assert product_identity_holds(a, b, c, d, e, s, t) == (exact == e.scaled(t))
        assert product_identity_holds(a, b, c, d, exact.scaled(Fraction(1) / t), s, t)

    def test_shape_mismatch_raises(self):
        # all zero, so only a shape check can reject them
        z = zeros
        cases = [
            (z(2, 3), z(2, 2), z(2, 2), z(2, 2), z(2, 2)),  # a@b undefined
            (z(2, 2), z(2, 2), z(2, 3), z(2, 2), z(2, 2)),  # c@d undefined
            (z(2, 3), z(3, 2), z(3, 3), z(3, 2), z(2, 2)),  # a@b 2x2, c@d 3x2
            (z(2, 3), z(3, 2), z(2, 2), z(2, 2), z(2, 3)),  # e 2x3
            (z(2, 3), z(3, 2), z(2, 2), z(2, 2), z(3, 2)),  # e 3x2
        ]
        for args in cases:
            with pytest.raises(ValueError):
                product_identity_holds(*args)


def diagonal_matrix(h) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [x if j == i else 0 for j in range(len(h))] for i, x in enumerate(h)
    )


class TestDiagonal:
    """`diagonal`, and the shift checks it serves against
    `product_identity_holds` and the product matrices."""

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.tuples(
            st.lists(diagonal_scalars, min_size=d, max_size=d),
            st.none() | st.tuples(
                st.integers(min_value=0, max_value=d - 1),
                st.integers(min_value=0, max_value=d - 1),
                sparse_scalars,
            ),
        )
    ))
    # a diagonal with a zero entry; a one-entry row off the diagonal
    @example(([2, 0, -2], None))
    @example(([0, 0, 0], (1, 2, 1)))
    def test_diagonal_or_none(self, case):
        h, bump = case
        grid = [list(row) for row in diagonal_matrix(h).entries]
        if bump:
            i, j, v = bump
            grid[i][j] = v
        a = ExactMatrix.from_rows(grid)
        off = any(grid[i][j] for i in range(len(h)) for j in range(len(h)) if i != j)
        expected = None if off else tuple(grid[i][i] for i in range(len(h)))
        assert diagonal(a) == expected

    def test_non_square_is_none(self):
        assert diagonal(zeros(2, 3)) is None
        assert diagonal(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]])) is None

    @settings(max_examples=300)
    @given(diagonal_cases())
    @example(((2, 0, -2), 2, ExactMatrix.from_rows([[0, 1, 0], [0, 0, 3], [0, 0, 0]]),
              ExactMatrix.from_rows([[0, 0, 1], [0, 5, 0], [1, 0, 0]])))
    @example(((0, 2), -2, ExactMatrix.from_rows([[0, 0], [1, 0]]),
              ExactMatrix.from_rows([[0, 1], [1, 0]])))
    def test_shift_checks_match_products(self, case):
        h, c, a, g = case
        d = diagonal_matrix(h)
        assert diagonal(d) == h
        shift = diagonal_identity_holds(h, a, t=c)
        assert shift == product_identity_holds(d, a, a, d, a, t=c)
        assert shift == (d @ a - a @ d == a.scaled(c))
        star = diagonal_identity_holds(h, g, s=-1, t=0)
        zero = zeros(g.rows, g.cols)
        assert star == product_identity_holds(d.transpose, g, g, d, zero, s=-1)
        assert star == (d.transpose @ g == (g @ d).scaled(-1))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            diagonal_identity_holds((1, 2), identity(3), t=0)
        with pytest.raises(ValueError):
            diagonal_identity_holds((1, 2), zeros(2, 3), t=0)


class TestKronSum:
    @settings(max_examples=80)
    @given(square_matrices(), square_matrices())
    def test_matches_two_kron_products(self, a, b):
        expected = kron(a, identity(b.rows)) + kron(identity(a.rows), b)
        assert kron_sum(a, b) == expected

    def test_diagonal_entries_add(self):
        a = ExactMatrix.from_rows([[1, 2], [0, -1]])
        b = ExactMatrix.from_rows([[-1, 0], [3, 1]])
        assert kron_sum(a, b).entries == (
            (0, 0, 2, 0),
            (3, 2, 0, 2),
            (0, 0, -2, 0),
            (0, 0, 3, 0),
        )

    @settings(max_examples=200)
    @given(kron_sum_cases())
    # one entry per row: a's diagonal, off-diagonal and empty rows against
    # b's cancelling diagonal, off-diagonal, kept diagonal and empty rows
    @example((
        ExactMatrix.from_rows([[2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0]]),
        ExactMatrix.from_rows([
            [-2, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 5, 0, 0],
            [0, 0, 0, 0, 0],
            [0, Fraction(1, 2), 0, 0, 0],
        ]),
    ))
    def test_matches_sorted_reference(self, case):
        a, b = case
        k = kron_sum(a, b)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.rows * b.rows)
        assert k.nonzero_rows == sorted_kron_sum(a, b)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            kron_sum(zeros(2, 3), identity(2))
        with pytest.raises(ValueError):
            kron_sum(identity(2), zeros(1, 2))


class TestCanonicalStorage:
    """Only nonzeros are stored, so equal matrices have equal storage;
    an explicitly stored zero would make == and hash disagree."""

    @settings(max_examples=40)
    @given(matrices(max_dim=4))
    def test_cancellation_leaves_nothing_stored(self, a):
        assert a - a == zeros(a.rows, a.cols)
        assert hash(a - a) == hash(zeros(a.rows, a.cols))
        if a.rows == a.cols:
            c = a @ a - a @ a
            assert c == zeros(a.rows, a.rows)
            assert hash(c) == hash(zeros(a.rows, a.rows))

    @settings(max_examples=40)
    @given(matrices(max_dim=4), matrices(max_dim=4))
    def test_results_match_their_dense_round_trip(self, a, b):
        results = [kron(a, b), a + a.scaled(-1), a.transpose @ a]
        if a.cols == b.rows:
            results.append(a @ b)
        if (a.rows, a.cols) == (b.rows, b.cols):
            results.append(a + b)
        for m in results:
            rebuilt = ExactMatrix.from_rows(m.entries)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert all(v for row in m.nonzero_rows for _, v in row)

    def test_sparse_constructor_drops_zeros_and_sorts(self):
        m = ExactMatrix(2, 3, [[(2, 5), (0, Fraction(0)), (1, -1)], []])
        assert m.nonzero_rows == (((1, -1), (2, 5)), ())
        assert m == ExactMatrix.from_rows([[0, -1, 5], [0, 0, 0]])
        with pytest.raises(ValueError):
            ExactMatrix(1, 2, [[(2, 1)]])
        with pytest.raises(ValueError):
            ExactMatrix(2, 2, [[(0, 1)]])
        with pytest.raises(ValueError, match="row 1 has two entries in one column"):
            ExactMatrix(2, 2, [[(1, 3)], [(0, 1), (0, 2)]])


class TestPrimitiveInteger:
    @settings(max_examples=100)
    @given(st.one_of(matrices(), sparse_matrices()))
    def test_coprime_integer_positive_multiple(self, a):
        p = primitive_integer(a)
        values = [x for row in p.nonzero_rows for _, x in row]
        if not values:
            assert p == a
            return
        assert all(type(x) is int for x in values)
        assert math.gcd(*values) == 1
        # the same support, and one positive factor c with p = c·a, so
        # every sign is kept
        assert [[j for j, _ in row] for row in p.nonzero_rows] == [
            [j for j, _ in row] for row in a.nonzero_rows
        ]
        i, row = next((i, row) for i, row in enumerate(a.nonzero_rows) if row)
        c = Fraction(p.nonzero_rows[i][0][1]) / row[0][1]
        assert c > 0
        assert a.scaled(c) == p

    def test_frozen_examples(self):
        half_third = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(-1, 3)], [0, Fraction(5, 6)]]
        )
        assert primitive_integer(half_third).nonzero_rows == (
            ((0, 3), (1, -2)), ((1, 5),)
        )
        assert primitive_integer(ExactMatrix.from_rows([[4, -6]])) == (
            ExactMatrix.from_rows([[2, -3]])
        )
        assert primitive_integer(
            ExactMatrix.from_rows([[Fraction(-2, 3), Fraction(-4, 9)]])
        ).nonzero_rows == (((0, -3), (1, -2)),)

    def test_zero_and_empty_matrices_come_back_unchanged(self):
        for a in (zeros(3, 4), zeros(0, 2), ExactMatrix(0, 0, ())):
            assert primitive_integer(a) == a

    def test_primitive_integer_matrix_comes_back_equal(self):
        a = ExactMatrix.from_rows([[0, 2, -3], [5, 0, 0]])
        assert primitive_integer(a) == a
        p = primitive_integer(ExactMatrix.from_rows([[Fraction(2), Fraction(-3)]]))
        assert p == ExactMatrix.from_rows([[2, -3]])
        assert all(type(x) is int for row in p.nonzero_rows for _, x in row)

    @settings(max_examples=60)
    @given(st.one_of(matrices(), sparse_matrices(), signed_permutations()))
    def test_rank_is_kept(self, a):
        assert rank(primitive_integer(a)) == rank(a)


class TestCoprimeIntegerRow:
    """The integer path of `_coprime_integer_row` against the `_content`
    path that every row took before it."""

    @staticmethod
    def content_path(row):
        den, g = _content([x for _, x in row])
        return {j: x.numerator // g * (den // x.denominator) for j, x in row}

    @settings(max_examples=150)
    @given(
        st.lists(
            st.integers(min_value=-30, max_value=30).filter(bool),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1, 2, 3, 6, -4]),
        st.booleans(),
    )
    def test_matches_content_path(self, values, factor, as_fractions):
        row = tuple(
            (2 * j, Fraction(factor * x) if as_fractions else factor * x)
            for j, x in enumerate(values)
        )
        got = _coprime_integer_row(row)
        assert got == self.content_path(row)
        assert all(type(x) is int for x in got.values())
        assert math.gcd(*got.values()) == 1

    def test_frozen_rows(self):
        assert _coprime_integer_row(((0, 4), (3, -6), (5, 10))) == {0: 2, 3: -3, 5: 5}
        assert _coprime_integer_row(((1, -7),)) == {1: -1}
        assert _coprime_integer_row(((2, Fraction(3, 5)),)) == {2: 1}
        assert _coprime_integer_row(((0, 1), (2, -1))) == {0: 1, 2: -1}
        integral = _coprime_integer_row(((0, Fraction(-9)), (1, Fraction(6))))
        assert integral == {0: -3, 1: 2}
        assert all(type(x) is int for x in integral.values())
        mixed = _coprime_integer_row(((0, 2), (1, Fraction(1, 3))))
        assert mixed == {0: 6, 1: 1}


class TestRankAndKernel:
    def test_rank_identity(self):
        assert rank(identity(4)) == 4

    def test_rank_zero_matrix(self):
        assert rank(zeros(3, 5)) == 0

    def test_rank_rank_one(self):
        a = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
        assert rank(a) == 1

    def test_null_space_of_ones(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 1]])
        assert null_space(a) == [((0, Fraction(1)), (1, Fraction(-1)))]

    def test_null_space_of_zero_row(self):
        a = zeros(1, 2)
        assert null_space(a) == [((0, Fraction(1)),), ((1, Fraction(1)),)]

    def test_null_space_of_identity_is_empty(self):
        assert null_space(identity(3)) == []

    def test_null_space_normalization(self):
        a = ExactMatrix.from_rows([[2, 6]])
        (v,) = null_space(a)
        assert v == ((0, Fraction(1)), (1, Fraction(-1, 3)))
        # the first nonzero coordinate is not the first one
        a = ExactMatrix.from_rows(
            [[0, 0, -2, 0], [-1, 0, 0, 0], [0, -3, 0, 1], [0, -3, -2, 1]]
        )
        assert rank(a) == 3
        assert null_space(a) == [((1, 1), (3, 3))]

    def test_integer_back_substitution_rescales(self):
        # Each pivot fails to divide the sum it meets, so the integer
        # vector is rescaled: once at the pivot 3 (and at -3), and again at
        # every pivot in the last case, where the pivots are 4, -3 and 5.
        assert null_space(ExactMatrix.from_rows([[3, 2]])) == [
            ((0, Fraction(1)), (1, Fraction(-3, 2)))
        ]
        assert null_space(ExactMatrix.from_rows([[-3, 2]])) == [
            ((0, Fraction(1)), (1, Fraction(3, 2)))
        ]
        a = ExactMatrix.from_rows([[4, 6, 0, 1], [0, -3, 2, 0], [0, 0, 5, 7]])
        assert _echelon(a)[0] == [{0: 4, 1: 6, 3: 1}, {1: -3, 2: 2}, {2: 5, 3: 7}]
        (v,) = null_space(a)
        assert v == (
            (0, 1), (1, Fraction(-56, 69)), (2, Fraction(-28, 23)),
            (3, Fraction(20, 23)),
        )
        assert all(type(x) is Fraction for _, x in v)
        assert mat_vec(a, v) == ()

    def test_fractional_entries(self):
        a = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
        (v,) = null_space(a)
        assert v[0] == (0, 1)
        assert mat_vec(a, v) == ()

    @settings(max_examples=60)
    @given(matrices())
    def test_rank_agrees_with_naive_elimination(self, a):
        assert rank(a) == naive_rank(a)

    @settings(max_examples=60)
    @given(matrices())
    def test_kernel_vectors_are_killed(self, a):
        basis = null_space(a)
        assert len(basis) == a.cols - rank(a)
        for v in basis:
            assert mat_vec(a, v) == ()
            assert v[0][1] == 1 and all(x for _, x in v)

    @settings(max_examples=200)
    @given(st.one_of(sparse_matrices(), signed_permutations()))
    # the third row is reduced at columns 0 and 1 before it pivots at 2; the
    # last is reduced at columns 0, 1 and 2 and reaches zero
    @example(
        ExactMatrix.from_rows(
            [
                [1, 1, 0, 0],
                [0, 1, 1, 0],
                [1, 0, 0, 1],
                [Fraction(1, 2), 0, Fraction(1, 2), 1],
            ]
        )
    )
    def test_sparse_engine_matches_naive_elimination(self, a):
        assert rank(a) == naive_rank(a)
        assert null_space(a) == naive_null_space(a)

    @settings(max_examples=40)
    @given(matrices(max_dim=4), matrices(max_dim=4))
    def test_kron_rank_is_multiplicative(self, a, b):
        assert rank(kron(a, b)) == rank(a) * rank(b)

    @settings(max_examples=40)
    @given(matrices())
    def test_transpose_preserves_rank(self, a):
        assert rank(a.transpose) == rank(a)
