"""Exact sparse linear algebra over the rationals.

Matrices are immutable and store only their nonzero entries: per row, the
(column, value) pairs in increasing column order, with exact scalar values
(``int`` or ``Fraction``).  Every operator of a weight module is
weight-homogeneous (X raises the weight by 2, Y lowers it by 2, H and the
compatible forms pair fixed weights), so each row holds only a few
nonzeros and sums, products, transposes and Kronecker products cost time
in proportion to the nonzeros they touch.  A zero is never stored, so
equal matrices have equal rows and ``==`` and ``hash`` compare the stored
rows directly.  `ExactMatrix.entries` is a dense view rebuilt on demand.
`primitive_integer` scales a matrix to coprime integers, for checks that
are unchanged by a positive scale and cheaper without `Fraction`s.

A vector is held in the same format as a matrix row (`Row`): its nonzero
(index, value) pairs in increasing index order.  `mat_vec` and
`apply_power` take and return that format.  Each step walks the columns
of the matrix (rows of its cached transpose) at the vector's indices
only, so a vector in one weight space costs that space's nonzeros, not
the matrix dimension.

`product_identity_holds` checks an identity a@b - s·(c@d) = t·e in full,
one row at a time: both products of a row and the row of e go into one
accumulator, which must come out zero.  No product matrix is built and no
row is sorted, so the check costs the products' multiplications only.  The
module and form checks call it for [X,Y] = H and for the X and Y star
identities, and for the two H identities only when H is not diagonal.
When `diagonal` returns the diagonal h of H, an identity
D@a - s·(a@D) = t·a with D = diag(h) reads h_i - s·h_j = t at every stored
entry a_ij, and `diagonal_identity_holds` checks it there, with no product
row and no transpose.

Elimination reduces one row at a time on sparse integer rows: each row is
scaled to coprime integers and held as a map from column to nonzero value,
then combined with the pivot row of its least column, and scaled to
coprime integers again, until it is zero or has a least column with no
pivot row yet.  A signed permutation (a tensor Gram matrix) thus costs
constant work per row and no combination at all.  Rows that are already
integers skip the lcm of denominators, and `null_space` back-substitutes
in integers too, building one `Fraction` per coordinate at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .rationals import Scalar
from .records import read_only

Row = tuple[tuple[int, Scalar], ...]


class ExactMatrix:
    """Immutable rows x cols matrix of exact rational entries.

    ``nonzero_rows[i]`` holds row i's nonzero entries as (column, value)
    pairs in increasing column order; nothing else is stored.  Two matrices
    are equal when their shapes and stored rows are.
    """

    rows: int
    cols: int
    nonzero_rows: tuple[Row, ...]

    __setattr__ = __delattr__ = read_only

    def __init__(
        self, rows: int, cols: int, entries: Sequence[Sequence[Scalar]]
    ) -> None:
        """Build from a dense grid of `rows` rows with `cols` entries each."""
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} entries per row, got {len(row)}")
        self._assign(
            rows,
            cols,
            tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in entries),
        )

    def _assign(self, rows: int, cols: int, nonzero_rows: tuple[Row, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.__dict__.update(rows=rows, cols=cols, nonzero_rows=nonzero_rows)

    @classmethod
    def _stored(
        cls, rows: int, cols: int, nonzero_rows: tuple[Row, ...]
    ) -> "ExactMatrix":
        """Wrap rows that are already canonical: sorted columns, no zeros."""
        matrix = object.__new__(cls)
        matrix._assign(rows, cols, nonzero_rows)
        return matrix

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.nonzero_rows) == (
            other.rows, other.cols, other.nonzero_rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzero_rows))

    def __repr__(self) -> str:
        return (
            f"ExactMatrix(rows={self.rows!r}, cols={self.cols!r}, "
            f"nonzero_rows={self.nonzero_rows!r})"
        )

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "ExactMatrix":
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            return ExactMatrix(0, 0, ())
        return ExactMatrix(len(grid), len(grid[0]), grid)

    @staticmethod
    def from_sparse(
        rows: int, cols: int, nonzero_rows: Iterable[Iterable[tuple[int, Scalar]]]
    ) -> "ExactMatrix":
        """Build from per-row (column, value) pairs, at most one per column,
        in any column order; zero values are dropped."""
        given = [tuple(row) for row in nonzero_rows]
        for i, row in enumerate(given):
            if len({j for j, _ in row}) != len(row):
                raise ValueError(f"row {i} has two entries in one column")
        stored = tuple(_canonical(dict(row)) for row in given)
        if len(stored) != rows:
            raise ValueError(f"expected {rows} rows, got {len(stored)}")
        if any(not 0 <= j < cols for row in stored for j, _ in row):
            raise ValueError(f"column index out of range for {cols} columns")
        return ExactMatrix._stored(rows, cols, stored)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense row-major view, rebuilt on every access."""
        grid: list[list[Scalar]] = [[0] * self.cols for _ in range(self.rows)]
        for dense, row in zip(grid, self.nonzero_rows):
            for j, v in row:
                dense[j] = v
        return tuple(map(tuple, grid))

    @cached_property
    def transpose(self) -> "ExactMatrix":
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows):
            for j, v in row:
                cols[j].append((i, v))
        return ExactMatrix._stored(self.cols, self.rows, tuple(map(tuple, cols)))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign·other, row by row."""
        self._require_same_shape(other)
        out = []
        for ra, rb in zip(self.nonzero_rows, other.nonzero_rows):
            acc = dict(ra)
            for j, v in rb:
                acc[j] = acc.get(j, 0) + sign * v
            out.append(_canonical(acc) if rb else ra)
        return ExactMatrix._stored(self.rows, self.cols, tuple(out))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_nz = other.nonzero_rows
        out = []
        for arow in self.nonzero_rows:
            acc: dict[int, Scalar] = {}
            for k, a in arow:
                for j, b in other_nz[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_canonical(acc))
        return ExactMatrix._stored(self.rows, other.cols, tuple(out))

    def scaled(self, c: Scalar) -> "ExactMatrix":
        if not c:
            return zeros(self.rows, self.cols)
        return ExactMatrix._stored(
            self.rows,
            self.cols,
            tuple(tuple((j, c * v) for j, v in row) for row in self.nonzero_rows),
        )

    def _require_same_shape(self, other: "ExactMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _canonical(acc: dict[int, Scalar]) -> Row:
    """The nonzero (column, value) pairs of an accumulator, sorted by column."""
    return tuple(sorted((j, v) for j, v in acc.items() if v))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix._stored(n, n, tuple(((i, 1),) for i in range(n)))


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix._stored(rows, cols, ((),) * rows)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, left factor outermost (row-major block layout).

    An entry whose two factors are the same objects as the previous
    entry's reuses that product, so a Kronecker product of two constant
    matrices (Q⊗R of canonical forms) holds a single product object, and
    `primitive_integer` converts each run of one value object once.
    """
    b_nz, b_cols = b.nonzero_rows, b.cols
    last_a = last_b = last = None
    out = []
    for arow in a.nonzero_rows:
        for brow in b_nz:
            row = []
            for j, av in arow:
                base = j * b_cols
                for l, bv in brow:
                    if av is not last_a or bv is not last_b:
                        last_a, last_b, last = av, bv, av * bv
                    row.append((base + l, last))
            out.append(tuple(row))
    return ExactMatrix._stored(a.rows * b.rows, a.cols * b_cols, tuple(out))


def kron_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a⊗I + I⊗b for square a and b.

    When no row of a or b holds more than one entry, as in the X, Y and H
    of every V_m, row (i, j) is built directly from two entries: b's entry
    (l, y) of row j moved into block i, at column i·dim_b + l, and a's entry
    (k, x) of row i moved to column k·dim_b + j.  The two meet only at
    column i·dim_b + j, where their sum is kept if it is nonzero.  Every
    other pair is the definition, kron(a, I) + kron(I, b).
    """
    if a.rows != a.cols or b.rows != b.cols:
        raise ValueError(
            f"kron_sum of {a.rows}x{a.cols} and {b.rows}x{b.cols}: both must be square"
        )
    d = b.rows
    if any(len(row) > 1 for row in a.nonzero_rows + b.nonzero_rows):
        return kron(a, identity(d)) + kron(identity(a.rows), b)
    b_entries = [brow[0] if brow else None for brow in b.nonzero_rows]
    out = []
    for i, arow in enumerate(a.nonzero_rows):
        base = i * d
        if not arow:
            out += [((base + e[0], e[1]),) if e else () for e in b_entries]
            continue
        ((k, x),) = arow
        for j, e in enumerate(b_entries):
            c = k * d + j
            if e is None:
                out.append(((c, x),))
                continue
            own = (base + e[0], e[1])
            if own[0] == c:
                out.append(((c, x + e[1]),) if x + e[1] else ())
            else:
                out.append(((c, x), own) if c < own[0] else (own, (c, x)))
    return ExactMatrix._stored(a.rows * d, a.rows * d, tuple(out))


def product_identity_holds(
    a: ExactMatrix,
    b: ExactMatrix,
    c: ExactMatrix,
    d: ExactMatrix,
    e: ExactMatrix,
    s: Scalar = 1,
    t: Scalar = 1,
) -> bool:
    """Whether a@b - s·(c@d) == t·e, compared in every entry.

    Each row of both products is added, and t times the row of e
    subtracted, in one accumulator list for the whole call; every column
    the row touched must then hold zero, which leaves the list zero for the
    next row.  No product matrix is built.  Shapes that `@` or `-` would
    reject raise ValueError.
    """
    for left, right in ((a, b), (c, d)):
        if left.cols != right.rows:
            raise ValueError(
                f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}"
            )
    shapes = {(a.rows, b.cols), (c.rows, d.cols), (e.rows, e.cols)}
    if len(shapes) != 1:
        raise ValueError(f"shape mismatch: {' vs '.join(map(str, sorted(shapes)))}")
    b_nz, d_nz = b.nonzero_rows, d.nonzero_rows
    acc: list[Scalar] = [0] * e.cols
    for arow, crow, erow in zip(a.nonzero_rows, c.nonzero_rows, e.nonzero_rows):
        touched = list(erow)
        for k, x in arow:
            for j, y in b_nz[k]:
                acc[j] += x * y
            touched += b_nz[k]
        for k, x in crow:
            x = s * x
            for j, y in d_nz[k]:
                acc[j] -= x * y
            touched += d_nz[k]
        for j, v in erow:
            acc[j] -= t * v
        for j, _ in touched:
            if acc[j]:
                return False
    return True


def diagonal(a: ExactMatrix) -> Optional[tuple[Scalar, ...]]:
    """The diagonal of a square matrix whose stored entries all lie on it
    (zeros included), and None for any other matrix."""
    if a.rows != a.cols:
        return None
    diag: list[Scalar] = []
    for i, row in enumerate(a.nonzero_rows):
        if not row:
            diag.append(0)
        elif len(row) == 1 and row[0][0] == i:
            diag.append(row[0][1])
        else:
            return None
    return tuple(diag)


def diagonal_identity_holds(
    h: Sequence[Scalar], a: ExactMatrix, s: Scalar = 1, t: Scalar = 1
) -> bool:
    """Whether D@a - s·(a@D) == t·a for D = diag(h), compared in every entry.

    Entry (i, j) of the left side is (h_i - s·h_j)·a_ij, so the identity
    holds exactly when h_i - s·h_j == t at every stored entry of a, a
    nonzero a_ij; an entry a does not store is zero on both sides.  This is
    `product_identity_holds(D, a, a, D, a, s, t)` with no product built.
    """
    if not len(h) == a.rows == a.cols:
        raise ValueError(
            f"diagonal of length {len(h)} against a {a.rows}x{a.cols} matrix"
        )
    for i, row in enumerate(a.nonzero_rows):
        target = h[i] - t
        for j, _ in row:
            if s * h[j] != target:
                return False
    return True


def _columns(a: ExactMatrix, v: Row) -> tuple[Row, ...]:
    """A's columns (rows of its cached transpose), once v's indices are checked."""
    for j, _ in v:
        if not 0 <= j < a.cols:
            raise ValueError(f"vector index {j} is outside the {a.cols} columns")
    return a.transpose.nonzero_rows


def _walk(columns: Sequence[Row], v: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
    """One product step: A·v as a map from index to value, summed over the
    columns of A at v's nonzero values.  An entry that cancels to zero
    stays in the map."""
    image: dict[int, Scalar] = {}
    get = image.get
    for j, x in v:
        if x:
            for i, entry in columns[j]:
                image[i] = get(i, 0) + entry * x
    return image


def mat_vec(a: ExactMatrix, v: Row) -> Row:
    """Exact product A·v of any matrix and a vector in the `Row` format.

    Walks only the columns of A at v's indices, so a vector confined to
    one weight space costs that space's nonzeros, not all of A's.  Each
    entry sums its terms in increasing column order, as a walk along A's
    rows would.
    """
    return _canonical(_walk(_columns(a, v), v))


def apply_power(a: ExactMatrix, v: Row, s: int) -> Row:
    """A applied s >= 0 times to a vector in the `Row` format; s = 0 returns
    v as it is.  A step's map becomes the next step's as it is: an entry
    that cancelled to zero stays in it and is skipped, and zeros are
    dropped once, at the end."""
    if a.rows != a.cols:
        raise ValueError("apply_power needs a square matrix")
    if s < 0:
        raise ValueError(f"power must be nonnegative (got {s})")
    columns = _columns(a, v)
    image = dict(v)
    for _ in range(s):
        image = _walk(columns, image.items())
    return _canonical(image)


def _content(values: Sequence[Scalar]) -> tuple[int, int]:
    """(lcm of the denominators, gcd of the numerators) of nonzero rationals.

    Scaling by den/g > 0 turns them into coprime integers: x = p/q in
    lowest terms becomes (p // g)·(den // q).
    """
    den = math.lcm(*(x.denominator for x in values))
    return den, math.gcd(*(x.numerator for x in values))


def primitive_integer(a: ExactMatrix) -> ExactMatrix:
    """The positive multiple of `a` whose entries are integers with gcd 1.

    The zero matrix, and any matrix with no entries, comes back unchanged.
    """
    values = [x for row in a.nonzero_rows for _, x in row]
    if not values:
        return a
    den, g = _content(values)
    # each run of one value object is converted once: a Kronecker product
    # of canonical forms holds a single product object (`kron`)
    last = scaled = None
    rows = []
    for row in a.nonzero_rows:
        out = []
        for j, x in row:
            if x is not last:
                last, scaled = x, x.numerator // g * (den // x.denominator)
            out.append((j, scaled))
        rows.append(tuple(out))
    return ExactMatrix._stored(a.rows, a.cols, tuple(rows))


def _coprime_integer_row(row: Row) -> dict[int, int]:
    """Integer row with gcd 1 spanning the same line as a nonempty sparse row.

    A row of `int`s needs only their gcd, and comes back as it is when that
    is 1 (a primitive integer Gram matrix); any `Fraction` in the row sends
    it through `_content`.  A row with one entry (every row of a tensor Gram
    matrix) becomes {j: ±1}, which is what the general path computes.
    """
    if len(row) == 1:
        (j, x), = row
        return {j: 1 if x > 0 else -1}
    values = [x for _, x in row]
    if all(type(x) is int for x in values):
        g = math.gcd(*values)
        return dict(row) if g == 1 else {j: x // g for j, x in row}
    den, g = _content(values)
    return {j: x.numerator // g * (den // x.denominator) for j, x in row}


def _echelon(a: ExactMatrix) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer row echelon form, one row at a time.

    Returns the pivot rows, each a map from column to nonzero integer, and
    their pivot columns, both sorted by column.  Each nonzero row of `a` is
    scaled to coprime integers; while its least column c has a pivot row,
    it becomes piv·row - row[c]·pivot_row, scaled to coprime integers again.
    A row that is still nonzero becomes the pivot row of its least column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for stored in a.nonzero_rows:
        row = _coprime_integer_row(stored) if stored else {}
        while row:
            c = min(row)
            pivot_row = pivots.get(c)
            if pivot_row is None:
                pivots[c] = row
                break
            piv, f = pivot_row[c], row[c]
            acc = {j: piv * v for j, v in row.items()}
            for j, v in pivot_row.items():
                acc[j] = acc.get(j, 0) - f * v
            reduced = [(j, v) for j, v in acc.items() if v]
            row = _coprime_integer_row(reduced) if reduced else {}
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def rank(a: ExactMatrix) -> int:
    """Exact rank: the number of pivot columns of the integer echelon form."""
    return len(_echelon(a)[1])


def null_space(a: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """A basis of ker(A), one vector per free column in increasing order.

    The vector of a free column has that coordinate 1 and every other free
    coordinate 0, so it depends only on the row space of A, not on which
    rows pivot.  It is then normalized so its first nonzero coordinate is
    1, which makes the output directly comparable to closed forms
    normalized the same way.

    Back-substitution runs in integers on the pivot rows of `_echelon`,
    last pivot column first: the vector is held as integers with one
    common scale, so pivot column c with pivot p takes the value -s/p,
    where s is the row's sum over the coordinates already set.  When
    p/gcd(s, p) is not ±1, the whole vector is first multiplied by its
    absolute value.  A kernel vector is fixed only up to scale, so the
    scale is never tracked; one `Fraction` per coordinate, divided by the
    leading coordinate, is built at the end.
    """
    pivot_rows, pivot_cols = _echelon(a)
    pivots = set(pivot_cols)
    back = list(zip(reversed(pivot_cols), reversed(pivot_rows)))
    basis: list[tuple[Fraction, ...]] = []
    for free in range(a.cols):
        if free in pivots:
            continue
        x = {free: 1}
        for c, row in back:
            s = sum(v * x[j] for j, v in row.items() if j in x)
            if s:
                p = row[c]
                g = math.gcd(s, p)
                s, p = s // g, p // g
                if p not in (1, -1):
                    t = abs(p)
                    x = {j: v * t for j, v in x.items()}
                x[c] = -s if p > 0 else s
        lead = x[min(x)]
        dense = [Fraction(0)] * a.cols
        for j, v in x.items():
            dense[j] = Fraction(v, lead)
        basis.append(tuple(dense))
    return basis
