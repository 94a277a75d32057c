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

The elimination engine is fraction-free (Bareiss) on its own dense
integer work grid: every row is first scaled to coprime integers, then
eliminated with the two-term determinant update divided exactly by the
previous pivot, so intermediate entries stay minor-sized instead of
growing the way naive fractional elimination lets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .rationals import Scalar

Row = tuple[tuple[int, Scalar], ...]


@dataclass(frozen=True, init=False)
class ExactMatrix:
    """Immutable rows x cols matrix of exact rational entries.

    ``nonzero_rows[i]`` holds row i's nonzero entries as (column, value)
    pairs in increasing column order; nothing else is stored.
    """

    rows: int
    cols: int
    nonzero_rows: tuple[Row, ...]

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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzero_rows", nonzero_rows)

    @classmethod
    def _stored(
        cls, rows: int, cols: int, nonzero_rows: tuple[Row, ...]
    ) -> "ExactMatrix":
        """Wrap rows that are already canonical: sorted columns, no zeros."""
        matrix = object.__new__(cls)
        matrix._assign(rows, cols, nonzero_rows)
        return matrix

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
        stored = tuple(_canonical(dict(row)) for row in nonzero_rows)
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
    """Kronecker product, left factor outermost (row-major block layout)."""
    b_nz, b_cols = b.nonzero_rows, b.cols
    out = [
        tuple((j * b_cols + l, av * bv) for j, av in arow for l, bv in brow)
        for arow in a.nonzero_rows
        for brow in b_nz
    ]
    return ExactMatrix._stored(a.rows * b.rows, a.cols * b_cols, tuple(out))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a @ b - b @ a


def mat_vec(a: ExactMatrix, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Exact product A*v."""
    if len(v) != a.cols:
        raise ValueError(f"vector of length {len(v)} does not match {a.cols} columns")
    out: list[Scalar] = []
    for row in a.nonzero_rows:
        acc: Scalar = 0
        for j, entry in row:
            x = v[j]
            if x:
                acc += entry * x
        out.append(acc)
    return tuple(out)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    acc: Scalar = 0
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def apply_power(a: ExactMatrix, v: Sequence[Scalar], s: int) -> tuple[Scalar, ...]:
    """A applied s >= 0 times to v; s = 0 returns v unchanged.

    Between steps the vector is held as a map from index to nonzero value,
    and each step walks only the columns of A at those indices, so a
    vector confined to one weight space costs that space's nonzeros, not
    all of A's.
    """
    if a.rows != a.cols:
        raise ValueError("apply_power needs a square matrix")
    if s < 0:
        raise ValueError(f"power must be nonnegative (got {s})")
    out = tuple(v)
    if len(out) != a.cols:
        raise ValueError(f"vector of length {len(out)} does not match {a.cols} columns")
    if not s:
        return out
    columns = a.transpose.nonzero_rows
    support = {j: x for j, x in enumerate(out) if x}
    for _ in range(s):
        image: dict[int, Scalar] = {}
        for j, x in support.items():
            for i, entry in columns[j]:
                image[i] = image.get(i, 0) + entry * x
        support = {i: y for i, y in image.items() if y}
    dense: list[Scalar] = [0] * a.rows
    for i, y in support.items():
        dense[i] = y
    return tuple(dense)


def _as_coprime_integer_row(row: Row, cols: int) -> list[int]:
    """Dense integer row with gcd 1 spanning the same line as a sparse row."""
    den = math.lcm(*(x.denominator for _, x in row))
    ints = [(j, x.numerator * (den // x.denominator)) for j, x in row]
    g = math.gcd(*(x for _, x in ints)) or 1
    dense = [0] * cols
    for j, x in ints:
        dense[j] = x // g
    return dense


def _bareiss_echelon(a: ExactMatrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.

    Returns the working integer grid and the pivot column list.  Rows whose
    pivot-column entry is zero still get the Bareiss rescale (pivot/prev),
    except when pivot == prev, where the update is the identity and is
    skipped; this keeps near-permutation inputs quadratic.
    """
    m = [_as_coprime_integer_row(row, a.cols) for row in a.nonzero_rows]
    nrows, ncols = a.rows, a.cols
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        p = -1
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        piv_row = m[r]
        piv = piv_row[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if f:
                for j in range(c, ncols):
                    row[j] = (piv * row[j] - f * piv_row[j]) // prev
            elif piv != prev:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = piv * row[j] // prev
        pivot_cols.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return m, pivot_cols


def rank(a: ExactMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    return len(_bareiss_echelon(a)[1])


def null_space(a: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """A basis of ker(A), one vector per free column in increasing order.

    Each vector is normalized so its first nonzero coordinate is 1, which
    makes the output deterministic and directly comparable to closed forms
    normalized the same way.
    """
    echelon, pivot_cols = _bareiss_echelon(a)
    pivots = set(pivot_cols)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(a.cols):
        if free in pivots:
            continue
        x: list[Fraction] = [Fraction(0)] * a.cols
        x[free] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            c = pivot_cols[i]
            row = echelon[i]
            s = Fraction(0)
            for j in range(c + 1, a.cols):
                if x[j] and row[j]:
                    s += row[j] * x[j]
            x[c] = -s / row[c]
        lead = next(v for v in x if v)
        if lead != 1:
            x = [v / lead for v in x]
        basis.append(tuple(x))
    return basis
