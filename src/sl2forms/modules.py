"""Finite-dimensional sl₂(ℝ) weight modules over exact rationals.

Everything here is a module with a weight-labelled basis and explicit
matrices for the generators X, Y, H satisfying

    [X, Y] = H,   [H, X] = 2X,   [H, Y] = -2Y.

The irreducible module V_m has basis e_{-m}, e_{-m+2}, ..., e_m ordered by
increasing weight, with

    H e_w = w e_w,
    Y e_{m-2i} = e_{m-2(i+1)}        (and Y kills e_{-m}),
    X e_{m-2i} = i(m-i+1) e_{m-2(i-1)}  (and X kills e_m).

The H eigenvalue equals the basis subscript; this is forced by [X, Y] = H
together with the X and Y lines, and `check_relations` enforces it on every
constructed module.

Tensor products carry the Leibniz action g(a⊗b) = ga⊗b + a⊗gb in the
lexicographic basis (left factor outermost).  Decomposition into
irreducibles is computed by weight-multiplicity differencing, so the
Clebsch-Gordan pattern V_|m-n| ⊕ V_|m-n|+2 ⊕ ... ⊕ V_{m+n} comes out as a
verified result rather than an assumption.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .linalg import (
    ExactMatrix,
    Row,
    h_identity_holds,
    kron_sum,
    mat_vec,
    product_identity_holds,
)
from .rationals import Scalar
from .records import frozen

GENERATORS = ("X", "Y", "H")


@frozen
class WeightModule(NamedTuple):
    """A basis-explicit module: weights plus exact matrices for X, Y, H.

    Construction validates shapes only.  The bracket relations are the job
    of `check_relations`, so deliberately corrupted modules can be built
    for negative tests.
    """

    label: str
    weights: tuple[int, ...]
    basis_names: tuple[str, ...]
    actX: ExactMatrix
    actY: ExactMatrix
    actH: ExactMatrix

    @property
    def dim(self) -> int:
        return len(self.weights)

    def _check(self) -> None:
        _, weights, basis_names, actX, actY, actH = self
        dim = len(weights)
        if len(basis_names) != dim:
            raise ValueError("basis_names must have one entry per weight")
        for g, mat in zip(GENERATORS, (actX, actY, actH)):
            if mat.rows != dim or mat.cols != dim:
                raise ValueError(f"act{g} must be {dim}x{dim}")

    def generator(self, g: str) -> ExactMatrix:
        if g == "X":
            return self.actX
        if g == "Y":
            return self.actY
        if g == "H":
            return self.actH
        raise ValueError(f"unknown generator {g!r}; expected one of {GENERATORS}")


@frozen
class ModuleVector(NamedTuple):
    """Exact vector in a module's basis, held as its nonzero terms: the
    (basis index, value) pairs in increasing index order, the `linalg.Row`
    format of a matrix row."""

    module: WeightModule
    terms: Row

    def _check(self) -> None:
        # one pass: a sweep builds thousands of vectors
        module, terms = self
        last = -1
        for j, v in terms:
            if j <= last:
                raise ValueError(f"term index {j} is out of order: indices rise from 0")
            if not v:
                raise ValueError(f"term {j} is zero: only nonzero terms are held")
            last = j
        if last >= module.dim:
            raise ValueError(
                f"term index {last} does not live in {module.label} (dim {module.dim})"
            )

    def is_zero(self) -> bool:
        return not self.terms


@frozen
class RelationReport(NamedTuple):
    """Outcome of checking the three bracket identities on a module."""

    label: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@frozen
class DecompositionReport(NamedTuple):
    """Multiset of irreducible summands: (m_j, multiplicity) pairs, m_j ascending."""

    dim: int
    summands: tuple[tuple[int, int], ...]

    def _check(self) -> None:
        dim, summands = self
        total = sum(mult * (j + 1) for j, mult in summands)
        if total != dim:
            raise ValueError(
                f"summand dimensions add to {total}, not {dim}: "
                "weight multiset is not a direct sum of irreducibles"
            )


@lru_cache(maxsize=None)
def irreducible(m: int, symbol: str = "e") -> WeightModule:
    """The (m+1)-dimensional irreducible module V_m.

    Basis vectors are named ``{symbol}_{w}`` by weight w = -m, -m+2, ..., m
    in increasing order.
    """
    if m < 0:
        raise ValueError(f"irreducible module label must be nonnegative (got {m})")
    dim = m + 1
    weights = tuple(-m + 2 * j for j in range(dim))
    names = tuple(f"{symbol}_{{{w}}}" for w in weights)
    # Position j holds e_{m-2i} with i = m-j, so X's coefficient i(m-i+1)
    # reads (m-j)(j+1) and lands one position up; Y moves one position down.
    x = [()] + [((j, (m - j) * (j + 1)),) for j in range(dim - 1)]
    y = [((j + 1, 1),) for j in range(dim - 1)] + [()]
    h = [((j, w),) for j, w in enumerate(weights)]
    return WeightModule(
        label=f"V_{m}",
        weights=weights,
        basis_names=names,
        actX=ExactMatrix(dim, dim, x),
        actY=ExactMatrix(dim, dim, y),
        actH=ExactMatrix(dim, dim, h),
    )


def check_relations(module: WeightModule) -> RelationReport:
    """Verify [X,Y] = H, [H,X] = 2X, [H,Y] = -2Y as exact matrix identities,
    each compared in every entry.

    [X,Y] = H is checked by `linalg.product_identity_holds`, and [H,X] = 2X
    and [H,Y] = -2Y by `linalg.h_identity_holds`, which chooses how.
    """
    x, y, h = module.actX, module.actY, module.actH
    failures = []
    if not product_identity_holds(x, y, y, x, h):
        failures.append("[X,Y]=H")
    for name, a, t in (("[H,X]=2X", x, 2), ("[H,Y]=-2Y", y, -2)):
        if not h_identity_holds(h, a, t=t):
            failures.append(name)
    return RelationReport(label=module.label, failures=tuple(failures))


def require_module(x, module: WeightModule, lives: str) -> None:
    """Raise unless x (a vector or a form) belongs to `module`; `lives`
    begins the message, as in "vector lives in"."""
    if x.module is not module and x.module != module:
        raise ValueError(f"{lives} {x.module.label}, not {module.label}")


def act(module: WeightModule, g: str, v: ModuleVector) -> ModuleVector:
    """Apply a generator (tag "X", "Y" or "H") to a vector of this module."""
    require_module(v, module, "vector lives in")
    return ModuleVector(module, mat_vec(module.generator(g), v.terms))


def tensor_product(a: WeightModule, b: WeightModule) -> WeightModule:
    """A⊗B with the Leibniz action, basis lexicographic (left factor outer).

    Each generator acts as ga⊗I + I⊗gb (`linalg.kron_sum`).  On factors
    whose generators hold at most one entry per row, as every V_m's do,
    row (i, j) is built directly from A's entry of row i and B's entry of
    row j; other factors take the two Kronecker products.
    """
    weights = tuple(wa + wb for wa in a.weights for wb in b.weights)
    names = tuple(f"{na}⊗{nb}" for na in a.basis_names for nb in b.basis_names)
    return WeightModule(
        label=f"{a.label}⊗{b.label}",
        weights=weights,
        basis_names=names,
        actX=kron_sum(a.actX, b.actX),
        actY=kron_sum(a.actY, b.actY),
        actH=kron_sum(a.actH, b.actH),
    )


@lru_cache(maxsize=1)  # a sweep finishes each (m, n) pair before the next
def tensor_of_irreducibles(m: int, n: int) -> WeightModule:
    """V_m⊗V_n with left basis symbol e and right basis symbol ẽ."""
    return tensor_product(irreducible(m, "e"), irreducible(n, "ẽ"))


def weight_space_indices(module: WeightModule, w: int) -> tuple[int, ...]:
    """Positions (in basis order) of the basis vectors of weight w, by a
    scan of the module's weights."""
    return tuple(j for j, wt in enumerate(module.weights) if wt == w)


def decompose(module: WeightModule) -> DecompositionReport:
    """Irreducible multiplicities by weight differencing.

    mult(V_j) = #(weights equal to j) - #(weights equal to j+2) for j ≥ 0,
    scanning down from the maximal weight.  A negative difference, or a
    total dimension mismatch, means the weight multiset cannot come from a
    direct sum of irreducibles and raises an error.
    """
    if module.dim == 0:
        return DecompositionReport(dim=0, summands=())
    counts = Counter(module.weights)
    top = max(module.weights)
    summands = []
    for j in range(top, -1, -2):
        mult = counts[j] - counts[j + 2]
        if mult < 0:
            raise ValueError(
                f"weight {j} has multiplicity {counts[j]} but weight {j + 2} has "
                f"{counts[j + 2]}: not a direct sum of irreducibles"
            )
        if mult:
            summands.append((j, mult))
    summands.reverse()
    return DecompositionReport(dim=module.dim, summands=tuple(summands))


def perturbed(
    module: WeightModule, g: str, row: int, col: int, delta: Scalar
) -> WeightModule:
    """Copy of the module with one generator matrix entry bumped by delta.

    Used as a corruption oracle: the result should fail check_relations
    (and downstream verifications) whenever delta breaks a bracket.  Only
    the bumped row is rebuilt; an entry that cancels to zero is dropped.
    """
    mat = module.generator(g)
    if not (0 <= row < mat.rows and 0 <= col < mat.cols):
        raise IndexError(
            f"entry ({row}, {col}) is outside the {mat.rows}x{mat.cols} "
            f"act{g} of {module.label}"
        )
    rows = list(mat.nonzero_rows)
    entries = dict(rows[row])
    entries[col] = entries.get(col, 0) + delta
    (rows[row],) = ExactMatrix(1, mat.cols, [entries.items()]).nonzero_rows
    bumped = ExactMatrix._stored(mat.rows, mat.cols, tuple(rows))
    return module._replace(**{f"act{g}": bumped, "label": f"{module.label}~corrupt"})


def format_vector(module: WeightModule, terms: Row) -> str:
    """Render a vector's terms as a signed combination of basis names.

    Unit coefficients are suppressed: ``e_{-1}⊗ẽ_{1} - e_{1}⊗ẽ_{-1}``.
    """
    pieces = []
    for j, c in terms:
        name = module.basis_names[j]
        mag = str(abs(c))
        body = name if mag == "1" else f"{mag}·{name}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) if pieces else "0"
