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
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .linalg import ExactMatrix, kron_sum, mat_vec, product_identity_holds
from .rationals import Scalar
from .records import frozen

GENERATORS = ("X", "Y", "H")


class _WeightModuleFields(NamedTuple):
    label: str
    dim: int
    weights: tuple[int, ...]
    basis_names: tuple[str, ...]
    actX: ExactMatrix
    actY: ExactMatrix
    actH: ExactMatrix


@frozen
class WeightModule(_WeightModuleFields):
    """A basis-explicit module: weights plus exact matrices for X, Y, H.

    Construction validates shapes only.  The bracket relations are the job
    of `check_relations`, so deliberately corrupted modules can be built
    for negative tests.  The class has no ``__slots__``, so that the cached
    `weight_positions` has an instance ``__dict__`` to live in.
    """

    def __new__(
        cls,
        label: str,
        dim: int,
        weights: tuple[int, ...],
        basis_names: tuple[str, ...],
        actX: ExactMatrix,
        actY: ExactMatrix,
        actH: ExactMatrix,
    ) -> WeightModule:
        if dim < 0:
            raise ValueError("module dimension must be nonnegative")
        if len(weights) != dim or len(basis_names) != dim:
            raise ValueError("weights and basis_names must have one entry per dimension")
        for g, mat in zip(GENERATORS, (actX, actY, actH)):
            if mat.rows != dim or mat.cols != dim:
                raise ValueError(f"act{g} must be {dim}x{dim}")
        return super().__new__(cls, label, dim, weights, basis_names, actX, actY, actH)

    @cached_property
    def weight_positions(self) -> dict[int, tuple[int, ...]]:
        """Weight -> positions (in basis order) of the basis vectors of that
        weight, built on first use and kept with the module."""
        positions: dict[int, list[int]] = {}
        for j, w in enumerate(self.weights):
            positions.setdefault(w, []).append(j)
        return {w: tuple(js) for w, js in positions.items()}

    def generator(self, g: str) -> ExactMatrix:
        if g == "X":
            return self.actX
        if g == "Y":
            return self.actY
        if g == "H":
            return self.actH
        raise ValueError(f"unknown generator {g!r}; expected one of {GENERATORS}")


class _ModuleVectorFields(NamedTuple):
    module: WeightModule
    coords: tuple[Scalar, ...]


@frozen
class ModuleVector(_ModuleVectorFields):
    """Exact coordinate vector in a module's basis."""

    __slots__ = ()

    def __new__(cls, module: WeightModule, coords: tuple[Scalar, ...]) -> ModuleVector:
        if len(coords) != module.dim:
            raise ValueError(
                f"vector of length {len(coords)} does not live in "
                f"{module.label} (dim {module.dim})"
            )
        return super().__new__(cls, module, coords)

    def is_zero(self) -> bool:
        return not any(self.coords)


@frozen
class RelationReport(NamedTuple):
    """Outcome of checking the three bracket identities on a module."""

    label: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class _DecompositionFields(NamedTuple):
    dim: int
    summands: tuple[tuple[int, int], ...]


@frozen
class DecompositionReport(_DecompositionFields):
    """Multiset of irreducible summands: (m_j, multiplicity) pairs, m_j ascending."""

    __slots__ = ()

    def __new__(
        cls, dim: int, summands: tuple[tuple[int, int], ...]
    ) -> DecompositionReport:
        total = sum(mult * (j + 1) for j, mult in summands)
        if total != dim:
            raise ValueError(
                f"summand dimensions add to {total}, not {dim}: "
                "weight multiset is not a direct sum of irreducibles"
            )
        return super().__new__(cls, dim, summands)


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
        dim=dim,
        weights=weights,
        basis_names=names,
        actX=ExactMatrix.from_sparse(dim, dim, x),
        actY=ExactMatrix.from_sparse(dim, dim, y),
        actH=ExactMatrix.from_sparse(dim, dim, h),
    )


def check_relations(module: WeightModule) -> RelationReport:
    """Verify [X,Y] = H, [H,X] = 2X, [H,Y] = -2Y as exact matrix identities,
    each compared in every entry by `linalg.product_identity_holds`."""
    x, y, h = module.actX, module.actY, module.actH
    failures = []
    if not product_identity_holds(x, y, y, x, h):
        failures.append("[X,Y]=H")
    if not product_identity_holds(h, x, x, h, x, t=2):
        failures.append("[H,X]=2X")
    if not product_identity_holds(h, y, y, h, y, t=-2):
        failures.append("[H,Y]=-2Y")
    return RelationReport(label=module.label, failures=tuple(failures))


def act(module: WeightModule, g: str, v: ModuleVector) -> ModuleVector:
    """Apply a generator (tag "X", "Y" or "H") to a vector of this module."""
    if v.module is not module and v.module != module:
        raise ValueError(
            f"vector lives in {v.module.label}, not {module.label}"
        )
    return ModuleVector(module, mat_vec(module.generator(g), v.coords))


def tensor_product(a: WeightModule, b: WeightModule) -> WeightModule:
    """A⊗B with the Leibniz action, basis lexicographic (left factor outer).

    Each generator acts as ga⊗I + I⊗gb (`linalg.kron_sum`).  On factors
    whose generators hold at most one entry per row, as every V_m's do,
    row (i, j) is built directly from A's entry of row i and B's entry of
    row j; other factors take the two Kronecker products.
    """
    dim = a.dim * b.dim
    weights = tuple(wa + wb for wa in a.weights for wb in b.weights)
    names = tuple(f"{na}⊗{nb}" for na in a.basis_names for nb in b.basis_names)
    return WeightModule(
        label=f"{a.label}⊗{b.label}",
        dim=dim,
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
    """Positions (in basis order) of the basis vectors of weight w.

    Read from the module's `WeightModule.weight_positions` map, so the
    weights are scanned once per module, not once per call.
    """
    return module.weight_positions.get(w, ())


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
    (and downstream verifications) whenever delta breaks a bracket.
    """
    mat = module.generator(g)
    grid = [list(r) for r in mat.entries]
    grid[row][col] += delta
    bumped = ExactMatrix.from_rows(grid)
    return module._replace(**{f"act{g}": bumped, "label": f"{module.label}~corrupt"})


def format_vector(module: WeightModule, coords: Sequence[Scalar]) -> str:
    """Render a coordinate vector as a signed combination of basis names.

    Unit coefficients are suppressed: ``e_{-1}⊗ẽ_{1} - e_{1}⊗ẽ_{-1}``.
    """
    pieces = []
    for name, c in zip(module.basis_names, coords):
        if not c:
            continue
        mag = str(abs(c))
        body = name if mag == "1" else f"{mag}·{name}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) if pieces else "0"
