"""Symmetric bilinear forms compatible with the sl₂ anti-involution.

The anti-involution fixes X and Y and negates H.  A module together with a
nondegenerate symmetric form Q satisfying

    Q(Xu, v) = Q(u, Xv),   Q(Yu, v) = Q(u, Yv),   Q(Hu, v) = -Q(u, Hv)

is what the rest of the package calls a *-module.  On an irreducible V_m
the compatible forms are exactly the anti-diagonal-constant ones,
Q(e_i, e_{-i}) = q for every weight i and zero otherwise.  `canonical_form`
constructs that representative, `is_star_form` checks that it is
compatible, and `structure_of` recognizes its shape.  The converse, that
every compatible form has this shape, is not computed here.

Tensor modules inherit (Q⊗R)(a⊗b, a'⊗b') = Q(a,a')·R(b,b'), a Kronecker
pairing of Gram matrices in the lexicographic tensor basis.

`is_star_form` checks a form through the primitive integer multiple of its
Gram matrix (`linalg.primitive_integer`).  That is equivalent: each
identity is homogeneous and linear in the Gram matrix, so it holds for a
nonzero multiple exactly when it holds for the matrix itself, and rank does
not change under a nonzero scale.  The integer multiple keeps the checks
out of `Fraction` arithmetic: a tensor Gram matrix q·r·P, with P the
anti-diagonal permutation matrix, becomes ±P.  The H identity needs no
product at all when H is diagonal, as on every V_m and V_m⊗V_n: it holds
exactly when each stored Gram entry g_ij pairs H-eigenvalues with
h_i + h_j = 0, which `is_star_form` reads off the stored entries.
`evaluate` keeps its sum in integers too, one sum per denominator of the
Gram entries.  A form holds
only its module and its Gram matrix; neither route caches anything on it.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .linalg import (
    ExactMatrix,
    diagonal,
    diagonal_identity_holds,
    kron,
    primitive_integer,
    product_identity_holds,
    rank,
    zeros,
)
from .modules import (
    ModuleVector,
    WeightModule,
    irreducible,
    require_module,
    tensor_of_irreducibles,
)
from .rationals import Scalar
from .records import frozen


@frozen
class BilinearForm(NamedTuple):
    """A symmetric Gram matrix attached to a module's basis.

    Symmetry is enforced at construction; nondegeneracy is not, so that
    degenerate or otherwise broken forms can be fed to `is_star_form` in
    negative tests.
    """

    module: WeightModule
    gram: ExactMatrix

    def _check(self) -> None:
        module, gram = self
        d = module.dim
        if gram.rows != d or gram.cols != d:
            raise ValueError(f"gram matrix must be {d}x{d} for {module.label}")
        if gram != gram.transpose:
            raise ValueError("gram matrix must be symmetric")


@frozen
class StarFormReport(NamedTuple):
    """Compatibility of one form with the anti-involution, plus nondegeneracy."""

    label: str
    failures: tuple[str, ...]
    nondegenerate: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.nondegenerate


def canonical_form(m: int, q: Scalar) -> BilinearForm:
    """The anti-diagonal constant form Q(e_i, e_{-i}) = q on V_m.

    q must be nonzero: the form is required to be nondegenerate.
    """
    if not q:
        raise ValueError("canonical form requires q != 0 (nondegeneracy)")
    module = irreducible(m)
    d = module.dim
    # one entry per row, at the anti-diagonal column: already canonical
    gram = ExactMatrix._stored(d, d, tuple(((d - 1 - i, q),) for i in range(d)))
    return BilinearForm(module, gram)


def is_star_form(module: WeightModule, form: BilinearForm) -> StarFormReport:
    """Check the three compatibility identities and nondegeneracy, exactly.

    In Gram-matrix terms the identities read Gᵀ·gram = gram·G for G = actX,
    actY and Gᵀ·gram = -gram·G for actH.  Each is compared in every entry on
    the primitive integer multiple of the Gram matrix, computed here once
    per call, and rank is taken of that multiple too: both sides of each
    identity scale by the same positive factor, and a nonzero scale keeps
    the rank.  The X and Y identities go row by row through
    `linalg.product_identity_holds`.  When H is diagonal, entry (i, j) of
    Hᵀ·gram + gram·H is (h_i + h_j)·g_ij, so the H identity says that the
    form pairs H-eigenvalue h_i only with -h_i, and
    `linalg.diagonal_identity_holds` checks h_i + h_j = 0 over the stored
    entries g_ij, with no product row and no Hᵀ.  Any other H takes the
    row products.
    """
    require_module(form, module, "form lives on")
    gram = primitive_integer(form.gram)
    zero = zeros(gram.rows, gram.cols)
    x, y, h = module.actX, module.actY, module.actH
    failures = []
    if not product_identity_holds(x.transpose, gram, gram, x, zero):
        failures.append("Q(Xu,v)=Q(u,Xv)")
    if not product_identity_holds(y.transpose, gram, gram, y, zero):
        failures.append("Q(Yu,v)=Q(u,Yv)")
    h_diag = diagonal(h)
    if h_diag is None:
        h_holds = product_identity_holds(h.transpose, gram, gram, h, zero, s=-1)
    else:
        h_holds = diagonal_identity_holds(h_diag, gram, s=-1, t=0)
    if not h_holds:
        failures.append("Q(Hu,v)=-Q(u,Hv)")
    nondegenerate = rank(gram) == module.dim
    return StarFormReport(
        label=module.label, failures=tuple(failures), nondegenerate=nondegenerate
    )


def structure_of(form: BilinearForm) -> tuple[bool, Optional[Scalar]]:
    """Recognize the anti-diagonal-constant shape of a Gram matrix.

    Returns (True, q) when every entry off the anti-diagonal vanishes and
    all anti-diagonal entries equal the same constant q; (False, None)
    otherwise.
    """
    gram = form.gram
    d = gram.rows
    if d == 0:
        return True, None
    q = dict(gram.nonzero_rows[0]).get(d - 1, 0)
    for i, row in enumerate(gram.nonzero_rows):
        if row != (((d - 1 - i, q),) if q else ()):
            return False, None
    return True, q


def tensor_form(
    left: BilinearForm, right: BilinearForm, module: WeightModule
) -> BilinearForm:
    """The induced form Q⊗R on a tensor module built from left's and right's.

    The target module must have the lexicographic tensor basis: dimension
    the product of the factor dimensions, weights the lexicographic sums.
    """
    a, b = left.module, right.module
    if module.dim != a.dim * b.dim:
        raise ValueError(
            f"{module.label} has dim {module.dim}, expected {a.dim * b.dim} "
            f"for {a.label}⊗{b.label}"
        )
    expected = tuple(wa + wb for wa in a.weights for wb in b.weights)
    if module.weights != expected:
        raise ValueError(
            f"basis order of {module.label} does not match the lexicographic "
            f"tensor basis of {a.label}⊗{b.label}"
        )
    return BilinearForm(module, kron(left.gram, right.gram))


@lru_cache(maxsize=1)  # a sweep finishes each (m, n) pair before the next
def tensor_of_canonical_forms(m: int, n: int, q: Scalar, r: Scalar) -> BilinearForm:
    """Q⊗R on V_m⊗V_n for the canonical forms with constants q and r.

    Built once per pair: the star-form check and the ω brute route of the
    same pair read the same form.
    """
    return tensor_form(
        canonical_form(m, q), canonical_form(n, r), tensor_of_irreducibles(m, n)
    )


def evaluate(form: BilinearForm, u: ModuleVector, v: ModuleVector) -> Fraction:
    """uᵀ·gram·v, exactly.

    Sums u_i·v_j·g_ij over u's terms u_i and the stored entries of row i
    of the Gram matrix, so a pair of vectors in one weight space costs that
    space's Gram entries, not the module dimension.  Each term's numerator
    part u_i·v_j·numerator(g_ij) joins the sum kept for denominator(g_ij),
    so integer vectors sum in integers; the sums become one `Fraction`.
    """
    for w in (u, v):
        require_module(w, form.module, "vector lives in")
    rows, y = form.gram.nonzero_rows, dict(v.terms)
    sums: defaultdict[int, Scalar] = defaultdict(int)
    for i, xi in u.terms:
        for j, g in rows[i]:
            yj = y.get(j)
            if yj:
                sums[g.denominator] += xi * yj * g.numerator
    return sum((Fraction(s, d) for d, s in sums.items()), Fraction(0))
