"""Symmetric bilinear forms compatible with the sl₂ anti-involution.

The anti-involution fixes X and Y and negates H.  A module together with a
nondegenerate symmetric form Q satisfying

    Q(Xu, v) = Q(u, Xv),   Q(Yu, v) = Q(u, Yv),   Q(Hu, v) = -Q(u, Hv)

is what the rest of the package calls a *-module.  On an irreducible V_m
the compatible forms are exactly the anti-diagonal-constant ones,
Q(e_i, e_{-i}) = q for every weight i and zero otherwise.  `canonical_form`
constructs that representative, `is_star_form` checks that it is
compatible and nondegenerate, and `structure_of` recognizes its shape.  The
converse, that every compatible form has this shape, is not computed here.
`is_star_form` returns a `modules.CheckReport`, the record of
`check_relations` too: its failures name each identity that fails, and
`degenerate` for a Gram matrix of rank below the module's dimension.

Tensor modules inherit (Q⊗R)(a⊗b, a'⊗b') = Q(a,a')·R(b,b'), a Kronecker
pairing of Gram matrices in the lexicographic tensor basis.

`is_star_form` checks a form through the primitive integer multiple of its
Gram matrix (`linalg.primitive_integer`).  That is equivalent: each
identity is homogeneous and linear in the Gram matrix, so it holds for a
nonzero multiple exactly when it holds for the matrix itself, and rank does
not change under a nonzero scale.  The integer multiple keeps the checks
out of `Fraction` arithmetic: a tensor Gram matrix q·r·P, with P the
anti-diagonal permutation matrix, becomes ±P.  The H identity goes
through `linalg.h_identity_holds`, which chooses how to check it.
`evaluate` keeps its sum in integers too, one sum per denominator of the
Gram entries.  A form holds only its module and its Gram matrix, and
nothing is cached on either: symmetry is read off the stored rows, and
`tensor_of_canonical_forms` builds a new Q⊗R on each call.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Optional

from .linalg import (
    ExactMatrix,
    h_identity_holds,
    kron,
    primitive_integer,
    product_identity_holds,
    rank,
)
from .modules import (
    CheckReport,
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

    Symmetry is enforced at construction, on the stored rows: each stored
    entry (i, j, v) must be stored as (i, v) in row j.  Nondegeneracy is
    not, so that degenerate or otherwise broken forms can be fed to
    `is_star_form` in negative tests.
    """

    module: WeightModule
    gram: ExactMatrix

    def _check(self) -> None:
        module, gram = self
        d = module.dim
        if gram.rows != d or gram.cols != d:
            raise ValueError(f"gram matrix must be {d}x{d} for {module.label}")
        rows = gram.nonzero_rows
        if any((i, v) not in rows[j] for i, row in enumerate(rows) for j, v in row):
            raise ValueError("gram matrix must be symmetric")


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


def is_star_form(module: WeightModule, form: BilinearForm) -> CheckReport:
    """Check the three compatibility identities and nondegeneracy, exactly.

    The report's failures name the X, Y and H identities that fail, in
    that order, and then `degenerate` if the Gram matrix has rank below
    the module's dimension.

    In Gram-matrix terms the identities read Gᵀ·gram = gram·G for G = actX,
    actY and Gᵀ·gram = -gram·G for actH.  Each is compared in every entry on
    the primitive integer multiple of the Gram matrix, computed here once
    per call, and rank is taken of that multiple too: both sides of each
    identity scale by the same positive factor, and a nonzero scale keeps
    the rank.  The X and Y identities go row by row through
    `linalg.product_identity_holds`, and the H identity through
    `linalg.h_identity_holds`, which chooses how.
    """
    require_module(form, module, "form lives on")
    gram = primitive_integer(form.gram)
    x, y, h = module.actX, module.actY, module.actH
    failures = []
    if not product_identity_holds(x.transpose, gram, gram, x, gram, t=0):
        failures.append("Q(Xu,v)=Q(u,Xv)")
    if not product_identity_holds(y.transpose, gram, gram, y, gram, t=0):
        failures.append("Q(Yu,v)=Q(u,Yv)")
    if not h_identity_holds(h, gram, -1, t=0, transposed=True):
        failures.append("Q(Hu,v)=-Q(u,Hv)")
    if rank(gram) != module.dim:
        failures.append("degenerate")
    return CheckReport(label=module.label, failures=tuple(failures))


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


def tensor_of_canonical_forms(m: int, n: int, q: Scalar, r: Scalar) -> BilinearForm:
    """Q⊗R on V_m⊗V_n for the canonical forms with constants q and r."""
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
