"""Equivalence of bialgebra candidates under automorphisms of g.

``transform`` implements the pushforward of a candidate along an automorphism
A of g: the dual tensor is conjugated by the inverse-transpose action, the
element components by A^{-t}, the 1-form components by A.  ``search_witness``
looks for a witness automorphism on a rational parameter grid (sound but not
complete: it never asserts inequivalence).  ``identify_dual`` matches a dual
tensor against the catalog up to isomorphism.  For solvable duals it builds
the exact invertible change of basis from the invariants (g = n + R*x with n
an abelian ideal containing [g,g]) or proves that no rational one exists;
simple duals are matched in their catalog presentation only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .bialgebra import JacobiLieBialgebra, SoundnessCheckError
from .catalog import (
    CatalogError,
    NotAutomorphismError,
    automorphism_family,
    is_automorphism,
    lookup,
)
from .exprs import eval_expr, eval_predicate, parse_expr
from .linalg import Matrix, Vector, rational_sqrt, solve_affine
from .structure import StructureTensor, adjoint_x, is_lie_algebra


def transform_tensor(gstar: StructureTensor, A: Matrix) -> StructureTensor:
    """Inverse-transpose conjugation of a dual tensor by an invertible A.

    The new bracket of e_i, e_j (i < j) is A applied to
    :meth:`StructureTensor.bracket` of rows i and j of U = A^-t; the j > i
    half follows by antisymmetry.
    """
    d = gstar.dim
    U = A.inverse().transpose()
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            for k, x in enumerate(A * gstar.bracket(U.row(i), U.row(j))):
                brackets[i, j, k] = x
    return StructureTensor.from_brackets(d, brackets)


def transform(b: JacobiLieBialgebra, A: Matrix) -> JacobiLieBialgebra:
    """Push a candidate forward along an automorphism A of its algebra g.

    Raises NotAutomorphismError when A does not preserve the bracket of g.
    The composition law is transform(transform(b, A1), A2) ==
    transform(b, A2 * A1).
    """
    if not is_automorphism(b.g, A):
        raise NotAutomorphismError("matrix does not preserve the bracket of g")
    return _pushforward(b, A)


def _pushforward(b: JacobiLieBialgebra, A: Matrix) -> JacobiLieBialgebra:
    """:func:`transform` without the automorphism check."""
    U = A.inverse().transpose()
    return JacobiLieBialgebra(
        b.g, transform_tensor(b.gstar, A), U * b.alpha, A * b.beta
    )


def is_equivalent_witness(
    b1: JacobiLieBialgebra, b2: JacobiLieBialgebra, A: Matrix
) -> bool:
    """True iff A is an automorphism of the shared g carrying b1 exactly to b2."""
    if b1.dim != b2.dim or A.dim != b1.dim:
        raise ValueError("dimension mismatch")
    if b1.g != b2.g:
        raise ValueError("witness test requires both candidates to share g")
    if not is_automorphism(b1.g, A):
        return False
    moved = _pushforward(b1, A)
    return moved.gstar == b2.gstar and moved.alpha == b2.alpha and moved.beta == b2.beta


# denominators of the witness-search grid run over 1..DENOMINATOR_BOUND
DENOMINATOR_BOUND = 2


def _grid_values(numerator_bound: int, denominator_bound: int) -> tuple[Fraction, ...]:
    """Grid values p/q, |p| <= numerator bound, 1 <= q <= denominator bound,
    ordered simplest-first; the first witness in this order wins."""
    vals = {
        Fraction(p, q)
        for q in range(1, denominator_bound + 1)
        for p in range(-numerator_bound * q, numerator_bound * q + 1)
        if abs(Fraction(p, q)) <= numerator_bound
    }
    return tuple(
        sorted(vals, key=lambda v: (abs(v), v.denominator, v < 0))
    )


@dataclass(frozen=True)
class SearchRegion:
    """Configuration of the rational witness-search grid.

    ``numerator_bound`` and :data:`DENOMINATOR_BOUND` define the value set
    p/q with |p/q| <= bound.  Families with many free parameters are truncated
    to keep the enumeration finite in practice: 6-parameter families use
    integer values within the bound, 9-parameter families {0, +-1}.  ``seeds``
    are candidate witness matrices tried before the grid (each is validated,
    so soundness is unaffected).
    """

    numerator_bound: int = 3
    seeds: tuple[Matrix, ...] = ()

    def value_set(self, n_params: int) -> tuple[Fraction, ...]:
        if n_params >= 9:
            return (Fraction(0), Fraction(1), Fraction(-1))
        if n_params >= 6:
            return _grid_values(min(self.numerator_bound, 2), 1)
        return _grid_values(self.numerator_bound, DENOMINATOR_BOUND)

    def describe(self, family: catalog.AutomorphismFamily) -> str:
        n = family.n_params()
        vals = self.value_set(n)
        bound = max((abs(v) for v in vals), default=Fraction(0))
        denoms = max((v.denominator for v in vals), default=1)
        return (
            f"{family.algebra}: {len(family.branches)} branch(es), "
            f"{n} parameter(s) over {len(vals)} rational values "
            f"(|p/q|<={bound}, q<={denoms})"
        )


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Either Equivalent with a validated witness, or Unknown.

    The search is sound but not complete, so Unknown never asserts
    inequivalence; ``searched`` records the region that was exhausted.
    """

    witness: Matrix | None
    searched: str

    @property
    def equivalent(self) -> bool:
        return self.witness is not None


def search_witness(
    b1: JacobiLieBialgebra,
    b2: JacobiLieBialgebra,
    region: SearchRegion | None = None,
) -> EquivalenceVerdict:
    """Search the automorphism family of the shared g for an exact witness.

    Enumerates all branches over the region's rational grid in a fixed
    simplest-first order and returns the first witness found; every returned
    witness passes :func:`is_equivalent_witness` (a grid witness that fails
    it raises :class:`SoundnessCheckError`).
    """
    if b1.g != b2.g:
        raise ValueError("witness search requires both candidates to share g")
    region = region or SearchRegion()
    g_alg = catalog.identify_presentation(b1.g)  # CatalogError when not cataloged
    family = automorphism_family(g_alg.name)

    identity = Matrix.identity(b1.dim)
    if is_equivalent_witness(b1, b2, identity):
        return EquivalenceVerdict(identity, "identity candidate")
    for seed in region.seeds:
        try:
            if is_equivalent_witness(b1, b2, seed):
                return EquivalenceVerdict(seed, "seed candidate")
        except (ValueError, CatalogError):
            continue

    if family.predicate_only:
        # no closed-form template to enumerate; seeds were the whole region
        return EquivalenceVerdict(
            None, f"{family.algebra}: predicate-only group, seeds only"
        )

    values = region.value_set(family.n_params())
    target_alpha = b2.alpha
    target_beta = b2.beta
    for branch_idx, branch in enumerate(family.branches):
        templates = [[parse_expr(e) for e in row] for row in branch.template]
        constraints = [parse_expr(c) for c in branch.constraints]
        for combo in itertools.product(values, repeat=family.n_params()):
            env = dict(zip(family.params, combo))
            if not all(eval_predicate(c, env) for c in constraints):
                continue
            A = Matrix([[eval_expr(e, env) for e in row] for row in templates])
            # cheap rejection on the cocycle vectors before the determinant
            # and the tensor work; A^t alpha2 == alpha1 avoids inverting
            # every candidate
            if A.transpose() * target_alpha != b1.alpha:
                continue
            if A * b1.beta != target_beta:
                continue
            if A.det() == 0:
                continue
            if transform_tensor(b1.gstar, A) == b2.gstar:
                if not is_equivalent_witness(b1, b2, A):
                    raise SoundnessCheckError(f"grid witness {A.rows} fails validation")
                return EquivalenceVerdict(A, f"branch {branch_idx} of {region.describe(family)}")
    return EquivalenceVerdict(None, region.describe(family))


# ---------------------------------------------------------------------------
# isomorphism identification of dual tensors
# ---------------------------------------------------------------------------

class NoCatalogMatch(Exception):
    """identify_dual returned no catalog algebra with a change of basis.

    For a solvable dual this is proved: either its exact invariants fit no
    catalog class, or no rational change of basis onto the class exists.  For
    a non-catalog presentation of VIII or IX it only says that none is
    constructed (the message names the class it is isomorphic to over R).
    """


@dataclass(frozen=True)
class DualIdentification:
    name: str
    param: Fraction | None
    change_of_basis: Matrix  # invertible C with C-conjugation carrying the dual onto the catalog tensor


def change_of_basis_residual(
    source: StructureTensor, target: StructureTensor, C: Matrix
) -> tuple[Matrix, ...]:
    """Residual of the intertwining equations C (C^i_k S^k) = T^i C.

    ``S^k`` are the adjoint matrices of the source tensor and ``T^i`` those of
    the target.  Row p of residual matrix i is C^t T_ip minus the source
    :meth:`StructureTensor.bracket` of rows i and p of C (rows p < i follow by
    antisymmetry).  All d residual matrices vanish exactly iff C realizes the
    isomorphism on structure constants.
    """
    d = source.dim
    Ct = C.transpose()
    rows = [[Vector.zero(d)] * d for _ in range(d)]
    for i in range(d):
        for p in range(i + 1, d):
            r = Ct * Vector(target.entries[i][p]) - source.bracket(C.row(i), C.row(p))
            rows[i][p] = r
            rows[p][i] = -r
    return tuple(Matrix(r) for r in rows)


def _derived_span(t: StructureTensor) -> list[Vector]:
    """Exact basis (reduced) of the span of all bracket values."""
    d = t.dim
    rows: list[list[Fraction]] = []
    for i in range(d):
        for j in range(i + 1, d):
            v = [t.entries[i][j][k] for k in range(d)]
            if any(x != 0 for x in v):
                rows.append(v)
    basis: list[list[Fraction]] = []
    for v in rows:
        v = v[:]
        for b in basis:
            lead = next(k for k in range(d) if b[k] != 0)
            if v[lead] != 0:
                factor = v[lead] / b[lead]
                v = [a - factor * c for a, c in zip(v, b)]
        if any(x != 0 for x in v):
            basis.append(v)
    return [Vector(b) for b in basis]


def _in_span(v: Vector, basis: list[Vector]) -> bool:
    if not basis:
        return v.is_zero()
    rows = [[b[k] for b in basis] for k in range(v.dim)]
    return solve_affine(rows, list(v)) is not None


def _killing_matrix(t: StructureTensor) -> Matrix:
    d = t.dim
    X = adjoint_x(t)
    return Matrix(
        [[(X[i] * X[j]).trace() for j in range(d)] for i in range(d)]
    )


@dataclass(frozen=True)
class _Split:
    """g = n + R*x with n an abelian ideal containing [g,g].

    ``M`` is ad x restricted to n, in the basis ``n``: column j holds the
    coordinates of [x, n_j].
    """

    x: Vector
    n: tuple[Vector, ...]
    M: Matrix


def _split(t: StructureTensor, derived: list[Vector]) -> _Split | None:
    """The split of a solvable algebra with 1 <= dim [g,g] < dim g, or None
    when the derived span is not abelian (no catalog class has that profile).

    n is the derived span, except in 3D with a one-dimensional derived span
    w, where n is w plus the first kernel vector of ad w independent of w.
    """
    d = t.dim
    n = list(derived)
    if len(n) == 1 and d == 3:
        w = n[0]
        images = [t.bracket(w, Vector.unit(d, j)) for j in range(d)]
        ad_w = [[img[k] for img in images] for k in range(d)]
        _, kernel = solve_affine(ad_w, [Fraction(0)] * d)
        n.append(next(Vector(u) for u in kernel if not _in_span(Vector(u), [w])))
    if len(n) == 2 and not t.bracket(n[0], n[1]).is_zero():
        return None
    x = next(Vector.unit(d, i) for i in range(d) if not _in_span(Vector.unit(d, i), n))
    coords = [[b[k] for b in n] for k in range(d)]
    cols = [solve_affine(coords, list(t.bracket(x, u)))[0] for u in n]
    return _Split(x, tuple(n), Matrix([[c[i] for c in cols] for i in range(len(n))]))


def _isomorphism_class(
    t: StructureTensor,
) -> tuple[str, Fraction | None, _Split | None] | None:
    """Cheap exact invariants deciding which catalog algebra ``t`` can match.

    Returns (name, param, split), where split is the :class:`_Split` of a
    solvable non-abelian ``t`` and None otherwise, or None when no catalog
    class fits (e.g. a family parameter that comes out irrational).
    """
    d = t.dim
    derived = _derived_span(t)
    k = len(derived)
    if k == 0:
        return ("A1" if d == 2 else "I", None, None)
    if k == 3:
        # simple algebras; sign of the Killing form separates them
        K = _killing_matrix(t)
        if K.det() == 0:
            return None
        neg = -K
        minors = (
            neg[0, 0],
            neg[0, 0] * neg[1, 1] - neg[0, 1] * neg[1, 0],
            neg.det(),
        )
        definite = all(m > 0 for m in minors)
        return ("IX" if definite else "VIII", None, None)
    split = _split(t, derived)
    if split is None:
        return None
    if d == 2:
        return ("A2", None, split)
    M = split.M
    tr = M.trace()
    det = M.det()
    if k == 1:
        # ad x on n is nilpotent iff [g,g] is central
        return ("II" if tr == 0 else "III", None, split)
    if det == 0:
        return None
    if tr == 0:
        return ("VI0" if det < 0 else "VII0", None, split)
    r = tr * tr / det
    if r == 4:
        return ("V" if M == Matrix.identity(2).scale(tr / 2) else "IV", None, split)
    if r > 4 or r < 0:
        a = rational_sqrt(r / (r - 4))
        if a is None or a <= 0 or a == 1:
            return None
        return ("VIa", a, split)
    a = rational_sqrt(r / (4 - r))
    if a is None or a <= 0:
        return None
    return ("VIIa", a, split)


def _adapted_basis(t: StructureTensor, split: _Split, scale: Fraction) -> Matrix:
    """Rows (y, v, [y, v]) with y = scale * x and v the first of n1, n2,
    n1 + n2 that is not an eigenvector of ad y on n; rows (y, n1, ...) when
    ad y on n is scalar.

    n is abelian and, by Cayley-Hamilton, [y, [y, v]] = tr [y, v] - det v
    with tr and det those of scale * M.  The structure constants in this basis
    therefore depend only on that trace and determinant, so two splits whose
    scaled M share both give the same constants.
    """
    y = split.x.scale(scale)
    M = split.M.scale(scale)
    if M == Matrix.identity(M.dim).scale(M[0, 0]):
        return Matrix([y, *split.n])
    n1, n2 = split.n
    v = next(v for v in (n1, n2, n1 + n2) if not _in_span(t.bracket(y, v), [v]))
    return Matrix([y, v, t.bracket(y, v)])


def identify_dual(gstar: StructureTensor) -> DualIdentification:
    """Identify the isomorphism class of a dual tensor against the catalog.

    Requires the tensor to satisfy the Jacobi identity.  The class is decided
    from exact invariants (derived-span dimension and, for the solvable
    classes, the trace and determinant of ad x restricted to an abelian ideal
    n containing [g,g], from which the family parameter is solved).  A
    catalog presentation returns the identity.  Otherwise g = n + R*x, x is
    scaled so that ad x on n has the catalog's trace and determinant, and the
    change of basis C = Q^-1 P is built from the adapted bases P of the dual
    and Q of the catalog tensor; every C is validated exactly (a failure
    raises :class:`SoundnessCheckError`).

    Raises NoCatalogMatch when no catalog class fits, when the scale is
    irrational (no rational change of basis exists: any isomorphism maps n
    onto n and x to a multiple of x plus n), or for a non-catalog
    presentation of the simple algebras VIII and IX, where no change of basis
    is constructed.
    """
    if not is_lie_algebra(gstar):
        raise ValueError("dual tensor does not satisfy the Jacobi identity")
    if gstar.dim not in (2, 3):
        raise NoCatalogMatch("the catalog covers dimensions 2 and 3 only")
    klass = _isomorphism_class(gstar)
    if klass is None:
        raise NoCatalogMatch(
            "no catalog class matches the exact invariants of the tensor"
        )
    name, param, split = klass
    target = lookup(name, param)
    if gstar == target.tensor:
        return DualIdentification(name, param, Matrix.identity(gstar.dim))
    if split is None:
        raise NoCatalogMatch(
            f"isomorphic over R to {name}; no rational change of basis is "
            "constructed for simple algebras"
        )
    target_split = _split(target.tensor, _derived_span(target.tensor))
    M, T = split.M, target_split.M
    if T.trace() != 0:
        scale = T.trace() / M.trace()
    elif T.det() != 0:
        scale = rational_sqrt(T.det() / M.det())
        if scale is None:
            raise NoCatalogMatch(
                f"isomorphic over R to {name}, but no rational change of basis "
                f"exists: the determinant ratio {T.det() / M.det()} of ad x on "
                "the derived ideal is not a rational square"
            )
    else:
        scale = Fraction(1)
    C = _adapted_basis(target.tensor, target_split, Fraction(1)).inverse() * (
        _adapted_basis(gstar, split, scale)
    )
    if C.det() == 0 or not all(
        m.is_zero() for m in change_of_basis_residual(gstar, target.tensor, C)
    ):
        raise SoundnessCheckError(f"constructed change of basis {C.rows} fails validation")
    return DualIdentification(name, param, C)
