"""Equivalence of bialgebra candidates under automorphisms of g.

``transform`` implements the pushforward of a candidate along an automorphism
A of g: the dual tensor is conjugated by the inverse-transpose action, the
element components by A^{-t}, the 1-form components by A.  ``search_witness``
looks for a witness automorphism on a rational parameter grid (sound but not
complete: it never asserts inequivalence).  ``identify_dual`` matches a dual
tensor against the catalog up to isomorphism and produces an exact invertible
change of basis.
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
    """Inverse-transpose conjugation of a dual tensor by an invertible A."""
    d = gstar.dim
    U = A.inverse().transpose()  # acts on the two upper indices
    At = A.transpose()  # acts on the lower index
    ft = gstar.entries
    # contract one index at a time
    t1 = [
        [
            [
                sum((U[i, k] * ft[k][l][m] for k in range(d)), Fraction(0))
                for m in range(d)
            ]
            for l in range(d)
        ]
        for i in range(d)
    ]
    t2 = [
        [
            [
                sum((U[j, l] * t1[i][l][m] for l in range(d)), Fraction(0))
                for m in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]
    t3 = [
        [
            [
                sum((t2[i][j][m] * At[m, n] for m in range(d)), Fraction(0))
                for n in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return StructureTensor(d, t3)


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

    ``numerator_bound``/``denominator_bound`` define the default value set
    p/q with |p| <= bound.  Families with many free parameters are truncated
    to keep the enumeration finite in practice: 6-parameter families use
    integer values within the bound, 9-parameter families {0, +-1}.  ``seeds``
    are candidate witness matrices tried before the grid (each is validated,
    so soundness is unaffected).
    """

    numerator_bound: int = 3
    denominator_bound: int = 2
    values: tuple[Fraction, ...] | None = None
    seeds: tuple[Matrix, ...] = ()

    def value_set(self, n_params: int) -> tuple[Fraction, ...]:
        if self.values is not None:
            return self.values
        if n_params >= 9:
            return (Fraction(0), Fraction(1), Fraction(-1))
        if n_params >= 6:
            return _grid_values(min(self.numerator_bound, 2), 1)
        return _grid_values(self.numerator_bound, self.denominator_bound)

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
            if A.det() == 0:
                continue
            # cheap rejection on the cocycle vectors before the tensor work;
            # A^t alpha2 == alpha1 avoids inverting every candidate
            if A.transpose() * target_alpha != b1.alpha:
                continue
            if A * b1.beta != target_beta:
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
    """identify_dual exhausted its search region without a match.

    This reports a failed search, not a proof that no isomorphism exists.
    """

    def __init__(self, message: str, searched: str = "") -> None:
        super().__init__(message)
        self.searched = searched


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
    the target; all d residual matrices vanish exactly iff C realizes the
    isomorphism on structure constants.
    """
    d = source.dim
    S = adjoint_x(source)
    T = adjoint_x(target)
    out = []
    for i in range(d):
        acc = Matrix.zero(d)
        for k in range(d):
            coeff = C[i, k]
            if coeff != 0:
                acc = acc + S[k].scale(coeff)
        out.append(C * acc - T[i] * C)
    return tuple(out)


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


def _bracket(t: StructureTensor, u: Vector, v: Vector) -> Vector:
    d = t.dim
    return Vector(
        sum(
            (u[i] * v[j] * t.entries[i][j][k] for i in range(d) for j in range(d)),
            Fraction(0),
        )
        for k in range(d)
    )


def _killing_matrix(t: StructureTensor) -> Matrix:
    d = t.dim
    X = adjoint_x(t)
    return Matrix(
        [[(X[i] * X[j]).trace() for j in range(d)] for i in range(d)]
    )


def _isomorphism_class(t: StructureTensor) -> tuple[str, Fraction | None] | None:
    """Cheap exact invariants deciding which catalog algebra ``t`` can match.

    Returns (name, param) or None when no catalog class fits (e.g. the
    restricted adjoint is singular in a way no table entry realizes, or a
    family parameter comes out irrational).
    """
    d = t.dim
    derived = _derived_span(t)
    k = len(derived)
    if d == 2:
        return ("A1", None) if k == 0 else ("A2", None)
    if k == 0:
        return ("I", None)
    if k == 1:
        w = derived[0]
        central = all(
            _bracket(t, w, Vector.unit(d, i)).is_zero() for i in range(d)
        )
        return ("II", None) if central else ("III", None)
    if k == 2:
        # derived span must be abelian for every catalog class of this profile
        if not _bracket(t, derived[0], derived[1]).is_zero():
            return None
        comp = next(
            (
                Vector.unit(d, i)
                for i in range(d)
                if not _in_span(Vector.unit(d, i), derived)
            ),
            None,
        )
        if comp is None:
            return None
        # matrix of ad(comp) restricted to the derived span, in that basis
        cols = []
        for bvec in derived:
            img = _bracket(t, comp, bvec)
            rows = [[b[k2] for b in derived] for k2 in range(d)]
            sol = solve_affine(rows, list(img))
            if sol is None:
                return None
            cols.append(sol[0])
        M = Matrix([[cols[j][i] for j in range(2)] for i in range(2)])
        tr = M.trace()
        det = M.det()
        if det == 0:
            return None
        if tr == 0:
            return ("VI0", None) if det < 0 else ("VII0", None)
        r = tr * tr / det
        if r == 4:
            half = tr / 2
            diag = Matrix([[half, 0], [0, half]])
            return ("V", None) if M == diag else ("IV", None)
        if r > 4 or r < 0:
            a2 = r / (r - 4)
            a = rational_sqrt(a2)
            if a is None or a <= 0 or a == 1:
                return None
            return ("VIa", a)
        a2 = r / (4 - r)
        a = rational_sqrt(a2)
        if a is None or a <= 0:
            return None
        return ("VIIa", a)
    # k == 3: simple algebras; sign of the Killing form separates them
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
    return ("IX", None) if definite else ("VIII", None)


_IDENTIFY_LEVELS = (
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)),
    (
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 2),
    ),
)


def _solve_last_row(
    source: StructureTensor, target: StructureTensor, first_rows: list[list[Fraction]]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Given all rows of C but the last, the intertwining equations are affine
    in the last row; solve them exactly."""
    d = source.dim
    ft = source.entries
    f = target.entries
    last = d - 1
    C = first_rows
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(d):
        for j in range(i + 1, d):
            for l in range(d):
                coef = [Fraction(0)] * d
                const = Fraction(0)
                for k in range(d):
                    for p in range(d):
                        v = ft[k][p][l]
                        if v == 0:
                            continue
                        if i != last and j != last:
                            const += C[i][k] * C[j][p] * v
                        elif i == last and j != last:
                            coef[k] += C[j][p] * v
                        else:  # j == last, i != last (i < j)
                            coef[p] += C[i][k] * v
                for m in range(d):
                    w = f[i][j][m]
                    if w == 0:
                        continue
                    if m == last:
                        coef[l] -= w
                    else:
                        const -= w * C[m][l]
                rows.append(coef)
                rhs.append(-const)
    return solve_affine(rows, rhs)


def _search_change_of_basis(
    source: StructureTensor, target: StructureTensor, values: tuple[Fraction, ...]
) -> Matrix | None:
    """Rational-grid search for an invertible intertwiner from source to target.

    The first d-1 rows are enumerated over the value grid; the last row then
    satisfies an affine system and is solved exactly, with small combinations
    of the nullspace tried for invertibility.  Every hit is validated against
    the full intertwining residual before being returned.
    """
    d = source.dim
    combo_values = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    for flat in itertools.product(values, repeat=d * (d - 1)):
        first_rows = [list(flat[r * d : (r + 1) * d]) for r in range(d - 1)]
        sol = _solve_last_row(source, target, first_rows + [[Fraction(0)] * d])
        if sol is None:
            continue
        particular, nullspace = sol
        candidates: itertools.product | list
        if nullspace:
            candidates = itertools.product(combo_values, repeat=len(nullspace))
        else:
            candidates = [()]
        for combo in candidates:
            lastrow = particular[:]
            for c, nv in zip(combo, nullspace):
                if c != 0:
                    lastrow = [a + c * bb for a, bb in zip(lastrow, nv)]
            C = Matrix(first_rows + [lastrow])
            if C.det() == 0:
                continue
            if all(m.is_zero() for m in change_of_basis_residual(source, target, C)):
                return C
    return None


def identify_dual(
    gstar: StructureTensor, max_level: int = len(_IDENTIFY_LEVELS)
) -> DualIdentification:
    """Identify the isomorphism class of a dual tensor against the catalog.

    Requires the tensor to satisfy the Jacobi identity.  The candidate class
    is decided first from exact invariants (derived-span dimension and, for
    the one-parameter families, the scale-invariant trace ratio of the
    restricted adjoint, from which the family parameter is solved); an
    invertible change of basis realizing the isomorphism is then found on an
    expanding rational grid and validated exactly.

    Raises NoCatalogMatch when no class fits or the grid search is exhausted;
    this reports the failed search only, never non-existence.
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
    name, param = klass
    target = lookup(name, param)
    if gstar == target.tensor:
        return DualIdentification(name, param, Matrix.identity(gstar.dim))
    for level in range(max_level):
        values = _IDENTIFY_LEVELS[level]
        C = _search_change_of_basis(gstar, target.tensor, values)
        if C is not None:
            return DualIdentification(name, param, C)
    raise NoCatalogMatch(
        f"invariants point at {name} but no change of basis was found",
        searched=f"{max_level} grid levels up to values {_IDENTIFY_LEVELS[max_level - 1]}",
    )
