"""Equivalence of bialgebra candidates under automorphisms of g.

``transform`` implements the pushforward of a candidate along an automorphism
A of g: the dual tensor is conjugated by the inverse-transpose action, the
element components by A^{-t}, the 1-form components by A.  ``search_witness``
decides equivalence: two candidates whose duals are identified by
``identify_dual`` are proved equivalent (a validated witness) or inequivalent
by exact linear algebra on Aut(g) x Aut(g*); where that decision does not
apply it searches a rational parameter grid, whose Unknown asserts nothing.
``identify_dual`` matches a dual
tensor against the catalog up to isomorphism.  For solvable duals it builds
the exact invertible change of basis from the invariants (g = n + R*x with n
an abelian ideal containing [g,g]) or proves that no rational one exists;
simple duals are matched in their catalog presentation only.
"""

from __future__ import annotations

import functools
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
from .linalg import Matrix, Vector, format_fraction, rational_sqrt, solve_affine
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
    """Equivalent, Inequivalent or Unknown.

    Equivalent: ``witness`` is an automorphism of g that passed
    :func:`is_equivalent_witness`.  Inequivalent (``inequivalent`` True): no
    real automorphism carries one candidate to the other, and ``searched``
    names the proof, either the differing dual classes or, per branch pair,
    an inconsistent linear system or a product of det and constraints that
    vanishes on its whole solution space.  Unknown (neither): ``searched``
    records the grid region that was exhausted without a witness; it asserts
    nothing about equivalence.
    """

    witness: Matrix | None
    searched: str
    inequivalent: bool = False

    @property
    def equivalent(self) -> bool:
        return self.witness is not None


def search_witness(
    b1: JacobiLieBialgebra,
    b2: JacobiLieBialgebra,
    region: SearchRegion | None = None,
) -> EquivalenceVerdict:
    """Decide whether an automorphism of the shared g carries b1 onto b2.

    The identity and the region's seeds are tried first.  Then, when both
    duals are Lie algebras identified by :func:`identify_dual`, the pair is
    decided by exact linear algebra on Aut(g) x Aut(g*) (see
    :func:`_decide`): different dual classes, or no admissible point on any
    branch pair, prove the pair inequivalent; otherwise the witness is built
    from the solution space.  The rational grid of ``region`` is searched
    only when that decision does not apply: a dual that is not a Lie algebra
    or has no constructed change of basis, a predicate-only group (VIII, IX)
    on either side, or a consistent system relaxed at a quadratic template
    entry (II) on which no witness was found.  Only then can the verdict be
    Unknown.  Every returned witness passes :func:`is_equivalent_witness`;
    one that fails it raises :class:`SoundnessCheckError`.
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

    decided = _decide(b1, b2, family)
    if decided is not None:
        return decided

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


def _degree(node, names) -> int:
    """Degree of a parsed template expression in the parameters ``names``:
    exact for sums and products of parameters, which is all the catalog
    templates and constraints use (an upper bound in general)."""
    kind = node[0]
    if kind == "num":
        return 0
    if kind == "var":
        return int(node[1] in names)
    if kind == "neg":
        return _degree(node[1], names)
    if kind in ("add", "sub"):
        return max(_degree(node[1], names), _degree(node[2], names))
    if kind == "mul":
        return _degree(node[1], names) + _degree(node[2], names)
    if kind == "div" and _degree(node[2], names) == 0:
        return _degree(node[1], names)
    raise ValueError(f"template expression {node!r} is not a polynomial")


@functools.cache
def _linear_template(name: str, branch: int):
    """One automorphism branch as affine forms, built on first use.

    Returns (forms, polys, quadratic): ``forms[i][j]`` is (constant,
    coefficients over the family parameters) for an entry of degree at most
    1 and None for one of degree 2 (II's b*f - c*e), whose parse trees are
    ``quadratic`` in row-major order; ``polys`` are the constraints
    ``l != r`` as parsed polynomials l - r that must not vanish.
    """
    family = automorphism_family(name)
    br = family.branches[branch]
    zero = dict.fromkeys(family.params, Fraction(0))
    forms = []
    quadratic = []
    for row in br.template:
        out = []
        for text in row:
            node = parse_expr(text)
            degree = _degree(node, family.params)
            if degree > 2:
                raise ValueError(f"{name} template entry {text!r} is not quadratic")
            if degree == 2:
                out.append(None)
                quadratic.append(node)
                continue
            c = eval_expr(node, zero)
            out.append((c, tuple(eval_expr(node, {**zero, p: Fraction(1)}) - c for p in family.params)))
        forms.append(tuple(out))
    polys = []
    for text in br.constraints:
        node = parse_expr(text)
        if node[0] != "cmp" or node[1] != "!=":
            raise ValueError(f"{name} constraint {text!r} is not an inequation")
        polys.append(("sub", node[2], node[3]))
    return tuple(forms), tuple(polys), tuple(quadratic)


def _affine_matrix(forms, offset: int, fresh: int, n: int) -> list[list[list[Fraction]]]:
    """Template entries as affine forms over n unknowns (coefficients, then
    the constant): parameters from ``offset``, and each non-affine entry a
    fresh unknown from ``fresh`` on."""
    out = []
    for row in forms:
        out_row = []
        for entry in row:
            v = [Fraction(0)] * (n + 1)
            if entry is None:
                v[fresh] = Fraction(1)
                fresh += 1
            else:
                v[n] = entry[0]
                v[offset:offset + len(entry[1])] = entry[1]
            out_row.append(v)
        out.append(out_row)
    return out


def _decide(
    b1: JacobiLieBialgebra, b2: JacobiLieBialgebra, family: catalog.AutomorphismFamily
) -> EquivalenceVerdict | None:
    """Exact decision on Aut(g) x Aut(g*), or None where it does not apply.

    A witness A is an automorphism of g (A = P_g(p) on a branch of the
    template of g) that maps g*1 isomorphically onto g*2 (see
    :func:`transform_tensor`) with A^t alpha2 = alpha1 and A beta1 = beta2.
    With C_i^t an isomorphism from the catalog tensor T onto g*i
    (:func:`identify_dual`), the middle condition says A = C2^t s C1^-t for
    an automorphism s = P_T(q)^t of T.  Per branch pair of the two templates
    all of this is one linear system in (p, q), solved exactly.  On its
    solution space the product F of det P_g and the branch constraints of g
    must not vanish; the constraints of T need no check, because each
    catalog constraint holds exactly where its template is invertible, and
    P_T(q) is invertible with A.  F vanishes identically exactly when it
    vanishes on a finite grid (:func:`_nonvanishing_point`).  A non-affine
    template entry is relaxed to a fresh unknown: an inconsistent relaxed
    system is still a proof; on a consistent one a witness is looked for
    along lines of its solution space (:func:`_quadric_point`), and when none
    is found the decision returns None (grid fallback).

    The verdict is sound because each template is all of Aut(.) (checked by
    the template completeness tests of ``tests/test_catalog.py``).
    """
    try:
        id1, id2 = identify_dual(b1.gstar), identify_dual(b2.gstar)
    except (ValueError, NoCatalogMatch):  # not a Lie algebra, or no C constructed
        return None
    if (id1.name, id1.param) != (id2.name, id2.param):
        return EquivalenceVerdict(
            None, f"duals not isomorphic: {_class_label(id1)} vs {_class_label(id2)}", True
        )
    dual_family = automorphism_family(id1.name)
    if family.predicate_only or dual_family.predicate_only:
        return None
    d = b1.dim
    C2 = id2.change_of_basis
    C1inv = id1.change_of_basis.inverse()
    m = family.n_params()
    groups = f"{family.algebra} x {dual_family.algebra}"
    proofs = []
    relaxed = False
    for gi, ti in itertools.product(
        range(len(family.branches)), range(len(dual_family.branches))
    ):
        g_forms, polys, g_quad = _linear_template(family.algebra, gi)
        t_forms, _, t_quad = _linear_template(dual_family.algebra, ti)
        fg, ft = len(g_quad), len(t_quad)
        n = m + fg + dual_family.n_params() + ft
        G = _affine_matrix(g_forms, 0, m, n)
        T = _affine_matrix(t_forms, m + fg, n - ft, n)
        eqs = []
        for i in range(d):
            for j in range(d):
                # G_ij - (C2^t P_T^t C1^-t)_ij
                e = G[i][j]
                for a in range(d):
                    for b in range(d):
                        w = C2[a, i] * C1inv[j, b]
                        if w:
                            e = [x - w * y for x, y in zip(e, T[b][a])]
                eqs.append(e)
        for j in range(d):  # (P_g^t alpha2)_j = alpha1_j
            e = [Fraction(0)] * n + [-b1.alpha[j]]
            for i in range(d):
                if b2.alpha[i]:
                    e = [x + b2.alpha[i] * y for x, y in zip(e, G[i][j])]
            eqs.append(e)
        for i in range(d):  # (P_g beta1)_i = beta2_i
            e = [Fraction(0)] * n + [-b2.beta[i]]
            for j in range(d):
                if b1.beta[j]:
                    e = [x + b1.beta[j] * y for x, y in zip(e, G[i][j])]
            eqs.append(e)
        solution = solve_affine([e[:n] for e in eqs], [-e[n] for e in eqs])
        label = f"({gi}, {ti})"
        if solution is None:
            proofs.append(f"{label} inconsistent")
            continue
        if fg or ft:
            # each relaxed unknown must equal its quadratic entry
            quadrics = [(m + k, node, 0, family.params) for k, node in enumerate(g_quad)]
            quadrics += [
                (n - ft + k, node, m + fg, dual_family.params) for k, node in enumerate(t_quad)
            ]
            A = _quadric_point(G, polys, family.params, quadrics, *solution)
            if A is None:
                relaxed = True
                continue
        else:
            A = _nonvanishing_point(g_forms, polys, family.params, *solution)
            if A is None:
                proofs.append(f"{label} det*constraints vanish identically")
                continue
        if not is_equivalent_witness(b1, b2, A):
            raise SoundnessCheckError(f"constructed witness {A.rows} fails validation")
        return EquivalenceVerdict(A, f"linear system on branch pair {label} of {groups}")
    if relaxed:
        return None
    return EquivalenceVerdict(None, f"branch pairs of {groups}: " + ", ".join(proofs), True)


def _grid_points(bounds: list[int]):
    """The points of {0..D_1} x ... x {0..D_r}, by increasing coordinate sum."""

    def with_sum(k: int, s: int):
        if k == len(bounds):
            if s == 0:
                yield ()
            return
        rest = sum(bounds[k + 1:])
        for x in range(max(0, s - rest), min(bounds[k], s) + 1):
            for tail in with_sum(k + 1, s - x):
                yield (x, *tail)

    for s in range(sum(bounds) + 1):
        yield from with_sum(0, s)


def _nonvanishing_point(g_forms, polys, params, particular, basis) -> Matrix | None:
    """P_g at the first grid point of the solution space where det P_g and
    every constraint polynomial are nonzero, or None when their product F
    vanishes identically there.

    Only the parameter part of the solution space moves P_g, so the point is
    x0 + sum t_k v_k over a basis v_k of that part.  The degree of det P_g in
    t_k is at most the number of rows (and of columns) that t_k moves; that
    of a constraint is read off its parse tree.  With D_k the bound on the
    degree of F in t_k, F vanishes identically exactly when it vanishes on
    {0..D_1} x ... x {0..D_r} (Combinatorial Nullstellensatz, Alon 1999), so
    that grid is searched, simplest point first.
    """
    m = len(params)
    d = len(g_forms)

    def lin(coeffs, x):
        return sum((a * b for a, b in zip(coeffs, x) if a), Fraction(0))

    x0 = particular[:m]
    dirs = _reduced_basis([v[:m] for v in basis])
    base = [[c + lin(coeffs, x0) for c, coeffs in row] for row in g_forms]
    moves = [[[lin(coeffs, v) for _, coeffs in row] for row in g_forms] for v in dirs]
    degrees = []
    for v, move in zip(dirs, moves):
        rows = sum(any(row) for row in move)
        cols = sum(any(move[i][j] for i in range(d)) for j in range(d))
        names = {p for p, c in zip(params, v) if c}
        degrees.append(min(rows, cols) + sum(_degree(poly, names) for poly in polys))
    for t in _grid_points(degrees):
        A = Matrix(
            [base[i][j] + sum((tk * mv[i][j] for tk, mv in zip(t, moves) if tk), Fraction(0))
             for j in range(d)]
            for i in range(d)
        )
        if A.det() == 0:
            continue
        env = {
            p: x0[l] + sum((tk * v[l] for tk, v in zip(t, dirs) if tk), Fraction(0))
            for l, p in enumerate(params)
        }
        if all(eval_expr(poly, env) != 0 for poly in polys):
            return A
    return None


def _quadric_point(G, polys, params, quadrics, particular, basis) -> Matrix | None:
    """P_g at a point of the relaxed solution space where every relaxed
    unknown equals its quadratic template entry and det P_g and the
    constraints of g are nonzero; None when none is found.

    The lines tried are the axis lines of the solution space through the
    points of {0, 1}^r with at most two ones.  On each, the first relaxed
    condition that does not vanish on the whole line has degree at most 2;
    its rational roots are the candidate points.  This is a search, not a
    decision: a point may lie off these lines, or only at irrational values.
    """
    n = len(particular)
    d = len(G)
    r = len(basis)

    def relaxed_residuals(z):
        for fresh, node, offset, names in quadrics:
            env = {p: z[offset + l] for l, p in enumerate(names)}
            yield z[fresh] - eval_expr(node, env)

    def candidates(z0, v):
        """Rational roots on z0 + s v of the first relaxed condition that
        does not vanish on the whole line (a few points when all do)."""
        along = [[x + s * y for x, y in zip(z0, v)] for s in (0, 1, -1)]
        for h0, h1, h2 in zip(*map(relaxed_residuals, along)):
            a, b = (h1 + h2) / 2 - h0, (h1 - h2) / 2
            if a:
                root = rational_sqrt(b * b - 4 * a * h0)
                return () if root is None else ((-b + root) / (2 * a), (-b - root) / (2 * a))
            if b or h0:
                return (-h0 / b,) if b else ()
        return range(d + 3)

    for t in itertools.islice(_grid_points([1] * r), 1 + r + r * (r - 1) // 2):
        z0 = list(particular)
        for tk, v in zip(t, basis):
            if tk:
                z0 = [x + y for x, y in zip(z0, v)]
        for v in basis:
            for s in candidates(z0, v):
                z = [x + s * y for x, y in zip(z0, v)]
                if any(relaxed_residuals(z)):
                    continue
                A = Matrix(
                    [sum((a * b for a, b in zip(e, z) if a), e[n]) for e in row] for row in G
                )
                env = {p: z[l] for l, p in enumerate(params)}
                if A.det() != 0 and all(eval_expr(poly, env) != 0 for poly in polys):
                    return A
    return None


def _class_label(ident: DualIdentification) -> str:
    return ident.name if ident.param is None else f"{ident.name}(a={format_fraction(ident.param)})"


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
    return [
        Vector(b)
        for b in _reduced_basis(
            [t.entries[i][j][k] for k in range(d)] for i in range(d) for j in range(i + 1, d)
        )
    ]


def _reduced_basis(rows) -> list[list[Fraction]]:
    """A basis of the span of ``rows``, each row reduced against the
    earlier basis rows at their leading entries."""
    basis: list[list[Fraction]] = []
    for v in rows:
        v = list(v)
        for b in basis:
            lead = next(k for k, x in enumerate(b) if x != 0)
            if v[lead] != 0:
                factor = v[lead] / b[lead]
                v = [a - factor * c for a, c in zip(v, b)]
        if any(x != 0 for x in v):
            basis.append(v)
    return basis


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
