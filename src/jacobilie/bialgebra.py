"""Jacobi-Lie bialgebra candidates and their exact verification.

A candidate is a pair of antisymmetric tensors (the algebra ``g`` and its
dual ``g*``) together with two cocycle component vectors: ``alpha`` holds the
components of the distinguished element of ``g`` and ``beta`` those of the
distinguished 1-form.  ``verify`` evaluates the seven defining condition
groups exactly, each once, through one function per condition.

Each condition function returns the independent entries of its residual as
a flat tuple (orthogonality: one scalar).  The brackets are antisymmetric, so
the mixed residual is antisymmetric in (i, j) and in (m, n), and both cocycle
residuals in (m, n): only i < j and m < n are evaluated.  Every dropped entry
is the negative of a kept one or zero, so the max |entry| that ``verify``
reports is that of the full grid.

The ``*_adjoint`` functions write the same conditions as full grids through
adjoint matrices: reference forms used by tests only, which compare every
grid entry with an independent entry or its antisymmetric image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, Vector, format_fraction
from .structure import (
    StructureTensor,
    adjoint_x,
    adjoint_y,
    grid_max_abs,
    jacobi_residual,
)


class DimensionMismatchError(ValueError):
    """Tensor/vector dimensions of a candidate do not agree."""


class SoundnessCheckError(RuntimeError):
    """The exact re-check of a result (search witness, solution family,
    step-2 matrix) failed: a defect in the library, not in the input."""


@dataclass(frozen=True)
class JacobiLieBialgebra:
    """Candidate pair: tensors of g and g* plus cocycle component vectors."""

    g: StructureTensor
    gstar: StructureTensor
    alpha: Vector
    beta: Vector

    def __post_init__(self):
        d = self.g.dim
        if not (self.gstar.dim == d and self.alpha.dim == d and self.beta.dim == d):
            raise DimensionMismatchError(
                "g, gstar, alpha, beta must share one dimension"
            )

    @property
    def dim(self) -> int:
        return self.g.dim

    @classmethod
    def zero(cls, dim: int) -> "JacobiLieBialgebra":
        z = StructureTensor.zero(dim)
        return cls(z, z, Vector.zero(dim), Vector.zero(dim))

    def swap(self) -> "JacobiLieBialgebra":
        """Exchange the roles of the two algebras (and of alpha/beta).

        The defining conditions are symmetric under this exchange: the swap
        of a verified candidate verifies as well.
        """
        return JacobiLieBialgebra(self.gstar, self.g, self.beta, self.alpha)


CONDITION_NAMES = (
    "jacobi_g",
    "jacobi_gstar",
    "mixed",
    "orthogonality",
    "compatibility",
    "cocycle_x0",
    "cocycle_phi0",
)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residual: Fraction  # max |entry|, exact

    @property
    def ok(self) -> bool:
        return self.residual == 0


@dataclass(frozen=True)
class VerificationReport:
    """Per-condition exact residual record; passes iff every residual is 0."""

    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.ok)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {
                c.name: {"residual_max": format_fraction(c.residual), "ok": c.ok}
                for c in self.conditions
            },
        }


def _cocycle_matrix(b: JacobiLieBialgebra) -> list[Vector]:
    # row i: C[i][m] = [e_i, alpha]_g[m] - alpha^m beta_i
    unit = (Vector.unit(b.dim, i) for i in range(b.dim))
    return [b.g.bracket(e, b.alpha) - b.alpha.scale(be) for e, be in zip(unit, b.beta)]


def mixed_residual(b: JacobiLieBialgebra) -> tuple[Fraction, ...]:
    """Generalized mixed-compatibility residual by index loops.

    Flat tuple of the entries [i][j][m][n] with i < j and m < n: pairs (i, j)
    in lexicographic order, then pairs (m, n) (9 entries in dimension 3, 1 in
    dimension 2).  The full grid (:func:`mixed_residual_adjoint`) is
    antisymmetric in (i, j) and in (m, n).
    """
    d = b.dim
    f = b.g.entries
    ft = b.gstar.entries
    al, be = b.alpha, b.beta
    C = _cocycle_matrix(b)
    pairs = list(itertools.combinations(range(d), 2))
    out = []
    for i, j in pairs:
        for m, n in pairs:
            s = Fraction(0)
            for k in range(d):
                s += f[i][j][k] * ft[m][n][k]
                s -= f[i][k][m] * ft[k][n][j]
                s -= f[i][k][n] * ft[m][k][j]
                s -= f[k][j][m] * ft[k][n][i]
                s -= f[k][j][n] * ft[m][k][i]
            s += be[i] * ft[m][n][j] - be[j] * ft[m][n][i]
            s += al[m] * f[i][j][n] - al[n] * f[i][j][m]
            if j == n:
                s += C[i][m]
            if i == n:
                s -= C[j][m]
            if j == m:
                s -= C[i][n]
            if i == m:
                s += C[j][n]
            out.append(s)
    return tuple(out)


def mixed_residual_adjoint(b: JacobiLieBialgebra) -> tuple:
    """Mixed-compatibility residual from adjoint matrices; a reference form
    used by tests (:func:`verify` evaluates the index form).

    For each (m, n) the auxiliary matrix combines the adjoint matrices of g
    and g*, the outer products of the cocycle columns, and the column of
    dual constants; adding the four Kronecker terms built from
    ``C = alpha^k X_k - B A^t`` gives a matrix whose (i, j) entry is entry
    [i][j][m][n] of the full residual grid.  The diagonal m == n is included.
    """
    d = b.dim
    X = adjoint_x(b.g)
    Y = adjoint_y(b.g)
    Xt = adjoint_x(b.gstar)
    al, be = b.alpha, b.beta
    C = Matrix.zero(d)
    for k in range(d):
        if al[k] != 0:
            C = C + X[k].scale(al[k])
    C = C - Matrix([[be[i] * al[m] for m in range(d)] for i in range(d)])
    grid = [
        [[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)
    ]
    for m in range(d):
        for n in range(d):
            D = Matrix.zero(d)
            for k in range(d):
                coeff = Xt[m][n, k]
                if coeff != 0:
                    D = D + Y[k].scale(coeff)
            D = D + Y[m] * Xt[n] - Y[n] * Xt[m]
            D = D + Xt[n].transpose() * Y[m] - Xt[m].transpose() * Y[n]
            fmn = [b.gstar.entries[m][n][k] for k in range(d)]
            D = D + Matrix(
                [[be[i] * fmn[j] - fmn[i] * be[j] for j in range(d)] for i in range(d)]
            )
            D = D + Y[m].scale(al[n]) - Y[n].scale(al[m])
            for i in range(d):
                for j in range(d):
                    v = D[i, j]
                    if j == n:
                        v += C[i, m]
                    if i == n:
                        v -= C[j, m]
                    if j == m:
                        v -= C[i, n]
                    if i == m:
                        v += C[j, n]
                    grid[i][j][m][n] = v
    return tuple(
        tuple(tuple(tuple(grid[i][j][m][n] for n in range(d)) for m in range(d)) for j in range(d))
        for i in range(d)
    )


def classical_mixed_residual(g: StructureTensor, gstar: StructureTensor) -> tuple[Fraction, ...]:
    """Mixed-Jacobi residual of an ordinary dual pair (no cocycle terms).

    Coded independently of :func:`mixed_residual` as left side minus right
    side of the classical compatibility identity, over the same entries in
    the same order: i < j, then m < n.
    """
    d = g.dim
    f = g.entries
    ft = gstar.entries
    pairs = list(itertools.combinations(range(d), 2))
    out = []
    for i, j in pairs:
        for m, n in pairs:
            lhs = sum((f[i][j][k] * ft[m][n][k] for k in range(d)), Fraction(0))
            rhs = sum(
                (
                    f[i][k][m] * ft[k][n][j]
                    + f[i][k][n] * ft[m][k][j]
                    + f[k][j][m] * ft[k][n][i]
                    + f[k][j][n] * ft[m][k][i]
                    for k in range(d)
                ),
                Fraction(0),
            )
            out.append(lhs - rhs)
    return tuple(out)


def orthogonality_residual(b: JacobiLieBialgebra) -> Fraction:
    """Pairing of the two cocycles: sum_i alpha^i beta_i."""
    return b.alpha.dot(b.beta)


def orthogonality_residual_adjoint(b: JacobiLieBialgebra) -> Fraction:
    """Same pairing as the trace of the outer product; a reference form
    used by tests (:func:`verify` evaluates the index form)."""
    d = b.dim
    outer = Matrix([[b.alpha[i] * b.beta[j] for j in range(d)] for i in range(d)])
    return outer.trace()


def compatibility_residual(b: JacobiLieBialgebra) -> tuple[Fraction, ...]:
    """Entry (i, m) is [alpha, e_i]_g[m] - [beta, e_m]_{g*}[i], that is
    alpha^n f_ni^m - beta_n f~^nm_i, through :meth:`StructureTensor.bracket`.

    Flat tuple in row-major (i, m) order; all d^2 entries are independent.
    """
    d = b.dim
    unit = [Vector.unit(d, k) for k in range(d)]
    ad_alpha = [b.g.bracket(b.alpha, e) for e in unit]
    ad_beta = [b.gstar.bracket(b.beta, e) for e in unit]
    return tuple(ad_alpha[i][m] - ad_beta[m][i] for i in range(d) for m in range(d))


def compatibility_residual_adjoint(b: JacobiLieBialgebra) -> Matrix:
    """Matrix form: sum_i alpha^i X_i^t - sum_i beta_i Xt^i.

    Entry (r, c) equals minus entry (i, m) = (c, r) of
    :func:`compatibility_residual`.  A reference form used by tests
    (:func:`verify` evaluates the index form).
    """
    d = b.dim
    X = adjoint_x(b.g)
    Xt = adjoint_x(b.gstar)
    acc = Matrix.zero(d)
    for i in range(d):
        if b.alpha[i] != 0:
            acc = acc + X[i].transpose().scale(b.alpha[i])
        if b.beta[i] != 0:
            acc = acc - Xt[i].scale(b.beta[i])
    return acc


def cocycle_x0_residual(b: JacobiLieBialgebra) -> tuple[Fraction, ...]:
    """alpha . f~^mn over the d(d-1)/2 pairs m < n in lexicographic order."""
    pairs = itertools.combinations(range(b.dim), 2)
    return tuple(b.alpha.dot(Vector(b.gstar.entries[m][n])) for m, n in pairs)


def cocycle_x0_residual_adjoint(b: JacobiLieBialgebra) -> Matrix:
    """Matrix form sum_i alpha^i Yt_i: entry (m, n) is -alpha . f~^mn, the
    full antisymmetric grid of :func:`cocycle_x0_residual` negated.  A
    reference form used by tests (:func:`verify` evaluates the index form)."""
    d = b.dim
    Yt = adjoint_y(b.gstar)
    acc = Matrix.zero(d)
    for i in range(d):
        if b.alpha[i] != 0:
            acc = acc + Yt[i].scale(b.alpha[i])
    return acc


def cocycle_phi0_residual(b: JacobiLieBialgebra) -> tuple[Fraction, ...]:
    """beta . f_mn over the d(d-1)/2 pairs m < n in lexicographic order."""
    pairs = itertools.combinations(range(b.dim), 2)
    return tuple(b.beta.dot(Vector(b.g.entries[m][n])) for m, n in pairs)


def cocycle_phi0_residual_adjoint(b: JacobiLieBialgebra) -> Matrix:
    """Matrix form sum_i beta_i Y^i: entry (m, n) is -beta . f_mn, the full
    antisymmetric grid of :func:`cocycle_phi0_residual` negated.  A
    reference form used by tests (:func:`verify` evaluates the index form)."""
    d = b.dim
    Y = adjoint_y(b.g)
    acc = Matrix.zero(d)
    for i in range(d):
        if b.beta[i] != 0:
            acc = acc + Y[i].scale(b.beta[i])
    return acc


def verify(b: JacobiLieBialgebra) -> VerificationReport:
    """Evaluate the seven defining condition groups exactly.

    Each condition is computed once, by its one function, over its
    independent entries.  The report records the max |entry| per condition
    as an exact rational (that of the full residual grid); the candidate
    passes iff every residual is exactly zero.  The adjoint-matrix forms of
    the same conditions are the oracles of ``test_jacobi_loop_matches_matrix_form``
    (``tests/test_structure.py``), ``test_mixed_forms_agree_on_arbitrary_inputs``
    and ``test_compatibility_forms_sign_relation`` (``tests/test_bialgebra.py``).
    """
    residuals = (
        ("jacobi_g", grid_max_abs(jacobi_residual(b.g))),
        ("jacobi_gstar", grid_max_abs(jacobi_residual(b.gstar))),
        ("mixed", grid_max_abs(mixed_residual(b))),
        ("orthogonality", abs(orthogonality_residual(b))),
        ("compatibility", grid_max_abs(compatibility_residual(b))),
        ("cocycle_x0", grid_max_abs(cocycle_x0_residual(b))),
        ("cocycle_phi0", grid_max_abs(cocycle_phi0_residual(b))),
    )
    return VerificationReport(tuple(ConditionResult(n, r) for n, r in residuals))


def _double_space(b: JacobiLieBialgebra, mixed_coeffs) -> StructureTensor:
    """Bracket of the 2d-dimensional double space, basis (x1..xd, y1..yd),
    from the a < b half: g among the x, g* among the y, and the x then y
    coefficients ``mixed_coeffs(i, j)`` of [x_i, y_j].  It need not satisfy
    the Jacobi identity: with nonzero cocycles the double space is no Lie
    algebra in general."""
    d = b.dim
    brackets = {(i, j, k): v for i, j, k, v in b.g.nonzero()}
    brackets.update({(d + i, d + j, d + k): v for i, j, k, v in b.gstar.nonzero()})
    for i in range(d):
        for j in range(d):
            xc, yc = mixed_coeffs(i, j)
            brackets.update({(i, d + j, c): v for c, v in enumerate(xc + yc)})
    return StructureTensor.from_brackets(2 * d, brackets)


def double_brackets(b: JacobiLieBialgebra) -> StructureTensor:
    """Bracket of the double space with the cocycle correction terms.

    The mixed bracket of x_i with y^j has x_k coefficient
    ``f~^jk_i + alpha^k delta_i^j / 2 - alpha^j delta_i^k`` and y^k
    coefficient ``f_ki^j - beta_k delta_i^j / 2 + beta_i delta_k^j``.
    """
    d = b.dim
    f = b.g.entries
    ft = b.gstar.entries
    al, be = b.alpha, b.beta

    def coeffs(i, j):
        half = Fraction(1, 2)
        xc = [
            ft[j][k][i]
            + (al[k] * half if i == j else 0)
            - (al[j] if i == k else 0)
            for k in range(d)
        ]
        yc = [
            f[k][i][j]
            - (be[k] * half if i == j else 0)
            + (be[i] if k == j else 0)
            for k in range(d)
        ]
        return xc, yc

    return _double_space(b, coeffs)


def classical_double_brackets(
    g: StructureTensor, gstar: StructureTensor
) -> StructureTensor:
    """Bracket of the double space of an ordinary dual pair: mixed bracket
    without cocycles."""
    d = g.dim
    b = JacobiLieBialgebra(g, gstar, Vector.zero(d), Vector.zero(d))
    f = g.entries
    ft = gstar.entries

    def coeffs(i, j):
        xc = [ft[j][k][i] for k in range(d)]
        yc = [f[k][i][j] for k in range(d)]
        return xc, yc

    return _double_space(b, coeffs)
