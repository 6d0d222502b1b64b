"""Structure-constant tensors and their adjoint matrices.

A rank-(2,1) array ``f[i][j][k]`` holds the constants of a bilinear bracket
``[e_i, e_j] = f[i][j][k] e_k`` on a d-dimensional space.  The same container
serves both roles of a dual pair: for the primal algebra the first two indices
are down (``f_ij^k``), for the dual algebra they are up (``f~^ij_k``).  All
indices are 0-based in code.

``StructureTensor.bracket`` is the one place where structure constants are
contracted with coordinates: every change of basis in the library (pushing a
dual tensor along an automorphism, the automorphism test, the intertwining
residual of a change of basis) applies it to the rows of a basis matrix, and
:func:`jacobi_residual` applies it to the Jacobiator of each basis triple.

Sign convention (used by every matrix-form condition downstream): the adjoint
matrices carry a minus sign,

    adjoint_x(t)[i][j, k] == -t[i, j, k]
    adjoint_y(t)[k][i, j] == -t[i, j, k]
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import Matrix, Vector, as_fraction, format_fraction

class StructureTensor:
    """Antisymmetric structure-constant tensor with exact rational entries.

    ``StructureTensor(dim, entries)`` projects an arbitrary grid onto its
    antisymmetric part; ``from_brackets`` stores the i < j half it is given
    and its negation.  Reading back always yields ``t[i, j, k] == -t[j, i, k]``
    exactly.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Iterable[Iterable[Iterable]]) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        raw = [[[as_fraction(x) for x in col] for col in row] for row in entries]
        if len(raw) != dim or any(
            len(row) != dim or any(len(col) != dim for col in row) for row in raw
        ):
            raise ValueError(f"entries must form a {dim}x{dim}x{dim} grid")
        upper = {
            (i, j, k): (raw[i][j][k] - raw[j][i][k]) / 2
            for i, j in itertools.combinations(range(dim), 2)
            for k in range(dim)
        }
        self._fill(dim, upper)

    def _fill(self, dim: int, upper: Mapping[tuple[int, int, int], object]) -> None:
        """Set the grid from its i < j half; the j > i half is the negation
        and the diagonal is zero."""
        grid = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in upper.items():
            v = as_fraction(value)
            grid[i][j][k] = v
            grid[j][i][k] = -v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", tuple(tuple(map(tuple, plane)) for plane in grid))

    def __setattr__(self, name, value):
        raise AttributeError("StructureTensor is immutable")

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        return cls.from_brackets(dim, {})

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: Mapping[tuple[int, int, int], object]
    ) -> "StructureTensor":
        """Build from entries given only for i < j (0-based); the j > i half
        is completed by antisymmetry."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        for i, j, k in brackets:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bracket index ({i},{j},{k}) out of range or not i<j")
        t = object.__new__(cls)
        t._fill(dim, brackets)
        return t

    def __getitem__(self, key) -> Fraction:
        i, j, k = key
        return self.entries[i][j][k]

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Coordinates of [u, v] = u_m v_n f_mn^k, skipping zero coefficients."""
        out = [Fraction(0)] * self.dim
        for um, plane in zip(u, self.entries):
            if um == 0:
                continue
            for vn, row in zip(v, plane):
                if vn != 0:
                    c = um * vn
                    out = [a + c * b for a, b in zip(out, row)]
        return Vector(out)

    def nonzero(self) -> list[tuple[int, int, int, Fraction]]:
        """Nonzero entries with i < j, in lexicographic order."""
        out = []
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(d):
                    v = self.entries[i][j][k]
                    if v != 0:
                        out.append((i, j, k, v))
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for plane in self.entries for row in plane for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureTensor)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(("StructureTensor", self.entries))

    def __repr__(self) -> str:
        nz = ", ".join(
            f"({i},{j},{k})={format_fraction(v)}" for i, j, k, v in self.nonzero()
        )
        return f"StructureTensor(dim={self.dim}, {{{nz or '0'}}})"


def adjoint_x(t: StructureTensor) -> tuple[Matrix, ...]:
    """The d adjoint matrices: entry (j, k) of the i-th matrix is -t[i,j,k]."""
    d = t.dim
    return tuple(
        Matrix([[-t.entries[i][j][k] for k in range(d)] for j in range(d)])
        for i in range(d)
    )


def adjoint_y(t: StructureTensor) -> tuple[Matrix, ...]:
    """The d auxiliary matrices: entry (i, j) of the k-th matrix is -t[i,j,k]."""
    d = t.dim
    return tuple(
        Matrix([[-t.entries[i][j][k] for j in range(d)] for i in range(d)])
        for k in range(d)
    )


def jacobi_residual(t: StructureTensor) -> tuple[Fraction, ...]:
    """Jacobiator [[e_i,e_j],e_m] + [[e_j,e_m],e_i] + [[e_m,e_i],e_j] of each
    basis triple i < j < m, through :meth:`StructureTensor.bracket`.

    Flat tuple: triples in lexicographic order, then the coordinate n (3
    entries in dimension 3, none in dimension 2).  The full grid
    ``[i][j][m][n]`` (:func:`jacobi_residual_adjoint`) is totally
    antisymmetric in (i, j, m), so it vanishes exactly when this tuple does,
    that is when ``t`` satisfies the Jacobi identity.
    """
    d = t.dim
    unit = [Vector.unit(d, k) for k in range(d)]
    out: list[Fraction] = []
    for i, j, m in itertools.combinations(range(d), 3):
        terms = [
            t.bracket(Vector(t.entries[a][b]), unit[c])
            for a, b, c in ((i, j, m), (j, m, i), (m, i, j))
        ]
        out.extend(x + y + z for x, y, z in zip(*terms))
    return tuple(out)


def jacobi_residual_adjoint(t: StructureTensor) -> tuple:
    """Jacobi residual assembled from adjoint matrices.

    For each ordered pair (i, j) the matrix

        sum_k adjoint_x(t)[i][j, k] * X_k  +  X_i X_j  -  X_j X_i

    is the (i, j) slice of the full residual grid, whose entry [i][j][m][n]
    is coordinate n of the Jacobiator of (e_i, e_j, e_m).  All ordered pairs
    are included, i == j too.  Reference form used by tests; the library
    evaluates the independent entries, :func:`jacobi_residual`.
    """
    d = t.dim
    X = adjoint_x(t)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = Matrix.zero(d)
            for k in range(d):
                coeff = X[i][j, k]
                if coeff != 0:
                    acc = acc + X[k].scale(coeff)
            acc = acc + X[i] * X[j] - X[j] * X[i]
            row.append(tuple(acc.rows))
        out.append(tuple(row))
    return tuple(out)


def grid_max_abs(entries: Iterable[Fraction]) -> Fraction:
    """Max |entry| of a flat residual tuple (0 when it is empty)."""
    return max((abs(x) for x in entries), default=Fraction(0))


def grid_is_zero(entries: Iterable[Fraction]) -> bool:
    return grid_max_abs(entries) == 0


def is_lie_algebra(t: StructureTensor) -> bool:
    """True when the Jacobi residual of ``t`` vanishes identically."""
    return grid_is_zero(jacobi_residual(t))


def format_linear_combination(coeffs: Iterable[Fraction], symbol: str) -> str:
    """Render ``sum_k coeffs[k] * <symbol><k+1>`` as human-readable text."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        name = f"{symbol}{k + 1}"
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{format_fraction(c)}*{name}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def format_brackets(t: StructureTensor, symbol: str = "x") -> list[str]:
    """Human-readable nonzero commutation relations of ``t``."""
    d = t.dim
    lines = []
    for i in range(d):
        for j in range(i + 1, d):
            coeffs = [t.entries[i][j][k] for k in range(d)]
            if any(c != 0 for c in coeffs):
                lhs = f"[{symbol}{i + 1},{symbol}{j + 1}]"
                lines.append(f"{lhs} = {format_linear_combination(coeffs, symbol)}")
    return lines
