"""Structure-constant tensors and their adjoint matrices.

A rank-(2,1) array ``f[i][j][k]`` holds the constants of a bilinear bracket
``[e_i, e_j] = f[i][j][k] e_k`` on a d-dimensional space.  The same container
serves both roles of a dual pair: for the primal algebra the first two indices
are down (``f_ij^k``), for the dual algebra they are up (``f~^ij_k``).  All
indices are 0-based in code.

``StructureTensor.bracket`` is the one place where structure constants are
contracted with coordinates: every change of basis in the library (pushing a
dual tensor along an automorphism, the automorphism test, the intertwining
residual of a change of basis) applies it to the rows of a basis matrix.

Sign convention (used by every matrix-form condition downstream): the adjoint
matrices carry a minus sign,

    adjoint_x(t)[i][j, k] == -t[i, j, k]
    adjoint_y(t)[k][i, j] == -t[i, j, k]
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import Matrix, Vector, as_fraction, format_fraction

# residual grids are plain nested tuples indexed [i][j][m][n]
Grid4 = tuple


class StructureTensor:
    """Antisymmetric structure-constant tensor with exact rational entries.

    Construction antisymmetrizes in the first two indices, so reading back
    always yields ``t[i, j, k] == -t[j, i, k]`` exactly.
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
        anti = tuple(
            tuple(
                tuple((raw[i][j][k] - raw[j][i][k]) / 2 for k in range(dim))
                for j in range(dim)
            )
            for i in range(dim)
        )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", anti)

    def __setattr__(self, name, value):
        raise AttributeError("StructureTensor is immutable")

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        z = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(dim, z)

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: Mapping[tuple[int, int, int], object]
    ) -> "StructureTensor":
        """Build from entries given only for i < j (0-based); the j > i half
        is completed by antisymmetry."""
        grid = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in brackets.items():
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bracket index ({i},{j},{k}) out of range or not i<j")
            v = as_fraction(value)
            grid[i][j][k] = v
            grid[j][i][k] = -v
        return cls(dim, grid)

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
                c = um * vn
                if c != 0:
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


def jacobi_residual(t: StructureTensor) -> Grid4:
    """Jacobi-identity residual as index loops, indexed [i][j][m][n].

    The residual vanishes identically exactly when the bracket defined by
    ``t`` satisfies the Jacobi identity.
    """
    d = t.dim
    f = t.entries
    return tuple(
        tuple(
            tuple(
                tuple(
                    sum(
                        (
                            f[i][j][k] * f[k][m][n]
                            + f[i][k][n] * f[m][j][k]
                            + f[j][k][n] * f[i][m][k]
                            for k in range(d)
                        ),
                        Fraction(0),
                    )
                    for n in range(d)
                )
                for m in range(d)
            )
            for j in range(d)
        )
        for i in range(d)
    )


def jacobi_residual_adjoint(t: StructureTensor) -> Grid4:
    """Jacobi residual assembled from adjoint matrices.

    For each ordered pair (i, j) the matrix

        sum_k adjoint_x(t)[i][j, k] * X_k  +  X_i X_j  -  X_j X_i

    is the (i, j) slice of the residual; it agrees entrywise with
    :func:`jacobi_residual`.  All ordered pairs are checked, including i == j.
    Reference form used by tests; the library evaluates the index form.
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


def grid_max_abs(grid) -> Fraction:
    """Max |entry| of an arbitrarily nested tuple/list of Fractions."""
    if isinstance(grid, Fraction):
        return abs(grid)
    if isinstance(grid, (int,)):
        return abs(Fraction(grid))
    return max((grid_max_abs(g) for g in grid), default=Fraction(0))


def grid_is_zero(grid) -> bool:
    return grid_max_abs(grid) == 0


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
