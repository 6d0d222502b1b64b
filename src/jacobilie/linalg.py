"""Exact dense linear algebra over rationals, sized for dimensions 2 and 3.

Every entry is a ``fractions.Fraction``; no floating point appears anywhere.
Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class SingularMatrixError(ValueError):
    """Raised when an exact inverse is requested for a singular matrix."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass int, Fraction or 'p/q' string")
    return Fraction(value)


def format_fraction(value: Fraction) -> str:
    """Canonical text form: 'n' for integers, 'p/q' otherwise (lowest terms)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    import math

    value = Fraction(value)
    if value < 0:
        return None
    pn = math.isqrt(value.numerator)
    pd = math.isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None


class Vector:
    """Immutable vector of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        object.__setattr__(self, "entries", tuple(as_fraction(e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "Vector":
        return cls([1 if i == index else 0 for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return Vector(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return Vector(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def scale(self, c) -> "Vector":
        c = as_fraction(c)
        return Vector(c * a for a in self.entries)

    __rmul__ = scale

    def dot(self, other: "Vector") -> Fraction:
        return sum(
            (a * b for a, b in zip(self.entries, other.entries, strict=True)),
            Fraction(0),
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("Vector", self.entries))

    def __repr__(self) -> str:
        return "Vector(" + ", ".join(format_fraction(a) for a in self.entries) + ")"


class Matrix:
    """Immutable square matrix of exact rationals.

    Invertibility is decided exactly via the determinant; ``inverse`` raises
    :class:`SingularMatrixError` instead of returning an approximate result.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        grid = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        d = len(grid)
        if d == 0 or any(len(row) != d for row in grid):
            raise ValueError("Matrix must be square and non-empty")
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> "Matrix":
        return cls([[0] * dim for _ in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector(row[j] for row in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows, strict=True)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows, strict=True)
        )

    def __neg__(self) -> "Matrix":
        return Matrix([-a for a in row] for row in self.rows)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch in matrix product")
            cols = list(zip(*other.rows))
            return Matrix(
                [
                    sum((a * b for a, b in zip(row, col)), Fraction(0))
                    for col in cols
                ]
                for row in self.rows
            )
        if isinstance(other, Vector):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch in matrix-vector product")
            return Vector(
                sum((a * b for a, b in zip(row, other.entries)), Fraction(0))
                for row in self.rows
            )
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix([c * a for a in row] for row in self.rows)

    __rmul__ = scale

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def det(self) -> Fraction:
        d = self.dim
        r = self.rows
        if d == 1:
            return r[0][0]
        if d == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if d == 3:
            return (
                r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
            )
        # general size: Gaussian elimination
        m = [list(row) for row in r]
        det = Fraction(1)
        for c in range(d):
            pivot = next((k for k in range(c, d) if m[k][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for k in range(c + 1, d):
                if m[k][c] != 0:
                    factor = m[k][c] * inv
                    m[k] = [a - factor * b for a, b in zip(m[k], m[c])]
        return det

    def inverse(self) -> "Matrix":
        d = self.dim
        aug = [list(row) + [Fraction(i == j) for j in range(d)] for i, row in enumerate(self.rows)]
        for c in range(d):
            pivot = next((k for k in range(c, d) if aug[k][c] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            aug[c], aug[pivot] = aug[pivot], aug[c]
            pv = aug[c][c]
            aug[c] = [x / pv for x in aug[c]]
            for k in range(d):
                if k != c and aug[k][c] != 0:
                    q = aug[k][c]
                    aug[k] = [a - q * b for a, b in zip(aug[k], aug[c])]
        return Matrix(row[d:] for row in aug)

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("Matrix", self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_fraction(a) for a in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def solve_affine(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve a rectangular exact linear system ``rows . x = rhs``.

    Returns ``(particular, nullspace_basis)``, or None when inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [as_fraction(rhs[i])] for i in range(m)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                q = aug[k][c]
                aug[k] = [a - q * b for a, b in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if aug[k][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for idx, c in enumerate(pivots):
        particular[c] = aug[idx][n]
    free = [c for c in range(n) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for idx, c in enumerate(pivots):
            v[c] = -aug[idx][fc]
        basis.append(v)
    return particular, basis
