"""Reference zero counts for the ``step1-enumerate`` workload.

Counts the Step-1 solutions (dual Jacobi identity, mixed compatibility,
cocycle orthogonality, element/form compatibility and the two cocycle
conditions) of every benchmarked algebra on its grid.  The equations are
evaluated here with plain integers, written out from their index form, so the
counts do not depend on ``jacobilie.residual_system_is_zero`` or on any other
residual code of the library.  All six equations are homogeneous of degree 2
in (f, f~, alpha, beta) taken together, so the half-integer grid is scaled by
2, together with the constants of g, without changing which points are zeros.

    python3 perfbench/reference.py          # re-derive and print the counts
    python3 perfbench/reference.py --write  # also rewrite reference.json
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# the grids of the step1-enumerate workload; 2D uses enumerate_zeros' default
GRID_2D = ("0", "1", "-1", "2", "-2", "1/2", "-1/2")
GRID_3D = ("0", "1")
ALGEBRAS_2D = ("A1", "A2")
ALGEBRAS_3D = ("I", "II", "III", "IV", "V", "VI0", "VII0", "VIII", "IX")


def _is_zero(f, ft, al, be) -> bool:
    """True when all six Step-1 equations vanish (integer entries)."""
    d = len(al)
    r = range(d)
    if sum(al[i] * be[i] for i in r):
        return False
    for m in r:
        for n in r:
            if sum(al[i] * ft[m][n][i] for i in r):
                return False
            if sum(be[i] * f[m][n][i] for i in r):
                return False
    for i in r:
        for m in r:
            if sum(al[n] * f[n][i][m] - be[n] * ft[n][m][i] for n in r):
                return False
    # C[i][m] = alpha^k f_ik^m - alpha^m beta_i
    C = [[sum(al[k] * f[i][k][m] for k in r) - al[m] * be[i] for m in r] for i in r]
    for i, j, m, n in itertools.product(r, repeat=4):
        s = 0
        for k in r:
            s += f[i][j][k] * ft[m][n][k]
            s -= f[i][k][m] * ft[k][n][j] + f[i][k][n] * ft[m][k][j]
            s -= f[k][j][m] * ft[k][n][i] + f[k][j][n] * ft[m][k][i]
        s += be[i] * ft[m][n][j] - be[j] * ft[m][n][i]
        s += al[m] * f[i][j][n] - al[n] * f[i][j][m]
        s += (j == n) * C[i][m] - (i == n) * C[j][m]
        s += (i == m) * C[j][n] - (j == m) * C[i][n]
        if s:
            return False
    for i, j, m, n in itertools.product(r, repeat=4):
        if sum(
            ft[i][j][k] * ft[k][m][n] + ft[i][k][n] * ft[m][j][k] + ft[j][k][n] * ft[i][m][k]
            for k in r
        ):
            return False
    return True


def _tensor(d, pairs, values):
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for p, (i, j) in enumerate(pairs):
        for k in range(d):
            t[i][j][k] = values[p * d + k]
            t[j][i][k] = -values[p * d + k]
    return t


def count_zeros(g_entries, grid) -> int:
    """Zeros of the Step-1 system over ``grid`` for every unknown."""
    d = len(g_entries)
    values = [Fraction(v) for v in grid]
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    ints = [int(v * scale) for v in values]
    f = [[[int(x * scale) for x in row] for row in plane] for plane in g_entries]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    count = 0
    for cocycles in itertools.product(ints, repeat=2 * d):
        al, be = cocycles[:d], cocycles[d:]
        for dual in itertools.product(ints, repeat=len(pairs) * d):
            if _is_zero(f, _tensor(d, pairs, dual), al, be):
                count += 1
    return count


def derive() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    import jacobilie as jl

    counts = {}
    for names, grid in ((ALGEBRAS_2D, GRID_2D), (ALGEBRAS_3D, GRID_3D)):
        for name in names:
            counts[name] = count_zeros(jl.lookup(name).tensor.entries, grid)
    return {"grid_2d": list(GRID_2D), "grid_3d": list(GRID_3D), "zero_counts": counts}


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text("utf-8"))


if __name__ == "__main__":
    data = derive()
    for name, count in data["zero_counts"].items():
        print(f"{name}: {count} zeros")
    if "--write" in sys.argv[1:]:
        REFERENCE_FILE.write_text(json.dumps(data, indent=2) + "\n", "utf-8")
