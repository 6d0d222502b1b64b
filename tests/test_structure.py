import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_independent, random_antisymmetric, table_samples
from jacobilie import (
    JacobiLieBialgebra,
    StructureTensor,
    Vector,
    adjoint_x,
    adjoint_y,
    is_lie_algebra,
    jacobi_residual,
    jacobi_residual_adjoint,
    lookup,
    verify,
)
from jacobilie.structure import format_brackets, grid_is_zero, grid_max_abs

fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(fractions, min_size=8, max_size=8))
def test_antisymmetrization_idempotent(raw):
    grid = [
        [[raw[0], raw[1]], [raw[2], raw[3]]],
        [[raw[4], raw[5]], [raw[6], raw[7]]],
    ]
    t = StructureTensor(2, grid)
    for i, j, k in itertools.product(range(2), repeat=3):
        assert t[i, j, k] == -t[j, i, k]
    # constructing again from the projected entries changes nothing
    assert StructureTensor(2, t.entries) == t


def test_from_brackets_requires_lower_pair():
    with pytest.raises(ValueError):
        StructureTensor.from_brackets(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        StructureTensor.from_brackets(2, {(0, 0, 0): 1})


def test_adjoint_zero_tensor():
    t = StructureTensor.zero(3)
    assert all(m.is_zero() for m in adjoint_x(t))
    assert all(m.is_zero() for m in adjoint_y(t))


def test_adjoint_nonabelian_2d():
    # bracket [x1,x2] = x1: first adjoint has (row 2, col 1) = -1,
    # second has (row 1, col 1) = +1 (1-based positions)
    t = lookup("A2").tensor
    X = adjoint_x(t)
    assert X[0][1, 0] == -1
    assert sum(1 for r in range(2) for c in range(2) if X[0][r, c] != 0) == 1
    assert X[1][0, 0] == 1
    assert sum(1 for r in range(2) for c in range(2) if X[1][r, c] != 0) == 1


def test_adjoint_nilpotent_3d():
    # bracket [x2,x3] = x1
    t = lookup("II").tensor
    X = adjoint_x(t)
    assert X[1][2, 0] == -1
    assert X[2][1, 0] == 1
    assert X[0].is_zero()


def test_adjoint_y_convention():
    t = lookup("A2").tensor
    Y = adjoint_y(t)
    # (Y^k)[i, j] == -f[i, j, k]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert Y[k][i, j] == -t[i, j, k]


def test_jacobi_zero_for_abelian():
    assert grid_is_zero(jacobi_residual(StructureTensor.zero(3)))


@pytest.mark.parametrize("name", ["A1", "A2", "I", "II", "III", "IV", "V", "VI0", "VII0", "VIII", "IX"])
def test_jacobi_zero_for_catalog(name):
    assert is_lie_algebra(lookup(name).tensor)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(2), Fraction(3)])
def test_jacobi_zero_for_parametrized(a):
    assert is_lie_algebra(lookup("VIa", a).tensor)
    assert is_lie_algebra(lookup("VIIa", a).tensor)


def jacobi_verify_residuals(t):
    d = t.dim
    b = JacobiLieBialgebra(t, t, Vector.zero(d), Vector.zero(d))
    report = verify(b)
    return report.condition("jacobi_g").residual, report.condition("jacobi_gstar").residual


def test_jacobi_brute_force_oracle():
    # all three independent entries set to one: checked against an
    # independent triple-loop expansion of the cyclic identity, which
    # establishes this tensor is a Lie algebra (residual identically zero)
    t = StructureTensor.from_brackets(3, {(0, 1, 2): 1, (0, 2, 1): 1, (1, 2, 0): 1})
    d = 3
    f = t.entries

    def brute(i, j, m, n):
        total = Fraction(0)
        for k in range(d):
            total += f[i][j][k] * f[k][m][n]
            total += f[i][k][n] * f[m][j][k]
            total += f[j][k][n] * f[i][m][k]
        return total

    # every brute-force entry: the Jacobiator entry at an increasing triple,
    # its antisymmetric image at a permuted one, zero at a repeated index
    fast = jacobi_residual(t)
    full = expand_independent(fast, d, (3, 1))
    for i, j, m, n in itertools.product(range(d), repeat=4):
        assert full[i, j, m, n] == brute(i, j, m, n)
    assert grid_is_zero(fast)
    worst = grid_max_abs(brute(*index) for index in itertools.product(range(d), repeat=4))
    assert jacobi_verify_residuals(t) == (worst, worst)


def test_jacobi_loop_matches_matrix_form(rng):
    # the matrix form is the oracle for the Jacobiators that verify
    # evaluates: random tensors, plus g and g* of the first sample of every
    # table row; each oracle entry is a Jacobiator entry, its antisymmetric
    # image or zero, and verify reports the max |entry| of the oracle grid
    tensors = [random_antisymmetric(rng, rng.choice((2, 3))) for _ in range(40)]
    tensors += [t for b in table_samples() for t in (b.g, b.gstar)]
    for t in tensors:
        d = t.dim
        oracle = jacobi_residual_adjoint(t)
        full = expand_independent(jacobi_residual(t), d, (3, 1))
        for i, j, m, n in itertools.product(range(d), repeat=4):
            assert full[i, j, m, n] == oracle[i][j][m][n]
        worst = grid_max_abs(
            oracle[i][j][m][n] for i, j, m, n in itertools.product(range(d), repeat=4)
        )
        assert jacobi_verify_residuals(t) == (worst, worst)


def test_jacobi_detects_failure():
    # [x1,x2] = x2 with [x2,x3] = x1 breaks the cyclic identity:
    # the (1,2,3) Jacobiator equals -x1
    t = StructureTensor.from_brackets(3, {(0, 1, 1): 1, (1, 2, 0): 1})
    assert not is_lie_algebra(t)
    assert grid_max_abs(jacobi_residual(t)) > 0


def test_format_brackets():
    t = lookup("III").tensor
    assert format_brackets(t) == [
        "[x1,x2] = -x2 - x3",
        "[x1,x3] = -x2 - x3",
    ]
    assert format_brackets(StructureTensor.zero(2)) == []


def test_tensor_values_are_immutable():
    t = lookup("III").tensor
    with pytest.raises(AttributeError):
        t.dim = 5
    with pytest.raises(TypeError):
        t.entries[0][0][0] = 1
