import itertools
from fractions import Fraction

import pytest

from conftest import expand_independent, random_antisymmetric, random_candidate, table_samples
from jacobilie import (
    DimensionMismatchError,
    JacobiLieBialgebra,
    StructureTensor,
    Vector,
    classical_double_brackets,
    classical_mixed_residual,
    double_brackets,
    lookup,
    mixed_residual,
    verify,
)
from jacobilie.bialgebra import (
    cocycle_phi0_residual,
    cocycle_phi0_residual_adjoint,
    cocycle_x0_residual,
    cocycle_x0_residual_adjoint,
    compatibility_residual,
    compatibility_residual_adjoint,
    mixed_residual_adjoint,
    orthogonality_residual,
    orthogonality_residual_adjoint,
)
from jacobilie.structure import grid_is_zero, grid_max_abs


def abelian_pair(alpha, beta, dim=2):
    z = StructureTensor.zero(dim)
    return JacobiLieBialgebra(z, z, Vector(alpha), Vector(beta))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        JacobiLieBialgebra(
            StructureTensor.zero(2), StructureTensor.zero(3), Vector([0, 0]), Vector([0, 0])
        )


def test_verify_abelian_orthogonal_cocycles_passes():
    rep = verify(abelian_pair([0, 1], [1, 0]))
    assert rep.passed


def test_verify_fails_at_orthogonality():
    rep = verify(abelian_pair([0, 1], [0, 1]))
    assert not rep.passed
    assert "orthogonality" in rep.failing()
    assert rep.condition("orthogonality").residual == 1
    assert rep.condition("compatibility").ok
    assert rep.condition("cocycle_x0").ok and rep.condition("cocycle_phi0").ok


def test_verify_abelian_with_nonabelian_dual():
    # algebra abelian, dual carrying the rank-one solvable brackets
    b = JacobiLieBialgebra(
        lookup("I").tensor,
        lookup("III").tensor,
        Vector([-2, 0, 0]),
        Vector([0, -1, 1]),
    )
    assert verify(b).passed


def test_verify_localizes_broken_dual_jacobi():
    bad = StructureTensor.from_brackets(3, {(0, 1, 1): 1, (1, 2, 0): 1})
    b = JacobiLieBialgebra(
        StructureTensor.zero(3), bad, Vector.zero(3), Vector.zero(3)
    )
    rep = verify(b)
    assert "jacobi_gstar" in rep.failing()
    assert rep.condition("jacobi_g").ok


def test_mixed_residual_zero_candidate():
    assert grid_is_zero(mixed_residual(JacobiLieBialgebra.zero(3)))


def test_mixed_residual_2d_solvable_pair():
    b = JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): 1}),
        Vector([-1, 0]),
        Vector([0, 1]),
    )
    assert grid_is_zero(mixed_residual(b))
    assert verify(b).passed


def test_mixed_residual_worked_reduction_row():
    gstar = StructureTensor.from_brackets(
        3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
    )
    b = JacobiLieBialgebra(
        lookup("III").tensor, gstar, Vector([0, -1, -1]), Vector([-2, 0, 0])
    )
    assert grid_is_zero(mixed_residual(b))
    assert verify(b).passed


def oracle_candidates(rng, count):
    """Random candidates, then every table row's first sample and its swap
    (the swap puts g* in the role of g)."""
    randoms = [random_candidate(rng, rng.choice((2, 3))) for _ in range(count)]
    return randoms + [c for b in table_samples() for c in (b, b.swap())]


def test_mixed_forms_agree_on_arbitrary_inputs(rng):
    # the adjoint-matrix form is the oracle for the entries verify uses: each
    # oracle entry is an independent entry (i < j, m < n), its antisymmetric
    # image or zero, and verify reports the max |entry| of the oracle grid
    for b in oracle_candidates(rng, 60):
        d = b.dim
        oracle = mixed_residual_adjoint(b)
        full = expand_independent(mixed_residual(b), d, (2, 2))
        for i, j, m, n in itertools.product(range(d), repeat=4):
            assert full[i, j, m, n] == oracle[i][j][m][n]
        worst = grid_max_abs(
            oracle[i][j][m][n] for i, j, m, n in itertools.product(range(d), repeat=4)
        )
        assert verify(b).condition("mixed").residual == worst


def test_compatibility_forms_sign_relation(rng):
    # the matrix forms of the orthogonality, compatibility and both cocycle
    # conditions are oracles for the entries verify uses: every compatibility
    # entry is independent; each cocycle oracle entry is minus an independent
    # entry (m < n), minus its antisymmetric image, or zero; verify reports
    # the max |entry| of each oracle
    for b in oracle_candidates(rng, 30):
        d = b.dim
        assert orthogonality_residual(b) == orthogonality_residual_adjoint(b)
        loops = expand_independent(compatibility_residual(b), d, (1, 1))
        mat = compatibility_residual_adjoint(b)
        cx = expand_independent(cocycle_x0_residual(b), d, (2,))
        cx_m = cocycle_x0_residual_adjoint(b)
        cp = expand_independent(cocycle_phi0_residual(b), d, (2,))
        cp_m = cocycle_phi0_residual_adjoint(b)
        for r in range(d):
            for c in range(d):
                assert mat[r, c] == -loops[c, r]
                assert cx_m[r, c] == -cx[r, c]
                assert cp_m[r, c] == -cp[r, c]
        report = verify(b)
        assert report.condition("orthogonality").residual == abs(
            orthogonality_residual_adjoint(b)
        )
        for name, oracle in (
            ("compatibility", mat),
            ("cocycle_x0", cx_m),
            ("cocycle_phi0", cp_m),
        ):
            worst = grid_max_abs(x for row in oracle.rows for x in row)
            assert report.condition(name).residual == worst


def test_reduction_to_classical_forms(rng):
    # zero cocycles: the generalized residual and bracket table degenerate to
    # the independently coded classical ones
    for _ in range(40):
        d = rng.choice((2, 3))
        g = random_antisymmetric(rng, d)
        gstar = random_antisymmetric(rng, d)
        b = JacobiLieBialgebra(g, gstar, Vector.zero(d), Vector.zero(d))
        assert mixed_residual(b) == classical_mixed_residual(g, gstar)
        assert double_brackets(b) == classical_double_brackets(g, gstar)


def test_double_brackets_halving_convention():
    # abelian pair with crossed unit cocycles: the mixed bracket picks up
    # exactly half of each cocycle vector
    b = abelian_pair([0, 1], [1, 0])
    table = double_brackets(b)
    # [x1, y1] = x2/2 + y1/2
    assert Vector(table.entries[0][2]) == Vector([0, Fraction(1, 2), Fraction(1, 2), 0])


def test_double_brackets_substitution_oracle():
    # full table for the rank-one solvable pair, checked entry by entry
    # against a direct substitution of the mixed-bracket formula
    gstar = StructureTensor.from_brackets(
        3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
    )
    b = JacobiLieBialgebra(
        lookup("III").tensor, gstar, Vector([0, -1, -1]), Vector([-2, 0, 0])
    )
    table = double_brackets(b)
    d = 3
    f = b.g.entries
    ft = b.gstar.entries
    al, be = b.alpha, b.beta
    half = Fraction(1, 2)
    for i in range(d):
        for j in range(d):
            expect_x = [
                ft[j][k][i] + (half * al[k] if i == j else 0) - (al[j] if i == k else 0)
                for k in range(d)
            ]
            expect_y = [
                f[k][i][j] - (half * be[k] if i == j else 0) + (be[i] if k == j else 0)
                for k in range(d)
            ]
            assert Vector(table.entries[i][d + j]) == Vector(expect_x + expect_y)
    # the x-x and y-y blocks are the original brackets
    for i in range(d):
        for j in range(d):
            assert Vector(table.entries[i][j]) == Vector(list(f[i][j]) + [0] * d)
            assert Vector(table.entries[d + i][d + j]) == Vector([0] * d + list(ft[i][j]))


def test_swap_symmetry_round_trip(rng):
    b = random_candidate(rng, 3)
    assert b.swap().swap() == b


def test_swap_symmetry_on_every_table_row():
    from jacobilie.tables import load_table_rows

    for row in load_table_rows():
        assignment = next(a for a, ok in row.sample_assignments() if ok)
        b = row.instantiate(assignment)
        assert verify(b).passed, row.label
        assert verify(b.swap()).passed, row.label


def test_swap_preserves_verification():
    base = JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): 1}),
        Vector([-1, 0]),
        Vector([0, 1]),
    )
    assert verify(base).passed
    assert verify(base.swap()).passed
    broken = JacobiLieBialgebra(base.g, base.gstar, base.alpha, Vector([1, 1]))
    assert not verify(broken).passed
    assert not verify(broken.swap()).passed


def test_degenerate_dimension_one():
    z = StructureTensor.zero(1)
    good = JacobiLieBialgebra(z, z, Vector([2]), Vector([0]))
    assert verify(good).passed
    bad = JacobiLieBialgebra(z, z, Vector([2]), Vector([1]))
    rep = verify(bad)
    assert rep.failing() == ("orthogonality",)
    assert orthogonality_residual(bad) == 2


def test_report_as_dict():
    rep = verify(abelian_pair([0, 1], [0, 1]))
    data = rep.as_dict()
    assert data["passed"] is False
    assert data["conditions"]["orthogonality"] == {"residual_max": "1", "ok": False}


def test_double_space_is_lie_algebra_without_cocycles():
    # with both cocycles zero and all residuals vanishing, the double-space
    # bracket satisfies the Jacobi identity (the classical double construction)
    from jacobilie import is_lie_algebra, lookup

    g = lookup("A2").tensor
    for dual_brackets in ({(0, 1, 0): Fraction(2)}, {(0, 1, 1): Fraction(1)}, {}):
        gstar = StructureTensor.from_brackets(2, dual_brackets)
        b = JacobiLieBialgebra(g, gstar, Vector.zero(2), Vector.zero(2))
        assert verify(b).passed
        assert is_lie_algebra(double_brackets(b))


def test_double_space_not_lie_algebra_with_cocycles():
    # the verified candidate with nonzero cocycles: all defining conditions
    # hold, yet the double-space table fails the Jacobi identity
    from jacobilie import is_lie_algebra, lookup

    gstar = StructureTensor.from_brackets(
        3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
    )
    b = JacobiLieBialgebra(
        lookup("III").tensor, gstar, Vector([0, -1, -1]), Vector([-2, 0, 0])
    )
    assert verify(b).passed
    assert not is_lie_algebra(double_brackets(b))
