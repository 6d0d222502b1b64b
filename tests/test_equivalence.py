import random
from fractions import Fraction

import pytest

from conftest import ENTRY_POOL, random_antisymmetric

from jacobilie import (
    JacobiLieBialgebra,
    Matrix,
    NoCatalogMatch,
    NotAutomorphismError,
    SearchRegion,
    SoundnessCheckError,
    StructureTensor,
    Vector,
    automorphism_sample,
    change_of_basis_residual,
    identify_dual,
    is_equivalent_witness,
    lookup,
    search_witness,
    transform,
    verify,
)
from jacobilie.equivalence import _isomorphism_class, transform_tensor
from jacobilie.structure import adjoint_x
from jacobilie.tables import load_table_rows


def worked_family(gamma) -> JacobiLieBialgebra:
    gamma = Fraction(gamma)
    gstar = StructureTensor.from_brackets(
        3,
        {(0, 1, 0): gamma, (0, 2, 0): gamma, (1, 2, 1): gamma, (1, 2, 2): -gamma},
    )
    return JacobiLieBialgebra(
        lookup("III").tensor, gstar, Vector([0, -gamma, -gamma]), Vector([-2, 0, 0])
    )


def a2_row(alpha) -> JacobiLieBialgebra:
    alpha = Fraction(alpha)
    return JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): 1}),
        Vector([-alpha, 0]),
        Vector([0, alpha]),
    )


def test_transform_identity_is_identity():
    b = worked_family(1)
    assert transform(b, Matrix.identity(3)) == b


def test_transform_rejects_non_automorphisms():
    b = a2_row(1)
    with pytest.raises(NotAutomorphismError):
        transform(b, Matrix([[0, 1], [1, 0]]))


def test_transform_preserves_verification():
    b = worked_family(2)
    assert verify(b).passed
    for assignment in ({"a": 1, "b": 0, "c": 2, "d": 1}, {"a": 0, "b": 1, "c": 3, "d": -1}):
        A = automorphism_sample("III", 0, assignment)
        assert verify(transform(b, A)).passed


def test_transform_composition_order():
    b = worked_family(1)
    A1 = automorphism_sample("III", 0, {"a": 1, "b": 0, "c": 2, "d": 1})
    A2 = automorphism_sample("III", 0, {"a": 0, "b": 1, "c": 3, "d": 1})
    assert transform(transform(b, A1), A2) == transform(b, A2 * A1)


def test_worked_family_normalizes_to_unit_parameter():
    # pushing the gamma-family along an automorphism whose lower-block row sum
    # equals gamma lands exactly on the gamma = 1 representative
    target = worked_family(1)
    for gamma, (c, d) in ((Fraction(2), (3, -1)), (Fraction(3), (2, 1)), (Fraction(-1), (-2, 1))):
        A = automorphism_sample("III", 0, {"a": 0, "b": 0, "c": c, "d": d})
        assert Fraction(c) + Fraction(d) == gamma
        assert transform(worked_family(gamma), A) == target


def test_is_equivalent_witness_identity():
    b = worked_family(1)
    assert is_equivalent_witness(b, b, Matrix.identity(3))


def test_is_equivalent_witness_constructed(rng):
    b = a2_row(2)
    A = automorphism_sample("A2", 0, {"a": 3, "b": -1})
    moved = transform(b, A)
    assert is_equivalent_witness(b, moved, A)
    assert not is_equivalent_witness(b, moved, Matrix.identity(2))


def test_is_equivalent_witness_requires_shared_g():
    b1 = a2_row(1)
    b2 = JacobiLieBialgebra(
        lookup("A1").tensor, b1.gstar, b1.alpha, b1.beta
    )
    with pytest.raises(ValueError):
        is_equivalent_witness(b1, b2, Matrix.identity(2))


def test_search_self_equivalence_returns_identity():
    b = a2_row(1)
    verdict = search_witness(b, b)
    assert verdict.equivalent
    assert verdict.witness == Matrix.identity(2)


def test_search_planted_witness():
    b = a2_row(2)
    A = automorphism_sample("A2", 0, {"a": 2, "b": 1})
    moved = transform(b, A)
    verdict = search_witness(b, moved)
    assert verdict.equivalent
    assert is_equivalent_witness(b, moved, verdict.witness)


def test_search_scaling_collapses_unnormalized_solutions():
    # an unnormalized dual (coefficient y on the second generator) with
    # matching cocycles is equivalent to the bundled one-parameter row at the
    # same invariant value; this is why a single family row suffices
    y = Fraction(2)
    t = Fraction(3)
    raw = JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): y}),
        Vector([-t * y, 0]),
        Vector([0, t]),
    )
    assert verify(raw).passed
    verdict = search_witness(raw, a2_row(t))
    assert verdict.equivalent


def test_search_distinct_invariant_values_stay_unknown():
    # the cocycle scale is an equivalence invariant of the normalized family,
    # so distinct values exhaust the region without a witness
    verdict = search_witness(a2_row(1), a2_row(2))
    assert not verdict.equivalent
    assert "A2" in verdict.searched


def test_search_distinct_table6_rows_unknown():
    # the two bundled rows over the same dual that differ only in the element
    # cocycle: the searched region is exhausted without a witness, which the
    # catalog records as distinct classes
    rows = [
        r for r in load_table_rows(6)
        if r.gstar_label == "III.ii" and r.g_name == "III"
    ]
    assert len(rows) == 2
    b1, b2 = (r.instantiate({}) for r in rows)
    verdict = search_witness(b1, b2)
    assert not verdict.equivalent


def test_search_seeds_are_validated_not_trusted():
    b1 = a2_row(1)
    b2 = a2_row(2)
    bogus = Matrix([[1, 0], [0, 1]])
    verdict = search_witness(b1, b2, SearchRegion(seeds=(bogus,)))
    assert not verdict.equivalent


def test_identify_zero_tensor():
    for dim, name in ((2, "A1"), (3, "I")):
        ident = identify_dual(StructureTensor.zero(dim))
        assert ident.name == name
        assert ident.change_of_basis == Matrix.identity(dim)


def test_identify_requires_lie_algebra():
    bad = StructureTensor.from_brackets(3, {(0, 1, 1): 1, (1, 2, 0): 1})
    with pytest.raises(ValueError):
        identify_dual(bad)


def test_identify_worked_step1_dual():
    # the step-1 dual at unit parameter is isomorphic to the pure dilation
    # algebra; the change of basis must satisfy the intertwining equations
    # exactly and carry the shape pinned by the worked reduction
    gamma = Fraction(1)
    gstar = StructureTensor.from_brackets(
        3,
        {(0, 1, 0): gamma, (0, 2, 0): gamma, (1, 2, 1): gamma, (1, 2, 2): -gamma},
    )
    ident = identify_dual(gstar)
    assert ident.name == "V"
    C = ident.change_of_basis
    assert C.det() != 0
    assert all(m.is_zero() for m in change_of_basis_residual(gstar, lookup("V").tensor, C))
    # shape: rows 2 and 3 have opposite middle/last entries (they span the
    # derived ideal); the first row is pinned by gamma * (c12 + c13) == 1
    assert C[1, 1] == -C[1, 2]
    assert C[2, 1] == -C[2, 2]
    assert C[0, 1] + C[0, 2] == 1 / gamma


def test_identify_canonical_reduced_dual():
    gstar = StructureTensor.from_brackets(
        3, {(0, 1, 0): 1, (0, 2, 0): 1, (1, 2, 1): 1, (1, 2, 2): -1}
    )
    ident = identify_dual(gstar)
    assert ident.name == "V"
    assert all(
        m.is_zero() for m in change_of_basis_residual(gstar, lookup("V").tensor, ident.change_of_basis)
    )


@pytest.mark.parametrize(
    "name,param",
    [
        ("A1", None), ("A2", None), ("I", None), ("II", None), ("III", None),
        ("IV", None), ("V", None), ("VI0", None), ("VII0", None),
        ("VIII", None), ("IX", None), ("VIa", Fraction(2)), ("VIa", Fraction(1, 2)),
        ("VIIa", Fraction(3)),
    ],
)
def test_identify_catalog_presentations(name, param):
    alg = lookup(name, param)
    ident = identify_dual(alg.tensor)
    assert ident.name == name
    assert ident.param == param
    assert ident.change_of_basis == Matrix.identity(alg.dim)


@pytest.mark.parametrize(
    "label,expected",
    [
        ("II.i", "II"), ("III.v", "III"), ("III.x", "III"), ("IV.iii", "IV"),
        ("V.i", "V"), ("VI0.i", "VI0"), ("VII0.i", "VII0"),
    ],
)
def test_identify_table_dual_presentations(label, expected):
    rows = [r for r in load_table_rows() if r.gstar_label == label]
    assert rows
    row = rows[0]
    assignment = next(a for a, ok in row.sample_assignments() if ok)
    gstar = row.instantiate(assignment).gstar
    ident = identify_dual(gstar)
    assert ident.name == expected
    target = lookup(ident.name, ident.param).tensor
    assert all(m.is_zero() for m in change_of_basis_residual(gstar, target, ident.change_of_basis))


def test_identify_parametrized_variant():
    # dual with both family coefficients: trace ratio pins the parameter
    row = next(
        r for r in load_table_rows(6) if r.gstar_label == "VIa.i" and r.index == 15
    )
    gstar = row.instantiate({"a": Fraction(2)}).gstar
    ident = identify_dual(gstar)
    assert ident.name == "VIa"
    target = lookup("VIa", ident.param).tensor
    assert all(m.is_zero() for m in change_of_basis_residual(gstar, target, ident.change_of_basis))


def test_identify_reports_failed_search():
    # rational tensor isomorphic to no catalog entry over the rationals:
    # the family parameter solves to an irrational value
    gstar = StructureTensor.from_brackets(
        3, {(0, 1, 1): -3, (0, 1, 2): -1, (0, 2, 1): -1, (0, 2, 2): -1}
    )
    from jacobilie import is_lie_algebra

    assert is_lie_algebra(gstar)
    with pytest.raises(NoCatalogMatch):
        identify_dual(gstar)


def _assert_identified(gstar, name, param):
    ident = identify_dual(gstar)
    assert (ident.name, ident.param) == (name, param)
    C = ident.change_of_basis
    assert C.det() != 0
    target = lookup(name, param).tensor
    assert all(m.is_zero() for m in change_of_basis_residual(gstar, target, C))


def _rebase(t: StructureTensor, P: Matrix) -> StructureTensor:
    """Structure constants of ``t`` in the basis given by the rows of P."""
    d = t.dim
    P_inv = P.inverse()
    rows = [P.row(i) for i in range(d)]
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            image = Vector(
                sum(
                    (rows[i][a] * rows[j][b] * t[a, b, k] for a in range(d) for b in range(d)),
                    Fraction(0),
                )
                for k in range(d)
            )
            for m, c in enumerate(P_inv.transpose() * image):
                brackets[(i, j, m)] = c
    return StructureTensor.from_brackets(d, brackets)


def test_identify_every_admissible_table_dual():
    # the dual of every admissible sample of all 80 rows is identified with a
    # validated change of basis, in the class its exact invariants give
    count = 0
    for row in load_table_rows():
        for assignment, admissible in row.sample_assignments():
            if not admissible:
                continue
            gstar = row.instantiate(assignment).gstar
            name, param, _ = _isomorphism_class(gstar)
            _assert_identified(gstar, name, param)
            count += 1
    assert count == 258


@pytest.mark.parametrize(
    "name,param",
    [
        ("A2", None), ("II", None), ("III", None), ("IV", None), ("V", None),
        ("VI0", None), ("VII0", None), ("VIIa", Fraction(3, 2)),
        ("VIa", Fraction(2)), ("VIa", Fraction(1, 3)),
    ],
)
def test_identify_random_rational_conjugations(name, param):
    # seeded random invertible rational bases of every solvable catalog class
    rng = random.Random(f"{name}-{param}")
    pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    alg = lookup(name, param)
    checked = 0
    while checked < 20:
        P = Matrix([[rng.choice(pool) for _ in range(alg.dim)] for _ in range(alg.dim)])
        if P.det() == 0:
            continue
        gstar = _rebase(alg.tensor, P)
        assert _isomorphism_class(gstar)[:2] == (name, param)
        _assert_identified(gstar, name, param)
        checked += 1


def test_identify_proves_no_rational_change_of_basis():
    # VII0 with determinant ratio 1/2 against the catalog: the scale of the
    # complement would be sqrt(1/2), so no rational isomorphism exists
    gstar = StructureTensor.from_brackets(3, {(0, 2, 1): -2, (1, 2, 0): 1})
    assert _isomorphism_class(gstar)[:2] == ("VII0", None)
    with pytest.raises(NoCatalogMatch) as err:
        identify_dual(gstar)
    assert "no rational change of basis exists" in str(err.value)


def test_identify_simple_non_catalog_presentation():
    # simple duals are matched only in their catalog presentation
    gstar = _rebase(lookup("IX").tensor, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
    assert gstar != lookup("IX").tensor
    with pytest.raises(NoCatalogMatch) as err:
        identify_dual(gstar)
    assert "IX" in str(err.value)


def test_identify_failed_validation_raises(monkeypatch):
    # a constructed change of basis that fails the exact check raises a
    # dedicated error instead of being returned (the check is not an assert)
    import jacobilie.equivalence as equivalence

    gstar = _rebase(lookup("III").tensor, Matrix([[2, 0, 1], [0, 1, 0], [1, 0, 1]]))
    monkeypatch.setattr(
        equivalence,
        "change_of_basis_residual",
        lambda *a: (Matrix.identity(3),),
    )
    with pytest.raises(SoundnessCheckError):
        identify_dual(gstar)


def test_transform_inverse_round_trip():
    b = worked_family(2)
    A = automorphism_sample("III", 0, {"a": 1, "b": 2, "c": 3, "d": 1})
    assert transform(transform(b, A), A.inverse()) == b


def test_search_trivial_self_equivalence_returns_identity():
    b = JacobiLieBialgebra.zero(2)
    verdict = search_witness(b, b)
    assert verdict.witness == Matrix.identity(2)


def test_identify_rejects_uncataloged_dimension():
    with pytest.raises(NoCatalogMatch):
        identify_dual(StructureTensor.zero(1))


def test_search_witness_failed_validation_raises(monkeypatch):
    # a grid hit that fails the exact witness check raises a dedicated error
    # instead of being returned (the check is not an assert)
    import jacobilie.equivalence as equivalence

    b = a2_row(2)
    moved = transform(b, automorphism_sample("A2", 0, {"a": 2, "b": 1}))
    monkeypatch.setattr(equivalence, "is_equivalent_witness", lambda *a: False)
    with pytest.raises(SoundnessCheckError):
        search_witness(b, moved)


# ---------------------------------------------------------------------------
# oracles for the single change-of-basis law (StructureTensor.bracket)
# ---------------------------------------------------------------------------

def _random_matrix(rng, d):
    return Matrix([[rng.choice(ENTRY_POOL) for _ in range(d)] for _ in range(d)])


def _adjoint_change_of_basis_residual(S, T, C):
    # the intertwining equations in adjoint-matrix form C (sum_k C_ik S^k) - T^i C
    d = S.dim
    Sx, Tx = adjoint_x(S), adjoint_x(T)
    out = []
    for i in range(d):
        acc = Matrix.zero(d)
        for k in range(d):
            acc = acc + Sx[k].scale(C[i, k])
        out.append(C * acc - Tx[i] * C)
    return tuple(out)


def _admissible_table_duals():
    for row in load_table_rows():
        for assignment, admissible in row.sample_assignments():
            if admissible:
                yield row.instantiate(assignment).gstar


def test_bracket_matches_index_sum(rng):
    for _ in range(100):
        d = rng.choice((1, 2, 3))
        t = random_antisymmetric(rng, d)
        u = Vector(rng.choice(ENTRY_POOL) for _ in range(d))
        v = Vector(rng.choice(ENTRY_POOL) for _ in range(d))
        expect = Vector(
            sum((u[m] * v[n] * t[m, n, k] for m in range(d) for n in range(d)), Fraction(0))
            for k in range(d)
        )
        assert t.bracket(u, v) == expect
        assert t.bracket(v, u) == -expect


def test_transform_tensor_matches_rebase(rng):
    # pushing a dual along A is rewriting it in the basis of the rows of A^-t
    checked = 0
    while checked < 60:
        d = rng.choice((2, 3))
        A = _random_matrix(rng, d)
        if A.det() == 0:
            continue
        gstar = random_antisymmetric(rng, d)
        assert transform_tensor(gstar, A) == _rebase(gstar, A.inverse().transpose())
        checked += 1


def test_change_of_basis_residual_matches_adjoint_form(rng):
    # random tensors and matrices, singular ones included
    singular = 0
    for _ in range(100):
        d = rng.choice((2, 3))
        S, T = random_antisymmetric(rng, d), random_antisymmetric(rng, d)
        C = _random_matrix(rng, d)
        singular += C.det() == 0
        assert change_of_basis_residual(S, T, C) == _adjoint_change_of_basis_residual(S, T, C)
    for C in (Matrix.zero(3), Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])):
        S, T = random_antisymmetric(rng, 3), random_antisymmetric(rng, 3)
        assert change_of_basis_residual(S, T, C) == _adjoint_change_of_basis_residual(S, T, C)
    assert singular > 0


def test_change_of_basis_residual_matches_adjoint_form_on_table_duals(rng):
    # the dual of every admissible table sample against its catalog class,
    # with the identified change of basis (zero residual) and a random one
    count = 0
    for gstar in _admissible_table_duals():
        ident = identify_dual(gstar)
        target = lookup(ident.name, ident.param).tensor
        for C in (ident.change_of_basis, _random_matrix(rng, gstar.dim)):
            assert change_of_basis_residual(gstar, target, C) == (
                _adjoint_change_of_basis_residual(gstar, target, C)
            )
        count += 1
    assert count == 258
