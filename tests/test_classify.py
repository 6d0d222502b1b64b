import json
import logging
from fractions import Fraction
from pathlib import Path

import pytest

from jacobilie import (
    Matrix,
    SoundnessCheckError,
    StructureTensor,
    UnknownAssignment,
    Vector,
    classify_d2,
    enumerate_zeros,
    step2_equation_residual,
    identify_dual,
    lookup,
    residual_system,
    residual_system_is_zero,
    search_witness,
    step2_matrix_b,
    step3_reduce,
    verify,
    verify_tables,
)
from jacobilie.classify import SolutionFamily, _a2_families
from jacobilie.tables import load_table_rows


def worked_step1(gamma) -> UnknownAssignment:
    gamma = Fraction(gamma)
    return UnknownAssignment(
        StructureTensor.from_brackets(
            3,
            {(0, 1, 0): gamma, (0, 2, 0): gamma, (1, 2, 1): gamma, (1, 2, 2): -gamma},
        ),
        Vector([0, -gamma, -gamma]),
        Vector([-2, 0, 0]),
    )


def test_unknown_assignment_round_trip():
    u = UnknownAssignment.from_free_entries(2, [1, "1/2"], ["-1", 0], [0, 2])
    assert u.gstar[0, 1, 0] == 1 and u.gstar[0, 1, 1] == Fraction(1, 2)
    assert u.gstar[1, 0, 0] == -1
    assert u.free_entries() == (1, Fraction(1, 2))
    assert u.alpha == Vector([-1, 0]) and u.beta == Vector([0, 2])


def test_residual_system_trivial_solution():
    g = lookup("A2")
    u = UnknownAssignment.from_free_entries(2, [0, 0], [0, 0], [0, 0])
    assert all(x == 0 for x in residual_system(g, u))
    assert residual_system_is_zero(g, u)


def test_residual_system_2d_row():
    g = lookup("A2")
    u = UnknownAssignment.from_free_entries(2, [0, 1], [-1, 0], [0, 1])
    assert all(x == 0 for x in residual_system(g, u))


def test_residual_system_worked_shape():
    # the full step-1 shape over the rank-one solvable algebra, including a
    # nonzero free coefficient on the third dual bracket
    g = lookup("III")
    base = worked_step1(1)
    assert all(x == 0 for x in residual_system(g, base))
    with_extra = UnknownAssignment(
        StructureTensor.from_brackets(
            3,
            {(0, 1, 0): 2, (0, 2, 0): 2, (1, 2, 0): 3, (1, 2, 1): 1, (1, 2, 2): -1},
        ),
        Vector([0, -2, -2]),
        Vector([-2, 0, 0]),
    )
    assert all(x == 0 for x in residual_system(g, with_extra))


def test_residual_system_detects_nonsolutions():
    g = lookup("A2")
    u = UnknownAssignment.from_free_entries(2, [1, 0], [0, 0], [1, 0])
    assert not residual_system_is_zero(g, u)
    assert any(x != 0 for x in residual_system(g, u))


def test_fast_zero_test_matches_full_system(rng):
    from conftest import ENTRY_POOL

    g = lookup("A2")
    for _ in range(200):
        vals = [rng.choice(ENTRY_POOL) for _ in range(6)]
        u = UnknownAssignment.from_free_entries(2, vals[:2], vals[2:4], vals[4:6])
        fast = residual_system_is_zero(g, u)
        assert fast == all(x == 0 for x in residual_system(g, u))


def test_enumerate_zeros_small_grid():
    g = lookup("A2")
    values = (Fraction(0), Fraction(1), Fraction(-1))
    zeros = enumerate_zeros(g, values)
    assert zeros
    # every enumerated zero satisfies the full system and the derived shape
    for u in zeros:
        assert residual_system_is_zero(g.tensor, u)
        x, y = u.gstar[0, 1, 0], u.gstar[0, 1, 1]
        assert u.beta[0] == 0 and u.alpha[1] == 0
        assert u.beta[1] * x == 0 and u.alpha[0] == -u.beta[1] * y


REFERENCE_JSON = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize(
    "name, grid", [("A1", "grid_2d"), ("A2", "grid_2d"), ("II", "grid_3d"), ("III", "grid_3d")]
)
def test_enumerate_zeros_matches_reference_counts(name, grid):
    # the counts come from an integer evaluator written independently of the
    # library (perfbench/reference.py); every zero must also pass verify
    reference = json.loads(REFERENCE_JSON.read_text())
    values = tuple(Fraction(v) for v in reference[grid])
    g = lookup(name)
    zeros = enumerate_zeros(g, values)
    assert len(zeros) == reference["zero_counts"][name]
    assert all(verify(u.as_bialgebra(g)).passed for u in zeros)


def test_classify_a1_rows():
    result = classify_d2("A1")
    assert len(result.rows) == 6
    labels = [r.gstar_label for r in result.rows]
    assert labels.count("A1") == 4
    assert labels.count("A2") == 2
    # every family member verifies
    for row in result.rows:
        for t in row.family.sample_values():
            b = row.family.instantiate(t).as_bialgebra(lookup("A1").tensor)
            assert verify(b).passed


def test_classify_a2_rows():
    result = classify_d2("A2")
    assert len(result.rows) == 5
    labels = [r.gstar_label for r in result.rows]
    # the normalized nonabelian dual presentations get variant suffixes
    assert "A2.i" in labels and "A2.ii" in labels
    full = [r for r in result.rows if "-t*x1" in r.x0.replace(" ", "")]
    assert len(full) == 1
    assert full[0].gstar_label == "A2.i"
    assert full[0].constraints == ("t != 0",)


def test_classify_rejects_dimension_3():
    with pytest.raises(Exception):
        classify_d2("III")


def test_classified_rows_cover_bundled_2d_tables():
    rows_a1 = classify_d2("A1").rows
    rows_a2 = classify_d2("A2").rows
    by_g = {"A1": rows_a1, "A2": rows_a2}
    for table_row in load_table_rows(4) + load_table_rows(5):
        assignment = next(a for a, ok in table_row.sample_assignments() if ok)
        target = table_row.instantiate(assignment)
        g = lookup(table_row.g_name)
        matched = False
        for row in by_g[table_row.g_name]:
            u_target = UnknownAssignment(target.gstar, target.alpha, target.beta)
            t = row.family.match_parameter(u_target) if row.family.param else None
            if row.family.param is not None and t is None:
                continue
            candidate = row.family.instantiate(t).as_bialgebra(g.tensor)
            if search_witness(target, candidate).equivalent:
                matched = True
                break
        assert matched, table_row.label


def test_step3_reduce_merges_duplicates():
    fams = _a2_families()
    doubled = [fams[0], fams[0], fams[1]]
    kept, log = step3_reduce(lookup("A2"), doubled)
    assert kept == [fams[0], fams[1]]


def test_step3_reduce_worked_candidates():
    # candidates from the step-1 family at several parameter values reduce to
    # the single unit-parameter representative
    def family_at(gamma):
        gamma = Fraction(gamma)
        return SolutionFamily(
            "III",
            None,
            (
                (0, 1, 0, (gamma, Fraction(0))),
                (0, 2, 0, (gamma, Fraction(0))),
                (1, 2, 1, (gamma, Fraction(0))),
                (1, 2, 2, (-gamma, Fraction(0))),
            ),
            ((Fraction(0), Fraction(0)), (-gamma, Fraction(0)), (-gamma, Fraction(0))),
            ((Fraction(-2), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        )

    candidates = [family_at(1), family_at(2), family_at(-1)]
    kept, log = step3_reduce(lookup("III"), candidates)
    assert kept == [family_at(1)]
    assert not log


def test_step2_worked_example():
    g = lookup("III")
    gamma = Fraction(1)
    gstar = worked_step1(gamma).gstar
    result = step2_matrix_b(
        g,
        gstar,
        assignments=[
            {"a": 1, "b": 0, "c": 2, "d": 1},
            {"a": 0, "b": 1, "c": 3, "d": -1},
            {"a": 2, "b": 2, "c": 1, "d": 3},
        ],
    )
    assert result.identification.name == "V"
    for sample in result.samples:
        A, B = sample.automorphism, sample.b_matrix
        c_plus_d = A[1, 1] + A[1, 2]
        assert B[0, 0] == 0
        assert B[1, 0] == gamma / c_plus_d
        assert B[2, 0] == gamma / c_plus_d
        assert sample.det_b != 0
        assert all(r.is_zero() for r in step2_equation_residual(gstar, lookup("V"), A, B))


def test_step2_identity_solution():
    # dual already in catalog form: the identity automorphism admits B == I
    g = lookup("A1")
    gstar = StructureTensor.from_brackets(2, {(0, 1, 0): 1})
    ident = identify_dual(gstar)
    assert ident.change_of_basis == Matrix.identity(2)
    result = step2_matrix_b(
        g, gstar,
        assignments=[{"a": 1, "b": 0, "c": 0, "d": 1}],
        identification=ident,
    )
    assert result.samples[0].b_matrix == Matrix.identity(2)


def test_step2_vanishing_parameter_has_no_target():
    # at zero parameter the step-1 dual degenerates to the abelian algebra:
    # identification returns the abelian entry, never the dilation target, so
    # there is no transformation toward it
    gstar0 = worked_step1(0).gstar
    assert gstar0.is_zero()
    assert identify_dual(gstar0).name == "I"


def test_verify_tables_2d_exact():
    outcome = verify_tables(table=4)
    assert outcome.passed
    assert outcome.summary() == "table 4: 2/2 rows pass"
    outcome5 = verify_tables(table=5)
    assert outcome5.passed


def test_verify_tables_skips_inadmissible(caplog):
    with caplog.at_level(logging.INFO, logger="jacobilie.classify"):
        outcome = verify_tables(table=6)
    assert outcome.passed
    skipped = [r for r in outcome.results if r.skipped]
    # the scalar samples include a negative value excluded by rows that
    # require a positive coefficient
    assert skipped
    assert any("skipping inadmissible sample" in m for m in caplog.messages)


def test_parametrized_rows_pass_at_three_samples():
    # rows with a continuous parameter admit at least three distinct
    # admissible samples, all passing (a wider positive pool covers rows
    # whose scalar must be positive)
    outcome = verify_tables(
        family_values=(Fraction(1, 2), Fraction(2), Fraction(3), Fraction(4)),
        scalar_values=(Fraction(1), Fraction(-1), Fraction(2), Fraction(3)),
    )
    assert outcome.passed
    for r in outcome.results:
        if r.row.family_params or r.row.scalar_params:
            assert len(r.passed) >= 3, r.row.label


def test_verify_tables_row_counts():
    assert len(load_table_rows(4)) == 2
    assert len(load_table_rows(5)) == 2
    assert len(load_table_rows(6)) == 46
    assert len(load_table_rows(7)) == 30


def test_verify_tables_reports_failures():
    # corrupt one row in memory: flipping the element cocycle must fail
    row = load_table_rows(7)[0]
    import dataclasses

    bad = dataclasses.replace(row, alpha_exprs=("1", "0", "1"), beta_exprs=("0", "0", "1"))
    outcome = verify_tables(rows=(bad,))
    assert not outcome.passed
    assert outcome.results[0].failed


def test_epsilon_values_stay_distinct_under_reduction():
    # the two listed discrete values of the sign parameter give inequivalent
    # candidates: the decision proves it and the reduction keeps both
    # representatives without logging an Unknown verdict
    row = next(
        r for r in load_table_rows(6)
        if r.g_name == "VI0" and r.gstar_label == "VI0.ii"
    )
    b1 = row.instantiate({"eps": Fraction(1)})
    b2 = row.instantiate({"eps": Fraction(-2)})
    assert verify(b1).passed and verify(b2).passed
    verdict = search_witness(b1, b2)
    assert verdict.inequivalent and not verdict.equivalent

    def family_at(eps):
        u1 = row.instantiate({"eps": eps})
        aff = lambda v: (Fraction(v), Fraction(0))
        return SolutionFamily(
            "VI0",
            None,
            tuple((i, j, k, aff(v)) for i, j, k, v in u1.gstar.nonzero()),
            tuple(aff(v) for v in u1.alpha),
            tuple(aff(v) for v in u1.beta),
        )

    kept, log = step3_reduce(lookup("VI0"), [family_at(Fraction(1)), family_at(Fraction(-2))])
    assert len(kept) == 2
    assert log == []  # proved distinct, so no Unknown verdict is recorded


def test_table6_frozen_sample_values():
    # explicit instantiations with independently computed coefficients
    row = next(
        r for r in load_table_rows(6)
        if r.g_name == "IV" and r.gstar_label == "VIa.i" and r.alpha_exprs[2] == "-1"
    )
    b = row.instantiate({"a": Fraction(2)})
    assert b.gstar[1, 2, 1] == 3  # (a+1)/(a-1) at a = 2
    assert verify(b).passed

    row2 = next(
        r for r in load_table_rows(6)
        if r.gstar_label == "VIb.v" and "b != -(a+3)/(a-1)" in r.constraints
    )
    assignment = {"a": Fraction(2), "b": Fraction(3)}
    assert row2.admissible(assignment)  # excluded value would be b = -5
    b2 = row2.instantiate(assignment)
    assert b2.gstar[1, 2, 1] == 2  # (b+1)/(b-1) at b = 3
    assert b2.alpha == Vector([0, Fraction(-7, 3), Fraction(-7, 3)])
    assert b2.beta == Vector([-7, 0, 0])
    assert verify(b2).passed


def test_table7_frozen_sample_values():
    row = next(
        r for r in load_table_rows(7)
        if r.g_name == "II" and r.gstar_label == "II.i"
    )
    b = row.instantiate({})
    assert b.gstar[0, 2, 1] == 1
    assert b.alpha == Vector([1, 0, 0]) and b.beta.is_zero()
    assert verify(b).passed


def test_failed_self_checks_raise(monkeypatch):
    # the re-checks of emitted families and step-2 matrices raise a dedicated
    # error (they are not asserts, so python -O keeps them)
    import jacobilie.classify as classify

    gstar = worked_step1(1).gstar
    with monkeypatch.context() as m:
        m.setattr(classify, "residual_system_is_zero", lambda g, u: False)
        with pytest.raises(SoundnessCheckError):
            classify_d2("A2")
    with monkeypatch.context() as m:
        m.setattr(classify, "step2_equation_residual", lambda *a: (Matrix.identity(3),))
        with pytest.raises(SoundnessCheckError):
            step2_matrix_b(lookup("III"), gstar)
