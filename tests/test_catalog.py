from fractions import Fraction

import pytest

from conftest import ENTRY_POOL
from jacobilie import (
    CatalogError,
    ConstraintError,
    Matrix,
    SingularMatrixError,
    adjoint_y,
    automorphism_family,
    automorphism_sample,
    automorphism_samples,
    catalog_names,
    is_automorphism,
    is_transposed_automorphism,
    lookup,
)
from jacobilie.catalog import canonical_name, identify_presentation


def matrix_form_is_automorphism(g, A) -> bool:
    """Oracle for :func:`is_automorphism`: the matrix form of the relation,
    ``A Y^k A^t == sum_i A_i^k Y^i`` for every k."""
    d = g.dim
    Y = adjoint_y(g.tensor)
    At = A.transpose()
    for k in range(d):
        rhs = Matrix.zero(d)
        for i in range(d):
            rhs = rhs + Y[i].scale(A[i, k])
        if A * Y[k] * At != rhs:
            return False
    return True


def check_against_matrix_oracle(g, samples, rng, n_random=20):
    """Every sample is an automorphism in both forms; random invertible
    matrices get the same verdict from both, and a nonabelian g rejects some."""
    for A in samples:
        assert is_automorphism(g, A)
        assert matrix_form_is_automorphism(g, A)
    rejected = 0
    while n_random:
        A = Matrix([[rng.choice(ENTRY_POOL) for _ in range(g.dim)] for _ in range(g.dim)])
        if A.det() == 0:
            continue
        n_random -= 1
        verdict = is_automorphism(g, A)
        assert verdict == matrix_form_is_automorphism(g, A), A
        rejected += not verdict
    assert rejected or g.tensor.is_zero()


def test_lookup_abelian():
    assert lookup("I").tensor.is_zero()
    assert lookup("A1").tensor.is_zero()


def test_lookup_iii_constants():
    t = lookup("III").tensor
    assert t[0, 1, 1] == -1 and t[0, 1, 2] == -1
    assert t[0, 2, 1] == -1 and t[0, 2, 2] == -1
    assert t[1, 2, 0] == 0 and t[1, 2, 1] == 0 and t[1, 2, 2] == 0


def test_lookup_via_family_parameter():
    t = lookup("VIa", 2).tensor
    assert t[0, 1, 1] == -2 and t[0, 1, 2] == -1
    assert t[0, 2, 1] == -1 and t[0, 2, 2] == -2


def test_lookup_name_normalization():
    assert canonical_name("VI_a") == "VIa"
    assert canonical_name("vii_0") == "VII0"
    assert lookup("VI_0").name == "VI0"
    with pytest.raises(CatalogError):
        lookup("X")


def test_parameter_validation():
    with pytest.raises(ConstraintError):
        lookup("VIa")  # missing
    with pytest.raises(ConstraintError):
        lookup("VIa", 1)  # excluded value
    with pytest.raises(ConstraintError):
        lookup("VIa", 0)  # the zero-parameter algebra is its own entry, not VIa
    with pytest.raises(ConstraintError):
        lookup("VIa", -2)
    with pytest.raises(ConstraintError):
        lookup("VIIa", 0)
    with pytest.raises(ConstraintError):
        lookup("III", 2)  # extra parameter
    assert lookup("VIIa", "1/2").param == Fraction(1, 2)


def test_catalog_names():
    assert catalog_names(2) == ("A1", "A2")
    assert len(catalog_names(3)) == 11
    with pytest.raises(CatalogError):
        catalog_names(4)


def test_identify_presentation():
    from jacobilie import StructureTensor

    assert identify_presentation(lookup("V").tensor).name == "V"
    assert identify_presentation(lookup("VIa", 3).tensor).param == 3
    with pytest.raises(CatalogError):
        identify_presentation(StructureTensor.from_brackets(3, {(0, 1, 0): 5}))


def test_is_automorphism_identity():
    for name in ("A1", "A2", "II", "III", "VIII"):
        g = lookup(name)
        assert is_automorphism(g, Matrix.identity(g.dim))


def test_is_automorphism_a2_examples():
    g = lookup("A2")
    assert is_automorphism(g, Matrix([[2, 0], [3, 1]]))
    # the swap is invertible but reverses the bracket direction
    assert not is_automorphism(g, Matrix([[0, 1], [1, 0]]))


def test_singular_matrix_is_an_error_not_false():
    g = lookup("A2")
    with pytest.raises(SingularMatrixError):
        is_automorphism(g, Matrix([[0, 0], [3, 1]]))


def test_automorphism_sample_iii():
    A = automorphism_sample("III", 0, {"a": 1, "b": 0, "c": 2, "d": 1})
    assert A == Matrix([[1, 1, 0], [0, 2, 1], [0, 1, 2]])
    assert is_automorphism(lookup("III"), A)


def test_automorphism_sample_vi0_second_branch():
    A = automorphism_sample("VI0", 1, {"a": 1, "b": 0, "c": 0, "d": 0})
    assert A == Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert is_automorphism(lookup("VI0"), A)


def test_automorphism_sample_general_linear():
    A = automorphism_sample(
        "I", 0,
        {"a": 1, "b": 2, "c": 0, "d": 0, "e": 1, "f": 3, "g": 1, "h": 0, "i": 1},
    )
    assert A == Matrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    assert is_automorphism(lookup("I"), A)


def test_automorphism_sample_constraint_violations():
    with pytest.raises(ConstraintError):
        automorphism_sample("III", 0, {"a": 0, "b": 0, "c": 2, "d": 2})  # c == d
    with pytest.raises(ConstraintError):
        automorphism_sample("A2", 0, {"a": 0, "b": 1})
    with pytest.raises(ConstraintError):
        automorphism_sample("VI0", 0, {"a": 1, "b": -1, "c": 0, "d": 0})  # a == -b
    with pytest.raises(ConstraintError):
        automorphism_sample("II", 0, {"a": 0, "b": 1, "c": 1, "d": 0, "e": 1, "f": 1})
    with pytest.raises(ConstraintError):
        automorphism_sample("III", 0, {"a": 0, "b": 0, "c": 2})  # missing parameter
    with pytest.raises(CatalogError):
        automorphism_sample("VIII", 0, {})  # predicate-only row


def test_automorphism_sample_bad_branch():
    with pytest.raises(CatalogError):
        automorphism_sample("III", 1, {"a": 0, "b": 0, "c": 2, "d": 1})


@pytest.mark.parametrize("name", [n for n in catalog_names() if n not in ("VIII", "IX")])
def test_families_validate_on_samples(name, rng):
    g = lookup(name, 2) if name in ("VIa", "VIIa") else lookup(name)
    fam = automorphism_family(name)
    samples = automorphism_samples(name, count=5)
    assert len(samples) >= 5 * len(fam.branches)
    check_against_matrix_oracle(g, samples, rng)


@pytest.mark.parametrize("name", ["VIII", "IX"])
def test_predicate_only_groups(name, rng):
    g = lookup(name)
    fam = automorphism_family(name)
    assert fam.predicate_only
    samples = automorphism_samples(name)
    assert len(samples) >= 5
    check_against_matrix_oracle(g, samples, rng)


def test_parametrized_family_samples_are_parameter_independent():
    for a in (Fraction(1, 2), Fraction(3)):
        g = lookup("VIa", a)
        for A in automorphism_samples("VIa", count=5):
            assert is_automorphism(g, A)


def test_transposed_membership():
    g = lookup("A2")
    A = Matrix([[2, 0], [3, 1]])
    assert is_transposed_automorphism(g, A.transpose())
    assert not is_transposed_automorphism(g, Matrix([[0, 1], [1, 0]]))


def test_automorphism_samples_deterministic():
    assert automorphism_samples("III", count=5) == automorphism_samples("III", count=5)
    assert automorphism_samples("VIII") == automorphism_samples("VIII")
