"""Catalog of real 2- and 3-dimensional Lie algebras and their automorphisms.

The two-dimensional algebras are A1 (abelian) and A2 ([x1,x2] = x1); the
three-dimensional ones follow the Bianchi naming I, II, III, IV, V, VI0, VIa,
VII0, VIIa, VIII, IX.  VIa and VIIa are one-parameter families; admissibility
of the parameter is enforced on lookup.

Automorphism groups are stored as matrix templates over named rational
parameters with the normative inequality constraints attached.  For VIII and
IX no closed-form template is stored; membership is decided by the
bracket-preservation predicate alone, and rational generator samples are
provided for testing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exprs import eval_expr, eval_predicate, expr_names
from .linalg import Matrix, SingularMatrixError, Vector, as_fraction
from .structure import StructureTensor, is_lie_algebra


class CatalogError(ValueError):
    """Unknown algebra name, or a malformed catalog query."""


class ConstraintError(CatalogError):
    """A parameter assignment violates an admissibility constraint."""


class NotAutomorphismError(ValueError):
    """A matrix offered as an automorphism fails the defining relation."""


_NAME_ALIASES = {
    "A1": "A1",
    "A2": "A2",
    "I": "I",
    "II": "II",
    "III": "III",
    "IV": "IV",
    "V": "V",
    "VI0": "VI0",
    "VI_0": "VI0",
    "VIA": "VIa",
    "VI_A": "VIa",
    "VII0": "VII0",
    "VII_0": "VII0",
    "VIIA": "VIIa",
    "VII_A": "VIIa",
    "VIII": "VIII",
    "IX": "IX",
}

NAMES_2D = ("A1", "A2")
NAMES_3D = ("I", "II", "III", "IV", "V", "VI0", "VIa", "VII0", "VIIa", "VIII", "IX")
PARAMETRIC_NAMES = ("VIa", "VIIa")


def canonical_name(name: str) -> str:
    key = name.strip().replace(".", "").upper()
    try:
        return _NAME_ALIASES[key]
    except KeyError:
        raise CatalogError(f"unknown Lie algebra name {name!r}") from None


@dataclass(frozen=True)
class LieAlgebra:
    """A catalog Lie algebra: named antisymmetric tensor, optional parameter."""

    name: str
    dim: int
    tensor: StructureTensor
    param: Fraction | None = None

    def __post_init__(self):
        if not is_lie_algebra(self.tensor):
            raise CatalogError(f"{self.name}: tensor fails the Jacobi identity")


# commutation relations, 0-based (i, j, k) -> value for i < j
_BRACKETS: dict[str, dict[tuple[int, int, int], int]] = {
    "A1": {},
    "A2": {(0, 1, 0): 1},
    "I": {},
    "II": {(1, 2, 0): 1},
    "III": {(0, 1, 1): -1, (0, 1, 2): -1, (0, 2, 1): -1, (0, 2, 2): -1},
    "IV": {(0, 1, 1): -1, (0, 1, 2): 1, (0, 2, 2): -1},
    "V": {(0, 1, 1): -1, (0, 2, 2): -1},
    "VI0": {(0, 2, 1): 1, (1, 2, 0): 1},
    "VII0": {(0, 2, 1): -1, (1, 2, 0): 1},
    "VIII": {(0, 1, 2): -1, (0, 2, 1): -1, (1, 2, 0): 1},
    "IX": {(0, 1, 2): 1, (0, 2, 1): -1, (1, 2, 0): 1},
}


def _check_param(name: str, param: Fraction) -> None:
    if name == "VIa":
        if not (param > 0 and param != 1):
            raise ConstraintError("VIa requires a > 0 and a != 1")
    elif name == "VIIa":
        if not param > 0:
            raise ConstraintError("VIIa requires a > 0")


def lookup(name: str, param=None) -> LieAlgebra:
    """Return the catalog algebra with the exact tensor of its defining table.

    ``param`` is required for VIa and VIIa and rejected for every other name.
    Algebras are cached on (canonical name, exact parameter), so the Jacobi
    check of :class:`LieAlgebra` runs once per algebra; sharing the frozen
    value is safe.
    """
    cname = canonical_name(name)
    if cname in PARAMETRIC_NAMES:
        if param is None:
            raise ConstraintError(f"{cname} requires a parameter")
        a = as_fraction(param)
        _check_param(cname, a)
        return _build_algebra(cname, a)
    if param is not None:
        raise ConstraintError(f"{cname} takes no parameter")
    return _build_algebra(cname, None)


@functools.lru_cache(maxsize=256)
def _build_algebra(cname: str, a: Fraction | None) -> LieAlgebra:
    if cname == "VIa":
        brackets = {(0, 1, 1): -a, (0, 1, 2): Fraction(-1),
                    (0, 2, 1): Fraction(-1), (0, 2, 2): -a}
    elif cname == "VIIa":
        brackets = {(0, 1, 1): -a, (0, 1, 2): Fraction(1),
                    (0, 2, 1): Fraction(-1), (0, 2, 2): -a}
    else:
        brackets = _BRACKETS[cname]
    dim = 2 if cname in NAMES_2D else 3
    return LieAlgebra(cname, dim, StructureTensor.from_brackets(dim, brackets), a)


def catalog_names(dim: int | None = None) -> tuple[str, ...]:
    if dim == 2:
        return NAMES_2D
    if dim == 3:
        return NAMES_3D
    if dim is None:
        return NAMES_2D + NAMES_3D
    raise CatalogError("catalog covers dimensions 2 and 3 only")


def identify_presentation(tensor: StructureTensor) -> LieAlgebra:
    """Match a tensor exactly against the catalog presentations.

    This is an exact entry-by-entry match (the automorphism templates are tied
    to the table presentations), not an isomorphism test.  For VIa/VIIa the
    parameter is read off the (0,1,1) entry and validated.
    """
    d = tensor.dim
    for name in catalog_names(d):
        if name in PARAMETRIC_NAMES:
            a = -tensor[0, 1, 1]
            try:
                _check_param(name, a)
            except ConstraintError:
                continue
            alg = lookup(name, a)
        else:
            alg = lookup(name)
        if alg.tensor == tensor:
            return alg
    raise CatalogError("tensor does not match any catalog presentation exactly")


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismBranch:
    template: tuple[tuple[str, ...], ...]
    constraints: tuple[str, ...] = ()


@dataclass(frozen=True)
class AutomorphismFamily:
    """Parametrized matrix family; every admissible sample is an automorphism.

    ``predicate_only`` marks VIII and IX, whose groups are stored as the
    defining predicate rather than a closed-form template.
    """

    algebra: str
    params: tuple[str, ...]
    branches: tuple[AutomorphismBranch, ...]
    predicate_only: bool = False

    def n_params(self) -> int:
        return len(self.params)


_FAMILIES: dict[str, AutomorphismFamily] = {
    "A1": AutomorphismFamily(
        "A1",
        ("a", "b", "c", "d"),
        (AutomorphismBranch((("a", "b"), ("c", "d"))),),
    ),
    "A2": AutomorphismFamily(
        "A2",
        ("a", "b"),
        (AutomorphismBranch((("a", "0"), ("b", "1")), ("a != 0",)),),
    ),
    "I": AutomorphismFamily(
        "I",
        ("a", "b", "c", "d", "e", "f", "g", "h", "i"),
        (AutomorphismBranch((("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i"))),),
    ),
    "II": AutomorphismFamily(
        "II",
        ("a", "b", "c", "d", "e", "f"),
        (
            AutomorphismBranch(
                (("b*f - c*e", "0", "0"), ("a", "b", "c"), ("d", "e", "f")),
                ("b*f != c*e",),
            ),
        ),
    ),
    "III": AutomorphismFamily(
        "III",
        ("a", "b", "c", "d"),
        (
            AutomorphismBranch(
                (("1", "a", "b"), ("0", "c", "d"), ("0", "d", "c")),
                ("c != d", "c != -d"),
            ),
        ),
    ),
    "IV": AutomorphismFamily(
        "IV",
        ("a", "b", "c", "d"),
        (
            AutomorphismBranch(
                (("1", "a", "b"), ("0", "c", "d"), ("0", "0", "c")),
                ("c != 0",),
            ),
        ),
    ),
    "V": AutomorphismFamily(
        "V",
        ("a", "b", "c", "d", "e", "f"),
        (
            AutomorphismBranch(
                (("1", "a", "b"), ("0", "c", "d"), ("0", "e", "f")),
                ("c*f != e*d",),
            ),
        ),
    ),
    "VI0": AutomorphismFamily(
        "VI0",
        ("a", "b", "c", "d"),
        (
            AutomorphismBranch(
                (("a", "b", "0"), ("b", "a", "0"), ("c", "d", "1")),
                ("a != b", "a != -b"),
            ),
            AutomorphismBranch(
                (("a", "b", "0"), ("-b", "-a", "0"), ("c", "d", "-1")),
                ("a != b", "a != -b"),
            ),
        ),
    ),
    "VIa": AutomorphismFamily(
        "VIa",
        ("b", "c", "d", "e"),
        (
            AutomorphismBranch(
                (("1", "b", "c"), ("0", "d", "e"), ("0", "e", "d")),
                ("d != e", "d != -e"),
            ),
        ),
    ),
    "VII0": AutomorphismFamily(
        "VII0",
        ("a", "b", "c", "d"),
        (
            AutomorphismBranch(
                (("a", "b", "0"), ("-b", "a", "0"), ("c", "d", "1")),
                ("a*a + b*b != 0",),
            ),
            AutomorphismBranch(
                (("a", "b", "0"), ("b", "-a", "0"), ("c", "d", "-1")),
                ("a*a + b*b != 0",),
            ),
        ),
    ),
    "VIIa": AutomorphismFamily(
        "VIIa",
        ("b", "c", "d", "e"),
        (
            AutomorphismBranch(
                (("1", "b", "c"), ("0", "d", "-e"), ("0", "e", "d")),
                ("d*d + e*e != 0",),
            ),
        ),
    ),
    "VIII": AutomorphismFamily("VIII", (), (), predicate_only=True),
    "IX": AutomorphismFamily("IX", (), (), predicate_only=True),
}


def automorphism_family(name: str) -> AutomorphismFamily:
    return _FAMILIES[canonical_name(name)]


def is_automorphism(g: LieAlgebra | StructureTensor, A: Matrix) -> bool:
    """Exact automorphism test for the bracket of ``g``.

    Evaluates ``[A_i, A_j] == A^t f_ij`` (the index relation
    ``A_i^m f_mn^k A_j^n == f_ij^l A_l^k``) for rows i < j of A with
    :meth:`StructureTensor.bracket`, stopping at the first failing pair.  Its
    matrix form ``A Y^k A^t == sum_i A_i^k Y^i`` is the oracle of
    ``test_families_validate_on_samples`` and ``test_predicate_only_groups``
    (``tests/test_catalog.py``).  A singular matrix is an error, never False.
    """
    t = g.tensor if isinstance(g, LieAlgebra) else g
    d = t.dim
    if A.dim != d:
        raise ValueError("matrix dimension does not match the algebra")
    if A.det() == 0:
        raise SingularMatrixError("candidate automorphism is singular")
    At = A.transpose()
    return all(
        t.bracket(A.row(i), A.row(j)) == At * Vector(t.entries[i][j])
        for i in range(d)
        for j in range(i + 1, d)
    )


def is_transposed_automorphism(g: LieAlgebra | StructureTensor, M: Matrix) -> bool:
    """Membership in the transposed automorphism group: M^t preserves brackets."""
    return is_automorphism(g, M.transpose())


def automorphism_sample(name: str, branch: int, assignment) -> Matrix:
    """Instantiate one member of an automorphism family.

    Raises ConstraintError when the assignment violates the family's
    admissibility predicates, SingularMatrixError when the instantiated
    matrix is singular, and CatalogError for VIII/IX (predicate-only rows).
    """
    family = automorphism_family(name)
    if family.predicate_only:
        raise CatalogError(
            f"{family.algebra} has no closed-form template; use the "
            "bracket-preservation predicate"
        )
    if not (0 <= branch < len(family.branches)):
        raise CatalogError(f"{family.algebra} has {len(family.branches)} branch(es)")
    br = family.branches[branch]
    env = {k: as_fraction(v) for k, v in dict(assignment).items()}
    unknown = set(env) - set(family.params)
    if unknown:
        raise ConstraintError(f"unknown parameters {sorted(unknown)}")
    missing = set().union(
        *(expr_names(e) for row in br.template for e in row)
    ) - set(env)
    if missing:
        raise ConstraintError(f"missing parameters {sorted(missing)}")
    for predicate in br.constraints:
        if not eval_predicate(predicate, env):
            raise ConstraintError(f"constraint violated: {predicate}")
    A = Matrix([[eval_expr(e, env) for e in row] for row in br.template])
    if A.det() == 0:
        raise SingularMatrixError("sampled matrix is singular")
    return A


def _su2_style_samples(name: str) -> list[Matrix]:
    """Rational automorphism samples for the predicate-only rows VIII and IX.

    Built from exactly-rational one-parameter subgroups: the exponential of a
    nilpotent inner derivation for VIII, and rational points of the rotation
    (circle) and boost (hyperbola) subgroups.
    """
    out: list[Matrix] = []
    if name == "VIII":
        for t in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)):
            out.append(
                Matrix(
                    [
                        [1, t, t],
                        [-t, 1 - t * t / 2, -t * t / 2],
                        [t, t * t / 2, 1 + t * t / 2],
                    ]
                )
            )
        for s in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)):
            ch = (1 + s * s) / (1 - s * s)
            sh = 2 * s / (1 - s * s)
            out.append(Matrix([[1, 0, 0], [0, ch, -sh], [0, -sh, ch]]))
    else:  # IX
        for u in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(3)):
            c = (1 - u * u) / (1 + u * u)
            s = 2 * u / (1 + u * u)
            out.append(Matrix([[1, 0, 0], [0, c, s], [0, -s, c]]))
        # rotation about the third axis, same rational-circle parametrization
        for u in (Fraction(1), Fraction(-1, 2), Fraction(2, 3)):
            c = (1 - u * u) / (1 + u * u)
            s = 2 * u / (1 + u * u)
            out.append(Matrix([[c, s, 0], [-s, c, 0], [0, 0, 1]]))
    return out


_SAMPLE_POOL = (
    Fraction(1),
    Fraction(2),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(0),
    Fraction(3),
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(3, 2),
)


def automorphism_samples(name: str, count: int = 5, seed: int = 7) -> list[Matrix]:
    """Deterministic admissible samples covering every branch of a family.

    Samples are drawn from a small rational pool with a fixed-seed RNG and
    filtered by the branch constraints and invertibility, so each returned
    matrix is guaranteed to pass :func:`is_automorphism`.
    """
    cname = canonical_name(name)
    family = automorphism_family(cname)
    if family.predicate_only:
        return _su2_style_samples(cname)[: max(count, 5)]
    rng = random.Random((seed, cname).__repr__())
    out: list[Matrix] = []
    for branch in range(len(family.branches)):
        got = 0
        attempts = 0
        while got < count:
            attempts += 1
            if attempts > 10_000:
                raise CatalogError(f"could not sample branch {branch} of {cname}")
            assignment = {p: rng.choice(_SAMPLE_POOL) for p in family.params}
            try:
                A = automorphism_sample(cname, branch, assignment)
            except (ConstraintError, SingularMatrixError):
                continue
            if A not in out:
                out.append(A)
                got += 1
    return out
