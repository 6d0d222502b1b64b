"""Classification driver: dual-solution systems, the two-dimensional
classification, transformation matrices, reduction to non-equivalent
representatives, and verification sweeps over the bundled tables.

Step 1 solves the defining matrix equations for the dual unknowns.  The full
symbolic solve is implemented for dimension 2 only, where the system in six
unknowns splits into a finite union of affine one-parameter families; for
dimension 3 the driver runs in guided mode (the bundled table rows are
confirmed by exact verification, and a grid enumeration exists for
exploration).  Step 2 produces the basis-transformation matrix carrying the
catalog form of the dual onto the solved form.  Step 3 reduces candidate
families modulo the automorphism search, logging every Unknown verdict.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction

from .bialgebra import (
    JacobiLieBialgebra,
    SoundnessCheckError,
    cocycle_phi0_residual,
    cocycle_x0_residual,
    compatibility_residual,
    mixed_residual,
    orthogonality_residual,
    verify,
)
from .catalog import CatalogError, LieAlgebra, automorphism_sample, automorphism_samples, lookup
from .equivalence import (
    DualIdentification,
    SearchRegion,
    identify_dual,
    search_witness,
)
from .exprs import eval_predicate
from .linalg import Matrix, Vector, as_fraction, format_fraction
from .structure import StructureTensor, adjoint_x, jacobi_residual
from .tables import FAMILY_SAMPLES, SCALAR_SAMPLES, TableRow, load_table_rows

logger = logging.getLogger(__name__)

ENUM_VALUES_DEFAULT = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)


@dataclass(frozen=True)
class UnknownAssignment:
    """A concrete assignment of the Step-1 unknowns: dual constants plus the
    two cocycle component vectors."""

    gstar: StructureTensor
    alpha: Vector
    beta: Vector

    @classmethod
    def from_free_entries(cls, dim: int, dual_values, alpha, beta) -> "UnknownAssignment":
        """Dual entries ordered by pairs (i<j) lexicographically, then k."""
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        values = [as_fraction(v) for v in dual_values]
        if len(values) != len(pairs) * dim:
            raise ValueError(f"expected {len(pairs) * dim} dual entries")
        brackets = {}
        pos = 0
        for i, j in pairs:
            for k in range(dim):
                brackets[(i, j, k)] = values[pos]
                pos += 1
        return cls(StructureTensor.from_brackets(dim, brackets), Vector(alpha), Vector(beta))

    def free_entries(self) -> tuple[Fraction, ...]:
        d = self.gstar.dim
        return tuple(
            self.gstar[i, j, k]
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(d)
        )

    def as_bialgebra(self, g: LieAlgebra | StructureTensor) -> JacobiLieBialgebra:
        t = g.tensor if isinstance(g, LieAlgebra) else g
        return JacobiLieBialgebra(t, self.gstar, self.alpha, self.beta)


def residual_system(g: LieAlgebra | StructureTensor, u: UnknownAssignment) -> tuple[Fraction, ...]:
    """Concatenated exact residuals of the six matrix equations at ``u``.

    Order: dual Jacobi identity, mixed compatibility, cocycle orthogonality,
    element/form compatibility, and the two cocycle conditions, each the
    independent entries that its condition function returns (as in
    :func:`verify`): 3 + 9 + 1 + 9 + 3 + 3 = 28 entries in dimension 3,
    0 + 1 + 1 + 4 + 1 + 1 = 8 in dimension 2.  The zero vector is returned
    exactly when ``u`` is a Step-1 solution for ``g``; the early-exit form
    :func:`residual_system_is_zero` is checked against it by
    ``test_fast_zero_test_matches_full_system``.
    """
    b = u.as_bialgebra(g)
    return (
        jacobi_residual(b.gstar)
        + mixed_residual(b)
        + (orthogonality_residual(b),)
        + compatibility_residual(b)
        + cocycle_x0_residual(b)
        + cocycle_phi0_residual(b)
    )


def residual_system_is_zero(g: LieAlgebra | StructureTensor, u: UnknownAssignment) -> bool:
    """Early-exit zero test of the same system: the same condition
    functions, cheapest first, stopping at the first nonzero condition."""
    b = u.as_bialgebra(g)
    if orthogonality_residual(b) != 0:
        return False
    for condition in (
        cocycle_x0_residual,
        cocycle_phi0_residual,
        compatibility_residual,
        mixed_residual,
    ):
        if any(condition(b)):
            return False
    return not any(jacobi_residual(b.gstar))


def enumerate_zeros(
    g: LieAlgebra | StructureTensor,
    values: tuple[Fraction, ...] = ENUM_VALUES_DEFAULT,
    limit: int | None = None,
) -> list[UnknownAssignment]:
    """Exploration mode: all Step-1 solutions on a finite value grid.

    Exhaustive over ``values`` per unknown; practical for dimension 2 (six
    unknowns).  For dimension 3 (fifteen unknowns) pass a very small value
    set or a limit.  Orthogonality and the phi0 cocycle depend on the
    cocycle vectors alone and are checked once per pair of them; the x0
    cocycle says that alpha annihilates every dual bracket, so each bracket
    is drawn only from the grid vectors that alpha annihilates.  The full
    test runs on the remaining candidates, in the order of the full grid.
    """
    t = g.tensor if isinstance(g, LieAlgebra) else g
    d = t.dim
    n_pairs = d * (d - 1) // 2
    grid = [Vector(row) for row in itertools.product(values, repeat=d)]
    no_dual = StructureTensor.zero(d)
    out: list[UnknownAssignment] = []
    for alpha, beta in itertools.product(grid, repeat=2):
        b = JacobiLieBialgebra(t, no_dual, alpha, beta)
        if orthogonality_residual(b) != 0 or any(cocycle_phi0_residual(b)):
            continue
        brackets = [row for row in grid if alpha.dot(row) == 0]
        for dual in itertools.product(brackets, repeat=n_pairs):
            u = UnknownAssignment.from_free_entries(
                d, [x for row in dual for x in row], alpha, beta
            )
            if residual_system_is_zero(t, u):
                out.append(u)
                if limit is not None and len(out) >= limit:
                    return out
    return out


# ---------------------------------------------------------------------------
# two-dimensional classification
# ---------------------------------------------------------------------------

_AFFINE = tuple[Fraction, Fraction]  # value = const + coeff * t


def _affine(c, k=0) -> _AFFINE:
    return (as_fraction(c), as_fraction(k))


def _affine_eval(a: _AFFINE, t: Fraction | None) -> Fraction:
    const, coeff = a
    if coeff != 0 and t is None:
        raise ValueError("family requires a parameter value")
    return const + (coeff * t if coeff != 0 else Fraction(0))


def _affine_text(a: _AFFINE, param: str) -> str:
    const, coeff = a
    if coeff == 0:
        return format_fraction(const)
    tpart = param if coeff == 1 else ("-" + param if coeff == -1 else f"{format_fraction(coeff)}*{param}")
    if const == 0:
        return tpart
    sign = "+" if coeff > 0 else "-"
    mag = tpart.lstrip("-")
    return f"{format_fraction(const)} {sign} {mag}"


@dataclass(frozen=True)
class SolutionFamily:
    """One emitted solution family: entries affine in a single parameter."""

    g_name: str
    param: str | None  # None for isolated representatives
    dual_entries: tuple[tuple[int, int, int, _AFFINE], ...]  # i<j
    alpha: tuple[_AFFINE, ...]
    beta: tuple[_AFFINE, ...]
    constraints: tuple[str, ...] = ()
    witness_values: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(-1))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def admissible(self, t: Fraction | None) -> bool:
        if self.param is None:
            return t is None or t == 0
        if t is None:
            return False
        return all(eval_predicate(c, {self.param: t}) for c in self.constraints)

    def instantiate(self, t: Fraction | None = None) -> UnknownAssignment:
        if self.param is not None and t is None:
            raise ValueError("parametrized family requires a value")
        d = self.dim
        brackets = {
            (i, j, k): _affine_eval(a, t) for i, j, k, a in self.dual_entries
        }
        return UnknownAssignment(
            StructureTensor.from_brackets(d, brackets),
            Vector(_affine_eval(a, t) for a in self.alpha),
            Vector(_affine_eval(a, t) for a in self.beta),
        )

    def sample_values(self) -> tuple[Fraction | None, ...]:
        if self.param is None:
            return (None,)
        return tuple(v for v in self.witness_values if self.admissible(v))

    def signature(self) -> tuple[bool, bool, bool]:
        """(dual is zero, alpha is zero, beta is zero): equivalence invariants."""
        t = None if self.param is None else self.sample_values()[0]
        u = self.instantiate(t)
        return (u.gstar.is_zero(), u.alpha.is_zero(), u.beta.is_zero())

    def match_parameter(self, u: UnknownAssignment) -> Fraction | None:
        """Solve the family parameter a zero of the system should carry.

        Uses the per-family equivalence invariant (exact): the dual constants
        transform through the inverse-transpose conjugation and the cocycle
        vectors through A^{-t} and A, which pins the parameter listed below
        for each emitted family.  Returns None if the family is unparametrized
        or the zero cannot carry an admissible value.
        """
        if self.param is None:
            return None
        d = self.dim
        x, y = (u.gstar[0, 1, k] for k in range(2)) if d == 2 else (None, None)
        if self.g_name == "A2":
            if not u.beta.is_zero():
                t = u.beta[1]
            else:
                t = x
        else:  # A1 families
            if x == 0 and y == 0:
                return None
            # alpha is proportional to (-y, x); the factor is the parameter
            t = u.alpha[1] / x if x != 0 else -u.alpha[0] / y
        return t if self.admissible(t) else None


@dataclass(frozen=True)
class ClassificationRow:
    """Human-readable emitted row plus its instantiable family."""

    g_name: str
    gstar_label: str
    gstar_relations: tuple[str, ...]
    x0: str
    phi0: str
    constraints: tuple[str, ...]
    family: SolutionFamily

    def describe(self) -> str:
        rel = "; ".join(self.gstar_relations) if self.gstar_relations else "abelian"
        parts = [
            f"g = {self.g_name}",
            f"g* = {self.gstar_label} ({rel})",
            f"x0 = {self.x0}",
            f"phi0 = {self.phi0}",
        ]
        if self.constraints:
            parts.append("where " + ", ".join(self.constraints))
        return "; ".join(parts)


def _family_relations(fam: SolutionFamily) -> tuple[str, ...]:
    d = fam.dim
    by_pair: dict[tuple[int, int], list[str]] = {}
    for i, j, k, a in fam.dual_entries:
        if a == (0, 0):
            continue
        txt = _affine_text(a, fam.param or "t")
        if txt == "1":
            term = f"y{k + 1}"
        elif txt == "-1":
            term = f"-y{k + 1}"
        else:
            wrapped = txt if ("+" not in txt and "-" not in txt.lstrip("-")) else f"({txt})"
            term = f"{wrapped}*y{k + 1}"
        by_pair.setdefault((i, j), []).append(term)
    return tuple(
        f"[y{i + 1},y{j + 1}] = " + " + ".join(terms).replace("+ -", "- ")
        for (i, j), terms in sorted(by_pair.items())
    )


def _family_cocycle_text(entries: tuple[_AFFINE, ...], param: str | None, symbol: str) -> str:
    parts = []
    for k, a in enumerate(entries):
        if a == (0, 0):
            continue
        txt = _affine_text(a, param or "t")
        name = f"{symbol}{k + 1}"
        if txt == "1":
            parts.append(name)
        elif txt == "-1":
            parts.append(f"-{name}")
        else:
            wrapped = txt if ("+" not in txt and "-" not in txt.lstrip("-")) else f"({txt})"
            parts.append(f"{wrapped}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _dual_label(g_name: str, fam: SolutionFamily, counters: dict[tuple[str, str], int],
                seen: dict[tuple, str]) -> str:
    """Catalog name of the dual, with a variant suffix when the emitted
    presentation differs from the catalog's own presentation."""
    t0 = None if fam.param is None else fam.sample_values()[0]
    u = fam.instantiate(t0)
    ident = identify_dual(u.gstar)
    base = ident.name
    constant = all(a[1] == 0 for _, _, _, a in fam.dual_entries)
    if constant and u.gstar == lookup(ident.name, ident.param).tensor:
        return base
    key = (g_name, base, tuple(fam.dual_entries))
    if key in seen:
        return seen[key]
    counters[(g_name, base)] = counters.get((g_name, base), 0) + 1
    n = counters[(g_name, base)]
    numerals = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")
    label = f"{base}.{numerals[n - 1]}"
    seen[key] = label
    return label


def _a1_families() -> list[SolutionFamily]:
    z = _affine(0)
    one = _affine(1)
    t = _affine(0, 1)
    no_dual = ()
    a2_dual = ((0, 1, 0, one), (0, 1, 1, z))
    return [
        SolutionFamily("A1", None, no_dual, (z, z), (z, z)),
        SolutionFamily("A1", None, no_dual, (one, one), (z, z)),
        SolutionFamily("A1", None, no_dual, (z, z), (one, one)),
        SolutionFamily("A1", None, no_dual, (z, one), (one, z)),
        SolutionFamily("A1", None, a2_dual, (z, z), (z, z)),
        SolutionFamily("A1", "t", a2_dual, (z, t), (z, z), ("t != 0",)),
    ]


def _a2_families() -> list[SolutionFamily]:
    z = _affine(0)
    one = _affine(1)
    t = _affine(0, 1)
    neg_t = _affine(0, -1)
    return [
        SolutionFamily("A2", None, (), (z, z), (z, z)),
        SolutionFamily("A2", None, ((0, 1, 0, z), (0, 1, 1, one)), (z, z), (z, z)),
        SolutionFamily("A2", "t", ((0, 1, 0, t), (0, 1, 1, z)), (z, z), (z, z), ("t != 0",)),
        SolutionFamily("A2", "t", (), (z, z), (z, t), ("t != 0",)),
        SolutionFamily(
            "A2", "t", ((0, 1, 0, z), (0, 1, 1, one)), (neg_t, z), (z, t), ("t != 0",)
        ),
    ]


@dataclass(frozen=True)
class ClassificationResult:
    rows: tuple[ClassificationRow, ...]
    unknown_log: tuple[str, ...]  # Unknown verdicts met while reducing


def step3_reduce(
    g: LieAlgebra,
    families: list[SolutionFamily],
    region: SearchRegion | None = None,
) -> tuple[list[SolutionFamily], list[str]]:
    """Reduce candidate families modulo the automorphism witness search.

    Exact duplicates and families whose sampled instances are all pairwise
    equivalent collapse to the first representative.  The search is sound but
    incomplete, so families with Unknown verdicts are kept distinct and the
    verdicts logged ("presumed distinct", never "proved distinct").
    """
    region = region or SearchRegion()
    kept: list[SolutionFamily] = []
    log: list[str] = []
    for fam in families:
        merged = False
        for prev in kept:
            if prev == fam:
                merged = True
                break
            if prev.signature() != fam.signature():
                continue
            verdicts = []
            for t in fam.sample_values():
                u = fam.instantiate(t)
                tprev = prev.match_parameter(u) if prev.param else None
                if prev.param is not None and tprev is None:
                    verdicts.append(None)
                    continue
                b1 = u.as_bialgebra(g)
                b2 = prev.instantiate(tprev).as_bialgebra(g)
                verdict = search_witness(b1, b2, region)
                verdicts.append(verdict if verdict.equivalent else None)
                if not verdict.equivalent:
                    log.append(
                        f"Unknown: {g.name} candidate at {t} vs earlier family "
                        f"(searched {verdict.searched})"
                    )
            if verdicts and all(v is not None for v in verdicts):
                merged = True
                break
        if not merged:
            kept.append(fam)
    for line in log:
        logger.info(line)
    return kept, log


def classify_d2(g: LieAlgebra | str, region: SearchRegion | None = None) -> ClassificationResult:
    """Classification of the Step-1 solution variety for a 2D catalog algebra.

    The six-unknown system is bilinear; eliminating the conditions that are
    linear in the dual constants for each zero pattern of the cocycle vectors
    yields a finite union of affine one-parameter families, normalized modulo
    the automorphism group.  Every emitted family is confirmed by
    :func:`residual_system_is_zero` at its witness values (a failure raises
    :class:`SoundnessCheckError`), then reduced through :func:`step3_reduce`.
    """
    alg = lookup(g) if isinstance(g, str) else g
    if alg.dim != 2:
        raise CatalogError("full classification is implemented for dimension 2 only")
    if alg.tensor.is_zero():
        families = _a1_families()
    elif alg.tensor == lookup("A2").tensor:
        families = _a2_families()
    else:
        raise CatalogError("classification expects a catalog presentation (A1 or A2)")
    for fam in families:
        for t in fam.sample_values():
            if not residual_system_is_zero(alg.tensor, fam.instantiate(t)):
                raise SoundnessCheckError(
                    f"{alg.name} family {fam} is not a Step-1 solution at {t}"
                )
    kept, log = step3_reduce(alg, families, region)
    rows = []
    counters: dict[tuple[str, str], int] = {}
    seen: dict[tuple, str] = {}
    for fam in kept:
        label = _dual_label(alg.name, fam, counters, seen)
        rows.append(
            ClassificationRow(
                g_name=alg.name,
                gstar_label=label,
                gstar_relations=_family_relations(fam),
                x0=_family_cocycle_text(fam.alpha, fam.param, "x"),
                phi0=_family_cocycle_text(fam.beta, fam.param, "y"),
                constraints=fam.constraints,
                family=fam,
            )
        )
    return ClassificationResult(tuple(rows), tuple(log))


# ---------------------------------------------------------------------------
# step 2: transformation matrices
# ---------------------------------------------------------------------------

def step2_equation_residual(
    gstar: StructureTensor,
    target: LieAlgebra | StructureTensor,
    A: Matrix,
    B: Matrix,
) -> tuple[Matrix, ...]:
    """Residual of the transformation-matrix equation for B.

    For each index i the equation equates the A-conjugated transposed dual
    adjoints with the B-conjugated transposed target adjoints:

        sum_m (A^-t)[i,m] S~m^t A^-1  ==  (B^t A)^-1 (sum_k B[i,k] T_k^t) B^t

    where S~ are the adjoints of the solved dual and T those of the catalog
    target.  All d matrices vanish iff B solves the step-2 equation at A.
    """
    t = target.tensor if isinstance(target, LieAlgebra) else target
    d = gstar.dim
    Ai = A.inverse()
    Ait = Ai.transpose()
    Bt = B.transpose()
    middle_inv = (Bt * A).inverse()
    S = adjoint_x(gstar)
    T = adjoint_x(t)
    out = []
    for i in range(d):
        lhs = Matrix.zero(d)
        for m in range(d):
            c = Ait[i, m]
            if c != 0:
                lhs = lhs + S[m].transpose().scale(c)
        lhs = lhs * Ai
        rhs = Matrix.zero(d)
        for k in range(d):
            c = B[i, k]
            if c != 0:
                rhs = rhs + T[k].transpose().scale(c)
        rhs = middle_inv * rhs * Bt
        out.append(lhs - rhs)
    return tuple(out)


@dataclass(frozen=True)
class StepTwoSample:
    assignment: dict
    automorphism: Matrix
    b_matrix: Matrix
    det_b: Fraction


@dataclass(frozen=True)
class StepTwoResult:
    identification: DualIdentification
    branch: int
    samples: tuple[StepTwoSample, ...]


def step2_matrix_b(
    g: LieAlgebra,
    gstar_solution: StructureTensor,
    assignments: list[dict] | None = None,
    identification: DualIdentification | None = None,
    branch: int = 0,
) -> StepTwoResult:
    """Exact transformation matrices B at sampled automorphisms of g.

    The dual solution is identified against the catalog first (change of
    basis C); at each sampled automorphism A the matrix B = A^-t C^-1 solves
    the step-2 equation exactly with det B != 0, which is re-checked through
    :func:`step2_equation_residual` before the sample is returned (a failure
    raises :class:`SoundnessCheckError`).  Identification
    failure is reported as :class:`NoCatalogMatch` (for a solvable dual there
    is then no invertible rational B toward any catalog target; see
    :func:`identify_dual`).
    """
    ident = identification or identify_dual(gstar_solution)
    target = lookup(ident.name, ident.param)
    c_inv = ident.change_of_basis.inverse()
    samples = []
    if assignments is None:
        mats = automorphism_samples(g.name)
        assignments_list: list[tuple[dict, Matrix]] = [({}, A) for A in mats]
    else:
        assignments_list = [
            (dict(a), automorphism_sample(g.name, branch, a)) for a in assignments
        ]
    for assignment, A in assignments_list:
        B = A.inverse().transpose() * c_inv
        residuals = step2_equation_residual(gstar_solution, target, A, B)
        if not all(r.is_zero() for r in residuals):
            raise SoundnessCheckError("constructed B fails the step-2 equation")
        det_b = B.det()
        if det_b == 0:
            raise SoundnessCheckError("constructed B is singular")
        samples.append(StepTwoSample(assignment, A, B, det_b))
    return StepTwoResult(ident, branch, tuple(samples))


# ---------------------------------------------------------------------------
# table verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowVerification:
    row: TableRow
    passed: tuple[dict, ...]
    failed: tuple[tuple[dict, object], ...]  # (assignment, VerificationReport)
    skipped: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failed and bool(self.passed)


@dataclass(frozen=True)
class TableVerification:
    results: tuple[RowVerification, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        by_table: dict[int, list[RowVerification]] = {}
        for r in self.results:
            by_table.setdefault(r.row.table, []).append(r)
        parts = []
        for t in sorted(by_table):
            rows = by_table[t]
            good = sum(1 for r in rows if r.ok)
            parts.append(f"table {t}: {good}/{len(rows)} rows pass")
        return "; ".join(parts)


def verify_tables(
    rows: tuple[TableRow, ...] | None = None,
    table: int | None = None,
    family_values: tuple[Fraction, ...] = FAMILY_SAMPLES,
    scalar_values: tuple[Fraction, ...] = SCALAR_SAMPLES,
) -> TableVerification:
    """Verify every table row at every admissible parameter sample.

    Inadmissible samples (constraint violations, e.g. excluded parameter
    combinations) are skipped and logged, not failed.  A row passes when at
    least one sample was admissible and every admissible sample verified with
    all residuals exactly zero.
    """
    if rows is None:
        rows = load_table_rows(table)
    results = []
    for row in rows:
        passed, failed, skipped = [], [], []
        for assignment, admissible in row.sample_assignments(family_values, scalar_values):
            if not admissible:
                logger.info("%s: skipping inadmissible sample %s", row.label, assignment)
                skipped.append(assignment)
                continue
            report = verify(row.instantiate(assignment))
            if report.passed:
                passed.append(assignment)
            else:
                failed.append((assignment, report))
        results.append(RowVerification(row, tuple(passed), tuple(failed), tuple(skipped)))
    return TableVerification(tuple(results))
