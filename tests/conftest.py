import functools
import random
from fractions import Fraction

import pytest

from jacobilie import JacobiLieBialgebra, StructureTensor, Vector, load_table_rows

ENTRY_POOL = (
    Fraction(0),
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(-3, 2),
)


def random_antisymmetric(rng: random.Random, dim: int) -> StructureTensor:
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                v = rng.choice(ENTRY_POOL)
                if v != 0:
                    brackets[(i, j, k)] = v
    return StructureTensor.from_brackets(dim, brackets)


def random_vector(rng: random.Random, dim: int) -> Vector:
    return Vector(rng.choice(ENTRY_POOL) for _ in range(dim))


def random_candidate(rng: random.Random, dim: int) -> JacobiLieBialgebra:
    return JacobiLieBialgebra(
        random_antisymmetric(rng, dim),
        random_antisymmetric(rng, dim),
        random_vector(rng, dim),
        random_vector(rng, dim),
    )


@functools.lru_cache(maxsize=None)
def table_samples() -> tuple[JacobiLieBialgebra, ...]:
    """The first admissible sample of every bundled table row (80 candidates)."""
    out = []
    for row in load_table_rows():
        assignment = next(a for a, ok in row.sample_assignments() if ok)
        out.append(row.instantiate(assignment))
    return tuple(out)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
