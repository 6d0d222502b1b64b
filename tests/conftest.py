import functools
import itertools
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


def expand_independent(entries, dim: int, groups: tuple[int, ...]) -> dict:
    """Full residual grid, as {index: value}, from its independent entries.

    ``groups`` gives the sizes of the index groups in the order of the flat
    tuple ``entries``: a group of size r > 1 is antisymmetric and runs over
    its increasing r-tuples in lexicographic order; a group of size 1 is a
    free index.  At an increasing index the value is the flat entry itself;
    at any other index it is the entry of the sorted index times the signs
    of the sorting permutations, or zero when a group repeats an index.
    """
    keys = list(
        itertools.product(*(itertools.combinations(range(dim), r) for r in groups))
    )
    assert len(entries) == len(keys)
    position = {key: p for p, key in enumerate(keys)}
    full = {}
    for index in itertools.product(range(dim), repeat=sum(groups)):
        parts, sign, start = [], 1, 0
        for r in groups:
            part = index[start:start + r]
            start += r
            if len(set(part)) < r:
                sign = 0
                break
            inversions = sum(a > b for a, b in itertools.combinations(part, 2))
            sign *= -1 if inversions % 2 else 1
            parts.append(tuple(sorted(part)))
        full[index] = sign * entries[position[tuple(parts)]] if sign else Fraction(0)
    return full


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
