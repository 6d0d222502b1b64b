"""JSON documents describing bialgebra candidates.

Schema (all rationals are exact strings, "n" or "p/q"):

    {
      "dim": 3,
      "g": {"name": "III"}                        # catalog reference, or
           {"name": "VIa", "param": "2"}          # parametrized reference, or
           {"constants": [{"i": 1, "j": 2, "k": 2, "value": "-1"}, ...]},
      "gstar": <same shape as "g">,
      "alpha": ["0", "-1", "-1"],
      "beta": ["-2", "0", "0"]
    }

A rational is a JSON integer or a string ``-?[0-9]+(/[0-9]+)?`` with q != 0;
decimals, exponents, underscores, a leading ``+`` and surrounding whitespace
are rejected.  ``dim`` is 1, 2 or 3.  Explicit constants are 1-based with
i < j; the loader completes the j > i half by antisymmetry.  Serialization is
canonical: sorted keys, constants sorted by (i, j, k), values in lowest
terms, two-space indent, trailing newline.  Parsing then serializing a
canonically formatted document is byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .bialgebra import JacobiLieBialgebra
from .catalog import CatalogError, ConstraintError, lookup
from .linalg import Vector, format_fraction
from .structure import StructureTensor


class DocumentError(ValueError):
    """Malformed candidate document; message carries field context."""


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _parse_rational(value, where: str) -> Fraction:
    # type(...) is int: JSON true/false load as bool, a subclass of int
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise DocumentError(
                f"{where}: bad rational {value!r} (expected 'n' or 'p/q', q != 0)"
            )
        return Fraction(value)
    raise DocumentError(f"{where}: rationals must be strings like '1' or '-3/2'")


@dataclass(frozen=True)
class TensorRef:
    """Either a catalog reference or explicit constants (kept for round-trips)."""

    name: str | None
    param: Fraction | None
    constants: tuple[tuple[int, int, int, Fraction], ...] | None  # 1-based, i<j
    tensor: StructureTensor

    def as_json(self) -> dict:
        if self.name is not None:
            out: dict = {"name": self.name}
            if self.param is not None:
                out["param"] = format_fraction(self.param)
            return out
        return {
            "constants": [
                {"i": i, "j": j, "k": k, "value": format_fraction(v)}
                for i, j, k, v in self.constants
            ]
        }


def _parse_tensor_ref(obj, dim: int, where: str) -> TensorRef:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object")
    if "name" in obj:
        extra = set(obj) - {"name", "param"}
        if extra:
            raise DocumentError(f"{where}: unexpected fields {sorted(extra)}")
        param = _parse_rational(obj["param"], f"{where}.param") if "param" in obj else None
        try:
            alg = lookup(obj["name"], param)
        except (CatalogError, ConstraintError) as exc:
            raise DocumentError(f"{where}: {exc}") from None
        if alg.dim != dim:
            raise DocumentError(f"{where}: {alg.name} has dimension {alg.dim}, document says {dim}")
        return TensorRef(alg.name, alg.param, None, alg.tensor)
    if "constants" in obj:
        extra = set(obj) - {"constants"}
        if extra:
            raise DocumentError(f"{where}: unexpected fields {sorted(extra)}")
        seen = set()
        entries = []
        for pos, item in enumerate(obj["constants"]):
            w = f"{where}.constants[{pos}]"
            if not isinstance(item, dict) or set(item) != {"i", "j", "k", "value"}:
                raise DocumentError(f"{w}: expected {{i, j, k, value}}")
            i, j, k = item["i"], item["j"], item["k"]
            if not all(type(x) is int for x in (i, j, k)):
                raise DocumentError(f"{w}: indices must be integers")
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise DocumentError(
                    f"{w}: indices must satisfy 1 <= i < j <= {dim}, 1 <= k <= {dim}"
                )
            if (i, j, k) in seen:
                raise DocumentError(f"{w}: duplicate entry ({i},{j},{k})")
            seen.add((i, j, k))
            entries.append((i, j, k, _parse_rational(item["value"], f"{w}.value")))
        entries.sort(key=lambda e: e[:3])
        tensor = StructureTensor.from_brackets(
            dim, {(i - 1, j - 1, k - 1): v for i, j, k, v in entries}
        )
        return TensorRef(None, None, tuple(entries), tensor)
    raise DocumentError(f"{where}: needs either 'name' or 'constants'")


@dataclass(frozen=True)
class BialgebraDocument:
    dim: int
    g: TensorRef
    gstar: TensorRef
    alpha: Vector
    beta: Vector

    def bialgebra(self) -> JacobiLieBialgebra:
        return JacobiLieBialgebra(self.g.tensor, self.gstar.tensor, self.alpha, self.beta)

    def as_json(self) -> dict:
        return {
            "dim": self.dim,
            "g": self.g.as_json(),
            "gstar": self.gstar.as_json(),
            "alpha": [format_fraction(x) for x in self.alpha],
            "beta": [format_fraction(x) for x in self.beta],
        }


def parse_document(source: str | dict, where: str = "document") -> BialgebraDocument:
    """Parse and validate a candidate document from JSON text or a dict."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise DocumentError(f"{where}: top level must be an object")
    required = {"dim", "g", "gstar", "alpha", "beta"}
    missing = required - set(data)
    if missing:
        raise DocumentError(f"{where}: missing fields {sorted(missing)}")
    extra = set(data) - required
    if extra:
        raise DocumentError(f"{where}: unexpected fields {sorted(extra)}")
    dim = data["dim"]
    if type(dim) is not int or dim < 1:
        raise DocumentError(f"{where}.dim: must be a positive integer")
    if dim > 3:
        raise DocumentError(f"{where}.dim: must be 1, 2 or 3")
    g = _parse_tensor_ref(data["g"], dim, f"{where}.g")
    gstar = _parse_tensor_ref(data["gstar"], dim, f"{where}.gstar")
    for field in ("alpha", "beta"):
        if not isinstance(data[field], list) or len(data[field]) != dim:
            raise DocumentError(f"{where}.{field}: expected a list of {dim} rationals")
    alpha = Vector(_parse_rational(x, f"{where}.alpha[{i}]") for i, x in enumerate(data["alpha"]))
    beta = Vector(_parse_rational(x, f"{where}.beta[{i}]") for i, x in enumerate(data["beta"]))
    return BialgebraDocument(dim, g, gstar, alpha, beta)


def serialize_document(doc: BialgebraDocument) -> str:
    """Canonical JSON text: sorted keys, lowest-terms rationals, newline end."""
    return json.dumps(doc.as_json(), sort_keys=True, indent=2) + "\n"


def document_from_bialgebra(
    b: JacobiLieBialgebra,
    g_name: str | None = None,
    g_param: Fraction | None = None,
) -> BialgebraDocument:
    """Wrap a bialgebra value as a document (explicit constants unless a
    catalog name is supplied for g)."""

    def explicit(t: StructureTensor) -> TensorRef:
        entries = tuple((i + 1, j + 1, k + 1, v) for i, j, k, v in t.nonzero())
        return TensorRef(None, None, entries, t)

    if g_name is not None:
        alg = lookup(g_name, g_param)
        if alg.tensor != b.g:
            raise DocumentError("catalog reference does not match the g tensor")
        gref = TensorRef(alg.name, alg.param, None, alg.tensor)
    else:
        gref = explicit(b.g)
    return BialgebraDocument(b.dim, gref, explicit(b.gstar), b.alpha, b.beta)
