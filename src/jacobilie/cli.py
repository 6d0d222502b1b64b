"""Command-line interface.

Subcommands: ``catalog``, ``verify``, ``equiv``, ``identify``, ``classify``,
``verify-tables``.  Exit codes: 0 success/pass, 1 verification failure or
unknown/no-match result, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .catalog import (
    CatalogError,
    ConstraintError,
    automorphism_family,
    catalog_names,
    lookup,
)
from .bialgebra import verify
from .classify import classify_d2, verify_tables
from .documents import DocumentError, parse_document
from .equivalence import NoCatalogMatch, SearchRegion, identify_dual, search_witness
from .linalg import SingularMatrixError, format_fraction
from .structure import format_brackets
from .tables import FAMILY_SAMPLES, SCALAR_SAMPLES

USAGE_ERROR = 2
FAILURE = 1
OK = 0


def _load_document(path: str):
    p = Path(path)
    try:
        text = p.read_text("utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    return parse_document(text, where=str(path))


def _matrix_lines(M) -> list[str]:
    return [
        "[ " + "  ".join(format_fraction(x) for x in row) + " ]" for row in M.rows
    ]


def _cmd_catalog(args) -> int:
    dims = [args.dim] if args.dim else [2, 3]
    out = []
    for d in dims:
        for name in catalog_names(d):
            if name in ("VIa", "VIIa"):
                alg = lookup(name, Fraction(2))
                suffix = " (one-parameter family; shown at a = 2)"
            else:
                alg = lookup(name)
                suffix = ""
            out.append(f"{name} (dim {d}){suffix}")
            rels = format_brackets(alg.tensor) or ["abelian"]
            for line in rels:
                out.append(f"  {line}")
            fam = automorphism_family(name)
            if fam.predicate_only:
                out.append("  automorphisms: no closed-form template; decided by the bracket predicate")
            else:
                for bi, br in enumerate(fam.branches):
                    rows = "; ".join(" ".join(r) for r in br.template)
                    cons = ", ".join(br.constraints) if br.constraints else "det != 0"
                    out.append(f"  automorphism branch {bi}: [{rows}]  where {cons}")
    print("\n".join(out))
    return OK


def _cmd_verify(args) -> int:
    doc = _load_document(args.document)
    report = verify(doc.bialgebra())
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        for cond in report.conditions:
            mark = "ok" if cond.ok else f"FAIL (max |residual| = {format_fraction(cond.residual)})"
            print(f"{cond.name:15s} {mark}")
        print("result: " + ("pass" if report.passed else "fail"))
    return OK if report.passed else FAILURE


def _cmd_equiv(args) -> int:
    if args.grid < 1:
        print("--grid must be positive", file=sys.stderr)
        return USAGE_ERROR
    doc1 = _load_document(args.document1)
    doc2 = _load_document(args.document2)
    b1, b2 = doc1.bialgebra(), doc2.bialgebra()
    if b1.g != b2.g:
        raise DocumentError("the two documents must share the same algebra g")
    region = SearchRegion(numerator_bound=args.grid)
    verdict = search_witness(b1, b2, region)
    payload = {
        "equivalent": verdict.equivalent,
        "inequivalent": verdict.inequivalent,
        "searched": verdict.searched,
        "witness": [[format_fraction(x) for x in row] for row in verdict.witness.rows]
        if verdict.witness
        else None,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif verdict.equivalent:
        print("equivalent; witness automorphism:")
        print("\n".join(_matrix_lines(verdict.witness)))
    elif verdict.inequivalent:
        print(f"inequivalent (proved: {verdict.searched})")
    else:
        print(f"unknown (searched {verdict.searched})")
    return OK if verdict.equivalent else FAILURE


def _cmd_identify(args) -> int:
    doc = _load_document(args.document)
    try:
        ident = identify_dual(doc.gstar.tensor)
    except ValueError as exc:  # a dual that fails Jacobi; main reports NoCatalogMatch
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(
            json.dumps(
                {
                    "name": ident.name,
                    "param": format_fraction(ident.param) if ident.param is not None else None,
                    "change_of_basis": [
                        [format_fraction(x) for x in row] for row in ident.change_of_basis.rows
                    ],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        param = f" (parameter {format_fraction(ident.param)})" if ident.param is not None else ""
        print(f"dual is isomorphic to {ident.name}{param}; change of basis:")
        print("\n".join(_matrix_lines(ident.change_of_basis)))
    return OK


def _cmd_classify(args) -> int:
    if args.dim != 2:
        print("classification deriving rows is implemented for --dim 2 only; "
              "dimension 3 is verification-based (see verify-tables)", file=sys.stderr)
        return USAGE_ERROR
    result = classify_d2(args.algebra)
    for row in result.rows:
        print(row.describe())
    for line in result.unknown_log:
        print(f"note: {line}")
    return OK


def _cmd_verify_tables(args) -> int:
    family_values = FAMILY_SAMPLES
    scalar_values = SCALAR_SAMPLES
    if args.samples is not None:
        if args.samples < 1:
            print("--samples must be positive", file=sys.stderr)
            return USAGE_ERROR
        family_pool = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(4))
        scalar_pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3))
        family_values = family_pool[: args.samples]
        scalar_values = scalar_pool[: args.samples]
    outcome = verify_tables(table=args.table, family_values=family_values, scalar_values=scalar_values)
    if args.json:
        payload = {
            "passed": outcome.passed,
            "rows": [
                {
                    "table": r.row.table,
                    "index": r.row.index,
                    "g": r.row.g_name,
                    "gstar": r.row.gstar_label,
                    "ok": r.ok,
                    "passed_samples": len(r.passed),
                    "failed_samples": len(r.failed),
                    "skipped_samples": len(r.skipped),
                }
                for r in outcome.results
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for r in outcome.results:
            status = "pass" if r.ok else "FAIL"
            skip = f", {len(r.skipped)} skipped" if r.skipped else ""
            print(
                f"table {r.row.table} row {r.row.index:2d} "
                f"{r.row.g_name} / {r.row.gstar_label}: {status} "
                f"({len(r.passed)} samples{skip})"
            )
            for assignment, report in r.failed:
                print(f"  failing sample {assignment}: {', '.join(report.failing())}")
        print(outcome.summary())
    return OK if outcome.passed else FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobilie",
        description="Exact verification and classification of real 2D/3D Jacobi-Lie bialgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog algebras and automorphism families")
    p.add_argument("--dim", type=int, choices=(2, 3))
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="verify a candidate document")
    p.add_argument("document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("equiv", help="decide whether two documents are equivalent")
    p.add_argument("document1")
    p.add_argument("document2")
    p.add_argument("--grid", type=int, default=3,
                   help="numerator bound of the fallback search grid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("identify", help="identify the dual of a document against the catalog")
    p.add_argument("document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("classify", help="derive the classification rows for a 2D algebra")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-tables", help="verify the bundled classification tables")
    p.add_argument("--table", type=int, choices=(4, 5, 6, 7))
    p.add_argument("--samples", type=int, help="values per continuous parameter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (DocumentError, CatalogError, ConstraintError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NoCatalogMatch as exc:
        print(f"no catalog match: {exc}", file=sys.stderr)
        return FAILURE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
