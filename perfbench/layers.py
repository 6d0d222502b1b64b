"""Per-layer measurement from outside the library.

``Tracer`` wraps the public functions listed in ``LAYERS`` for the duration of
one pass and times a span (name, start, end, parent, operation) for every
call.  Each wrapped name is patched in every ``jacobilie`` module that bound
it at import (``classify.verify``, ``equivalence.is_automorphism``, ...), so
internal calls are seen as well.  ``.calls`` and ``.self_s`` (span duration
minus the time covered by child spans) are derived from the spans.

``fraction_counts`` reads a ``cProfile`` profile of a separate pass and
returns the exact number of calls into ``fractions.Fraction`` arithmetic,
comparison and construction, and the profiled self time spent in
``fractions.py``.
"""

from __future__ import annotations

import fractions
import gzip
import pstats
import sys
import time
from pathlib import Path

# span name -> (module, attribute); "Class.method" patches the class attribute
LAYERS = {
    "bialgebra.verify": ("jacobilie.bialgebra", "verify"),
    "bialgebra.mixed_residual": ("jacobilie.bialgebra", "mixed_residual"),
    "bialgebra.mixed_residual_adjoint": ("jacobilie.bialgebra", "mixed_residual_adjoint"),
    "structure.jacobi_residual": ("jacobilie.structure", "jacobi_residual"),
    "structure.jacobi_residual_adjoint": ("jacobilie.structure", "jacobi_residual_adjoint"),
    "classify.enumerate_zeros": ("jacobilie.classify", "enumerate_zeros"),
    "classify.residual_system_is_zero": ("jacobilie.classify", "residual_system_is_zero"),
    "classify.classify_d2": ("jacobilie.classify", "classify_d2"),
    "classify.step3_reduce": ("jacobilie.classify", "step3_reduce"),
    "equivalence.search_witness": ("jacobilie.equivalence", "search_witness"),
    "equivalence.transform_tensor": ("jacobilie.equivalence", "transform_tensor"),
    "equivalence.identify_dual": ("jacobilie.equivalence", "identify_dual"),
    "equivalence.change_of_basis_residual": ("jacobilie.equivalence", "change_of_basis_residual"),
    "linalg.det": ("jacobilie.linalg", "Matrix.det"),
    "linalg.inverse": ("jacobilie.linalg", "Matrix.inverse"),
    "linalg.solve_affine": ("jacobilie.linalg", "solve_affine"),
    "exprs.parse": ("jacobilie.exprs", "parse_expr"),
    # values and predicates are both expression evaluations
    "exprs.eval": ("jacobilie.exprs", "eval_expr"),
    "exprs.eval_predicate": ("jacobilie.exprs", "eval_predicate"),
    "catalog.lookup": ("jacobilie.catalog", "lookup"),
    "catalog.is_automorphism": ("jacobilie.catalog", "is_automorphism"),
    "tables.instantiate": ("jacobilie.tables", "TableRow.instantiate"),
    "documents.parse_document": ("jacobilie.documents", "parse_document"),
}
SPAN_ALIASES = {"exprs.eval_predicate": "exprs.eval"}

# useful outcome of a call, for the ratios of useful outcomes over attempts
USEFUL = {
    "classify.residual_system_is_zero": lambda result: result is True,
    "equivalence.search_witness": lambda result: result.witness is not None,
    "equivalence.identify_dual": lambda result: True,  # NoCatalogMatch raises
}
RATIOS = {
    "classify.zero_hit_ratio": "classify.residual_system_is_zero",
    "equivalence.search_witness.decided_ratio": "equivalence.search_witness",
    "equivalence.identify_dual.match_ratio": "equivalence.identify_dual",
}

OP_SPAN = "op"


# hot leaf functions: counted and timed exactly, but not written out span by
# span (a witness-search pass makes millions of these calls)
UNRECORDED = {"exprs.eval", "linalg.det"}


class Tracer:
    """Span recorder for one traced pass; use as a context manager.

    Self time is accounted when each span closes: its duration minus the
    durations of its direct children.  Spans of ``UNRECORDED`` names enter
    the totals only; every other span is kept (operation, parent, name,
    start, end) and written out by ``write``.
    """

    def __init__(self) -> None:
        self.names = [OP_SPAN] + sorted({SPAN_ALIASES.get(n, n) for n in LAYERS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._recorded = [n not in UNRECORDED for n in self.names]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.useful: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [op, parent span, name, start, end]
        self._stack: list[list[int]] = []  # [name, start, child ns, span index or -1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name_id: int) -> None:
        start = time.perf_counter_ns()
        index = -1
        if self._recorded[name_id]:
            parent = next((e[3] for e in reversed(self._stack) if e[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append([self._op, parent, name_id, start, 0])
        self._stack.append([name_id, start, 0, index])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        name_id, start, child_ns, index = self._stack.pop()
        duration = end - start
        self.calls[name_id] += 1
        self.self_ns[name_id] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][4] = end

    def run_op(self, op_index: int, call):
        self._op = op_index
        self._open(0)
        try:
            return call()
        finally:
            self._close()

    def _wrap(self, span: str, fn):
        name_id = self._ids[SPAN_ALIASES.get(span, span)]
        useful = USEFUL.get(span)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if useful is not None and useful(result):
                tracer.useful[span] = tracer.useful.get(span, 0) + 1
            return result

        return traced

    # -- patching -----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "jacobilie" or n.startswith("jacobilie.")]
        for span, (module, attr) in LAYERS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[module], cls_name)
                self._patch(owner, meth, self._wrap(span, vars(owner)[meth]))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every span name, and
        the outcome ratios."""
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            if name != OP_SPAN:
                out[f"{name}.calls"] = self.calls[k]
                out[f"{name}.self_s"] = self.self_ns[k] / 1e9
        for ratio, span in RATIOS.items():
            attempts = self.calls[self._ids[span]]
            out[ratio] = self.useful.get(span, 0) / attempts if attempts else 0.0
        return out

    def write(self, path: Path, labels: list[str]) -> None:
        """Recorded spans as gzip-compressed TSV, in opening order; a span's
        parent is its nearest recorded ancestor."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (op, parent, name_id, start, end) in enumerate(self.spans):
                fh.write(f"{labels[op]}\t{i}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\n")


# fractions.py functions that are not arithmetic in their own right: the
# operator dispatchers (each operator is counted once, in its _add/_mul/...
# implementation) and the numerator/denominator properties
_NOT_ARITH = {"forward", "reverse", "numerator", "denominator"}


def fraction_counts(stats: pstats.Stats) -> tuple[int, float]:
    """(calls, profiled self seconds) into ``fractions.Fraction``."""
    calls, self_s = 0, 0.0
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.stats.items():
        if filename != fractions.__file__:
            continue
        self_s += tottime
        if func not in _NOT_ARITH:
            calls += ncalls
    return calls, self_s
