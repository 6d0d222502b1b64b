"""Self-test of the benchmark: seeded draws, exact counters, non-vacuous gates
and the refusals of ``run.py``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jacobilie as jl  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

# a few cheap operations of each workload
TINY = {
    "table-sweep": lambda op: True,
    "step1-enumerate": lambda op: op.label in ("enumerate_zeros(A2)", "classify_d2(A1)"),
    "witness-search": lambda op: op.label.startswith("A2 "),
    "dual-identify": lambda op: op.kind != "nomatch",
}


def tiny(name: str, seed: int) -> wl.Workload:
    ops = [op for op in wl.WORKLOADS[name](seed).ops if TINY[name](op)][:4]
    return wl.Workload(name, ops)


def outcomes(ops, outputs) -> list[str]:
    return [wl.judge(op, out) for op, out in zip(ops, outputs)]


class DrawTest(unittest.TestCase):
    def test_same_seed_gives_same_operations(self):
        for name, build in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = build(5), build(5)
                self.assertEqual([op.label for op in first.ops], [op.label for op in second.ops])
                self.assertEqual(first.composition, second.composition)

    def test_other_seed_changes_the_draw(self):
        for name, build in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual([op.label for op in build(5).ops], [op.label for op in build(6).ops])
        duals = [{op.label for op in wl.dual_identify(seed).ops} for seed in (5, 6)]
        self.assertNotEqual(duals[0], duals[1])

    def test_dual_draw_keeps_a_no_match_dual(self):
        kinds = [op.kind for op in wl.dual_identify(5).ops]
        self.assertEqual(kinds.count("nomatch"), 1)

    def test_reference_counts_rederive(self):
        self.assertEqual(reference.derive(), reference.load())


def exact_counts(name: str) -> dict:
    """The per-layer metrics of a tiny workload that must repeat exactly."""
    metrics, _, _ = run.per_layer(run.Gate(wl, tiny(name, 5).ops))
    return {
        k: v for k, (v, _, _) in metrics.items()
        if k.endswith((".calls", "_ops", "_ratio")) and k != "trace.overhead_ratio"
    }


class CounterTest(unittest.TestCase):
    def test_calls_and_fraction_ops_repeat_exactly(self):
        # in two processes, with different string hashing
        runs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "selftest.py"), "--counts"], capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed), timeout=600, check=True,
            )
            runs.append(json.loads(proc.stdout))
        self.assertEqual(runs[0], runs[1])
        for name in wl.WORKLOADS:
            self.assertGreater(runs[0][name]["arith.fraction_ops"], 0)


class TracedPassTest(unittest.TestCase):
    def test_gate_is_left_out_of_the_counters(self):
        # the gate re-verifies every zero and re-checks every witness and
        # change of basis; none of that may enter the program's counters
        for name in ("step1-enumerate", "witness-search", "dual-identify"):
            with self.subTest(workload=name):
                ops = tiny(name, 5).ops
                metrics, _, _ = run.per_layer(run.Gate(wl, ops))
                tracer = layers.Tracer()
                with tracer:
                    run.run_pass(ops, tracer.run_op)
                ungated = {k: v for k, v in tracer.layer_metrics().items() if k.endswith(".calls")}
                self.assertEqual({k: v for k, (v, _, _) in metrics.items() if k.endswith(".calls")}, ungated)


class GateTest(unittest.TestCase):
    def test_table_gate_counts_a_changed_constant(self):
        row = next(r for r in jl.load_table_rows(6) if r.gstar_entries)
        assignment = next(a for a, ok in row.sample_assignments() if ok)
        i, j, k, expr = row.gstar_entries[0]
        changed = dataclasses.replace(row, gstar_entries=((i, j, k, f"({expr}) + 1"),) + row.gstar_entries[1:])
        ops = [wl.table_op(row, assignment), wl.table_op(changed, assignment)]
        _, _, outputs = run.run_pass(ops)
        self.assertEqual(outcomes(ops, outputs), [wl.OK, wl.WRONG])

    def test_witness_gate_counts_a_wrong_witness(self):
        op = next(op for op in tiny("witness-search", 5).ops if op.kind == "a")
        b1, b2, verdict = op.call()
        self.assertEqual(wl.judge(op, (b1, b2, verdict)), wl.OK)
        forged = jl.EquivalenceVerdict(jl.Matrix.identity(b1.dim).scale(2), "forged")
        self.assertEqual(wl.judge(op, (b1, b2, forged)), wl.WRONG)
        singular = jl.EquivalenceVerdict(jl.Matrix.zero(b1.dim), "forged")
        self.assertEqual(wl.judge(op, (b1, b2, singular)), wl.WRONG)
        unknown = jl.EquivalenceVerdict(None, "nothing searched")
        self.assertEqual(wl.judge(op, (b1, b2, unknown)), wl.WRONG)

    def test_enumeration_gate_counts_a_wrong_zero_count(self):
        op = wl.enumerate_op("A2", None, reference.load()["zero_counts"]["A2"] - 1)
        self.assertEqual(wl.judge(op, op.call()), wl.WRONG)

    def test_dual_gate_counts_a_wrong_change_of_basis(self):
        op = next(op for op in tiny("dual-identify", 5).ops if op.kind == "cob-fast")
        gstar, ident = op.call()
        self.assertEqual(wl.judge(op, (gstar, ident)), wl.OK)
        for C in (ident.change_of_basis.scale(2), jl.Matrix.zero(gstar.dim)):
            forged = dataclasses.replace(ident, change_of_basis=C)
            self.assertEqual(wl.judge(op, (gstar, forged)), wl.WRONG)
        self.assertEqual(wl.judge(op, jl.NoCatalogMatch("gave up")), wl.UNANSWERED)
        self.assertEqual(wl.judge(op, RuntimeError("crash")), wl.WRONG)


class RefusalTest(unittest.TestCase):
    ARGS = ["--workload", "table-sweep", "--seed", "1", "--seconds", "1"]

    def refused(self, cmd, env=None, cwd=None) -> None:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_refuses_optimized_interpreter(self):
        self.refused([sys.executable, "-O", str(HERE / "run.py"), *self.ARGS])
        env = dict(os.environ, PYTHONOPTIMIZE="1")
        self.refused([sys.executable, str(HERE / "run.py"), *self.ARGS], env=env)

    def test_refuses_a_checkout_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
            self.refused([sys.executable, f"{HERE.name}/run.py", *self.ARGS], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--counts"]:
        print(json.dumps({name: exact_counts(name) for name in wl.WORKLOADS}))
    else:
        unittest.main()
