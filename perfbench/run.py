"""Benchmark of the jacobilie library: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: each operation starts when the previous
one has returned.  A pass runs the workload's whole operation list; passes
repeat while the timed seconds are expected to stay within ``--seconds`` (at
least one pass).  Every output is checked against its known answer after its
pass, outside the timed region.  ``--workload all`` runs each workload in a fresh process, one at a
time, and prints every metric.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
untraced, one traced and one ``cProfile``-profiled pass instead.  A summary
with provenance, draw composition and all metrics is also written to
``perfbench/out/``, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("table-sweep", "step1-enumerate", "witness-search", "dual-identify")
SETUP_REPEATS = 9
P90_MIN_OPS = 100

# what every CLI invocation pays before doing work
SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import jacobilie
jacobilie.load_table_rows()
for name in jacobilie.catalog_names():
    jacobilie.lookup(name, 2 if name in ("VIa", "VIIa") else None)
print(time.perf_counter() - t0)
print(jacobilie.__file__)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def commit() -> str:
    """The checked-out commit; git is pointed at the checkout's own .git so
    that it does not search the directories above it."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sys_flags": {name: getattr(sys.flags, name) for name in sys.flags.__match_args__},
    }


def measure_setup() -> list[float]:
    """Fresh-process set-up times, each timed inside its own interpreter."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC):
            fail(f"set-up imported jacobilie from {path}, not from {SRC}")
        times.append(float(seconds))
    return times


def run_pass(ops, call=None):
    """Run every operation once; return (pass seconds, latencies, outputs)."""
    latencies, outputs = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.call() if call is None else call(i, op.call)
        except Exception as exc:  # a raised exception is judged by the gate
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - t_pass, latencies, outputs


class Gate:
    """Judges every output of every pass right after the pass, outside the
    timed region, so that no pass's outputs are kept and peak memory does not
    grow with the number of passes."""

    def __init__(self, workloads_mod, ops) -> None:
        self.wl = workloads_mod
        self.ops = ops
        self.counts = {workloads_mod.OK: 0, workloads_mod.UNANSWERED: 0, workloads_mod.WRONG: 0}
        self.wrong: list[str] = []

    def judge_pass(self, outputs) -> None:
        for op, out in zip(self.ops, outputs):
            verdict = self.wl.judge(op, out)
            self.counts[verdict] += 1
            if verdict == self.wl.WRONG and len(self.wrong) < 20:
                self.wrong.append(f"{op.label}: {out!r}"[:300])


def gated_pass(gate: Gate, call=None) -> tuple[float, list[float]]:
    """One pass, judged right after it; its outputs are then dropped."""
    wall, latencies, outputs = run_pass(gate.ops, call)
    gate.judge_pass(outputs)
    return wall, latencies


def end_to_end(workload, setup, passes, counts) -> tuple[dict, dict]:
    """The end-to-end metrics, and the report that adds op_p90_ms and failed_ratio."""
    n_ops = len(workload.ops)
    walls = [p[0] for p in passes]
    lat = [x for p in passes for x in p[1]]
    attempted = n_ops * len(passes)
    failed_ratio = (counts["unanswered"] + counts["wrong"]) / attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes of {n_ops} operations"),
        "ops_per_s": (attempted / sum(walls), "1/s", f"{attempted} operations in {sum(walls):.2f} s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"{len(lat)} samples"),
        "ok_ratio": (1.0 - failed_ratio, "ratio", "1 - failed_ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
    }
    report = dict(metrics)
    if n_ops >= P90_MIN_OPS:
        report["op_p90_ms"] = (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms", f"{len(lat)} samples")
    else:
        report["op_p90_ms"] = (None, "ms", f"not reported: {n_ops} operations per pass < {P90_MIN_OPS}")
    report["failed_ratio"] = (failed_ratio, "ratio", f"{counts['wrong']} wrong + {counts['unanswered']} unanswered of {attempted}")
    return metrics, report


def per_layer(gate: Gate) -> tuple[dict, list, object]:
    """Per-layer metrics from an untraced, a traced and a profiled pass of the
    gate's operations."""
    profile = cProfile.Profile(builtins=False)

    def profiled_call(_, call):
        profile.enable()
        try:
            return call()
        finally:
            profile.disable()

    tracer = layers.Tracer()
    untraced = gated_pass(gate)
    with tracer:
        wall, latencies, outputs = run_pass(gate.ops, tracer.run_op)
    # judged once the wrappers are gone, so the gate's own calls are not counted
    gate.judge_pass(outputs)
    traced = (wall, latencies)
    del outputs
    passes = [untraced, traced, gated_pass(gate, profiled_call)]
    fraction_ops, fraction_self_s = layers.fraction_counts(pstats.Stats(profile))
    values = tracer.layer_metrics()
    values["arith.fraction_ops"] = fraction_ops
    values["arith.fraction_self_s"] = fraction_self_s
    values["trace.overhead_ratio"] = traced[0] / untraced[0]

    def unit(name: str) -> str:
        return "count" if name.endswith((".calls", "_ops")) else "s" if name.endswith("_s") else "ratio"

    metrics = {name: (values[name], unit(name), "") for name in sorted(values)}
    return metrics, passes, tracer


def run_one(args) -> int:
    if not (SRC / "jacobilie" / "__init__.py").is_file():
        fail(f"no jacobilie sources under {SRC}")
    setup = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import jacobilie
    import workloads as workloads_mod

    if not Path(jacobilie.__file__).resolve().is_relative_to(SRC):
        fail(f"imported jacobilie from {jacobilie.__file__}, not from {SRC}")
    workload = workloads_mod.WORKLOADS[args.workload](args.seed)
    gate = Gate(workloads_mod, workload.ops)
    run_pass(workload.warmup)
    if args.trace:
        metrics, passes, tracer = per_layer(gate)
        report = metrics
        tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.tsv.gz", [op.label for op in workload.ops])
    else:
        passes = []
        while not passes or sum(p[0] for p in passes) + statistics.median(p[0] for p in passes) <= args.seconds:
            passes.append(gated_pass(gate))
        metrics, report = end_to_end(workload, setup, passes, gate.counts)
    attempted = len(workload.ops) * len(passes)
    result = {
        "correct": gate.counts["wrong"] == 0,
        "attempted": attempted,
        "failed": gate.counts["wrong"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    summary = {
        "workload": workload.name,
        "provenance": provenance(args),
        "composition": workload.composition,
        "pass_s": [p[0] for p in passes],
        "op_median_ms": {
            op.label: statistics.median(p[1][i] for p in passes) * 1e3 for i, op in enumerate(workload.ops)
        },
        "outcomes": gate.counts,
        "wrong": gate.wrong,
        "report": {name: {"value": v, "unit": u, "note": note} for name, (v, u, note) in report.items()},
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n", "utf-8")
    print(f"# workload {workload.name}: {len(workload.ops)} operations per pass, {len(passes)} passes")
    print(f"# provenance {json.dumps(summary['provenance'], sort_keys=True)}")
    print(f"# composition {json.dumps(workload.composition, sort_keys=True)}")
    print(f"# outcomes {json.dumps(gate.counts, sort_keys=True)}")
    for line in gate.wrong:
        print(f"# WRONG {line}")
    for name, (value, unit, note) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload.name:16s} {name:44s} {shown:>12s} {unit:6s} {note}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        fail("refusing to run under -O or PYTHONOPTIMIZE: the library's soundness checks are asserts")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
