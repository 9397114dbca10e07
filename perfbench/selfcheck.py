"""Self-check of the span tracer on a few small ops of each workload.

    python3 perfbench/selfcheck.py

Checks that the wrappers reach every module namespace named below, that
each workload drives the layers it is meant to stress (and leaves idle the
ones it is meant to bypass), and that on every op the layer self times sum
to the traced time of the op.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import shutil
import sys
from collections import Counter

import run
from speed import Speedometer
import workloads
from tracer import LayerStats, Tracer, layer_of

# Names bound by `from ... import` that must be rebound, so that their time
# is charged to the defining layer and not to the caller.
REBOUND = ("iqprox.pipeline.enumerate_generators", "iqprox.pipeline.build_cone",
           "iqprox.pipeline.caratheodory_decompose", "iqprox.pipeline.contains",
           "iqprox.oracles.enumerate_lattice_points", "iqprox.oracles.enumerate_vertices",
           "iqprox.oracles.feasible_point", "iqprox.oracles.contains",
           "iqprox.cones.lp_solve", "iqprox.cli.run_pipeline")

# Layers each workload must reach, and layers it must leave idle.
BUSY = {"certify": ("cones", "exact", "simplex", "polyhedra", "pipeline"),
        "solve": ("oracles", "polyhedra", "simplex", "exact"),
        "families": ("cli", "formats", "oracles", "pipeline", "cones",
                     "polyhedra", "simplex", "exact")}
IDLE = {"certify": ("oracles", "cli", "formats"),
        "solve": ("cones", "pipeline", "cli", "formats"),
        "families": ()}


def small_ops(name: str, p) -> list:
    """Cheap ops that still cover the workload's layers."""
    if name == "families":
        # prop45 reaches one_step; its tightness op runs delta_star.
        keep = [op for op in p.ops
                if op.entry is p.mix["prop45-n2"] or op.entry is p.mix["tightness-prop45-n2"]]
        return keep[:2]
    # All n = 2 instances: on some the anchors coincide and the cone is
    # the origin alone, which needs no conic LP.
    return [op for op in p.ops if op.entry["n"] == 2]


def check(cond: bool, what: str):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main() -> int:
    if not run.use_sources():
        return 2
    for name in workloads.WORKLOADS:
        workdir = run.ROOT / ".bench_work" / f"selfcheck-{name}"
        try:
            speed = Speedometer()
            _, p, _, _ = run.set_up(name, workloads.DEFAULT_SEED, workdir, speed)
            p.prepare()
            p.ops = small_ops(name, p)
            tracer, stats = Tracer(), LayerStats()
            tracer.install()
            bound = set(tracer.bindings())
            missing = [b for b in REBOUND if b not in bound]
            check(not missing, f"{name}: imported names rebound {missing or ''}")
            r = run.Run(p, None, speed)
            r.one_pass(tracer, stats)
            tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        check(r.failed == 0, f"{name}: {len(p.ops)} small ops pass their checks")
        check(stats.nest_errors == 0, f"{name}: every span lies inside its parent")
        check(stats.sum_errors == 0,
              f"{name}: layer self times sum to the traced time of each op")
        share = stats.bench_ns / stats.op_ns
        check(share < 0.05, f"{name}: {share:.2%} of op time is outside any span")
        calls = Counter()
        for span, n in stats.calls.items():
            calls[layer_of(span)] += n
        for layer in BUSY[name]:
            check(calls[layer] > 0, f"{name}: {layer} has {calls[layer]} calls")
        for layer in IDLE[name]:
            check(calls[layer] == 0, f"{name}: {layer} stays idle")
        if name == "families":
            check(stats.calls["pipeline.one_step"] > 0, "families: one_step runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
