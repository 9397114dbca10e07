"""iqprox benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one thread runs the ops of a pass back to back and
repeats whole passes until about ``--seconds`` have gone by (and at least
100 ops have run, so that the 90th percentile has ten samples beyond it).
Every op's outputs are checked after its clock stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; the spans are
written to ``.bench_out/`` when the run ends.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import LayerStats, Tracer, dump_spans  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3
SETUP_SAMPLES = 5
MODULES = ("exact", "simplex", "polyhedra", "cones", "pipeline", "oracles",
           "families", "formats", "cli")


def use_sources() -> bool:
    """Put the checkout's src/ first on the import path, if it is there."""
    if not (ROOT / "src" / "iqprox" / "__init__.py").is_file():
        print(f"no iqprox sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def import_iqprox():
    """A fresh import of the package: every iqprox module is executed anew."""
    for name in [k for k in sys.modules if k == "iqprox" or k.startswith("iqprox.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"iqprox.{m}") for m in MODULES}
    return type("Iqprox", (), mods)


def set_up(workload: str, seed: int, workdir: Path, speed: Speedometer):
    """Import, instance generation and anchors, timed; median of repeats.

    Returns the modules, the pass, and the median set-up time both in
    reference seconds and in wall seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        # A set-up runs seconds without a pause for a kernel sample, so its
        # scale rests on a few samples at each end.
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        t0 = time.perf_counter_ns()
        mods = import_iqprox()
        p = workloads.WORKLOADS[workload](mods, seed, str(workdir))
        times.append((t0, time.perf_counter_ns() - t0))
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    ref = statistics.median(d * speed.scale(t, d) for t, d in times) / 1e9
    return mods, p, ref, statistics.median(d for _, d in times) / 1e9


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """Op durations, failures and output digests of one benchmark run."""

    def __init__(self, p, reference, speed: Speedometer):
        self.p = p
        self.reference = reference
        self.speed = speed
        self.first = [None] * len(p.ops)
        self.starts: list[int] = []
        self.durations: list[int] = []
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.report_bytes: list[int] = []
        self.passes = 0
        self.errors: list[str] = []
        self.by_entry: dict[int, list[tuple[int, int]]] = {}  # start, duration

    def mix(self) -> dict:
        """The pass's instance mix, with each instance's median op time."""
        out = {}
        for label, entry in self.p.mix.items():
            d = [dt * self.speed.scale(t, dt) / 1e9 for t, dt in self.by_entry.get(id(entry), [])]
            out[label] = dict(entry, median_op_s=statistics.median(d) if d else None)
        return out

    def scaled(self, traced: bool | None = None) -> list[float]:
        """Op times in reference seconds (see speed.py)."""
        return [d * self.speed.scale(t, d) / 1e9
                for t, d, tr in zip(self.starts, self.durations, self.traced)
                if traced is None or tr == traced]

    def one_pass(self, tracer=None, stats=None):
        """Run every op of the pass once, each checked after its clock stops."""
        clock = time.perf_counter_ns
        if stats is not None:
            stats.new_pass()
        for i, op in enumerate(self.p.ops):
            self.attempted += 1
            self.speed.maybe_sample()
            mark = tracer.mark() if stats is not None else None
            out, err = None, None
            if tracer is not None:
                tracer.on = True
            t0 = clock()
            try:
                out = op.run()
            except Exception:  # counted as a failed op, reported below
                err = traceback.format_exc(limit=3)
            t1 = clock()
            if tracer is not None:
                tracer.on = False
            self.starts.append(t0)
            self.durations.append(t1 - t0)
            self.traced.append(stats is not None)
            self.by_entry.setdefault(id(op.entry), []).append((t0, t1 - t0))
            if stats is not None:
                stats.add_op(tracer, mark, t1 - t0)
            if err is None:
                try:
                    text = op.check(out)
                    if op.kind == "proximity":
                        self.report_bytes.append(len(out[1].encode()))
                except Exception:  # a wrong output, not a harness fault
                    err = traceback.format_exc(limit=3)
            if err is None:
                d = digest(text)
                if self.first[i] is None:
                    self.first[i] = d
                    op.entry["ops"] += 1
                if d != self.first[i]:
                    err = f"op {i}: output changed between passes"
                elif self.reference is not None and d != self.reference[i]:
                    err = f"op {i}: output differs from the recorded reference"
            if err is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(err)
        self.speed.sample()
        self.passes += 1


def measure(run: Run, seconds: float):
    """Whole passes until about `seconds` of wall time and MIN_OPS ops."""
    start = time.perf_counter()
    while True:
        run.one_pass()
        elapsed = time.perf_counter() - start
        per_pass = elapsed / run.passes
        if run.attempted >= MIN_OPS and elapsed + per_pass / 2 >= seconds:
            return


def measure_traced(run: Run, seconds: float, tracer: Tracer, stats: LayerStats):
    """Alternate untraced and traced passes; return the tracing overhead."""
    start = time.perf_counter()
    pairs = 0
    while True:
        tracer.uninstall()
        run.one_pass()
        tracer.install()
        run.one_pass(tracer, stats)
        tracer.uninstall()
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed / pairs) / 2 >= seconds:
            return sum(run.scaled(True)) / sum(run.scaled(False)) - 1


def latency(d: list[float]) -> tuple[float, float, float, int]:
    """ops/s, median, 90th percentile, and the samples beyond it."""
    p90 = statistics.quantiles(d, n=10, method="inclusive")[8]
    return len(d) / sum(d), statistics.median(d), p90, sum(x > p90 for x in d)


def end_to_end(run: Run, setup_s: float) -> dict:
    ops_per_s, p50, p90, _ = latency(run.scaled())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_s": {"value": p50, "unit": "s"},
        "op_p90_s": {"value": p90, "unit": "s"},
        "ok_frac": {"value": 1 - run.failed / run.attempted, "unit": "frac"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def layer_checks(stats: LayerStats) -> list[str]:
    """The tracer's own invariants, checked on every traced op."""
    problems = []
    if stats.nest_errors:
        problems.append(f"{stats.nest_errors} spans outside their parent")
    if stats.sum_errors:
        problems.append(f"{stats.sum_errors} ops whose layer self times "
                        "do not sum to the traced op time")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_sources():
        return 2

    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    speed = Speedometer()
    try:
        mods, p, setup_s, setup_wall_s = set_up(args.workload, args.seed, workdir, speed)
        p.prepare()
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = json.loads((HERE / "reference.json").read_text())[args.workload]
            if len(reference) != len(p.ops):
                print("reference.json has another op count than the pass", file=sys.stderr)
                return 2
        run = Run(p, reference, speed)
        if args.trace:
            tracer, stats = Tracer(), LayerStats()
            overhead = measure_traced(run, args.seconds, tracer, stats)
            problems = layer_checks(stats)
            rb = run.report_bytes
            metrics = stats.metrics(sum(rb) / len(rb) if rb else 0.0, overhead,
                                    speed.run_scale())
            out_dir.mkdir(exist_ok=True)
            dump_spans(tracer, str(out_dir / f"spans-{args.workload}-seed{args.seed}.json"),
                       {"workload": args.workload, "seed": args.seed,
                        "traced_ops": stats.ops, "bench_s": stats.bench_ns / 1e9,
                        "traced_op_s": stats.op_ns / 1e9})
        else:
            measure(run, args.seconds)
            problems = []
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    problems += run.errors
    for line in problems:
        print(line, file=sys.stderr)
    correct = run.failed == 0 and not problems
    wall = latency([d / 1e9 for d in run.durations])
    beyond_p90 = latency(run.scaled())[3]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": run.passes, "ops_per_pass": len(p.ops),
              "speed_scale": speed.run_scale(), "setup_wall_s": setup_wall_s,
              "wall": dict(zip(("ops_per_s", "op_p50_s", "op_p90_s"), wall)),
              "mix": run.mix(), "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {run.passes}  "
          f"ops {run.attempted} ({len(p.ops)} per pass)  failed {run.failed}  "
          f"fail_frac {run.failed / run.attempted:.4f}")
    print(f"  samples {len(run.durations)}, {beyond_p90} beyond p90; reference-CPU "
          f"seconds (speed scale {speed.run_scale():.3f}); wall: {wall[0]:.4g} ops/s, "
          f"p50 {wall[1]:.4g} s, p90 {wall[2]:.4g} s, setup {setup_wall_s:.4g} s")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
