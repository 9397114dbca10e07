"""Span tracer that wraps iqprox entry points from outside the package.

Each wrapped call records one span: name, start, end (perf_counter_ns) and
the index of the enclosing span.  Spans are appended to a flat int64 array
while an op runs and are turned into per-layer numbers between ops, so the
timed region pays only for the wrapper itself.  A layer is the iqprox module
that defines the function; its self time is the time of its spans minus the
part covered by their child spans.

Entry points are rebound in every iqprox module namespace that holds them,
including the names bound by ``from .x import y``, so that cone work called
from ``pipeline`` is charged to ``cones`` and not to ``pipeline``.  Leaf
arithmetic (``exact.dot``, ``vec_*``, ``Fraction``) and data constructors
are left alone; their time is self time of the caller's layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "iqprox"
MODULES = ("exact", "simplex", "polyhedra", "cones", "pipeline", "oracles",
           "formats", "cli")

ENTRY_POINTS = {
    "exact": ("det", "max_abs_subdeterminant",
              "max_abs_subdeterminant_witness", "solve_linear", "rank",
              "null_space"),
    "simplex": ("lp_solve", "feasible_point"),
    "polyhedra": ("contains", "tight_rows", "coordinate_range", "is_empty",
                  "bounding_box", "assert_bounded", "enumerate_vertices",
                  "enumerate_lattice_points", "enumerate_faces",
                  "intersect_with_box"),
    "cones": ("build_cone", "cone_contains", "enumerate_generators",
              "conic_multipliers", "in_generated_cone",
              "caratheodory_decompose", "check_two_representations"),
    "pipeline": ("subdeterminant_bound", "compute_schedule", "normalize",
                 "restricted_polyhedron", "one_step", "build_sequence",
                 "construct_outputs", "midpoint_witnesses", "run_pipeline"),
    "oracles": ("solve_iqp", "solve_qp", "fmax_int", "fmax_int_witness",
                "fmax_cont", "fmax_cont_witness", "full_report", "verdict",
                "delta_star", "certify_no_cont_approx_within",
                "claim_cross_checks"),
    "formats": ("load_instance", "save_instance", "instance_to_dict",
                "instance_from_dict", "instance_digest", "schedule_to_dict",
                "trace_to_list", "run_report"),
    "cli": ("main", "build_parser", "cmd_solve", "cmd_proximity",
            "cmd_tightness", "cmd_subdet", "cmd_cone", "cmd_verify_report"),
}

# Calls whose arguments or results feed a counter; the wrapper keeps a
# reference and the counting happens between ops.
KEEP_IO = frozenset({"cones.enumerate_generators",
                     "polyhedra.enumerate_lattice_points",
                     "polyhedra.enumerate_vertices", "simplex.lp_solve",
                     "pipeline.run_pipeline"})


class Tracer:
    """Installs span wrappers and holds the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # name id, start, end, parent; 4 per span
        self.stack: list[int] = []
        self.kept: list[tuple[int, tuple, object]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.on = False

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, kept = self.spans, self.stack, self.kept
        clock = time.perf_counter_ns
        keep = name in KEEP_IO
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * sid + 1] = start
                spans[4 * sid + 2] = end
            if keep:
                kept.append((sid, args, out))
            return out

        return traced

    def install(self):
        """Rebind every entry point in every iqprox module that holds it."""
        if self._patches:
            return
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for layer in MODULES:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in ENTRY_POINTS[layer]:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, orig, wrapped))

    def uninstall(self):
        for mod, attr, orig, _ in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def bindings(self) -> list[str]:
        """module.attr for every rebound name (for the self-check)."""
        return [f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches]

    # -- per-op bookkeeping -----------------------------------------------

    def mark(self) -> tuple[int, int]:
        return len(self.spans) >> 2, len(self.kept)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class LayerStats:
    """Run-level aggregation of spans into the per-layer metric set."""

    def __init__(self):
        self.ops = 0
        self.self_ns = Counter()      # layer -> self time
        self.incl_ns = Counter()      # span name -> inclusive time
        self.calls = Counter()        # span name -> calls
        self.under = Counter()        # (parent name, name) -> calls
        self.values = Counter()       # named result counters
        self.max_ell = 0
        self.bench_ns = 0             # op time not covered by any span
        self.op_ns = 0
        self.nest_errors = 0          # spans not inside their parent
        self.sum_errors = 0           # ops whose self times miss the op time
        self._seen_cones: set = set()
        self._seen_polys: set = set()

    def new_pass(self):
        """Repeat shares count repeats within one pass over the mix."""
        self._seen_cones.clear()
        self._seen_polys.clear()

    def add_op(self, tracer: Tracer, mark: tuple[int, int], op_ns: int):
        first, kfirst = mark
        spans, names = tracer.spans, tracer.names
        last = len(spans) >> 2
        self.ops += 1
        self.op_ns += op_ns
        own = {}
        root_ns = 0
        for sid in range(first, last):
            nid, start, end, parent = spans[4 * sid: 4 * sid + 4]
            dur = end - start
            name = names[nid]
            self.calls[name] += 1
            self.incl_ns[name] += dur
            own[sid] = own.get(sid, 0) + dur
            if parent >= first:
                pstart, pend = spans[4 * parent + 1], spans[4 * parent + 2]
                if start < pstart or end > pend:
                    self.nest_errors += 1
                own[parent] = own.get(parent, 0) - dur
                self.under[(names[spans[4 * parent]], name)] += 1
            else:
                root_ns += dur
        layer_sum = 0
        for sid, ns in own.items():
            if ns < 0:
                self.nest_errors += 1
            self.self_ns[layer_of(names[spans[4 * sid]])] += ns
            layer_sum += ns
        # The layer self times partition the root spans exactly; what is
        # left of the op is the benchmark's own code around the calls.
        if layer_sum != root_ns or root_ns > op_ns:
            self.sum_errors += 1
        self.bench_ns += op_ns - root_ns
        for sid, args, out in tracer.kept[kfirst:]:
            self._count_io(names[spans[4 * sid]], args, out)
        del tracer.kept[kfirst:]

    def _count_io(self, name, args, out):
        v = self.values
        if name == "cones.enumerate_generators":
            v["generators_found"] += len(out)
            key = (args[0], args[1])
            v["generator_repeats"] += key in self._seen_cones
            self._seen_cones.add(key)
        elif name == "polyhedra.enumerate_lattice_points":
            v["lattice_points"] += len(out)
            key = args[0]
            v["lattice_repeats"] += key in self._seen_polys
            self._seen_polys.add(key)
        elif name == "polyhedra.enumerate_vertices":
            v["vertices"] += len(out)
        elif name == "simplex.lp_solve":
            v["lp_infeasible"] += out.status == "infeasible"
        elif name == "pipeline.run_pipeline":
            v["runs"] += 1
            v["c2"] += out.case == "c2"
            ell = out.trace[-1].j
            self.max_ell = max(self.max_ell, ell)

    def metrics(self, report_bytes: float, overhead_frac: float,
                scale: float) -> dict:
        """Per-op means; times in reference seconds via `scale`."""
        ops = max(self.ops, 1)
        s = lambda ns: ns * scale / 1e9 / ops
        per = lambda c: c / ops
        share = lambda a, b: a / b if b else 0.0
        c, u, v = self.calls, self.under, self.values
        subsets = u[("cones.enumerate_generators", "exact.rank")]
        visited = u[("polyhedra.enumerate_lattice_points", "polyhedra.contains")]
        vsubsets = u[("polyhedra.enumerate_vertices", "exact.solve_linear")]
        out = {
            "cones.generators_s": (s(self.incl_ns["cones.enumerate_generators"]), "s"),
            "cones.subsets_tried": (per(subsets), "count"),
            "cones.generators_found": (per(v["generators_found"]), "count"),
            "cones.generator_yield": (share(v["generators_found"], subsets), "frac"),
            "cones.self_s": (s(self.self_ns["cones"]), "s"),
            "cones.generator_repeat_share": (
                share(v["generator_repeats"], c["cones.enumerate_generators"]), "frac"),
            "cones.caratheodory_s": (s(self.incl_ns["cones.caratheodory_decompose"]), "s"),
            "cones.conic_lp_calls": (
                per(u[("cones.conic_multipliers", "simplex.lp_solve")]), "count"),
            "exact.self_s": (s(self.self_ns["exact"]), "s"),
            "exact.rank_calls": (per(c["exact.rank"]), "count"),
            "exact.null_space_calls": (per(c["exact.null_space"]), "count"),
            "exact.subdet_s": (
                s(self.incl_ns["exact.max_abs_subdeterminant_witness"]), "s"),
            "exact.solve_linear_calls": (per(c["exact.solve_linear"]), "count"),
            "simplex.self_s": (s(self.self_ns["simplex"]), "s"),
            "simplex.lp_calls": (per(c["simplex.lp_solve"]), "count"),
            "simplex.lp_infeasible_share": (
                share(v["lp_infeasible"], c["simplex.lp_solve"]), "frac"),
            "polyhedra.self_s": (s(self.self_ns["polyhedra"]), "s"),
            "polyhedra.lattice_visited": (per(visited), "count"),
            "polyhedra.lattice_points": (per(v["lattice_points"]), "count"),
            "polyhedra.lattice_yield": (share(v["lattice_points"], visited), "frac"),
            "polyhedra.vertex_subsets": (per(vsubsets), "count"),
            "polyhedra.vertices": (per(v["vertices"]), "count"),
            "polyhedra.vertex_yield": (share(v["vertices"], vsubsets), "frac"),
            "oracles.self_s": (s(self.self_ns["oracles"]), "s"),
            "oracles.lattice_enums_per_instance": (
                per(c["polyhedra.enumerate_lattice_points"]), "count"),
            "oracles.face_lps": (
                per(u[("oracles.fmax_cont_witness", "simplex.feasible_point")]), "count"),
            "oracles.lattice_repeat_share": (
                share(v["lattice_repeats"], c["polyhedra.enumerate_lattice_points"]),
                "frac"),
            "pipeline.self_s": (s(self.self_ns["pipeline"]), "s"),
            "pipeline.one_steps": (per(c["pipeline.one_step"]), "count"),
            "pipeline.c2_share": (share(v["c2"], v["runs"]), "frac"),
            "pipeline.max_ell": (float(self.max_ell), "count"),
            "formats.self_s": (s(self.self_ns["formats"]), "s"),
            "cli.self_s": (s(self.self_ns["cli"]), "s"),
            "formats.report_bytes": (report_bytes, "B"),
            "trace.overhead_frac": (overhead_frac, "frac"),
        }
        return {k: {"value": val, "unit": unit} for k, (val, unit) in out.items()}


def dump_spans(tracer: Tracer, path: str, meta: dict):
    """Write every recorded span: [name id, start ns, end ns, parent]."""
    with open(path, "w") as fh:
        json.dump({"meta": meta, "names": tracer.names,
                   "spans": tracer.spans.tolist()}, fh)
