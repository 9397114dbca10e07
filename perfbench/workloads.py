"""The three workloads: instance mixes, the timed call, and output checks.

A workload's ``setup`` turns a seed into one pass: a fixed list of ops, each
a timed call plus a check that runs after the clock stops.  A check raises
``CheckFailed`` (or any error from the program) when an output is wrong and
otherwise returns a canonical string of the op's exact outputs; the harness
hashes it and compares it with the other passes and, at the default seed,
with the recorded reference.

Instances are drawn from ``families.random_instance`` and the worst-case
builders only; the program sees nothing but the generated instances.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

DEFAULT_SEED = 0
EPS = (Fraction(1, 10), Fraction(1, 2), Fraction(1))

# Instance shapes (n, m, k) of one pass of `certify`, each filled per seed
# with the first random_instance of that exact shape.  Every shape that
# random_instance makes at n = 2 and n = 3 appears a fixed number of times,
# so the mix of a pass is the same for every seed and a ten-seed spread
# comes only from the instances within a shape.  The counts put the median
# op inside the n = 2 group and the 90th percentile inside the n = 3 group,
# not on the edge between two groups.  The n = 4 shape is the box alone
# (m = 8, k = 0): its two anchors coincide, so its cone has the same rows
# for every seed and one construction costs about 2 s; with any extra row
# an n = 4 construction takes 5-10 s, too long for a pass.
N2 = [(2, m, k) for m in range(4, 8) for k in range(3)]
N3 = [(3, m, k) for m in range(6, 10) for k in range(3)]
SHAPES = [(4, 8, 0)] + N3 * 3 + N2 * 7


class CheckFailed(Exception):
    """An op's output is wrong; counted in fail_frac."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(v) -> str:
    return "(" + ",".join(rat(x) for x in v) + ")"


@dataclass
class Op:
    entry: dict                      # the mix entry of the op's instance
    run: Callable[[], object]        # the timed call
    check: Callable[[object], str]   # untimed; canonical exact outputs
    kind: str = "op"


@dataclass
class Pass:
    ops: list[Op]
    mix: dict                        # label -> n, m, k, ell, case, ops
    prepare: Callable[[], None] = lambda: None  # untimed, once per run


def shuffled(ops: list[Op], seed: int) -> list[Op]:
    """A seed-fixed order that spreads the long ops through the pass.

    The speed scale of an op comes from kernel samples taken between ops
    within a second of it (see speed.py); a long op among short ones has
    many such samples, a run of long ops very few.
    """
    random.Random(f"iqprox-bench-order-{seed}").shuffle(ops)
    return ops


def note(entry: dict, case: str, ell: int):
    """Record the case and zeroing-sequence length an op reached."""
    cases = set(entry.get("case", "").split("/")) - {""}
    entry["case"] = "/".join(sorted(cases | {case}))
    entry["ell"] = max(entry.get("ell", 0), ell)


def shaped_instances(mods, seed: int, shapes) -> list[tuple[str, object]]:
    """One random_instance per shape, scanning a seed-derived stream."""
    rng = random.Random(f"iqprox-bench-{seed}")
    wanted = list(shapes)
    out: list[tuple[str, object] | None] = [None] * len(wanted)
    used = set()
    while any(o is None for o in out):
        s = rng.randrange(1 << 30)
        if s in used:
            continue
        used.add(s)
        inst = mods.families.random_instance(s, n_max=4)
        key = (inst.n, inst.m, inst.k)
        for i, shape in enumerate(wanted):
            if out[i] is None and shape == key:
                out[i] = (f"rand{s}-n{inst.n}m{inst.m}k{inst.k}", inst)
                break
    return out


def mix_entry(inst) -> dict:
    return {"n": inst.n, "m": inst.m, "k": inst.k, "ops": 0}


def oracle_report(mods, iqp, qp, inst):
    """full_report(inst), reusing the anchors already solved in set-up."""
    fdi, wdi = mods.oracles.fmax_int_witness(inst)
    fci, wci = mods.oracles.fmax_cont_witness(inst)
    return mods.oracles.OracleReport(iqp, qp, fdi, wdi, fci, wci)


# -- certify ---------------------------------------------------------------

def certify_setup(mods, seed: int, workdir: str) -> Pass:
    """Anchors are solved here; the construction alone is timed."""
    ops, mix, refs = [], {}, []
    for label, inst in shaped_instances(mods, seed, SHAPES):
        iqp = mods.oracles.solve_iqp(inst)
        qp = mods.oracles.solve_qp(inst)
        mix[label] = entry = mix_entry(inst)
        ref = SimpleNamespace(inst=inst, iqp=iqp, qp=qp, report=None)
        refs.append(ref)
        for eps in EPS:
            ops.append(Op(entry, _certify_run(mods, inst, eps, qp.point, iqp.point),
                          _certify_check(mods, ref, eps, entry)))

    def prepare():
        # The oracle report that verdicts are checked against, completed
        # from the set-up anchors once per run and never timed.
        for ref in refs:
            ref.report = oracle_report(mods, ref.iqp, ref.qp, ref.inst)

    return Pass(shuffled(ops, seed), mix, prepare)


def _certify_run(mods, inst, eps, xc, xd):
    return lambda: mods.pipeline.run_pipeline(inst, eps, xc=xc, xd=xd)


def _certify_check(mods, ref, eps, entry):
    ex, orc = mods.exact, mods.oracles

    def check(res) -> str:
        inst = ref.inst
        P = inst.polyhedron()
        bound = res.schedule.theorem_bound
        require(ex.is_integral_vec(res.x_star_int), "x_star_int not integral")
        require(mods.polyhedra.contains(P, res.x_star_int), "x_star_int infeasible")
        require(mods.polyhedra.contains(P, res.x_star_cont), "x_star_cont infeasible")
        require(orc.verdict(inst, res.x_star_int, eps, "integer", ref.report).is_approx,
                "x_star_int fails its verdict")
        require(orc.verdict(inst, res.x_star_cont, eps, "continuous", ref.report).is_approx,
                "x_star_cont fails its verdict")
        require(ex.inf_norm(ex.vec_sub(res.xc, res.x_star_int)) == res.distance_int,
                "distance_int does not match its points")
        require(ex.inf_norm(ex.vec_sub(res.x_star_cont, res.xd)) == res.distance_cont,
                "distance_cont does not match its points")
        require(res.distance_int <= bound and res.distance_cont <= bound,
                "distance beyond theorem_bound")
        orc.claim_cross_checks(inst, res, ref.report)
        note(entry, res.case, res.trace[-1].j)
        return result_text(res)

    return check


def result_text(res) -> str:
    parts = [res.case, str(res.delta), rat(res.schedule.theorem_bound),
             vec(res.x_star_int), vec(res.x_star_cont), vec(res.x_ell),
             rat(res.distance_int), rat(res.distance_cont),
             repr(sorted(res.z_ell))]
    for rec in res.trace:
        parts.append(f"{rec.j}:{rec.s}:{sorted(rec.z_set)}:{sorted(rec.n_set)}:"
                     f"{rec.termination_reason}:{vec(rec.x_j)}")
    dec = res.normalized.decomposition if res.normalized else None
    if dec is not None:
        parts += [vec(g) for g in dec.generators] + [vec(dec.coefficients)]
    return "|".join(parts)


# -- solve -----------------------------------------------------------------

def solve_setup(mods, seed: int, workdir: str) -> Pass:
    """The oracle report is the op; set-up only draws the instances."""
    ops, mix = [], {}
    for label, inst in shaped_instances(mods, seed, SHAPES):
        mix[label] = entry = mix_entry(inst)
        ops.append(Op(entry, _solve_run(mods, inst), _solve_check(mods, inst)))
    return Pass(shuffled(ops, seed), mix)


def _solve_run(mods, inst):
    return lambda: mods.oracles.full_report(inst)


def _solve_check(mods, inst):
    ex, contains = mods.exact, mods.polyhedra.contains
    f = lambda x: mods.pipeline.eval_objective(inst, x)

    def check(rep) -> str:
        P = inst.polyhedron()
        for p in rep.int_opt.ties:
            require(ex.is_integral_vec(p) and contains(P, p), "integer optimum invalid")
            require(f(p) == rep.int_opt.value, "integer tie off its value")
        for p in rep.cont_opt.ties:
            require(contains(P, p), "continuous optimum infeasible")
            require(f(p) == rep.cont_opt.value, "continuous tie off its value")
        require(rep.int_opt.point == rep.int_opt.ties[0], "integer anchor not first tie")
        require(rep.cont_opt.point == rep.cont_opt.ties[0], "continuous anchor not first tie")
        require(rep.cont_opt.value <= rep.int_opt.value, "relaxation above the integer optimum")
        w = rep.fmax_int_witness
        require(ex.is_integral_vec(w) and contains(P, w) and f(w) == rep.fmax_int,
                "fmax_int witness invalid")
        w = rep.fmax_cont_witness
        require(contains(P, w) and f(w) == rep.fmax_cont, "fmax_cont witness invalid")
        require(rep.int_opt.value <= rep.fmax_int <= rep.fmax_cont,
                "objective maxima out of order")
        return "|".join([vec(rep.int_opt.point), rat(rep.int_opt.value),
                         ";".join(vec(p) for p in rep.int_opt.ties),
                         vec(rep.cont_opt.point), rat(rep.cont_opt.value),
                         ";".join(vec(p) for p in rep.cont_opt.ties),
                         rat(rep.fmax_int), vec(rep.fmax_int_witness),
                         rat(rep.fmax_cont), vec(rep.fmax_cont_witness)])

    return check


# -- families --------------------------------------------------------------

def _cli(mods, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods.cli.main(argv)
    return rc, buf.getvalue()


def families_setup(mods, seed: int, workdir: str) -> Pass:
    """Worst-case builders through the CLI, in process.

    The seed varies only what leaves the work of each op the same: the
    objective (pr-tight's a), prop46's eps among values that give the same
    strip width t, ilp's box height beta and example-1-1's t.  prop45 stays
    at eps = 1/2, where its distance bound is met exactly.  Each proximity op
    runs without anchors, saves its report and runs verify-report on it;
    each tightness op is one command.
    """
    fam = mods.families
    rng = random.Random(f"iqprox-bench-families-{seed}")
    t11 = rng.choice((1, 2, 3, 4))
    e45 = "1/2"
    a_pr = rng.choice(("1/4", "1/3", "1/2", "3/5"))     # below (n-1)*beta*delta
    e46 = rng.choice(("1/4", "1/5", "2/9", "3/14"))     # t = 2 for all
    b_ilp = rng.choice(("1/3", "1/2", "2/3", "3/4"))
    builds = [
        ("example-1-1", fam.build_example_1_1(t11)),
        ("prop45-n2", fam.build_prop45(2, 1, e45)),
        ("prop45-n3", fam.build_prop45(3, 1, e45)),
        ("pr-tight-n2", fam.build_pr_tight(2, 1, 1, a_pr, "2/3")),
        ("pr-tight-n3", fam.build_pr_tight(3, 1, 1, a_pr, "2/3")),
        ("prop46", fam.build_prop46(2, 2, e46)),
        ("ilp", fam.build_ilp_tightness(3, 2, b_ilp)),
    ]
    ops, mix = [], {}
    for label, fi in builds:
        path = os.path.join(workdir, f"{label}.json")
        mods.formats.save_instance(fi.instance, path)
        mix[label] = entry = mix_entry(fi.instance)
        for eps in EPS:
            ops.append(Op(entry, _proximity_run(mods, path, rat(eps)),
                          _proximity_check(mods, fi, entry), kind="proximity"))
    tight = [
        ("tightness-example11", ["example11", "--t", str(t11), "--eps", "1/2"], None),
        ("tightness-prop45-n2", ["prop45", "--n", "2", "--eps", e45], "TIGHT"),
        ("tightness-prop45-n3", ["prop45", "--n", "3", "--eps", e45], "TIGHT"),
        ("tightness-prop46", ["prop46", "--n", "2", "--delta", "2", "--eps", e46], "TIGHT"),
        ("tightness-ilp", ["ilp", "--n", "3", "--delta", "2", "--beta", b_ilp], "TIGHT"),
        ("tightness-prop44", ["prop44", "--eps", "1/4"], "TIGHT"),
    ]
    for label, argv, status in tight:
        mix[label] = entry = {"ops": 0}
        ops.append(Op(entry, _tightness_run(mods, argv), _tightness_check(status),
                      kind="tightness"))
    return Pass(shuffled(ops, seed), mix)


def _proximity_run(mods, path, eps):
    report = path[:-len(".json")] + f"-eps{eps.replace('/', '_')}.report.json"

    def run():
        rc, out = _cli(mods, ["proximity", path, "--eps", eps])
        with open(report, "w") as fh:
            fh.write(out)
        rc2, out2 = _cli(mods, ["verify-report", report])
        return rc, out, rc2, out2

    return run


def _proximity_check(mods, fi, entry):
    inst = fi.instance

    def check(out) -> str:
        rc, text, rc2, text2 = out
        require(rc == 0, f"proximity exited {rc}")
        require(rc2 == 0, f"verify-report exited {rc2}")
        require(json.loads(text2).get("verified") is True, "report not verified")
        doc = json.loads(text)
        v = doc["verdicts"]
        require(v["int_approx"] and v["cont_approx"], "verdict failed")
        xs = [Fraction(x) for x in doc["x_star_int"]]
        xq = [Fraction(x) for x in doc["x_star_cont"]]
        P = inst.polyhedron()
        require(mods.exact.is_integral_vec(xs) and mods.polyhedra.contains(P, xs),
                "x_star_int invalid")
        require(mods.polyhedra.contains(P, xq), "x_star_cont infeasible")
        bound = Fraction(doc["schedule"]["theorem_bound"])
        require(Fraction(doc["distance_int"]) <= bound
                and Fraction(doc["distance_cont"]) <= bound,
                "distance beyond theorem_bound")
        for key in ("xd", "xc"):
            if key in fi.expected:
                require(doc[key] == [rat(x) for x in fi.expected[key]],
                        f"{key} differs from the family's known optimum")
        note(entry, doc["case"], doc["trace"][-1]["j"])
        doc.pop("elapsed_seconds", None)
        return json.dumps(doc, sort_keys=True) + text2

    return check


def _tightness_run(mods, argv):
    return lambda: _cli(mods, ["tightness"] + argv)


def _tightness_check(status):
    def check(out) -> str:
        rc, text = out
        require(rc == 0, f"tightness exited {rc}")
        doc = json.loads(text)
        if status is not None:
            require(doc.get("status") == status, f"status {doc.get('status')}")
        require(doc.get("upper_bound_only") is not True, "delta* is only an upper bound")
        return text

    return check


WORKLOADS = {
    "certify": certify_setup,
    "solve": solve_setup,
    "families": families_setup,
}
