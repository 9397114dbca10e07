"""Command-line front end.

Exit codes: 0 success, 2 input error or unwritable stdout, 3 infeasible or
unbounded instance, 4 violated internal guarantee or failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import exact, formats, oracles
from .cones import build_cone, enumerate_generators
from .errors import (ClaimViolation, DimensionError, DomainError, InfeasibleError,
                     InputError, RepresentationMismatch, UnboundedError)
from .families import (build_example_1_1, build_ilp_tightness, build_prop44,
                       build_prop45, build_prop46)
from .pipeline import (compute_schedule, eval_objective, run_pipeline,
                       subdeterminant_bound)
from .polyhedra import contains

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_CLAIM = 4


def _parse_point(s: str, n: int) -> list:
    x = formats.strs_to_vec(s.split(","))
    if len(x) != n:
        raise InputError(f"point {formats.echo(s)} has dimension {len(x)}, "
                         f"the instance {n}")
    return x


def _emit(doc):
    try:
        text = json.dumps(doc, indent=2)
    except ValueError as e:  # an int of doc past the limit on int digits
        raise InputError(formats.past_digit_limit()) from e
    sys.stdout.write(text + "\n")  # the bytes json.dump writes
    sys.stdout.flush()  # a closed pipe or a full device raises by here, inside main


def cmd_solve(args) -> int:
    inst = formats.load_instance(args.instance)
    report = oracles.full_report(inst)
    _emit({
        "digest": formats.instance_digest(inst),
        "xd": formats.vec_to_strs(report.int_opt.point),
        "f_xd": formats.rat_to_str(report.int_opt.value),
        "xd_ties": [formats.vec_to_strs(p) for p in report.int_opt.ties],
        "xc": formats.vec_to_strs(report.cont_opt.point),
        "f_xc": formats.rat_to_str(report.cont_opt.value),
        "xc_ties": [formats.vec_to_strs(p) for p in report.cont_opt.ties],
        "fmax_int": formats.rat_to_str(report.fmax_int),
        "fmax_cont": formats.rat_to_str(report.fmax_cont),
    })
    return EXIT_OK


def cmd_proximity(args) -> int:
    inst = formats.load_instance(args.instance)
    eps = formats.str_to_rat(args.eps)
    xc = _parse_point(args.xc, inst.n) if args.xc else None
    xd = _parse_point(args.xd, inst.n) if args.xd else None
    t0 = time.monotonic()
    report = oracles.full_report(inst)
    if xc is not None and eval_objective(inst, xc) != report.cont_opt.value:
        raise InputError("supplied continuous anchor is not optimal")
    if xd is not None and eval_objective(inst, xd) != report.int_opt.value:
        raise InputError("supplied integer anchor is not optimal")
    result = run_pipeline(inst, eps,
                          xc=report.cont_opt.point if xc is None else xc,
                          xd=report.int_opt.point if xd is None else xd)
    vi = oracles.verdict(inst, result.x_star_int, eps, "integer", report)
    vc = oracles.verdict(inst, result.x_star_cont, eps, "continuous", report)
    oracles.claim_cross_checks(inst, result, report)
    # The theorem, whose steps the run and claim_cross_checks check, implies
    # this; only a wrong verdict reaches it.
    if not (vi.is_approx and vc.is_approx):
        raise ClaimViolation("approximation", "pipeline output failed its verdict")
    _emit(formats.run_report(inst, result, report, formats.verdicts_to_dict(vi, vc),
                             time.monotonic() - t0))
    return EXIT_OK


def cmd_tightness(args) -> int:
    if args.n is None and args.family in ("ilp", "prop45", "prop46"):
        raise InputError(f"--n is required for the {args.family} family")
    eps = formats.str_to_rat(args.eps) if args.eps else None
    if args.family == "ilp":
        fam = build_ilp_tightness(args.n, args.delta, formats.str_to_rat(args.beta),
                                  t=args.t)
        report = oracles.full_report(fam.instance)
        gap = exact.inf_norm(exact.vec_sub(report.cont_opt.point,
                                           report.int_opt.point))
        bound = fam.expected["gap"]
        _emit({"family": "ilp", "gap": formats.rat_to_str(gap),
               "bound": formats.rat_to_str(bound),
               "status": "TIGHT" if gap == bound else "SLACK"})
        return EXIT_OK
    if eps is None:
        raise InputError("--eps is required for this family")
    if args.family == "example11":
        if not 0 < eps <= 1:
            raise InputError(f"eps must be in (0, 1], got {eps}")
        fam = build_example_1_1(args.t)
        ds = oracles.delta_star(fam.instance, eps)
        _emit({"family": "example11",
               "delta_star": formats.rat_to_str(ds.value),
               "upper_bound_only": ds.upper_bound_only})
        return EXIT_OK
    if args.family == "prop44":
        fam = build_prop44(eps, args.delta, n=args.n)
        ds = oracles.delta_star(fam.instance, eps)
        nd = fam.params["n"] * args.delta
        _emit({"family": "prop44", "n": fam.params["n"],
               "delta_star": formats.rat_to_str(ds.value),
               "bound": str(nd),
               "status": "TIGHT" if ds.value > nd else "SLACK",
               "upper_bound_only": ds.upper_bound_only})
        return EXIT_OK
    if args.family == "prop45":
        fam = build_prop45(args.n, args.delta, eps)
        ds = oracles.delta_star(fam.instance, eps)
        bound = fam.expected["bound"]
        _emit({"family": "prop45",
               "delta_star": formats.rat_to_str(ds.value),
               "bound": formats.rat_to_str(bound),
               "status": "TIGHT" if ds.value == bound else
               ("SLACK" if ds.value > bound else "BELOW"),
               "upper_bound_only": ds.upper_bound_only})
        return EXIT_OK
    if args.family == "prop46":
        fam = build_prop46(args.n, args.delta, eps)
        radius = fam.expected["radius"]
        ok = oracles.certify_no_cont_approx_within(
            fam.instance, eps, fam.expected["xd"], radius)
        bound = fam.expected["bound"]
        _emit({"family": "prop46",
               "certified_radius": formats.rat_to_str(radius),
               "bound": formats.rat_to_str(bound),
               "certified": ok,
               "status": "TIGHT" if ok and radius >= bound else "FAILED"})
        return EXIT_OK if ok else EXIT_CLAIM
    raise InputError(f"unknown family {args.family!r}")


def cmd_subdet(args) -> int:
    inst = formats.load_instance(args.instance)
    value, rows, cols = exact._max_abs_subdeterminant_int(inst.int_A)  # A's rows are ints
    _emit({"max_abs_subdeterminant": value,
           "witness_rows": list(rows), "witness_cols": list(cols)})
    return EXIT_OK


def cmd_cone(args) -> int:
    inst = formats.load_instance(args.instance)
    xa = _parse_point(args.xa, inst.n)
    xb = _parse_point(args.xb, inst.n)
    D, _ = exact.integer_vector(exact.vec_sub(xa, xb))  # xa - xb times a positive int
    cone = build_cone(inst.polyhedron().int_rows[0], D)
    delta = subdeterminant_bound(inst)
    gens = enumerate_generators(cone, delta)
    _emit({"delta": delta,
           "generators": [formats.vec_to_strs(g) for g in gens]})
    return EXIT_OK


REPORT_BLOCKS = ("schedule", "oracles", "verdicts")  # compared field by field
TERMINATION = {"c1": "small-norm", "c2": "all-large"}  # of the last trace record, by case


def _read_report(path: str) -> dict:
    """The fields verify-report checks; InputError for a malformed document."""
    doc = formats.read_json(path, "report")
    try:
        fields = {
            "inst": formats.instance_from_dict(doc["instance"]),
            "digest": doc["digest"],
            "eps": formats.str_to_rat(doc["eps"]),
            "delta": formats.str_to_rat(doc["delta"]),
            "distance_int": formats.str_to_rat(doc["distance_int"]),
            "distance_cont": formats.str_to_rat(doc["distance_cont"]),
        }
        for key in ("x_star_int", "x_star_cont", "xc", "xd"):
            fields[key] = formats.strs_to_vec(doc[key])
        for key in REPORT_BLOCKS:
            fields[key] = doc[key]
        fields["case"], trace = doc["case"], doc["trace"]
        if type(trace) is not list or any(type(rec) is not dict for rec in trace):
            raise InputError(f"malformed report: trace must be a JSON array of objects, "
                             f"got {formats.echo(trace)}")
        # Each record's number and termination; of the points, only the first.
        fields["trace"] = [(rec["j"], rec["termination"]) for rec in trace]
        fields["trace_x0"] = trace[0]["x"] if trace else None
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed report: {type(e).__name__}: {e}") from e
    for key in REPORT_BLOCKS:
        if type(fields[key]) is not dict:
            raise InputError(f"malformed report: {key} must be a JSON object, "
                             f"got {formats.echo(fields[key])}")
    n = fields["inst"].n
    for key in ("x_star_int", "x_star_cont", "xc", "xd"):
        if len(fields[key]) != n:
            raise InputError(f"malformed report: {key} has dimension "
                             f"{len(fields[key])}, the instance {n}")
    return fields


def _point_problem(P, x, key: str, mode: str) -> str | None:
    """Why a report point is not a feasible point of its problem, or None."""
    if not contains(P, x):
        return f"{key} is infeasible"
    if mode == "integer" and not exact.is_integral_vec(x):
        return f"{key} is not integer"
    return None


def _trace_problems(r: dict) -> list[str]:
    """A line for each field of the report's case and trace that no run
    writes, read without replaying the run: the case is c1 or c2; the
    records are numbered 0, 1, ...; every record but the last has no
    termination, and the last the one of its case; and the first point is
    x_0 = xc - xd, the anchors' difference in the frame of x_d."""
    case, trace = r["case"], r["trace"]
    out = []
    if case not in TERMINATION:
        out.append(f"case is {formats.echo(case)}, not c1 or c2")
    if not trace:
        return out + ["trace has no record"]
    for i, (j, term) in enumerate(trace):
        if type(j) is not int or j != i:
            out.append(f"trace[{i}].j is {formats.echo(j)}, expected {i}")
        if i < len(trace) - 1:
            ok, want = term is None, "None"
        elif case in TERMINATION:
            ok, want = term == TERMINATION[case], f"{TERMINATION[case]!r} for case {case}"
        else:
            ok, want = term in TERMINATION.values(), "'small-norm' or 'all-large'"
        if not ok:
            out.append(f"trace[{i}].termination is {formats.echo(term)}, expected {want}")
    x0 = formats.vec_to_strs(exact.vec_sub(r["xc"], r["xd"]))
    if r["trace_x0"] != x0:
        out.append(f"trace[0].x is {formats.echo(r['trace_x0'])}, recomputed {formats.echo(x0)}")
    return out


def _block_problems(name: str, got: dict, want: dict) -> list[str]:
    """A line for each field of the report block got that is not the JSON
    value of its recomputed block want, type included (true is not 1)."""
    out = []
    for key, value in want.items():
        if key not in got:
            out.append(f"{name}.{key} is missing, recomputed {formats.echo(value)}")
        elif json.dumps(got[key]) != json.dumps(value):
            out.append(f"{name}.{key} is {formats.echo(got[key])}, "
                       f"recomputed {formats.echo(value)}")
    return out


def cmd_verify_report(args) -> int:
    r = _read_report(args.report)
    inst, eps = r["inst"], r["eps"]
    if formats.instance_digest(inst) != r["digest"]:
        print("digest mismatch", file=sys.stderr)
        return EXIT_CLAIM
    delta = subdeterminant_bound(inst)
    schedule = compute_schedule(inst.n, delta, inst.k, eps)
    bound = schedule.theorem_bound
    report = oracles.full_report(inst)
    problems = []
    if r["delta"] != delta:
        problems.append(f"delta is {r['delta']}, recomputed {delta}")
    # The schedule's fields, theorem_bound among them, against their values
    # recomputed from n, delta, k and eps.
    problems += _block_problems("schedule", r["schedule"], formats.schedule_to_dict(schedule))
    problems += _block_problems("oracles", r["oracles"], formats.oracles_to_dict(report))
    problems += _trace_problems(r)
    distances = {
        "distance_int": exact.inf_norm(exact.vec_sub(r["xc"], r["x_star_int"])),
        "distance_cont": exact.inf_norm(exact.vec_sub(r["x_star_cont"], r["xd"])),
    }
    for key, dist in distances.items():
        if dist != r[key]:
            problems.append(f"{key} does not match its points")
        if dist > bound:
            problems.append(f"{key} beyond the theorem bound")
    P = inst.polyhedron()
    verdicts = []  # of the outputs that pass, each a feasible point within eps
    for key, mode in (("x_star_int", "integer"), ("x_star_cont", "continuous")):
        problem = _point_problem(P, r[key], key, mode)
        if problem is None:
            v = oracles.verdict(inst, r[key], eps, mode, report)
            if v.is_approx:
                verdicts.append(v)
            else:
                problem = f"{key} fails its verdict"
        if problem:
            problems.append(problem)
    if len(verdicts) == 2:  # a failed output is named above, not its verdict
        problems += _block_problems("verdicts", r["verdicts"],
                                    formats.verdicts_to_dict(*verdicts))
    for key, mode, opt in (("xd", "integer", report.int_opt),
                           ("xc", "continuous", report.cont_opt)):
        problem = _point_problem(P, r[key], key, mode)
        if problem is None and eval_objective(inst, r[key]) != opt.value:
            problem = f"{key} is not an optimum of the {mode} problem"
        if problem:
            problems.append(problem)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_CLAIM
    _emit({"verified": True, "digest": r["digest"]})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  It holds no handler: main looks up
    cmd_<command> in this module when it runs, so a rebound handler runs."""
    ap = argparse.ArgumentParser(prog="iqprox")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact optima and objective maxima")
    p.add_argument("instance")

    p = sub.add_parser("proximity", help="run the rounding pipeline")
    p.add_argument("instance")
    p.add_argument("--eps", required=True)
    p.add_argument("--xc")
    p.add_argument("--xd")

    p = sub.add_parser("tightness", help="worst-case family reports")
    p.add_argument("family",
                   choices=["ilp", "example11", "prop44", "prop45", "prop46"])
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--beta", default="1/2")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--eps")

    p = sub.add_parser("subdet", help="largest absolute subdeterminant")
    p.add_argument("instance")

    p = sub.add_parser("cone", help="generators of the row-sign cone")
    p.add_argument("instance")
    p.add_argument("--xa", required=True)
    p.add_argument("--xb", required=True)

    p = sub.add_parser("verify-report", help="re-check a saved run report")
    p.add_argument("report")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    if sys.stdout is None:  # started with descriptor 1 closed
        print("output error: standard output is closed", file=sys.stderr)
        return EXIT_INPUT
    try:
        return handler(args)
    except (InputError, DimensionError, DomainError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleError, UnboundedError) as e:
        print(f"{e.__class__.__name__.removesuffix('Error').lower()}: {e}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ClaimViolation, RepresentationMismatch) as e:
        print(f"violation: {e}", file=sys.stderr)
        return EXIT_CLAIM
    except OSError as e:
        # Reading a file raises InputError, so this is writing stdout: its
        # reader closed it (EPIPE) or its device is full (ENOSPC).  Point the
        # descriptor at devnull, so the flush at interpreter exit writes the
        # buffered rest there instead of raising again.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stream without a descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"output error: cannot write standard output: {e.strerror or e}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
