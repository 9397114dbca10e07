"""Brute-force ground truth for small instances.

Optimal solutions, maxima of the objective over the feasible set, and
approximation verdicts are all computed by exact enumeration (lattice points,
vertices, or face-wise stationary systems).  Nothing here scales past desk
size; everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import exact
from .errors import ClaimViolation, InfeasibleError, InputError
from .pipeline import Instance, PipelineResult, eval_objective
from .polyhedra import (contains, contains_int, enumerate_lattice_points,
                        enumerate_vertices, intersect_with_box)
from .simplex import feasible_point

ZERO = Fraction(0)


@dataclass(frozen=True)
class OptResult:
    point: tuple[Fraction, ...]
    value: Fraction
    ties: tuple[tuple[Fraction, ...], ...]  # every optimal point found


@dataclass(frozen=True)
class ApproxVerdict:
    is_approx: bool
    ratio: Fraction | None  # None when degenerate
    degenerate: bool


@dataclass(frozen=True)
class OracleReport:
    int_opt: OptResult
    cont_opt: OptResult
    fmax_int: Fraction
    fmax_int_witness: tuple[Fraction, ...]
    fmax_cont: Fraction
    fmax_cont_witness: tuple[Fraction, ...]


def _integer_objective(inst: Instance) -> tuple[list[int], list[int], int]:
    """q and h times the lcm d of their denominators, and d."""
    qh, d = exact.integer_vector(inst.q + inst.h)
    return qh[:inst.k], qh[inst.k:], d


def _objective_numerator(q: list[int], h: list[int], X: list[int], e: int) -> int:
    """d e^2 f(x) for x = X / e, with q and h from _integer_objective."""
    return e * sum(map(mul, h, X)) - sum(c * xi * xi for c, xi in zip(q, X))


def _lattice_extremes(inst: Instance, pts) -> tuple[OptResult, Fraction,
                                                   tuple[Fraction, ...]]:
    """Minimizer (with ties) and lexicographically first maximizer over pts.

    pts are lattice points.  The objective is evaluated as an int: f times
    the lcm d of the denominators of q and h; a Fraction is built only for
    the minimum and the maximum.
    """
    if not pts:
        raise InfeasibleError("no integer point in the feasible region")
    q, h, d = _integer_objective(inst)
    vals = [_objective_numerator(q, h, [v.numerator for v in p], 1) for p in pts]
    best, top = min(vals), max(vals)
    ties = tuple(sorted(p for p, v in zip(pts, vals) if v == best))
    wit = min(p for p, v in zip(pts, vals) if v == top)
    return OptResult(ties[0], Fraction(best, d), ties), Fraction(top, d), wit


def solve_iqp(inst: Instance) -> OptResult:
    """Exact lattice minimizer; ties reported, lexicographic representative."""
    return _lattice_extremes(inst, enumerate_lattice_points(inst.polyhedron()))[0]


def solve_qp(inst: Instance) -> OptResult:
    """Continuous minimizer; a concave objective attains its min at a vertex."""
    return _vertex_minimum(inst, enumerate_vertices(inst.polyhedron()))


def _vertex_minimum(inst: Instance, verts) -> OptResult:
    if not verts:
        raise InfeasibleError("feasible region is empty")
    vals = [(eval_objective(inst, v), v) for v in verts]
    best = min(v for v, _ in vals)
    ties = tuple(sorted(p for v, p in vals if v == best))
    return OptResult(ties[0], best, ties)


def fmax_int(inst: Instance) -> Fraction:
    return fmax_int_witness(inst)[0]


def fmax_int_witness(inst: Instance) -> tuple[Fraction, tuple[Fraction, ...]]:
    _, top, wit = _lattice_extremes(inst, enumerate_lattice_points(inst.polyhedron()))
    return top, wit


def fmax_cont(inst: Instance) -> Fraction:
    return fmax_cont_witness(inst)[0]


def fmax_cont_witness(inst: Instance) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact max of the concave objective over the feasible region.

    The maximizer lies in the relative interior of some face, where the
    gradient is orthogonal to the face's affine hull.  Each linearly
    independent subset S of rows gives the system E_S: A_S x = b_S and
    W^T grad f(x) = 0, with W a basis of the kernel of A_S, so n equations
    in n unknowns.  f is concave, so a point of the affine hull of the face
    is stationary there exactly when it maximizes f there: f is constant on
    the solutions of E_S, at the value v_S of any one of them.  A face can
    only raise the maximum found so far by attaining v_S in P, so, visiting
    the subsets by size and then lexicographically, a face is

    - skipped when E_S is inconsistent (it has no stationary point);
    - skipped when v_S <= the best value so far;
    - decided by membership when E_S has full rank: its one solution is
      then the only candidate;
    - otherwise decided by the exact LP feasibility problem
      {A x <= b, E_S}, whose point must have the value v_S.

    The witness is the candidate of the first face attaining the maximum.

    Everything but the LP runs on the int rows of P.  One elimination of
    [A_S | b_S] (exact.solution_space_int) shows whether S is independent
    and gives A_S x = b_S as x = (X0 + W y) / L, W the int kernel basis.
    With q = Q / d and h = H / d, the stationarity condition on these x is
    the (n - s) x (n - s) int system (W^T 2Q W) y = W^T (L H - 2Q X0); it
    is consistent exactly when E_S is, and E_S has rank s plus its rank.
    Any of its solutions gives v_S, as an int numerator over d e^2 for the
    point X / e, and values are compared by cross-multiplying.  The LP gets
    the rows of the canonical kernel basis W / L, exact.null_space's basis.
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    Q, H, d = _integer_objective(inst)
    Q2 = [2 * c for c in Q] + [0] * (n - k)
    best = None  # (numerator, denominator) of the best value so far
    wit = None
    for size in range(min(n, P.m) + 1):
        for S in combinations(range(P.m), size):
            hull = exact.solution_space_int([rows[i] for i in S],
                                            [rhs[i] for i in S], n)
            if hull is None or len(hull[1]) != n - size:  # S is dependent
                continue
            X0, W, L = hull
            QW = [list(map(mul, Q2, w)) for w in W]
            g = [L * c - qx for c, qx in zip(H, map(mul, Q2, X0))]
            stat = exact.solution_space_int(
                [[sum(map(mul, u, w)) for w in W] for u in QW],
                [sum(map(mul, w, g)) for w in W], n - size)
            if stat is None:
                continue
            Y, free, e2 = stat
            X = [x * e2 + sum(w[j] * y for w, y in zip(W, Y))
                 for j, x in enumerate(X0)]
            e = L * e2
            num, den = _objective_numerator(Q, H, X, e), d * e * e
            if best is not None and num * best[1] <= best[0] * den:
                continue
            if not free:
                if not contains_int(P, X, e):
                    continue
                pt = [Fraction(x, e) for x in X]
            else:
                lp_rows = [list(row) for row in P.A]
                lp_rhs = list(P.b)
                for i in S:
                    lp_rows.append([-c for c in P.A[i]])
                    lp_rhs.append(-P.b[i])
                for w in W:
                    w = [Fraction(x, L) for x in w]
                    # w . grad f = sum_i w_i h_i - 2 sum_{i<k} w_i q_i x_i = 0
                    coeff = [2 * w[i] * inst.q[i] if i < k else ZERO
                             for i in range(n)]
                    val = exact.dot(w, inst.h)
                    lp_rows += [coeff, [-c for c in coeff]]
                    lp_rhs += [val, -val]
                pt = feasible_point(lp_rows, lp_rhs)
                if pt is None:
                    continue
                if eval_objective(inst, pt) != Fraction(num, den):
                    raise ClaimViolation("face-constant",
                                         f"face {S}: f is not constant on E_S")
            best = (num, den)
            wit = tuple(pt)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return Fraction(*best), wit


def _report_and_lattice(inst: Instance) -> tuple[OracleReport, list]:
    """Every oracle quantity, and the lattice points, enumerated once."""
    P = inst.polyhedron()
    pts = enumerate_lattice_points(P)
    iqp, fdi, wdi = _lattice_extremes(inst, pts)
    # pts is nonempty, so the lattice walk's bounding box has shown P
    # nonempty and bounded.
    qp = _vertex_minimum(inst, enumerate_vertices(P, _bounded=True))
    fci, wci = fmax_cont_witness(inst)
    return OracleReport(iqp, qp, fdi, wdi, fci, wci), pts


def full_report(inst: Instance) -> OracleReport:
    return _report_and_lattice(inst)[0]


def verdict(inst: Instance, x, eps, mode: str, report: OracleReport) -> ApproxVerdict:
    """Is x an eps-approximate solution of the chosen problem?

    ratio is (f(x) - f(opt)) / (f_max - f(opt)); when the gap collapses
    (f_max = f(opt)) the verdict is degenerate and only optimal points pass.
    """
    eps = Fraction(eps)
    if mode not in ("integer", "continuous"):
        raise InputError(f"mode must be 'integer' or 'continuous', got {mode!r}")
    xv = tuple(Fraction(v) for v in x)
    if not contains(inst.polyhedron(), xv):
        raise InputError("point is infeasible")
    if mode == "integer":
        if not exact.is_integral_vec(xv):
            raise InputError("point is not integer")
        opt, fmax = report.int_opt.value, report.fmax_int
    else:
        opt, fmax = report.cont_opt.value, report.fmax_cont
    fx = eval_objective(inst, xv)
    gap = fmax - opt
    if gap == 0:
        return ApproxVerdict(fx == opt, None, True)
    ratio = (fx - opt) / gap
    return ApproxVerdict(fx - opt <= eps * gap, ratio, False)


@dataclass(frozen=True)
class DeltaStarResult:
    value: Fraction
    witness_opt: tuple[Fraction, ...]
    witness_point: tuple[Fraction, ...]
    approx_points: tuple[tuple[Fraction, ...], ...]
    upper_bound_only: bool  # set when the continuous optimal set is a face


def delta_star(inst: Instance, eps) -> DeltaStarResult:
    """Min distance from a continuous optimum to an integer eps-approximation.

    Minimizes over all tied optimal vertices and all eps-approximate lattice
    points.  When tied optimal vertices span an optimal edge or face (the
    midpoint of some tied pair is also optimal), vertices undersample the
    optimal set, so the value is an upper bound and flagged as such.
    """
    eps = Fraction(eps)
    report, pts = _report_and_lattice(inst)
    qp = report.cont_opt
    approx = [p for p in pts if verdict(inst, p, eps, "integer", report).is_approx]
    if not approx:
        raise InfeasibleError("no eps-approximate lattice point exists")
    best = None
    pair = None
    for xc in qp.ties:
        for p in approx:
            d = exact.inf_norm(exact.vec_sub(xc, p))
            if best is None or d < best:
                best = d
                pair = (xc, p)
    flag = False
    for a, b in combinations(qp.ties, 2):
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        if eval_objective(inst, mid) == qp.value:
            flag = True
            break
    return DeltaStarResult(best, pair[0], pair[1], tuple(approx), flag)


def certify_no_cont_approx_within(inst: Instance, eps, xd, radius) -> bool:
    """Certify that no continuous eps-approximation lies in a box around xd.

    True means: min of f over the feasible region intersected with the
    infinity-norm ball of the given radius around xd strictly exceeds the
    approximation threshold f(x^c) + eps (f_max - f(x^c)), so every point of
    the box fails the verdict.
    """
    eps = Fraction(eps)
    qp = solve_qp(inst)
    fmax = fmax_cont(inst)
    tau = qp.value + eps * (fmax - qp.value)
    box = intersect_with_box(inst.polyhedron(), exact.vec(xd), radius)
    verts = enumerate_vertices(box)
    if not verts:
        return True
    lo = min(eval_objective(inst, v) for v in verts)
    return lo > tau


def claim_cross_checks(inst: Instance, result: PipelineResult, report: OracleReport):
    """Objective-gap inequalities relating a pipeline run to the oracles.

    All quantities live in the frame where the integer anchor is the origin;
    the objective there differs from the original by the constant f(x^d), so
    gaps are computed directly on the original instance.  Only case c-2 runs
    carry the quantities involved; c-1 runs pass vacuously.
    """
    if result.case != "c2":
        return
    sched = result.schedule
    nd = Fraction(inst.n * result.delta)
    ell = result.trace[-1].j
    nl = result.trace[-1].n_set
    ystar = exact.vec_sub(result.x_star_int, result.xd)  # anchor-frame output
    spread = 2 * (sched.psi_at(ell) + nd)
    wsum = sum((inst.q[i] * abs(ystar[i]) for i in nl), ZERO)
    f_xd = eval_objective(inst, result.xd)
    f_xc = eval_objective(inst, result.xc)
    if eval_objective(inst, result.x_star_int) - f_xd > spread * wsum:
        raise ClaimViolation("ratio-1", "integer output gap exceeds its bound")
    lower = sum((inst.q[i] * (ystar[i] ** 2 - nd ** 2) for i in nl), ZERO) / 4
    if report.fmax_int - f_xd < lower:
        raise ClaimViolation("ratio-2", "integer head room below its bound")
    if eval_objective(inst, result.x_star_cont) - f_xc > spread * wsum:
        raise ClaimViolation("rub", "continuous output gap exceeds its bound")
    clower = sum((inst.q[i] * ystar[i] ** 2 for i in nl), ZERO) / 4
    if report.fmax_cont - f_xc < clower:
        raise ClaimViolation("rlb", "continuous head room below its bound")
    w = result.witnesses
    if w is not None:
        # Witnesses are anchor-frame points; shift back before evaluating.
        shift = result.xd
        fl = eval_objective(inst, exact.vec_add(w.x_l, shift))
        fr = eval_objective(inst, exact.vec_add(w.x_r, shift))
        ft = eval_objective(inst, exact.vec_add(w.x_tri, shift))
        slack = nd ** 2 / 4 * sum((inst.q[i] for i in nl), ZERO)
        if max(fl, fr) < ft - slack:
            raise ClaimViolation("midpoint-witness",
                                 "parity witnesses fall below the midpoint bound")
