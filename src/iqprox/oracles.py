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
from .pipeline import Instance, PipelineResult, checked_eps, eval_objective
from .polyhedra import (contains, contains_int, enumerate_lattice_points,
                        enumerate_vertices, intersect_with_box, lattice_runs)
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


def _fraction_point(p) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, p))


def _lattice_extremes(inst: Instance, runs) -> tuple[OptResult, Fraction,
                                                    tuple[Fraction, ...]]:
    """Minimizer (with ties) and lexicographically first maximizer over the
    lattice points of runs, and their values.

    runs are (prefix, lo, hi) as lattice_runs gives them, in lexicographic
    order.  The objective is an int: f times the lcm d of the denominators
    of q and h.  Along a run only the last coordinate j = n - 1 moves, so
    the value is the prefix's part plus g(v) = H_j v - Q_j v^2 (Q_j = 0 for
    j >= k), and g is concave:

    - g's least value on [lo, hi] is at lo or hi, or at both when their
      values are equal; when g is constant (j >= k and H_j = 0) every v
      attains it.
    - g's greatest value is at the clipped floor or ceil of H_j / (2 Q_j),
      the smaller on a tie; when g is linear, at hi if H_j > 0, else lo.

    Across runs only a strictly larger maximum replaces the witness, so it
    is the lexicographically first maximizer; the ties come in walk order,
    which is sorted.  Fractions are built only for the minimum, the
    maximum, the ties and the witness.
    """
    if not runs:
        raise InfeasibleError("no integer point in the feasible region")
    q, h, d = _integer_objective(inst)
    j = inst.n - 1
    hj, qj = h[j], (q[j] if j < inst.k else 0)

    def g(v: int) -> int:
        return (hj - qj * v) * v

    best = top = None
    ties: list[tuple[int, ...]] = []
    wit = None
    for prefix, lo, hi in runs:
        base = _objective_numerator(q, h, prefix, 1)
        if qj:
            c = hj // (2 * qj)
            a, b = min(max(c, lo), hi), min(max(c + 1, lo), hi)  # a <= b
            vmax = b if g(b) > g(a) else a
        else:
            vmax = hi if hj > 0 else lo
        if top is None or base + g(vmax) > top:
            top, wit = base + g(vmax), (*prefix, vmax)
        glo, ghi = g(lo), g(hi)
        gmin = min(glo, ghi)
        if best is None or base + gmin < best:
            best, ties = base + gmin, []
        elif base + gmin > best:
            continue
        if not qj and not hj:
            ties.extend((*prefix, v) for v in range(lo, hi + 1))
        else:
            if glo == gmin:
                ties.append((*prefix, lo))
            if ghi == gmin and hi != lo:
                ties.append((*prefix, hi))
    fties = tuple(map(_fraction_point, ties))
    return (OptResult(fties[0], Fraction(best, d), fties), Fraction(top, d),
            _fraction_point(wit))


def solve_iqp(inst: Instance) -> OptResult:
    """Exact lattice minimizer; ties reported, lexicographic representative."""
    return _lattice_extremes(inst, lattice_runs(inst.polyhedron()))[0]


def solve_qp(inst: Instance) -> OptResult:
    """Continuous minimizer; a concave objective attains its min at a vertex."""
    Q, H, d = _integer_objective(inst)
    verts = []
    for p in enumerate_vertices(inst.polyhedron()):
        X, e = exact.integer_vector(p)
        verts.append((X, e, _objective_numerator(Q, H, X, e), d * e * e))
    return _vertex_minimum(verts)


def _vertex_minimum(verts) -> OptResult:
    """The least value over vertices (X, e, num, den), at X / e with value
    num / den and den > 0, and every vertex attaining it; values are
    compared by cross-multiplying."""
    if not verts:
        raise InfeasibleError("feasible region is empty")
    _, _, bn, bd = verts[0]
    for _, _, num, den in verts:
        if num * bd < bn * den:
            bn, bd = num, den
    ties = tuple(sorted({tuple(Fraction(x, e) for x in X)
                         for X, e, num, den in verts if num * bd == bn * den}))
    return OptResult(ties[0], Fraction(bn, bd), ties)


def fmax_int(inst: Instance) -> Fraction:
    return fmax_int_witness(inst)[0]


def fmax_int_witness(inst: Instance) -> tuple[Fraction, tuple[Fraction, ...]]:
    _, top, wit = _lattice_extremes(inst, lattice_runs(inst.polyhedron()))
    return top, wit


def fmax_cont(inst: Instance) -> Fraction:
    return fmax_cont_witness(inst)[0]


def fmax_cont_witness(inst: Instance, vertices: list | None = None
                      ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact max of the concave objective over the feasible region, and the
    first face's point attaining it.

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
    The subsets come from exact.independent_row_sets, in that order.

    Each face of fewer than n rows carries an upper bound on f over its
    affine hull: v_S when its E_S was solved and is consistent, its
    parent's bound when its solve was skipped, and none when E_S is
    inconsistent (f then has no maximum there).  The hull of S + (j,) lies
    in that of S, so v_{S+j} <= v_S: a face whose parent's bound is <= the
    best value so far would be skipped by the rule above, and skips its
    solve instead, passing that bound on.  The value, the witness, the
    vertices and the face LPs are the same as without the skip.  Only the
    previous level's bounds are kept.

    When a list is passed as vertices, the same walk also collects the
    vertices of P, if P is a polytope.  An independent S of size n is E_S
    itself, and its point is a vertex exactly when it lies in P; every
    vertex arises so, and is appended as (X, e, num, den): the point X / e
    of value num / den, once per n-subset that gives it.  Before that, each
    independent S of size n - 1 has its kernel line w tested: if A_i w <= 0
    for every row i, or >= 0 for every row i, then w or -w lies in the
    recession cone C = {y : A y <= 0}, P is not a polytope, and no vertex
    is collected.  When some vertex exists, A has rank n, so C is pointed
    and, unless it is {0}, has an extreme ray; that ray is tight on n - 1
    independent rows, so it spans the kernel line of such an S.  So the
    list ends nonempty exactly when P is a nonempty polytope, and then
    holds every vertex of P, whose convex hull P is.

    Everything but the LP runs on the int rows of P.  The walk gives each
    face the Bareiss echelon of [A_S | b_S], which gives A_S x = b_S as
    x = (X0 + W y) / L, W the int kernel basis, with the same ints as
    exact.solution_space_int.  With q = Q / d and h = H / d, the
    stationarity condition on these x is the (n - s) x (n - s) int system
    (W^T 2Q W) y = W^T (L H - 2Q X0), solved only for s < n; it is
    consistent exactly when E_S is, and E_S has rank s plus its rank.
    Any of its solutions gives v_S, as an int numerator over d e^2 for the
    point X / e, and values are compared by cross-multiplying.  The LP gets
    the rows of the canonical kernel basis W / L, exact.null_space's basis.
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    Q, H, d = _integer_objective(inst)
    Q2 = [2 * c for c in Q] + [0] * (n - k)
    best = None  # (numerator, denominator) of the best value so far
    wit = None
    collect = vertices is not None
    level, above, bounds = 0, {}, {}  # the faces' bounds, one level up and this one
    for S, a, pivots in exact.independent_row_sets(aug, n, 0, n):
        size = len(S)
        if size > level:
            level, above, bounds = size, bounds, {}
        up = above.get(S[:-1])
        dominated = (size < n and up is not None and best is not None
                     and up[0] * best[1] <= best[0] * up[1])
        if dominated:
            bounds[S] = up
            if not (collect and size == n - 1):  # else the recession test needs W
                continue
        X0, W, L = exact._solution_space(a, pivots, n)
        if collect and size == n - 1:
            dots = [sum(map(mul, row, W[0])) for row in rows]
            collect = not (all(t <= 0 for t in dots) or all(t >= 0 for t in dots))
        if dominated:
            continue
        if size < n:
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
        else:  # E_S is A_S x = b_S, with no kernel
            X, free, e = X0, W, L
            if collect and not contains_int(P, X, e):
                continue
        num, den = _objective_numerator(Q, H, X, e), d * e * e
        if size < n:
            bounds[S] = (num, den)
        vertex = collect and size == n
        if vertex:
            vertices.append((X, e, num, den))
        if best is not None and num * best[1] <= best[0] * den:
            continue
        if not free:
            if not vertex and not contains_int(P, X, e):
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


def _face_walk(inst: Instance):
    """fmax_cont_witness's value and witness, the vertices it collects, and
    the box for the lattice walk.

    When the face walk collects vertices, P is a polytope and the
    coordinate-wise extremes of its vertices are its exact bounding box.
    Otherwise (P empty, unbounded, or of rank < n) the box is None, and the
    lattice walk finds it by LP, which gives no points or raises
    UnboundedError.  The value and witness are None when no face attains a
    maximum in P: P is then empty or unbounded, and no vertex is collected.
    """
    verts = []
    try:
        fci, wci = fmax_cont_witness(inst, verts)
    except InfeasibleError:
        fci = wci = None
    box = None
    if verts:
        corners = [[Fraction(x, e) for x in X] for X, e, _, _ in verts]
        box = [(min(c), max(c)) for c in zip(*corners)]
    return fci, wci, verts, box


def full_report(inst: Instance) -> OracleReport:
    """Every oracle quantity from one face walk and one lattice walk.

    The face walk gives the continuous maximum, the vertices and the box;
    the lattice walk's runs give the integer extremes, and the vertices the
    continuous minimum.
    """
    fci, wci, verts, box = _face_walk(inst)
    iqp, fdi, wdi = _lattice_extremes(inst, lattice_runs(inst.polyhedron(), box))
    # Some lattice point exists, so P is a nonempty polytope: verts holds
    # every vertex and the walk found the maximum.
    return OracleReport(iqp, _vertex_minimum(verts), fdi, wdi, fci, wci)


def verdict(inst: Instance, x, eps, mode: str, report: OracleReport) -> ApproxVerdict:
    """Is x an eps-approximate solution of the chosen problem?

    ratio is (f(x) - f(opt)) / (f_max - f(opt)); when the gap collapses
    (f_max = f(opt)) the verdict is degenerate and only optimal points pass.
    """
    eps = checked_eps(eps)
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

    A lattice point of int value v passes verdict's integer test exactly
    when v - lo <= eps (hi - lo), lo and hi the least and largest values:
    every value shares the denominator d > 0.  With hi = lo this says
    v = lo, the degenerate verdict.
    """
    eps = checked_eps(eps)
    _, _, verts, box = _face_walk(inst)
    pts = enumerate_lattice_points(inst.polyhedron(), box)
    if not pts:
        raise InfeasibleError("no integer point in the feasible region")
    qp = _vertex_minimum(verts)
    q, h, _ = _integer_objective(inst)
    vals = [_objective_numerator(q, h, p, 1) for p in pts]
    lo, hi = min(vals), max(vals)
    approx = [_fraction_point(p) for p, v in zip(pts, vals)
              if (v - lo) * eps.denominator <= eps.numerator * (hi - lo)]
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
    eps = checked_eps(eps)
    verts = []
    try:
        fmax = fmax_cont_witness(inst, verts)[0]
    except InfeasibleError:
        # P is empty, or unbounded with f unbounded above: solve_qp's error
        # (UnboundedError on an unbounded P) comes first.
        solve_qp(inst)
        raise
    # A polytope's vertices hold the continuous minimum; solve_qp decides
    # otherwise, with its own errors.
    qp = _vertex_minimum(verts) if verts else solve_qp(inst)
    tau = qp.value + eps * (fmax - qp.value)
    box = intersect_with_box(inst.polyhedron(), exact.vec(xd), radius)
    corners = enumerate_vertices(box)
    if not corners:
        return True
    lo = min(eval_objective(inst, v) for v in corners)
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
