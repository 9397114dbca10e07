"""Brute-force ground truth for small instances.

Optimal solutions, maxima of the objective over the feasible set, and
approximation verdicts are all computed by exact enumeration (lattice points,
vertices, or face-wise stationary systems).  Nothing here scales past desk
size; everything here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import exact
from .errors import ClaimViolation, DimensionError, InfeasibleError, InputError
from .pipeline import (Instance, PipelineResult, _integer_objective, _objective_at,
                       _objective_numerator, checked_eps, eval_objective)
from .polyhedra import (contains, contains_int, enumerate_lattice_points,
                        enumerate_vertices, intersect_with_box, lattice_runs,
                        line_through)
from .simplex import feasible_point

# No oracle lists lattice points or tests a point through contains any
# more, but the benchmark's self-check (perfbench/selfcheck.py) rebinds
# enumerate_lattice_points and contains by this module's name, so the names
# stay bound here.
__all__ = ["OptResult", "ApproxVerdict", "OracleReport", "DeltaStarResult",
           "solve_iqp", "solve_qp", "fmax_int", "fmax_int_witness", "fmax_cont",
           "fmax_cont_witness", "full_report", "verdict", "delta_star",
           "certify_no_cont_approx_within", "claim_cross_checks",
           "enumerate_lattice_points", "contains"]

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


def _fraction_point(p) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, p))


def _lattice_extremes(inst: Instance, runs, objective) -> tuple[OptResult, Fraction,
                                                               tuple[Fraction, ...]]:
    """Minimizer (with ties) and lexicographically first maximizer over the
    lattice points of runs, and their values.

    runs are (prefix, lo, hi) as lattice_runs gives them, in lexicographic
    order, and objective is _integer_objective(inst): the objective is an
    int, f times the lcm d of the denominators of q and h.  Along a run
    only the last coordinate j = n - 1 moves, so the value is the prefix's
    part plus g(v) = H_j v - Q_j v^2 (Q_j = 0 for j >= k), and g is
    concave:

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
    q, h, d = objective
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
    return _lattice_extremes(inst, lattice_runs(inst.polyhedron()),
                             _integer_objective(inst))[0]


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
    _, top, wit = _lattice_extremes(inst, lattice_runs(inst.polyhedron()),
                                    _integer_objective(inst))
    return top, wit


def fmax_cont(inst: Instance) -> Fraction:
    return fmax_cont_witness(inst)[0]


def fmax_cont_witness(inst: Instance, vertices: list | None = None, objective=None
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
      {A x <= b, E_S}, whose point must have the value v_S; on a line (n - 1
      rows) E_S is then the line itself, so a line that misses P is
      skipped with no LP.

    The witness is the candidate of the first face attaining the maximum.
    The subsets of up to n - 1 rows come from exact.independent_row_sets,
    in that order; those of n rows from the lines below.

    Each face of fewer than n rows carries an upper bound on f over its
    affine hull: v_S when its E_S was solved and is consistent, its
    parent's bound when its solve was skipped, and none when E_S is
    inconsistent (f then has no maximum there).  The hull of S + (j,) lies
    in that of S, so v_{S+j} <= v_S: a face whose parent's bound is <= the
    best value so far would be skipped by the rule above, and skips its
    solve instead, passing that bound on.  The value, the witness, the
    vertices and the face LPs are the same as without the skip.  Only the
    previous level's bounds are kept.

    The last two levels run on lines.  An independent S of n - 1 rows has
    the kernel line x = (X0 + t w) / L, and polyhedra.line_through meets it
    with every row in one pass: the products A_i.w, the slacks and the
    interval of t on which the line lies in P.  Its E_S is one equation in
    t, a t = b with a = sum_i 2 Q_i w_i^2 and b = w.(L H - 2 Q X0), solved
    in closed form, and its point, at t = b / a, lies in P exactly when t
    lies in the interval.  The n-sets are S + (j,) for the rows j > max S,
    independent exactly when A_j.w != 0; their E_S is A_S x = b_S alone,
    whose point is a vertex of P exactly when row j wins the ratio test on
    the line (Line.vertices).  These leaves wait until the whole of level
    n - 1 is done: in (size, lex) order every (n - 1)-set comes before
    every n-set, so the best value each leaf is compared with, and the
    witness it may become, are those of that order, and the recession test
    below has seen every line before a vertex is collected.  A leaf's value
    is at most its line's bound, so without a vertex list the leaves of a
    line whose bound is <= the best value are not visited, and a dominated
    line is not even met with P.

    When a list is passed as vertices, the same walk also collects the
    vertices of P, if P is a polytope.  Each leaf in P is a vertex, and is
    appended as (X, e, num, den): the point X / e of value num / den, once
    per n-subset that gives it.  Before that, each line has its direction
    w tested (Line.recedes): if A_i w <= 0 for every row i, or >= 0 for every row i, then
    w or -w lies in the recession cone C = {y : A y <= 0}, P is not a
    polytope, and no vertex is collected.  When some vertex exists, A has
    rank n, so C is pointed and, unless it is {0}, has an extreme ray; that
    ray is tight on n - 1 independent rows, so it spans the kernel line of
    such an S.  So the list ends nonempty exactly when P is a nonempty
    polytope, and then holds every vertex of P, whose convex hull P is.

    objective is _integer_objective(inst), computed here unless the caller
    already holds it (_face_walk passes the one it hands to the lattice walk).

    Everything but the LP runs on the int rows of P.  The walk gives each
    face the Bareiss echelon of [A_S | b_S], which gives A_S x = b_S as
    x = (X0 + W y) / L, W the int kernel basis, with the same ints as
    exact.solution_space_int.  With q = Q / d and h = H / d, the
    stationarity condition on these x is the (n - s) x (n - s) int system
    (W^T 2Q W) y = W^T (L H - 2Q X0); it is consistent exactly when E_S
    is, and E_S has rank s plus its rank.  Any of its solutions gives v_S,
    as an int numerator over d e^2 for the point X / e, and values are
    compared by cross-multiplying.  The LP gets the rows of the canonical
    kernel basis W / L, exact.null_space's basis.
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    Q, H, d = _integer_objective(inst) if objective is None else objective
    Q2 = [2 * c for c in Q] + [0] * (n - k)
    best = None  # (numerator, denominator) of the best value so far
    wit = None
    collect = vertices is not None

    def below_best(bound) -> bool:
        return (bound is not None and best is not None
                and bound[0] * best[1] <= best[0] * bound[1])

    level, above, bounds = 0, {}, {}  # the faces' bounds, one level up and this one
    lines = []  # (S, line) per independent (n - 1)-set, for its leaves
    for S, ech, pivots in exact.independent_row_sets(aug, n, 0, n - 1):
        size = len(S)
        if size > level:
            level, above, bounds = size, bounds, {}
        on_line = size == n - 1
        up = above.get(S[:-1])
        dominated = below_best(up)
        if dominated:
            bounds[S] = up
            if not (collect and on_line):  # else the recession test needs the line
                continue
        X0, W, L = exact._solution_space(ech, pivots, n)
        if on_line:
            line = line_through(P, X0, W[0], L)
            lines.append((S, line))
            if collect:
                collect = not line.recedes
        if dominated:
            continue
        if on_line:  # a t = b, solved as exact.solution_space_int would solve it
            (w,) = W
            Qw = list(map(mul, Q2, w))
            a = sum(map(mul, Qw, w))
            b = L * sum(map(mul, w, H)) - sum(map(mul, Qw, X0))
            stat = ([b], [], a) if a else None if b else ([0], [[1]], 1)
        else:
            QW = [list(map(mul, Q2, w)) for w in W]
            g = [L * c - qx for c, qx in zip(H, map(mul, Q2, X0))]
            stat = exact.solution_space_int(
                [[sum(map(mul, u, w)) for w in W] for u in QW],
                [sum(map(mul, w, g)) for w in W], n - size)
        if stat is None:
            continue
        Y, free, e2 = stat
        X = [x * e2 for x in X0]
        for w, y in zip(W, Y):
            if y:
                X = [x + y * c for x, c in zip(X, w)]
        e = L * e2
        num, den = _objective_numerator(Q, H, X, e), d * e * e
        bounds[S] = (num, den)
        if best is not None and num * best[1] <= best[0] * den:
            continue
        if not free:
            if not (line.holds(Y[0], e2) if on_line else contains_int(P, X, e)):
                continue
            pt = [Fraction(x, e) for x in X]
        elif on_line and not line.meets:  # E_S is the line itself: the LP is infeasible
            continue
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
    for S, line in lines:  # the leaves S + (j,), in (S, j) order
        if not collect and below_best(bounds.get(S)):
            continue
        for X, e in line.vertices(S[-1] + 1 if S else 0):
            num, den = _objective_numerator(Q, H, X, e), d * e * e
            if collect:
                vertices.append((X, e, num, den))
            if best is None or num * best[1] > best[0] * den:
                best = (num, den)
                wit = tuple(Fraction(x, e) for x in X)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return Fraction(*best), wit


def _face_walk(inst: Instance):
    """fmax_cont_witness's value and witness, the vertices it collects, the
    box for the lattice walk, and the int objective both walks use.

    When the face walk collects vertices, P is a polytope and the
    coordinate-wise extremes of its vertices are its exact bounding box,
    found on the vertices' ints over their common denominator.  Otherwise
    (P empty, unbounded, or of rank < n) the box is None, and the lattice
    walk finds it by LP, which gives no points or raises UnboundedError.
    The value and witness are None when no face attains a maximum in P: P
    is then empty or unbounded, and no vertex is collected.  The objective
    is _integer_objective(inst), computed once here.
    """
    objective = _integer_objective(inst)
    verts = []
    try:
        fci, wci = fmax_cont_witness(inst, verts, objective)
    except InfeasibleError:
        fci = wci = None
    box = None
    if verts:
        D = math.lcm(*(e for _, e, _, _ in verts))
        cols = zip(*([x * (D // e) for x in X] for X, e, _, _ in verts))
        box = [(Fraction(min(c), D), Fraction(max(c), D)) for c in cols]
    return fci, wci, verts, box, objective


def full_report(inst: Instance) -> OracleReport:
    """Every oracle quantity from one face walk and one lattice walk.

    The face walk gives the continuous maximum, the vertices and the box;
    the lattice walk's runs give the integer extremes, and the vertices the
    continuous minimum.
    """
    fci, wci, verts, box, objective = _face_walk(inst)
    iqp, fdi, wdi = _lattice_extremes(inst, lattice_runs(inst.polyhedron(), box), objective)
    # Some lattice point exists, so P is a nonempty polytope: verts holds
    # every vertex and the walk found the maximum.
    return OracleReport(iqp, _vertex_minimum(verts), fdi, wdi, fci, wci)


def verdict(inst: Instance, x, eps, mode: str, report: OracleReport) -> ApproxVerdict:
    """Is x an eps-approximate solution of the chosen problem?

    ratio is (f(x) - f(opt)) / (f_max - f(opt)); when the gap collapses
    (f_max = f(opt)) the verdict is degenerate and only optimal points pass.
    The point is scaled once, to X / e: membership, integrality (e = 1) and
    f(x) are read off those ints.
    """
    eps = checked_eps(eps)
    if mode not in ("integer", "continuous"):
        raise InputError(f"mode must be 'integer' or 'continuous', got {mode!r}")
    X, e = exact.integer_vector(x)
    P = inst.polyhedron()
    if len(X) != P.n:
        raise DimensionError(f"point has dim {len(X)}, polyhedron has {P.n}")
    if not contains_int(P, X, e):
        raise InputError("point is infeasible")
    if mode == "integer":
        if e != 1:
            raise InputError("point is not integer")
        opt, fmax = report.int_opt.value, report.fmax_int
    else:
        opt, fmax = report.cont_opt.value, report.fmax_cont
    fx = _objective_at(inst, X, e)
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
    v = lo, the degenerate verdict.  The points come as the lattice runs of
    the face walk's box, lo and hi from their extremes (_lattice_extremes),
    and each run is filtered with its prefix's part of v computed once.
    """
    eps = checked_eps(eps)
    _, _, verts, box, objective = _face_walk(inst)
    runs = lattice_runs(inst.polyhedron(), box)
    iqp, top, _ = _lattice_extremes(inst, runs, objective)
    qp = _vertex_minimum(verts)
    q, h, d = objective
    lo, hi = (iqp.value * d).numerator, (top * d).numerator
    cut = lo * eps.denominator + eps.numerator * (hi - lo)  # v passes iff v * den <= cut
    j = inst.n - 1
    hj, qj = h[j], (q[j] if j < inst.k else 0)
    approx = []
    for prefix, a, b in runs:
        base = _objective_numerator(q, h, prefix, 1)
        fprefix = _fraction_point(prefix)
        approx += [(*fprefix, Fraction(v)) for v in range(a, b + 1)
                   if (base + (hj - qj * v) * v) * eps.denominator <= cut]
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
