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
from .errors import (ClaimViolation, DimensionError, InfeasibleError, InputError,
                     UnboundedError)
from .pipeline import (Instance, PipelineResult, _objective_at, _objective_numerator,
                       checked_eps, eval_objective)
from .polyhedra import (contains, contains_int, edge_lines, enumerate_lattice_points,
                        enumerate_vertices, intersect_with_box, is_empty, lattice_runs,
                        line_leaves, line_through, vertex_box, vertex_ints)
from .simplex import feasible_point

# The benchmark's self-check (perfbench/selfcheck.py) rebinds
# enumerate_lattice_points, enumerate_vertices and contains by this
# module's name, which no oracle calls any more, so they stay bound here.
__all__ = ["OptResult", "ApproxVerdict", "OracleReport", "DeltaStarResult",
           "solve_iqp", "solve_qp", "fmax_int", "fmax_int_witness", "fmax_cont",
           "fmax_cont_witness", "full_report", "verdict", "delta_star",
           "certify_no_cont_approx_within", "claim_cross_checks",
           "enumerate_lattice_points", "enumerate_vertices", "contains"]

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


class _Values:
    """The objective on the lattice walk (polyhedra.lattice_runs): the
    values it carries down are int numerators, f times the lcm d of the
    denominators of q and h (Instance.int_objective).

    f is separable: f(x) = sum_t f_t(x_t), with d f_t(v) = (H_t - Q_t v) v
    (Q_t = 0 for t >= k), so a prefix's value plus f_j(v) is the value of
    the prefix extended by x_j = v.  Each f_t is concave, so on the box's
    [lo_t, hi_t] its least value is at an end, and its greatest at the
    clipped floor or ceil of H_t / (2 Q_t) (at an end when f_t is linear).
    low[j] and high[j] sum these over the coordinates t >= j: every point
    under a prefix of j coordinates has a value within [its value + low[j],
    its value + high[j]].
    """

    def __init__(self, inst: Instance):
        q, self.h, self.d = inst.int_objective
        self.q = q + [0] * (inst.n - inst.k)

    def start(self, lo, hi) -> int:
        low, high = [0], [0]
        for t in reversed(range(len(lo))):
            ends = (self.value(t, lo[t]), self.value(t, hi[t]))
            low.append(low[-1] + min(ends))
            high.append(high[-1] + self.value(t, self.peak(t, lo[t], hi[t])))
        self.low, self.high = low[::-1], high[::-1]
        return 0

    def value(self, t: int, v: int) -> int:
        """d f_t(v)."""
        return (self.h[t] - self.q[t] * v) * v

    def peak(self, t: int, lo: int, hi: int) -> int:
        """The least v in [lo, hi] where f_t is greatest: the clipped floor
        or ceil of H_t / (2 Q_t), the smaller on a tie; when f_t is linear,
        hi if H_t > 0, else lo."""
        ht, qt = self.h[t], self.q[t]
        if not qt:
            return hi if ht > 0 else lo
        c = ht // (2 * qt)
        a, b = min(max(c, lo), hi), min(max(c + 1, lo), hi)  # a <= b
        return b if (ht - qt * b) * b > (ht - qt * a) * a else a


class _Extremes(_Values):
    """The search of full_report, solve_iqp and fmax_int_witness: the
    minimizers (with ties) and the lexicographically first maximizer over
    the lattice points of the walk, and their values.

    Along a run only the last coordinate j = n - 1 moves, so the value is
    the prefix's plus g(v) = H_j v - Q_j v^2, and g is concave:

    - g's least value on [lo, hi] is at lo or hi, or at both when their
      values are equal; when g is constant (j >= k and H_j = 0) every v
      attains it.
    - g's greatest value is at peak(j, lo, hi), the least v attaining it.

    Across runs only a strictly larger maximum replaces the witness, so it
    is the lexicographically first maximizer; the ties come in walk order,
    which is sorted.  A prefix is skipped when every point under it is
    worse than the best minimum so far (value + low > best) and none beats
    the best maximum so far (value + high <= top): it holds no minimizer,
    no tie and no earlier maximizer.  Fractions are built only for the
    minimum, the maximum, the ties and the witness.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.best = self.top = self.wit = None
        self.ties: list[tuple[int, ...]] = []

    def child(self, j: int, value: int, v: int) -> int | None:
        value += (self.h[j] - self.q[j] * v) * v
        best = self.best
        if (best is not None and value + self.low[j + 1] > best
                and value + self.high[j + 1] <= self.top):
            return None
        return value

    def run(self, prefix, lo: int, hi: int, base: int):
        j = len(prefix)
        hj, qj = self.h[j], self.q[j]
        vmax = self.peak(j, lo, hi)
        top = base + (hj - qj * vmax) * vmax
        if self.top is None or top > self.top:
            self.top, self.wit = top, (*prefix, vmax)
        glo, ghi = (hj - qj * lo) * lo, (hj - qj * hi) * hi
        least = base + min(glo, ghi)
        if self.best is None or least < self.best:
            self.best, self.ties = least, []
        elif least > self.best:
            return
        if not qj and not hj:
            self.ties.extend((*prefix, v) for v in range(lo, hi + 1))
        else:
            if base + glo == least:
                self.ties.append((*prefix, lo))
            if base + ghi == least and hi != lo:
                self.ties.append((*prefix, hi))

    def result(self) -> tuple[OptResult, Fraction, tuple[Fraction, ...]]:
        if self.best is None:
            raise InfeasibleError("no integer point in the feasible region")
        fties = tuple(exact.rational_vector(p, 1) for p in self.ties)
        return (OptResult(fties[0], Fraction(self.best, self.d), fties),
                Fraction(self.top, self.d), exact.rational_vector(self.wit, 1))


class _Within(_Values):
    """The search of delta_star: the lattice points of value v with
    v * den <= cut, in walk order.  A prefix is skipped when even its least
    possible value (value + low) fails."""

    def __init__(self, inst: Instance, cut: int, den: int):
        super().__init__(inst)
        self.cut, self.den = cut, den
        self.points: list[tuple[int, ...]] = []

    def child(self, j: int, value: int, v: int) -> int | None:
        value += (self.h[j] - self.q[j] * v) * v
        return None if (value + self.low[j + 1]) * self.den > self.cut else value

    def run(self, prefix, lo: int, hi: int, base: int):
        j = len(prefix)
        hj, qj, cut, den = self.h[j], self.q[j], self.cut, self.den
        self.points += [(*prefix, v) for v in range(lo, hi + 1)
                        if (base + (hj - qj * v) * v) * den <= cut]


def _lattice_extremes(inst: Instance, box) -> tuple[OptResult, Fraction,
                                                   tuple[Fraction, ...]]:
    """The minimizer (with ties), the maximum and its lexicographically
    first maximizer over the lattice points of P, by one pruned lattice
    walk (_Extremes) of the box, taken from P's vertices when None."""
    search = _Extremes(inst)
    lattice_runs(inst.polyhedron(), box, search)
    return search.result()


def solve_iqp(inst: Instance) -> OptResult:
    """Exact lattice minimizer; ties reported, lexicographic representative."""
    return _lattice_extremes(inst, None)[0]


def solve_qp(inst: Instance) -> OptResult:
    """Continuous minimizer; a concave objective attains its min at a vertex."""
    return _vertex_minimum(_valued(inst, vertex_ints(inst.polyhedron())))


def _valued(inst: Instance, verts) -> list[tuple[list[int], int, int, int]]:
    """(X, e, num, den) for each vertex (X, e): the point X / e has the
    value num / den, an int numerator over d e^2 (Instance.int_objective)."""
    Q, H, d = inst.int_objective
    return [(X, e, _objective_numerator(Q, H, X, e), d * e * e) for X, e in verts]


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
    ties = tuple(sorted({exact.rational_vector(X, e)
                         for X, e, num, den in verts if num * bd == bn * den}))
    return OptResult(ties[0], Fraction(bn, bd), ties)


def fmax_int(inst: Instance) -> Fraction:
    return fmax_int_witness(inst)[0]


def fmax_int_witness(inst: Instance) -> tuple[Fraction, tuple[Fraction, ...]]:
    _, top, wit = _lattice_extremes(inst, None)
    return top, wit


def fmax_cont(inst: Instance) -> Fraction:
    return fmax_cont_witness(inst)[0]


def fmax_cont_witness(inst: Instance) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact max of the concave objective over the feasible region, and the
    first face's point attaining it (_face_walk).

    Raises InfeasibleError when P is empty and UnboundedError when f is
    unbounded above on P.  -f is a convex quadratic, so on a nonempty P it
    is unbounded below exactly along some r with A r <= 0, r_i = 0 for
    i < k and h.r > 0; one LP looks for such an r when the walk finds P is
    no polytope.  Without a face attaining a maximum, a nonempty P has one.
    """
    fci, wci, _, box = _face_walk(inst)
    P = inst.polyhedron()
    if box is None and (fci is not None or not is_empty(P)):
        rows, _ = P.int_rows
        k, H = inst.k, inst.int_objective[1]
        # r in the coordinates i >= k: A r <= 0 and h.r >= 1, scaled by d > 0
        if feasible_point([row[k:] for row in rows] + [[-c for c in H[k:]]],
                          [0] * len(rows) + [-1]) is not None:
            raise UnboundedError("the objective is unbounded above on the feasible region")
    if fci is None:
        raise InfeasibleError("feasible region is empty")
    return fci, wci


def _face_walk(inst: Instance):
    """The exact max fci of the concave objective over the feasible
    region, the first face's point wci attaining it, the vertices of P and
    the box for the lattice walk.

    fci and wci are None when no face attains a maximum in P; when f is
    unbounded above on P, fci may be a face's value (fmax_cont_witness
    tells the cases apart).  On a nonempty polytope, verts holds every
    vertex, valued (_valued), and box is their polyhedra.vertex_box, P's
    exact bounding box.  Otherwise verts is empty and box None, and the
    lattice walk, left to find its own box, gives no points or raises
    UnboundedError.

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
    - decided by meeting a line with P (polyhedra.line_through) when E_S
      is a line, one free direction: the face attains v_S in P exactly when
      the line meets P.  f must have the value v_S at one point of the
      line in P.  On a line of P (n - 1 rows) E_S is then that line itself;
    - otherwise, with two or more free directions, decided by the exact LP
      feasibility problem {A x <= b, E_S}, whose point must have the value
      v_S.

    The witness is the candidate of the first face attaining the maximum.
    A face whose E_S is a line has no candidate point until the end: only
    if it is still the witness then does its LP run, on the rows it would
    have had at once, so it gives the same point.  That LP must find one
    (the line meets P).
    The subsets of up to n - 2 rows come from exact.independent_row_sets,
    in that order; those of n - 1 rows from their planes, and those of n
    rows from the lines, both below.

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
    the kernel line x = (X0 + t w) / L, met with every row: the products
    A_i.w, the slacks and the interval of t on which the line lies in P
    (polyhedra.Line).  Each such S is a plane S' of n - 2 rows plus a row j
    > max S', and the line lies in the plane's two-dimensional solution
    set, which exact._solution_space gives S' as X0 and two kernel vectors
    over one L.  So the walk stops its row sets at n - 2 rows, keeps each
    plane with its solution (the one its stationarity solve already made,
    or None for a dominated plane), and after the whole level n - 2 takes
    the lines from polyhedra.edge_lines on those planes: the same ints as
    the echelon of S' plus row j gives, at O(m) ints a line, in the same
    (size, lex) order.  A line's E_S is one equation in
    t, a t = b with a = sum_i 2 Q_i w_i^2 and b = w.(L H - 2 Q X0), solved
    in closed form, and its point, at t = b / a, lies in P exactly when t
    lies in the interval.  The n-sets are S + (j,) for the rows j > max S,
    independent exactly when A_j.w != 0; their E_S is A_S x = b_S alone,
    whose point is a vertex of P exactly when row j wins the ratio test on
    the line (Line.vertices).  These leaves wait until the whole of level
    n - 1 is done: in (size, lex) order every (n - 1)-set comes before
    every n-set, so the best value each leaf is compared with, and the
    witness it may become, are those of that order.  Every line is met with
    P, dominated or not, so polyhedra.line_leaves of the lines gives every
    leaf, and whether P is a nonempty polytope, whose vertices they are.

    Everything but the LP runs on the int rows of P.  The walk gives each
    face of up to n - 2 rows the Bareiss echelon of [A_S | b_S], which
    gives A_S x = b_S as x = (X0 + W y) / L, W the int kernel basis, with
    the same ints as exact.solution_space_int; a line's X0, W = (w,) and L
    are those ints too.  With q = Q / d and h = H / d, the
    stationarity condition on these x is the (n - s) x (n - s) int system
    (W^T 2Q W) y = W^T (L H - 2Q X0); it is consistent exactly when E_S
    is, and E_S has rank s plus its rank.  Any of its solutions gives v_S,
    as an int numerator over d e^2 for the point X / e, and values are
    compared by cross-multiplying.  The line of an E_S with one free
    direction F (in y) is (X + t W^T F) / e.  The LP gets the rows of the
    canonical kernel basis W / L, exact.null_space's basis (_face_point).
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    Q, H, d = inst.int_objective
    Q2 = [2 * c for c in Q] + [0] * (n - k)
    best = None  # (numerator, denominator) of the best value so far
    wit = pending = None  # the witness, or the face whose LP gives it
    level, above, bounds = 0, {}, {}  # the faces' bounds, one level up and this one
    planes = []  # (S, echelon, pivots, solution or None) per (n - 2)-set, for its lines
    lines = []  # (S, line) per independent (n - 1)-set, for its leaves

    def faces():
        """(S, echelon, pivots, None) per independent set of at most n - 2
        rows, then (S, None, None, line) per independent set of n - 1."""
        for S, ech, pivots in exact.independent_row_sets(aug, n, 0, n - 2):
            yield S, ech, pivots, None
        for S, line in edge_lines(P, planes):
            yield S, None, None, line

    for S, ech, pivots, line in faces():
        size = len(S)
        if size > level:
            level, above, bounds = size, bounds, {}
        if line is not None:  # met anyway, for its leaves
            lines.append((S, line))
        up = above.get(S[:-1])
        if up is not None and best is not None and up[0] * best[1] <= best[0] * up[1]:
            bounds[S] = up
            if size == n - 2:
                planes.append((S, ech, pivots, None))
            continue
        if line is not None:  # a t = b, solved as exact.solution_space_int would solve it
            X0, W, L = line.X0, [line.w], line.L
            (w,) = W
            Qw = list(map(mul, Q2, w))
            a = sum(map(mul, Qw, w))
            b = L * sum(map(mul, w, H)) - sum(map(mul, Qw, X0))
            stat = ([b], [], a) if a else None if b else ([0], [[1]], 1)
        else:
            X0, W, L = exact._solution_space(ech, pivots, n)
            if size == n - 2:
                planes.append((S, ech, pivots, (X0, W, L)))
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
            if not (line.holds(Y[0], e2) if line is not None else contains_int(P, X, e)):
                continue
            pt = exact.rational_vector(X, e)
        elif len(free) == 1:  # E_S is a line, in P exactly where it meets P
            if line is not None:
                eline = line
            else:
                (f,) = free
                eline = line_through(P, X, [sum(map(mul, f, col)) for col in zip(*W)], e)
            if not eline.meets:
                continue
            tn, td = eline.lo or eline.hi or (0, 1)  # one point of the line in P
            Xt = [x * td + tn * c for x, c in zip(eline.X0, eline.w)]
            et = eline.L * td
            if _objective_numerator(Q, H, Xt, et) * den != num * d * et * et:
                raise ClaimViolation("face-constant", f"face {S}: f is not constant on E_S")
            best, wit, pending = (num, den), None, (S, W, L)
            continue
        else:
            pt = _face_point(inst, S, W, L, Fraction(num, den))
            if pt is None:
                continue
        best, wit, pending = (num, den), tuple(pt), None
    leaves, polytope = line_leaves(lines)
    verts = _valued(inst, leaves)
    for X, e, num, den in verts:  # the leaves S + (j,), in (S, j) order
        if best is None or num * best[1] > best[0] * den:
            best, wit, pending = (num, den), exact.rational_vector(X, e), None
    if best is None:
        return None, None, [], None
    if pending is not None:
        S, W, L = pending
        pt = _face_point(inst, S, W, L, Fraction(*best))
        if pt is None:
            raise ClaimViolation("face-lp", f"face {S}: the LP finds no point of E_S in P")
        wit = tuple(pt)
    if not polytope:
        return Fraction(*best), wit, [], None
    return Fraction(*best), wit, verts, vertex_box(leaves)


def _face_point(inst: Instance, S, W, L: int, value: Fraction) -> list[Fraction] | None:
    """The exact LP feasibility problem {A x <= b, E_S} of the face S, with
    the kernel basis W / L of A_S: its point, or None when it has none.  f
    must have the face's value there.  The gradient rows are read off the
    int objective, over L d."""
    P = inst.polyhedron()
    Q, H, d = inst.int_objective
    pad = [ZERO] * (inst.n - inst.k)
    lp_rows = [list(row) for row in P.A]
    lp_rhs = list(P.b)
    for i in S:
        lp_rows.append([-c for c in P.A[i]])
        lp_rhs.append(-P.b[i])
    for w in W:
        # (w / L) . grad f = (sum_i w_i H_i - 2 sum_{i<k} w_i Q_i x_i) / (L d) = 0
        coeff = [Fraction(2 * x * c, L * d) for x, c in zip(w, Q)] + pad
        val = Fraction(sum(map(mul, w, H)), L * d)
        lp_rows += [coeff, [-c for c in coeff]]
        lp_rhs += [val, -val]
    pt = feasible_point(lp_rows, lp_rhs)
    if pt is not None and eval_objective(inst, pt) != value:
        raise ClaimViolation("face-constant", f"face {S}: f is not constant on E_S")
    return pt


def full_report(inst: Instance) -> OracleReport:
    """Every oracle quantity from one face walk and one lattice walk.

    The face walk gives the continuous maximum, the vertices and the box;
    the pruned lattice walk gives the integer extremes, and the vertices the
    continuous minimum.
    """
    fci, wci, verts, box = _face_walk(inst)
    iqp, fdi, wdi = _lattice_extremes(inst, box)
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
    v = lo, the degenerate verdict.  lo and hi come from the pruned walk of
    the face walk's box (_lattice_extremes), and the passing points from a
    second walk of that box pruned against the cut (_Within).  Each tied
    optimum is scaled once, to X / e, and its distance to a lattice point
    p is max_i |X_i - e p_i| / e, compared as ints; Fractions are built
    only for the result.
    """
    eps = checked_eps(eps)
    _, _, verts, box = _face_walk(inst)
    iqp, top, _ = _lattice_extremes(inst, box)
    qp = _vertex_minimum(verts)
    d = inst.int_objective[2]
    lo, hi = (iqp.value * d).numerator, (top * d).numerator
    cut = lo * eps.denominator + eps.numerator * (hi - lo)  # v passes iff v * den <= cut
    within = _Within(inst, cut, eps.denominator)
    lattice_runs(inst.polyhedron(), box, within)
    approx = within.points
    if not approx:
        raise InfeasibleError("no eps-approximate lattice point exists")
    best = pair = None  # best is the distance num / den of the pair
    for xc in qp.ties:
        X, e = exact.integer_vector(xc)
        for p in approx:
            dist = max([abs(x - e * v) for x, v in zip(X, p)])
            if best is None or dist * best[1] < best[0] * e:
                best, pair = (dist, e), (xc, p)
    flag = False
    for a, b in combinations(qp.ties, 2):
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        if eval_objective(inst, mid) == qp.value:
            flag = True
            break
    return DeltaStarResult(Fraction(*best), pair[0], exact.rational_vector(pair[1], 1),
                           tuple(exact.rational_vector(p, 1) for p in approx), flag)


def certify_no_cont_approx_within(inst: Instance, eps, xd, radius) -> bool:
    """Certify that no continuous eps-approximation lies in a box around xd.

    True means: min of f over the feasible region intersected with the
    infinity-norm ball of the given radius around xd strictly exceeds the
    approximation threshold f(x^c) + eps (f_max - f(x^c)), so every point of
    the box fails the verdict.
    """
    eps = checked_eps(eps)
    fmax, _, verts, _ = _face_walk(inst)
    # A polytope's vertices hold the continuous minimum.  Without vertices
    # P is empty or not a polytope, and solve_qp raises InfeasibleError or
    # UnboundedError.
    qp = _vertex_minimum(verts) if verts else solve_qp(inst)
    tau = qp.value + eps * (fmax - qp.value)
    box = intersect_with_box(inst.polyhedron(), xd, radius)
    corners = vertex_ints(box)
    return not corners or _vertex_minimum(_valued(inst, corners)).value > tau


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
