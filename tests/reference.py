"""One textbook reference per quantity, for the tests to compare with.

Each reference below is written from the definition of its quantity, as
slowly as it likes: the vertices, the lattice points, the edge lines, the
faces, the continuous maximum f_max with its witness, the largest
subdeterminant Delta with its witness, the cone generators, and the
oracles' integer extremes and vertex minimum, with the determinant, the
int rows, Gauss-Jordan elimination and Fraction forms of the vector
arithmetic and of f.  They share no kernel with the paths they check, but
for the edge lines, read off the package's int echelon of each row set
alone, the package's exact LP of f_max's faces and of the faces of P, and
the full report's f_max, taken from the package.  A path of the package is
compared with the reference of its quantity; code a path replaced is not
kept beside it.

The last section keeps the few references that check what no textbook
reference can: the order of a walk's calls, the pivots of a simplex rule,
and the Fraction forms of the pipeline's steps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain, combinations, permutations, product
from math import gcd
from operator import mul
from typing import NamedTuple

from iqprox import cones, exact, oracles, pipeline, polyhedra
from iqprox.cones import (ConicDecomposition, build_cone, caratheodory_decompose,
                          enumerate_generators)
from iqprox.errors import (ClaimViolation, DimensionError, DomainError, InfeasibleError,
                           InputError, RepresentationMismatch)
from iqprox.pipeline import (Instance, MidpointWitnesses, PipelineResult, StepRecord,
                             restricted_polyhedron, subdeterminant_bound)
from iqprox.polyhedra import bounding_box, polyhedron
from iqprox.simplex import lp_solve

# ---------------------------------------------------------------------------
# Arithmetic: Fraction forms and the definitions of det and int rows.


def dot(u, v) -> F:
    """u.v of int or Fraction vectors, summed from Fraction 0."""
    assert len(u) == len(v)
    return sum(map(mul, u, v), F(0))


def objective(inst, x) -> F:
    """f(x) = h.x - sum_{i<k} q_i x_i^2 in Fractions."""
    xv = [F(v) for v in x]
    if len(xv) != inst.n:
        raise DimensionError(f"point has dim {len(xv)}, instance has {inst.n}")
    quad = sum((-inst.q[i] * xv[i] * xv[i] for i in range(inst.k)), F(0))
    return quad + dot(inst.h, xv)


def rational_rows(P) -> tuple[tuple[tuple[F, ...], ...], tuple[F, ...]]:
    """P's rows A and b as Fractions: row i is its int row over scales[i]."""
    rows, rhs = P.int_rows
    return (tuple(tuple(F(x, d) for x in row) for row, d in zip(rows, P.scales)),
            tuple(F(c, d) for c, d in zip(rhs, P.scales)))


def combine(dec, n: int) -> list[F]:
    """sum_i c_i g_i over a ConicDecomposition's generators g_i and
    coefficients c_i, in Fractions."""
    out = [F(0)] * n
    for g, c in zip(dec.generators, dec.coefficients):
        out = [o + c * x for o, x in zip(out, g)]
    return out


def det(M):
    """The Leibniz formula: a sum over every permutation, signed by its
    inversions, in the entries' own arithmetic, so an int matrix has an
    int determinant; 1 for the empty matrix."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def integer_matrix(M) -> list[list[int]]:
    """M's entries as ints, row by row: InputError at the first entry that
    is neither an int nor a Fraction, and DomainError at the first row
    with an entry that is no integer."""
    out = []
    for row in M:
        for x in row:
            if not isinstance(x, (int, F)):
                raise InputError(f"a number must be an int or a Fraction, "
                                 f"not {type(x).__name__}")
        if any(F(x).denominator != 1 for x in row):
            raise DomainError("subdeterminants are defined here for integer matrices only")
        out.append([int(x) for x in row])
    return out


def echelon(M):
    """Gauss-Jordan elimination kept in ints: each row of M scaled to ints,
    a row cleared by cross-multiplying it with the pivot row and divided by
    its gcd.  The rows, in order, and the pivot columns: row r, for each
    pivot, is row r of the reduced row echelon form times its pivot
    row[pivots[r]], and the rows after the last pivot are zero."""
    a = []
    for row in M:
        row = [x if isinstance(x, (int, F)) else F(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                row = [top[c] * x - f * y for x, y in zip(row, top)]
                g = gcd(*row) or 1  # 1 for a row cleared to zero
                a[i] = [x // g for x in row]
        pivots.append(c)
    return a, pivots


def rref(M):
    """The reduced row echelon form of M in Fractions, off its echelon, and
    its pivot columns."""
    a, pivots = echelon(M)
    return [[F(x, row[p]) for x in row] for row, p in zip(a, pivots)] + [
        [F(0)] * len(row) for row in a[len(pivots):]], pivots


def solve(M, rhs):
    """One solution of M x = rhs, its free coordinates 0, and the rank of
    M, read off the echelon of [M | rhs]; None when inconsistent."""
    n = len(M[0])
    a, pivots = echelon([[*row, b] for row, b in zip(M, rhs)])
    if n in pivots:  # a pivot in the rhs column is the equation 0 = 1
        return None
    x = [F(0)] * n
    for row, p in zip(a, pivots):
        x[p] = F(row[n], row[p])
    return x, len(pivots)


def null_space(M, n: int) -> list[list[F]]:
    """The canonical kernel basis of M, with n columns, off its echelon:
    per free column one vector, 1 there and 0 at the other free columns."""
    a, pivots = echelon(M) if M else ([], [])
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [F(0)] * n
        v[f] = F(1)
        for row, p in zip(a, pivots):
            v[p] = F(-row[f], row[p])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Polyhedra: membership, vertices, lattice points and edge lines.


def contains(P, x) -> bool:
    """Whether A x <= b holds on P's Fraction rows."""
    xv = [F(v) for v in x]
    return all(sum(map(mul, row, xv)) <= bi for row, bi in zip(*rational_rows(P)))


def vertices(P) -> list[tuple[F, ...]]:
    """The sorted vertices of P: the points of P that solve some n rows of
    rank n, one Fraction solve per n-row subset.  [] for an empty P; an
    unbounded P raises bounding_box's UnboundedError."""
    if bounding_box(P) is None:
        return []
    found = set()
    A, b = rational_rows(P)
    for S in combinations(range(P.m), P.n):
        sol = solve([A[i] for i in S], [b[i] for i in S])
        if sol is not None and sol[1] == P.n and contains(P, sol[0]):
            found.add(tuple(sol[0]))
    return sorted(found)


def lattice_points(P) -> list[tuple[int, ...]]:
    """The integer points of P in lexicographic order, as int tuples: a
    scan of the integer box of bounding_box's ranges.  [] for an empty P;
    an unbounded P raises bounding_box's UnboundedError."""
    box = bounding_box(P)
    if box is None:
        return []
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box]
    return [p for p in product(*ranges) if contains(P, p)]


def vertex_box(verts):
    """The box of lattice_runs over vertices (X, e, ...), the points X / e:
    each coordinate's least and greatest value times the lcm D of the e,
    as ints, and D; None without a vertex."""
    if not verts:
        return None
    D = math.lcm(*(v[1] for v in verts))
    cols = list(zip(*([F(x, v[1]) for x in v[0]] for v in verts)))
    return [int(min(c) * D) for c in cols], [int(max(c) * D) for c in cols], D


def runs(points) -> list[tuple[tuple[int, ...], int, int]]:
    """Sorted integer points as runs (prefix, lo, hi): the points
    (*prefix, v), lo <= v <= hi, each run as long as it goes."""
    out = []
    for p in points:
        if out and out[-1][0] == p[:-1] and out[-1][2] + 1 == p[-1]:
            out[-1] = (p[:-1], out[-1][1], p[-1])
        else:
            out.append((p[:-1], p[-1], p[-1]))
    return out


class ListLine(NamedTuple):
    """The line x = (X0 + t w) / L against P's int rows, as lists: each
    row's product A_i.w (dots) and slack L b_i - A_i.X0 (slacks), and from
    them the interval [lo, hi] of t in P and whether the line meets P (see
    polyhedra._ratio_test for the fields)."""

    X0: list[int]
    w: list[int]
    L: int
    dots: list[int]
    slacks: list[int]
    lo: tuple[int, int] | None
    hi: tuple[int, int] | None
    meets: bool

    @property
    def recedes(self) -> bool:
        return self.lo is None or self.hi is None

    def vertices(self, start):
        """(X, e) for each row j >= start, in order, whose ratio is the end
        of the interval the line lies in P on: the point X / e, e > 0."""
        if not self.meets:
            return
        X0, w, L = self.X0, self.w, self.L
        for j in range(start, len(self.dots)):
            dot_j, s = self.dots[j], self.slacks[j]
            if not dot_j:
                continue
            end = self.hi if dot_j > 0 else self.lo
            if s * end[1] != end[0] * dot_j:
                continue
            e = abs(dot_j)
            if dot_j < 0:
                s = -s
            yield [(e * x + s * y) // L for x, y in zip(X0, w)], e


def list_line(X0, w, L, dots, slacks) -> ListLine:
    """The ListLine of the given products and slacks: each row with
    A_i.w > 0 bounds t above by slack_i / A_i.w, each with A_i.w < 0
    below, and one with A_i.w = 0 holds on all of the line or none."""
    lo = hi = None
    meets = True
    for d, s in zip(dots, slacks):
        if d > 0:
            if hi is None or s * hi[1] < hi[0] * d:
                hi = (s, d)
        elif d < 0:
            if lo is None or lo[0] * -d < -s * lo[1]:
                lo = (-s, -d)
        elif s < 0:
            meets = False
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        meets = False
    return ListLine(X0, w, L, dots, slacks, lo, hi, meets)


def list_line_through(P, X0, w, L) -> ListLine:
    """The ListLine (X0 + t w) / L with one dot product per row of P."""
    rows, rhs = P.int_rows
    return list_line(X0, w, L, [sum(map(mul, row, w)) for row in rows],
                     [L * c - sum(map(mul, row, X0)) for row, c in zip(rows, rhs)])


def edge_lines(P) -> list[tuple[tuple[int, ...], ListLine]]:
    """(S, line) for each independent set S of n - 1 int rows, in (size,
    lex) order, each line from the echelon of S alone: exact._solution_space
    and list_line_through.  For n = 1 the empty set's line is the axis."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    out = []
    for S, a, pivots in exact.independent_row_sets(aug, n, n - 1, n - 1):
        X0, (w,), L = exact._solution_space(a, pivots, n)
        out.append((S, list_line_through(P, X0, w, L)))
    return out


def reference_lp_faces(P):
    """enumerate_faces by LP: each row set S forced to equality whose face
    is nonempty, with its maximal equality set found by one LP per row."""
    polyhedra.assert_bounded(P)
    if polyhedra.is_empty(P):
        return []
    faces, infeasible = {}, []
    A, b = rational_rows(P)
    for size in range(P.m + 1):
        for S in map(frozenset, combinations(range(P.m), size)):
            if any(bad <= S for bad in infeasible):
                continue
            Q = polyhedron([*A, *([-c for c in A[i]] for i in S)],
                           [*b, *(-b[i] for i in S)], P.n)
            if lp_solve(Q, [F(0)] * P.n, "min").status == "infeasible":
                infeasible.append(S)
                continue
            E = frozenset(S | {i for i in range(P.m) if i not in S
                               and lp_solve(Q, list(A[i]), "min").objective == b[i]})
            faces.setdefault(E, P.n - exact.rank([list(A[i]) for i in sorted(E)]))
    return sorted((polyhedra.Face(E, d) for E, d in faces.items()),
                  key=lambda f: (len(f.equality_rows), sorted(f.equality_rows)))


# ---------------------------------------------------------------------------
# The continuous maximum, Delta and the cone generators.


def fmax_cont_witness(inst, vertices=None):
    """The continuous maximum f_max of f over P and its witness, one face
    at a time in Fractions.

    Every subset S of at most n rows, in itertools.combinations' (size,
    lex) order, whose rows are independent gets its stationarity solve
    [A_S; 2 W^T Q] x = [b_S; W^T h], W the null_space of A_S and Q the
    diagonal of q padded with zeros: the maximum of f over the affine hull
    of S's face, whose value v_S = f(x) (objective) bounds f there.  A
    face that cannot raise the best value so far is skipped; one with a
    single stationary point is decided by membership, and one with more by
    the exact LP {A x <= b, A_S x = b_S, W^T grad f(x) = 0}
    (oracles.feasible_point), whose point must have the value v_S.  The
    first face attaining the maximum gives the witness.

    With a vertices list, the n-row sets whose point lies in P are
    appended to it as (X, e, num, den) by Cramer's rule on P's int rows:
    e = |det A_S|, the point X / e, in P when every int row has
    row.X <= e rhs, and its value num / den with den = d e^2, d the lcm of
    the denominators of q and h.  None is appended once some line of n - 1
    independent rows recedes (P is then no polytope).
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    A, b = rational_rows(P)  # the LP's rows
    d = math.lcm(*(F(c).denominator for c in inst.q + inst.h))
    best = wit = None
    collect = vertices is not None
    for size in range(min(n, P.m) + 1):
        for S in combinations(range(P.m), size):
            A_S = [rows[i] for i in S]  # A_S x = b_S on the int rows
            W = null_space(A_S, n) if size < n else []
            if len(W) != n - size:  # S is dependent
                continue
            if collect and size == n - 1:  # the line's direction, scaled to ints
                scale = math.lcm(*(x.denominator for x in W[0]))
                w = [x.numerator * (scale // x.denominator) for x in W[0]]
                dots = [sum(map(mul, row, w)) for row in rows]
                collect = not (all(t <= 0 for t in dots) or all(t >= 0 for t in dots))
            # w . grad f = w . h - 2 sum_{i<k} w_i q_i x_i = 0
            grad = [[2 * w[i] * inst.q[i] if i < k else F(0) for i in range(n)] for w in W]
            gval = [dot(w, inst.h) for w in W]
            sol = solve(A_S + grad, [rhs[i] for i in S] + gval)
            if sol is None or (size == n and sol[1] < n):  # or n dependent rows
                continue
            x, rank = sol
            v = objective(inst, x)
            vertex = collect and size == n
            if vertex:
                e = abs(det([rows[i] for i in S]))
                X = [int(c * e) for c in x]  # ints, by Cramer's rule
                if any(sum(map(mul, row, X)) > e * c for row, c in zip(rows, rhs)):
                    continue  # X / e is not in P
                den = d * e * e
                vertices.append((X, e, int(v * den), den))
            if best is not None and v <= best:
                continue
            if rank == n:
                if not vertex and not contains(P, x):
                    continue
                pt = x
            else:
                lp_rows = [*A, *([-c for c in A[i]] for i in S)]
                lp_rhs = [*b, *(-b[i] for i in S)]
                for coeff, val in zip(grad, gval):
                    lp_rows += [coeff, [-c for c in coeff]]
                    lp_rhs += [val, -val]
                pt = oracles.feasible_point(polyhedron(lp_rows, lp_rhs, n))
                if pt is None:
                    continue
                if objective(inst, pt) != v:
                    raise ClaimViolation("face-constant",
                                         f"face {S}: f is not constant on E_S")
            best, wit = v, tuple(pt)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return best, wit


def delta_witness(a) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The largest |minor| of an int matrix over every square submatrix,
    1x1 ones included, by det, in (size, lex) order: the witness is the
    first submatrix that attains the value; (0, (), ()) when none is
    nonzero."""
    m = len(a)
    n = len(a[0]) if m else 0
    best, best_rows, best_cols = 0, (), ()
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                d = abs(det([[a[r][c] for c in cols] for r in rows]))
                if d > best:
                    best, best_rows, best_cols = d, rows, cols
    return best, best_rows, best_cols


def generators(cone, delta):
    """The cone's primitive int generators, each a tuple of Fractions,
    sorted: one null_space per (n-1)-subset of the hyperplanes, in
    combinations order, the cone's rows and the unit rows, each once up to
    a positive scale.  Each line they leave is kept, as its primitive int
    directions, where the cone's rows hold (A1 r <= 0, A2 r >= 0); the
    generator-norm claim fails on one beyond delta."""
    if delta < 1:
        raise InputError("delta must be a positive integer")
    n = cone.ambient_dim
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    hyperplanes = {}
    for r in chain(cone.a1, cone.a2, units):
        lead = next((x for x in r if x), 0)
        if lead:
            g = gcd(*r) if lead > 0 else -gcd(*r)
            hyperplanes[tuple(x // g for x in r)] = None
    found = set()
    for M in combinations(hyperplanes, n - 1):
        W = null_space(M, n)
        if len(W) != 1:
            continue
        scale = math.lcm(*(x.denominator for x in W[0]))
        line = [int(x * scale) for x in W[0]]
        g = gcd(*line)
        line = [x // g for x in line]
        for r in (line, [-x for x in line]):
            if (all(sum(map(mul, a, r)) <= 0 for a in cone.a1)
                    and all(sum(map(mul, a, r)) >= 0 for a in cone.a2)):
                if max(map(abs, r)) > delta:
                    raise ClaimViolation(
                        "generator-norm",
                        f"generator {tuple(r)} exceeds the subdeterminant bound {delta}")
                found.add(tuple(r))
    return tuple(tuple(map(F, g)) for g in sorted(found))


# ---------------------------------------------------------------------------
# The oracles' optima: the lattice extremes, the vertex minimum and the
# full report, every value f in Fractions (objective).


def reference_lattice_extremes(inst, pts):
    """oracles._lattice_extremes over the lattice points pts: the minimizer
    with its ties in sorted order, the maximum and its lexicographically
    first maximizer, every point a Fraction tuple.  InfeasibleError for no
    point."""
    if not pts:
        raise InfeasibleError("no integer point in the feasible region")
    pts = [tuple(map(F, p)) for p in pts]
    vals = [objective(inst, p) for p in pts]
    best, top = min(vals), max(vals)
    ties = tuple(sorted(p for p, v in zip(pts, vals) if v == best))
    wit = min(p for p, v in zip(pts, vals) if v == top)
    return oracles.OptResult(ties[0], best, ties), top, wit


def reference_vertex_minimum(inst, verts):
    """The continuous optimum over Fraction vertices."""
    if not verts:
        raise InfeasibleError("feasible region is empty")
    vals = [(objective(inst, v), v) for v in verts]
    best = min(v for v, _ in vals)
    ties = tuple(sorted(p for v, p in vals if v == best))
    return oracles.OptResult(ties[0], best, ties)


def reference_full_report(inst):
    """full_report on the reference's lattice points and vertices, with
    the package's f_max and its witness."""
    P = inst.polyhedron()
    iqp, fdi, wdi = reference_lattice_extremes(inst, lattice_points(P))
    qp = reference_vertex_minimum(inst, vertices(P))
    fci, wci = oracles.fmax_cont_witness(inst)
    return oracles.OracleReport(iqp, qp, fdi, wdi, fci, wci)


# ---------------------------------------------------------------------------
# References of what no textbook reference shows: the pipeline's steps in
# Fractions, each with the claims it checks; the order of the lattice walk's
# search calls; and the pivots of the simplex's Bland rule.


def reference_normalized_rhs(inst, xd):
    return tuple(bi - dot(row, xd) for row, bi in zip(*rational_rows(inst.P)))


def reference_normalized_h(inst, xd):
    """h shifted to xd by Fraction arithmetic: h_i - 2 xd_i q_i for i < k."""
    return tuple(h - 2 * x * inst.q[i] if i < inst.k else h
                 for i, (h, x) in enumerate(zip(inst.h, xd)))


def reference_restricted_polyhedron(inst, zset):
    """The +-e_i rows appended and every entry re-wrapped by `polyhedron`."""
    A, b = rational_rows(inst.P)
    rows, rhs = [list(r) for r in A], list(b)
    for i in sorted(zset):
        e = [F(int(j == i)) for j in range(inst.n)]
        rows += [e, [-x for x in e]]
        rhs += [F(0), F(0)]
    return polyhedron(rows, rhs, inst.n)


def reference_compute_schedule(n, delta, k, eps):
    """compute_schedule in Fraction arithmetic, chi_1 by its own rule."""
    eps = F(eps)
    nd = F(n * delta)
    chi, psi = [], []
    acc = F(0)  # running sum of delta * chi_i
    for _ in range(k):
        if not chi:
            c = 8 * nd / eps + 2 * nd
        else:
            c = 2 * nd + F(8) / eps * (acc + nd)
        chi.append(c)
        acc += delta * c
        psi.append(acc)
    bound = nd * (10 * delta / eps + 1) ** k
    if k and psi[-1] + nd > bound:
        raise ClaimViolation("schedule-bound", f"psi_k + n*delta = {psi[-1] + nd} > {bound}")
    return pipeline.Schedule(eps, n, delta, k, tuple(chi), tuple(psi), bound)


def reference_normalize(inst, xd):
    """normalize with the anchor in Fractions and a Fraction `contains`."""
    xdv = tuple(F(x) for x in xd)
    if not exact.is_integral_vec(xdv):
        raise InputError("anchor point must be integer")
    P = inst.polyhedron()
    if not contains(P, xdv):
        raise InputError("anchor point must be feasible")
    P2 = polyhedra.translate(P, [x.numerator for x in xdv])
    h2 = tuple(inst.h[i] - 2 * inst.q[i] * xdv[i] if i < inst.k else inst.h[i]
               for i in range(inst.n))
    return Instance(P2, inst.k, inst.q, h2), xdv


def reference_build_sequence(inst, xc, schedule, delta):
    """build_sequence with every point in Fractions, x_c - x_j through
    `vec_sub` and a Fraction `contains`, and every norm an `inf_norm`."""
    P = inst.polyhedron()
    x = tuple(F(v) for v in xc)
    xcv = x
    trace = []
    j = 0
    while True:
        z = frozenset(i for i in range(inst.k) if x[i] == 0)
        nset = frozenset(range(inst.k)) - z
        drift = exact.vec_sub(xcv, x)
        if not contains(P, drift):
            raise ClaimViolation("xell-a", f"x^c - x^{j} left the polyhedron")
        if all(abs(x[i]) > schedule.chi[j] for i in nset):
            trace.append(StepRecord(j, x, z, nset, termination_reason="all-large"))
            break
        s = min(nset, key=lambda i: (abs(x[i]), i))
        if exact.inf_norm(x) <= delta * abs(x[s]):
            trace.append(StepRecord(j, x, z, nset, s=s, termination_reason="small-norm"))
            break
        if j >= inst.k:
            raise ClaimViolation("sequence-length", "more than k steps taken")
        nxt, rec = reference_one_step(inst, x, z, delta)
        rec.j = j
        trace.append(rec)
        if exact.inf_norm(exact.vec_sub(x, nxt)) > delta * schedule.chi[j]:
            raise ClaimViolation("xell-step", f"step {j} exceeded delta*chi_{j + 1}")
        if sum(nxt[i] == 0 for i in range(inst.k)) <= len(z):
            raise ClaimViolation("zero-growth", "zero set did not grow")
        x = nxt
        j += 1
    ell = trace[-1].j
    if ell > inst.k:
        raise ClaimViolation("sequence-length", f"ell={ell} > k={inst.k}")
    if exact.inf_norm(drift) > schedule.psi_at(ell):
        raise ClaimViolation("xell-b", "endpoint drifted beyond psi_ell")
    return x, trace


def reference_one_step(inst, xa, zset, delta):
    """one_step with every point in Fractions: the greedy coefficients, the
    next point through `vec_sub`, the two representations compared as
    Fraction vectors, and each membership a Fraction `contains`."""
    xav = tuple(F(v) for v in xa)
    P = inst.polyhedron()
    if len(xav) != inst.n:
        raise DimensionError(f"point has dim {len(xav)}, polyhedron has {inst.n}")
    if not contains(P, xav):
        raise InputError("step input must be feasible")
    z = frozenset(i for i in range(inst.k) if xav[i] == 0)
    nset = frozenset(range(inst.k)) - z
    if z != frozenset(zset):
        raise InputError("supplied zero set does not match the point")
    if not nset:
        raise InputError("all quadratic coordinates are already zero")
    s = min(nset, key=lambda i: (abs(xav[i]), i))
    if exact.inf_norm(xav) <= delta * abs(xav[s]):
        raise InputError("caller should have terminated: small-norm condition holds")

    Pt, cone, dec = reference_conic_step(inst, z, xav, delta)

    sgn = 1 if xav[s] > 0 else -1
    selected = [i for i, g in enumerate(dec.generators)
                if g[s] != 0 and (g[s] > 0) == (sgn > 0)]
    residual = abs(xav[s])
    lam = [F(0)] * len(dec.generators)
    for i in selected:
        if residual == 0:
            break
        g = dec.generators[i]
        take = min(dec.coefficients[i], residual / abs(g[s]))
        lam[i] = take
        residual -= take * abs(g[s])
    if residual != 0:
        raise ClaimViolation("onestep", "greedy coefficients cannot cover x_s")

    neg = ConicDecomposition([dec.generators[i] for i in selected if lam[i] != 0],
                             [lam[i] for i in selected if lam[i] != 0])
    xb = tuple(exact.vec_sub(xav, combine(neg, inst.n)))

    rest = [(g, c - l) for g, c, l in zip(dec.generators, dec.coefficients, lam) if c != l]
    pos = ConicDecomposition([g for g, _ in rest], [c for _, c in rest])
    for combo in (pos, neg):
        for g, c in zip(combo.generators, combo.coefficients):
            if c < 0:
                raise InputError("combination coefficients must be nonnegative")
            if not cones.cone_contains(cone, g):
                raise InputError(f"generator {g} is not in the cone")
    p1 = combine(pos, inst.n)
    p2 = exact.vec_sub(xav, combine(neg, inst.n))
    if p1 != p2:
        raise RepresentationMismatch(f"representations differ: {p1} vs {p2}")
    if not contains(Pt, p1):
        raise ClaimViolation("onestep-iii", "common point escaped the polyhedron")

    if any(xb[i] != 0 for i in z | {s}):
        raise ClaimViolation("onestep-i", f"coordinate not zeroed at {sorted(z | {s})}")
    if exact.inf_norm(exact.vec_sub(xav, xb)) > delta * abs(xav[s]):
        raise ClaimViolation("onestep-ii", "step moved too far")
    if not contains(P, xb):
        raise ClaimViolation("onestep", "step output left the polyhedron")

    rec = StepRecord(j=-1, x_j=xav, z_set=z, n_set=nset, s=s, lam=lam, decomposition=dec)
    return xb, rec


def reference_conic_step(inst, zset, x, delta):
    P = restricted_polyhedron(inst, zset)
    cone = build_cone(P.int_rows[0], exact.integer_vector(x)[0])
    return P, cone, caratheodory_decompose(list(x), enumerate_generators(cone, delta))


def reference_construct_outputs(inst, xc, x_ell, trace, schedule, delta):
    """construct_outputs with every point in Fractions and every membership
    claim a Fraction `contains`."""
    xcv = tuple(F(v) for v in xc)
    n = inst.n
    nd = F(n * delta)
    last = trace[-1]
    ell = last.j
    origin = tuple([F(0)] * n)
    P = inst.polyhedron()

    if last.termination_reason == "small-norm":
        if exact.inf_norm(xcv) > schedule.psi_at(ell + 1):
            raise ClaimViolation("c1-distance", "anchors further apart than psi_{ell+1}")
        dist = exact.inf_norm(xcv)
        return PipelineResult(
            case="c1", x_ell=tuple(x_ell), x_star_int=origin, x_star_cont=xcv,
            trace=trace, distance_int=dist, distance_cont=dist,
            schedule=schedule, delta=delta, xc=xcv, xd=origin,
            z_ell=last.z_set)

    zl = last.z_set
    Pbar, _, dec = reference_conic_step(inst, zl, x_ell, delta)
    floors = [math.floor(c) for c in dec.coefficients]
    xstar = tuple(combine(ConicDecomposition(dec.generators, floors), n))
    xcont = tuple(exact.vec_sub(xcv, xstar))

    if not exact.is_integral_vec(xstar):
        raise ClaimViolation("xstar-integrality", "rounded point is not integer")
    if exact.inf_norm(exact.vec_sub(x_ell, xstar)) > nd:
        raise ClaimViolation("floor-residual", "||x_ell - x_star|| > n*delta")
    if not contains(Pbar, xstar):
        raise ClaimViolation("xstar-membership", "x_star left the restricted polyhedron")
    nl = last.n_set
    if nl and ell < inst.k:
        thresh = schedule.chi[ell] - nd
        if any(abs(xstar[i]) < thresh for i in nl):
            raise ClaimViolation("xstar-d", "a surviving coordinate is too small")
    zstar = frozenset(i for i in range(inst.k) if xstar[i] == 0)
    if zstar != zl:
        raise ClaimViolation("xstar-e", f"zero sets differ: {sorted(zstar)} vs {sorted(zl)}")
    dist = exact.inf_norm(exact.vec_sub(xcv, xstar))
    if dist > schedule.psi_at(ell) + nd:
        raise ClaimViolation("xstar-f", "||x_c - x_star|| > psi_ell + n*delta")
    if not contains(P, xcont):
        raise ClaimViolation("xstar-g", "x_c - x_star left the polyhedron")

    return PipelineResult(
        case="c2", x_ell=tuple(x_ell), x_star_int=xstar, x_star_cont=xcont,
        trace=trace, distance_int=dist, distance_cont=dist,
        schedule=schedule, delta=delta, xc=xcv, xd=origin,
        z_ell=zl, decomposition=dec)


def reference_midpoint_witnesses(inst, result):
    n = inst.n
    nd = F(n * result.delta)
    dec = result.decomposition
    x_tri = tuple(x / 2 for x in result.x_star_int)
    floors = [math.floor(c) for c in dec.coefficients]
    xl, xr = (tuple(combine(ConicDecomposition(dec.generators, cs), n))
              for cs in ([f // 2 for f in floors], [f - f // 2 for f in floors]))
    Pbar = restricted_polyhedron(inst, result.z_ell)
    if not (exact.is_integral_vec(xl) and exact.is_integral_vec(xr)):
        raise ClaimViolation("witness-integrality", "parity split is not integer")
    if tuple((a + b) / 2 for a, b in zip(xl, xr)) != x_tri:
        raise ClaimViolation("witness-midpoint", "parity split misses the midpoint")
    if not (contains(Pbar, xl) and contains(Pbar, xr)):
        raise ClaimViolation("witness-membership", "a witness left the restricted polyhedron")
    if exact.inf_norm(exact.vec_sub(xr, xl)) > nd:
        raise ClaimViolation("witness-span", "||x_r - x_l|| > n*delta")
    x_dia = tuple((a + b) / 2 for a, b in zip(result.xc, result.x_star_cont))
    if not contains(inst.polyhedron(), x_dia):
        raise ClaimViolation("witness-diamond", "continuous midpoint left the polyhedron")
    return MidpointWitnesses(x_tri, xl, xr, x_dia)


def reference_run_pipeline(inst, eps, xc, xd):
    """run_pipeline on the reference construction: the Fraction
    normalize, schedule, sequence, rounding step and tail."""
    xcv = tuple(F(v) for v in xc)
    xdv = tuple(F(v) for v in xd)
    P = inst.polyhedron()
    if not contains(P, xcv):
        raise InputError("continuous anchor is infeasible")
    delta = subdeterminant_bound(inst)
    norm_inst, shift = reference_normalize(inst, xdv)
    sched = reference_compute_schedule(inst.n, delta, inst.k, eps)
    yc = tuple(exact.vec_sub(xcv, shift))
    y_ell, trace = reference_build_sequence(norm_inst, yc, sched, delta)
    norm_result = reference_construct_outputs(norm_inst, yc, y_ell, trace, sched, delta)
    if norm_result.case == "c2":
        norm_result.witnesses = reference_midpoint_witnesses(norm_inst, norm_result)

    back = lambda v: tuple(exact.vec_add(v, shift))
    result = replace(
        norm_result,
        x_ell=back(norm_result.x_ell),
        x_star_int=back(norm_result.x_star_int),
        x_star_cont=back(norm_result.x_star_cont),
        xc=xcv, xd=xdv,
        normalized=norm_result)
    if result.distance_int > sched.theorem_bound:
        raise ClaimViolation("theorem-bound", "integer output beyond the proven distance")
    if result.distance_cont > sched.theorem_bound:
        raise ClaimViolation("theorem-bound", "continuous output beyond the proven distance")
    if not exact.is_integral_vec(result.x_star_int):
        raise ClaimViolation("xstar-integrality", "integer output is not integral")
    if not contains(P, result.x_star_int):
        raise ClaimViolation("xstar-feasible", "integer output is infeasible")
    if not contains(P, result.x_star_cont):
        raise ClaimViolation("xstarc-feasible", "continuous output is infeasible")
    return result


class KeepAll:
    """The search of the recursive walk without one: every prefix kept."""

    def start(self, lo, hi):
        return 0

    def child(self, j, value, v):
        return value

    def run(self, prefix, lo, hi, value):
        pass


def recursive_lattice_runs(P, box=None, search=None):
    """The order of polyhedra.lattice_runs' search calls: the walk with
    every level recursive, each child prefix with a slack list of its own,
    and every run reached kept and returned, with a search or without."""
    if box is None:
        verts = polyhedra.vertex_ints(P)
        if not verts:
            return []
        box = polyhedra.vertex_box(verts)
    if search is None:
        search = KeepAll()
    n = P.n
    rows, rhs = P.int_rows
    lows, highs, e = box
    lo = [-(-a // e) for a in lows]
    hi = [b // e for b in highs]
    bounds = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        tail = 0
        for j in reversed(range(n)):
            a = row[j]
            if a:
                bounds[j].append((i, e * a, tail))
                tail += a * (lows[j] if a > 0 else highs[j])
    child, take = search.child, search.run
    out = []
    prefix = []

    def rec(j, slack, value):
        lo_j, hi_j = lo[j], hi[j]
        for i, c, tail in bounds[j]:
            s = e * slack[i] - tail
            if c > 0:
                hi_j = min(hi_j, s // c)
            else:
                lo_j = max(lo_j, -(-s // c))
        if j == n - 1:
            if lo_j <= hi_j:
                out.append((tuple(prefix), lo_j, hi_j))
                take(*out[-1], value)
            return
        for v in range(lo_j, hi_j + 1):
            below = child(j, value, v)
            if below is None:
                continue
            prefix.append(v)
            rec(j + 1, [s - row[j] * v for s, row in zip(slack, rows)], below)
            prefix.pop()

    rec(0, list(rhs), search.start(lo, hi))
    return out


def reference_pivot(tab, obj, basis, row, col, trail):
    trail.append((row, col))
    inv = tab[row][col]
    tab[row] = [x / inv for x in tab[row]]
    prow = tab[row]
    for i, trow in enumerate(tab):
        if i != row and trow[col] != 0:
            f = trow[col]
            tab[i] = [x - f * y for x, y in zip(trow, prow)]
    if obj[col] != 0:
        f = obj[col]
        for j in range(len(obj)):
            obj[j] -= f * prow[j]
    basis[row] = col


def reference_optimize(tab, obj, basis, allowed, trail):
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if allowed[j] and obj[j] < 0), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i, trow in enumerate(tab):
            coeff = trow[enter]
            if coeff > 0:
                ratio = trow[-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        reference_pivot(tab, obj, basis, leave, enter, trail)


def reference_lp_solve(A, b, c, sense, trail):
    """The pivots of simplex.lp_solve: the two-phase Bland simplex on a
    Fraction tableau, its status, point and objective, and each pivot.

    Rows with a negative rhs are negated and get an artificial of
    coefficient 1; phase 1 minimizes the plain artificial sum.  Each pivot
    (row, column) is appended to trail.
    """
    m, n = len(A), len(c)
    cmin = [F(x) if sense == "min" else -F(x) for x in c]
    if m == 0:
        if all(x == 0 for x in cmin):
            return "optimal", [F(0)] * n, F(0)
        return "unbounded", None, None
    nstruct = 2 * n + m
    neg = [F(b[i]) < 0 for i in range(m)]
    nart = sum(neg)
    ncols = nstruct + nart
    tab, basis, art_at = [], [0] * m, 0
    for i in range(m):
        sgn = F(-1) if neg[i] else F(1)
        row = [sgn * F(x) for x in A[i]]
        row += [-x for x in row[:n]] + [F(0)] * m
        row[2 * n + i] = sgn
        arts = [F(0)] * nart
        if neg[i]:
            arts[art_at] = F(1)
            basis[i] = nstruct + art_at
            art_at += 1
        else:
            basis[i] = 2 * n + i
        tab.append(row + arts + [sgn * F(b[i])])
    allowed = [True] * ncols
    if nart:
        obj = [F(0)] * nstruct + [F(1)] * nart + [F(0)]
        for i in range(m):
            if basis[i] >= nstruct:
                obj = [o - t for o, t in zip(obj, tab[i])]
        reference_optimize(tab, obj, basis, allowed, trail)
        if obj[-1] != 0:
            return "infeasible", None, None
        for i in range(m):
            if basis[i] >= nstruct:
                j = next((j for j in range(nstruct) if tab[i][j] != 0), None)
                if j is not None:
                    reference_pivot(tab, obj, basis, i, j, trail)
        allowed[nstruct:] = [False] * nart
    obj = cmin + [-x for x in cmin] + [F(0)] * (ncols - 2 * n + 1)
    for i in range(m):
        f = obj[basis[i]]
        if f != 0:
            obj = [o - f * t for o, t in zip(obj, tab[i])]
    if reference_optimize(tab, obj, basis, allowed, trail) == "unbounded":
        return "unbounded", None, None
    values = [F(0)] * ncols
    for i in range(m):
        values[basis[i]] = tab[i][-1]
    x = [values[j] - values[n + j] for j in range(n)]
    return "optimal", x, sum((F(ci) * xi for ci, xi in zip(c, x)), F(0))
