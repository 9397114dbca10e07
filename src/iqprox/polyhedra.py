"""H-representation polyhedra: membership, vertices, faces, lattice points.

All enumeration routines assume desk-scale inputs and verify boundedness,
raising UnboundedError otherwise.  The vertices are held as ints X / e,
the leaves of P's edge lines (``edge_lines``, ``line_leaves``), which also
show whether P is a nonempty polytope; when it is not, LPs
(``bounding_box``) tell an empty P from an unbounded one (``vertex_ints``).
The faces and the lattice walk's bounding box (``vertex_box``) come from
the vertices, so on a nonempty polytope no enumeration solves an LP.  The
lattice walk yields its points as runs along the last coordinate, pruned
by the caller's search when it passes one.
Outputs are canonically ordered (lexicographic) so results are
deterministic.

A polyhedron is its rows [A_i | b_i] scaled to Python ints, each by the
lcm d_i of its denominators.  Membership and lattice enumeration run on
them: a point x is scaled once to X = D x over its common denominator D,
and row i holds iff (d_i A_i).X <= D (d_i b_i).  ``polyhedron`` scales
rational rows once; ``translate``, ``fix_zero`` and ``intersect_with_box``
build their int rows from their parent's.  The rational A and b are views
for the LPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from . import exact
from .errors import DimensionError, InputError, UnboundedError
from .simplex import lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Polyhedron:
    """{x in R^n : A x <= b} as its int rows: row i is [A_i | b_i] times
    scales[i], split at the bar.  A and b are views, built on first use."""

    int_rows: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]
    scales: tuple[int, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.scales)

    @cached_property
    def A(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(exact.rational_vector(row, d)
                     for row, d in zip(self.int_rows[0], self.scales))

    @cached_property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) if d == 1 else Fraction(c, d)
                     for c, d in zip(self.int_rows[1], self.scales))


def translate(P: Polyhedron, X) -> Polyhedron:
    """P - X = {y : A y <= b - A X} for an integer vector X.

    The rows are P's own.  Row i keeps its scale d_i, for A_i.X has a
    denominator dividing that of A_i, so the lcm of the denominators of A_i
    and of b_i - A_i.X is that of A_i and b_i.  Its int right-hand side is
    d_i b_i - (d_i A_i).X.
    """
    rows, rhs = P.int_rows
    return Polyhedron((rows, tuple(c - sum(map(mul, row, X)) for row, c in zip(rows, rhs))),
                      P.scales, P.n)


def _with_unit_rows(P: Polyhedron, bounds) -> Polyhedron:
    """P with the row s e_i.x <= c / d appended for each (i, s, c, d) in
    bounds, s = +-1 and c / d in lowest terms: its int row is (s d e_i, c),
    of scale d."""
    rows, rhs = P.int_rows
    units = tuple(tuple(s * d * (j == i) for j in range(P.n)) for i, s, _, d in bounds)
    return Polyhedron((rows + units, rhs + tuple(c for _, _, c, _ in bounds)),
                      P.scales + tuple(d for _, _, _, d in bounds), P.n)


def fix_zero(P: Polyhedron, coords) -> Polyhedron:
    """P with x_i = 0 for each i in coords: the rows e_i.x <= 0 and
    -e_i.x <= 0 appended per coordinate, in increasing order.  With no
    coordinate that is P itself."""
    if not coords:
        return P
    return _with_unit_rows(P, [(i, s, 0, 1) for i in sorted(coords) for s in (1, -1)])


def polyhedron(A, b, n: int | None = None) -> Polyhedron:
    rows = tuple(tuple(Fraction(x) for x in row) for row in A)
    rhs = tuple(Fraction(x) for x in b)
    if len(rows) != len(rhs):
        raise DimensionError("row/rhs count mismatch")
    if n is None:
        if not rows:
            raise DimensionError("ambient dimension required for empty system")
        n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise DimensionError("inconsistent row lengths")
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    ints, scales = exact._integer_rows([[*row, c] for row, c in zip(rows, rhs)])
    return Polyhedron((tuple(tuple(r[:-1]) for r in ints), tuple(r[-1] for r in ints)),
                      tuple(scales), n)


@dataclass(frozen=True)
class Face:
    """A nonempty face, identified by its maximal equality row set."""

    equality_rows: frozenset[int]
    dim: int


def _scaled_point(P: Polyhedron, x) -> tuple[list[int], int]:
    """X and D with X = D x, D the common denominator of the point x."""
    if len(x) != P.n:
        raise DimensionError(f"point has dim {len(x)}, polyhedron has {P.n}")
    return exact.integer_vector(x)


def contains(P: Polyhedron, x) -> bool:
    return contains_int(P, *_scaled_point(P, x))


def contains_int(P: Polyhedron, X, D: int) -> bool:
    """Whether P holds the point X / D, for an int vector X and an int D > 0:
    (d_i A_i).X <= D (d_i b_i) for every row i, stopping at the first that
    fails."""
    rows, rhs = P.int_rows
    for row, c in zip(rows, rhs):
        if sum(map(mul, row, X)) > D * c:
            return False
    return True


def tight_rows(P: Polyhedron, x) -> frozenset[int]:
    X, D = _scaled_point(P, x)
    rows, rhs = P.int_rows
    return frozenset(i for i, (row, c) in enumerate(zip(rows, rhs))
                     if sum(map(mul, row, X)) == D * c)


def coordinate_range(P: Polyhedron, i: int) -> tuple[Fraction, Fraction] | None:
    """Exact [min, max] of x_i over P; None if P is empty; raises if unbounded."""
    obj = [ZERO] * P.n
    obj[i] = ONE
    hi = lp_solve(P.A, P.b, obj, "max")
    if hi.status == "infeasible":
        return None
    lo = lp_solve(P.A, P.b, obj, "min")
    if hi.status == "unbounded" or lo.status == "unbounded":
        raise UnboundedError(f"coordinate {i} is unbounded")
    return lo.objective, hi.objective


def is_empty(P: Polyhedron) -> bool:
    return lp_solve(P.A, P.b, [ZERO] * P.n, "min").status == "infeasible"


def bounding_box(P: Polyhedron) -> list[tuple[Fraction, Fraction]] | None:
    """Per-coordinate exact ranges; None for empty P; raises UnboundedError."""
    box = []
    for i in range(P.n):
        rng = coordinate_range(P, i)
        if rng is None:
            return None
        box.append(rng)
    return box


def assert_bounded(P: Polyhedron):
    bounding_box(P)  # raises UnboundedError when any direction escapes


class Line(NamedTuple):
    """The line x = (X0 + t w) / L, t rational, for int vectors X0 and
    w != 0 and an int L > 0, against the int rows of a polyhedron P.

    Row i holds at t exactly when t dots[i] <= slacks[i], with dots[i] =
    A_i.w and slacks[i] = L b_i - A_i.X0 on the int row [A_i | b_i].  lo
    is the greatest lower bound slacks[i] / dots[i] over the rows with
    dots[i] < 0 and hi the least upper bound over those with dots[i] > 0,
    each an int pair (num, den) with den > 0, or None when no row bounds t
    on that side.  meets says whether some point of the line lies in P:
    every row with dots[i] = 0 holds, and lo <= hi.
    """

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
        """Whether w or -w lies in the recession cone {y : A y <= 0}: no
        row bounds t on one side, and P is no polytope."""
        return self.lo is None or self.hi is None

    def holds(self, num: int, den: int) -> bool:
        """Whether the point at t = num / den, den > 0, lies in P."""
        lo, hi = self.lo, self.hi
        return (self.meets and (lo is None or lo[0] * den <= num * lo[1])
                and (hi is None or num * hi[1] <= hi[0] * den))

    def vertices(self, start: int):
        """(X, e) for each row j >= start, in order, that meets the line in
        one point of P: X / e with e > 0, the same ints as
        exact._solution_space gives for the line's rows and row j.

        Row j meets the line in one point exactly when dots[j] != 0, at t_j
        = slacks[j] / dots[j].  When dots[j] > 0, hi is the least such ratio
        (the simplex ratio test), so t_j >= hi and t_j lies in [lo, hi]
        exactly when t_j = hi; when dots[j] < 0, exactly when t_j = lo.  The
        point is X / e with e = |dots[j]| and X = (e X0 +- slacks[j] w) / L:
        with X0 / L on rows S of rank n - 1 and w their cofactor vector up
        to sign (exact._kernel), dots[j] is +- the determinant of S and row
        j, so e x is integral by Cramer's rule and the division exact.
        """
        if not self.meets:
            return
        X0, w, L = self.X0, self.w, self.L
        for j in range(start, len(self.dots)):
            dot, s = self.dots[j], self.slacks[j]
            if not dot:
                continue
            end = self.hi if dot > 0 else self.lo
            if s * end[1] != end[0] * dot:
                continue
            e = abs(dot)
            if dot < 0:
                s = -s
            yield [(e * x + s * y) // L for x, y in zip(X0, w)], e


def line_through(P: Polyhedron, X0: list[int], w: list[int], L: int) -> Line:
    """The Line (X0 + t w) / L against P's int rows: A_i.w and the slack
    L b_i - A_i.X0 of each row, and then _line."""
    rows, rhs = P.int_rows
    return _line(X0, w, L, [sum(map(mul, row, w)) for row in rows],
                 [L * c - sum(map(mul, row, X0)) for row, c in zip(rows, rhs)])


def _line(X0: list[int], w: list[int], L: int, dots: list[int], slacks: list[int]) -> Line:
    """The Line (X0 + t w) / L with its rows' products and slacks given, in
    one pass over them.

    Each row with A_i.w > 0 bounds t above by its ratio slack_i / A_i.w,
    each with A_i.w < 0 below; a row with A_i.w = 0 holds on the whole line
    or on none of it, as slack_i >= 0 or not.
    """
    lo = hi = None
    meets = True
    for dot, s in zip(dots, slacks):
        if dot > 0:
            if hi is None or s * hi[1] < hi[0] * dot:
                hi = (s, dot)
        elif dot < 0:
            if lo is None or lo[0] * -dot < -s * lo[1]:
                lo = (-s, -dot)
        elif s < 0:
            meets = False
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        meets = False
    return Line(X0, w, L, dots, slacks, lo, hi, meets)


def plane_lines(P: Polyhedron, start: int, X0: list[int], W: list[list[int]], L: int):
    """(j, Line) for each row j >= start, in order, that is independent of
    a plane's rows: the line of the plane and row j, with the ints that
    exact._solution_space and line_through give on the echelon of the
    plane's rows plus row j.

    The plane is an independent set S of n - 2 int rows [A_i | b_i], given
    by exact._solution_space of its echelon: x = (X0 + y_1 W1 + y_2 W2) / L,
    with W = (W1, W2) for its free columns f1 < f2, W_f equal to L at f and
    0 at the other free column, and X0 zero at both.  Every row i gets
    three products, u_i = A_i.W1, v_i = A_i.W2 and s_i = L b_i - A_i.X0,
    once and only when some row j >= start has (u_j, v_j) != (0, 0).

    Row j reduced through S's echelon (exact._extend_echelon) is p A_j plus
    a combination of S's rows, p the echelon's signed last pivot, |p| = L.
    Dotted with (W1, 0), (W2, 0) and (X0, -L), which S's rows annihilate, it
    reads r_j = sign(p) (u_j, v_j, s_j) in the columns f1, f2 and b, and 0
    in S's pivot columns.  So row j is independent of S exactly when (u_j,
    v_j) != (0, 0), and its pivot g is f1 when u_j != 0, else f2; f is the
    other free column, and G, F are the products with W_g and W_f.  With
    a = |G_j|, the child's L, and sigma = sign(G_j), back-substitution on
    the child's echelon puts sigma s_j at g and 0 at f of its X0, and a at f
    and -sigma F_j at g of its w.  Both are then fixed on S's solution set:

        X0' = (a X0 + sigma s_j W_g) / L,   w = (a W_f - sigma F_j W_g) / L,

    and each row's product and slack against them are

        A_i.w = (a F_i - sigma F_j G_i) / L,
        a b_i - A_i.X0' = (a s_i - sigma s_j G_i) / L.

    Each is an int vector or int divided exactly, so a child costs O(m)
    ints, with no echelon and no dot product of its own.
    """
    rows, rhs = P.int_rows
    W1, W2 = W
    U = [sum(map(mul, row, W1)) for row in rows[start:]]
    V = [sum(map(mul, row, W2)) for row in rows[start:]]
    if not (any(U) or any(V)):
        return
    U = [sum(map(mul, row, W1)) for row in rows[:start]] + U
    V = [sum(map(mul, row, W2)) for row in rows[:start]] + V
    T = [L * c - sum(map(mul, row, X0)) for row, c in zip(rows, rhs)]
    for j in range(start, len(rows)):
        if U[j]:
            G, F, Wg, Wf = U, V, W1, W2
        elif V[j]:
            G, F, Wg, Wf = V, U, W2, W1
        else:
            continue
        a, b, c = G[j], F[j], T[j]
        if a < 0:  # a, b, c = |G_j|, sigma F_j, sigma s_j
            a, b, c = -a, -b, -c
        if L == 1:  # no division
            yield j, _line([a * x + c * y for x, y in zip(X0, Wg)],
                           [a * x - b * y for x, y in zip(Wf, Wg)], a,
                           [a * f - b * g for f, g in zip(F, G)],
                           [a * s - c * g for s, g in zip(T, G)])
        else:
            yield j, _line([(a * x + c * y) // L for x, y in zip(X0, Wg)],
                           [(a * x - b * y) // L for x, y in zip(Wf, Wg)], a,
                           [(a * f - b * g) // L for f, g in zip(F, G)],
                           [(a * s - c * g) // L for s, g in zip(T, G)])


def edge_lines(P: Polyhedron, planes):
    """(S, Line) for each independent set S of n - 1 int rows [A_i | b_i],
    in lexicographic order: the line of S's solutions met with P.

    planes are the independent sets S' of n - 2 rows in lexicographic
    order, each as (S', echelon, pivots, solution), the echelon of its rows
    and exact._solution_space of it, or None for a solution not made yet.
    Each S is S' + (j,) for one plane and a row j > max S', and its line
    comes from plane_lines.  A plane with no solution is solved only when
    some row j reduces to nonzero on its echelon, that is, when it has a
    line.  For n = 1 there is no plane and the empty set's line is the
    axis.
    """
    if P.n == 1:
        yield (), line_through(P, [0], [1], 1)
    rows, rhs = P.int_rows
    for S, ech, pivots, sol in planes:
        start = S[-1] + 1 if S else 0
        if sol is None:
            if all(exact._extend_echelon(ech, pivots, [*rows[j], rhs[j]], P.n) is None
                   for j in range(start, P.m)):
                continue
            sol = exact._solution_space(ech, pivots, P.n)
        for j, line in plane_lines(P, start, *sol):
            yield S + (j,), line


def line_leaves(lines) -> tuple[list[tuple[list[int], int]], bool]:
    """The leaves (X, e) of a stream of edge lines (S, Line), in (S, j)
    order, and whether they show P a nonempty polytope.

    Each later row j that meets the line of S at a point of P
    (Line.vertices) gives the vertex X / e of the independent n-set S +
    (j,); a vertex tight on more than n rows comes once per such set.  P is
    a nonempty polytope exactly when some leaf is found and no line
    recedes: a vertex gives A rank n, so the recession cone is pointed, and
    unless it is {0} an extreme ray of it is tight on n - 1 independent
    rows and spans the line of such an S.  Then the leaves hold every
    vertex of P, whose convex hull P is.
    """
    leaves, recedes = [], False
    for S, line in lines:
        recedes = recedes or line.recedes
        leaves += line.vertices(S[-1] + 1 if S else 0)
    return leaves, bool(leaves) and not recedes


def vertex_box(verts) -> tuple[list[int], list[int], int]:
    """The coordinate-wise extremes of the vertices (X, e), the points X /
    e, as ints over the lcm D of the e: lows, highs and D, the box of
    lattice_runs."""
    D = math.lcm(*(e for _, e in verts))
    cols = list(zip(*([x * (D // e) for x in X] for X, e in verts)))
    return [min(c) for c in cols], [max(c) for c in cols], D


def vertex_ints(P: Polyhedron) -> list[tuple[list[int], int]]:
    """The vertices of P, the leaves (X, e) of its edge lines on the planes
    of exact.independent_row_sets; [] for an empty P and UnboundedError for
    an unbounded one, which bounding_box's LPs tell apart when the leaves
    do not show P a nonempty polytope."""
    rows, rhs = P.int_rows
    planes = ((S, a, pivots, None) for S, a, pivots in exact.independent_row_sets(
        [[*row, b] for row, b in zip(rows, rhs)], P.n, P.n - 2, P.n - 2))
    leaves, polytope = line_leaves(edge_lines(P, planes))
    if not polytope and bounding_box(P) is None:
        return []
    return leaves


def enumerate_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Sorted vertex points of vertex_ints, or UnboundedError."""
    return sorted({exact.rational_vector(X, e) for X, e in vertex_ints(P)})


class _Unpruned:
    """The search of the unpruned walk: every prefix kept."""

    def start(self, lo, hi) -> int:
        return 0

    def child(self, j: int, value: int, v: int) -> int:
        return value

    def run(self, prefix, lo: int, hi: int, value: int):
        pass


def lattice_runs(P: Polyhedron, box=None, search=None) -> list[tuple[tuple[int, ...], int, int]]:
    """The integer points of a bounded P as runs (prefix, lo, hi), in
    lexicographic order: the points (*prefix, v) for lo <= v <= hi, every
    point of P with those first n - 1 coordinates.  Each run is nonempty.

    Walks the integer grid of the bounding box coordinate by coordinate,
    narrowing the interval of each next coordinate by interval propagation
    over the rows, and stops at the last coordinate, whose interval is the
    run.  The propagation runs on the int rows with the box scaled by its
    denominator e, so each bound is one floor division of ints.  Each row's
    bound is exact at that row's last nonzero coordinate, so every point of
    a run lies in P and none is tested again.  An all-zero row is never
    bounded; it holds on a nonempty P.

    box is (lows, highs, D), ints with D > 0: the box of the x with
    lows[i] <= D x_i <= highs[i], containing P.  A caller that knows P is
    nonempty and bounded passes its exact bounding box (vertex_box of its
    vertices); without one the box is vertex_box of vertex_ints, which also
    shows P empty (no runs) or unbounded (UnboundedError).

    search, when given, prunes the walk and takes its runs as they are
    reached, and the runs returned are those reached.  The walk carries a
    value down from the root: search.start(lo, hi) gets the integer box,
    lo[i] <= x_i <= hi[i], and returns the root's value; search.child(j,
    value, v) returns the value of the prefix extended by x_j = v, or None
    to skip every point under it; search.run(prefix, lo, hi, value) takes
    each run reached, in order, with its prefix's value.
    """
    if box is None:
        verts = vertex_ints(P)
        if not verts:
            return []
        box = vertex_box(verts)
    if search is None:
        search = _Unpruned()
    n = P.n
    rows, rhs = P.int_rows
    lows, highs, e = box
    lo = [-(-a // e) for a in lows]
    hi = [b // e for b in highs]
    # Per coordinate j, the rows with a nonzero entry there: that entry
    # times e, and e times the least value over the box of the row's part
    # past j, summed in one backward pass per row.
    bounds: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        tail = 0
        for j in reversed(range(n)):
            a = row[j]
            if a:
                bounds[j].append((i, e * a, tail))
                tail += a * (lows[j] if a > 0 else highs[j])
    child, take = search.child, search.run
    out = []
    prefix: list[int] = []

    def rec(j: int, slack: list[int], value):
        # slack[i] is rhs_i minus row i on the fixed prefix.
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


def enumerate_lattice_points(P: Polyhedron, box=None) -> list[tuple[int, ...]]:
    """All integer points of a bounded P, in lexicographic order, as int
    tuples: the runs of the unpruned lattice_runs(P, box), expanded in
    order."""
    return [(*prefix, v) for prefix, lo, hi in lattice_runs(P, box)
            for v in range(lo, hi + 1)]


def enumerate_faces(P: Polyhedron) -> list[Face]:
    """Every nonempty face of a small bounded P, P itself and its vertices
    among them, ordered by the size and then the rows of its maximal
    equality set.

    A bounded P is the convex hull of its vertices (enumerate_vertices),
    and each face the convex hull of the vertices it holds, so a row is
    tight on a whole face exactly when it is tight at each of them: the
    maximal equality set of a face is the intersection of its vertices'
    tight row sets.  Conversely, the intersection E of the tight sets of
    some vertices is the maximal equality set of the face {x in P : A_E x
    = b_E}: each vertex of that face is tight on E, and those vertices are
    among them.  So the faces are the intersections of the vertices' tight
    sets, whose family is closed under intersection one vertex at a time.
    An empty P has no face; an unbounded one raises UnboundedError.
    """
    found: set[frozenset[int]] = set()
    for v in enumerate_vertices(P):
        T = tight_rows(P, v)
        found |= {T & E for E in found} | {T}
    rows = P.int_rows[0]
    return sorted((Face(E, P.n - exact.rank([rows[i] for i in sorted(E)])) for E in found),
                  key=lambda f: (len(f.equality_rows), sorted(f.equality_rows)))


def intersect_with_box(P: Polyhedron, center, radius) -> Polyhedron:
    """P intersected with {x : |x_i - center_i| <= radius for all i}.

    Appended rows are +-identity, so the subdeterminant bound of the
    constraint matrix is preserved.  With center and radius over one
    denominator D, the bound of the row s e_i (s = +-1) is s c_i + r =
    (s C_i + R) / D.
    """
    V, D = exact.integer_vector([*center, radius])
    R = V.pop()
    if R < 0:
        raise InputError("radius must be nonnegative")
    bounds = []
    for i in range(P.n):
        for s in (1, -1):
            c = s * V[i] + R
            g = math.gcd(c, D)
            bounds.append((i, s, c // g, D // g))
    return _with_unit_rows(P, bounds)
