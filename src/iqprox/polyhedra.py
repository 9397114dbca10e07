"""H-representation polyhedra: membership, vertices, faces, lattice points.

All enumeration routines assume desk-scale inputs and verify boundedness,
raising UnboundedError otherwise.  The vertices are held as ints X / e,
the leaves of P's edge lines, which also show whether P is a nonempty
polytope: ``edge_walk`` is one loop over the (n - 2)-row planes that meets
each plane's lines with P by a ratio test on the plane's shared columns
and takes each line's leaves in that same pass.  When P is no nonempty
polytope, LPs (``bounding_box``) tell an empty P from an unbounded one
(``vertex_ints``).
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
build their int rows from their parent's.  The LPs (simplex.lp_solve) read
the int rows too, with the scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import mul

from . import exact
from .errors import DimensionError, InputError, UnboundedError
from .simplex import lp_solve


@dataclass(frozen=True)
class Polyhedron:
    """{x in R^n : A x <= b} as its int rows: row i is [A_i | b_i] times
    scales[i], split at the bar."""

    int_rows: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]
    scales: tuple[int, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.scales)


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
    """{x : A x <= b} for a sequence of rows A and a sequence b, their
    entries ints and Fractions; n is the ambient dimension, the row width
    by default."""
    if len(A) != len(b):
        raise DimensionError("row/rhs count mismatch")
    if n is None:
        if not A:
            raise DimensionError("ambient dimension required for empty system")
        n = len(A[0])
    if any(len(row) != n for row in A):
        raise DimensionError("inconsistent row lengths")
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    ints, scales = exact._integer_rows([[*row, c] for row, c in zip(A, b)])
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
    obj = [0] * P.n
    obj[i] = 1
    hi = lp_solve(P, obj, "max")
    if hi.status == "infeasible":
        return None
    lo = lp_solve(P, obj, "min")
    if hi.status == "unbounded" or lo.status == "unbounded":
        raise UnboundedError(f"coordinate {i} is unbounded")
    return lo.objective, hi.objective


def is_empty(P: Polyhedron) -> bool:
    return lp_solve(P, [0] * P.n, "min").status == "infeasible"


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


def _ratio_test(cols, X0: list[int], w: list[int], L: int, start: int,
                leaves: list) -> tuple[tuple[int, int] | None, tuple[int, int] | None, bool]:
    """lo, hi and meets of the line x = (X0 + t w) / L, t rational, against
    P's int rows, by the simplex ratio test in one pass over its columns
    cols = (F, G, T, a, b, c, div); the line's leaves from row start on are
    appended to leaves in row order.

    Row i holds at t exactly when t dots[i] <= slacks[i], with dots[i] =
    A_i.w and slacks[i] = L b_i - A_i.X0 on the int row [A_i | b_i]; the
    columns give them as dots[i] = (a F_i - b G_i) / div and slacks[i] =
    (a T_i - c G_i) / div, each division exact and div > 0.  Each row with
    dots[i] > 0 bounds t above by its ratio slacks[i] / dots[i], each with
    dots[i] < 0 below; a row with dots[i] = 0 holds on the whole line or on
    none of it, as slacks[i] >= 0 or not.  lo is the greatest lower bound
    and hi the least upper bound, each an int pair (num, den) with den > 0,
    or None when no row bounds t on that side; meets says whether some
    point of the line lies in P: every row with dots[i] = 0 holds, and
    lo <= hi.  The test compares div dots[i] and div slacks[i], the
    undivided ints: div > 0 scales both sides of every comparison alike, so
    no comparison changes, and only the two bounding ratios are divided by
    div.

    The pass also keeps the rows whose ratio equals the bound found so far
    on each side, so no second pass finds the leaves.  Row j meets the line
    in one point exactly when dots[j] != 0, at t_j = slacks[j] / dots[j];
    when dots[j] > 0, t_j >= hi, so t_j lies in [lo, hi] exactly when t_j =
    hi, and when dots[j] < 0 exactly when t_j = lo.  Its point is X / e with
    e = |dots[j]| and X = (e X0 +- slacks[j] w) / L: with X0 / L on rows S
    of rank n - 1 and w their cofactor vector up to sign (exact._kernel),
    dots[j] is +- the determinant of S and row j, so e x is integral by
    Cramer's rule and the division exact; these are the ints
    exact._solution_space gives for the rows S and row j.
    """
    F, G, T, a, b, c, div = cols
    ln, ld, hn, hd = -1, 0, 1, 0  # lo and hi times div, from -oo = -1/0 and +oo = 1/0
    lows, highs, meets = [], [], True  # lows, highs: (i, num, den) of the rows attaining them
    for i, f, g, s in zip(count(), F, G, T):
        dot = a * f - b * g
        if dot > 0:
            s = a * s - c * g
            x = s * hd - hn * dot
            if x < 0:
                hn, hd, highs = s, dot, [(i, s, dot)]
            elif not x:
                highs.append((i, s, dot))
        elif dot < 0:
            s = a * s - c * g
            x = s * ld - ln * dot
            if x < 0:
                ln, ld, lows = -s, -dot, [(i, -s, -dot)]
            elif not x:
                lows.append((i, -s, -dot))
        elif a * s < c * g:
            meets = False
    meets = meets and ln * hd <= hn * ld
    if meets:
        for i, num, den in sorted(lows + highs):
            if i >= start:
                e, s = den // div, num // div
                leaves.append(([(e * x + s * y) // L for x, y in zip(X0, w)], e))
    return (ln // div, ld // div) if ld else None, (hn // div, hd // div) if hd else None, meets


def _own_columns(P: Polyhedron, X0: list[int], w: list[int], L: int):
    """The columns of _ratio_test for the line (X0 + t w) / L on its own: F
    the products A_i.w, G = 0 and T the slacks L b_i - A_i.X0, with a = div
    = 1 and b = c = 0."""
    rows, rhs = P.int_rows
    return ([sum(map(mul, row, w)) for row in rows], [0] * len(rows),
            [L * c - sum(map(mul, row, X0)) for row, c in zip(rows, rhs)], 1, 0, 0, 1)


def line_through(P: Polyhedron, X0: list[int], w: list[int], L: int):
    """The line (X0 + t w) / L against P's int rows, as (X0, w, L, lo, hi,
    meets) of _ratio_test on its own columns."""
    return (X0, w, L, *_ratio_test(_own_columns(P, X0, w, L), X0, w, L, P.m, []))


def _combine(cols, x, out=None) -> list[int]:
    """The combination sum_k x_k cols[k] of P's columns, added to out when
    given: one pass over a column per nonzero x_k."""
    for c, col in zip(x, cols):
        if c:
            out = [c * a for a in col] if out is None else [o + c * a for o, a in zip(out, col)]
    return out


def _plane_columns(cols, rhs, start: int, X0: list[int], W: list[list[int]], L: int):
    """The columns U = A W1, V = A W2 and T = L b - A X0 of a plane's
    solution set (X0 + y_1 W1 + y_2 W2) / L over P's int rows [A | b], from
    A's columns cols; None when no row j >= start has (U_j, V_j) != (0, 0),
    for then the plane has no line."""
    if start == len(rhs):
        return None
    U, V = _combine(cols, W[0]), _combine(cols, W[1])
    if not (any(U[start:]) or any(V[start:])):
        return None
    return U, V, _combine(cols, [-x for x in X0], [L * c for c in rhs])


def edge_walk(P: Polyhedron, planes, visit=None) -> tuple[list[tuple[list[int], int]], bool]:
    """The leaves (X, e) of P's edge lines, in (S, j) order, and whether
    they show P a nonempty polytope; each line also handed to visit, when
    given, as visit(S, X0, w, L, lo, hi, meets) once its leaves are taken.

    An edge line is the line x = (X0 + t w) / L of the solutions of an
    independent set S of n - 1 int rows [A_i | b_i], met with P by
    _ratio_test; the lines come in lexicographic order of S.  planes are
    the independent sets S' of n - 2 rows in lexicographic order, each as
    (S', echelon, pivots, solution), the echelon of its rows and
    exact._solution_space of it, or None for a solution not made yet.  Each
    S is S' + (j,) for one plane and a row j > max S'.  A plane with no
    solution is solved only when some row j reduces to nonzero on its
    echelon, that is, when it has a line.  For n = 1 there is no plane and
    the empty set's line is the axis.

    A plane's solution set is x = (X0 + y_1 W1 + y_2 W2) / L, with W =
    (W1, W2) for its free columns f1 < f2, W_f equal to L at f and 0 at the
    other free column, and X0 zero at both.  Every row i gets three
    products, u_i = A_i.W1, v_i = A_i.W2 and s_i = L b_i - A_i.X0, once per
    plane (_plane_columns).  Row j reduced through the plane's echelon
    (exact._extend_echelon) is p A_j plus a combination of the plane's
    rows, p the echelon's signed last pivot, |p| = L.  Dotted with (W1, 0),
    (W2, 0) and (X0, -L), which the plane's rows annihilate, it reads r_j =
    sign(p) (u_j, v_j, s_j) in the columns f1, f2 and b, and 0 in the
    plane's pivot columns.  So row j is independent of the plane exactly
    when (u_j, v_j) != (0, 0), and its pivot g is f1 when u_j != 0, else
    f2; f is the other free column, and G, F are the products with W_g and
    W_f.  With a = |G_j|, the line's L, and sigma = sign(G_j),
    back-substitution on the echelon of S puts sigma s_j at g and 0 at f of
    the line's X0, and a at f and -sigma F_j at g of its w.  Both are then
    fixed on the plane's solution set:

        X0' = (a X0 + sigma s_j W_g) / L,   w = (a W_f - sigma F_j W_g) / L,

    and each row's product and slack against them are

        A_i.w = (a F_i - sigma F_j G_i) / L,
        a b_i - A_i.X0' = (a s_i - sigma s_j G_i) / L.

    Each is an int vector or int divided exactly: the same ints as
    exact._solution_space gives on the echelon of S.  So a line costs one
    ratio-test pass over its plane's columns (F, G, T = (s_i), a, sigma
    F_j, sigma s_j, L), with no list of its own over the rows, no echelon
    and no dot product.

    Each later row j that meets the line of S at a point of P gives the
    vertex X / e of the independent n-set S + (j,); a vertex tight on more
    than n rows comes once per such set.  P is a nonempty polytope exactly
    when some leaf is found and no line recedes (no row bounds t on one
    side, so w or -w lies in the recession cone {y : A y <= 0}): a vertex
    gives A rank n, so the recession cone is pointed, and unless it is {0}
    an extreme ray of it is tight on n - 1 independent rows and spans the
    line of such an S.  Then the leaves hold every vertex of P, whose
    convex hull P is.  Every line is walked, even once a line recedes:
    oracles._face_walk does each line's face work in visit.
    """
    n, m = P.n, P.m
    rows, rhs = P.int_rows
    leaves, recedes = [], False
    if n == 1:  # no plane: the empty set's line is the axis
        lo, hi, meets = _ratio_test(_own_columns(P, [0], [1], 1), [0], [1], 1, 0, leaves)
        recedes = lo is None or hi is None
        if visit:
            visit((), [0], [1], 1, lo, hi, meets)
    cols = list(zip(*rows))
    for S, ech, pivots, sol in planes:
        start = S[-1] + 1 if S else 0
        if sol is None:
            if all(exact._extend_echelon(ech, pivots, [*rows[j], rhs[j]], n) is None
                   for j in range(start, m)):
                continue
            sol = exact._solution_space(ech, pivots, n)
        X0, W, L = sol
        plane = _plane_columns(cols, rhs, start, X0, W, L)
        if plane is None:
            continue
        U, V, T = plane
        for j in range(start, m):
            if U[j]:
                G, F, Wg, Wf = U, V, W[0], W[1]
            elif V[j]:
                G, F, Wg, Wf = V, U, W[1], W[0]
            else:
                continue
            a, b, c = G[j], F[j], T[j]
            if a < 0:  # a, b, c = |G_j|, sigma F_j, sigma s_j
                a, b, c = -a, -b, -c
            X1 = [(a * x + c * y) // L for x, y in zip(X0, Wg)]  # X0'
            w = [(a * x - b * y) // L for x, y in zip(Wf, Wg)]
            lo, hi, meets = _ratio_test((F, G, T, a, b, c, L), X1, w, a, j + 1, leaves)
            recedes = recedes or lo is None or hi is None
            if visit:
                visit(S + (j,), X1, w, a, lo, hi, meets)
    return leaves, bool(leaves) and not recedes


def vertex_box(verts) -> tuple[list[int], list[int], int]:
    """The coordinate-wise extremes of the vertices (X, e), the points X /
    e, as ints over the lcm D of the e: lows, highs and D, the box of
    lattice_runs."""
    D = math.lcm(*(e for _, e in verts))
    cols = list(zip(*([x * (D // e) for x in X] for X, e in verts)))
    return [min(c) for c in cols], [max(c) for c in cols], D


def vertex_ints(P: Polyhedron) -> list[tuple[list[int], int]]:
    """The vertices of P, the leaves (X, e) of edge_walk on the planes of
    exact.independent_row_sets; [] for an empty P and UnboundedError for
    an unbounded one, which bounding_box's LPs tell apart when the leaves
    do not show P a nonempty polytope."""
    rows, rhs = P.int_rows
    planes = ((S, a, pivots, None) for S, a, pivots in exact.independent_row_sets(
        [[*row, b] for row, b in zip(rows, rhs)], P.n, P.n - 2, P.n - 2))
    leaves, polytope = edge_walk(P, planes)
    if not polytope and bounding_box(P) is None:
        return []
    return leaves


def enumerate_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Sorted vertex points of vertex_ints, or UnboundedError."""
    return sorted({exact.rational_vector(X, e) for X, e in vertex_ints(P)})


class _Unpruned:
    """The search of the unpruned walk: every prefix kept, and each run
    kept in runs."""

    def __init__(self):
        self.runs: list[tuple[tuple[int, ...], int, int]] = []

    def start(self, lo, hi) -> int:
        return 0

    def child(self, j: int, value: int, v: int) -> int:
        return value

    def run(self, prefix, lo: int, hi: int, value: int):
        self.runs.append((tuple(prefix), lo, hi))


def lattice_runs(P: Polyhedron, box=None,
                 search=None) -> list[tuple[tuple[int, ...], int, int]] | None:
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
    bounded; it holds on a nonempty P.  The last prefix level, j = n - 2,
    runs in place: with x_j = v, a row's bound on the last coordinate is
    (base - step v) // c, with base = e times the row's slack on the prefix
    before x_j (no part of a row lies past the last coordinate) and step =
    e A_ij, one (base, step) pair per row, so no child gets a slack list of
    its own.

    box is (lows, highs, D), ints with D > 0: the box of the x with
    lows[i] <= D x_i <= highs[i], containing P.  A caller that knows P is
    nonempty and bounded passes its exact bounding box (vertex_box of its
    vertices); without one the box is vertex_box of vertex_ints, which also
    shows P empty (no runs) or unbounded (UnboundedError).

    Without a search every run is kept and the list of them returned, as
    enumerate_lattice_points reads it.  A search, when given, prunes the
    walk and takes its runs as they are reached, and nothing is kept or
    returned.  The walk carries a value down from the root:
    search.start(lo, hi) gets the integer box, lo[i] <= x_i <= hi[i], and
    returns the root's value; search.child(j, value, v) returns the value of
    the prefix extended by x_j = v, or None to skip every point under it;
    search.run(prefix, lo, hi, value) takes each run reached, in order,
    with its prefix's value, the prefix as the walk's own list of n - 1
    ints, which holds it only during the call.
    """
    keep = search is None
    if keep:
        search = _Unpruned()
    if box is None:
        verts = vertex_ints(P)
        if not verts:
            return [] if keep else None
        box = vertex_box(verts)
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
    prefix = [0] * (n - 1)

    def rec(j: int, slack: list[int], value):
        # slack[i] is rhs_i minus row i on the fixed prefix.
        lo_j, hi_j = lo[j], hi[j]
        for i, c, tail in bounds[j]:
            s = e * slack[i] - tail
            if c > 0:
                hi_j = min(hi_j, s // c)
            else:
                lo_j = max(lo_j, -(-s // c))
        if j == n - 1:  # n = 1: the run of the empty prefix
            if lo_j <= hi_j:
                take(prefix, lo_j, hi_j, value)
        elif j < n - 2:
            for v in range(lo_j, hi_j + 1):
                below = child(j, value, v)
                if below is not None:
                    prefix[j] = v
                    rec(j + 1, [s - row[j] * v for s, row in zip(slack, rows)], below)
        else:  # the last prefix level, in place
            steps = [(e * slack[i], e * rows[i][j], c) for i, c, _ in bounds[j + 1]]
            for v in range(lo_j, hi_j + 1):
                below = child(j, value, v)
                if below is None:
                    continue
                lo_v, hi_v = lo[j + 1], hi[j + 1]
                for base, step, c in steps:
                    s = base - step * v
                    if c > 0:
                        hi_v = min(hi_v, s // c)
                    else:
                        lo_v = max(lo_v, -(-s // c))
                if lo_v <= hi_v:
                    prefix[j] = v
                    take(prefix, lo_v, hi_v, below)

    rec(0, list(rhs), search.start(lo, hi))
    return search.runs if keep else None


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
