"""H-representation polyhedra: membership, vertices, faces, lattice points.

All enumeration routines assume desk-scale inputs and verify boundedness,
raising UnboundedError otherwise: by LP before enumerating, or, for the
vertices, from the edge lines the enumeration walks (``Line``), with an LP
only when they do not show P a nonempty polytope.  The lattice walk
instead takes the bounding box from a caller that has shown P bounded, and
yields its points as runs along the last coordinate.
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
from itertools import combinations
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
        return tuple(tuple(Fraction(c) if d == 1 else Fraction(c, d) for c in row)
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
    -e_i.x <= 0 appended per coordinate, in increasing order."""
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
    """The Line (X0 + t w) / L against P's int rows, in one pass over them.

    Each row with A_i.w > 0 bounds t above by its ratio slack_i / A_i.w,
    each with A_i.w < 0 below; a row with A_i.w = 0 holds on the whole line
    or on none of it, as slack_i >= 0 or not.
    """
    rows, rhs = P.int_rows
    dots = [sum(map(mul, row, w)) for row in rows]
    slacks = [L * c - sum(map(mul, row, X0)) for row, c in zip(rows, rhs)]
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


def enumerate_vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Sorted vertex points, or UnboundedError for an unbounded P.

    Each independent set S of n - 1 int rows [A_i | b_i]
    (exact.independent_row_sets) spans a line, and each later row j that
    meets it at a point of P (Line.vertices) gives the vertex of the
    independent n-set S + (j,); every vertex arises so.  P is a nonempty
    polytope exactly when some vertex is found and no line recedes: a
    vertex gives A rank n, so the recession cone is pointed, and unless it
    is {0} an extreme ray of it is tight on n - 1 independent rows and
    spans the line of such an S.  Otherwise P is empty or unbounded, and
    bounding_box's LPs tell which.
    """
    rows, rhs = P.int_rows
    n = P.n
    seen = set()
    recedes = False
    for S, a, pivots in exact.independent_row_sets(
            [[*row, b] for row, b in zip(rows, rhs)], n, n - 1, n - 1):
        X0, (w,), L = exact._solution_space(a, pivots, n)
        line = line_through(P, X0, w, L)
        recedes = recedes or line.recedes
        for X, e in line.vertices(S[-1] + 1 if S else 0):
            seen.add(tuple(Fraction(x, e) for x in X))
    if (recedes or not seen) and bounding_box(P) is None:
        return []
    return sorted(seen)


def lattice_runs(P: Polyhedron, box=None) -> list[tuple[tuple[int, ...], int, int]]:
    """The integer points of a bounded P as runs (prefix, lo, hi), in
    lexicographic order: the points (*prefix, v) for lo <= v <= hi, every
    point of P with those first n - 1 coordinates.  Each run is nonempty.

    Walks the integer grid of the bounding box coordinate by coordinate,
    narrowing the interval of each next coordinate by interval propagation
    over the rows, and stops at the last coordinate, whose interval is the
    run.  The propagation runs on the int rows with the box scaled by the
    lcm e of its denominators, so each bound is one floor division of ints.
    Each row's bound is exact at that row's last nonzero coordinate, so
    every point of a run lies in P and none is tested again.  An all-zero
    row is never bounded; it holds on a nonempty P.

    box is a list of (lo, hi) rational pairs, one per coordinate, containing
    P.  A caller that knows P is nonempty and bounded passes its exact
    bounding box (the coordinate-wise extremes of its vertices); without one
    the box is found by 2n LPs, which also show P empty (no runs) or
    unbounded (UnboundedError).
    """
    if box is None:
        box = bounding_box(P)
        if box is None:
            return []
    n = P.n
    rows, rhs = P.int_rows
    lo = [math.ceil(a) for a, _ in box]
    hi = [math.floor(b) for _, b in box]
    e = math.lcm(*(v.denominator for pair in box for v in pair))
    ebox = [(int(e * a), int(e * b)) for a, b in box]  # exact: e clears them
    # Per coordinate j, the rows with a nonzero entry there: that entry
    # times e, and e times the least value over the box of the row's part
    # past j.
    bounds = [[(i, e * row[j], sum(a * ebox[t][0 if a > 0 else 1]
                                   for t, a in enumerate(row[j + 1:], j + 1)))
               for i, row in enumerate(rows) if row[j]] for j in range(n)]
    out = []
    prefix: list[int] = []

    def rec(j: int, slack: list[int]):
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
            return
        for v in range(lo_j, hi_j + 1):
            prefix.append(v)
            rec(j + 1, [s - row[j] * v for s, row in zip(slack, rows)])
            prefix.pop()

    rec(0, list(rhs))
    return out


def enumerate_lattice_points(P: Polyhedron, box=None) -> list[tuple[int, ...]]:
    """All integer points of a bounded P, in lexicographic order, as int
    tuples: the runs of lattice_runs(P, box), expanded in order."""
    return [(*prefix, v) for prefix, lo, hi in lattice_runs(P, box)
            for v in range(lo, hi + 1)]


def enumerate_faces(P: Polyhedron) -> list[Face]:
    """Every nonempty face of a small bounded P.

    Each subset of rows forced to equality yields a face; faces are
    deduplicated by their maximal equality set.  Includes P itself and all
    vertices.
    """
    assert_bounded(P)
    if is_empty(P):
        return []
    faces: dict[frozenset[int], int] = {}
    infeasible: list[frozenset[int]] = []

    def face_system(S):
        rows = [list(r) for r in P.A]
        rhs = list(P.b)
        for i in S:
            rows.append([-c for c in P.A[i]])
            rhs.append(-P.b[i])
        return rows, rhs

    for size in range(P.m + 1):
        for S in combinations(range(P.m), size):
            Sset = frozenset(S)
            if any(bad <= Sset for bad in infeasible):
                continue
            rows, rhs = face_system(Sset)
            if lp_solve(rows, rhs, [ZERO] * P.n, "min").status == "infeasible":
                infeasible.append(Sset)
                continue
            # Maximal equality set: row i is forced iff min a_i.x over the
            # face equals b_i.
            eq = set(Sset)
            for i in range(P.m):
                if i in eq:
                    continue
                res = lp_solve(rows, rhs, list(P.A[i]), "min")
                if res.objective == P.b[i]:
                    eq.add(i)
            E = frozenset(eq)
            if E not in faces:
                eq_rows = [list(P.A[i]) for i in sorted(E)]
                faces[E] = P.n - exact.rank(eq_rows)
    return sorted((Face(E, d) for E, d in faces.items()),
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
