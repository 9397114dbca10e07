"""H-representation polyhedra: membership, vertices, faces, lattice points.

All enumeration routines assume desk-scale inputs and verify boundedness
before enumerating, raising UnboundedError otherwise.  Outputs are
canonically ordered (lexicographic) so results are deterministic.

The rational rows [A_i | b_i] are what callers and the LPs see.  Membership
and lattice enumeration run on the same rows scaled to Python ints, each by
the lcm of its denominators: a point x is scaled once to X = D x over its
common denominator D, and row i holds iff (d_i A_i).X <= D (d_i b_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from . import exact
from .errors import DimensionError, UnboundedError
from .simplex import lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Polyhedron:
    """{x in R^n : A x <= b} with exact rational data."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.A)

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Each row [A_i | b_i] times the lcm of its denominators, split again."""
        rows, _ = exact._integer_rows([[*row, bi] for row, bi in zip(self.A, self.b)])
        return tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows)


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
    return Polyhedron(rows, rhs, n)


@dataclass(frozen=True)
class Face:
    """A nonempty face, identified by its maximal equality row set."""

    equality_rows: frozenset[int]
    dim: int


def _row_values(P: Polyhedron, x):
    """(d_i A_i).X and D (d_i b_i) for every row i, with X = D x."""
    if len(x) != P.n:
        raise DimensionError(f"point has dim {len(x)}, polyhedron has {P.n}")
    return _int_row_values(P, *exact.integer_vector(x))


def _int_row_values(P: Polyhedron, X, D: int):
    rows, rhs = P.int_rows
    return ((sum(map(mul, row, X)), D * c) for row, c in zip(rows, rhs))


def contains(P: Polyhedron, x) -> bool:
    return all(lhs <= rhs for lhs, rhs in _row_values(P, x))


def contains_int(P: Polyhedron, X, D: int) -> bool:
    """Whether P holds the point X / D, for an int vector X and an int D > 0."""
    return all(lhs <= rhs for lhs, rhs in _int_row_values(P, X, D))


def tight_rows(P: Polyhedron, x) -> frozenset[int]:
    return frozenset(i for i, (lhs, rhs) in enumerate(_row_values(P, x))
                     if lhs == rhs)


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


def enumerate_vertices(P: Polyhedron, *,
                       _bounded: bool = False) -> list[tuple[Fraction, ...]]:
    """Sorted vertex points, each found by solving an n-row subset.

    A caller that has already shown P nonempty and bounded within the same
    call passes _bounded=True to skip the 2n LPs of the bounding box.
    """
    if not _bounded and bounding_box(P) is None:
        return []
    rows, rhs = P.int_rows
    seen = set()
    for S in combinations(range(P.m), P.n):
        x = exact.solve_linear([rows[i] for i in S], [rhs[i] for i in S])
        if x is None:
            continue
        pt = tuple(x)
        if pt not in seen and contains(P, pt):
            seen.add(pt)
    return sorted(seen)


def enumerate_lattice_points(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """All integer points of a bounded P, in lexicographic order.

    Walks the integer grid of the exact bounding box coordinate by
    coordinate, narrowing the interval of each next coordinate by interval
    propagation over the rows, and keeps exactly the points with A x <= b.
    The propagation runs on the int rows with the box scaled by the lcm e of
    its denominators, so each bound is one floor division of ints.
    """
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
    prefix: list[Fraction] = []

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
            for v in range(lo_j, hi_j + 1):
                pt = (*prefix, Fraction(v))
                if contains(P, pt):
                    out.append(pt)
            return
        for v in range(lo_j, hi_j + 1):
            prefix.append(Fraction(v))
            rec(j + 1, [s - row[j] * v for s, row in zip(slack, rows)])
            prefix.pop()

    rec(0, list(rhs))
    return out


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
    constraint matrix is preserved.
    """
    r = Fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    rows = [list(row) for row in P.A]
    rhs = list(P.b)
    for i in range(P.n):
        e = [ZERO] * P.n
        e[i] = ONE
        rows.append(e)
        rhs.append(Fraction(center[i]) + r)
        rows.append([-x for x in e])
        rhs.append(-(Fraction(center[i]) - r))
    return polyhedron(rows, rhs, P.n)
