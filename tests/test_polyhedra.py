import math
import random
from fractions import Fraction as F
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, polyhedra
from iqprox.errors import DimensionError, InputError, UnboundedError
from iqprox.polyhedra import (bounding_box, contains, coordinate_range,
                              enumerate_faces, enumerate_lattice_points,
                              enumerate_vertices, intersect_with_box, is_empty,
                              polyhedron, tight_rows)
from iqprox.simplex import lp_solve


def square(r=2):
    return polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [r, r, r, r])


def triangle():
    # x >= 0, y >= 0, x + y <= 2
    return polyhedron([[-1, 0], [0, -1], [1, 1]], [0, 0, 2])


def integer_box(box):
    """A box of (lo, hi) rational pairs as lattice_runs takes it: lows,
    highs and D > 0 with lo_i = lows[i] / D and hi_i = highs[i] / D."""
    X, D = exact.integer_vector([v for pair in box for v in pair])
    return X[0::2], X[1::2], D


def reference_contains(P, x):
    """Membership in Fraction arithmetic, which the int rows must reproduce."""
    xv = [F(v) for v in x]
    return all(exact.dot(row, xv) <= bi for row, bi in zip(P.A, P.b))


def reference_tight_rows(P, x):
    xv = [F(v) for v in x]
    return frozenset(i for i in range(P.m) if exact.dot(P.A[i], xv) == P.b[i])


def reference_lattice_points(P):
    """Fraction interval propagation over the box; also the points tested."""
    box = bounding_box(P)
    if box is None:
        return [], []
    out, visited, prefix = [], [], []

    def rec(j):
        if j == P.n:
            visited.append(tuple(prefix))
            if reference_contains(P, prefix):
                out.append(tuple(prefix))
            return
        lo, hi = math.ceil(box[j][0]), math.floor(box[j][1])
        for row, bi in zip(P.A, P.b):
            if row[j] == 0:
                continue
            slack = bi - sum(row[t] * prefix[t] for t in range(j))
            for t in range(j + 1, P.n):
                slack -= row[t] * box[t][0 if row[t] > 0 else 1]
            if row[j] > 0:
                hi = min(hi, math.floor(slack / row[j]))
            else:
                lo = max(lo, math.ceil(slack / row[j]))
        for v in range(lo, hi + 1):
            prefix.append(F(v))
            rec(j + 1)
            prefix.pop()

    rec(0)
    return out, visited


RATIONALS = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_systems(draw):
    """Rational A and b of A x <= b, and n."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    A = [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]
    b = [draw(RATIONALS) for _ in range(m)]
    return A, b, n


@st.composite
def systems_and_points(draw):
    """Rational A x <= b and an integer, rational or on-facet point."""
    A, b, n = draw(rational_systems())
    m = len(A)
    kind = draw(st.sampled_from(["integer", "rational", "facet"]))
    if kind == "integer":
        x = [draw(st.integers(-4, 4)) for _ in range(n)]
    else:
        x = [draw(st.fractions(-4, 4, max_denominator=6)) for _ in range(n)]
    facet = None
    if kind == "facet":
        # Slide x along a coordinate with a nonzero entry onto row i.
        i = draw(st.integers(0, m - 1))
        j = next((j for j, a in enumerate(A[i]) if a), None)
        if j is not None:
            x[j] += (F(b[i]) - exact.dot(A[i], x)) / F(A[i][j])
            facet = i
    return polyhedron(A, b, n), x, facet


@settings(max_examples=300, deadline=None)
@given(systems_and_points())
@example((polyhedron([[F(1, 2), F(-1, 3)]], [F(1, 6)]), [F(1), F(1)], 0))
@example((polyhedron([[F(-2, 3)]], [F(2)]), [-3], 0))
def test_membership_matches_fraction_reference(case):
    P, x, facet = case
    assert contains(P, x) == reference_contains(P, x)
    assert contains(P, tuple(map(F, x))) == reference_contains(P, x)
    X, D = exact.integer_vector(x)
    assert (polyhedra.contains_int(P, [3 * v for v in X], 3 * D)
            == reference_contains(P, x))
    tight = tight_rows(P, x)
    assert tight == reference_tight_rows(P, x)
    if facet is not None:
        assert facet in tight


@st.composite
def bounded_systems(draw):
    """A rational box of radius at most 3 cut by up to three rational rows."""
    n = draw(st.integers(1, 3))
    rows, rhs = [], []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows += [e, [-x for x in e]]
        rhs += [draw(st.fractions(0, 3, max_denominator=3)) for _ in range(2)]
    for _ in range(draw(st.integers(0, 3))):
        rows.append([draw(RATIONALS) for _ in range(n)])
        rhs.append(draw(RATIONALS))
    return polyhedron(rows, rhs, n)


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
def test_lattice_points_match_fraction_reference(P):
    """Same points as a box scan and the Fraction walk, as int tuples; every
    leaf the walk reaches lies in P, with the LP box or a box passed in."""
    want, want_visited = reference_lattice_points(P)
    scan = [tuple(map(F, p)) for p in product(range(-3, 4), repeat=P.n)
            if reference_contains(P, p)]
    assert want == scan
    assert want_visited == want
    got = enumerate_lattice_points(P)
    assert got == scan
    assert all(type(v) is int for p in got for v in p)
    box = bounding_box(P)
    if box is not None:
        assert enumerate_lattice_points(P, integer_box(box)) == got
        wide = [(lo - F(1, 2), hi + 1) for lo, hi in box]
        assert enumerate_lattice_points(P, integer_box(wide)) == got


def reference_vertices(P):
    """enumerate_vertices on the Fraction rows: one solve per n-row subset."""
    if bounding_box(P) is None:
        return []
    seen = set()
    for S in combinations(range(P.m), P.n):
        x = exact.solve_linear([list(P.A[i]) for i in S], [P.b[i] for i in S])
        if x is not None and reference_contains(P, x):
            seen.add(tuple(x))
    return sorted(seen)


@st.composite
def opened_systems(draw):
    """A bounded_systems region, opened (a row dropped or negated), emptied
    by a contradicting row pair, or cut down to fewer than n rows."""
    P = draw(bounded_systems())
    rows, rhs = [list(r) for r in P.A], list(P.b)
    kind = draw(st.sampled_from(["drop", "negate", "contradict", "few-rows"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "drop":
        del rows[i], rhs[i]
    elif kind == "negate":
        rows[i] = [-c for c in rows[i]]
    elif kind == "contradict":
        rows += [rows[i], [-c for c in rows[i]]]
        rhs += [rhs[i], -rhs[i] - 1]
    else:
        keep = draw(st.integers(0, P.n - 1))
        rows, rhs = rows[:keep], rhs[:keep]
    return polyhedron(rows, rhs, P.n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_systems(), opened_systems()))
@example(polyhedron([[2, 0], [-1, 0], [0, 3], [0, -1]],
                    [F(1, 3), F(1, 2), F(5, 4), 0]))           # rational b
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-2, -2]],
                    [1, 1, 1, 1, F(1, 2), 1]))                 # parallel rows
@example(polyhedron([[1], [-1]], [F(-1, 2), 0]))               # empty
@example(polyhedron([[-1]], [0]))                              # a ray, n = 1
@example(polyhedron([[1, 1], [-1, -1]], [2, 2]))               # a strip: rank 1
@example(polyhedron([[1, 0], [-1, 0], [0, 1]], [2, 2, 2]))     # two vertices, open below
def test_vertices_match_fraction_reference(P):
    """Same vertices as one solve per n-row subset of the Fraction rows, or
    the same UnboundedError, with no solve_linear call: the points come
    from the lines of the independent row set walk."""
    calls, real = [], exact.solve_linear

    def spy(M, rhs):
        calls.append(M)
        return real(M, rhs)

    try:
        want = reference_vertices(P)
    except UnboundedError as err:
        with pytest.raises(UnboundedError) as got:
            enumerate_vertices(P)
        assert str(got.value) == str(err)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "solve_linear", spy)
        got = enumerate_vertices(P)
    assert got == want
    assert all(type(v) is F for p in got for v in p)
    assert calls == []


def test_vertices_of_a_polytope_take_no_lp(monkeypatch):
    """A nonempty polytope's vertices need no bounding-box LP: no line of
    the walk recedes."""
    monkeypatch.setattr(polyhedra, "lp_solve", None)
    assert enumerate_vertices(triangle()) == [(F(0), F(0)), (F(0), F(2)), (F(2), F(0))]


def test_faces_and_lattice_of_a_polytope_take_no_lp(monkeypatch):
    """The faces and the lattice walk's box come from the vertices, so on a
    nonempty polytope neither solves an LP; a degenerate vertex (the apex
    of a square pyramid, tight on four rows) included."""
    pyramid = polyhedron([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
                         [0, 2, 2, 2, 2])
    want = {P: (reference_lp_faces(P), reference_lp_lattice_runs(P))
            for P in (triangle(), square(2), pyramid)}
    monkeypatch.setattr(polyhedra, "lp_solve", None)
    for P, (faces, runs) in want.items():
        assert enumerate_faces(P) == faces
        assert polyhedra.lattice_runs(P) == runs
    assert [f.dim for f in want[pyramid][0]] == [3] + [2] * 5 + [1] * 8 + [0] * 5


def reference_echelon_vertices(P):
    """enumerate_vertices as it walked the independent sets of n - 1 rows,
    each line from its own echelon (leaf_echelon_lines)."""
    seen, recedes = set(), False
    for S, line in leaf_echelon_lines(P):
        recedes = recedes or line.recedes
        for X, e in line.vertices(S[-1] + 1 if S else 0):
            seen.add(exact.rational_vector(X, e))
    if (recedes or not seen) and bounding_box(P) is None:
        return []
    return sorted(seen)


def reference_lp_lattice_runs(P):
    """lattice_runs on the box of bounding_box's 2n LPs."""
    box = bounding_box(P)
    return [] if box is None else polyhedra.lattice_runs(P, integer_box(box))


def reference_lp_faces(P):
    """enumerate_faces by LP: each row set S forced to equality whose face
    is nonempty, with its maximal equality set found by one LP per row."""
    polyhedra.assert_bounded(P)
    if is_empty(P):
        return []
    faces, infeasible = {}, []
    for size in range(P.m + 1):
        for S in map(frozenset, combinations(range(P.m), size)):
            if any(bad <= S for bad in infeasible):
                continue
            rows = [list(r) for r in P.A] + [[-c for c in P.A[i]] for i in S]
            rhs = list(P.b) + [-P.b[i] for i in S]
            if lp_solve(rows, rhs, [F(0)] * P.n, "min").status == "infeasible":
                infeasible.append(S)
                continue
            E = frozenset(S | {i for i in range(P.m) if i not in S
                               and lp_solve(rows, rhs, list(P.A[i]), "min").objective == P.b[i]})
            faces.setdefault(E, P.n - exact.rank([list(P.A[i]) for i in sorted(E)]))
    return sorted((polyhedra.Face(E, d) for E, d in faces.items()),
                  key=lambda f: (len(f.equality_rows), sorted(f.equality_rows)))


def same_or_same_error(got, want):
    """got() and want() give equal results, or UnboundedErrors of one text."""
    try:
        expected = want()
    except UnboundedError as err:
        with pytest.raises(UnboundedError) as raised:
            got()
        assert str(raised.value) == str(err)
        return
    assert got() == expected


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 1, 1, 2]))                          # (1, 1) tight on 3 rows
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0]],
                    [1, 1, 1, 1, 1]))                          # x_0 = 1 misses 2 x_0 <= 1
@example(polyhedron([[1], [-1]], [F(-1, 2), 0]))               # empty, n = 1
def test_line_vertices_match_leaf_echelons(P):
    """Per independent set S of n - 1 rows, Line.vertices gives what one
    echelon per leaf gives: in row order, the ints exact._solution_space
    finds for each independent S + (j,), j > max S, whose point lies in P.
    holds agrees with contains_int at the ends of the line's interval, at
    their midpoint and one step past them, and recedes with the signs of
    the products A_i.w."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    for S, a, pivots in exact.independent_row_sets(aug, n, n - 1, n - 1):
        X0, (w,), L = exact._solution_space(a, pivots, n)
        line = polyhedra.line_through(P, X0, w, L)
        start = S[-1] + 1 if S else 0
        want = []
        for j in range(start, P.m):
            ext = exact._extend_echelon(a, pivots, aug[j], n)
            if ext is not None:
                X, _, e = exact._solution_space(a + [ext[0]], pivots + [ext[1]], n)
                if polyhedra.contains_int(P, X, e):
                    want.append((X, e))
        assert list(line.vertices(start)) == want
        assert line.recedes == (all(t <= 0 for t in line.dots)
                                or all(t >= 0 for t in line.dots))
        ts = [(0, 1)]
        for end in (line.lo, line.hi):
            if end is not None:
                num, den = end
                ts += [(num - den, den), (num, den), (num + den, den)]
        if line.lo is not None and line.hi is not None:
            (a0, a1), (b0, b1) = line.lo, line.hi
            ts.append((a0 * b1 + b0 * a1, 2 * a1 * b1))
        for num, den in ts:
            X = [den * x + num * y for x, y in zip(X0, w)]
            assert line.holds(num, den) == polyhedra.contains_int(P, X, L * den)


def leaf_echelon_lines(P):
    """(S, Line) for each independent set S of n - 1 int rows, in (size,
    lex) order, each from the echelon of S: exact._solution_space and then
    line_through, as the face walk built every line before it took them
    from their planes."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    out = []
    for S, a, pivots in exact.independent_row_sets(aug, n, n - 1, n - 1):
        X0, (w,), L = exact._solution_space(a, pivots, n)
        out.append((S, polyhedra.line_through(P, X0, w, L)))
    return out


def edge_lines_on_planes(P, solved):
    """polyhedra.edge_lines on the independent sets of n - 2 rows, each
    with its exact._solution_space when solved, else with None."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    planes = [(S, a, pivots, exact._solution_space(a, pivots, n) if solved else None)
              for S, a, pivots in exact.independent_row_sets(aug, n, n - 2, n - 2)]
    return list(polyhedra.edge_lines(P, planes))


def plane_line_cases(P) -> set[str]:
    """The cases of P that plane_lines must get right: its dimension, zero
    rows, rows equal or opposite up to a positive scale, a plane with rows
    after it none of which is independent of it, a line whose row j has
    u_j = 0 != v_j (its pivot is the second free column) and a plane with
    L != 1 that has a line."""
    n = P.n
    rows, rhs = P.int_rows
    cases = {f"n={n}"}
    seen = set()
    for row in rows:
        g = math.gcd(*row)
        if not g:
            cases.add("zero row")
            continue
        unit = tuple(x // g for x in row)
        if unit in seen:
            cases.add("duplicate row")
        if tuple(-x for x in unit) in seen:
            cases.add("opposite row")
        seen.add(unit)
    if n == 1:
        return cases
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    for S, a, pivots in exact.independent_row_sets(aug, n, n - 2, n - 2):
        start = S[-1] + 1 if S else 0
        X0, (W1, W2), L = exact._solution_space(a, pivots, n)
        later = [(sum(map(mul, row, W1)), sum(map(mul, row, W2))) for row in rows[start:]]
        if later and not any(u or v for u, v in later):
            cases.add("dependent rows")
        if any(v and not u for u, v in later):
            cases.add("f2 pivot")
        if L != 1 and any(u or v for u, v in later):
            cases.add("L != 1")
    return cases


PLANE_CASES = ["n=1", "n=2", "n=3", "n=4", "zero row", "duplicate row", "opposite row",
               "dependent rows", "f2 pivot", "L != 1"]
PLANE_EXAMPLES = [
    polyhedron([[2], [-1], [0], [4]], [3, 1, 0, F(1, 2)], 1),
    polyhedron([[1, 0], [0, 1], [-1, -1], [0, 0]], [1, 1, 1, 0], 2),
    polyhedron([[2, 1, 0], [0, 0, 1], [1, 1, 1], [-2, -1, 0], [2, 1, 0]], [1, 2, 3, 4, 5], 3),
    polyhedron([[1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 0]], [1, 1, 1, 0], 3),
    polyhedron([[1, 2, 0, -1], [0, 3, 1, 0], [1, 2, 0, -1], [0, 0, -2, 1], [-1, -2, 0, 1],
                [1, 1, 1, 1]], [1, F(2, 3), 3, -1, 2, F(1, 2)], 4),
]


@st.composite
def plane_systems(draw):
    """Up to six int rows in n = 1..4 unknowns with entries in [-3, 3], and
    up to three more, each zero or a copy or the negative of a row, put
    anywhere; rational right-hand sides."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["zero", "copy", "negative"]))
        new = [0] * n if kind == "zero" else row if kind == "copy" else [-x for x in row]
        rows.insert(draw(st.integers(0, len(rows))), new)
    rhs = [draw(st.fractions(-4, 4, max_denominator=3)) for _ in rows]
    return polyhedron(rows, rhs, n)


def test_plane_line_examples_cover_every_case():
    assert set().union(*map(plane_line_cases, PLANE_EXAMPLES)) == set(PLANE_CASES)


@settings(max_examples=200, deadline=None)
@given(plane_systems())
@example(PLANE_EXAMPLES[0])
@example(PLANE_EXAMPLES[1])
@example(PLANE_EXAMPLES[2])
@example(PLANE_EXAMPLES[3])
@example(PLANE_EXAMPLES[4])
def test_plane_lines_match_leaf_echelons(P):
    """edge_lines gives, through plane_lines for each plane and in the same
    j order, the Line that the echelon of the plane plus row j gives
    through exact._solution_space and line_through: every field equal,
    whether each plane comes solved or is solved on demand.  For n = 1 it
    is the axis line."""
    want = leaf_echelon_lines(P)
    assert edge_lines_on_planes(P, True) == want
    assert edge_lines_on_planes(P, False) == want


VERTEX_EXAMPLES = [
    polyhedron([[1], [-1]], [F(-1, 2), 0]),                         # empty, n = 1
    polyhedron([[-1]], [0]),                                        # a ray, n = 1
    polyhedron([[2], [-1]], [3, 1]),                                # a segment, n = 1
    polyhedron([[1, 1], [-1, -1]], [2, 2]),                         # a strip: rank 1
    polyhedron([[1, 0], [-1, 0], [0, 1]], [2, 2, 2]),               # open below
    polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
               [1, 1, 1, 1, 2]),                                    # (1, 1) tight on 3 rows
    polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
               [1, 1, 1, 1, 0, 0]),                                 # a diagonal segment
    polyhedron([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
               [0, 2, 2, 2, 2]),                                    # square pyramid
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_systems(), opened_systems(), plane_systems()))
@example(VERTEX_EXAMPLES[0])
@example(VERTEX_EXAMPLES[1])
@example(VERTEX_EXAMPLES[2])
@example(VERTEX_EXAMPLES[3])
@example(VERTEX_EXAMPLES[4])
@example(VERTEX_EXAMPLES[5])
@example(VERTEX_EXAMPLES[6])
@example(VERTEX_EXAMPLES[7])
def test_vertices_and_lattice_runs_match_references(P):
    """enumerate_vertices on the planes' lines gives what it gave on the
    (n - 1)-row echelons, and lattice_runs on the vertex box what it gave
    on the LP box: the same points and runs, or the same UnboundedError."""
    same_or_same_error(lambda: enumerate_vertices(P), lambda: reference_echelon_vertices(P))
    same_or_same_error(lambda: polyhedra.lattice_runs(P), lambda: reference_lp_lattice_runs(P))


@settings(max_examples=60, deadline=None)
@given(st.one_of(bounded_systems(), opened_systems()))
@example(VERTEX_EXAMPLES[0])
@example(VERTEX_EXAMPLES[1])
@example(VERTEX_EXAMPLES[2])
@example(VERTEX_EXAMPLES[3])
@example(VERTEX_EXAMPLES[5])
@example(VERTEX_EXAMPLES[6])
@example(VERTEX_EXAMPLES[7])
def test_faces_match_lp_reference(P):
    """enumerate_faces from the vertices' tight rows gives the faces one LP
    per row set and row gave, or the same UnboundedError."""
    same_or_same_error(lambda: enumerate_faces(P), lambda: reference_lp_faces(P))


def reference_intersect_with_box(P, center, radius):
    """The box rows +-e_i <= +-c_i + r appended to P's rational rows, and
    the whole system scaled again by `polyhedron`."""
    r = F(radius)
    rows, rhs = [list(row) for row in P.A], list(P.b)
    for i in range(P.n):
        e = [F(int(j == i)) for j in range(P.n)]
        rows += [e, [-x for x in e]]
        rhs += [F(center[i]) + r, -(F(center[i]) - r)]
    return polyhedron(rows, rhs, P.n)


@settings(max_examples=200, deadline=None)
@given(rational_systems(), st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.sets(st.integers(0, 2)), st.lists(RATIONALS, min_size=3, max_size=3),
       st.fractions(0, 3, max_denominator=6))
@example(([[F(1, 2), F(1)], [F(-1), F(0)]], [F(3), F(2)], 2), [-1, 2, 0], {0, 1},
         [F(1, 2), F(-1, 3), 0], F(1, 2))
def test_derived_polyhedra_match_fresh_ones(system, shift, zeros, center, radius):
    """polyhedron's A and b views are its input rows, exactly and as
    Fractions; translate, fix_zero and intersect_with_box give the
    polyhedron a fresh build from Fraction rows has, int rows and scales
    included (fix_zero with no coordinate gives its input itself);
    translating by -X undoes it."""
    A, b, n = system
    P = polyhedron(A, b, n)
    assert [list(row) for row in P.A] == A and list(P.b) == b
    assert all(type(x) is F for x in (*P.b, *(x for row in P.A for x in row)))
    X = shift[:P.n]
    T = polyhedra.translate(P, X)
    assert T == polyhedron(P.A, [bi - exact.dot(row, X) for row, bi in zip(P.A, P.b)], P.n)
    assert T.int_rows == polyhedron(T.A, T.b, T.n).int_rows
    assert all(type(x) is F for x in T.b)
    assert polyhedra.translate(T, [-x for x in X]) == P
    coords = {i for i in zeros if i < P.n}
    Z = polyhedra.fix_zero(T, coords)
    units = [[F(s * (j == i)) for j in range(P.n)] for i in sorted(coords) for s in (1, -1)]
    assert Z == polyhedron([*T.A, *units], [*T.b] + [F(0)] * len(units), P.n)
    assert Z.int_rows == polyhedron(Z.A, Z.b, Z.n).int_rows
    assert all(type(x) is F for r in Z.A for x in r)
    assert (Z is T) == (not coords)  # no coordinate to fix: T itself
    B = intersect_with_box(Z, center[:P.n], radius)
    assert B == reference_intersect_with_box(Z, center[:P.n], radius)
    assert all(type(x) is F for x in (*B.b, *(x for row in B.A for x in row)))


def test_builder_validation():
    with pytest.raises(DimensionError):
        polyhedron([[1, 2]], [1, 2])
    with pytest.raises(DimensionError):
        polyhedron([], [])


def test_contains_and_tight_rows():
    P = triangle()
    assert contains(P, [F(1), F(1)])
    assert not contains(P, [F(2), F(1)])
    assert tight_rows(P, [F(0), F(2)]) == frozenset({0, 2})


def test_coordinate_range():
    P = triangle()
    assert coordinate_range(P, 0) == (F(0), F(2))


def test_coordinate_range_unbounded():
    P = polyhedron([[-1]], [0])
    with pytest.raises(UnboundedError):
        coordinate_range(P, 0)


def test_empty():
    P = polyhedron([[1], [-1]], [-1, 0])
    assert is_empty(P)
    assert bounding_box(P) is None
    assert enumerate_vertices(P) == []
    assert enumerate_lattice_points(P) == []


def test_vertices_triangle():
    pts = enumerate_vertices(triangle())
    assert pts == [(F(0), F(0)), (F(0), F(2)), (F(2), F(0))]


def test_vertices_rational():
    P = polyhedron([[2, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    pts = enumerate_vertices(P)
    assert (F(1, 2), F(0)) in pts


def test_lattice_points_square():
    pts = enumerate_lattice_points(square(2))
    assert len(pts) == 25
    assert pts[0] == (F(-2), F(-2))
    assert pts == sorted(pts)


def test_lattice_points_match_box_scan():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 3)
        rows, rhs = [], []
        for i in range(n):
            e = [F(0)] * n
            e[i] = F(1)
            rows.append(list(e))
            rhs.append(F(3))
            rows.append([-x for x in e])
            rhs.append(F(3))
        for _ in range(rng.randint(0, 3)):
            row = [F(rng.randint(-2, 2)) for _ in range(n)]
            rows.append(row)
            rhs.append(F(rng.randint(-2, 4)))
        P = polyhedron(rows, rhs, n)
        got = enumerate_lattice_points(P)
        want = [tuple(map(F, p)) for p in product(range(-3, 4), repeat=n)
                if reference_contains(P, p)]
        assert got == sorted(want)


def test_faces_of_triangle():
    faces = enumerate_faces(triangle())
    dims = sorted(f.dim for f in faces)
    # one 2-face, three edges, three vertices
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    full = [f for f in faces if f.equality_rows == frozenset()]
    assert full[0].dim == 2


def test_faces_detect_implied_equality():
    # x <= 1 and x >= 1 force equality even when not requested
    P = polyhedron([[1], [-1]], [1, -1])
    faces = enumerate_faces(P)
    assert len(faces) == 1
    assert faces[0].dim == 0


def test_intersect_with_box():
    P = square(5)
    Q = intersect_with_box(P, [F(0), F(0)], F(1))
    assert contains(Q, [F(1), F(1)])
    assert not contains(Q, [F(2), F(0)])
    assert exact.max_abs_subdeterminant(Q.A) == exact.max_abs_subdeterminant(P.A)


def test_intersect_with_box_negative_radius():
    with pytest.raises(InputError):
        intersect_with_box(square(), [F(0), F(0)], F(-1))


def test_vertex_tight_rows_have_full_rank():
    for P in (triangle(), square(3)):
        for v in enumerate_vertices(P):
            rows = [list(P.A[i]) for i in tight_rows(P, v)]
            assert exact.rank(rows) == P.n


@pytest.mark.parametrize("call, message", [
    (lambda: polyhedron([[1, 0], [1]], [1, 1]), "inconsistent row lengths"),
    (lambda: polyhedron([], [], 0), "ambient dimension must be >= 1"),
    (lambda: contains(square(), [0]), "point has dim 1, polyhedron has 2"),
], ids=["row-lengths", "n=0", "point"])
def test_polyhedra_dimension_checks(call, message):
    """Each dimension check of polyhedra raises its DimensionError."""
    with pytest.raises(DimensionError) as got:
        call()
    assert type(got.value) is DimensionError and str(got.value) == message
    assert got.traceback[-1].path.name == "polyhedra.py"


def reference_walk_leaves(lines):
    """The face walk's leaf, recession and box code as it was inline: the
    leaves (X, e) of the lines in (S, j) order, dropped when some line
    recedes, and their coordinate-wise extremes over the lcm of the e, or
    None without a leaf."""
    leaves, recedes = [], False
    for S, line in lines:
        recedes = recedes or line.recedes
        leaves += line.vertices(S[-1] + 1 if S else 0)
    if recedes:
        leaves = []
    if not leaves:
        return [], None
    D = math.lcm(*(e for _, e in leaves))
    cols = list(zip(*([x * (D // e) for x in X] for X, e in leaves)))
    return leaves, ([min(c) for c in cols], [max(c) for c in cols], D)


def rational_box(box):
    lows, highs, D = box
    return [(F(a, D), F(b, D)) for a, b in zip(lows, highs)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_systems(), opened_systems(), plane_systems()))
@example(VERTEX_EXAMPLES[0])
@example(VERTEX_EXAMPLES[1])
@example(VERTEX_EXAMPLES[2])
@example(VERTEX_EXAMPLES[3])
@example(VERTEX_EXAMPLES[4])
@example(VERTEX_EXAMPLES[5])
@example(VERTEX_EXAMPLES[6])
@example(VERTEX_EXAMPLES[7])
def test_vertex_ints_and_box_match_references(P):
    """line_leaves and vertex_box give the face walk's former inline
    leaves and box on the same lines; vertex_ints gives the points of the
    Fraction vertices, and vertex_box of them integer_box's rational box,
    with lattice_runs the same on either: or the same UnboundedError."""
    lines = leaf_echelon_lines(P)
    leaves, polytope = polyhedra.line_leaves(lines)
    got = (leaves, polyhedra.vertex_box(leaves)) if polytope else ([], None)
    assert got == reference_walk_leaves(lines)
    assert all(type(v) is int for X, e in leaves for v in [*X, e]) and all(e > 0 for _, e in leaves)
    try:
        want = reference_echelon_vertices(P)
    except UnboundedError as err:
        with pytest.raises(UnboundedError) as raised:
            polyhedra.vertex_ints(P)
        assert str(raised.value) == str(err)
        return
    verts = polyhedra.vertex_ints(P)
    assert sorted({exact.rational_vector(X, e) for X, e in verts}) == want
    if not want:
        assert verts == [] and polyhedra.lattice_runs(P) == []
        return
    cols = list(zip(*want))  # the Fraction extremes, as integer_box scales them
    want_box = integer_box(list(zip(map(min, cols), map(max, cols))))
    box = polyhedra.vertex_box(verts)
    assert rational_box(box) == rational_box(want_box)
    assert (polyhedra.lattice_runs(P, box) == polyhedra.lattice_runs(P, want_box)
            == polyhedra.lattice_runs(P))
