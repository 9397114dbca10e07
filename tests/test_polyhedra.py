import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, polyhedra
from iqprox.errors import DimensionError, UnboundedError
from iqprox.polyhedra import (bounding_box, contains, coordinate_range,
                              enumerate_faces, enumerate_lattice_points,
                              enumerate_vertices, intersect_with_box, is_empty,
                              polyhedron, tight_rows)


def square(r=2):
    return polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [r, r, r, r])


def triangle():
    # x >= 0, y >= 0, x + y <= 2
    return polyhedron([[-1, 0], [0, -1], [1, 1]], [0, 0, 2])


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
def systems_and_points(draw):
    """Rational A x <= b and an integer, rational or on-facet point."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    A = [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]
    b = [draw(RATIONALS) for _ in range(m)]
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
    """Same points as a box scan, and the same leaves tested as the Fraction walk."""
    want, want_visited = reference_lattice_points(P)
    scan = [tuple(map(F, p)) for p in product(range(-3, 4), repeat=P.n)
            if reference_contains(P, p)]
    assert want == scan
    visited = []

    def spy(Q, x):
        visited.append(x)
        return contains(Q, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "contains", spy)
        got = enumerate_lattice_points(P)
    assert got == scan
    assert visited == want_visited
    assert all(type(v) is F for p in got for v in p)


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


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
@example(polyhedron([[2, 0], [-1, 0], [0, 3], [0, -1]],
                    [F(1, 3), F(1, 2), F(5, 4), 0]))           # rational b
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-2, -2]],
                    [1, 1, 1, 1, F(1, 2), 1]))                 # parallel rows
@example(polyhedron([[1], [-1]], [F(-1, 2), 0]))               # empty
def test_vertices_match_fraction_reference(P):
    """Same vertices as the Fraction rows, with one solve per n-row subset."""
    calls, real = [], exact.solve_linear

    def spy(M, rhs):
        calls.append(M)
        return real(M, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "solve_linear", spy)
        got = enumerate_vertices(P)
    assert got == reference_vertices(P)
    assert all(type(v) is F for p in got for v in p)
    if bounding_box(P) is not None:
        assert len(calls) == math.comb(P.m, P.n)


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
    with pytest.raises(ValueError):
        intersect_with_box(square(), [F(0), F(0)], F(-1))


def test_vertex_tight_rows_have_full_rank():
    for P in (triangle(), square(3)):
        for v in enumerate_vertices(P):
            rows = [list(P.A[i]) for i in tight_rows(P, v)]
            assert exact.rank(rows) == P.n
