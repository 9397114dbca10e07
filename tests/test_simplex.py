import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, simplex
from iqprox.errors import DimensionError, InputError
from iqprox.polyhedra import Polyhedron, polyhedron
from iqprox.simplex import feasible_point, lp_solve
from reference import dot, reference_lp_solve


def brute_force_max(A, b, c):
    """Oracle: max c.x over all basic feasible points (vertex enumeration).

    Only valid when the LP is bounded, which the callers arrange by
    including box rows.
    """
    n = len(c)
    best = None
    for rows in combinations(range(len(A)), n):
        M = [list(A[i]) for i in rows]
        rhs = [F(b[i]) for i in rows]
        x = exact.solve_linear(M, rhs)
        if x is None:
            continue
        if all(dot(row, x) <= bi for row, bi in zip(A, b)):
            v = dot(c, x)
            if best is None or v > best:
                best = v
    return best


def box(n, r):
    A, b = [], []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        A.append(list(e))
        b.append(F(r))
        A.append([-x for x in e])
        b.append(F(r))
    return A, b


def test_simple_max():
    A, b = box(2, 5)
    res = lp_solve(polyhedron(A, b, 2), [F(1), F(2)], "max")
    assert res.is_optimal
    assert res.objective == 15
    assert res.point == [F(5), F(5)]


def test_min_is_negated_max():
    A, b = box(2, 3)
    res = lp_solve(polyhedron(A, b, 2), [F(1), F(0)], "min")
    assert res.objective == -3


def test_infeasible():
    A = [[F(1)], [F(-1)]]
    b = [F(-1), F(0)]  # x <= -1 and x >= 0
    assert lp_solve(polyhedron(A, b, 1), [F(1)], "max").status == "infeasible"
    assert feasible_point(polyhedron(A, b, 1)) is None


def test_unbounded():
    res = lp_solve(polyhedron([[F(-1)]], [F(0)], 1), [F(1)], "max")
    assert res.status == "unbounded"


def test_no_constraints_zero_objective():
    res = lp_solve(polyhedron([], [], 2), [F(0), F(0)], "min")
    assert res.is_optimal


def test_bad_sense():
    with pytest.raises(InputError):
        lp_solve(polyhedron([[F(1)]], [F(1)], 1), [F(1)], "maximize")


def test_shape_mismatch():
    with pytest.raises(DimensionError):
        lp_solve(polyhedron([[1, 2]], [1], 2), [1])


def test_degenerate_vertex():
    # three constraints through one point; Bland's rule must not cycle
    A = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)], [F(-1), F(0)], [F(0), F(-1)]]
    b = [F(1), F(1), F(2), F(0), F(0)]
    res = lp_solve(polyhedron(A, b, 2), [F(1), F(1)], "max")
    assert res.objective == 2


def test_rational_data():
    A = [[F(2, 3)], [F(-1)]]
    b = [F(1, 2), F(0)]
    res = lp_solve(polyhedron(A, b, 1), [F(1)], "max")
    assert res.objective == F(3, 4)


def test_equality_via_opposing_rows():
    A = [[F(1), F(1)], [F(-1), F(-1)], [F(-1), F(0)], [F(0), F(-1)]]
    b = [F(1), F(-1), F(0), F(0)]
    res = lp_solve(polyhedron(A, b, 2), [F(1), F(0)], "max")
    assert res.objective == 1


def test_random_against_vertex_oracle():
    rng = random.Random(20240817)
    for trial in range(120):
        n = rng.randint(1, 3)
        A, b = box(n, 4)
        for _ in range(rng.randint(0, 4)):
            row = [F(rng.randint(-3, 3)) for _ in range(n)]
            if all(x == 0 for x in row):
                continue
            A.append(row)
            b.append(F(rng.randint(-2, 6)))
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        res = lp_solve(polyhedron(A, b, n), c, "max")
        oracle = brute_force_max(A, b, c)
        if oracle is None:
            assert res.status == "infeasible", (trial, A, b)
        else:
            assert res.is_optimal, (trial, A, b)
            assert res.objective == oracle, (trial, A, b, c)
            assert all(dot(row, res.point) <= bi
                       for row, bi in zip(A, b))


RATIONALS = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def small_lps(draw):
    """Small LPs with rational data and negative rhs (phase 1), opposing
    equality pairs (degenerate drive-out of artificials, negative pivots),
    with or without a bounding box, so some are infeasible or unbounded,
    and zero or rational objectives."""
    n = draw(st.integers(1, 3))
    A, b = [], []
    if draw(st.booleans()):
        A, b = box(n, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(RATIONALS) for _ in range(n)]
        bi = draw(RATIONALS)
        A.append(row)
        b.append(bi)
        if draw(st.booleans()):
            A.append([-x for x in row])
            b.append(-bi)
    # A zero objective returns the vertex that phase 1 reaches.
    c = [draw(RATIONALS) for _ in range(n)] if draw(st.booleans()) else [F(0)] * n
    return A, b, c, draw(st.sampled_from(["max", "min"]))


@settings(max_examples=400, deadline=None)
@given(small_lps())
@example(([[F(1)], [F(-1)]], [F(-1), F(0)], [F(1)], "max"))  # infeasible
@example(([[F(-1)]], [F(0)], [F(1)], "max"))  # unbounded
@example(([[F(1), F(1)], [F(-1), F(-1)], [F(1), F(0)], [F(-1), F(0)]],
          [F(1), F(-1), F(1, 2), F(-1, 2)], [F(1), F(-2)], "min"))  # drive-out
@example(([], [], [F(1)], "min"))  # no rows, unbounded
def test_matches_fraction_tableau(lp):
    """Same pivots, same status, point and objective as the reference."""
    A, b, c, sense = lp
    pivots, expected = [], []
    pivot = simplex._pivot

    def spy(tab, obj, basis, row, col, d):
        pivots.append((row, col))
        return pivot(tab, obj, basis, row, col, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", spy)
        res = lp_solve(polyhedron(A, b, len(c)), c, sense)
    assert (res.status, res.point, res.objective) == reference_lp_solve(A, b, c, sense,
                                                                        expected)
    assert pivots == expected
    if res.is_optimal:
        assert all(type(x) is F for x in res.point + [res.objective])


@settings(max_examples=300, deadline=None)
@given(small_lps(), st.lists(st.integers(1, 6), min_size=14, max_size=14))  # 14 >= any m
@example(([[F(-1, 2), F(1)], [F(1, 2), F(2)], [F(2), F(1, 2)]],
          [F(-1, 3), F(-1, 2), F(1)], [F(0), F(0)], "min"),
         [1] * 14)  # (1/9, -5/18); (3/5, -2/5) if phase 1 dropped the scales
def test_lp_reads_int_rows_under_any_row_scaling(lp, ks):
    """lp_solve reads P's int rows with their scales: on polyhedron(A, b,
    n), and again with each int row and its scale times a positive int, it
    gives the reference's status, point and objective."""
    A, b, c, sense = lp
    n = len(c)
    P = polyhedron(A, b, n)
    want = reference_lp_solve(A, b, c, sense, [])
    res = lp_solve(P, c, sense)
    assert (res.status, res.point, res.objective) == want
    rows, rhs = P.int_rows
    Q = Polyhedron((tuple(tuple(k * x for x in row) for row, k in zip(rows, ks)),
                    tuple(k * x for x, k in zip(rhs, ks))),
                   tuple(k * d for d, k in zip(P.scales, ks)), n)
    res = lp_solve(Q, c, sense)
    assert (res.status, res.point, res.objective) == want
