import importlib
import importlib.util
import math
import random
import sys
from fractions import Fraction as F
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, oracles, polyhedra
from iqprox.errors import DimensionError, InputError, UnboundedError
from iqprox.polyhedra import (bounding_box, contains, coordinate_range,
                              enumerate_faces, enumerate_lattice_points,
                              enumerate_vertices, intersect_with_box, is_empty,
                              polyhedron, tight_rows)
from iqprox.simplex import lp_solve

import reference
from reference import recursive_lattice_runs


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


def reference_tight_rows(P, x):
    A, b = reference.rational_rows(P)
    return frozenset(i for i in range(P.m) if reference.dot(A[i], x) == b[i])


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
            x[j] += (F(b[i]) - reference.dot(A[i], x)) / F(A[i][j])
            facet = i
    return polyhedron(A, b, n), x, facet


@settings(max_examples=300, deadline=None)
@given(systems_and_points())
@example((polyhedron([[F(1, 2), F(-1, 3)]], [F(1, 6)]), [F(1), F(1)], 0))
@example((polyhedron([[F(-2, 3)]], [F(2)]), [-3], 0))
def test_membership_matches_fraction_reference(case):
    P, x, facet = case
    assert contains(P, x) == reference.contains(P, x)
    assert contains(P, tuple(map(F, x))) == reference.contains(P, x)
    X, D = exact.integer_vector(x)
    assert (polyhedra.contains_int(P, [3 * v for v in X], 3 * D)
            == reference.contains(P, x))
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
    """Same points as the box scan, as int tuples, with the LP box or a box
    passed in."""
    got = enumerate_lattice_points(P)
    assert got == reference.lattice_points(P)
    assert all(type(v) is int for p in got for v in p)
    box = bounding_box(P)
    if box is not None:
        assert enumerate_lattice_points(P, integer_box(box)) == got
        wide = [(lo - F(1, 2), hi + 1) for lo, hi in box]
        assert enumerate_lattice_points(P, integer_box(wide)) == got


@st.composite
def opened_systems(draw):
    """A bounded_systems region, opened (a row dropped or negated), emptied
    by a contradicting row pair, or cut down to fewer than n rows."""
    P = draw(bounded_systems())
    A, b = reference.rational_rows(P)
    rows, rhs = [list(r) for r in A], list(b)
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
        want = reference.vertices(P)
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
    want = {P: (reference.reference_lp_faces(P), reference.runs(reference.lattice_points(P)))
            for P in (triangle(), square(2), pyramid)}
    monkeypatch.setattr(polyhedra, "lp_solve", None)
    for P, (faces, runs) in want.items():
        assert enumerate_faces(P) == faces
        assert polyhedra.lattice_runs(P) == runs
    assert [f.dim for f in want[pyramid][0]] == [3] + [2] * 5 + [1] * 8 + [0] * 5


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


LINE_FIELDS = ("X0", "w", "L", "lo", "hi", "meets")


def walk(P, solved):
    """polyhedra.edge_walk on the independent sets of n - 2 rows, each with
    its exact._solution_space when solved, else with None: the lines it
    visits, (S, (X0, w, L, lo, hi, meets)) in order, its leaves and its
    polytope verdict."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    planes = [(S, a, pivots, exact._solution_space(a, pivots, n) if solved else None)
              for S, a, pivots in exact.independent_row_sets(aug, n, n - 2, n - 2)]
    lines = []
    leaves, polytope = polyhedra.edge_walk(P, planes, lambda S, *line: lines.append((S, line)))
    return lines, leaves, polytope


def reference_walk(P):
    """The same from the reference's edge lines, each from its own echelon:
    the lines' fields, the leaves ListLine.vertices(max S + 1) of each line
    in order, and the verdict "some leaf, and no line recedes"."""
    lines = reference.edge_lines(P)
    leaves = [v for S, line in lines for v in line.vertices(S[-1] + 1 if S else 0)]
    return ([(S, tuple(getattr(line, f) for f in LINE_FIELDS)) for S, line in lines],
            leaves, bool(leaves) and not any(line.recedes for _, line in lines))


def assert_same_lines(got, want):
    """got and want hold (lines, leaves, polytope) as walk gives them: the
    same sets S in the same order, each line with every field
    (LINE_FIELDS) of the other's, the same leaves in the same order, and
    the same verdict."""
    (lines, leaves, polytope), (ref_lines, ref_leaves, ref_polytope) = got, want
    assert [S for S, _ in lines] == [S for S, _ in ref_lines]
    for (S, line), (_, ref) in zip(lines, ref_lines):
        for field, x, y in zip(LINE_FIELDS, line, ref):
            assert x == y, (S, field)
    assert leaves == ref_leaves
    assert polytope == ref_polytope


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
@example(polyhedron([[2], [-1], [0], [4]], [3, 1, 0, F(1, 2)], 1))   # n = 1
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]],
                    [1, -2, 1, 1]))                            # empty: 2 <= x_0 <= 1
@example(polyhedron([[1, 0], [0, 1], [-1, 1]], [1, 1, 1]))   # unbounded below
@example(polyhedron([[1, 0], [2, 0], [-1, 0], [-3, 0], [0, 1], [0, -1]],
                    [1, 1, 1, 2, 1, 1]))                       # parallel rows
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 1, 1, 2]))                          # (1, 1) tight on 3 rows
def test_edge_walk_matches_the_reference(P):
    """edge_walk visits the reference's line of each independent set of
    n - 1 rows, in the same order and with every field equal, and gives
    the reference's leaves in the same (S, j) order and its polytope
    verdict, whether each plane comes solved or is solved on demand."""
    want = reference_walk(P)
    assert_same_lines(walk(P, True), want)
    assert_same_lines(walk(P, False), want)


@settings(max_examples=150, deadline=None)
@given(bounded_systems())
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 1, 1, 2]))                          # (1, 1) tight on 3 rows
@example(polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0]],
                    [1, 1, 1, 1, 1]))                          # x_0 = 1 misses 2 x_0 <= 1
@example(polyhedron([[1], [-1]], [F(-1, 2), 0]))               # empty, n = 1
def test_line_vertices_match_leaf_echelons(P):
    """edge_walk's leaves are what one echelon per leaf gives: per
    independent set S of n - 1 rows, in order, and then in row order, the
    ints exact._solution_space finds for each independent S + (j,), j >
    max S, whose point lies in P.  Each visited line lies in P exactly on
    its interval [lo, hi]: membership agrees at its ends, at their midpoint
    and one step past them, and at t = 0; and lo or hi is None exactly when
    the products A_i.w all have one sign."""
    n = P.n
    rows, rhs = P.int_rows
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    want = []
    for S, a, pivots in exact.independent_row_sets(aug, n, n - 1, n - 1):
        for j in range(S[-1] + 1 if S else 0, P.m):
            ext = exact._extend_echelon(a, pivots, aug[j], n)
            if ext is not None:
                X, _, e = exact._solution_space(a + [ext[0]], pivots + [ext[1]], n)
                if polyhedra.contains_int(P, X, e):
                    want.append((X, e))
    lines, leaves, _ = walk(P, False)
    assert leaves == want
    for S, (X0, w, L, lo, hi, meets) in lines:
        dots = [sum(map(mul, row, w)) for row in rows]
        assert (lo is None or hi is None) == (all(t <= 0 for t in dots)
                                              or all(t >= 0 for t in dots))
        ts = [(0, 1)]
        for end in (lo, hi):
            if end is not None:
                num, den = end
                ts += [(num - den, den), (num, den), (num + den, den)]
        if lo is not None and hi is not None:
            (a0, a1), (b0, b1) = lo, hi
            ts.append((a0 * b1 + b0 * a1, 2 * a1 * b1))
        for num, den in ts:
            inside = (meets and (lo is None or lo[0] * den <= num * lo[1])
                      and (hi is None or num * hi[1] <= hi[0] * den))
            X = [den * x + num * y for x, y in zip(X0, w)]
            assert inside == polyhedra.contains_int(P, X, L * den), (S, num, den)


def plane_line_cases(P) -> set[str]:
    """The cases of P that edge_walk's plane lines must get right: its
    dimension, zero rows, rows equal or opposite up to a positive scale, a
    plane with rows after it none of which is independent of it, a line
    whose row j has u_j = 0 != v_j (its pivot is the second free column), a
    plane with L != 1 that has a line, and a line that misses P and one
    that recedes (the reference's edge lines)."""
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
    for _, line in reference.edge_lines(P):
        if not line.meets:
            cases.add("misses P")
        if line.recedes:
            cases.add("recedes")
    return cases


PLANE_CASES = ["n=1", "n=2", "n=3", "n=4", "zero row", "duplicate row", "opposite row",
               "dependent rows", "f2 pivot", "L != 1", "misses P", "recedes"]
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
    """edge_walk gives, from each plane's columns and in the same j order,
    the reference's line of each independent set of n - 1 rows, from its
    own echelon, and the reference's leaves and verdict: whether each plane
    comes solved or is solved on demand.  For n = 1 it is the axis line."""
    want = reference_walk(P)
    assert_same_lines(walk(P, True), want)
    assert_same_lines(walk(P, False), want)


def test_plane_line_examples_reach_both_paths():
    """PLANE_EXAMPLES have lines on planes with L = 1 and with L > 1, the
    two paths the plane lines once had."""
    kinds = set()
    for P in [P for P in PLANE_EXAMPLES if P.n > 1]:
        rows, rhs = P.int_rows
        aug = [[*row, b] for row, b in zip(rows, rhs)]
        L = {S: exact._solution_space(a, pivots, P.n)[2]
             for S, a, pivots in exact.independent_row_sets(aug, P.n, P.n - 2, P.n - 2)}
        kinds |= {"L = 1" if L[S[:-1]] == 1 else "L > 1" for S, _ in walk(P, True)[0]}
    assert kinds == {"L = 1", "L > 1"}


@settings(max_examples=200, deadline=None)
@given(plane_systems())
@example(PLANE_EXAMPLES[0])
@example(PLANE_EXAMPLES[1])
@example(PLANE_EXAMPLES[2])
@example(PLANE_EXAMPLES[3])
@example(PLANE_EXAMPLES[4])
def test_lines_match_the_list_reference(P):
    """line_through's lines, each one ratio-test pass over its own columns,
    have every field of the reference's list lines on every independent
    set of n - 1 rows (the axis for n = 1).  The draws hold zero and
    duplicate rows, lines that miss P, receding lines and planes with L > 1
    (plane_line_cases)."""
    want, _, _ = reference_walk(P)
    assert [(S, polyhedra.line_through(P, *line[:3])) for S, line in want] == want


def test_seed0_solve_lines_match_the_reference(monkeypatch, tmp_path):
    """Every edge_walk call of the benchmark's seed-0 solve pass visits the
    reference's edge lines, field by field, and gives its leaves and
    verdict: 1,254 lines on planes with L = 1 and 20 on planes with L > 1,
    the two paths the plane lines once had."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.path[:] = saved
    mods = SimpleNamespace(**{m: importlib.import_module(f"iqprox.{m}") for m in bench.MODULES})
    p = bench.workloads.WORKLOADS["solve"](mods, bench.workloads.DEFAULT_SEED, str(tmp_path))
    p.prepare()
    counts = {"L = 1": 0, "L > 1": 0}
    real = polyhedra.edge_walk

    def checked(P, planes, visit=None):
        plane_L, lines = [1], []  # the L of the plane the walk is on; 1 for the axis

        def recorded_planes():
            for S, ech, pivots, sol in planes:
                plane_L[0] = (sol or exact._solution_space(ech, pivots, P.n))[2]
                yield S, ech, pivots, sol

        def recorded_visit(S, *line):
            counts["L = 1" if plane_L[0] == 1 else "L > 1"] += 1
            lines.append((S, line))
            if visit is not None:
                visit(S, *line)

        leaves, polytope = real(P, recorded_planes(), recorded_visit)
        assert_same_lines((lines, leaves, polytope), reference_walk(P))
        return leaves, polytope

    monkeypatch.setattr(polyhedra, "edge_walk", checked)
    monkeypatch.setattr(oracles, "edge_walk", checked)
    for op in p.ops:
        op.check(op.run())
    assert counts == {"L = 1": 1254, "L > 1": 20}


class RecordingSearch:
    """A search that records every call the walk makes: start's box,
    child's (j, value, v) with its answer, and each run with its value.  A
    prefix's value is value * 3 + v + j; it is skipped when that value is a
    multiple of modulus, and never when modulus is 0."""

    def __init__(self, modulus):
        self.modulus, self.calls = modulus, []

    def start(self, lo, hi):
        self.calls.append(("start", list(lo), list(hi)))
        return 0

    def child(self, j, value, v):
        below = value * 3 + v + j
        if self.modulus and below % self.modulus == 0:
            below = None
        self.calls.append(("child", j, value, v, below))
        return below

    def run(self, prefix, lo, hi, value):
        self.calls.append(("run", tuple(prefix), lo, hi, value))


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_systems(), plane_systems()), st.sampled_from([0, 2, 3, 5]))
@example(polyhedron([[2], [-1]], [3, 1]), 2)                                  # n = 1
@example(square(2), 0)
@example(square(2), 3)
@example(polyhedron([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
                    [0, 2, 2, 2, 2]), 2)                                      # square pyramid
def test_lattice_runs_match_the_recursive_reference(P, modulus):
    """lattice_runs, with its last prefix level in place, gives the runs of
    the recursive walk without a search; with one, it makes the same calls
    in the same order (the same children skipped, the same runs taken with
    the same values) and returns nothing; or both raise the same
    UnboundedError."""
    same_or_same_error(lambda: polyhedra.lattice_runs(P), lambda: recursive_lattice_runs(P))
    got, want = RecordingSearch(modulus), RecordingSearch(modulus)
    try:
        runs = recursive_lattice_runs(P, None, want)
    except UnboundedError:
        return
    assert polyhedra.lattice_runs(P, None, got) is None
    assert got.calls == want.calls
    assert [call[1:4] for call in want.calls if call[0] == "run"] == runs


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
    """enumerate_vertices on the planes' lines gives the reference's
    vertices, and lattice_runs on the vertex box the runs of the box scan's
    points, or both raise the same UnboundedError."""
    same_or_same_error(lambda: enumerate_vertices(P), lambda: reference.vertices(P))
    same_or_same_error(lambda: polyhedra.lattice_runs(P),
                       lambda: reference.runs(reference.lattice_points(P)))


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
    same_or_same_error(lambda: enumerate_faces(P), lambda: reference.reference_lp_faces(P))


def reference_intersect_with_box(P, center, radius):
    """The box rows +-e_i <= +-c_i + r appended to P's rational rows, and
    the whole system scaled again by `polyhedron`."""
    r = F(radius)
    A, b = reference.rational_rows(P)
    rows, rhs = [list(row) for row in A], list(b)
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
    """polyhedron's int rows over their scales are its input rows, exactly
    and as Fractions (reference.rational_rows); translate, fix_zero and intersect_with_box give the
    polyhedron a fresh build from Fraction rows has, int rows and scales
    included (fix_zero with no coordinate gives its input itself);
    translating by -X undoes it."""
    A, b, n = system
    P = polyhedron(A, b, n)
    rA, rb = reference.rational_rows(P)
    assert [list(row) for row in rA] == A and list(rb) == b
    assert all(type(x) is F for x in (*rb, *(x for row in rA for x in row)))
    X = shift[:P.n]
    T = polyhedra.translate(P, X)
    TA, Tb = reference.rational_rows(T)
    assert T == polyhedron(rA, [bi - reference.dot(row, X) for row, bi in zip(rA, rb)], P.n)
    assert T.int_rows == polyhedron(TA, Tb, T.n).int_rows
    assert all(type(x) is F for x in Tb)
    assert polyhedra.translate(T, [-x for x in X]) == P
    coords = {i for i in zeros if i < P.n}
    Z = polyhedra.fix_zero(T, coords)
    units = [[F(s * (j == i)) for j in range(P.n)] for i in sorted(coords) for s in (1, -1)]
    ZA, Zb = reference.rational_rows(Z)
    assert Z == polyhedron([*TA, *units], [*Tb] + [F(0)] * len(units), P.n)
    assert Z.int_rows == polyhedron(ZA, Zb, Z.n).int_rows
    assert all(type(x) is F for r in ZA for x in r)
    assert (Z is T) == (not coords)  # no coordinate to fix: T itself
    B = intersect_with_box(Z, center[:P.n], radius)
    assert B == reference_intersect_with_box(Z, center[:P.n], radius)
    BA, Bb = reference.rational_rows(B)
    assert all(type(x) is F for x in (*Bb, *(x for row in BA for x in row)))


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
        assert enumerate_lattice_points(P) == reference.lattice_points(P)


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
    assert (exact.max_abs_subdeterminant(reference.rational_rows(Q)[0])
            == exact.max_abs_subdeterminant(reference.rational_rows(P)[0]))


def test_intersect_with_box_negative_radius():
    with pytest.raises(InputError):
        intersect_with_box(square(), [F(0), F(0)], F(-1))


def test_vertex_tight_rows_have_full_rank():
    for P in (triangle(), square(3)):
        for v in enumerate_vertices(P):
            rows = [list(reference.rational_rows(P)[0][i]) for i in tight_rows(P, v)]
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
    """edge_walk visits every one of the reference's edge lines and gives
    the reference's vertices, and shows P a nonempty polytope exactly when
    it has one; vertex_ints gives the points of the Fraction vertices, and
    vertex_box of either the reference's ints over the lcm of the e, with
    lattice_runs the same on it as on integer_box's box of the Fraction
    vertices: or the same UnboundedError."""
    lines, leaves, polytope = walk(P, False)
    # every line, past one that recedes: _face_walk's face work
    assert [S for S, _ in lines] == [S for S, _ in reference.edge_lines(P)]
    assert all(type(v) is int for X, e in leaves for v in [*X, e]) and all(e > 0 for _, e in leaves)
    try:
        want = reference.vertices(P)
    except UnboundedError as err:
        assert not polytope
        with pytest.raises(UnboundedError) as raised:
            polyhedra.vertex_ints(P)
        assert str(raised.value) == str(err)
        return
    assert polytope == bool(want)
    assert sorted({exact.rational_vector(X, e) for X, e in leaves}) == want
    verts = polyhedra.vertex_ints(P)
    assert sorted({exact.rational_vector(X, e) for X, e in verts}) == want
    if not want:
        assert verts == [] and polyhedra.lattice_runs(P) == []
        return
    assert polyhedra.vertex_box(leaves) == reference.vertex_box(leaves)
    box = polyhedra.vertex_box(verts)
    assert box == reference.vertex_box(verts)
    cols = list(zip(*want))  # the Fraction extremes, as integer_box scales them
    want_box = integer_box(list(zip(map(min, cols), map(max, cols))))
    assert (polyhedra.lattice_runs(P, box) == polyhedra.lattice_runs(P, want_box)
            == polyhedra.lattice_runs(P))
