import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqprox import exact
from iqprox.errors import DimensionError, DomainError


def det_by_expansion(M):
    """Leibniz formula, the slowest possible determinant. Used as oracle."""
    n = len(M)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= F(M[i][perm[i]])
        total += sign * term
    return total


small_int = st.integers(min_value=-6, max_value=6)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz(n, data):
    M = [[data.draw(small_int) for _ in range(n)] for _ in range(n)]
    assert exact.det(M) == det_by_expansion(M)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40, deadline=None)
def test_det_rational_matches_leibniz(n, data):
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    M = [[data.draw(rat) for _ in range(n)] for _ in range(n)]
    assert exact.det(M) == det_by_expansion(M)


def test_det_not_square():
    with pytest.raises(DimensionError):
        exact.det([[1, 2]])


def test_subdeterminant_known():
    M = [[1, -3], [-1, 3], [0, 1], [0, -1]]
    val, rows, cols = exact.max_abs_subdeterminant_witness(M)
    assert val == 3
    sub = [[M[r][c] for c in cols] for r in rows]
    assert abs(exact.det(sub)) == 3


def test_subdeterminant_zero_matrix():
    assert exact.max_abs_subdeterminant([[0, 0], [0, 0]]) == 0


def test_subdeterminant_identity():
    assert exact.max_abs_subdeterminant([[1, 0], [0, 1]]) == 1


def test_subdeterminant_rejects_rationals():
    for M in ([[F(1, 2)]], [[1, 0], [0, F(1, 2)]], [[1, 0], [F(-1, 3), 0]]):
        with pytest.raises(DomainError):
            exact.max_abs_subdeterminant(M)


@st.composite
def matrices_with_special_rows(draw):
    """Integer m x n matrices, m = 0..8, n = 1..5, entries in -3..3, with
    duplicate, negated, zero, unit (+-e_i) and scaled unit (+-2e_i, +-3e_i)
    rows mixed in."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=8))
    entry = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(
            ["random", "random", "duplicate", "negated", "zero", "unit", "scaled unit"]))
        if kind in ("duplicate", "negated") and rows:
            r = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            rows.append(list(r) if kind == "duplicate" else [-x for x in r])
        elif kind == "zero":
            rows.append([0] * n)
        elif kind in ("unit", "scaled unit"):
            c = draw(st.sampled_from([-1, 1] if kind == "unit" else [-3, -2, 2, 3]))
            i = draw(st.integers(min_value=0, max_value=n - 1))
            rows.append([c if j == i else 0 for j in range(n)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    return rows


@given(matrices_with_special_rows())
@settings(max_examples=300, deadline=None)
def test_reduced_subdeterminant_matches_exhaustive_scan(M):
    assert exact.max_abs_subdeterminant(M) == exact.max_abs_subdeterminant_witness(M)[0]


@pytest.mark.parametrize("M, expected", [
    ([[1, 0, 0], [0, -1, 0], [-1, 0, 0], [0, 0, 1]], 1),  # only unit rows
    ([[0, 1]], 1),
    ([[2, 0]], 2),  # a scaled unit row is not a unit row
    ([[0, -3], [1, 0]], 3),
    ([[1, 1], [1, -1], [-1, -1], [0, 1]], 2),
    ([[0, 0, 0]], 0),
    ([], 0),
])
def test_reduced_subdeterminant_fixed_cases(M, expected):
    assert exact.max_abs_subdeterminant(M) == expected
    assert exact.max_abs_subdeterminant_witness(M)[0] == expected


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_subdet_dominated_by_brute(n, data):
    # every 1x1 entry is a subdeterminant, so the max is at least the largest entry
    M = [[data.draw(small_int) for _ in range(n)] for _ in range(2)]
    best = exact.max_abs_subdeterminant(M)
    assert best >= max(abs(x) for row in M for x in row)


def test_solve_linear():
    x = exact.solve_linear([[2, 1], [1, -1]], [F(3), F(0)])
    assert x == [F(1), F(1)]


def test_solve_linear_singular():
    assert exact.solve_linear([[1, 1], [2, 2]], [F(1), F(2)]) is None


def test_solve_linear_shape():
    with pytest.raises(DimensionError):
        exact.solve_linear([[1, 1]], [F(1)])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_solve_linear_roundtrip(n, data):
    M = [[data.draw(small_int) for _ in range(n)] for _ in range(n)]
    rhs = [F(data.draw(small_int)) for _ in range(n)]
    x = exact.solve_linear(M, rhs)
    if exact.det(M) == 0:
        assert x is None
    else:
        assert [exact.dot(row, x) for row in M] == rhs


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=40, deadline=None)
def test_null_space_is_kernel(m, n, data):
    M = [[data.draw(small_int) for _ in range(n)] for _ in range(m)]
    basis = exact.null_space(M, n)
    assert len(basis) == n - exact.rank(M)
    for v in basis:
        assert all(exact.dot(row, v) == 0 for row in M)


def rref_reference(M):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions."""
    a = [[F(x) for x in row] for row in M]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def null_space_reference(M):
    """The canonical kernel basis: one free column 1, the other free ones 0."""
    a, pivots = rref_reference(M)
    basis = []
    for f in range(len(M[0])):
        if f in pivots:
            continue
        v = [F(0)] * len(M[0])
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def random_matrix(rng, m, n, rational):
    """Small entries; sometimes a zero first column or a repeated row."""
    def entry():
        if rational and rng.random() < 0.5:
            return F(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-3, 3)
    M = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        for row in M:
            row[0] = 0
    if m > 1 and rng.random() < 0.3:
        M[-1] = [F(-3, 2) * x for x in M[0]]
    return M


@pytest.mark.parametrize("rational", [False, True])
def test_null_space_is_the_rref_basis(rational):
    rng = random.Random(4242 + rational)
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n, rational)
        basis = exact.null_space(M, n)
        assert basis == null_space_reference(M)
        assert all(type(x) is F for v in basis for x in v)
        assert exact.rank(M) == len(rref_reference(M)[1])


def test_null_space_skipped_pivot_column():
    # Column 0 is zero and column 2 depends on column 1.
    M = [[0, 2, 4, 1], [0, F(1, 3), F(2, 3), F(1, 2)], [0, 1, 2, 0]]
    assert exact.rank(M) == 2
    assert exact.null_space(M, 4) == [[F(1), F(0), F(0), F(0)],
                                      [F(0), F(-2), F(1), F(0)]]


def test_rank_and_solve_rational():
    M = [[F(1, 2), F(1, 3)], [F(-2, 5), F(3, 7)]]
    rhs = [F(5, 6), F(1, 35)]
    x = exact.solve_linear(M, rhs)
    assert x == [F(1), F(1)]
    assert exact.rank(M) == 2
    assert exact.rank([[F(1, 2), F(1, 3)], [F(3, 4), F(1, 2)]]) == 1
    assert exact.solve_linear([[F(1, 2), F(1, 3)], [F(3, 4), F(1, 2)]],
                              [F(1), F(3, 2)]) is None


@pytest.mark.parametrize("rational", [False, True])
def test_solve_linear_matches_reference(rational):
    rng = random.Random(99 + rational)
    for _ in range(300):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n, n, rational)
        rhs = [F(rng.randint(-7, 7), rng.randint(1, 5) if rational else 1)
               for _ in range(n)]
        a, pivots = rref_reference([list(row) + [b] for row, b in zip(M, rhs)])
        x = exact.solve_linear(M, rhs)
        if pivots[:n] != list(range(n)):
            assert x is None
            assert exact.det(M) == 0
        else:
            assert x == [a[i][n] for i in range(n)]
            assert all(type(v) is F for v in x)


def particular_solution_reference(M, rhs):
    """Free coordinates 0 and pivot coordinates from the Fraction RREF."""
    n = len(M[0])
    a, pivots = rref_reference([list(row) + [b] for row, b in zip(M, rhs)])
    if n in pivots:  # a pivot in the rhs column is the equation 0 = 1
        return None
    x = [F(0)] * n
    for r, p in enumerate(pivots):
        x[p] = a[r][n]
    return x, len(pivots)


@pytest.mark.parametrize("rational", [False, True])
def test_particular_solution_matches_reference(rational):
    rng = random.Random(517 + rational)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n, rational)
        if rng.random() < 0.5:  # consistent by construction
            x0 = [F(rng.randint(-4, 4), rng.randint(1, 3) if rational else 1)
                  for _ in range(n)]
            rhs = [exact.dot(row, x0) for row in M]
        else:
            rhs = [F(rng.randint(-7, 7), rng.randint(1, 5) if rational else 1)
                   for _ in range(m)]
        got = exact.particular_solution(M, rhs)
        assert got == particular_solution_reference(M, rhs)
        if got is not None:
            x, r = got
            assert r == exact.rank(M)
            assert [exact.dot(row, x) for row in M] == rhs
            assert all(type(v) is F for v in x)
            seen.add("full" if r == n else "deficient")
        else:
            seen.add("inconsistent")
    assert seen == {"full", "deficient", "inconsistent"}


def test_particular_solution_small_cases():
    # Dependent rows, consistent: x1 + 2 x2 = 3 twice; x2 is free.
    assert exact.particular_solution([[1, 2], [2, 4]], [F(3), F(6)]) == ([F(3), F(0)], 1)
    # The same rows with an inconsistent rhs.
    assert exact.particular_solution([[1, 2], [2, 4]], [F(3), F(5)]) is None
    # Rational data, a zero first column, more rows than columns.
    M = [[0, F(1, 2), F(1, 3)], [0, F(-2, 5), F(3, 7)], [0, 0, 0]]
    assert exact.particular_solution(M, [F(5, 6), F(1, 35), F(0)]) == (
        [F(0), F(1), F(1)], 2)
    assert exact.particular_solution(M, [F(5, 6), F(1, 35), F(1)]) is None
    # No equations at all: the origin of the ambient space, rank 0.
    assert exact.particular_solution([], [], 2) == ([F(0), F(0)], 0)
    with pytest.raises(DimensionError):
        exact.particular_solution([], [])
    with pytest.raises(DimensionError):
        exact.particular_solution([[1, 2]], [F(1), F(2)])


def test_solution_space_int_matches_references():
    """X / L is particular_solution's point and W / L null_space's basis, L > 0."""
    rng = random.Random(2718)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n, False) if m else []
        M = [[int(x) for x in row] for row in M]
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        rhs = ([sum(a * x for a, x in zip(row, x0)) for row in M]
               if rng.random() < 0.5 else [rng.randint(-7, 7) for _ in M])
        got = exact.solution_space_int(M, rhs, n)
        want = (exact.particular_solution(M, [F(b) for b in rhs], n) if M
                else ([F(0)] * n, 0))
        if want is None:
            assert got is None
            seen.add("inconsistent")
            continue
        X, W, L = got
        assert L > 0 and all(type(x) is int for x in X + sum(W, []))
        assert [F(x, L) for x in X] == want[0]
        assert [[F(x, L) for x in w] for w in W] == exact.null_space(M, n)
        assert len(W) == n - want[1]
        seen.add("full" if not W else "deficient")
    assert seen == {"inconsistent", "full", "deficient"}


def test_null_space_empty_matrix():
    basis = exact.null_space([], 3)
    assert len(basis) == 3


def test_primitive_vector():
    assert exact.primitive_integer_vector([F(1, 2), F(3, 4)]) == [F(2), F(3)]
    assert exact.primitive_integer_vector([F(-4), F(6)]) == [F(-2), F(3)]


def test_primitive_vector_keeps_direction():
    rng = random.Random(7)
    for _ in range(50):
        v = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if all(x == 0 for x in v):
            continue
        p = exact.primitive_integer_vector(v)
        # p must be a positive multiple of v
        ratios = {x / y for x, y in zip(p, v) if y != 0}
        assert len(ratios) == 1
        assert ratios.pop() > 0
        nums = [int(x) for x in p]
        from math import gcd
        assert gcd(*nums) == 1 if len(nums) > 1 else abs(nums[0]) == 1
