import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
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


def int_matrices(m, n):
    """m x n matrices of small_int entries."""
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m)


# Its rows take their pivots in the order 1, 0, 2: det = -30.
PIVOTS_OUT_OF_ORDER = [[0, 2, 1], [3, 0, 0], [0, 0, 5]]


def sign_examples(test):
    """Every 3 x 3 permutation matrix, and PIVOTS_OUT_OF_ORDER: a dropped
    or wrong sign of the pivot columns' permutation fails one of them."""
    for perm in permutations(range(3)):
        test = example([[int(j == p) for j in range(3)] for p in perm])(test)
    return example(PIVOTS_OUT_OF_ORDER)(test)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: int_matrices(n, n)))
@settings(max_examples=60, deadline=None)
@sign_examples
def test_det_matches_leibniz(M):
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
        with pytest.raises(DomainError):
            exact.max_abs_subdeterminant_witness(M)


def test_subdeterminant_converts_the_matrix_once(monkeypatch):
    """max_abs_subdeterminant turns its matrix into ints once; the reduced
    int rows go to the scan as they are."""
    calls = []
    convert = exact._integer_matrix
    monkeypatch.setattr(exact, "_integer_matrix", lambda M: calls.append(M) or convert(M))
    M = [[F(2), F(-1)], [F(1), F(1)], [F(0), F(1)], [F(-2), F(1)]]
    assert exact.max_abs_subdeterminant(M) == 3
    assert len(calls) == 1
    assert exact.max_abs_subdeterminant_witness(M) == (3, (0, 1), (0, 1))
    assert len(calls) == 2


def reference_max_abs_subdeterminant_witness(a):
    """The scan over every square submatrix of an int matrix by its
    determinant, 1x1 ones included, in (size, lex) order: the witness is the
    first submatrix that attains the value."""
    m = len(a)
    n = len(a[0]) if m else 0
    best, best_rows, best_cols = 0, (), ()
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                sub = [[a[r][c] for c in cols] for r in rows]
                d = abs(exact._det_int(sub))
                if d > best:
                    best, best_rows, best_cols = d, rows, cols
    return best, best_rows, best_cols


@st.composite
def witness_matrices(draw):
    """Int m x n matrices, m 0-5 and n 1-4, entries in -4..4; some all-zero."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    entry = st.just(0) if draw(st.integers(0, 9)) == 0 else st.integers(-4, 4)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@given(witness_matrices())
@settings(max_examples=300, deadline=None)
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, -4, 4, 2]])
@example([[3], [-3], [0], [4], [-4]])
@example([[2, 0], [0, -2], [1, 1]])
# 2x2 minors of |det| 2 tied on the row pairs (0, 1) and (0, 2), and on the
# column pairs (0, 1) and (1, 2): the first pair wins
@example([[1, 1], [1, -1], [-1, 1]])
@example([[1, 1, -1], [-1, 1, 1]])
# a 2x2 minor equal to the largest entry does not displace the 1x1 witness
@example([[2, 1], [0, 1]])
# m = 1 and n = 1: no 2x2 minor
@example([[-6]])
@example([[0]])
@example([[1, -3, 3]])
@example([[1], [-3], [3]])
def test_subdeterminant_witness_matches_reference_scan(M):
    """Value, rows and cols of the witness equal the scan's, where ties
    among the 1x1 minors (entries of equal |a_ij|) are common.  The scan
    reads the 2x2 minors in closed form and the reference by determinant."""
    assert exact.max_abs_subdeterminant_witness(M) == reference_max_abs_subdeterminant_witness(M)


def test_is_integral_on_each_kind():
    assert exact.is_integral(3) and exact.is_integral(True) and exact.is_integral(F(4, 2))
    assert not exact.is_integral(F(1, 2))
    assert exact.is_integral("6/3") and not exact.is_integral("1/3")
    assert exact.is_integral(2.0) and not exact.is_integral(0.5)


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


@given(matrices_with_special_rows())
@settings(max_examples=300, deadline=None)
def test_int_row_subdeterminant_matches_reference_scan(M):
    """The int-row entry, which takes the rows as they are, gives the value
    of the determinant scan over every square submatrix."""
    assert exact._max_abs_subdeterminant_rows(M) == reference_max_abs_subdeterminant_witness(M)[0]


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


@given(st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
       .flatmap(lambda mn: int_matrices(*mn)))
@settings(max_examples=40, deadline=None)
@example(PIVOTS_OUT_OF_ORDER)
@example([[0, 2, 1, 1], [3, 0, 0, 1], [0, 0, 5, 1]])
def test_null_space_is_kernel(M):
    n = len(M[0])
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


def particular_solution(M, rhs, n):
    """The solution of M x = rhs whose free coordinates are 0, and the rank
    of M: (X / L, n - len(W)) from exact.solution_space_int, each equation
    scaled to ints by exact.integer_vector; None when inconsistent."""
    rows = [exact.integer_vector([*row, b])[0] for row, b in zip(M, rhs)]
    got = exact.solution_space_int([r[:n] for r in rows], [r[n] for r in rows], n)
    if got is None:
        return None
    X, W, L = got
    return [F(x, L) for x in X], n - len(W)


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
        got = particular_solution(M, rhs, n)
        assert got == particular_solution_reference(M, rhs)
        if m == n:
            assert exact.solve_linear(M, rhs) == (got[0] if got and got[1] == n else None)
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
    assert particular_solution([[1, 2], [2, 4]], [F(3), F(6)], 2) == ([F(3), F(0)], 1)
    assert exact.solve_linear([[1, 2], [2, 4]], [F(3), F(6)]) is None
    # The same rows with an inconsistent rhs.
    assert particular_solution([[1, 2], [2, 4]], [F(3), F(5)], 2) is None
    # Rational data, a zero first column, as many rows as columns.
    M = [[0, F(1, 2), F(1, 3)], [0, F(-2, 5), F(3, 7)], [0, 0, 0]]
    assert particular_solution(M, [F(5, 6), F(1, 35), F(0)], 3) == ([F(0), F(1), F(1)], 2)
    assert exact.solve_linear(M, [F(5, 6), F(1, 35), F(0)]) is None
    assert particular_solution(M, [F(5, 6), F(1, 35), F(1)], 3) is None
    # No equations at all: the origin of the ambient space, rank 0.
    assert particular_solution([], [], 2) == ([F(0), F(0)], 0)
    assert exact.solution_space_int([], [], 2) == ([0, 0], [[1, 0], [0, 1]], 1)
    assert exact.solve_linear([], []) == []
    with pytest.raises(DimensionError):
        exact.solve_linear([[1, 2], [2, 4]], [F(1)])


def test_solution_space_int_matches_references():
    """X / L is the Fraction RREF's point and W / L null_space's basis, L > 0."""
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
        want = particular_solution_reference(M, rhs) if M else ([F(0)] * n, 0)
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


def test_extend_echelon_matches_solution_space_int():
    """Rows added one at a time give solution_space_int's X, W and L on the
    rows kept, also when a later pivot column precedes an earlier one, and
    a row is refused exactly when it depends on them."""
    rng = random.Random(1729)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        M, rhs = [], []
        for _ in range(rng.randint(1, 7)):
            if M and rng.random() < 0.3:
                c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
                i, j = rng.randrange(len(M)), rng.randrange(len(M))
                M.append([c1 * x + c2 * y for x, y in zip(M[i], M[j])])
            else:
                M.append([rng.randint(-3, 3) for _ in range(n)])
            rhs.append(rng.randint(-7, 7))
        a, pivots, kept = [], [], []
        for i, (row, b) in enumerate(zip(M, rhs)):
            ext = exact._extend_echelon(a, pivots, [*row, b], n)
            rows = [M[j] for j in kept] + [row]
            if ext is None:
                assert exact.rank(rows) == len(kept)
                seen.add("dependent")
                continue
            assert exact.rank(rows) == len(kept) + 1
            a.append(ext[0])
            pivots.append(ext[1])
            kept.append(i)
            assert exact._solution_space(a, pivots, n) == exact.solution_space_int(
                rows, [rhs[j] for j in kept], n)
            seen.add("independent" if pivots == sorted(pivots) else "pivots out of order")
    assert seen == {"dependent", "independent", "pivots out of order"}


@given(matrices_with_special_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_independent_row_sets_match_combinations(M, data):
    """For every least <= top, top up to one past the row count, the walk
    yields the independent sets of combinations order, filtered by rank;
    each set's echelon gives solution_space_int's X, W and L on its rows.
    So does a walk from a start echelon, filtered by rank on top of it."""
    m, n = len(M), len(M[0]) if M else 1
    rhs = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    aug = [[*row, b] for row, b in zip(M, rhs)]
    independent = [S for size in range(m + 1) for S in combinations(range(m), size)
                   if exact.rank([M[i] for i in S]) == size]
    for top in range(m + 2):
        for least in range(top + 1):
            got = [S for S, _, _ in exact.independent_row_sets(aug, n, least, top)]
            assert got == [S for S in independent if least <= len(S) <= top]
    for S, a, pivots in exact.independent_row_sets(aug, n, 0, m):
        assert exact._solution_space(a, pivots, n) == exact.solution_space_int(
            [M[i] for i in S], [rhs[i] for i in S], n)
    # From the echelon of the first p rows: the sets of the other rows that
    # are independent on top of them, each echelon extending the start.
    p = data.draw(st.integers(0, m))
    start = exact._eliminate([list(row) for row in M[:p]], n)
    rest = M[p:]
    on_top = [S for size in range(len(rest) + 1)
              for S in combinations(range(len(rest)), size)
              if exact.rank(M[:p] + [rest[i] for i in S]) == len(start[1]) + size]
    for top in range(len(rest) + 2):
        for least in range(top + 1):
            got = list(exact.independent_row_sets(rest, n, least, top, start))
            assert [S for S, _, _ in got] == [S for S in on_top if least <= len(S) <= top]
            assert all((a[:len(start[0])], pivots[:len(start[1])]) == start
                       for _, a, pivots in got)


def test_independent_row_sets_small_cases():
    rows = [[1, 0], [0, 0], [2, 0], [-1, 0], [0, 3]]
    assert list(exact.independent_row_sets(rows, 2, 0, 0)) == [((), [], [])]
    assert list(exact.independent_row_sets([], 2, 0, 3)) == [((), [], [])]
    sets = [S for S, _, _ in exact.independent_row_sets(rows, 2, 1, 9)]
    assert sets == [(0,), (2,), (3,), (4,), (0, 4), (2, 4), (3, 4)]
    assert [S for S, _, _ in exact.independent_row_sets(rows, 2, 2, 2)] == sets[4:]


def test_null_space_empty_matrix():
    basis = exact.null_space([], 3)
    assert len(basis) == 3



@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12)),
                max_size=6))
@settings(max_examples=200, deadline=None)
@example([3, F(-2), 0])             # d = 1
@example([F(1, 2), F(-2, 3), 4])    # d = 6
def test_rational_vector_inverts_integer_vector(v):
    """rational_vector(X, d) is the point X / d that integer_vector scaled,
    every entry a Fraction, and integer_vector gives (X, d) back from it."""
    X, d = exact.integer_vector(v)
    got = exact.rational_vector(X, d)
    assert got == tuple(v)
    assert all(type(x) is F for x in got)
    assert exact.integer_vector(got) == (X, d)


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact.dot([1], [1, 2]), DimensionError, "dot: 1 vs 2"),
    (lambda: exact.vec_add([1], [1, 2]), DimensionError, "vec_add: 1 vs 2"),
    (lambda: exact.vec_sub([1], [1, 2]), DimensionError, "vec_sub: 1 vs 2"),
    (lambda: exact.null_space([]), DimensionError,
     "null_space of empty matrix needs ambient dimension"),
    (lambda: exact._integer_matrix([[1, 0.5]]), DomainError,
     "subdeterminants are defined here for integer matrices only"),
], ids=["dot", "vec_add", "vec_sub", "null_space", "float-entry"])
def test_exact_input_checks(call, error, message):
    """Each input check of exact raises its own class and message; a float
    entry of _integer_matrix, neither an int nor a Fraction, is read as a
    Fraction first."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message
    assert got.traceback[-1].path.name == "exact.py"


def test_integer_matrix_reads_other_numbers_as_fractions():
    assert exact._integer_matrix([[2.0, "3"], [F(4), -1]]) == [[2, 3], [4, -1]]
