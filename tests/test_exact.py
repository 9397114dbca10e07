import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, formats, oracles, pipeline, polyhedra, simplex
from iqprox.errors import DimensionError, DomainError, InputError
from reference import delta_witness, det, dot, integer_matrix, null_space, rref, solve


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
    assert exact.det(M) == det(M)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40, deadline=None)
def test_det_rational_matches_leibniz(n, data):
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    M = [[data.draw(rat) for _ in range(n)] for _ in range(n)]
    assert exact.det(M) == det(M)


def test_det_not_square():
    with pytest.raises(DimensionError):
        exact.det([[1, 2]])


@st.composite
def square_matrices_with_special_rows(draw):
    """Square int matrices, n = 0..5, entries in -4..4, with zero,
    duplicate and negated rows mixed in."""
    n = draw(st.integers(min_value=0, max_value=5))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "duplicate", "negated", "zero"]))
        if kind in ("duplicate", "negated") and rows:
            r = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            rows.append(list(r) if kind == "duplicate" else [-x for x in r])
        elif kind == "zero":
            rows.append([0] * n)
        else:
            rows.append([draw(st.integers(-4, 4)) for _ in range(n)])
    return rows


@given(square_matrices_with_special_rows())
@settings(max_examples=300, deadline=None)
@sign_examples
@example([])                                    # n = 0: the empty minor, 1
@example([[1, 2, 0], [0, 0, 0], [3, 1, 1]])     # a zero row before the last
@example([[1, 2, 0], [1, 2, 0], [3, 1, 1]])     # a duplicate row
@example([[0, 0, 0], [2, 1, 0], [-2, -1, 0]])   # a zero row, then a negated row
def test_det_int_matches_leibniz(M):
    """_det_int on exact._eliminate gives the Leibniz determinant, also when
    a row reduces to zero before the last one, and reads M without
    changing it."""
    copy = [list(row) for row in M]
    assert exact._det_int(M) == det(M)
    assert M == copy


@given(st.lists(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=3),
                                   st.integers(-9, 9).map(str)),
                         min_size=2, max_size=2), max_size=4))
@settings(max_examples=200, deadline=None)
@example([[2.0, "3"], [F(4), -1]])
@example([[1, F(1, 2)], [0, 0]])
@example([[1, F(1, 2)], [0, "0"]])  # the DomainError of an earlier row comes first
def test_integer_matrix_matches_its_definition(M):
    """_integer_matrix gives the entries as ints, or the same error: an
    InputError naming the type of a str or float entry, which is no
    number, or a DomainError for a row with an entry that is no integer,
    whichever row comes first."""
    try:
        want = integer_matrix(M)
    except (DomainError, InputError) as err:
        with pytest.raises(type(err)) as got:
            exact._integer_matrix(M)
        assert str(got.value) == str(err)
        return
    got = exact._integer_matrix(M)
    assert got == want
    assert all(type(x) is int for row in got for x in row)


def test_eliminate_stops_at_the_row_width(monkeypatch):
    """Once the rank equals the row width, _eliminate adds no more rows.
    An augmented [M | rhs] is one column wider than M, so an inconsistent
    row after M has rank n still gives None: keyed on ncols, the stop would
    miss the row (1, 1 | 3) here."""
    M = [[1, 0], [0, 1], [1, 1]]
    assert exact.solution_space_int(M, [1, 1, 3], 2) is None
    assert exact.solution_space_int(M, [1, 1, 2], 2) == ([1, 1], [], 1)
    assert exact._eliminate([[1, 0, 1], [0, 1, 1], [1, 1, 3]], 2) is None
    tried = []
    extend = exact._extend_echelon
    monkeypatch.setattr(exact, "_extend_echelon",
                        lambda *args: tried.append(args[2]) or extend(*args))
    assert exact._eliminate([[0, 0], [1, 0], [1, 1], [5, 7], [2, 3]], 2) == (
        [[1, 0], [0, 1]], [0, 1])
    assert tried == [[0, 0], [1, 0], [1, 1]]


@pytest.mark.parametrize("rational", [False, True])
def test_rank_and_null_space_of_tall_matrices(rational):
    """rank and null_space of matrices with rows past full rank, which
    _eliminate no longer adds, match the Fraction RREF."""
    rng = random.Random(3141 + rational)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n + rng.randint(1, 4), n, rational)
        r = len(rref(M)[1])
        assert exact.rank(M) == r
        assert exact.null_space(M, n) == null_space(M, n)
        if r == n:
            first = next(k for k in range(1, len(M) + 1) if exact.rank(M[:k]) == n)
            seen.add("rows past full rank" if first < len(M) else "full rank at the last row")
        else:
            seen.add("rank below n")
    assert seen == {"rows past full rank", "full rank at the last row", "rank below n"}


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
    assert exact.max_abs_subdeterminant_witness(M) == delta_witness(M)


def test_is_integral_on_each_kind():
    """An int, a bool and a Fraction are read; a str or a float, even of an
    integer value, is no number."""
    assert exact.is_integral(3) and exact.is_integral(True) and exact.is_integral(F(4, 2))
    assert not exact.is_integral(F(1, 2))
    for x, kind in (("6/3", "str"), (2.0, "float")):
        with pytest.raises(InputError) as got:
            exact.is_integral(x)
        assert str(got.value) == f"a number must be an int or a Fraction, not {kind}"


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
    assert exact._max_abs_subdeterminant_rows(M) == delta_witness(M)[0]


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
        assert [dot(row, x) for row in M] == rhs


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
        assert all(dot(row, v) == 0 for row in M)


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
        assert basis == null_space(M, n)
        assert all(type(x) is F for v in basis for x in v)
        assert exact.rank(M) == len(rref(M)[1])


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
        a, pivots = rref([list(row) + [b] for row, b in zip(M, rhs)])
        x = exact.solve_linear(M, rhs)
        if pivots[:n] != list(range(n)):
            assert x is None
            assert exact.det(M) == 0
        else:
            assert x == [a[i][n] for i in range(n)]
            assert all(type(v) is F for v in x)


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
            rhs = [dot(row, x0) for row in M]
        else:
            rhs = [F(rng.randint(-7, 7), rng.randint(1, 5) if rational else 1)
                   for _ in range(m)]
        got = particular_solution(M, rhs, n)
        assert got == solve(M, rhs)
        if m == n:
            assert exact.solve_linear(M, rhs) == (got[0] if got and got[1] == n else None)
        if got is not None:
            x, r = got
            assert r == exact.rank(M)
            assert [dot(row, x) for row in M] == rhs
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
        want = solve(M, rhs) if M else ([F(0)] * n, 0)
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
    (lambda: exact.vec_add([1], [1, 2]), DimensionError, "vec_add: 1 vs 2"),
    (lambda: exact.vec_sub([1], [1, 2]), DimensionError, "vec_sub: 1 vs 2"),
    (lambda: exact.null_space([]), DimensionError,
     "null_space of empty matrix needs ambient dimension"),
    (lambda: exact._integer_matrix([[1, 0.5]]), InputError,
     "a number must be an int or a Fraction, not float"),
    (lambda: exact._integer_matrix([[1, F(1, 2)]]), DomainError,
     "subdeterminants are defined here for integer matrices only"),
], ids=["vec_add", "vec_sub", "null_space", "float-entry", "fraction-entry"])
def test_exact_input_checks(call, error, message):
    """Each input check of exact raises its own class and message; a float
    entry of _integer_matrix, neither an int nor a Fraction, is no number,
    and a Fraction entry that is no integer is outside the domain."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message
    assert got.traceback[-1].path.name == "exact.py"


def test_integer_matrix_rejects_other_numbers():
    """A float or a str entry is no number, even of an integer value: the
    InputError names its type."""
    for M, kind in (([[2.0, 3], [F(4), -1]], "float"), ([[2, "3"], [F(4), -1]], "str")):
        with pytest.raises(InputError) as got:
            exact._integer_matrix(M)
        assert str(got.value) == f"a number must be an int or a Fraction, not {kind}"


# -- the number contract: ints (a bool counts as one) and Fractions only ------

BOX = polyhedra.polyhedron([[1], [-1]], [1, 1])  # -1 <= x <= 1
UNIT = pipeline.instance([[1], [-1]], [1, 1], [1], [0])  # min -x^2 on BOX
UNIT_REPORT = oracles.full_report(UNIT)

# Each entry point that reads a caller's number x, with every other input valid.
NUMBER_READERS = {
    "integer_vector": lambda x: exact.integer_vector([1, x]),
    "is_integral": lambda x: exact.is_integral(x),
    "inf_norm": lambda x: exact.inf_norm([-1, x]),
    "det": lambda x: exact.det([[2, 1], [x, 1]]),
    "rank": lambda x: exact.rank([[1, 0], [0, x]]),
    "lp_solve-A": lambda x: simplex.lp_solve(polyhedra.polyhedron([[x], [-1]], [1, 1], 1), [1]),
    "lp_solve-b": lambda x: simplex.lp_solve(polyhedra.polyhedron([[1], [-1]], [x, 1], 1), [1]),
    "lp_solve-c": lambda x: simplex.lp_solve(polyhedra.polyhedron([[1], [-1]], [1, 1], 1), [x]),
    "polyhedron-A": lambda x: polyhedra.polyhedron([[x], [-1]], [1, 1]),
    "polyhedron-b": lambda x: polyhedra.polyhedron([[1], [-1]], [1, x]),
    "instance-A": lambda x: pipeline.instance([[x], [-1]], [1, 1], [1], [0]),
    "instance-b": lambda x: pipeline.instance([[1], [-1]], [x, 1], [1], [0]),
    "instance-q": lambda x: pipeline.instance([[1], [-1]], [1, 1], [x], [0]),
    "instance-h": lambda x: pipeline.instance([[1], [-1]], [1, 1], [1], [x]),
    "contains": lambda x: polyhedra.contains(BOX, [x]),
    "verdict": lambda x: oracles.verdict(UNIT, [x], F(1, 2), "continuous", UNIT_REPORT),
    "eval_objective": lambda x: pipeline.eval_objective(UNIT, [x]),
    "run_pipeline-xc": lambda x: pipeline.run_pipeline(UNIT, F(1, 2), [x], [1]),
    "run_pipeline-xd": lambda x: pipeline.run_pipeline(UNIT, F(1, 2), [1], [x]),
    "intersect_with_box": lambda x: polyhedra.intersect_with_box(BOX, [x], 1),
    "rat_to_str": lambda x: formats.rat_to_str(x),
}


@pytest.mark.parametrize("x", [0.1, "1/3"], ids=["float", "str"])
@pytest.mark.parametrize("name", list(NUMBER_READERS))
def test_number_contract(name, x):
    """A float or a str where a number goes is an InputError naming its
    type, neither read as the Fraction it would make nor an AttributeError;
    1, True and Fraction(1) in its place are read alike."""
    call = NUMBER_READERS[name]
    with pytest.raises(InputError) as got:
        call(x)
    assert str(got.value) == f"a number must be an int or a Fraction, not {type(x).__name__}"
    assert call(1) == call(True) == call(F(1))
