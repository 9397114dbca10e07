"""Exact rational linear algebra.

There is no floating point anywhere in this package.  Entries are ints or
``fractions.Fraction``s; vectors are sequences of them and matrices are
sequences of rows.  Determinants, ranks, null spaces and linear solves share
one fraction-free (Bareiss) elimination on Python ints: each row is scaled to
integers by the lcm of its denominators on entry, and a ``Fraction`` is built
only for the entries of the result.  ``solution_space_int`` is the entry
point for rows that are already ints: ints in, ints out.  The elimination
has one step, ``_extend_echelon``, and one loop, ``_eliminate``, which adds
a matrix's rows one at a time: determinants, ranks, null spaces, solves
and the cone's equality echelon run on it.  Only ``independent_row_sets``,
which walks the independent row sets of an int matrix, adds rows itself.
The last pivot of an echelon is the minor on its rows and pivot columns,
so determinants and Cramer's rule are read off it.
The subdeterminant scan reads its 1x1 and 2x2 minors in closed form, and
the larger ones by determinant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul, neg

from .errors import DimensionError, DomainError, InputError


def _denominators(xs) -> list[int]:
    """The denominator of each entry of xs, a sequence of ints (a bool
    counts as one) and Fractions; InputError naming the type of the first
    entry of any other type."""
    try:
        return [x.denominator for x in xs]
    except AttributeError:
        other = next(x for x in xs if not isinstance(x, (int, Fraction)))
        raise InputError(f"a number must be an int or a Fraction, "
                         f"not {type(other).__name__}") from None


def is_integral(x) -> bool:
    return _denominators((x,))[0] == 1


def is_integral_vec(v) -> bool:
    return all(is_integral(x) for x in v)


def vec_add(u, v) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionError(f"vec_add: {len(u)} vs {len(v)}")
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionError(f"vec_sub: {len(u)} vs {len(v)}")
    return [a - b for a, b in zip(u, v)]


def inf_norm(v) -> Fraction:
    X, d = integer_vector(v)
    return Fraction(max(map(abs, X), default=0), d)


def _check_square(M):
    n = len(M)
    if any(len(row) != n for row in M):
        raise DimensionError("matrix is not square")
    return n


def _integer_rows(M) -> tuple[list[list[int]], list[int]]:
    """Each row of a rational matrix times the lcm of its denominators.

    Entries must be ints or Fractions (_denominators).  Also returns the
    row multipliers; their product is the factor by which the determinant
    grows.
    """
    rows, scales = [], []
    for row in M:
        d = lcm(*_denominators(row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def integer_vector(v) -> tuple[list[int], int]:
    """v times the lcm d of its denominators, and d.

    v is a sequence of ints and Fractions (_denominators).  With d = 1 the
    numerators are the ints, and nothing is rescaled.
    """
    d = lcm(*_denominators(v))
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def rational_vector(X, d: int) -> tuple[Fraction, ...]:
    """The point X / d as Fractions, for ints X and an int d > 0: the
    inverse of integer_vector.  With d = 1 each Fraction is made from its
    int alone, with no gcd to take."""
    if d == 1:
        return tuple(map(Fraction, X))
    return tuple([Fraction(x, d) for x in X])


def _extend_echelon(a: list[list[int]], pivots: list[int], row: list[int],
                    ncols: int) -> tuple[list[int], int] | None:
    """One more row for the echelon rows a with their pivot columns.

    row is reduced by one Bareiss step per row of a, so its entry in column
    c is the minor of [a's input rows; row] on a's pivot columns, in pivot
    order, then c, and each division is exact.  Returns the reduced row and
    its pivot, its first nonzero entry in the first ncols columns; None when
    there is none, that is, when row is dependent on a's input rows.  The
    reduced row is zero in every earlier pivot column, so the extended rows
    suit _back_substitute and _kernel, whose pivots need not increase.
    Their pivot set is that of the reduced row echelon form of the input
    rows: both are the columns where some vector of the row space has its
    first nonzero entry.
    """
    prev = 1
    for prow, c in zip(a, pivots):
        piv, f = prow[c], row[c]
        if f or piv != prev:  # else the step gives x * piv // prev = x
            row = [(x * piv - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    for c in range(ncols):
        if row[c]:
            return row, c
    return None


def _eliminate(rows: list[list[int]], ncols: int
               ) -> tuple[list[list[int]], list[int]] | None:
    """The echelon rows and pivot columns of the int rows, added one at a time.

    Each row goes through _extend_echelon, and one that reduces to zero is
    dropped, so the rows kept are those independent of the rows before
    them.  Columns from ncols on are an augmented right-hand side: a row
    whose pivot lands there is the equation 0 = c, and the result is None.
    Once the rank equals the row width every later row reduces to zero, so
    the loop stops; [M | rhs] never gets there, for a pivot in its rhs
    column returns None first.  The rows are read, not changed.
    """
    a: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        ext = _extend_echelon(a, pivots, row, len(row))
        if ext is not None:
            if ext[1] >= ncols:
                return None
            a.append(ext[0])
            pivots.append(ext[1])
            if len(a) == len(row):
                break
    return a, pivots


def _last_pivot(a: list[list[int]], pivots: list[int]) -> int:
    """The minor of echelon rows a on their input rows and pivot columns, in
    pivot order: the last pivot, or 1 for no rows."""
    return a[-1][pivots[-1]] if a else 1


def independent_row_sets(rows: list[list[int]], ncols: int, least: int, top: int,
                         echelon=((), ())):
    """(S, a, pivots) for every set S of the int rows that is linearly
    independent in the first ncols columns, with least <= |S| <= top: S an
    increasing tuple of row indices, a and pivots the echelon of its rows.

    echelon is a start (rows, pivots) built by _extend_echelon, empty by
    default.  Every echelon of the walk extends it, so each S is independent
    on top of the start's input rows: with them, its rows have rank |S|
    plus theirs.

    Level s + 1 holds S + (j,) for each independent S of level s, in order,
    and each row j > max S, in order, its echelon that of S plus row j
    reduced by _extend_echelon.  So the sets come by size and then
    lexicographically, and every independent set is reached, for a subset
    of an independent set is independent.  A row that reduces to zero ends
    the subtree of S + (j,), all of it dependent, and a row j with fewer
    than least - |S| - 1 rows after it is not tried.  One level is held at
    a time, each set with its echelon: up to C(len(rows), top / 2) sets.
    """
    level = [((), list(echelon[0]), list(echelon[1]))]
    for size in range(top + 1):
        if size >= least:
            yield from level
        if size < top:
            end = len(rows) - max(least - size - 1, 0)
            parents, level = level, []
            for S, a, pivots in parents:
                for j in range(S[-1] + 1 if S else 0, end):
                    ext = _extend_echelon(a, pivots, rows[j], ncols)
                    if ext is not None:
                        level.append((S + (j,), a + [ext[0]], pivots + [ext[1]]))


def _back_substitute(a: list[list[int]], pivots: list[int], w: list[int]) -> list[int]:
    """Fill the pivot entries of w so that every pivot row of a is orthogonal to it.

    Each pivot row must be zero in the pivot columns of the rows before it.
    The other entries of w must be multiples of the last pivot; by Cramer's
    rule the pivot entries then are integers too, so each division is exact.
    """
    for i in reversed(range(len(pivots))):
        row, p = a[i], pivots[i]
        w[p] = -sum(map(mul, row, w)) // row[p]
    return w


def _kernel(a: list[list[int]], pivots: list[int], n: int) -> list[list[int]]:
    """The kernel basis of echelon rows a, times L = |their last pivot|.

    One vector per free column f of the first n columns: L at f, 0 at the
    other free columns, so divided by L it is the canonical basis of the
    reduced row echelon form.  Its pivot entries are minors, by Cramer's
    rule.
    """
    last = abs(_last_pivot(a, pivots))
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        w = [0] * n
        w[f] = last
        basis.append(_back_substitute(a, pivots, w))
    return basis


def _det_int(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix, which is read, not changed.

    _eliminate adds its rows; fewer than n pivots make it 0.  Otherwise the
    last pivot is the determinant with the columns in pivot order, and
    putting them back in order multiplies it by -1 per inversion of the
    pivot list.
    """
    rows, pivots = _eliminate(a, len(a))
    if len(pivots) < len(a):
        return 0
    inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1:])
    return (-1) ** inversions * _last_pivot(rows, pivots)


def det(M) -> Fraction:
    """Exact determinant of a square matrix."""
    _check_square(M)
    a, scales = _integer_rows(M)
    return Fraction(_det_int(a), prod(scales))


def _integer_matrix(M) -> list[list[int]]:
    """The entries of M as ints, integer_vector per row; DomainError unless
    every entry is an integer."""
    out = []
    for row in M:
        ints, d = integer_vector(row)
        if d != 1:
            raise DomainError("subdeterminants are defined here for integer matrices only")
        out.append(ints)
    return out


def max_abs_subdeterminant(M) -> int:
    """Largest |det| over all square submatrices of an integer matrix.

    The entries are turned into ints once (_integer_matrix), and the rows
    go to _max_abs_subdeterminant_rows.  Returns 0 exactly when the matrix
    is all-zero (or empty).
    """
    return _max_abs_subdeterminant_rows(_integer_matrix(M))


def _max_abs_subdeterminant_rows(rows) -> int:
    """max_abs_subdeterminant of int rows, taken as they are.

    The rows are reduced first, without changing the value:
    - zero rows are dropped: every minor on such a row is 0;
    - one row of each pair equal up to sign is kept: a minor on both rows
      is 0, and one on either row is the other's up to sign;
    - the unit rows +-e_i are set aside: expanding a minor along one gives
      0 or +- a minor of the other rows, the empty minor (value 1) included.
    The rows left are scanned exhaustively, and the value is their largest
    |det|, or 1 if that is smaller and some unit row was set aside.
    """
    rest: dict[tuple[int, ...], None] = {}  # rows up to sign, first nonzero entry > 0
    unit = 0
    for row in rows:
        size = sum(map(abs, row))  # 0 on a zero row, 1 on a unit row alone
        if size <= 1:
            unit |= size
            continue
        row = tuple(row)
        for lead in row:
            if lead:
                break
        rest[row if lead > 0 else tuple(map(neg, row))] = None
    value, _, _ = _max_abs_subdeterminant_int(list(rest))
    return max(value, unit)


def max_abs_subdeterminant_witness(M) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Largest |det| over all square submatrices, with witness row/col indices.

    Exhaustive over all row/column subsets in (size, lex) order; the witness
    is the first subset that attains the value.
    """
    return _max_abs_subdeterminant_int(_integer_matrix(M))


def _max_abs_subdeterminant_int(a) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """max_abs_subdeterminant_witness of a matrix whose entries are ints.

    The 1x1 minors are the entries, so that size is read as the largest
    |a_ij|, its witness the first such entry in (row, col) order.  The 2x2
    minor on rows (r, s) and columns (c, e) is read in closed form, as
    a_rc a_se - a_re a_sc, in the same (rows, cols) order; the larger sizes
    are scanned by determinant.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    best, best_rows, best_cols = 0, (), ()
    for r, row in enumerate(a):
        for c, x in enumerate(row):
            if abs(x) > best:
                best, best_rows, best_cols = abs(x), (r,), (c,)
    col_pairs = list(combinations(range(n), 2))
    for rows in combinations(range(m), 2):
        u, v = a[rows[0]], a[rows[1]]
        for cols in col_pairs:
            c, e = cols
            d = abs(u[c] * v[e] - u[e] * v[c])
            if d > best:
                best, best_rows, best_cols = d, rows, cols
    for size in range(3, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                sub = [[a[r][c] for c in cols] for r in rows]
                d = abs(_det_int(sub))
                if d > best:
                    best, best_rows, best_cols = d, rows, cols
    return best, best_rows, best_cols


def _solution_space(a: list[list[int]], pivots: list[int], n: int
                    ) -> tuple[list[int], list[list[int]], int]:
    """X, W and L of solution_space_int from the echelon rows a of a
    consistent [M | rhs]: L = |last pivot| > 0, X / L the solution whose free
    coordinates are 0, and W = _kernel(a, pivots, n)."""
    L = abs(_last_pivot(a, pivots))
    # [M | rhs] (x, -1) = 0: put -L in the rhs slot, then x = X / L.
    X = _back_substitute(a, pivots, [0] * n + [-L])
    return X[:n], _kernel(a, pivots, n), L


def solution_space_int(M, rhs, n: int) -> tuple[list[int], list[list[int]], int] | None:
    """Every solution of the integer system M x = rhs in n unknowns, in ints.

    The rows of [M | rhs], added one at a time (_eliminate), give X, W and
    L > 0 with
    {x : M x = rhs} = {(X + sum_f y_f W_f) / L : y rational}: X / L is the
    solution whose free coordinates are 0, and the W_f / L, one per free
    column f, are the canonical kernel basis of null_space.  So M has rank
    n - len(W).  None when the system is inconsistent.  M and rhs are read,
    not changed.
    """
    echelon = _eliminate([[*row, b] for row, b in zip(M, rhs)], n)
    return None if echelon is None else _solution_space(*echelon, n)


def solve_linear(M, rhs) -> list[Fraction] | None:
    """Solve M x = rhs exactly for square M; None when singular."""
    n = _check_square(M)
    if len(rhs) != n:
        raise DimensionError(f"solve_linear: rhs length {len(rhs)} vs {n}")
    a, _ = _integer_rows([[*row, b] for row, b in zip(M, rhs)])
    sol = solution_space_int([row[:n] for row in a], [row[n] for row in a], n)
    if sol is None or sol[1]:
        return None
    X, _, L = sol
    return list(rational_vector(X, L))


def rank(M) -> int:
    if not M:
        return 0
    a, _ = _integer_rows(M)
    return len(_eliminate(a, len(a[0]))[1])


def null_space(M, n: int | None = None) -> list[list[Fraction]]:
    """Basis of {x : M x = 0}.  For an empty M, the ambient dim n is required.

    The basis is the canonical one of the reduced row echelon form: one
    vector per free column, with that column 1 and the other free columns 0.
    """
    if not M:
        if n is None:
            raise DimensionError("null_space of empty matrix needs ambient dimension")
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ncols = len(M[0])
    a, pivots = _eliminate(_integer_rows(M)[0], ncols)
    last = abs(_last_pivot(a, pivots))
    return [[Fraction(x, last) for x in w] for w in _kernel(a, pivots, ncols)]
