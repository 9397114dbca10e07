"""Exact rational linear algebra.

Everything is a ``fractions.Fraction``; there is no floating point anywhere in
this package.  Vectors are lists of fractions, matrices are lists of rows.
Determinants, ranks, null spaces and linear solves share one fraction-free
(Bareiss) elimination on Python ints: each row is scaled to integers by the
lcm of its denominators on entry, and a ``Fraction`` is built only for the
entries of the result.  ``solution_space_int`` is the entry point for rows
that are already ints: ints in, ints out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import DimensionError, DomainError


def vec(xs) -> list[Fraction]:
    return [Fraction(x) for x in xs]


def is_integral(x: Fraction) -> bool:
    return Fraction(x).denominator == 1


def is_integral_vec(v) -> bool:
    return all(is_integral(x) for x in v)


def is_integral_mat(M) -> bool:
    return all(is_integral(x) for row in M for x in row)


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot: {len(u)} vs {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_add(u, v) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionError(f"vec_add: {len(u)} vs {len(v)}")
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionError(f"vec_sub: {len(u)} vs {len(v)}")
    return [a - b for a, b in zip(u, v)]


def inf_norm(v) -> Fraction:
    return max((abs(Fraction(x)) for x in v), default=Fraction(0))


def transpose(M) -> list[list[Fraction]]:
    return [list(col) for col in zip(*M)] if M else []


def _check_square(M):
    n = len(M)
    if any(len(row) != n for row in M):
        raise DimensionError("matrix is not square")
    return n


def _integer_rows(M) -> tuple[list[list[int]], int]:
    """Each row of a rational matrix times the lcm of its denominators.

    Entries must be ints or Fractions.  Also returns the product of the row
    multipliers, by which the determinant grows.
    """
    rows, scale = [], 1
    for row in M:
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return rows, scale


def integer_vector(v) -> tuple[list[int], int]:
    """v times the lcm d of its denominators, and d.

    Entries may be ints, Fractions or anything ``Fraction`` accepts.
    """
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _echelon(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix, in place.

    Pivots are searched in the first ncols columns only; any further column
    (an augmented right-hand side) is carried along.  Returns the pivot
    columns and the sign of the row permutation.  Every entry below the
    pivot rows is a minor of the row-permuted input, so each division is
    exact, and the last pivot is the minor on the pivot rows and columns.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        prow = a[r]
        piv = prow[c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], prow)]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, sign


def _back_substitute(a: list[list[int]], pivots: list[int], w: list[int]) -> list[int]:
    """Fill the pivot entries of w so that every pivot row of a is orthogonal to it.

    The other entries of w must be multiples of the last pivot; by Cramer's
    rule the pivot entries then are integers too, so each division is exact.
    """
    for i in reversed(range(len(pivots))):
        row, p = a[i], pivots[i]
        w[p] = -sum(x * y for x, y in zip(row, w)) // row[p]
    return w


def _kernel(a: list[list[int]], pivots: list[int], last: int, n: int) -> list[list[int]]:
    """The kernel basis of echelon rows a, times their last pivot.

    One vector per free column f of the first n columns: last at f, 0 at
    the other free columns, so divided by last it is the canonical basis of
    the reduced row echelon form.
    """
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        w = [0] * n
        w[f] = last
        basis.append(_back_substitute(a, pivots, w))
    return basis


def _det_int(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix; a is overwritten."""
    n = len(a)
    pivots, sign = _echelon(a, n)
    if len(pivots) < n:
        return 0
    return sign * a[-1][-1] if n else 1


def det(M) -> Fraction:
    """Exact determinant of a square matrix."""
    _check_square(M)
    a, scale = _integer_rows(M)
    return Fraction(_det_int(a), scale)


def _integer_matrix(M) -> list[list[int]]:
    """The entries of M as ints; DomainError unless every entry is an integer."""
    a = [[x if type(x) is int else Fraction(x) for x in row] for row in M]
    if any(x.denominator != 1 for row in a for x in row):
        raise DomainError("subdeterminants are defined here for integer matrices only")
    return [[x.numerator for x in row] for row in a]


def max_abs_subdeterminant(M) -> int:
    """Largest |det| over all square submatrices of an integer matrix.

    The rows are reduced first, without changing the value:
    - zero rows are dropped: every minor on such a row is 0;
    - one row of each pair equal up to sign is kept: a minor on both rows
      is 0, and one on either row is the other's up to sign;
    - the unit rows +-e_i are set aside: expanding a minor along one gives
      0 or +- a minor of the other rows, the empty minor (value 1) included.
    The rows left are scanned exhaustively, and the value is their largest
    |det|, or 1 if that is smaller and some unit row was set aside.
    Returns 0 exactly when the matrix is all-zero (or empty).
    """
    rest: dict[tuple[int, ...], None] = {}  # rows up to sign, first nonzero entry > 0
    unit = 0
    for row in _integer_matrix(M):
        nonzero = [x for x in row if x]
        if not nonzero:
            continue
        if len(nonzero) == 1 and abs(nonzero[0]) == 1:
            unit = 1
        else:
            rest[tuple(row) if nonzero[0] > 0 else tuple(-x for x in row)] = None
    value, _, _ = max_abs_subdeterminant_witness(list(rest))
    return max(value, unit)


def max_abs_subdeterminant_witness(M) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Largest |det| over all square submatrices, with witness row/col indices.

    Exhaustive over all row/column subsets in (size, lex) order; the witness
    is the first subset that attains the value.
    """
    a = _integer_matrix(M)
    m = len(a)
    n = len(a[0]) if m else 0
    best, best_rows, best_cols = 0, (), ()
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                sub = [[a[r][c] for c in cols] for r in rows]
                d = abs(_det_int(sub))
                if d > best:
                    best, best_rows, best_cols = d, rows, cols
    return best, best_rows, best_cols


def _particular(a: list[list[int]], ncols: int) -> tuple[list[int], list[int], int] | None:
    """Echelon of the augmented int rows a = [M | rhs], in place, and one solution.

    Returns the pivot columns, X and L > 0 with x = X[:ncols] / L the solution
    whose free (non-pivot) coordinates are 0; None when M x = rhs is
    inconsistent.
    """
    pivots, _ = _echelon(a, ncols)
    r = len(pivots)
    # Rows past the pivot rows are zero in M's columns; a nonzero rhs there
    # is the equation 0 = c.
    if any(row[ncols] for row in a[r:]):
        return None
    last = a[r - 1][pivots[-1]] if pivots else 1
    if last < 0:
        last = -last
    # [M | rhs] (x, -1) = 0: put -last in the rhs slot, then x = X / last.
    return pivots, _back_substitute(a, pivots, [0] * ncols + [-last]), last


def particular_solution(M, rhs, n: int | None = None) -> tuple[list[Fraction], int] | None:
    """One solution of M x = rhs and the rank of M; None when inconsistent.

    The solution has every free (non-pivot) coordinate 0.  For an empty M,
    the ambient dim n is required.
    """
    if len(rhs) != len(M):
        raise DimensionError(f"particular_solution: rhs length {len(rhs)} vs {len(M)}")
    if not M:
        if n is None:
            raise DimensionError("empty system needs ambient dimension")
        return [Fraction(0)] * n, 0
    ncols = len(M[0])
    a, _ = _integer_rows([[*row, b] for row, b in zip(M, rhs)])
    sol = _particular(a, ncols)
    if sol is None:
        return None
    pivots, X, last = sol
    return [Fraction(x, last) for x in X[:ncols]], len(pivots)


def solution_space_int(M, rhs, n: int) -> tuple[list[int], list[list[int]], int] | None:
    """Every solution of the integer system M x = rhs in n unknowns, in ints.

    One Bareiss elimination of [M | rhs] gives X, W and L > 0 with
    {x : M x = rhs} = {(X + sum_f y_f W_f) / L : y rational}: X / L is the
    solution whose free coordinates are 0, and the W_f / L, one per free
    column f, are the canonical kernel basis of null_space.  So M has rank
    n - len(W).  None when the system is inconsistent.  M and rhs are read,
    not changed.
    """
    a = [[*row, b] for row, b in zip(M, rhs)]
    sol = _particular(a, n)
    if sol is None:
        return None
    pivots, X, last = sol
    return X[:n], _kernel(a, pivots, last, n), last


def solve_linear(M, rhs) -> list[Fraction] | None:
    """Solve M x = rhs exactly for square M; None when singular."""
    n = _check_square(M)
    if len(rhs) != n:
        raise DimensionError(f"solve_linear: rhs length {len(rhs)} vs {n}")
    sol = particular_solution(M, rhs, n)
    return sol[0] if sol is not None and sol[1] == n else None


def rank(M) -> int:
    if not M:
        return 0
    a, _ = _integer_rows(M)
    pivots, _ = _echelon(a, len(a[0]))
    return len(pivots)


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
    a, _ = _integer_rows(M)
    pivots, _ = _echelon(a, ncols)
    last = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [[Fraction(x, last) for x in w] for w in _kernel(a, pivots, last, ncols)]


def primitive_integer_vector(v) -> list[Fraction]:
    """Scale a nonzero rational vector to the primitive integer vector on its ray."""
    ints, _ = integer_vector(v)
    g = gcd(*ints) or 1
    return [Fraction(x // g) for x in ints]
