"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's pivot rule (anti-cycling, so
termination is guaranteed).  Variables are free; the constraints are a
polyhedron's rows `A x <= b`, read as its int rows (polyhedra.Polyhedron).
Equality constraints are encoded by callers as opposing inequality pairs.

The tableau is fraction-free (Edmonds 1967): Python ints over one positive
common denominator, updated by exact Bareiss steps, with ratios compared by
cross-multiplying.  It makes the same Bland pivots as a ``Fraction`` tableau
of the unscaled problem, ties included, so the results are those of that
tableau; a ``Fraction`` is built only for the output coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionError, InputError
from .exact import integer_vector

ZERO = Fraction(0)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: list[Fraction] | None = None
    objective: Fraction | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tab, obj, basis, row, col, d):
    """Fraction-free pivot (Edmonds 1967); returns the new common denominator.

    The true tableau is tab / d and the true objective row obj / d, with
    d > 0.  Every entry is, up to sign, a minor of the initial integer
    tableau, so each division is exact.  A negative pivot (only the
    drive-out of artificials makes one) is made positive by negating its
    row, which keeps d positive and the sign of every entry that of the
    true tableau.
    """
    prow = tab[row]
    piv = prow[col]
    if piv < 0:
        prow = tab[row] = [-y for y in prow]
        piv = -piv
    for i, trow in enumerate(tab):
        if i == row:
            continue
        f = trow[col]
        if f:
            tab[i] = [(x * piv - f * y) // d for x, y in zip(trow, prow)]
        elif piv != d:
            tab[i] = [x * piv // d for x in trow]
    f = obj[col]
    obj[:] = [(x * piv - f * y) // d for x, y in zip(obj, prow)]
    basis[row] = col
    return piv


def _optimize(tab, obj, basis, allowed, d):
    """Minimize, Bland's rule.  Returns ('optimal' or 'unbounded', d)."""
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", d
        leave = -1
        for i, trow in enumerate(tab):
            coeff = trow[enter]
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                # Ratio test by cross-multiplying: rhs_i/coeff_i vs the best.
                lhs = trow[-1] * tab[leave][enter]
                rhs = tab[leave][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded", d
        d = _pivot(tab, obj, basis, leave, enter, d)


def lp_solve(P, c, sense: str = "max") -> LpResult:
    """Exact optimum of c.x over the polyhedron P = {x : A x <= b}, x free.

    The entries of c are ints or Fractions.  A zero objective turns this
    into a pure feasibility check.
    """
    m, n = P.m, P.n
    if len(c) != n:
        raise DimensionError(f"lp_solve: objective has dim {len(c)}, polyhedron has {n}")
    if sense not in ("max", "min"):
        raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
    # Minimize internally, with the costs scaled to integers.
    cmin, _ = integer_vector(c)
    if sense == "max":
        cmin = [-x for x in cmin]

    if m == 0:
        if all(x == 0 for x in cmin):
            return LpResult("optimal", [ZERO] * n, ZERO)
        return LpResult("unbounded")

    # Standard form: x = xp - xn, slack per row; negate rows with negative rhs
    # and give those rows an artificial variable.  Row i is P's int row, [A_i
    # | b_i] times its scale d_i > 0, and its slack and artificial are scaled
    # by 1/d_i, so the initial basis is the identity.  Scaling rows and
    # variables by positive factors leaves every ratio-test order and every
    # reduced-cost sign as in the unscaled tableau.
    rows, rhs = P.int_rows
    nstruct = 2 * n + m
    neg = [r < 0 for r in rhs]
    nart = sum(neg)
    ncols = nstruct + nart
    tab = []
    basis = [0] * m
    art_rows = []
    for i in range(m):
        sgn = -1 if neg[i] else 1
        row = [sgn * x for x in rows[i]]
        row += [-x for x in row]
        row += [0] * (m + nart)
        row[2 * n + i] = sgn
        if neg[i]:
            basis[i] = nstruct + len(art_rows)
            row[basis[i]] = 1
            art_rows.append(i)
        else:
            basis[i] = 2 * n + i
        tab.append(row + [sgn * rhs[i]])
    d = 1

    allowed = [True] * ncols
    if nart:
        # Phase 1: minimize the artificial sum.  The artificial of row i is
        # scaled by 1/d_i, so it costs L/d_i with L the lcm of those d_i: the
        # objective is L times the unscaled one.
        common = lcm(*(P.scales[i] for i in art_rows))
        obj = [0] * (ncols + 1)
        for i in art_rows:
            w = common // P.scales[i]
            obj[basis[i]] = w
            obj = [o - w * t for o, t in zip(obj, tab[i])]
        _, d = _optimize(tab, obj, basis, allowed, d)
        if obj[-1] != 0:
            return LpResult("infeasible")
        # Drive leftover zero-level artificials out of the basis.
        for i in range(m):
            if basis[i] >= nstruct:
                for j in range(nstruct):
                    if tab[i][j] != 0:
                        d = _pivot(tab, obj, basis, i, j, d)
                        break
        # Rows still basic in an artificial are redundant; freeze the column.
        for j in range(nstruct, ncols):
            allowed[j] = False

    # Phase 2: the objective row d * (cost - cost_B B^-1 [A | b]).
    cost = [0] * (ncols + 1)
    cost[:n] = cmin
    cost[n:2 * n] = [-x for x in cmin]
    obj = [d * x for x in cost]
    for i in range(m):
        f = cost[basis[i]]
        if f != 0:
            obj = [o - f * t for o, t in zip(obj, tab[i])]
    status, d = _optimize(tab, obj, basis, allowed, d)
    if status == "unbounded":
        return LpResult("unbounded")
    values = [0] * ncols
    for i in range(m):
        values[basis[i]] = tab[i][-1]
    x = [Fraction(values[j] - values[n + j], d) for j in range(n)]
    objective = sum(map(mul, c, x), ZERO)
    return LpResult("optimal", x, objective)


def feasible_point(P) -> list[Fraction] | None:
    """A point of the polyhedron P, or None when P is empty."""
    res = lp_solve(P, [0] * P.n, "min")
    return res.point if res.is_optimal else None
