"""Row-sign cones, integer generator sets, and conic decompositions.

The cone of two points puts each int row u (a row of a matrix times a
positive int) on a side by the sign of u.(xa - xb); ties land on both
sides.  Generators are the primitive integer extreme rays of the cone cut
by each orthant, which keeps every generator's infinity norm within the
subdeterminant bound of the source matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import exact
from .errors import (ClaimViolation, DimensionError, InputError,
                     RepresentationMismatch)
from .polyhedra import Polyhedron, contains_int
from .simplex import lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ProximityCone:
    """{x : A1 x <= 0, A2 x >= 0} on int rows, each a matrix row times a positive int."""

    a1: tuple[tuple[int, ...], ...]
    a2: tuple[tuple[int, ...], ...]
    ambient_dim: int


@dataclass
class ConicDecomposition:
    """target = sum_i coefficients[i] * generators[i], all coefficients > 0.

    combine sums any coefficient list over the generators, so the floored
    or split coefficients of a decomposition are combined by it too.
    """

    generators: list[tuple[Fraction, ...]] = field(default_factory=list)
    coefficients: list[Fraction] = field(default_factory=list)

    def combine(self, n: int) -> list[Fraction]:
        out = [ZERO] * n
        for g, c in zip(self.generators, self.coefficients):
            out = [o + c * gi for o, gi in zip(out, g)]
        return out


def build_cone(rows, xa, xb) -> ProximityCone:
    """Partition int rows by the sign of u.(xa - xb); ties go to both sides.

    Each row is a row of a matrix times a positive int, as a polyhedron's
    int_rows[0] are, so its sign is that of the matrix row.  The direction
    d = xa - xb is scaled once to an integer vector D = L d with L > 0, so
    each sign is that of an int dot product.  The rows are kept as given,
    in order, each as a tuple.
    """
    if not rows:
        raise DimensionError("cone needs at least one row")
    n = len(rows[0])
    if len(xa) != n or len(xb) != n:
        raise DimensionError("point dimension does not match matrix columns")
    D, _ = exact.integer_vector(exact.vec_sub(xa, xb))
    a1, a2 = [], []
    for r in map(tuple, rows):  # a tuple is itself
        if len(r) != n:
            raise DimensionError(f"row length {len(r)} vs {n} columns")
        s = sum(map(mul, r, D))
        if s <= 0:
            a1.append(r)
        if s >= 0:
            a2.append(r)
    return ProximityCone(tuple(a1), tuple(a2), n)


def cone_contains(cone: ProximityCone, x) -> bool:
    if len(x) != cone.ambient_dim:
        raise DimensionError("point dimension mismatch")
    X, _ = exact.integer_vector(x)  # x scaled by a positive d: same signs
    return (all(sum(map(mul, r, X)) <= 0 for r in cone.a1)
            and all(sum(map(mul, r, X)) >= 0 for r in cone.a2))


def enumerate_generators(cone: ProximityCone,
                         delta: int) -> tuple[tuple[Fraction, ...], ...]:
    """The cone's primitive integer generators, sorted; infinity norm <= delta.

    The extreme rays of the cone cut by any orthant are the rays in the cone
    on which n-1 linearly independent hyperplanes (cone rows or coordinate
    planes) are tight, and every such ray lies in some orthant.  The
    hyperplanes are the int rows of the cone, each made primitive with its
    first nonzero entry positive (so parallel rows merge), and the unit
    rows.

    A row on both sides of the cone (in a1 and in a2) is one of its
    equalities, tight on the whole cone.  The hyperplanes tight on an
    extreme ray include these rows, so n-1 independent ones among them can
    be chosen to include a basis of these rows.  So the equality rows are
    put into an echelon first, stopping at rank n (the cone is then {0} and
    has no generator), and only the sets of n-1-r hyperplanes independent
    on top of that rank-r echelon are walked (exact.independent_row_sets).
    A hyperplane that depends on the equalities reduces to zero there and
    ends its own subtree.  Each set has a kernel line; its direction with a
    positive free entry, then the other, is kept, divided by its gcd, when
    it lies in the cone.

    The lines come in the order of the walk over all (n-1)-sets.  A line
    comes first at the lexicographically first set of hyperplanes that
    spans its orthogonal complement (on top of the equalities), and where
    those sets of two lines first differ, the row that one of them takes is
    not orthogonal to the other line, in either walk.  So a generator beyond
    delta raises the generator-norm claim at the same generator.
    """
    if delta < 1:
        raise InputError("delta must be a positive integer")
    n = cone.ambient_dim
    both = set(cone.a2)
    eq: list[list[int]] = []  # echelon of the equality rows
    eq_pivots: list[int] = []
    for row in cone.a1:
        if row in both:
            ext = exact._extend_echelon(eq, eq_pivots, row, n)
            if ext is not None:
                eq.append(ext[0])
                eq_pivots.append(ext[1])
                if len(eq) == n:
                    return ()
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    hyperplanes = {}  # primitive nonzero rows up to sign, first nonzero entry > 0
    for r in chain(cone.a1, cone.a2, units):
        lead = next((x for x in r if x), 0)
        if lead:
            g = gcd(*r) if lead > 0 else -gcd(*r)
            hyperplanes[tuple(x // g for x in r)] = None
    size = n - 1 - len(eq)
    found = set()
    for _, a, pivots in exact.independent_row_sets(
            list(hyperplanes), n, size, size, (eq, eq_pivots)):
        w = exact._kernel(a, pivots, n)[0]
        g = gcd(*w)
        line = [x // g for x in w]
        for r in (line, [-x for x in line]):
            if cone_contains(cone, r):
                if max(map(abs, r)) > delta:
                    raise ClaimViolation(
                        "generator-norm",
                        f"generator {tuple(r)} exceeds the subdeterminant bound {delta}")
                found.add(tuple(r))
    return tuple(tuple(map(Fraction, g)) for g in sorted(found))


def conic_multipliers(gens, target) -> list[Fraction] | None:
    """Nonnegative gamma with sum gamma_i v_i = target, or None."""
    vs = list(gens)
    n = len(target)
    if not vs:
        return [] if all(Fraction(t) == 0 for t in target) else None
    k = len(vs)
    rows, rhs = [], []
    for j in range(k):
        r = [ZERO] * k
        r[j] = -ONE
        rows.append(r)
        rhs.append(ZERO)
    for i in range(n):
        r = [Fraction(v[i]) for v in vs]
        rows.append(r)
        rhs.append(Fraction(target[i]))
        rows.append([-x for x in r])
        rhs.append(-Fraction(target[i]))
    res = lp_solve(rows, rhs, [ZERO] * k, "min")
    return res.point if res.is_optimal else None


def in_generated_cone(gens, target) -> bool:
    return conic_multipliers(gens, target) is not None


def caratheodory_decompose(target, gens) -> ConicDecomposition:
    """Positive combination of linearly independent generators hitting target.

    The system sum_i gamma_i g_i = target is solved first, by one
    exact.solution_space_int on the int rows of [G | target] (each row of
    the n x (k + 1) matrix times the lcm of its denominators).  It is
    inconsistent only when target is outside the span, so outside the cone.
    When G has full column rank, gamma is unique: {gamma >= 0, G gamma =
    target} is then that point alone if gamma >= 0, and empty otherwise.
    The conic LP's basic solution is a point of that set, so it is this
    gamma, and the decomposition is its support, with no LP.  With no
    generator the cone is {0}, and only a zero target is in it.

    A dependent generator set runs the conic LP (conic_multipliers).  Its
    basic solution's support is linearly independent: a kernel vector of
    the support's generators would move the point both ways inside the
    feasible set.  So that support is the decomposition, at most n
    generators; one rank check confirms the independence.
    """
    k = len(gens)
    if not k:  # the cone of no generator is {0}
        if any(target):
            raise InputError("target is not in the cone of the generator set")
        return ConicDecomposition([], [])
    rows, _ = exact._integer_rows([[g[i] for g in gens] + [t] for i, t in enumerate(target)])
    sol = exact.solution_space_int([r[:k] for r in rows], [r[k] for r in rows], k)
    if sol is None:
        raise InputError("target is not in the cone of the generator set")
    gamma, kernel, L = sol
    if not kernel:
        if any(c < 0 for c in gamma):
            raise InputError("target is not in the cone of the generator set")
        support = [(g, Fraction(c, L)) for g, c in zip(gens, gamma) if c]
        return ConicDecomposition([g for g, _ in support], [c for _, c in support])
    gamma = conic_multipliers(gens, target)
    if gamma is None:
        raise InputError("target is not in the cone of the generator set")
    support = [(g, c) for g, c in zip(gens, gamma) if c > 0]
    if exact.rank([g for g, _ in support]) != len(support):
        raise ClaimViolation("caratheodory-support",
                             f"the {len(support)} generators of the support are dependent")
    return ConicDecomposition([g for g, _ in support], [a for _, a in support])


def combination_int(X, d: int, combo: ConicDecomposition, sign: int) -> tuple[list[int], int]:
    """The point X / d + sign * sum_i c_i g_i as ints V over D > 0, in lowest
    terms, for an int vector X, an int d > 0 and sign = +-1.

    Each generator is scaled once, g = G / s, so the term c g is p G over
    q s for c = p / q; D is the lcm of d and those denominators.
    """
    terms = []
    for g, c in zip(combo.generators, combo.coefficients):
        G, s = exact.integer_vector(g)
        if len(G) != len(X):
            raise DimensionError(f"generator dimension {len(G)} vs {len(X)}")
        terms.append((sign * c.numerator, c.denominator * s, G))
    D = lcm(d, *(q for _, q, _ in terms))
    V = [x * (D // d) for x in X]
    for p, q, G in terms:
        if p:
            f = p * (D // q)
            V = [v + f * y for v, y in zip(V, G)]
    g = gcd(D, *V)
    return [v // g for v in V], D // g


def check_two_representations(P: Polyhedron, cone: ProximityCone,
                              x1, x2,
                              pos_combo: ConicDecomposition,
                              neg_combo: ConicDecomposition) -> bool:
    """Certificate check: x1 + sum(alpha v) == x2 - sum(beta v), in P.

    A disagreement between the two expressions raises RepresentationMismatch;
    membership failure of the common point returns False.
    """
    for combo in (pos_combo, neg_combo):
        for g, c in zip(combo.generators, combo.coefficients):
            if c < 0:
                raise InputError("combination coefficients must be nonnegative")
            if not cone_contains(cone, g):
                raise InputError(f"generator {g} is not in the cone")
    n = P.n
    X1, d1 = exact.integer_vector(x1)
    X2, d2 = exact.integer_vector(x2)
    if len(X1) != n or len(X2) != n:
        raise DimensionError(f"point dimensions {len(X1)}, {len(X2)} vs {n}")
    p1 = combination_int(X1, d1, pos_combo, 1)
    p2 = combination_int(X2, d2, neg_combo, -1)
    if p1 != p2:  # both in lowest terms
        raise RepresentationMismatch("representations differ: "
                                     f"{[Fraction(v, p1[1]) for v in p1[0]]} vs "
                                     f"{[Fraction(v, p2[1]) for v in p2[0]]}")
    return contains_int(P, *p1)
