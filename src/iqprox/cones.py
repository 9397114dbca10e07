"""Row-sign cones, integer generator sets, and conic decompositions.

The cone of a matrix A and two points splits the rows of A by the sign of
u.(xa - xb); ties land on both sides.  Generators are the primitive integer
extreme rays of the cone cut by each orthant, which keeps every generator's
infinity norm within the subdeterminant bound of the source matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import mul

from . import exact
from .errors import (ClaimViolation, DimensionError, InputError,
                     RepresentationMismatch)
from .polyhedra import Polyhedron, contains
from .simplex import lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ProximityCone:
    """{x : A1 x <= 0, A2 x >= 0} from the row partition of a matrix."""

    a1: tuple[tuple[Fraction, ...], ...]
    a2: tuple[tuple[Fraction, ...], ...]
    ambient_dim: int

    @cached_property
    def int_rows(self) -> tuple[list[list[int]], list[list[int]]]:
        """a1 and a2 with each row times the lcm of its denominators."""
        return exact._integer_rows(self.a1)[0], exact._integer_rows(self.a2)[0]


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


def build_cone(A, xa, xb) -> ProximityCone:
    """Partition the rows of A by the sign of u.(xa - xb); ties go to both.

    The direction d = xa - xb is scaled once to an integer vector D = L d
    with L > 0, and each row u to an integer row by the lcm of its
    denominators, so the sign of u.d is that of an int dot product.  Rows
    keep their order; a row of Fractions is kept as given.
    """
    if not A:
        raise DimensionError("cone needs at least one row")
    n = len(A[0])
    if len(xa) != n or len(xb) != n:
        raise DimensionError("point dimension does not match matrix columns")
    D, _ = exact.integer_vector(exact.vec_sub(xa, xb))
    a1, a2 = [], []
    for row in A:
        if len(row) != n:
            raise DimensionError(f"row length {len(row)} vs {n} columns")
        r = tuple(row)  # row itself when it is a tuple
        if any(type(x) is not Fraction for x in r):
            r = tuple(map(Fraction, r))
        R, _ = exact.integer_vector(r)
        s = sum(map(mul, R, D))
        if s <= 0:
            a1.append(r)
        if s >= 0:
            a2.append(r)
    return ProximityCone(tuple(a1), tuple(a2), n)


def cone_contains(cone: ProximityCone, x) -> bool:
    if len(x) != cone.ambient_dim:
        raise DimensionError("point dimension mismatch")
    X, _ = exact.integer_vector(x)  # x scaled by a positive d: same signs
    a1, a2 = cone.int_rows
    return (all(sum(map(mul, r, X)) <= 0 for r in a1)
            and all(sum(map(mul, r, X)) >= 0 for r in a2))


def enumerate_generators(cone: ProximityCone,
                         delta: int) -> tuple[tuple[Fraction, ...], ...]:
    """The cone's primitive integer generators, sorted; infinity norm <= delta.

    The extreme rays of the cone cut by any orthant are the rays in the cone
    on which n-1 linearly independent hyperplanes (cone rows or coordinate
    planes) are tight, and every such ray lies in some orthant.  So each
    (n-1)-subset of hyperplanes whose kernel is a line gives the directions
    of that line that lie in the cone, scaled to primitive integer vectors.
    """
    if delta < 1:
        raise InputError("delta must be a positive integer")
    n = cone.ambient_dim
    units = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    hyperplanes = {}  # nonzero rows up to sign, first nonzero entry positive
    for r in chain(cone.a1, cone.a2, units):
        lead = next((x for x in r if x), ZERO)
        if lead:
            hyperplanes[r if lead > 0 else tuple(-x for x in r)] = None
    found = set()
    for M in combinations(hyperplanes, n - 1):
        ns = exact.null_space(M, n)
        if len(ns) != 1:
            continue
        for r in (ns[0], [-x for x in ns[0]]):
            if cone_contains(cone, r):
                g = tuple(exact.primitive_integer_vector(r))
                if exact.inf_norm(g) > delta:
                    raise ClaimViolation(
                        "generator-norm",
                        f"generator {g} exceeds the subdeterminant bound {delta}")
                found.add(g)
    return tuple(sorted(found))


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

    Starts from any feasible conic combination and repeatedly shifts along a
    null-space direction of the support until some coefficient reaches zero
    (ties broken by smallest index), leaving at most n independent
    generators.
    """
    gamma = conic_multipliers(gens, target)
    if gamma is None:
        raise InputError("target is not in the cone of the generator set")
    support = [(g, c) for g, c in zip(gens, gamma) if c > 0]
    while True:
        cols = [g for g, _ in support]
        if not cols:
            break
        M = exact.transpose(cols)  # n x m, columns are generators
        ns = exact.null_space(M, len(cols))
        if not ns:
            break
        c = ns[0]
        if all(ci <= 0 for ci in c):
            c = [-ci for ci in c]
        step = None
        hit = -1
        for j, cj in enumerate(c):
            if cj > 0:
                t = support[j][1] / cj
                if step is None or t < step:
                    step = t
                    hit = j
        support = [(g, a - step * cj) for (g, a), cj in zip(support, c)]
        if support[hit][1] != 0:
            raise ClaimViolation("caratheodory-step",
                                 f"coefficient {hit} did not reach zero")
        support = [(g, a) for g, a in support if a != 0]
    return ConicDecomposition([g for g, _ in support], [a for _, a in support])


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
    p1 = exact.vec_add(exact.vec(x1), pos_combo.combine(n))
    p2 = exact.vec_sub(exact.vec(x2), neg_combo.combine(n))
    if p1 != p2:
        raise RepresentationMismatch(f"representations differ: {p1} vs {p2}")
    return contains(P, p1)
