import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqprox import exact
from iqprox.cones import (ConicDecomposition, build_cone, caratheodory_decompose,
                          check_two_representations, cone_contains,
                          conic_multipliers, enumerate_generators,
                          in_generated_cone)
from iqprox.errors import (ClaimViolation, DimensionError, InputError,
                           RepresentationMismatch)
from iqprox.families import random_instance
from iqprox.pipeline import restricted_polyhedron
from iqprox.polyhedra import polyhedron


def test_build_cone_partitions_by_sign():
    A = [[1, 0], [0, 1], [1, 1]]
    cone = build_cone(A, [2, -1], [0, 0])
    # row 0: 2 > 0 -> a2;  row 1: -1 < 0 -> a1;  row 2: 1 > 0 -> a2
    assert cone.a1 == ((F(0), F(1)),)
    assert cone.a2 == ((F(1), F(0)), (F(1), F(1)))


def test_build_cone_tie_goes_both_ways():
    cone = build_cone([[1, -1]], [1, 1], [0, 0])
    assert len(cone.a1) == 1 and len(cone.a2) == 1


def test_build_cone_contains_difference():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        A = [[rng.randint(-2, 2) for _ in range(n)]
             for _ in range(rng.randint(1, 4))]
        xa = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        xb = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        cone = build_cone(A, xa, xb)
        assert cone_contains(cone, exact.vec_sub(xa, xb))


def test_build_cone_empty_matrix():
    with pytest.raises(DimensionError):
        build_cone([], [1], [0])


def test_generators_halfspace():
    cone = build_cone([[1, -1]], [1, 0], [0, 0])  # {x1 - x2 >= 0}
    gens = enumerate_generators(cone, 1)
    assert set(gens) == {
        (F(1), F(1)), (F(1), F(0)), (F(0), F(-1)), (F(-1), F(-1))}


def test_generators_orthant():
    A = [[-1, 0], [0, -1]]
    cone = build_cone(A, [1, 1], [0, 0])  # nonnegative orthant
    gens = enumerate_generators(cone, 1)
    assert set(gens) == {(F(1), F(0)), (F(0), F(1))}


def test_generators_zero_cone():
    A = [[1], [-1]]
    cone = build_cone(A, [0], [0])  # x <= 0 and x >= 0 in both halves
    gens = enumerate_generators(cone, 1)
    assert gens == ()


def test_generators_need_positive_delta():
    cone = build_cone([[1]], [1], [0])
    with pytest.raises(InputError):
        enumerate_generators(cone, 0)


def test_generators_beyond_delta_violate_a_claim():
    # {x1 + 2 x2 <= 0} has the generator (2, -1), whose norm 2 exceeds 1.
    cone = build_cone([[1, 2]], [0, 0], [1, 1])
    with pytest.raises(ClaimViolation) as err:
        enumerate_generators(cone, 1)
    assert err.value.claim == "generator-norm"


def orthant_generators(cone):
    """Reference: extreme rays of the cone cut by each orthant in turn.

    Every linearly independent (n-1)-subset of the cone rows and coordinate
    planes, without deduplicating rows, gives a line; its directions are
    kept when they lie in the orthant and in the cone.  (The orthant loop is
    inside the subset loop, so each null space and each cone membership is
    computed once.)
    """
    n = cone.ambient_dim
    hyperplanes = [list(r) for r in cone.a1] + [list(r) for r in cone.a2]
    hyperplanes += [[F(int(i == j)) for j in range(n)] for i in range(n)]
    found = set()
    for S in combinations(hyperplanes, n - 1):
        if exact.rank(list(S)) != n - 1:
            continue
        r = exact.null_space(list(S), n)[0]
        rays = [d for d in (r, [-x for x in r]) if cone_contains(cone, d)]
        for signs in product((1, -1), repeat=n):
            for d in rays:
                if all(s * x >= 0 for s, x in zip(signs, d)):
                    found.add(tuple(exact.primitive_integer_vector(d)))
    return tuple(sorted(found))


def test_generators_match_orthant_enumeration():
    """The cone distribution of acceptance criterion 9."""
    rng = random.Random(271828)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        if all(x == 0 for row in A for x in row):
            continue
        xa = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        xb = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        delta = max(1, exact.max_abs_subdeterminant(A))
        cone = build_cone(A, xa, xb)
        assert enumerate_generators(cone, delta) == orthant_generators(cone)
        done += 1


def test_generators_match_orthant_enumeration_restricted():
    """Cones of restricted polyhedra: +-e_i rows and rows tied at the point."""
    rng = random.Random(161803)
    quota = {2: 12, 3: 8, 4: 3}
    seen = set()
    for seed in range(200):
        inst = random_instance(seed, n_max=4)
        if not quota.get(inst.n):
            continue
        quota[inst.n] -= 1
        zset = {i for i in range(inst.n) if rng.random() < 0.4}
        P = restricted_polyhedron(inst, zset)
        xa = [F(0) if i in zset else F(rng.randint(-2, 2)) for i in range(inst.n)]
        cone = build_cone(P.A, xa, [F(0)] * inst.n)
        delta = max(1, exact.max_abs_subdeterminant(P.A))
        assert enumerate_generators(cone, delta) == orthant_generators(cone)
        ties = len(cone.a1) + len(cone.a2) - P.m
        seen.add((inst.n, bool(zset), ties > 2 * len(zset)))
    assert not any(quota.values())
    # Some cones have +-e_i rows, and some have further tie rows.
    assert {z for _, z, _ in seen} == {True, False}
    assert {t for _, _, t in seen} == {True, False}


def test_conic_multipliers_roundtrip():
    cone = build_cone([[1, -1]], [1, 0], [0, 0])
    gens = enumerate_generators(cone, 1)
    target = [F(5, 2), F(1, 3)]
    gamma = conic_multipliers(gens, target)
    assert gamma is not None
    combined = [F(0), F(0)]
    for g, c in zip(gens, gamma):
        combined = exact.vec_add(combined, [c * x for x in g])
        assert c >= 0
    assert combined == target


def test_conic_multipliers_outside():
    cone = build_cone([[1, -1]], [1, 0], [0, 0])
    gens = enumerate_generators(cone, 1)
    assert conic_multipliers(gens, [F(0), F(1)]) is None


def test_caratheodory_small():
    cone = build_cone([[1, -1]], [1, 0], [0, 0])
    gens = enumerate_generators(cone, 1)
    dec = caratheodory_decompose([F(3), F(1)], gens)
    assert dec.combine(2) == [F(3), F(1)]
    assert len(dec.generators) <= 2
    assert all(c > 0 for c in dec.coefficients)
    assert exact.rank(list(dec.generators)) == len(dec.generators)


def test_caratheodory_rejects_outsider():
    cone = build_cone([[-1, 0], [0, -1]], [1, 1], [0, 0])
    gens = enumerate_generators(cone, 1)
    with pytest.raises(InputError):
        caratheodory_decompose([F(-1), F(0)], gens)


def test_caratheodory_zero_target():
    cone = build_cone([[1, -1]], [1, 0], [0, 0])
    gens = enumerate_generators(cone, 1)
    dec = caratheodory_decompose([F(0), F(0)], gens)
    assert dec.generators == []


def random_cone(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 6)
    A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    while all(x == 0 for row in A for x in row):
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    xa = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    xb = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    delta = max(1, exact.max_abs_subdeterminant(A))
    return build_cone(A, xa, xb), delta, n


def test_generator_membership_equivalence():
    """H-membership of the cone must coincide with conic expressibility."""
    rng = random.Random(31415)
    for _ in range(30):
        cone, delta, n = random_cone(rng)
        gens = enumerate_generators(cone, delta)
        for g in gens:
            assert exact.is_integral_vec(g)
            assert exact.inf_norm(g) <= delta
            assert cone_contains(cone, g)
        for _ in range(25):
            p = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            assert cone_contains(cone, p) == in_generated_cone(gens, p)


def test_caratheodory_random_recombination():
    rng = random.Random(2718)
    checked = 0
    while checked < 25:
        cone, delta, n = random_cone(rng)
        gens = enumerate_generators(cone, delta)
        if not gens:
            continue
        # build a target inside the cone on purpose
        target = [F(0)] * n
        for g in gens:
            c = F(rng.randint(0, 3), rng.randint(1, 2))
            target = exact.vec_add(target, [c * x for x in g])
        dec = caratheodory_decompose(target, gens)
        assert dec.combine(n) == list(target)
        assert len(dec.generators) <= n
        assert exact.rank(list(dec.generators)) == len(dec.generators)
        checked += 1


def test_check_two_representations():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])  # nonnegative quadrant
    cone = build_cone(P.A, [2, 1], [0, 0])
    v = (F(1), F(0))
    w = (F(0), F(1))
    pos = ConicDecomposition([v, w], [F(2), F(1)])
    neg = ConicDecomposition([], [])
    assert check_two_representations(P, cone, [0, 0], [2, 1], pos, neg)


def test_check_two_representations_mismatch():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.A, [2, 1], [0, 0])
    pos = ConicDecomposition([(F(1), F(0))], [F(1)])
    neg = ConicDecomposition([], [])
    with pytest.raises(RepresentationMismatch):
        check_two_representations(P, cone, [0, 0], [2, 1], pos, neg)


def test_check_two_representations_rejects_negative_coeff():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.A, [2, 1], [0, 0])
    bad = ConicDecomposition([(F(1), F(0))], [F(-1)])
    with pytest.raises(InputError):
        check_two_representations(P, cone, [0, 0], [2, 1], bad, bad)


def reference_cone_contains(cone, x):
    """Cone membership in Fraction arithmetic."""
    xv = exact.vec(x)
    return (all(exact.dot(r, xv) <= 0 for r in cone.a1)
            and all(exact.dot(r, xv) >= 0 for r in cone.a2))


RATIONALS = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def cones_and_points(draw):
    """A rational row-sign cone and an integer, rational or boundary point."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    A = [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]
    xa = [draw(RATIONALS) for _ in range(n)]
    xb = [draw(RATIONALS) for _ in range(n)]
    kind = draw(st.sampled_from(["integer", "rational", "difference"]))
    if kind == "integer":
        x = [draw(st.integers(-4, 4)) for _ in range(n)]
    elif kind == "rational":
        x = [draw(st.fractions(-4, 4, max_denominator=6)) for _ in range(n)]
    else:  # xa - xb, on the boundary of every tie row
        x = exact.vec_sub(xa, xb)
    return build_cone(A, xa, xb), x, kind


@settings(max_examples=200, deadline=None)
@given(cones_and_points())
def test_cone_contains_matches_fraction_reference(case):
    cone, x, kind = case
    assert cone_contains(cone, x) == reference_cone_contains(cone, x)
    if kind == "difference":
        assert cone_contains(cone, x)


def reference_build_cone(A, xa, xb):
    """The row partition in Fraction arithmetic, u.xa against u.xb."""
    xav, xbv = exact.vec(xa), exact.vec(xb)
    a1, a2 = [], []
    for row in A:
        r = tuple(F(x) for x in row)
        lhs, rhs = exact.dot(r, xav), exact.dot(r, xbv)
        if lhs <= rhs:
            a1.append(r)
        if lhs >= rhs:
            a2.append(r)
    return tuple(a1), tuple(a2)


@st.composite
def partition_cases(draw):
    """Rational rows and points, rows orthogonal to xa - xb, and xa = xb."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    xa = [draw(RATIONALS) for _ in range(n)]
    xb = list(xa) if draw(st.booleans()) else [draw(RATIONALS) for _ in range(n)]
    d = exact.vec_sub(xa, xb)
    dd = exact.dot(d, d)
    A = []
    for _ in range(m):
        u = [draw(RATIONALS) for _ in range(n)]
        if dd and draw(st.booleans()):  # project out d: a tie row
            c = exact.dot(u, d) / dd
            u = [ui - c * di for ui, di in zip(u, d)]
        form = draw(st.sampled_from(["list", "fractions", "ints"]))
        if form == "fractions":
            u = tuple(F(x) for x in u)
        elif form == "ints":
            u = [draw(st.integers(-3, 3)) for _ in range(n)]
        A.append(u)
    return A, xa, xb


@settings(max_examples=300, deadline=None)
@given(partition_cases())
def test_build_cone_matches_fraction_reference(case):
    A, xa, xb = case
    cone = build_cone(A, xa, xb)
    assert (cone.a1, cone.a2) == reference_build_cone(A, xa, xb)
    assert all(type(x) is F for r in cone.a1 + cone.a2 for x in r)
    assert all(type(r) is tuple for r in cone.a1 + cone.a2)


def test_build_cone_short_row():
    with pytest.raises(DimensionError):
        build_cone([[1, 0], [1]], [1, 0], [0, 0])
