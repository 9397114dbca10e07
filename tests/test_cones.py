import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import cones, exact, pipeline
from iqprox.cones import (ConicDecomposition, build_cone, caratheodory_decompose,
                          check_two_representations, cone_contains,
                          conic_multipliers, enumerate_generators,
                          in_generated_cone)
from iqprox.errors import (ClaimViolation, DimensionError, InputError,
                           RepresentationMismatch)
from iqprox.families import build_prop44, random_instance
from iqprox.pipeline import restricted_polyhedron, run_pipeline
from iqprox.polyhedra import polyhedron
from reference import combine, dot, generators, rational_rows


def direction(xa, xb) -> list[int]:
    """xa - xb as ints, times the lcm of its denominators: the direction
    build_cone takes for the cone of the points xa and xb."""
    return exact.integer_vector(exact.vec_sub(xa, xb))[0]


def test_build_cone_partitions_by_sign():
    A = [[1, 0], [0, 1], [1, 1]]
    cone = build_cone(A, [2, -1])
    # row 0: 2 > 0 -> a2;  row 1: -1 < 0 -> a1;  row 2: 1 > 0 -> a2
    assert cone.a1 == ((0, 1),)
    assert cone.a2 == ((1, 0), (1, 1))


def test_build_cone_tie_goes_both_ways():
    cone = build_cone([[1, -1]], [1, 1])
    assert len(cone.a1) == 1 and len(cone.a2) == 1


def test_build_cone_contains_difference():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        A = [[rng.randint(-2, 2) for _ in range(n)]
             for _ in range(rng.randint(1, 4))]
        xa = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        xb = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        cone = build_cone(A, direction(xa, xb))
        assert cone_contains(cone, exact.vec_sub(xa, xb))


def test_build_cone_empty_matrix():
    """With no row the cone is R^n, n the direction's length: its
    generators are the 2n unit vectors +-e_i."""
    for n in (1, 2, 3):
        cone = build_cone([], [1] + [0] * (n - 1))
        assert cone == cones.ProximityCone((), (), n)
        units = [tuple(s * int(j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
        assert enumerate_generators(cone, 1) == tuple(sorted(units))


def test_generators_halfspace():
    cone = build_cone([[1, -1]], [1, 0])  # {x1 - x2 >= 0}
    gens = enumerate_generators(cone, 1)
    assert set(gens) == {
        (F(1), F(1)), (F(1), F(0)), (F(0), F(-1)), (F(-1), F(-1))}


def test_generators_orthant():
    A = [[-1, 0], [0, -1]]
    cone = build_cone(A, [1, 1])  # nonnegative orthant
    gens = enumerate_generators(cone, 1)
    assert set(gens) == {(F(1), F(0)), (F(0), F(1))}


def test_generators_zero_cone():
    A = [[1], [-1]]
    cone = build_cone(A, [0])  # x <= 0 and x >= 0 in both halves
    gens = enumerate_generators(cone, 1)
    assert gens == ()


def test_generators_need_positive_delta():
    cone = build_cone([[1]], [1])
    with pytest.raises(InputError):
        enumerate_generators(cone, 0)


def test_generators_beyond_delta_violate_a_claim():
    # {x1 + 2 x2 <= 0} has the generator (2, -1), whose norm 2 exceeds 1.
    cone = build_cone([[1, 2]], [-1, -1])
    with pytest.raises(ClaimViolation) as err:
        enumerate_generators(cone, 1)
    assert err.value.claim == "generator-norm"


def assert_generators_match_orthants(A, xa, xb):
    """enumerate_generators agrees with the reference on the cone of A's
    rows scaled to ints, and Delta is taken on those rows."""
    rows = exact._integer_rows(A)[0]
    delta = max(1, exact.max_abs_subdeterminant(rows))
    cone = build_cone(rows, direction(xa, xb))
    assert int_generators(enumerate_generators(cone, delta)) == generators(cone, delta)


def int_generators(gens):
    """The generators, once each entry is checked to be an int; the
    references build theirs as Fractions, equal by value."""
    assert all(type(x) is int for g in gens for x in g)
    return gens


def test_generators_match_orthant_enumeration():
    """The cone distribution of acceptance criterion 9, then rational rows
    with a positive multiple of one of them (parallel rows merge)."""
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
        assert_generators_match_orthants(A, xa, xb)
        done += 1
    rng = random.Random(314159)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        A = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(m)]
        if all(x == 0 for row in A for x in row):
            continue
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        A.insert(rng.randint(0, m), [c * x for x in rng.choice(A)])
        xa = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        xb = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        assert_generators_match_orthants(A, xa, xb)
        done += 1
    # Positive multiples of an integer row: on one side, and tied (both sides).
    assert_generators_match_orthants([[1, -1], [2, -2], [0, 1]], [1, 0], [0, 0])
    assert_generators_match_orthants([[1, 2], [3, 6]], [0, 0], [0, 0])


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
        cone = build_cone(P.int_rows[0], direction(xa, [0] * inst.n))
        delta = max(1, exact.max_abs_subdeterminant(rational_rows(P)[0]))
        assert int_generators(enumerate_generators(cone, delta)) == generators(cone, delta)
        ties = len(cone.a1) + len(cone.a2) - P.m
        seen.add((inst.n, bool(zset), ties > 2 * len(zset)))
    assert not any(quota.values())
    # Some cones have +-e_i rows, and some have further tie rows.
    assert {z for _, z, _ in seen} == {True, False}
    assert {t for _, _, t in seen} == {True, False}


@st.composite
def generator_cones(draw):
    """A row-sign cone with repeated and parallel rows at n = 1..5, or a
    sparse one (1-3 rows) at n = 8..10, and a Delta: a small one, under
    which the generator-norm claim may fail, or the rows' own.  The cone may
    be tied: at xa = xb every row is on both sides, or some drawn rows are
    made orthogonal to xa - xb, and those are."""
    if draw(st.integers(0, 4)):
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    else:
        n, m = draw(st.integers(8, 10)), draw(st.integers(1, 3))
    A = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.sampled_from([1, -1, 2, -2, F(1, 2)]))
        A.insert(draw(st.integers(0, len(A))), [c * x for x in draw(st.sampled_from(A))])
    xa = [draw(RATIONALS) for _ in range(n)]
    ties = draw(st.sampled_from(["none", "all", "some"]))
    xb = list(xa) if ties == "all" else [draw(RATIONALS) for _ in range(n)]
    d = exact.vec_sub(xa, xb)
    dd = dot(d, d)
    if ties == "some" and dd:
        for i, u in enumerate(A):
            if draw(st.booleans()):  # project out d: a tie row
                c = dot(u, d) / dd
                A[i] = [ui - c * di for ui, di in zip(u, d)]
    rows = exact._integer_rows(A)[0]
    delta = draw(st.one_of(st.integers(1, 3), st.none()))
    if delta is None:
        delta = max(1, exact.max_abs_subdeterminant(rows))
    return build_cone(rows, direction(xa, xb)), delta


TIED_EXAMPLES = [
    # every row tied, rank n reached at row 2 with rows after it
    (build_cone([[1, 0], [0, 1], [1, 1], [2, -1]], [0, 0]), 1),
    # every row tied, rank n reached at the last row
    (build_cone([[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 3]], [0, 0, 0]), 3),
    # tied rows of rank 1 < n, repeated and opposite
    (build_cone([[1, -1, 0], [1, -1, 0], [-2, 2, 0], [0, 0, 1], [1, 1, 1]],
                [1, 1, 0]), 2),
    # no tied row
    (build_cone([[1, 2], [-1, 1]], [1, 0]), 3),
]


def tie_cases(cone) -> set[str]:
    """How the cone's rows on both sides stand: none, rank n reached (with
    rows after it or not), or short of n; and whether one repeats."""
    both = set(cone.a2)
    tied = [row for row in cone.a1 if row in both]
    if not tied:
        return {"no tie"}
    n = cone.ambient_dim
    cases = {"repeated tie"} if len(set(tied)) < len(tied) else set()
    r = exact.rank(tied)
    if r < n:
        return cases | {"ties short of rank n"}
    first = next(k for k in range(1, len(tied) + 1) if exact.rank(tied[:k]) == n)
    return cases | {"rank n before the last tie" if first < len(tied) else "rank n at the last tie"}


def test_tied_examples_cover_every_case():
    assert set().union(*(tie_cases(c) for c, _ in TIED_EXAMPLES)) == {
        "no tie", "repeated tie", "ties short of rank n", "rank n before the last tie",
        "rank n at the last tie"}


def with_tied_examples(test):
    for case in TIED_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(generator_cones())
@with_tied_examples
# ties of rank n: the cone is {0}
@example((build_cone([[1, 0], [0, 1], [1, 1]], [0, 0]), 1))
@example((build_cone([[2], [-1]], [0]), 1))
# ties of rank n - 1 and of rank 1 at n = 3
@example((build_cone([[1, -1, 0], [2, -2, 0], [0, 0, 1], [1, 1, 1]],
                     [1, 1, 0]), 1))
@example((build_cone([[1, -1, 0], [1, 0, 2], [0, 1, -1]], [1, 1, 0]), 2))
# ties of rank 2 at n = 3 whose line (2, -1, 1) is beyond Delta = 1
@example((build_cone([[1, 2, 0], [0, 1, 1], [1, 0, 0]], [2, -1, 1]), 1))
# n = 1 without a tie
@example((build_cone([[1]], [-1]), 1))
def test_generators_match_combinations_reference(case):
    """The same sorted generators as the combinations loop, as int tuples,
    or the same generator-norm violation naming the same generator; the
    tied examples reach every way the rows on both sides stand
    (tie_cases)."""
    cone, delta = case
    try:
        want = generators(cone, delta)
    except ClaimViolation as err:
        with pytest.raises(ClaimViolation) as got:
            enumerate_generators(cone, delta)
        assert (got.value.claim, str(got.value)) == (err.claim, str(err))
        return
    assert int_generators(enumerate_generators(cone, delta)) == want


def counted_extend(monkeypatch):
    """The rows that exact._extend_echelon is asked to add, from now on."""
    tried = []
    extend = exact._extend_echelon

    def counted(*args):
        tried.append(args)
        return extend(*args)

    monkeypatch.setattr(exact, "_extend_echelon", counted)
    return tried


def test_generator_walk_prunes_by_count(monkeypatch):
    """On a sparse cone, n = 10 with one row, the walk tries 219 rows on an
    echelon to reach the independent sets of 9 of its 11 hyperplanes, for
    68 generators.  It tries no row with fewer than 9 - |S| - 1 rows after
    it (that walk would try 2,035), and makes no solution_space_int call."""
    calls = []
    tried = counted_extend(monkeypatch)
    monkeypatch.setattr(exact, "solution_space_int", lambda *args: calls.append(args))
    cone = build_cone([[1, -1, 2, 0, 1, -2, 1, 0, 1, 1]], [-1] + [0] * 9)
    assert len(enumerate_generators(cone, 2)) == 68
    assert (len(tried), calls) == (219, [])


def test_generators_of_a_full_rank_tied_cone_try_no_hyperplane(monkeypatch):
    """At a zero direction (xa = xb) every row is on both sides of the cone.  They are added
    until their rank is n, rows 0-3 here (row 2 is dependent), and then the
    cone is {0}: row 4 is not added and no hyperplane is tried."""
    tried = counted_extend(monkeypatch)
    monkeypatch.setattr(exact, "independent_row_sets",
                        lambda *args: pytest.fail("a hyperplane set was walked"))
    A = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]
    cone = build_cone(A, [0] * 3)
    assert enumerate_generators(cone, 1) == ()
    assert [list(args[2]) for args in tried] == A[:4]


def test_prop44_construction_tries_fewer_rows(monkeypatch):
    """prop44 (eps 1/4, Delta 3) at n = 10 with its own anchors takes nine
    one_steps; the cone of step j has the +-e_i rows of its j zeroed
    coordinates on both sides.  Walking on top of their echelon, the
    construction tries 1,003 rows: 913 in the generator walks and 90 in the
    Caratheodory eliminations, one row of [G | x] per coordinate at each of
    the nine conic steps.  The walk over all (n-1)-sets of hyperplanes tried
    2,035 rows with the walk alone.  (Before the elimination the count was
    967: the 913 and 54 of the rank checks on the LP's supports, of 10, 9,
    ..., 2 generators; 977 while the subdeterminant scan took the 1x1
    minors as determinants, one row each.)"""
    fam = build_prop44(F(1, 4), 3, 10)
    tried = counted_extend(monkeypatch)
    systems = []
    solve = exact.solution_space_int
    monkeypatch.setattr(exact, "solution_space_int",
                        lambda M, rhs, n: systems.append(M) or solve(M, rhs, n))
    res = run_pipeline(fam.instance, F(1, 4), xc=fam.expected["xc"], xd=fam.expected["xd"])
    assert res.trace[-1].j == 9
    assert len(tried) == 1003
    assert [len(M) for M in systems] == [10] * 9  # the rows of [G | x]


def test_prop44_construction_runs_no_conic_lp(monkeypatch):
    """Every cone of the prop44 construction at n = 10 is simplicial, so each
    of its nine Caratheodory decompositions is the unique solution of one
    elimination, with no conic LP."""
    fam = build_prop44(F(1, 4), 3, 10)
    lps = []
    solve = cones.lp_solve
    monkeypatch.setattr(cones, "lp_solve", lambda *args: lps.append(args) or solve(*args))
    decompositions = []
    decompose = cones.caratheodory_decompose
    monkeypatch.setattr(pipeline, "caratheodory_decompose",
                        lambda *args: decompositions.append(args) or decompose(*args))
    res = run_pipeline(fam.instance, F(1, 4), xc=fam.expected["xc"], xd=fam.expected["xd"])
    assert res.trace[-1].j == 9
    assert (len(decompositions), lps) == (9, [])


def test_conic_multipliers_roundtrip():
    cone = build_cone([[1, -1]], [1, 0])
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
    cone = build_cone([[1, -1]], [1, 0])
    gens = enumerate_generators(cone, 1)
    assert conic_multipliers(gens, [F(0), F(1)]) is None


def test_caratheodory_small():
    cone = build_cone([[1, -1]], [1, 0])
    gens = enumerate_generators(cone, 1)
    dec = caratheodory_decompose([F(3), F(1)], gens)
    assert combine(dec, 2) == [F(3), F(1)]
    assert len(dec.generators) <= 2
    assert all(c > 0 for c in dec.coefficients)
    assert exact.rank(list(dec.generators)) == len(dec.generators)


def test_caratheodory_rejects_outsider():
    cone = build_cone([[-1, 0], [0, -1]], [1, 1])
    gens = enumerate_generators(cone, 1)
    with pytest.raises(InputError):
        caratheodory_decompose([F(-1), F(0)], gens)


def test_caratheodory_zero_target():
    cone = build_cone([[1, -1]], [1, 0])
    gens = enumerate_generators(cone, 1)
    dec = caratheodory_decompose([F(0), F(0)], gens)
    assert dec.generators == []


def reference_caratheodory_decompose(target, gens):
    """The null-space reduction loop that caratheodory_decompose replaced.

    Starts from conic_multipliers' solution and repeatedly shifts along a
    null-space direction of the support until some coefficient reaches zero
    (ties broken by smallest index).
    """
    gamma = conic_multipliers(gens, target)
    if gamma is None:
        raise InputError("target is not in the cone of the generator set")
    support = [(g, c) for g, c in zip(gens, gamma) if c > 0]
    while support:
        cols = [g for g, _ in support]
        M = [list(col) for col in zip(*cols)]  # n x m, columns are generators
        ns = exact.null_space(M, len(cols))
        if not ns:
            break
        c = ns[0]
        if all(ci <= 0 for ci in c):
            c = [-ci for ci in c]
        step, hit = None, -1
        for j, cj in enumerate(c):
            if cj > 0 and (step is None or support[j][1] / cj < step):
                step, hit = support[j][1] / cj, j
        support = [(g, a - step * cj) for (g, a), cj in zip(support, c)]
        assert support[hit][1] == 0
        support = [(g, a) for g, a in support if a != 0]
    return ConicDecomposition([g for g, _ in support], [a for _, a in support])


@st.composite
def generator_sets(draw):
    """Integer generators with duplicates, multiples and sums among them,
    and a zero target, a target in their cone, or any rational target."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = [tuple(map(F, v)) for v in draw(st.lists(vector, max_size=6))]
    if gens:
        for _ in range(draw(st.integers(0, 2))):
            g = draw(st.sampled_from(gens))
            gens.append(tuple(draw(st.integers(1, 3)) * x for x in g))
        if draw(st.booleans()):
            g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.insert(draw(st.integers(0, len(gens))),
                        tuple(x + y for x, y in zip(g, h)))
    kind = draw(st.sampled_from(["zero", "combination", "any"]))
    if kind == "zero":
        target = [F(0)] * n
    elif kind == "combination":
        target = [F(0)] * n
        for g in gens:
            c = draw(st.fractions(0, 3, max_denominator=3))
            target = [t + c * x for t, x in zip(target, g)]
    else:
        target = [draw(RATIONALS) for _ in range(n)]
    return gens, target


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_caratheodory_matches_reduction_reference(case):
    gens, target = case
    try:
        want = reference_caratheodory_decompose(target, gens)
    except InputError:
        with pytest.raises(InputError):
            caratheodory_decompose(target, gens)
        return
    got = caratheodory_decompose(target, gens)
    assert got.generators == want.generators
    assert got.coefficients == want.coefficients


def lp_caratheodory_decompose(target, gens):
    """caratheodory_decompose by the conic LP alone, as it was before the
    elimination: the support of conic_multipliers' basic solution, checked
    independent by one rank call."""
    gamma = conic_multipliers(gens, target)
    if gamma is None:
        raise InputError("target is not in the cone of the generator set")
    support = [(g, c) for g, c in zip(gens, gamma) if c > 0]
    if exact.rank([g for g, _ in support]) != len(support):
        raise ClaimViolation("caratheodory-support",
                             f"the {len(support)} generators of the support are dependent")
    return ConicDecomposition([g for g, _ in support], [a for _, a in support])


@st.composite
def independent_generator_sets(draw):
    """Up to n linearly independent integer generators, and a zero target,
    a nonnegative or mixed-sign combination of them, or any rational target
    (often outside their span)."""
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    gens = []
    for v in draw(st.lists(vector, max_size=n)):
        g = tuple(map(F, v))
        if exact.rank([*gens, g]) == len(gens) + 1:
            gens.append(g)
    kind = draw(st.sampled_from(["zero", "combination", "signed", "any"]))
    target = [F(0)] * n
    if kind == "any":
        target = [draw(RATIONALS) for _ in range(n)]
    elif kind != "zero":
        low = 0 if kind == "combination" else -2
        for g in gens:
            c = draw(st.fractions(low, 3, max_denominator=4))
            target = [t + c * x for t, x in zip(target, g)]
    return gens, target


@settings(max_examples=300, deadline=None)
@given(st.one_of(independent_generator_sets(), generator_sets()))
@example(([], [F(0), F(0)]))
@example(([], [F(1), F(0)]))
@example(([(F(1), F(0)), (F(0), F(1))], [F(-1), F(2)]))           # unique, one gamma < 0
@example(([(F(1), F(1), F(0))], [F(1), F(2), F(0)]))              # outside the span
@example(([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))], [F(1), F(1)]))  # dependent
def test_caratheodory_elimination_matches_conic_lp(case):
    """The elimination path gives the conic LP's decomposition, generators
    and coefficients alike, or the same InputError message; a dependent set
    runs the LP, an independent one does not."""
    gens, target = case
    independent = exact.rank(list(gens)) == len(gens)
    try:
        want = lp_caratheodory_decompose(target, gens)
    except InputError as err:
        with pytest.raises(InputError) as got:
            caratheodory_decompose(target, gens)
        assert str(got.value) == str(err)
        return
    lps = []
    solve = cones.lp_solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "lp_solve", lambda *args: lps.append(args) or solve(*args))
        got = caratheodory_decompose(target, gens)
    assert got.generators == want.generators
    assert got.coefficients == want.coefficients
    assert all(type(c) is F for c in got.coefficients)
    assert len(lps) == (0 if independent else 1)


def test_caratheodory_rejects_dependent_support(monkeypatch):
    """A non-basic gamma on dependent generators fails the rank check."""
    gens = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    monkeypatch.setattr(cones, "conic_multipliers",
                        lambda gens, target: [F(1, 2)] * 3)
    with pytest.raises(ClaimViolation) as err:
        caratheodory_decompose([F(1), F(1)], gens)
    assert err.value.claim == "caratheodory-support"


def random_cone(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 6)
    A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    while all(x == 0 for row in A for x in row):
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    xa = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    xb = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    delta = max(1, exact.max_abs_subdeterminant(A))
    return build_cone(A, direction(xa, xb)), delta, n


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
        assert combine(dec, n) == list(target)
        assert len(dec.generators) <= n
        assert exact.rank(list(dec.generators)) == len(dec.generators)
        checked += 1


def test_check_two_representations():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])  # nonnegative quadrant
    cone = build_cone(P.int_rows[0], [2, 1])
    v = (1, 0)
    w = (0, 1)
    pos = ConicDecomposition([v, w], [F(2), F(1)])
    neg = ConicDecomposition([], [])
    assert check_two_representations(P, cone, [0, 0], [2, 1], pos, neg) == ([2, 1], 1)
    # w in both sums: 2 v + w/2 = (2, 1) - w/2 = (2, 1/2), still in P.
    half = ConicDecomposition([w], [F(1, 2)])
    assert check_two_representations(P, cone, [0, 0], [2, 1],
                                     ConicDecomposition([v, w], [F(2), F(1, 2)]),
                                     half) == ([4, 1], 2)
    # Outside P: x2 = (2, 1) - 2 w = (2, -1) on both sides.
    assert check_two_representations(P, cone, [F(2), F(-2)], [2, 1],
                                     ConicDecomposition([w], [F(1)]),
                                     ConicDecomposition([w], [F(2)])) is None


def test_check_two_representations_mismatch():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.int_rows[0], [2, 1])
    pos = ConicDecomposition([(1, 0)], [F(1)])
    neg = ConicDecomposition([], [])
    with pytest.raises(RepresentationMismatch):
        check_two_representations(P, cone, [0, 0], [2, 1], pos, neg)


def test_check_two_representations_rejects_negative_coeff():
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.int_rows[0], [2, 1])
    bad = ConicDecomposition([(1, 0)], [F(-1)])
    with pytest.raises(InputError):
        check_two_representations(P, cone, [0, 0], [2, 1], bad, bad)


def test_check_two_representations_rejects_a_generator_outside_the_cone():
    """The quadrant cone at (2, 1) holds no direction with a negative
    coordinate, so (1, -1) is no generator of it, even when both sums
    agree."""
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.int_rows[0], [2, 1])
    with pytest.raises(InputError, match=r"generator \(1, -1\) is not in the cone"):
        check_two_representations(P, cone, [0, 0], [2, 1],
                                  ConicDecomposition([(1, -1), (1, 2)], [F(1), F(1)]),
                                  ConicDecomposition([], []))


@pytest.mark.parametrize("g, kind", [((F(1), 0), "Fraction"), ((1, 0.0), "float")])
def test_check_two_representations_takes_int_generators(g, kind):
    """A generator is an int vector, as enumerate_generators makes it (a
    bool counts as an int); an entry of another type, a Fraction of an
    integer value included, is an InputError naming its type."""
    P = polyhedron([[-1, 0], [0, -1]], [0, 0])
    cone = build_cone(P.int_rows[0], [2, 1])
    ints = ConicDecomposition([(True, False), (0, 1)], [F(2), F(1)])
    assert check_two_representations(P, cone, [0, 0], [2, 1], ints,
                                     ConicDecomposition()) == ([2, 1], 1)
    with pytest.raises(InputError) as got:
        check_two_representations(P, cone, [0, 0], [2, 1],
                                  ConicDecomposition([g, (0, 1)], [F(2), F(1)]),
                                  ConicDecomposition())
    assert str(got.value) == f"a generator entry must be an int, not {kind}"


def reference_cone_contains(cone, x):
    """Cone membership in Fraction arithmetic."""
    return (all(dot(r, x) <= 0 for r in cone.a1)
            and all(dot(r, x) >= 0 for r in cone.a2))


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
    return build_cone(exact._integer_rows(A)[0], direction(xa, xb)), x, kind


@settings(max_examples=200, deadline=None)
@given(cones_and_points())
def test_cone_contains_matches_fraction_reference(case):
    cone, x, kind = case
    assert cone_contains(cone, x) == reference_cone_contains(cone, x)
    if kind == "difference":
        assert cone_contains(cone, x)


def reference_build_cone(A, xa, xb):
    """The row partition in Fraction arithmetic, u.xa against u.xb."""
    a1, a2 = [], []
    for row in A:
        r = tuple(F(x) for x in row)
        lhs, rhs = dot(r, xa), dot(r, xb)
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
    dd = dot(d, d)
    A = []
    for _ in range(m):
        u = [draw(RATIONALS) for _ in range(n)]
        if dd and draw(st.booleans()):  # project out d: a tie row
            c = dot(u, d) / dd
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
    """The cone of A's rows scaled to ints, built on the direction xa - xb
    as ints, holds the scaled rows of the reference partition of A, as int
    tuples; any positive multiple of the direction gives the same cone."""
    A, xa, xb = case
    rows = exact._integer_rows(A)[0]
    scaled = {tuple(map(F, u)): tuple(r) for u, r in zip(A, rows)}
    D = direction(xa, xb)
    cone = build_cone(rows, D)
    assert build_cone(rows, [3 * x for x in D]) == cone
    want = reference_build_cone(A, xa, xb)
    assert (cone.a1, cone.a2) == tuple(tuple(scaled[u] for u in side) for side in want)
    assert all(type(x) is int for r in cone.a1 + cone.a2 for x in r)
    assert all(type(r) is tuple for r in cone.a1 + cone.a2)


def test_build_cone_short_row():
    with pytest.raises(DimensionError):
        build_cone([[1, 0], [1]], [1, 0])


def test_build_cone_direction_of_another_dimension():
    with pytest.raises(DimensionError):
        build_cone([[1, 0], [0, 1]], [1])


PLANE_CONE = cones.ProximityCone(((1, 0),), ((0, 1),), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: cone_contains(PLANE_CONE, [0]), "point dimension mismatch"),
    (lambda: cones.combination_int([0, 0], 1, [(F(1), [1])], 1),
     "generator dimension 1 vs 2"),
    (lambda: check_two_representations(
        polyhedron([[1, 0], [0, 1]], [1, 1]), PLANE_CONE, [0, 0], [0, 0],
        ConicDecomposition([(1,)], [F(1)]), ConicDecomposition()),
     "point dimension mismatch"),
    (lambda: check_two_representations(
        polyhedron([[1, 0], [0, 1]], [1, 1]), PLANE_CONE, [0], [0, 0],
        ConicDecomposition(), ConicDecomposition()),
     "point dimensions 1, 2 vs 2"),
], ids=["cone_contains", "combination_int", "generator", "points"])
def test_cones_dimension_checks(call, message):
    """Each dimension check of cones raises its DimensionError."""
    with pytest.raises(DimensionError) as got:
        call()
    assert type(got.value) is DimensionError and str(got.value) == message
    assert got.traceback[-1].path.name == "cones.py"
