import contextlib
import hashlib
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, oracles, polyhedra
from iqprox.errors import (ClaimViolation, DimensionError, InfeasibleError,
                           InputError, UnboundedError)
from iqprox.families import (build_example_1_1, build_ilp_tightness,
                             build_pr_tight, build_prop44, build_prop45,
                             build_prop46, random_instance)
from iqprox.oracles import (certify_no_cont_approx_within, delta_star,
                            fmax_cont, fmax_int, full_report, solve_iqp,
                            solve_qp, verdict)
from iqprox.pipeline import eval_objective, instance, run_pipeline
from iqprox.polyhedra import (contains_int, enumerate_lattice_points,
                              intersect_with_box, lattice_runs)
from iqprox.simplex import feasible_point

import reference
from reference import (rational_rows, reference_full_report, reference_lattice_extremes,
                       reference_vertex_minimum)


def box_instance(q, h, r=3):
    n = len(h)
    rows, rhs = [], []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(list(e))
        rhs.append(r)
        rows.append([-x for x in e])
        rhs.append(r)
    return instance(rows, rhs, q, h, k=len(q))


def test_eval_f_example():
    fam = build_example_1_1(3)
    # dropped constant is -1/16, so the raw value -(x - 1/4)^2 shifts by it
    assert eval_objective(fam.instance, [F(-3)]) == F(-169, 16) - fam.expected["constant"]
    assert eval_objective(fam.instance, [F(1, 4)]) == F(1, 16)


def test_solve_iqp_example():
    fam = build_example_1_1(3)
    res = solve_iqp(fam.instance)
    assert res.point == (F(-3),)
    assert res.ties == ((F(-3),),)


def test_solve_qp_example():
    fam = build_example_1_1(3)
    res = solve_qp(fam.instance)
    assert res.point == (F(15, 4),)


def test_solve_iqp_reports_ties():
    inst = box_instance([1], [0], r=2)  # -x^2, minimized at both ends
    res = solve_iqp(inst)
    assert res.ties == ((F(-2),), (F(2),))
    assert res.point == (F(-2),)


def test_solve_iqp_infeasible():
    # 2x = 1 has a continuous solution but no integer one
    inst = instance([[2], [-2]], [1, -1], [1], [0])
    with pytest.raises(InfeasibleError):
        solve_iqp(inst)


def test_fmax_values_example():
    fam = build_example_1_1(3)
    assert fmax_int(fam.instance) == 0
    assert fmax_cont(fam.instance) == F(1, 16)


def test_fmax_cont_interior_stationary_point():
    inst = box_instance([1], [F(1, 2)])
    val, wit = oracles.fmax_cont_witness(inst)
    assert val == F(1, 16)
    assert wit == (F(1, 4),)


def test_fmax_cont_linear_reduces_to_lp():
    inst = box_instance([], [2, -1], r=3)
    assert fmax_cont(inst) == 9


OPEN_BELOW = instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1])


@pytest.mark.parametrize("inst, want", [
    (instance([[-1]], [0], [], [1]), None),               # x >= 0, f = x
    (instance([[0, -1]], [0], [1], [0, 1]), None),        # x_1 >= 0, f = -x_0^2 + x_1
    (instance([], [], [1], [0, 1]), None),                # R^2, the same f
    (OPEN_BELOW, (F(2), (F(0), F(2)))),                   # f falls along -e_1
    # k = n: the LP for r has no column, and f falls along +-e_1
    (instance([[1, 0], [-1, 0]], [2, 2], [1, 1], [0, 1], 2), (F(1, 4), (F(0), F(1, 2)))),
], ids=["ray", "half-plane", "plane", "open-below", "strip-all-quadratic"])
def test_fmax_cont_unbounded_above(inst, want):
    """f rises without bound along a ray r of P's recession cone with
    r_i = 0 for i < k and h.r > 0: both oracles raise UnboundedError.  On
    a P that recedes only where f falls, they give the maximum."""
    if want is None:
        for oracle in (oracles.fmax_cont_witness, fmax_cont):
            with pytest.raises(UnboundedError, match="^the objective is unbounded above"):
                oracle(inst)
    else:
        assert oracles.fmax_cont_witness(inst) == want
        assert fmax_cont(inst) == want[0]


@pytest.mark.parametrize("inst, walk, error", [
    (instance([[1], [-1]], [-1, 0], [1], [0]), (None, None, [], None),
     InfeasibleError("feasible region is empty")),
    (OPEN_BELOW, (F(2), (F(0), F(2)), [], None), UnboundedError("coordinate 1 is unbounded")),
    (instance([[-1]], [0], [], [1]), (F(0), (F(0),), [], None),
     UnboundedError("coordinate 0 is unbounded")),
], ids=["empty", "open-below", "ray"])
def test_face_walk_off_polytopes(inst, walk, error):
    """Off a polytope the walk keeps no vertex and gives no box, and
    certify_no_cont_approx_within raises solve_qp's error, message and
    all."""
    assert oracles._face_walk(inst) == walk
    with pytest.raises(type(error)) as got:
        certify_no_cont_approx_within(inst, F(1, 2), [0] * inst.n, 1)
    assert str(got.value) == str(error)


def test_fmax_cont_dominates_vertices_and_lattice():
    rng = random.Random(4)
    for seed in range(20):
        inst = random_instance(seed)
        rep = full_report(inst)
        assert rep.fmax_cont >= rep.fmax_int
        assert rep.fmax_cont >= eval_objective(inst, rep.cont_opt.point)
        # random convex combinations of optima stay below the max
        for _ in range(5):
            lam = F(rng.randint(0, 4), 4)
            p = [lam * a + (1 - lam) * b
                 for a, b in zip(rep.int_opt.point, rep.fmax_cont_witness)]
            assert eval_objective(inst, p) <= rep.fmax_cont


def test_verdict_example_values():
    fam = build_example_1_1(3)
    rep = full_report(fam.instance)
    v = verdict(fam.instance, [3], F(2, 7), "integer", rep)
    assert v.ratio == F(2, 7)
    assert v.is_approx
    assert not verdict(fam.instance, [3], F(1, 4), "integer", rep).is_approx


def test_verdict_optimal_point():
    fam = build_example_1_1(3)
    v = verdict(fam.instance, [-3], F(0), "integer", full_report(fam.instance))
    assert v.is_approx and v.ratio == 0


def test_verdict_monotone_in_eps():
    inst = random_instance(11)
    rep = full_report(inst)
    pts = enumerate_lattice_points(inst.polyhedron())[:10]
    for p in pts:
        last = None
        for eps in (F(1, 10), F(1, 2), F(1)):
            v = verdict(inst, p, eps, "integer", rep)
            if last is not None and last:
                assert v.is_approx
            last = v.is_approx


def test_verdict_degenerate():
    # constant objective: gap is zero everywhere
    inst = box_instance([], [0], r=1)
    v = verdict(inst, [1], F(1, 2), "integer", full_report(inst))
    assert v.degenerate and v.is_approx
    assert v.ratio is None


def test_verdict_rejects_infeasible_point():
    fam = build_example_1_1(1)
    rep = full_report(fam.instance)
    with pytest.raises(InputError):
        verdict(fam.instance, [10], F(1), "integer", rep)
    with pytest.raises(InputError):
        verdict(fam.instance, [F(1, 2)], F(1), "integer", rep)


@pytest.mark.parametrize("eps", [0.1, "abc", True, None])
@pytest.mark.parametrize("oracle", ["verdict", "delta_star", "certify"])
def test_oracles_take_only_an_int_or_a_fraction_eps(oracle, eps):
    """A float would be read as its binary value (0.1 as
    3602879701896397/36028797018963968), True as 1, and a string or None
    would fail with a builtin error; each is an InputError."""
    inst = build_example_1_1(3).instance
    call = {"verdict": lambda: verdict(inst, [3], eps, "integer", full_report(inst)),
            "delta_star": lambda: delta_star(inst, eps),
            "certify": lambda: certify_no_cont_approx_within(inst, eps, [-3], 1)}[oracle]
    with pytest.raises(InputError, match="eps must be an int or a Fraction"):
        call()


def test_delta_star_prop45():
    fam = build_prop45(2, 1, F(1, 2))
    ds = delta_star(fam.instance, F(1, 2))
    assert ds.value == F(14, 3)
    assert verdict_loop_approx(fam.instance, F(1, 2)) == [(F(-2), F(0))]  # only -u qualifies
    assert ds.witness_point == (F(-2), F(0))
    assert not ds.upper_bound_only


def test_delta_star_keeps_no_point_list():
    """delta_star keeps each tied optimum's nearest eps-approximate point as
    the walk reaches it, not the list of those points: example 1.1 with
    t = 10^4 has 5,859 of them at eps = 1/2, which as a list of Fraction
    tuples peaked at about 1.1 MB of allocations."""
    inst = build_example_1_1(10 ** 4).instance
    tracemalloc.start()
    try:
        assert delta_star(inst, F(1, 2)).value == F(3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_face_walk_keeps_no_line_list():
    """_face_walk does each edge line's face work as polyhedra.edge_walk
    visits it and keeps no line: random_instance(0, n_max=7) (n = 7, m =
    17) has 4,216 edge lines, which as a list held about 4.7 MB of
    allocations, and the walk peaked at about 8.0 MB with that list,
    against about 4.2 MB without it."""
    inst = random_instance(0, n_max=7)
    assert (inst.n, inst.m) == (7, 17)
    tracemalloc.start()
    try:
        oracles._face_walk(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 1024 * 1024


def test_pruned_walks_keep_no_runs(monkeypatch):
    """A lattice walk with a search hands each run to the search and keeps
    no list of them.  delta_star at eps = 1 on the box |x_i| <= 20 in R^3,
    with q = (1) and h = (0, 1, 1), makes two such walks, which take 2,123
    runs between them; when lattice_runs also listed every run it reached,
    for its callers to drop, the walks peaked at about 250 kB of
    allocations, against about 11 kB without the list."""
    inst = box_instance([1], [0, 1, 1], r=20)
    taken = []
    real = oracles.lattice_runs

    def counted(P, box, search):
        take = search.run
        search.run = lambda *args: taken.append(args[1:]) or take(*args)
        return real(P, box, search)

    monkeypatch.setattr(oracles, "lattice_runs", counted)
    want = delta_star(inst, 1)
    assert len(taken) == 2123
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert delta_star(inst, 1) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert want.value == 0 and want.witness_point == (-20, -20, -20)
    assert peak < 64 * 1024


def test_delta_star_eps_one_nearest_lattice():
    fam = build_example_1_1(2)
    ds = delta_star(fam.instance, F(1))
    # x^c = 11/4, nearest feasible integer not further than 3/4
    assert ds.value == F(3, 4)


def test_delta_star_flags_optimal_face():
    # maximize x1 on a square: the whole right edge is optimal
    inst = box_instance([], [-1, 0], r=1)
    ds = delta_star(inst, F(0))
    assert ds.upper_bound_only


def test_certificate_prop46():
    fam = build_prop46(2, 2, F(1, 4))
    assert certify_no_cont_approx_within(fam.instance, F(1, 4),
                                         fam.expected["xd"], 4)
    # the optimum itself sits inside any box around x^c, so no certificate
    rep = full_report(fam.instance)
    assert not certify_no_cont_approx_within(fam.instance, F(1, 4),
                                             rep.cont_opt.point, 1)


def test_certificate_empty_box_region():
    fam = build_example_1_1(1)
    # a box far outside the feasible region certifies vacuously
    assert certify_no_cont_approx_within(fam.instance, F(1, 2), [100], F(1, 2))


def test_claim_cross_checks_on_c2_run():
    fam = build_example_1_1(30)
    rep = full_report(fam.instance)
    res = run_pipeline(fam.instance, F(1), xc=rep.cont_opt.point,
                       xd=rep.int_opt.point)
    assert res.case == "c2"
    oracles.claim_cross_checks(fam.instance, res, rep)


def test_claim_cross_checks_c1_vacuous():
    fam = build_example_1_1(3)
    rep = full_report(fam.instance)
    res = run_pipeline(fam.instance, F(1, 2), rep.cont_opt.point,
                       rep.int_opt.point)
    oracles.claim_cross_checks(fam.instance, res, rep)


@pytest.fixture(scope="module")
def c2_run():
    """example-1-1 (t = 30) at eps = 1: a case c-2 run with witnesses, its
    instance and its oracle report."""
    inst = build_example_1_1(30).instance
    rep = full_report(inst)
    res = run_pipeline(inst, F(1), xc=rep.cont_opt.point, xd=rep.int_opt.point)
    assert res.case == "c2" and res.witnesses is not None
    return inst, res, rep


def far(p):
    """A point 10^4 away from p in every coordinate, where f is very low."""
    return tuple(x - 10 ** 4 for x in p)


@pytest.mark.parametrize("claim, message, corrupt", [
    # A negative delta makes the spread 2 (psi_ell + n delta) negative.
    ("ratio-1", "integer output gap exceeds its bound",
     lambda res, rep: (replace(res, delta=-10 ** 4), rep)),
    ("ratio-2", "integer head room below its bound",
     lambda res, rep: (res, replace(rep, fmax_int=F(-100)))),
    ("rub", "continuous output gap exceeds its bound",
     lambda res, rep: (replace(res, xc=far(res.xc)), rep)),
    ("rlb", "continuous head room below its bound",
     lambda res, rep: (res, replace(rep, fmax_cont=F(-100)))),
    ("midpoint-witness", "parity witnesses fall below the midpoint bound",
     lambda res, rep: (replace(res, witnesses=replace(
         res.witnesses, x_l=far(res.witnesses.x_l), x_r=far(res.witnesses.x_r))), rep)),
])
def test_claim_cross_checks_catch_a_corrupted_input(c2_run, claim, message, corrupt):
    """Each claim of claim_cross_checks, alone, on one corrupted field of
    the run or of the report; the run as it is passes."""
    inst, res, rep = c2_run
    oracles.claim_cross_checks(inst, res, rep)
    with pytest.raises(ClaimViolation) as err:
        oracles.claim_cross_checks(inst, *corrupt(res, rep))
    assert err.value.claim == claim
    assert str(err.value) == f"claim {claim} violated: {message}"


def test_full_report_enumerates_lattice_once(monkeypatch):
    """One lattice walk, of the face walk's box, pruned: random_instance(6)
    (n = 3, m = 6, k = 0) has 49 runs, and the walk reaches 13 of them;
    under every other prefix each point is worse than the least value found
    so far and none beats the greatest (the unpruned walk reached all 49)."""
    calls = []
    real = oracles.lattice_runs

    def counted(P, box, search):
        take, reached = search.run, []
        search.run = lambda prefix, *rest: reached.append(tuple(prefix)) or take(prefix, *rest)
        calls.append((P, box, reached))
        assert real(P, box, search) is None  # a search keeps no runs

    monkeypatch.setattr(oracles, "lattice_runs", counted)
    inst = random_instance(6)
    assert (inst.n, inst.m, inst.k) == (3, 6, 0)
    rep = full_report(inst)
    assert len(calls) == 1
    P, box, reached = calls[0]
    assert box is not None  # the box came from the vertices
    assert len(reached) == 13
    assert len(lattice_runs(P, box)) == 49
    monkeypatch.undo()
    assert rep.int_opt == solve_iqp(inst)
    assert (rep.fmax_int, rep.fmax_int_witness) == oracles.fmax_int_witness(inst)


def assert_fraction_points(*points):
    assert all(type(p) is tuple and all(type(v) is F for v in p) for p in points)


@pytest.mark.parametrize("fam", [build_example_1_1(3),
                                 build_prop45(2, 2, F(1, 2))],
                         ids=["example-1-1", "prop45"])
def test_points_leaving_oracles_are_fractions(fam):
    """The lattice walk yields int tuples; every point oracles returns is
    still a tuple of Fractions."""
    inst = fam.instance
    rep = full_report(inst)
    for opt in (rep.int_opt, rep.cont_opt, solve_iqp(inst), solve_qp(inst)):
        assert_fraction_points(opt.point, *opt.ties)
    assert_fraction_points(rep.fmax_int_witness, rep.fmax_cont_witness,
                           oracles.fmax_int_witness(inst)[1],
                           oracles.fmax_cont_witness(inst)[1])
    ds = delta_star(inst, F(1, 2))
    assert_fraction_points(ds.witness_opt, ds.witness_point)


# sha256 of repr(full_report(inst)) as computed with the LP bounding box and
# one linear solve per n-row subset for the vertices; the prop44 n = 8 and 9
# ones with one fresh elimination per row subset in the face walk.  No
# benchmark instance reaches n >= 5, so these are the large-instance
# bit-identity guard.
LARGE_REPORTS = {
    "random19": (lambda: random_instance(19, n_max=6),
                 "d237bcc1fa2f0456945547c555186daa14eac72bd3ceff5baae9bcdcbd46dd81"),
    "random20": (lambda: random_instance(20, n_max=6),
                 "6619a312850c54ed6892a15b10fad3ad56363d290d867e7c78378a878ec58d80"),
    "random24": (lambda: random_instance(24, n_max=6),
                 "603e8c7ae7679599cab684f69c6ed5f1a085dc50796e1502b6ec6e04911ec6f1"),
    "prop44-n6": (lambda: build_prop44(F(1, 4), 3, n=6).instance,
                  "388683d994992566ad41b1499c460cfff06b197fde2d5d233c5e1cfc5df7af4b"),
    "prop44-n7": (lambda: build_prop44(F(1, 4), 3, n=7).instance,
                  "79a76e6470e73af176763bd05321349bf46cbe1216147d460a13e508861d306a"),
    "prop44-n8": (lambda: build_prop44(F(1, 4), 3, n=8).instance,
                  "470011cd2665a6578851e8b63b841b38b2ac30e55fa5f58f688f8615e4d27308"),
    "prop44-n9": (lambda: build_prop44(F(1, 4), 3, n=9).instance,
                  "5ea41f32fb270ad1a3285e97949bd3e3aca6e76d2fcdeffdf3259ee42ddd25d8"),
}


@pytest.mark.parametrize("name", list(LARGE_REPORTS))
def test_large_full_report_digest(name):
    make, digest = LARGE_REPORTS[name]
    rep = full_report(make())
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest


@st.composite
def rational_objectives(draw):
    """A random_instance region with a fresh rational q and h."""
    base = random_instance(draw(st.integers(0, 10 ** 6)))
    k = draw(st.integers(0, base.n))
    q = [draw(st.fractions(F(1, 6), 4, max_denominator=6)) for _ in range(k)]
    h = [draw(st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=6)))
         for _ in range(base.n)]
    return instance(*rational_rows(base.P), q, h, k)


def diagonal_instance(q, h):
    """x_0 = x_1 on a box of radius 2: every lattice run is one point."""
    return instance([[1, -1], [-1, 1], [1, 0], [-1, 0]], [0, 0, 2, 2], q, h, len(q))


@settings(max_examples=150, deadline=None)
@given(rational_objectives())
@example(box_instance([1], [0], r=2))                 # tied minimizers
@example(box_instance([F(1, 3), F(1, 2)], [F(1, 6), F(-5, 4)]))
@example(box_instance([F(1, 3)], [F(1, 2)], r=3))     # n = 1: empty prefix
@example(diagonal_instance([1], [F(1, 2), 1]))        # single-point runs
@example(diagonal_instance([], [0, 0]))
@example(box_instance([1], [F(1, 2), 0], r=2))        # k < n, h_{n-1} = 0: a run ties
@example(box_instance([1, 1], [0, 1], r=2))           # vertex at v = 1/2: floor wins
@example(box_instance([F(1, 2)], [F(1, 2)], r=3))     # vertex at 1/2 again, n = 1
def test_lattice_extremes_match_eval_objective(inst):
    P = inst.polyhedron()
    runs = lattice_runs(P)
    pts = reference.lattice_points(P)
    assert enumerate_lattice_points(P) == pts
    assert pts == [(*p, v) for p, lo, hi in runs for v in range(lo, hi + 1)]
    # Each run is nonempty, maximal along the last coordinate, and the
    # prefixes increase.
    for p, lo, hi in runs:
        assert lo <= hi
        assert not contains_int(P, [*p, lo - 1], 1) and not contains_int(P, [*p, hi + 1], 1)
    assert all(a[0] < b[0] for a, b in zip(runs, runs[1:]))
    got = oracles._lattice_extremes(inst, None)
    assert got == reference_lattice_extremes(inst, pts)
    opt, top, wit = got
    assert type(opt.value) is F and type(top) is F
    assert all(type(v) is F for p in opt.ties + (wit,) for v in p)


@st.composite
def rational_regions(draw):
    """Integer rows with a rational b, possibly empty, with a random objective.

    A box with integer multiples of e_i and rational bounds, which may
    cross, cut by up to three rows: random ones (the zero row included) and
    positive or negative multiples of earlier rows.  P.int_rows scales each
    row by the denominator of its b, which random_instance never exercises.
    """
    n = draw(st.integers(1, 3))
    rows, rhs = [], []
    for i in range(n):
        e = [0] * n
        e[i] = draw(st.integers(1, 3))
        rows += [e, [-x for x in e]]
        rhs += [draw(st.fractions(-1, 4, max_denominator=4)) for _ in range(2)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            c = draw(st.sampled_from([-2, -1, 2, 3]))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append([draw(st.integers(-3, 3)) for _ in range(n)])
        rhs.append(draw(st.fractions(-4, 4, max_denominator=5)))
    k = draw(st.integers(0, n))
    q = [draw(st.fractions(F(1, 6), 4, max_denominator=6)) for _ in range(k)]
    h = [draw(st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=6)))
         for _ in range(n)]
    return instance(rows, rhs, q, h, k)


FACE_EXAMPLES = [
    # k = n: every E_S has full rank, so no face reaches the LP.
    box_instance([1, F(1, 2)], [F(1, 2), -1]),
    # k < n with h_1 = 0 on the linear coordinate: E_S holds 0 = 0.
    box_instance([1], [F(1, 2), 0]),
    # Tied faces: the edge x_0 = 3 and its two vertices all attain 3.
    box_instance([], [1, 0]),
    # Tied faces: the line x_0 = 0 and every face crossing it attain 0.
    box_instance([1], [0, 0]),
    # Parallel rows: S holding two of the last three is dependent.
    instance([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [2, 2], [-1, -1]],
             [3, 3, 3, 3, 2, 4, 2], [1], [1, F(1, 2)]),
    # Empty regions, one with every E_S of full rank, one reaching the LP.
    instance([[1], [-1]], [-1, 0], [1], [0]),
    instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, 0, 1, 1], [], [0, 0]),
]


def face_examples(test):
    for inst in FACE_EXAMPLES:
        test = example(inst)(test)
    return test


def assert_same_fmax_cont(inst):
    """fmax_cont_witness gives the reference's (value, witness) or its
    InfeasibleError."""
    try:
        want = reference.fmax_cont_witness(inst)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            oracles.fmax_cont_witness(inst)
        return
    got = oracles.fmax_cont_witness(inst)
    assert got == want
    assert type(got[0]) is F and all(type(v) is F for v in got[1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions()))
@face_examples
def test_fmax_cont_witness_matches_lp_per_face(inst):
    """The reference's value and witness: per face a stationarity solve by
    the reference's own elimination, valued by f in Fractions, and with a
    free direction an exact LP; it shares no int kernel with the walk."""
    assert_same_fmax_cont(inst)


def test_fmax_cont_witness_calls_no_fraction_kernel(monkeypatch):
    """The face loop runs on int rows: no null space, no Fraction solve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("fmax_cont_witness left the int rows")

    monkeypatch.setattr(exact, "null_space", forbidden)
    monkeypatch.setattr(exact, "solve_linear", forbidden)
    inst = box_instance([1, F(1, 2)], [F(1, 2), -1])
    assert oracles.fmax_cont_witness(inst) == (F(9, 16), (F(1, 4), F(-1)))


@pytest.mark.parametrize("inst, lps", [
    # k = n: every E_S has full rank.
    (box_instance([1, F(1, 2)], [F(1, 2), -1]), 0),
    # h_1 != 0 on the linear coordinate: every rank-deficient E_S holds 0 = 1.
    (box_instance([1], [F(1, 2), 1]), 0),
    # h_1 = 0: the E_S of the face P itself is the line x_0 = 1/4, which
    # meets P; every later face ties it, so P stays the witness and its LP
    # runs once, at the end.
    (box_instance([1], [F(1, 2), 0]), 1),
    # f = -(x_0 - 5)^2 on x_0 in [-1, 1/2]: the E_S of P, the line x_0 = 5,
    # misses P, and so does the line x_0 = 1 (2 x_0 <= 1); the lines
    # x_0 = -1 and x_0 = 1/2 meet it, and the second stays the witness, so
    # its LP is the only one (an LP per face that meets P made 3, and one
    # per line 4).
    (instance([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0]], [1, 1, 1, 1, 1],
              [1], [10, 0], 1), 1),
    # k = 0, h = 0 in n = 3: every E_S is the face's own hull.  P's has
    # three free directions and takes an LP at once; it attains 0, which no
    # later face beats, so no other face reaches the LP.
    (box_instance([], [0, 0, 0], r=1), 1),
])
def test_fmax_cont_witness_face_lps(monkeypatch, inst, lps):
    """A face whose E_S is a line is decided by meeting that line with P,
    and takes its LP only if it is still the witness at the end; a face
    with two or more free directions takes its LP at once."""
    want = reference.fmax_cont_witness(inst)
    calls = []
    monkeypatch.setattr(oracles, "feasible_point",
                        lambda P: calls.append(P) or feasible_point(P))
    assert oracles.fmax_cont_witness(inst) == want
    assert len(calls) == lps


def test_fmax_cont_witness_face_constant_claim(monkeypatch):
    """At the final witness: the LP of the face P itself, whose E_S is the
    line x_0 = 1/4, returns a point where f is not v_S = 1/16."""
    inst = box_instance([1], [F(1, 2), 0])
    monkeypatch.setattr(oracles, "feasible_point", lambda P: [F(3), F(0)])
    with pytest.raises(ClaimViolation) as err:
        oracles.fmax_cont_witness(inst)
    assert err.value.claim == "face-constant"
    assert str(err.value) == "claim face-constant violated: face (): f is not constant on E_S"


def test_fmax_cont_witness_face_constant_claim_at_a_superseded_face(monkeypatch):
    """At a face that a later one supersedes, before any LP: every line
    comes out of line_through moved by e_0, off its E_S.  On the box
    |x_i| <= 1 cut by 2 x_0 <= 1, with f = 25 - (x_0 - 5)^2 - x_1^2, the
    plane x_0 = -1 (face (1,)) has the line x_0 = -1, x_1 = 0 as its E_S,
    of value v_S = -11; it still meets P, but its point at the end of its
    interval now has x_0 = 0, where f is 0.  Uncorrupted, the face
    x_0 = 1/2 supersedes it.

    The lines of n - 1 rows come from polyhedra.edge_walk, and the walk
    reads both a line face's E_S and its point from the one line it is
    visited with, so on them f is constant by construction; the claim is
    reached through the E_S lines of the smaller faces, which line_through
    builds."""
    inst = instance([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
                     [2, 0, 0]], [1] * 7, [1, 1], [10, 0, 0], 2)
    assert oracles.fmax_cont_witness(inst) == (F(19, 4), (F(1, 2), F(0), F(0)))
    real = oracles.line_through
    monkeypatch.setattr(oracles, "line_through", lambda P, X0, w, L: real(
        P, [X0[0] + L, *X0[1:]], w, L))
    monkeypatch.setattr(oracles, "feasible_point", None)  # no LP is reached
    with pytest.raises(ClaimViolation) as err:
        oracles.fmax_cont_witness(inst)
    assert err.value.claim == "face-constant"
    assert str(err.value) == "claim face-constant violated: face (1,): f is not constant on E_S"


def test_fmax_cont_witness_face_lp_claim(monkeypatch):
    """The final witness's line meets P, so its LP must find a point; an LP
    that finds none is a face-lp violation."""
    inst = box_instance([1], [F(1, 2), 0])
    monkeypatch.setattr(oracles, "feasible_point", lambda P: None)
    with pytest.raises(ClaimViolation) as err:
        oracles.fmax_cont_witness(inst)
    assert err.value.claim == "face-lp"
    assert str(err.value) == ("claim face-lp violated: face (): "
                              "the LP finds no point of E_S in P")


@st.composite
def report_regions(draw):
    """A random_instance or rational_regions instance, often made unbounded,
    empty or rank-deficient.

    Dropping or negating a row can open a bounded region; a row pair
    a x <= c, -a x <= -c - 1 empties it; keeping fewer than n rows, or
    zeroing one coordinate in every row (all rows then lie in one
    hyperplane), leaves A of rank < n.
    """
    if draw(st.booleans()):
        base = random_instance(draw(st.integers(0, 10 ** 6)))
    else:
        base = draw(rational_regions())
    n = base.n
    A, b = rational_rows(base.P)
    rows, rhs = [list(r) for r in A], list(b)
    kind = draw(st.sampled_from(["as-is", "drop", "negate", "contradict",
                                 "few-rows", "one-plane"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "drop" and len(rows) > 1:
        del rows[i], rhs[i]
    elif kind == "negate":
        rows[i] = [-c for c in rows[i]]
    elif kind == "contradict":
        rows += [rows[i], [-c for c in rows[i]]]
        rhs += [rhs[i], -rhs[i] - 1]
    elif kind == "few-rows":
        keep = draw(st.integers(1, max(1, n - 1)))
        rows, rhs = rows[:keep], rhs[:keep]
    elif kind == "one-plane":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return instance(rows, rhs, base.q, base.h, base.k)


@settings(max_examples=250, deadline=None)
@given(report_regions())
@example(instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2], [1], [0, 1]))
@example(instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1]))   # open below
@example(instance([[1, 1], [-1, -1]], [2, 2], [1], [0, 1]))             # rank 1
@example(instance([[1], [-1]], [F(1, 3), F(-1, 4)], [1], [0]))          # no lattice point
@example(instance([[0], [1], [-1]], [-1, 2, 2], [1], [0]))              # 0 x <= -1
def test_full_report_matches_lp_box_reference(inst):
    """The same report as the LP box and per-subset vertex solves, or the
    same exception class and message."""
    try:
        want = reference_full_report(inst)
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as got:
            full_report(inst)
        assert str(got.value) == str(err)
        return
    got = full_report(inst)
    assert got == want
    assert repr(got) == repr(want)


FAMILY_INSTANCES = [build_example_1_1(3).instance, build_prop44(F(1, 4), 3, n=5).instance,
                    build_prop45(3, 1, F(1, 2)).instance,
                    build_pr_tight(3, 1, 1, F(1, 2), F(2, 3)).instance,
                    build_prop46(2, 2, F(1, 4)).instance,
                    build_ilp_tightness(3, 2, F(1, 2)).instance]


def family_examples(test):
    for inst in FAMILY_INSTANCES:
        test = example(inst)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions(), report_regions()))
@family_examples
@example(box_instance([1], [0], r=2))                 # tied minimizers at both ends
@example(diagonal_instance([], [0, 0]))               # f constant: every point ties
def test_pruned_walk_matches_unpruned_walk(inst):
    """The pruned walk (_Extremes) gives the extremes over every lattice
    point of the reference's scan, with the same ties and witness, or the
    same error, on the box of P's vertices and on the face walk's box."""
    for box in (None, oracles._face_walk(inst)[3]):
        try:
            want = reference_lattice_extremes(
                inst, reference.lattice_points(inst.polyhedron()))
        except (InfeasibleError, UnboundedError) as err:
            with pytest.raises(type(err)) as got:
                oracles._lattice_extremes(inst, box)
            assert str(got.value) == str(err)
            continue
        got = oracles._lattice_extremes(inst, box)
        assert got == want
        assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(report_regions())
@example(instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1]))   # open below
@example(instance([[1], [-1]], [F(1, 3), F(-1, 4)], [1], [0]))          # a vertex, no lattice point
def test_face_walk_collects_vertices_of_polytopes(inst):
    """The walk's vertices are the reference's points and their values on
    a polytope, and none otherwise; its (value, witness) is the
    reference's without a vertex list."""
    try:
        want = reference.vertices(inst.polyhedron())
    except UnboundedError:
        want = []
    verts = []
    try:
        got = face_walk_witness(inst, verts)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            reference.fmax_cont_witness(inst)
    else:
        assert got == reference.fmax_cont_witness(inst)
    points = [tuple(F(x, e) for x in X) for X, e, _, _ in verts]
    assert sorted(set(points)) == want
    for p, (_, _, num, den) in zip(points, verts):
        assert eval_objective(inst, p) == F(num, den)


def face_walk_witness(inst, vertices=None):
    """oracles._face_walk in the form of reference.fmax_cont_witness: its
    (value, witness), or InfeasibleError when no face attains a maximum,
    with its vertices appended to the list passed as vertices."""
    fci, wci, verts, _ = oracles._face_walk(inst)
    if vertices is not None:
        vertices.extend(verts)
    if fci is None:
        raise InfeasibleError("feasible region is empty")
    return fci, wci


def face_walk_run(walk, inst, collect):
    """walk's (value, witness) or InfeasibleError message, its vertices as a
    multiset of (point, value), and its face LPs in order: each as the
    number of free directions of its E_S (n less the rank of the LP's
    equality rows, those past P's m) and its point or None."""
    verts = [] if collect else None
    lps = []

    def lp(P):
        pt = feasible_point(P)
        lps.append((inst.n - exact.rank(P.int_rows[0][inst.m:]), pt and tuple(pt)))
        return pt

    with mock.patch.object(oracles, "feasible_point", wraps=lp):
        try:
            got = walk(inst, verts)
        except InfeasibleError as err:
            got = ("InfeasibleError", str(err))
    return (got, Counter((tuple(F(x, e) for x in X), F(num, den))
                         for X, e, num, den in verts or []), lps)


def assert_same_walk(run, ref):
    """run, a face_walk_run of the face walk, has the result and the
    vertices of ref, a walk that runs each face's LP at once.  Its face LPs
    are exactly ref's on faces with two or more free directions, in order,
    and then, when ref's witness is the point of an LP on a face whose E_S
    is a line, that LP once more: the last LP with a point, since each such
    LP sets the best value, and a later face replaces it only with a larger
    value at another point."""
    assert run[:2] == ref[:2]
    want = [lp for lp in ref[2] if lp[0] >= 2]
    found = [lp for lp in ref[2] if lp[1] is not None]
    if found and found[-1][0] == 1 and found[-1][1] == ref[0][1]:
        want.append(found[-1])
    assert run[2] == want


def assert_vertex_box(box, verts):
    """box, _face_walk's, is reference.vertex_box of verts: None without a
    vertex, and otherwise the extremes of their points X / e as ints over
    the lcm of the e."""
    assert box == reference.vertex_box(verts)
    assert box is None or all(type(v) is int for v in [*box[0], *box[1], box[2]])


@pytest.mark.parametrize("collect", [False, True], ids=["value", "vertices"])
@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions(), report_regions()))
@face_examples
@example(build_prop44(F(1, 4), 3, n=5).instance)
@example(build_prop45(3, 1, F(1, 2)).instance)
@example(build_pr_tight(3, 1, 1, F(1, 2), F(2, 3)).instance)
@example(build_prop46(2, 2, F(1, 4)).instance)
@example(box_instance([F(1, 2)], [F(1, 3)], r=2))                         # n = 1
@example(instance([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0]],
                  [1, 1, 1, 1, 1], [1], [0, 1]))     # the line x_0 = 1 misses 2 x_0 <= 1
@example(instance([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                  [1, 1, 1, 1, 2], [1], [1, 1]))     # (1, 1) is tight on 3 rows
@example(instance([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 2]],
                  [F(3, 2), F(1, 2), F(5, 3), 1, F(7, 4)], [F(1, 2)],
                  [1, F(-1, 3)]))                    # rational b: scales != 1
@example(instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1]))     # open below
def test_level_walk_matches_combinations_walk(collect, inst):
    """The walk gives the reference's (value, witness) or its
    InfeasibleError and its vertex list: the same ints (X, e, num, den) in
    the same order.  Its face LPs are those assert_same_walk derives from
    the reference's, which solves every face and runs each face's LP at
    once, so the walk's dominance skip is checked against it; the
    worst-case builders are where the skip fires on every face below the
    root.  With the vertices, _face_walk gives their box."""
    lists = []

    def keeping(walk):
        return lambda inst, verts: lists.append(verts) or walk(inst, verts)

    assert_same_walk(face_walk_run(keeping(face_walk_witness), inst, collect),
                     face_walk_run(keeping(reference.fmax_cont_witness), inst, collect))
    assert lists[0] == lists[1]
    if collect:
        assert_vertex_box(oracles._face_walk(inst)[3], lists[1])


def face_walk_counts(monkeypatch, walk):
    """Stationarity solves, rows tried on an echelon and those of them found
    independent, planes whose columns polyhedra._plane_columns builds, the
    lines polyhedra.edge_walk meets with P (its polyhedra._ratio_test
    calls, not line_through's), the edge lines it hands _face_walk's visit,
    and the points the walk values (its pipeline._objective_numerator
    calls, the leaves' among them), by walk(); the rows a stationarity
    solve adds to its own echelon are not counted."""
    counts = Counter()
    solving, walking, through = [], [], []
    solve, extend = exact.solution_space_int, exact._extend_echelon
    columns, ratio_test = polyhedra._plane_columns, polyhedra._ratio_test
    face_walk, edge_walk, line_through = oracles._face_walk, oracles.edge_walk, oracles.line_through
    value = oracles._objective_numerator

    def counted_walk(*args):
        walking.append(args)
        try:
            return face_walk(*args)
        finally:
            walking.pop()

    def counted_edge_walk(P, planes, visit):
        def counted_visit(*line):
            counts["edge lines"] += 1
            visit(*line)
        return edge_walk(P, planes, counted_visit)

    def counted_line_through(*args):
        through.append(args)
        try:
            return line_through(*args)
        finally:
            through.pop()

    def counted_value(*args):
        counts["values"] += bool(walking)
        return value(*args)

    def counted_solve(*args):
        counts["solves"] += 1
        solving.append(args)
        try:
            return solve(*args)
        finally:
            solving.pop()

    def counted_extend(*args):
        ext = extend(*args)
        if not solving:
            counts["tried"] += 1
            counts["independent"] += ext is not None
        return ext

    def counted_columns(*args):
        counts["planes"] += 1
        return columns(*args)

    def counted_ratio_test(*args):
        counts["lines"] += not through
        return ratio_test(*args)

    monkeypatch.setattr(exact, "solution_space_int", counted_solve)
    monkeypatch.setattr(exact, "_extend_echelon", counted_extend)
    monkeypatch.setattr(polyhedra, "_plane_columns", counted_columns)
    monkeypatch.setattr(polyhedra, "_ratio_test", counted_ratio_test)
    monkeypatch.setattr(oracles, "_face_walk", counted_walk)
    monkeypatch.setattr(oracles, "edge_walk", counted_edge_walk)
    monkeypatch.setattr(oracles, "line_through", counted_line_through)
    monkeypatch.setattr(oracles, "_objective_numerator", counted_value)
    walk()
    return dict(counts)


def test_face_walk_counts_on_prop44(monkeypatch):
    """prop44 n = 8 has 16 rows in 8 opposite pairs (rows 2p and 2p + 1),
    so an independent row set takes at most one row of each pair.  The walk
    stops at 6 rows: it tries 7,024 rows to reach the 5,280 nonempty sets
    of at most 6 rows, sum_{s <= 6} C(8, s) 2^s.  It makes one stationarity
    solve, the empty set's: that gives the unconstrained maximum of f,
    which the origin, a point of P, attains.  Every other face then lies
    under a bound no larger than the best value and is not solved.

    Each of the 28 * 2^6 = 1,792 planes of 6 rows misses two pairs, and
    tests its rows after its last one until one is independent: 1,344
    rows.  A plane that holds a row of pair 7 has only that row's partner
    after it, or nothing: 672 rows, none independent.  The 448 = 7 * 2^6
    that miss pair 7 try 1 or 2 rows each, as their last row is the first
    or the second of its pair, and find pair 7's first row, or pair 6's
    when they also miss pair 6.  So 448 planes are solved and have their
    columns built, and the rows tried come to 7,024 + 1,344 = 8,368, of
    which 5,280 + 448 = 5,728 are independent.  A plane missing pairs 6 and 7
    has 4 lines, one missing pair 7 and an earlier one 2: 64 * 4 + 384 * 2
    = 1,024 lines, each of the 8 * 2^7 sets of 7 rows once (tried row by
    row, they took 8,944 rows, and each line an echelon of its own).  Every
    line is dominated, so the walk values only the empty set's point and
    the 256 leaves, one per vertex of the 8 pairs."""
    inst = build_prop44(F(1, 4), 3, n=8).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 1, "tried": 8368, "independent": 5728, "planes": 448, "lines": 1024,
        "edge lines": 1024, "values": 257}


def test_face_walk_counts_on_pr_tight(monkeypatch):
    """pr-tight n = 3, like prop44, attains the unconstrained maximum in P,
    so the empty set's solve is the only one.  Its 6 rows, in 3 opposite
    pairs, are its planes, all dominated.  Each tests its later rows: 2, 1,
    2, 1, 1 and 0 rows, 7 in all, and the first four find one
    independent.  Those 4 are solved and have 4, 4, 2 and 2 lines: the 12
    independent pairs of rows (tried row by row, they took 21 rows).  The
    walk values the empty set's point and the 8 leaves."""
    inst = build_pr_tight(3, 1, 1, F(1, 2), F(2, 3)).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 1, "tried": 13, "independent": 10, "planes": 4, "lines": 12,
        "edge lines": 12, "values": 9}


def test_face_walk_counts_on_ilp_tightness(monkeypatch):
    """The ilp family maximizes x_1 (k = 0), and e_1 lies in the span of
    no set of fewer than 3 of its rows.  So every such set has an
    inconsistent stationarity system, no face gets a bound to pass on, and
    each is solved: the empty set and its 6 rows by
    exact.solution_space_int, the 12 lines in closed form.  No plane is
    dominated, so none tests a row, and each of the 6 has its columns
    built from its solve.  No line has a consistent a t = b (f is linear
    and grows along each), so the walk values only the 8 leaves."""
    inst = build_ilp_tightness(3, 2, F(1, 2)).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 7, "tried": 6, "independent": 6, "planes": 6, "lines": 12,
        "edge lines": 12, "values": 8}


def test_face_walk_counts_on_solve_mix(monkeypatch):
    """random_instance(56589932, n_max=4) is an n = 3, m = 9, k = 2
    instance of the benchmark's seed-0 solve pass.  Its walk tries the 9
    single rows, its planes; the 9 + 1 faces of fewer than 2 rows are each
    solved by exact.solution_space_int, and no plane is dominated.  The 9
    planes give the 33 independent pairs of rows as lines, with no
    echelon of their own; the 84 sets of 3 rows are the leaves of those
    lines, with no echelon and no solve each (walking them row by row took
    114 rows tried, 103 faces and 35 solves; walking the pairs row by row,
    45 rows tried).  The walk values 19 points; it valued 40 when it also
    valued the lines that miss P and those whose stationary point lies off
    their interval in P."""
    inst = random_instance(56589932, n_max=4)
    assert (inst.n, inst.m, inst.k) == (3, 9, 2)
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 10, "tried": 9, "independent": 9, "planes": 9, "lines": 33,
        "edge lines": 33, "values": 19}


def test_face_walk_values_no_point_of_a_line_that_cannot_win(monkeypatch):
    """The square |x_i| <= 1 with the row x_1 <= 2, under f = -x_0^2 + 3 x_0
    + x_1 (k = 1): the empty set's stationarity system is inconsistent, so
    no line is dominated.  Of its 5 edge lines, x_0 = +-1 have a = 0 != b
    (f grows along them); x_1 = +-1 have a = 2 and t* = 3/2, off their
    interval [-1, 1]; and x_1 = 2 misses P.  So the walk values only the 4
    leaves, the square's corners; it valued 7 points when it valued the
    last three lines before it tested them.  The maximum is f(1, 1) = 3, a
    leaf."""
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 1]], [1, 1, 1, 1, 2], [1], [3, 1], 1)
    plane = ((), None, None, ([0, 0], [[1, 0], [0, 1]], 1))  # the empty set's solution
    lines = []
    polyhedra.edge_walk(inst.polyhedron(), [plane], lambda *line: lines.append(line))
    assert [(X0, w, meets) for _, X0, w, _, _, _, meets in lines[2:]] == [
        ([0, 1], [1, 0], True), ([0, -1], [1, 0], True), ([0, 2], [1, 0], False)]
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 1, "planes": 1, "lines": 5, "edge lines": 5, "values": 4}
    monkeypatch.undo()
    assert oracles.fmax_cont_witness(inst) == (3, (1, 1))


def verdict_loop_approx(inst, eps):
    """The eps-approximate lattice points, by one verdict call per point."""
    report = full_report(inst)
    return [tuple(map(F, p)) for p in enumerate_lattice_points(inst.polyhedron())
            if verdict(inst, p, F(eps), "integer", report).is_approx]


def verdict_loop_delta_star(inst, eps):
    """delta_star with one verdict call per lattice point."""
    qp = full_report(inst).cont_opt
    approx = verdict_loop_approx(inst, eps)
    if not approx:
        raise InfeasibleError("no eps-approximate lattice point exists")
    best = pair = None
    for xc in qp.ties:
        for p in approx:
            d = exact.inf_norm(exact.vec_sub(xc, p))
            if best is None or d < best:
                best, pair = d, (xc, p)
    flag = any(eval_objective(inst, tuple((x + y) / 2 for x, y in zip(a, b))) == qp.value
               for a, b in combinations(qp.ties, 2))
    return oracles.DeltaStarResult(best, pair[0], pair[1], flag)


# Tied continuous optima: the edge x_1 = -2 of a box, whose second tie
# (-2, 3) is a lattice point and wins, with an optimal midpoint; and the four
# corners of a square, with no optimal midpoint.
TIED_EDGE = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 2, 3, F(5, 2)], [2], [-1, 0], k=1)
TIED_CORNERS = box_instance([1, 1], [0, 0], r=1)


def test_delta_star_tied_examples():
    """The tied examples of test_delta_star_matches_verdict_loop reach two
    or more ties and both values of upper_bound_only."""
    edge, corners = delta_star(TIED_EDGE, F(1, 2)), delta_star(TIED_CORNERS, F(1, 2))
    assert solve_qp(TIED_EDGE).ties == ((F(-2), F(-5, 2)), (F(-2), F(3)))
    assert (edge.value, edge.witness_opt, edge.upper_bound_only) == (0, (F(-2), F(3)), True)
    assert len(solve_qp(TIED_CORNERS).ties) == 4
    assert not corners.upper_bound_only


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions(), report_regions(),
                 st.sampled_from(FAMILY_INSTANCES)),
       st.fractions(-1, 2, max_denominator=6))
@example(box_instance([], [0], r=1), F(1, 2))        # f constant: degenerate
@example(box_instance([], [0], r=1), F(-1))
@example(build_example_1_1(3).instance, F(2, 7))     # ratio exactly eps
@example(box_instance([1], [0], r=2), F(-1, 3))      # no approximate point
@example(TIED_EDGE, F(1, 2))
@example(TIED_CORNERS, F(1, 2))
def test_delta_star_matches_verdict_loop(inst, eps):
    try:
        want = verdict_loop_delta_star(inst, eps)
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as got:
            delta_star(inst, eps)
        assert str(got.value) == str(err)
        return
    got = delta_star(inst, eps)
    assert got == want
    assert repr(got) == repr(want)


def assert_same_certificate(inst, eps, xd, radius):
    """certify_no_cont_approx_within in its two-call form, on the
    references: f exceeds f(x^c) + eps (f_max - f(x^c)) at every vertex of
    the box around xd met with P, x^c the least vertex and f_max the
    reference's; or the same error and text."""
    try:
        qp = reference_vertex_minimum(inst, reference.vertices(inst.polyhedron()))
        fmax, _ = reference.fmax_cont_witness(inst)
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as got:
            certify_no_cont_approx_within(inst, eps, xd, radius)
        assert str(got.value) == str(err)
        return
    tau = qp.value + F(eps) * (fmax - qp.value)
    corners = reference.vertices(intersect_with_box(inst.polyhedron(), xd, radius))
    want = all(eval_objective(inst, v) > tau for v in corners)
    assert certify_no_cont_approx_within(inst, eps, xd, radius) is want


@pytest.mark.parametrize("n, delta, eps", [(2, 2, F(1, 4)), (2, 3, F(1, 3)),
                                           (3, 2, F(1, 4)), (2, 2, F(1, 10))])
def test_certificate_matches_two_call_form_on_prop46(n, delta, eps):
    fam = build_prop46(n, delta, eps)
    xc = solve_qp(fam.instance).point
    for xd, radius in [(fam.expected["xd"], 4), (fam.expected["xd"], 1),
                       (xc, 1), (xc, 0), ([100] * n, F(1, 2))]:
        assert_same_certificate(fam.instance, eps, xd, radius)


@settings(max_examples=150, deadline=None)
@given(report_regions(), st.fractions(0, 1, max_denominator=4),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.fractions(0, 3, max_denominator=2))
@example(instance([[1], [-1]], [-1, 0], [1], [0]), F(1, 2), [0, 0, 0], 1)   # empty
@example(OPEN_BELOW, F(1, 2), [0, 0, 0], 1)
@example(instance([[-1]], [0], [], [1]), F(1, 2), [0, 0, 0], 1)           # f = x on x >= 0
def test_certificate_matches_two_call_form(inst, eps, xd, radius):
    assert_same_certificate(inst, eps, xd[:inst.n], radius)


SQUARE = box_instance([1, 1], [0, 0], r=2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: verdict(SQUARE, [0, 0], F(1, 2), "both", full_report(SQUARE)), InputError,
     "mode must be 'integer' or 'continuous', got 'both'"),
    (lambda: verdict(SQUARE, [0], F(1, 2), "integer", full_report(SQUARE)), DimensionError,
     "point has dim 1, polyhedron has 2"),
], ids=["mode", "dim"])
def test_oracles_input_checks(call, error, message):
    """Each input check of oracles raises its own class and message."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message
    assert got.traceback[-1].path.name == "oracles.py"


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions(), report_regions()))
@family_examples
@face_examples
@example(box_instance([F(1, 2)], [F(1, 3)], r=2))                         # n = 1
@example(instance([[1], [-1]], [-1, 0], [1], [0]))                        # empty, n = 1
@example(instance([[-1]], [0], [], [1]))                                  # a ray, n = 1
@example(instance([[1, 1], [-1, -1]], [2, 2], [1], [0, 1]))               # a strip: rank 1
@example(instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1]))     # open below
@example(instance([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                  [1, 1, 1, 1, 2], [1], [1, 1]))     # (1, 1) is tight on 3 rows
def test_vertex_readers_match_references(inst):
    """solve_qp gives the least value over the reference's vertices, or the
    same error and text, and _face_walk the reference's vertex list and
    their box."""
    try:
        want = reference_vertex_minimum(inst, reference.vertices(inst.polyhedron()))
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as got:
            solve_qp(inst)
        assert str(got.value) == str(err)
    else:
        got = solve_qp(inst)
        assert got == want and repr(got) == repr(want)
    verts = []
    with contextlib.suppress(InfeasibleError):
        reference.fmax_cont_witness(inst, verts)
    _, _, got_verts, box = oracles._face_walk(inst)
    assert got_verts == verts
    assert_vertex_box(box, verts)
