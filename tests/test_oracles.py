import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, oracles
from iqprox.errors import ClaimViolation, InfeasibleError, InputError
from iqprox.families import (build_example_1_1, build_prop44, build_prop45,
                             build_prop46, random_instance)
from iqprox.oracles import (certify_no_cont_approx_within, delta_star,
                            fmax_cont, fmax_int, full_report, solve_iqp,
                            solve_qp, verdict)
from iqprox.pipeline import eval_objective, instance, run_pipeline
from iqprox.polyhedra import contains, enumerate_lattice_points
from iqprox.simplex import feasible_point


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


def test_delta_star_prop45():
    fam = build_prop45(2, 1, F(1, 2))
    ds = delta_star(fam.instance, F(1, 2))
    assert ds.value == F(14, 3)
    assert ds.approx_points == ((F(-2), F(0)),)
    assert not ds.upper_bound_only


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


def test_full_report_enumerates_lattice_once(monkeypatch):
    calls = []
    real = oracles.enumerate_lattice_points
    monkeypatch.setattr(oracles, "enumerate_lattice_points",
                        lambda P: calls.append(P) or real(P))
    inst = random_instance(3)
    rep = full_report(inst)
    assert len(calls) == 1
    assert rep.int_opt == solve_iqp(inst)
    assert (rep.fmax_int, rep.fmax_int_witness) == oracles.fmax_int_witness(inst)


def reference_lattice_extremes(inst, pts):
    """_lattice_extremes with every value an eval_objective Fraction."""
    vals = [eval_objective(inst, p) for p in pts]
    best, top = min(vals), max(vals)
    ties = tuple(sorted(p for p, v in zip(pts, vals) if v == best))
    wit = min(p for p, v in zip(pts, vals) if v == top)
    return oracles.OptResult(ties[0], best, ties), top, wit


@st.composite
def rational_objectives(draw):
    """A random_instance region with a fresh rational q and h."""
    base = random_instance(draw(st.integers(0, 10 ** 6)))
    k = draw(st.integers(0, base.n))
    q = [draw(st.fractions(F(1, 6), 4, max_denominator=6)) for _ in range(k)]
    h = [draw(st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=6)))
         for _ in range(base.n)]
    return instance(base.A, base.b, q, h, k)


@settings(max_examples=150, deadline=None)
@given(rational_objectives())
@example(box_instance([1], [0], r=2))                 # tied minimizers
@example(box_instance([F(1, 3), F(1, 2)], [F(1, 6), F(-5, 4)]))
def test_lattice_extremes_match_eval_objective(inst):
    pts = enumerate_lattice_points(inst.polyhedron())
    got = oracles._lattice_extremes(inst, pts)
    assert got == reference_lattice_extremes(inst, pts)
    opt, top, wit = got
    assert type(opt.value) is F and type(top) is F
    assert all(type(v) is F for p in opt.ties + (wit,) for v in p)


def reference_fmax_cont_witness(inst):
    """fmax_cont_witness with one exact LP per independent row subset S.

    The LP {A x <= b, A_S x = b_S, W^T grad f(x) = 0} decides every face;
    its point is the candidate.
    """
    P = inst.polyhedron()
    n = inst.n
    best = wit = None
    for size in range(min(n, P.m) + 1):
        for S in combinations(range(P.m), size):
            W = exact.null_space([list(P.A[i]) for i in S], n)
            if len(W) != n - size:
                continue
            rows = [list(r) for r in P.A]
            rhs = list(P.b)
            for i in S:
                rows.append([-c for c in P.A[i]])
                rhs.append(-P.b[i])
            for w in W:
                coeff = [2 * w[i] * inst.q[i] if i < inst.k else F(0)
                         for i in range(n)]
                val = exact.dot(w, inst.h)
                rows += [coeff, [-c for c in coeff]]
                rhs += [val, -val]
            pt = feasible_point(rows, rhs)
            if pt is None:
                continue
            v = eval_objective(inst, pt)
            if best is None or v > best:
                best, wit = v, tuple(pt)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return best, wit


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


def assert_same_fmax_cont(inst, reference):
    """fmax_cont_witness gives reference's (value, witness) or its InfeasibleError."""
    try:
        want = reference(inst)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            oracles.fmax_cont_witness(inst)
        return
    got = oracles.fmax_cont_witness(inst)
    assert got == want
    assert type(got[0]) is F and all(type(v) is F for v in got[1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions()))
@face_examples
def test_fmax_cont_witness_matches_lp_per_face(inst):
    assert_same_fmax_cont(inst, reference_fmax_cont_witness)


def fraction_fmax_cont_witness(inst):
    """fmax_cont_witness on the Fraction rows of P, one face at a time.

    Per subset S, exact.null_space of A_S and one exact.particular_solution
    of E_S = [A_S; W^T 2Q] x = [b_S; W^T h], visited in the same order with
    the same skip rules; the value is an eval_objective Fraction.
    """
    P = inst.polyhedron()
    n = inst.n
    best = wit = None
    for size in range(min(n, P.m) + 1):
        for S in combinations(range(P.m), size):
            rowsS = [list(P.A[i]) for i in S]
            W = exact.null_space(rowsS, n)
            if len(W) != n - size:
                continue
            grad = [[2 * w[i] * inst.q[i] if i < inst.k else F(0)
                     for i in range(n)] for w in W]
            gval = [exact.dot(w, inst.h) for w in W]
            sol = exact.particular_solution(rowsS + grad,
                                            [P.b[i] for i in S] + gval)
            if sol is None:
                continue
            x, r = sol
            v = eval_objective(inst, x)
            if best is not None and v <= best:
                continue
            if r == n:
                if not contains(P, x):
                    continue
                pt = x
            else:
                rows = [list(row) for row in P.A]
                rhs = list(P.b)
                for i in S:
                    rows.append([-c for c in P.A[i]])
                    rhs.append(-P.b[i])
                for coeff, val in zip(grad, gval):
                    rows += [coeff, [-c for c in coeff]]
                    rhs += [val, -val]
                pt = feasible_point(rows, rhs)
                if pt is None:
                    continue
            best, wit = v, tuple(pt)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return best, wit


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions()))
@face_examples
def test_fmax_cont_witness_matches_fraction_elimination(inst):
    assert_same_fmax_cont(inst, fraction_fmax_cont_witness)


def test_fmax_cont_witness_calls_no_fraction_kernel(monkeypatch):
    """The face loop runs on int rows: no null space, no Fraction solve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("fmax_cont_witness left the int rows")

    monkeypatch.setattr(exact, "null_space", forbidden)
    monkeypatch.setattr(exact, "particular_solution", forbidden)
    inst = box_instance([1, F(1, 2)], [F(1, 2), -1])
    assert oracles.fmax_cont_witness(inst) == (F(9, 16), (F(1, 4), F(-1)))


@pytest.mark.parametrize("inst, lps", [
    # k = n: every E_S has full rank.
    (box_instance([1, F(1, 2)], [F(1, 2), -1]), 0),
    # h_1 != 0 on the linear coordinate: every rank-deficient E_S holds 0 = 1.
    (box_instance([1], [F(1, 2), 1]), 0),
    # h_1 = 0: the face P itself reaches the LP; every later face ties it.
    (box_instance([1], [F(1, 2), 0]), 1),
])
def test_fmax_cont_witness_face_lps(monkeypatch, inst, lps):
    calls = []
    monkeypatch.setattr(oracles, "feasible_point",
                        lambda A, b: calls.append(A) or feasible_point(A, b))
    assert oracles.fmax_cont_witness(inst) == reference_fmax_cont_witness(inst)
    assert len(calls) == lps


def test_fmax_cont_witness_face_constant_claim(monkeypatch):
    # The LP of the face P itself returns a point where f is not v_S = 1/16.
    inst = box_instance([1], [F(1, 2), 0])
    monkeypatch.setattr(oracles, "feasible_point", lambda A, b: [F(3), F(0)])
    with pytest.raises(ClaimViolation) as err:
        oracles.fmax_cont_witness(inst)
    assert err.value.claim == "face-constant"
