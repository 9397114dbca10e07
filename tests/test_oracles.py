import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import exact, oracles
from iqprox.errors import (ClaimViolation, InfeasibleError, InputError,
                           UnboundedError)
from iqprox.families import (build_example_1_1, build_ilp_tightness,
                             build_pr_tight, build_prop44, build_prop45,
                             build_prop46, random_instance)
from iqprox.oracles import (certify_no_cont_approx_within, delta_star,
                            fmax_cont, fmax_int, full_report, solve_iqp,
                            solve_qp, verdict)
from iqprox.pipeline import eval_objective, instance, run_pipeline
from iqprox.polyhedra import (bounding_box, contains, contains_int,
                              enumerate_lattice_points, enumerate_vertices,
                              intersect_with_box, lattice_runs)
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
    real = oracles.lattice_runs
    monkeypatch.setattr(oracles, "lattice_runs",
                        lambda *a: calls.append(a) or real(*a))
    inst = random_instance(3)
    rep = full_report(inst)
    assert len(calls) == 1
    assert calls[0][1] is not None  # the box came from the vertices
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
    assert ds.approx_points
    assert_fraction_points(ds.witness_opt, ds.witness_point, *ds.approx_points)


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


def reference_vertex_minimum(inst, verts):
    """The continuous optimum over Fraction vertices, f by eval_objective."""
    if not verts:
        raise InfeasibleError("feasible region is empty")
    vals = [(eval_objective(inst, v), v) for v in verts]
    best = min(v for v, _ in vals)
    ties = tuple(sorted(p for v, p in vals if v == best))
    return oracles.OptResult(ties[0], best, ties)


def subset_solve_vertices(P):
    """The vertices from one linear solve per n-row subset of the Fraction
    rows, once the LP bounding box shows P nonempty and bounded."""
    if bounding_box(P) is None:
        return []
    pts = set()
    for S in combinations(range(P.m), P.n):
        x = exact.solve_linear([P.A[i] for i in S], [P.b[i] for i in S])
        if x is not None and contains(P, x):
            pts.add(tuple(x))
    return sorted(pts)


def reference_full_report(inst):
    """full_report with the LP bounding box for the lattice walk and the
    vertices from one linear solve per n-row subset."""
    P = inst.polyhedron()
    pts = [tuple(map(F, p)) for p in enumerate_lattice_points(P)]
    if not pts:
        raise InfeasibleError("no integer point in the feasible region")
    iqp, fdi, wdi = reference_lattice_extremes(inst, pts)
    qp = reference_vertex_minimum(inst, subset_solve_vertices(P))
    fci, wci = oracles.fmax_cont_witness(inst)
    return oracles.OracleReport(iqp, qp, fdi, wdi, fci, wci)


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


def point_list_lattice_extremes(inst, pts):
    """_lattice_extremes over a list of lattice points: one int value per
    point, and the extremes read off the list."""
    q, h, d = oracles._integer_objective(inst)
    vals = [oracles._objective_numerator(q, h, p, 1) for p in pts]
    best, top = min(vals), max(vals)
    ties = tuple(sorted(tuple(map(F, p)) for p, v in zip(pts, vals) if v == best))
    wit = tuple(map(F, min(p for p, v in zip(pts, vals) if v == top)))
    return oracles.OptResult(ties[0], F(best, d), ties), F(top, d), wit


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
    pts = enumerate_lattice_points(P)
    assert pts == [(*p, v) for p, lo, hi in runs for v in range(lo, hi + 1)]
    # Each run is nonempty, maximal along the last coordinate, and the
    # prefixes increase.
    for p, lo, hi in runs:
        assert lo <= hi
        assert not contains_int(P, [*p, lo - 1], 1) and not contains_int(P, [*p, hi + 1], 1)
    assert all(a[0] < b[0] for a, b in zip(runs, runs[1:]))
    got = oracles._lattice_extremes(inst, runs)
    assert got == reference_lattice_extremes(inst, pts)
    assert got == point_list_lattice_extremes(inst, pts)
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


def rref_particular_solution(M, rhs):
    """One solution of M x = rhs, its free coordinates 0, and the rank of M,
    by Gauss-Jordan elimination on Fractions; None when inconsistent."""
    n = len(M[0])
    a = [[F(x) for x in row] + [F(b)] for row, b in zip(M, rhs)]
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if c == n:  # a pivot in the rhs column is the equation 0 = 1
            return None
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    x = [F(0)] * n
    for r, p in enumerate(pivots):
        x[p] = a[r][n]
    return x, len(pivots)


def fraction_fmax_cont_witness(inst):
    """fmax_cont_witness on the Fraction rows of P, one face at a time.

    Per subset S, exact.null_space of A_S and one rref_particular_solution
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
            sol = rref_particular_solution(rowsS + grad, [P.b[i] for i in S] + gval)
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
    monkeypatch.setattr(exact, "solve_linear", forbidden)
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
    rows, rhs = [list(r) for r in base.A], list(base.b)
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


@settings(max_examples=150, deadline=None)
@given(report_regions())
@example(instance([[1, 0], [-1, 0], [0, 1]], [2, 2, 2], [1], [0, 1]))   # open below
@example(instance([[1], [-1]], [F(1, 3), F(-1, 4)], [1], [0]))          # a vertex, no lattice point
def test_fmax_cont_witness_collects_vertices_of_polytopes(inst):
    """The list passed in ends with enumerate_vertices' points and their
    values on a polytope, and empty otherwise; (value, witness) is the same
    as without it."""
    try:
        want = enumerate_vertices(inst.polyhedron())
    except UnboundedError:
        want = []
    verts = []
    try:
        got = oracles.fmax_cont_witness(inst, verts)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            oracles.fmax_cont_witness(inst)
    else:
        assert got == oracles.fmax_cont_witness(inst)
    points = [tuple(F(x, e) for x in X) for X, e, _, _ in verts]
    assert sorted(set(points)) == want
    for p, (_, _, num, den) in zip(points, verts):
        assert eval_objective(inst, p) == F(num, den)


def combinations_fmax_cont_witness(inst, vertices=None):
    """fmax_cont_witness with one fresh elimination per row subset.

    Every subset S of at most n rows, in itertools.combinations' (size,
    lex) order, gets its own exact.solution_space_int of [A_S | b_S], and
    every independent one its stationarity solve, size n included; the
    skip rules, the vertex collection and the face LPs are the same.
    """
    P = inst.polyhedron()
    n, k = inst.n, inst.k
    rows, rhs = P.int_rows
    Q, H, d = oracles._integer_objective(inst)
    Q2 = [2 * c for c in Q] + [0] * (n - k)
    best = wit = None
    collect = vertices is not None
    for size in range(min(n, P.m) + 1):
        for S in combinations(range(P.m), size):
            hull = exact.solution_space_int([rows[i] for i in S],
                                            [rhs[i] for i in S], n)
            if hull is None or len(hull[1]) != n - size:  # S is dependent
                continue
            X0, W, L = hull
            if collect and size == n - 1:
                dots = [sum(map(mul, row, W[0])) for row in rows]
                collect = not (all(t <= 0 for t in dots) or all(t >= 0 for t in dots))
            QW = [list(map(mul, Q2, w)) for w in W]
            g = [L * c - qx for c, qx in zip(H, map(mul, Q2, X0))]
            stat = exact.solution_space_int(
                [[sum(map(mul, u, w)) for w in W] for u in QW],
                [sum(map(mul, w, g)) for w in W], n - size)
            if stat is None:
                continue
            Y, free, e2 = stat
            X = [x * e2 + sum(w[j] * y for w, y in zip(W, Y))
                 for j, x in enumerate(X0)]
            e = L * e2
            num, den = oracles._objective_numerator(Q, H, X, e), d * e * e
            vertex = collect and size == n
            if vertex:
                if not contains_int(P, X, e):
                    continue
                vertices.append((X, e, num, den))
            if best is not None and num * best[1] <= best[0] * den:
                continue
            if not free:
                if not vertex and not contains_int(P, X, e):
                    continue
                pt = [F(x, e) for x in X]
            else:
                lp_rows = [list(row) for row in P.A]
                lp_rhs = list(P.b)
                for i in S:
                    lp_rows.append([-c for c in P.A[i]])
                    lp_rhs.append(-P.b[i])
                for w in W:
                    w = [F(x, L) for x in w]
                    coeff = [2 * w[i] * inst.q[i] if i < k else F(0)
                             for i in range(n)]
                    val = exact.dot(w, inst.h)
                    lp_rows += [coeff, [-c for c in coeff]]
                    lp_rhs += [val, -val]
                pt = oracles.feasible_point(lp_rows, lp_rhs)
                if pt is None:
                    continue
                if eval_objective(inst, pt) != F(num, den):
                    raise ClaimViolation("face-constant",
                                         f"face {S}: f is not constant on E_S")
            best = (num, den)
            wit = tuple(pt)
    if best is None:
        raise InfeasibleError("feasible region is empty")
    return F(*best), wit


def face_walk_run(walk, inst, collect):
    """walk's (value, witness) or InfeasibleError message, its vertices as a
    multiset of (point, value), and its number of face LPs."""
    verts = [] if collect else None
    with mock.patch.object(oracles, "feasible_point", wraps=feasible_point) as lp:
        try:
            got = walk(inst, verts)
        except InfeasibleError as err:
            got = ("InfeasibleError", str(err))
    return got, Counter((tuple(F(x, e) for x in X), F(num, den))
                        for X, e, num, den in verts or []), lp.call_count


@pytest.mark.parametrize("collect", [False, True], ids=["value", "vertices"])
@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_objectives(), rational_regions(), report_regions()))
@face_examples
@example(build_prop44(F(1, 4), 3, n=5).instance)
@example(build_prop45(3, 1, F(1, 2)).instance)
@example(build_pr_tight(3, 1, 1, F(1, 2), F(2, 3)).instance)
@example(build_prop46(2, 2, F(1, 4)).instance)
def test_level_walk_matches_combinations_walk(collect, inst):
    """The level walk gives the combinations walk's (value, witness) or its
    InfeasibleError, its vertices and its number of face LPs.  The
    combinations walk solves every face, so the level walk's dominance skip
    is checked against it; the worst-case builders are where the skip fires
    on every face below the root."""
    assert (face_walk_run(oracles.fmax_cont_witness, inst, collect)
            == face_walk_run(combinations_fmax_cont_witness, inst, collect))


def face_walk_counts(monkeypatch, walk):
    """Stationarity solves, rows tried on an echelon and faces reached by
    walk(); the rows a stationarity solve adds to its own echelon are not
    counted."""
    counts = Counter()
    solving = []
    solve, extend = exact.solution_space_int, exact._extend_echelon

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
            counts["faces"] += ext is not None
        return ext

    monkeypatch.setattr(exact, "solution_space_int", counted_solve)
    monkeypatch.setattr(exact, "_extend_echelon", counted_extend)
    walk()
    return dict(counts)


def test_face_walk_counts_on_prop44(monkeypatch):
    """prop44 n = 8 has 16 rows in 8 opposite pairs, so an independent row
    set takes at most one row of each pair: 3^8 sets.  The walk tries 9,712
    rows to reach the 3^8 - 1 nonempty ones (a fresh walk tries every one
    of the 39,202 nonempty sets of at most 8 rows).  It makes one
    stationarity solve, the empty set's: that gives the unconstrained
    maximum of f, which the origin, a point of P, attains.  Every other
    face then lies under a bound no larger than the best value, so none of
    the 3^8 - 2^8 - 1 other sets of fewer than 8 rows is solved."""
    inst = build_prop44(F(1, 4), 3, n=8).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 1, "tried": 9712, "faces": 6560}


def test_face_walk_counts_on_pr_tight(monkeypatch):
    """pr-tight n = 3, like prop44, attains the unconstrained maximum in P,
    so the empty set's solve is the only one of its 19 sets of fewer than
    3 rows."""
    inst = build_pr_tight(3, 1, 1, F(1, 2), F(2, 3)).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 1, "tried": 35, "faces": 26}


def test_face_walk_counts_on_ilp_tightness(monkeypatch):
    """The ilp family maximizes x_1 (k = 0), and e_1 lies in the span of
    no set of fewer than 3 of its rows.  So every such set has an
    inconsistent stationarity system, no face gets a bound to pass on, and
    each of the 19 is solved."""
    inst = build_ilp_tightness(3, 2, F(1, 2)).instance
    assert face_walk_counts(monkeypatch, lambda: full_report(inst)) == {
        "solves": 19, "tried": 35, "faces": 26}


def verdict_loop_delta_star(inst, eps):
    """delta_star with one verdict call per lattice point."""
    eps = F(eps)
    report = full_report(inst)
    pts = enumerate_lattice_points(inst.polyhedron())
    qp = report.cont_opt
    approx = [tuple(map(F, p)) for p in pts
              if verdict(inst, p, eps, "integer", report).is_approx]
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
    return oracles.DeltaStarResult(best, pair[0], pair[1], tuple(approx), flag)


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_objectives(), report_regions()),
       st.fractions(-1, 2, max_denominator=6))
@example(box_instance([], [0], r=1), F(1, 2))        # f constant: degenerate
@example(box_instance([], [0], r=1), F(-1))
@example(build_example_1_1(3).instance, F(2, 7))     # ratio exactly eps
@example(box_instance([1], [0], r=2), F(-1, 3))      # no approximate point
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


def two_call_certify(inst, eps, xd, radius):
    """certify_no_cont_approx_within from separate solve_qp and fmax_cont calls."""
    eps = F(eps)
    qp = solve_qp(inst)
    fmax = fmax_cont(inst)
    tau = qp.value + eps * (fmax - qp.value)
    verts = enumerate_vertices(intersect_with_box(inst.polyhedron(), exact.vec(xd), radius))
    if not verts:
        return True
    return min(eval_objective(inst, v) for v in verts) > tau


def assert_same_certificate(inst, eps, xd, radius):
    try:
        want = two_call_certify(inst, eps, xd, radius)
    except (InfeasibleError, UnboundedError) as err:
        with pytest.raises(type(err)) as got:
            certify_no_cont_approx_within(inst, eps, xd, radius)
        assert str(got.value) == str(err)
        return
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
def test_certificate_matches_two_call_form(inst, eps, xd, radius):
    assert_same_certificate(inst, eps, xd[:inst.n], radius)
