import math
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqprox import cones, exact, formats, pipeline, polyhedra
from iqprox.cones import ConicDecomposition, build_cone
from iqprox.errors import ClaimViolation, DimensionError, InputError
from iqprox.families import (build_example_1_1, build_pbar, build_prop44,
                             build_prop45, build_prop46, pbar_params, random_instance)
from iqprox.oracles import (claim_cross_checks, full_report, solve_iqp, solve_qp,
                            verdict)
from iqprox.pipeline import (Instance, StepRecord, build_sequence, compute_schedule,
                             construct_outputs, eval_objective, instance, midpoint_witnesses, normalize,
                             one_step, restricted_polyhedron, run_pipeline,
                             subdeterminant_bound)
from iqprox.polyhedra import contains, polyhedron

import reference
from reference import (objective, rational_rows, reference_compute_schedule,
                       reference_normalized_h,
                       reference_normalized_rhs, reference_one_step,
                       reference_restricted_polyhedron, reference_run_pipeline)


def test_instance_validation():
    with pytest.raises(InputError):
        instance([[F(1, 2)]], [1], [1], [0])  # non-integer A
    with pytest.raises(InputError):
        instance([[1]], [1], [0], [0])  # q must be positive
    with pytest.raises(InputError):
        instance([[1]], [1], [1, 1], [0])  # too many quadratic terms
    with pytest.raises(InputError):
        instance([[1]], [1, 2], [1], [0])  # row/rhs mismatch
    with pytest.raises(InputError):
        instance([], [], [], [])  # no variable


def test_instance_views_are_its_inputs():
    """An instance holds its polyhedron as int rows A_i den(b_i) <= num(b_i);
    A and b read back are the inputs, as Fractions, and a saved instance
    keeps the digest it had when A and b were stored."""
    A = [[1, -2], [0, 0], [-3, 1]]
    b = [F(7, 2), 0, F(-5, 6)]
    inst = instance(A, b, [F(1, 3)], [0, 1])
    assert inst.polyhedron().int_rows == (((2, -4), (0, 0), (-18, 6)), (7, 0, -5))
    rA, rb = rational_rows(inst.P)
    assert [list(row) for row in rA] == A and list(rb) == b
    assert all(type(x) is F for x in (*rb, *(x for row in rA for x in row)))
    assert inst.m == 3
    fam = build_prop46(3, 2, F(1, 5)).instance
    assert (formats.instance_digest(fam)
            == "d989da63736ccdda25668fba23941c462963304bbfaab88376363a828c70d7ee")


def test_eval_objective():
    inst = instance([[1], [-1]], [2, 2], [1], [F(1, 2)])
    assert eval_objective(inst, [F(2)]) == -4 + 1
    assert eval_objective(inst, [F(0)]) == 0


def test_schedule_smallest_case():
    s = compute_schedule(1, 1, 1, 1)
    assert s.chi == (F(10),)
    assert s.psi == (F(10),)
    assert s.theorem_bound == 11
    assert s.psi[0] + 1 == s.theorem_bound  # equality point


def test_schedule_values():
    s = compute_schedule(2, 1, 1, F(1, 2))
    assert s.chi == (F(36),)
    assert s.theorem_bound == 42


def test_schedule_recurrence():
    s = compute_schedule(2, 2, 3, F(1, 2))
    nd = F(4)
    acc = F(0)
    for j, chi in enumerate(s.chi):
        if j == 0:
            assert chi == 8 * nd * 2 + 2 * nd
        else:
            assert chi == 2 * nd + 8 * 2 * (acc + nd)
        acc += 2 * chi
        assert s.psi[j] == acc
    assert s.psi[-1] + nd <= s.theorem_bound


def test_schedule_eps_range():
    with pytest.raises(InputError):
        compute_schedule(1, 1, 1, 0)
    with pytest.raises(InputError):
        compute_schedule(1, 1, 1, F(3, 2))


@pytest.mark.parametrize("eps", [0.1, "abc", True, None, "1/2"])
def test_schedule_takes_only_an_int_or_a_fraction(eps):
    """A float would be read as its binary value (0.1 as
    3602879701896397/36028797018963968) and a string parsed or failed with
    a bare ValueError; each is an InputError."""
    with pytest.raises(InputError):
        compute_schedule(1, 1, 1, eps)


def test_schedule_bad_parameters():
    """Out of range, or not an int (a float n or delta would make the
    bound a non-integral number or a float)."""
    for n, delta, k in ((0, 1, 1), (1, 0, 1), (1, 1, -1),
                        (1.5, 1, 1), (2, 1.5, 1), (2, 1, 1.0), (True, 1, 1)):
        with pytest.raises(InputError):
            compute_schedule(n, delta, k, F(1, 2))


@st.composite
def schedule_parameters(draw):
    """(n, delta, k, eps): n 1-8, delta 1-6, k 0-n and eps = p/q with
    1 <= p <= q <= 10^6."""
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 10**6))
    return n, draw(st.integers(1, 6)), draw(st.integers(0, n)), F(draw(st.integers(1, q)), q)


@settings(max_examples=200, deadline=None)
@given(schedule_parameters())
@example((1, 1, 1, F(1)))
@example((3, 2, 3, F(1, 10)))
@example((8, 6, 8, F(999999, 1000000)))
def test_schedule_matches_fraction_reference(params):
    """Every field of the int schedule equals the Fraction recurrence's,
    and every field that is a number is a Fraction."""
    got = compute_schedule(*params)
    assert got == reference_compute_schedule(*params)
    assert all(type(x) is F for x in (got.eps, got.theorem_bound, *got.chi, *got.psi))


def test_schedule_k_zero():
    s = compute_schedule(3, 2, 0, F(1, 2))
    assert s.chi == ()
    assert s.theorem_bound == 6


def test_normalize_moves_anchor_to_origin():
    fam = build_example_1_1(3)
    norm, shift = normalize(fam.instance, [F(-3)])
    assert shift == (-3,) and type(shift[0]) is int
    assert rational_rows(norm.P)[1] == (F(27, 4), F(0))
    assert norm.h == (F(13, 2),)
    assert eval_objective(norm, [F(0)]) == 0
    # shifted objective equals the original up to the constant f(xd)
    f_xd = eval_objective(fam.instance, [F(-3)])
    for y in (F(1), F(5, 2), F(4)):
        assert (eval_objective(norm, [y])
                == eval_objective(fam.instance, [y - 3]) - f_xd)


def test_normalize_rejects_bad_anchor():
    fam = build_example_1_1(3)
    with pytest.raises(InputError):
        normalize(fam.instance, [F(1, 2)])
    with pytest.raises(InputError):
        normalize(fam.instance, [F(-10)])
    with pytest.raises(DimensionError):
        normalize(fam.instance, [F(-3), F(0)])


def test_restricted_polyhedron():
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2],
                    [1, 1], [0, 0])
    P = restricted_polyhedron(inst, {1})
    assert contains(P, [F(1), F(0)])
    assert not contains(P, [F(1), F(1)])


def test_one_step_zeroes_smallest_coordinate():
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [8, 0, 3, 0],
                    [1, 1], [0, 0], k=2)
    (XB, dB), rec = one_step(inst, ([5, 2], 1), frozenset(), 1)
    xb = [F(x, dB) for x in XB]
    assert rec.s == 1
    assert rec.x_j == (F(5), F(2))
    assert xb[1] == 0
    assert exact.inf_norm(exact.vec_sub([F(5), F(2)], xb)) <= 2
    assert contains(inst.polyhedron(), xb)


def test_one_step_requires_progress_room():
    inst = instance([[1], [-1]], [3, 3], [1], [0], k=1)
    with pytest.raises(InputError):
        # small-norm holds, caller should have stopped
        one_step(inst, ([2], 1), frozenset(), 1)


def test_pipeline_example_small_eps_case_c1():
    fam = build_example_1_1(3)
    res = run_pipeline(fam.instance, F(1, 2), xc=[F(15, 4)], xd=[F(-3)])
    assert res.case == "c1"
    assert res.x_star_int == (F(-3),)
    assert res.x_star_cont == (F(15, 4),)
    assert res.distance_int == F(27, 4)
    assert res.schedule.theorem_bound == 21
    assert res.trace[-1].termination_reason == "small-norm"
    assert res.witnesses is None and res.normalized.witnesses is None


def test_pipeline_large_t_case_c2():
    fam = build_example_1_1(30)
    res = run_pipeline(fam.instance, F(1), xc=[F(123, 4)], xd=[F(-30)])
    assert res.case == "c2"
    assert res.trace[-1].termination_reason == "all-large"
    assert res.x_star_int == (F(30),)
    assert res.distance_int == F(3, 4)
    # continuous output lands next to the integer anchor -30
    assert res.x_star_cont == (F(-117, 4),)
    assert res.distance_int <= res.schedule.theorem_bound == 11


def test_pipeline_k0_reaches_cook_bound():
    for seed in range(25):
        inst = random_instance(seed, k_max=0)
        rep = full_report(inst)
        res = run_pipeline(inst, F(1, 2), rep.cont_opt.point, rep.int_opt.point)
        nd = inst.n * res.delta
        assert res.schedule.theorem_bound == nd
        assert res.distance_int <= nd


def test_midpoint_witnesses_on_c2_run():
    fam = build_example_1_1(30)
    res = run_pipeline(fam.instance, F(1), xc=[F(123, 4)], xd=[F(-30)])
    w = res.witnesses
    assert w is not None
    # floored coefficient 60 is even, so both split points coincide
    assert w.x_l == w.x_r == (F(30),)
    assert w.x_tri == (F(30),)


def test_subdeterminant_bound_floors_at_one():
    inst = instance([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
                    [1, 1, 1, 1, 1], [], [1, 1], k=0)
    assert subdeterminant_bound(inst) == 1


def rows_kept(cone, P) -> bool:
    """Every row of the cone is a row of P's int rows itself, not a copy."""
    ids = set(map(id, P.int_rows[0]))
    return all(id(r) in ids for r in cone.a1 + cone.a2)


def assert_fresh_int_rows(P, x):
    """P's int rows, passed down from a parent, are the ones P would
    compute itself, and the cone at x against the origin keeps them."""
    assert P.int_rows == polyhedron(*rational_rows(P), P.n).int_rows
    assert rows_kept(build_cone(P.int_rows[0], exact.integer_vector(x)[0]), P)


def test_normalize_and_restriction_match_fraction_reference():
    rng = random.Random(4)
    for seed in range(30):
        inst = random_instance(seed)
        xd = solve_iqp(inst).point
        norm, _ = normalize(inst, xd)
        rb = rational_rows(norm.P)[1]
        assert rb == reference_normalized_rhs(inst, xd)
        assert all(type(x) is F for x in rb)
        assert norm.h == reference_normalized_h(inst, xd)
        assert all(type(x) is F for x in norm.h) and norm.q == inst.q
        assert_fresh_int_rows(norm.polyhedron(), [F(rng.randint(-3, 3), 2)] * inst.n)
        for zset in ({0}, set(range(inst.n)), set()):
            P = restricted_polyhedron(norm, zset)
            assert P == reference_restricted_polyhedron(norm, zset)
            rA, rb = rational_rows(P)
            assert all(type(x) is F for r in rA for x in r)
            assert all(type(x) is F for x in rb)
            x = [F(0) if i in zset else F(rng.randint(-3, 3), rng.randint(1, 3))
                 for i in range(inst.n)]
            assert_fresh_int_rows(P, x)
    # a rational row, which `instance` rejects, still shifts exactly, and
    # keeps its scale: lcm(2, den 3/2) = lcm(2, den 3) = 2
    inst = Instance(polyhedron([[F(1, 2), 1], [-1, 0]], [3, 2]), 0, (), (F(0), F(0)))
    norm, _ = normalize(inst, [F(-1), F(2)])
    assert (rational_rows(norm.P)[1] == reference_normalized_rhs(inst, [F(-1), F(2)])
            == (F(3, 2), F(1)))
    assert norm.polyhedron().int_rows == (((1, 2), (-1, 0)), (3, 1))
    assert_fresh_int_rows(norm.polyhedron(), [F(1, 3), F(-2)])
    for zset in ({0}, {1}, {0, 1}):
        assert_fresh_int_rows(restricted_polyhedron(norm, zset), [F(0), F(1, 2)])


def block_product(widths, k):
    """Example 1.1 blocks x_i in [-t_i, t_i + 3/4], one per width t_i, with
    the objective -(x_i - 1/4)^2 (up to a constant) on the first k blocks
    and none on the rest.  Each block's own anchors, x_c = t_i + 3/4 and
    x_d = -t_i, are optimal for the product."""
    n = len(widths)
    A, b = [], []
    for i, t in enumerate(widths):
        e = [int(j == i) for j in range(n)]
        A += [e, [-x for x in e]]
        b += [t + F(3, 4), t]
    return instance(A, b, [1] * k, [F(1, 2)] * k + [0] * (n - k), k)


def box_product(t):
    return block_product((0, t), 2)


@pytest.mark.parametrize("t", [100, 300])
def test_box_product_reaches_c2_after_a_step(t):
    """The box [0, 3/4] x [-t, t + 3/4] with q = (1, 1), h = (1/2, 1/2),
    that is f = -(x_1 - 1/4)^2 - (x_2 - 1/4)^2 up to a constant.  One step
    zeroes the short coordinate; at eps = 1 the long one is past chi_1 and
    the run ends in case c-2 at ell = 1 with N_1 = {1}, on a restricted
    polyhedron whose +-e_0 rows are tied at x_1, so every generator has
    g_0 = 0.  At eps = 1/2, chi_2 = 612 > 2t and the run stops in c-1."""
    inst = box_product(t)
    rep = full_report(inst)
    for eps, case, reason in ((F(1), "c2", "all-large"), (F(1, 2), "c1", "small-norm")):
        res = run_pipeline(inst, eps, rep.cont_opt.point, rep.int_opt.point)
        last = res.trace[-1]
        assert (res.case, last.j, last.n_set, last.termination_reason) == (
            case, 1, frozenset({1}), reason)
        assert verdict(inst, res.x_star_int, eps, "integer", rep).is_approx
        assert verdict(inst, res.x_star_cont, eps, "continuous", rep).is_approx
        claim_cross_checks(inst, res, rep)
    assert res.trace[0].s == 0
    c2 = run_pipeline(inst, F(1), rep.cont_opt.point, rep.int_opt.point)
    assert c2.normalized.z_ell == frozenset({0})
    assert all(g[0] == 0 for g in c2.decomposition.generators)


def test_block_products_reach_every_cell():
    """Cells (case, ell, termination, N_ell nonempty) on seed-fixed products
    of 1-3 example 1.1 blocks with their own anchors: widths drawn from 0
    to 3000 and sorted, k from 1 to n.  A block past chi_ell ends the run
    in case c-2 at ell >= 1 with N_ell its coordinate.  A block without
    objective keeps the norm large while every quadratic coordinate is
    zeroed, and the run ends in case c-2 with N_ell empty."""
    rng = random.Random(0)
    cells = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        widths = sorted(rng.choice((0, 1, 3, 10, 30, 100, 300, 1000, 3000))
                        for _ in range(n))
        inst = block_product(widths, k)
        xc, xd = [t + F(3, 4) for t in widths], [F(-t) for t in widths]
        for eps in (F(1, 10), F(1, 2), F(1)):
            res = run_pipeline(inst, eps, xc, xd)
            last = res.trace[-1]
            cells[res.case, last.j, last.termination_reason, bool(last.n_set)] += 1
    assert cells == {
        ("c1", 0, "small-norm", True): 62,
        ("c1", 1, "small-norm", True): 34,
        ("c1", 2, "small-norm", True): 46,
        ("c2", 0, "all-large", True): 151,
        ("c2", 1, "all-large", False): 107,
        ("c2", 1, "all-large", True): 21,
        ("c2", 2, "all-large", False): 26,
        ("c2", 2, "all-large", True): 3,
    }


@pytest.mark.parametrize("n", [6, 7, 8])
def test_prop44_deep_zeroing_sequence(n):
    """The only runs that take n - 1 one_steps in a row, zeroing one
    coordinate each (claims onestep-i/ii/iii, xell-step, zero-growth, xell-b)."""
    fam = build_prop44(F(1, 4), 3, n)
    res = run_pipeline(fam.instance, F(1, 4), xc=fam.expected["xc"], xd=fam.expected["xd"])
    assert res.case == "c1"
    assert res.trace[-1].j == n - 1
    assert res.delta == 3
    assert [len(rec.z_set) for rec in res.trace] == list(range(n))
    assert all(rec.s is not None for rec in res.trace)
    assert res.distance_int <= res.schedule.theorem_bound
    assert res.distance_cont <= res.schedule.theorem_bound


def strip_instance(rng):
    """A strip polytope (n 2-4, Delta 1-3, t 0-4, beta in (0, 1)) with k
    quadratic terms and random rational q and h."""
    n = rng.randint(2, 4)
    p = pbar_params(n, rng.randint(1, 3), rng.randint(0, 4), F(rng.randint(1, 9), 10))
    A, b = rational_rows(build_pbar(p))
    k = rng.randint(1, n)
    q = [F(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(k)]
    h = [F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
    return instance(A, b, q, h, k)


def test_strip_instances_reach_every_cell():
    """Cells (case, ell, termination, N_ell nonempty) of the construction on
    seed-fixed strip instances, anchors from the oracles.  Case c-2 with
    ell >= 1 or with a nonempty N_ell is not reached by this generator."""
    rng = random.Random(0)
    cells = Counter()
    for _ in range(80):
        inst = strip_instance(rng)
        rep = full_report(inst)
        for eps in (F(1, 10), F(1, 2), F(1)):
            res = run_pipeline(inst, eps, rep.cont_opt.point, rep.int_opt.point)
            assert verdict(inst, res.x_star_int, eps, "integer", rep).is_approx
            assert verdict(inst, res.x_star_cont, eps, "continuous", rep).is_approx
            claim_cross_checks(inst, res, rep)
            last = res.trace[-1]
            cells[res.case, last.j, last.termination_reason, bool(last.n_set)] += 1
    assert cells == {
        ("c1", 0, "small-norm", True): 96,
        ("c1", 1, "small-norm", True): 48,
        ("c1", 2, "small-norm", True): 39,
        ("c1", 3, "small-norm", True): 6,
        ("c2", 0, "all-large", False): 51,
    }


def anchored(inst, eps, xc=None, xd=None):
    """(inst, eps, xc, xd), the anchors from the oracles unless given."""
    if xc is None:
        xc, xd = solve_qp(inst).point, solve_iqp(inst).point
    return inst, F(eps), xc, xd


@st.composite
def random_runs(draw):
    inst = random_instance(draw(st.integers(0, 2**30)), n_max=4)
    return anchored(inst, draw(st.sampled_from([F(1, 10), F(1, 2), F(1)])))


def point_fields(result):
    return [result.x_ell, result.x_star_int, result.x_star_cont, result.xc, result.xd,
            *(getattr(result.witnesses, f) for f in ("x_tri", "x_l", "x_r", "x_dia")
              if result.witnesses is not None)]


EX3 = build_example_1_1(3)
EX11 = build_example_1_1(30)
PROP44 = build_prop44(F(1, 4), 3, 5)
PROP45 = build_prop45(3, 1, F(1, 2))


@settings(max_examples=60, deadline=None)
@given(random_runs())
# case c-2 at ell = 0 with one generator, and case c-1 at ell = 0
@example(anchored(EX11.instance, 1, [F(123, 4)], [F(-30)]))
@example(anchored(EX3.instance, F(1, 2), [F(15, 4)], [F(-3)]))
# normalized x_c = 243/4 = chi_1 = 8/eps + 2: both stop tests at their boundary
@example(anchored(EX11.instance, F(32, 235), [F(123, 4)], [F(-30)]))
# case c-2 at ell = 1 (eps = 1) and case c-1 at ell = 1 (eps = 1/2)
@example(anchored(box_product(100), 1))
@example(anchored(box_product(300), 1))
@example(anchored(box_product(100), F(1, 2)))
# case c-1 at ell = 2 and at ell = 4
@example(anchored(PROP45.instance, F(1, 2), PROP45.expected["xc"], PROP45.expected["xd"]))
@example(anchored(PROP44.instance, F(1, 4), PROP44.expected["xc"], PROP44.expected["xd"]))
def test_run_pipeline_matches_fraction_reference(case):
    """Every field of the result, of its normalized result and of the
    witnesses equals the Fraction construction's, every point entry is a
    Fraction, or both raise the same claim."""
    try:
        want = reference_run_pipeline(*case)
    except ClaimViolation as err:
        with pytest.raises(ClaimViolation) as got:
            run_pipeline(*case)
        assert got.value.claim == err.claim
        return
    got = run_pipeline(*case)
    assert got == want
    assert got.normalized == want.normalized
    assert got.normalized.witnesses == want.normalized.witnesses
    for res in (got, got.normalized):
        assert all(type(x) is F for v in point_fields(res) for x in v)
        assert all(type(x) is F for x in (res.distance_int, res.distance_cont))


def test_reference_examples_reach_every_case():
    """The examples above reach case c-2 at ell = 0 and 1 and case c-1 at
    ell = 0, 1, 2 and 4."""
    cells = set()
    for case in (anchored(EX11.instance, 1, [F(123, 4)], [F(-30)]),
                 anchored(EX3.instance, F(1, 2), [F(15, 4)], [F(-3)]),
                 anchored(box_product(100), 1), anchored(box_product(100), F(1, 2)),
                 anchored(PROP45.instance, F(1, 2), PROP45.expected["xc"],
                          PROP45.expected["xd"]),
                 anchored(PROP44.instance, F(1, 4), PROP44.expected["xc"],
                          PROP44.expected["xd"])):
        res = run_pipeline(*case)
        cells.add((res.case, res.trace[-1].j))
    assert cells == {("c2", 0), ("c2", 1), ("c1", 0), ("c1", 1), ("c1", 2), ("c1", 4)}


# -- each claim of the rounding step and the witnesses, on one bad input ---

def ex11_run():
    """Example 1.1 at t = 30, eps = 1: case c-2 at ell = 0.  Normalized,
    P = [0, 243/4], x_ell = x_c = 243/4, n*delta = 1 and chi_0 = 10; the
    decomposition is 243/4 times the generator (1)."""
    return run_pipeline(EX11.instance, F(1), [F(123, 4)], [F(-30)])


@pytest.mark.parametrize("generators, coefficients, claim", [
    ([(F(1, 2),)], [F(243, 2)], "xstar-integrality"),
    ([(F(1),)], [F(251, 4)], "floor-residual"),      # x* = 62, 5/4 from x_ell
    ([(F(1),)], [F(245, 4)], "xstar-membership"),    # x* = 61 > 243/4
])
def test_run_pipeline_claims_on_a_corrupted_decomposition(monkeypatch, generators,
                                                          coefficients, claim):
    monkeypatch.setattr(pipeline, "caratheodory_decompose",
                        lambda target, gens: ConicDecomposition(generators, coefficients))
    with pytest.raises(ClaimViolation) as err:
        ex11_run()
    assert err.value.claim == claim


def test_run_pipeline_theorem_bound_on_a_corrupted_schedule(monkeypatch):
    schedule = compute_schedule
    monkeypatch.setattr(pipeline, "compute_schedule",
                        lambda *args: replace(schedule(*args), theorem_bound=F(1, 2)))
    with pytest.raises(ClaimViolation) as err:
        ex11_run()  # distance 3/4
    assert err.value.claim == "theorem-bound"
    assert str(err.value).endswith("integer output beyond the proven distance")


@pytest.mark.parametrize("bound", [F(37, 50), F(3, 4)])
def test_run_pipeline_theorem_bound_at_the_distance(monkeypatch, bound):
    """The integer bound check, compared in ints, fires on a bound just
    below the distance 3/4 and holds on one equal to it."""
    schedule = compute_schedule
    monkeypatch.setattr(pipeline, "compute_schedule",
                        lambda *args: replace(schedule(*args), theorem_bound=bound))
    if bound == F(3, 4):
        assert ex11_run().distance_int == bound
        return
    with pytest.raises(ClaimViolation) as err:
        ex11_run()
    assert str(err.value).endswith("integer output beyond the proven distance")


def test_run_pipeline_continuous_theorem_bound(monkeypatch):
    """construct_outputs gives distance_cont = distance_int, so only a
    corrupted result reaches the continuous bound check."""
    outputs = pipeline.construct_outputs
    monkeypatch.setattr(pipeline, "construct_outputs",
                        lambda *args: replace(outputs(*args), distance_cont=F(12)))
    with pytest.raises(ClaimViolation) as err:
        ex11_run()  # distance_int 3/4, bound 11
    assert err.value.claim == "theorem-bound"
    assert str(err.value).endswith("continuous output beyond the proven distance")


@pytest.mark.parametrize("distance", [F(1101, 100), F(11)])
def test_run_pipeline_continuous_theorem_bound_at_the_bound(monkeypatch, distance):
    """The continuous bound check, compared in ints, fires on a distance
    just beyond the bound 11 and holds on one equal to it."""
    outputs = pipeline.construct_outputs
    monkeypatch.setattr(pipeline, "construct_outputs",
                        lambda *args: replace(outputs(*args), distance_cont=distance))
    if distance == 11:
        assert ex11_run().distance_cont == 11
        return
    with pytest.raises(ClaimViolation) as err:
        ex11_run()
    assert str(err.value).endswith("continuous output beyond the proven distance")


@pytest.mark.parametrize("rejected, claim", [
    (1, "xstar-feasible"),    # the integer output, over 1
    (4, "xstarc-feasible"),   # the continuous output, over the 4 of x_c = 123/4
])
def test_run_pipeline_output_feasibility_claims(monkeypatch, rejected, claim):
    """The example 1.1 run with every membership test over the denominator
    `rejected` failing once construct_outputs has returned."""
    outputs, member = pipeline.construct_outputs, pipeline.contains_int
    done = []

    def construct(*args):
        res = outputs(*args)
        done.append(True)
        return res

    monkeypatch.setattr(pipeline, "construct_outputs", construct)
    monkeypatch.setattr(pipeline, "contains_int",
                        lambda P, X, D: not (done and D == rejected) and member(P, X, D))
    with pytest.raises(ClaimViolation) as err:
        ex11_run()
    assert err.value.claim == claim


@pytest.mark.parametrize("moved, claim, message", [
    # x_1 21 further from x_0, beyond delta * chi_0 = 20
    pytest.param(21, "xell-step", "step 0 exceeded delta*chi_1", id="21-xell-step"),
    pytest.param(None, "zero-growth", "zero set did not grow",  # x_1 = x_0
                 id="None-zero-growth"),
    # x_1 one further along e_1, so x_c - x_1 = (3/4, -1) is below the
    # normalized box, whose e_1 range starts at 0
    pytest.param(-1, "xell-a", "x^c - x^1 left the polyhedron", id="-1-xell-a"),
])
def test_build_sequence_claims_on_a_corrupted_step(monkeypatch, moved, claim, message):
    """The box product run (c2_run), normalized x_c = (3/4, 803/4), whose
    one step zeroes the first coordinate, with that step corrupted."""
    step = one_step

    def corrupted(inst, xa, zset, delta):
        (X, d), rec = step(inst, xa, zset, delta)
        return (xa if moved is None else ([X[0], X[1] - moved * d], d)), rec

    monkeypatch.setattr(pipeline, "one_step", corrupted)
    with pytest.raises(ClaimViolation) as err:
        run_pipeline(*c2_run("box-100"))
    assert err.value.claim == claim
    assert str(err.value) == f"claim {claim} violated: {message}"


class UncheckedEps(F):
    """A Fraction that passes the range check eps <= 1 whatever its value."""

    def __le__(self, other):
        return True


def test_compute_schedule_bound_claim(monkeypatch):
    """schedule-bound on eps = 100, past the range check it relies on
    (checked_eps patched to hand compute_schedule an UncheckedEps): with
    n = delta = k = 1, psi_1 + n delta = 52/25 + 1 exceeds
    n delta (10 delta / eps + 1) = 11/10."""
    monkeypatch.setattr(pipeline, "checked_eps", UncheckedEps)
    with pytest.raises(ClaimViolation) as err:
        compute_schedule(1, 1, 1, 100)
    assert err.value.claim == "schedule-bound"
    assert str(err.value) == ("claim schedule-bound violated: "
                              "psi_k + n*delta = 77/25 > 11/10")


def test_build_sequence_length_claim_in_the_loop(monkeypatch):
    """sequence-length before a step: on the box |x_i| <= 10 with k = 1,
    x_0 = (1, 5) takes one step, to (0, 5).  Honest zero sets then end the
    loop (N_1 is empty: all-large), so the run reaches the claim only when
    the zero-set test never reports N_j empty (patched) and the schedule
    has a threshold chi_2 to read (computed for k = 2)."""
    real = pipeline._zero_nonzero_sets

    def never_empty(x, k):
        z, nset = real(x, k)
        return z, nset or frozenset({0})

    monkeypatch.setattr(pipeline, "_zero_nonzero_sets", never_empty)
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [10] * 4, [1], [0, 0], k=1)
    with pytest.raises(ClaimViolation) as err:
        build_sequence(inst, ([1, 5], 1), compute_schedule(2, 1, 2, F(1)), 1)
    assert err.value.claim == "sequence-length"
    assert str(err.value) == "claim sequence-length violated: more than k steps taken"


def test_build_sequence_length_claim_at_the_end(monkeypatch):
    """sequence-length on ell: the box product run (c2_run) ends at
    ell = 1 <= k = 2, and with every StepRecord built 10 indices on (the
    record class patched) its last record says ell = 11."""
    real = pipeline.StepRecord

    def shifted(*args, **kwargs):
        if "j" in kwargs:
            kwargs["j"] += 10
        else:
            args = (args[0] + 10, *args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "StepRecord", shifted)
    with pytest.raises(ClaimViolation) as err:
        run_pipeline(*c2_run("box-100"))
    assert err.value.claim == "sequence-length"
    assert str(err.value) == "claim sequence-length violated: ell=11 > k=2"


def test_build_sequence_xell_b_on_a_corrupted_schedule(monkeypatch):
    """The box product run ends at ell = 1, 3/4 from x_c, past psi_1 = 0."""
    schedule = compute_schedule
    monkeypatch.setattr(pipeline, "compute_schedule",
                        lambda *args: replace(schedule(*args), psi=(F(0), F(0))))
    with pytest.raises(ClaimViolation) as err:
        run_pipeline(*c2_run("box-100"))
    assert err.value.claim == "xell-b"


def ex11_record(j, x, zset, reason):
    return StepRecord(j, (F(x),), frozenset(zset), frozenset({0}) - frozenset(zset),
                      termination_reason=reason)


@pytest.mark.parametrize("xc, x_ell, record, claim", [
    # the anchors 61 apart, but the trace says small-norm at ell = 0
    (61, 61, ex11_record(0, 61, (), "small-norm"), "c1-distance"),
    # x* = 5 on N_0 = {0}, below chi_0 - n*delta = 9
    (5, 5, ex11_record(0, 5, (), "all-large"), "xstar-d"),
    # ell = k = 1 skips xstar-d; x* = floor(1/2) = 0 while Z_ell is empty
    (F(1, 2), F(1, 2), ex11_record(1, F(1, 2), (), "all-large"), "xstar-e"),
    # x* = 60, 2 from x_c against psi_0 + n*delta = 1
    (58, F(243, 4), ex11_record(0, F(243, 4), (), "all-large"), "xstar-f"),
    # x_c - x* = -1/2 is outside P
    (F(119, 2), F(243, 4), ex11_record(0, F(243, 4), (), "all-large"), "xstar-g"),
    (8, 8, ex11_record(0, 8, (), "all-large"), "xstar-d"),  # the largest x* below 9
])
def test_construct_outputs_claims_on_inconsistent_inputs(xc, x_ell, record, claim):
    norm, _ = normalize(EX11.instance, [F(-30)])
    sched = compute_schedule(1, 1, 1, F(1))
    with pytest.raises(ClaimViolation) as err:
        construct_outputs(norm, exact.integer_vector([xc]), exact.integer_vector([x_ell]),
                          [record], sched, 1)
    assert err.value.claim == claim


@pytest.mark.parametrize("xc, x_ell", [(9, 9), (F(37, 4), F(37, 4)), (10, 9)])
def test_construct_outputs_at_the_xstar_thresholds(xc, x_ell):
    """x* = floor(x_ell) = 9, on chi_0 - n*delta = 9, and x_c within
    psi_0 + n*delta = 1 of it, 1 included: neither xstar-d nor xstar-f
    fires at its edge."""
    norm, _ = normalize(EX11.instance, [F(-30)])
    sched = compute_schedule(1, 1, 1, F(1))
    res = construct_outputs(norm, exact.integer_vector([xc]), exact.integer_vector([x_ell]),
                            [ex11_record(0, x_ell, (), "all-large")], sched, 1)
    assert res.x_star_int == (9,)
    assert res.distance_int == xc - 9


@pytest.mark.parametrize("edits, claim", [
    ({"dec": ConicDecomposition([(F(1, 2),)], [F(243, 2)])}, "witness-integrality"),
    ({"XS": [61]}, "witness-midpoint"),
    # x_l = x_r = 61 > 243/4
    ({"XS": [122], "dec": ConicDecomposition([(F(1),)], [F(122)])}, "witness-membership"),
    # x_l = 0, x_r = 2
    ({"XS": [2], "dec": ConicDecomposition([(F(1),), (F(1),)], [F(1), F(1)])},
     "witness-span"),
    # x_c - x_star / 2 = 200 - 30 > 243/4
    ({"xc": ([200], 1)}, "witness-diamond"),
])
def test_midpoint_witnesses_claims_on_a_corrupted_result(edits, claim):
    """The witnesses of the example 1.1 run, with some inputs replaced."""
    norm, _ = normalize(EX11.instance, [F(-30)])
    res = ex11_run().normalized
    args = {"dec": res.decomposition, "xc": exact.integer_vector(res.xc),
            "XS": [x.numerator for x in res.x_star_int], **edits}
    with pytest.raises(ClaimViolation) as err:
        midpoint_witnesses(norm, args["dec"], res.delta, args["xc"], args["XS"],
                           restricted_polyhedron(norm, res.z_ell))
    assert err.value.claim == claim


# -- how often a c-2 run scales a point to ints or tests one in Fractions --

def counted_calls(monkeypatch, module, name):
    """(args, result) of each call of module.name from now on, through
    every module that binds it."""
    calls = []
    orig = getattr(module, name)

    def spy(*args):
        result = orig(*args)
        calls.append((args, result))
        return result

    for mod in (exact, polyhedra, cones, pipeline):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, spy)
    return calls


def c2_run(case):
    """The arguments of a case c-2 run: example 1.1 at t = 30 (ell = 0) or
    the box product at t = 100 (ell = 1), both at eps = 1."""
    return (anchored(EX11.instance, 1, [F(123, 4)], [F(-30)]) if case == "example-1-1"
            else anchored(box_product(100), 1))


@pytest.mark.parametrize("case, counts", [
    # 3 and 0 when build_cone scaled its direction, 5 and 0 with Fraction
    # generators, 6 and 2 with a Fraction sequence, 15 and 10 with Fraction
    # points
    ("example-1-1", (2, 0)),
    # 6 and 0 when build_cone scaled its direction, 14 and 0 with Fraction
    # generators, 17 and 0 when each generator was scaled for every use, 16
    # and 2 with a Fraction one_step, 18 and 5 with a Fraction sequence, 34
    # and 14 with Fraction points
    ("box-100", (4, 0)),
])
def test_c2_run_scales_each_point_once(monkeypatch, case, counts):
    """exact.integer_vector and polyhedra.contains calls in one case c-2
    run (c2_run).  A point check that goes back to Fractions raises these
    counts.  one_step tests its points as ints, so no `contains` call is
    left.  The box-100 run's 4 are: the anchor in run_pipeline and in
    normalize (2); and the two points of the representation check (2), the
    next point being their common point.  build_cone takes the int point
    the conic step holds as its direction, for one_step and for the
    rounding step, so it scales nothing.  The generators are int tuples, so
    neither the candidate rays of enumerate_generators (6, each once
    through cone_contains) nor the 2 generators of the representation check
    (once each, for the cone test and both sums) are scaled.  The example
    1.1 run's 2 are the two anchor scalings; its 2 candidate rays are not
    scaled either.  The instance's int objective is built before the count
    starts, as any earlier run on the instance builds it."""
    args = c2_run(case)
    args[0].int_objective
    scaled = counted_calls(monkeypatch, exact, "integer_vector")
    tested = counted_calls(monkeypatch, polyhedra, "contains")
    assert run_pipeline(*args).case == "c2"
    assert (len(scaled), len(tested)) == counts


def test_c1_run_at_ell_0_tests_no_point_in_fractions(monkeypatch):
    """Example 1.1 at t = 3, eps = 1/2 stops in case c-1 at ell = 0, so it
    takes no one_step: every point it checks is tested as ints."""
    tested = counted_calls(monkeypatch, polyhedra, "contains")
    res = run_pipeline(*anchored(EX3.instance, F(1, 2), [F(15, 4)], [F(-3)]))
    assert (res.case, res.trace[-1].j) == ("c1", 0)
    assert tested == []


@pytest.mark.parametrize("case", ["example-1-1", "box-100"])
def test_c2_run_reads_no_derived_rational_rows(case):
    """A case c-2 run (c2_run) has no Fraction rows to read: a Polyhedron
    is its int rows, scales and n alone, with no A or b view, so the
    subdeterminant bound reads the instance's A off its int rows, and the
    translated and restricted polyhedra are used through their int rows."""
    args = c2_run(case)
    assert [f.name for f in fields(polyhedra.Polyhedron)] == ["int_rows", "scales", "n"]
    assert not any(hasattr(polyhedra.Polyhedron, name) for name in ("A", "b"))
    assert run_pipeline(*args).case == "c2"


@pytest.mark.parametrize("case", ["example-1-1", "box-100"])
def test_c2_run_calls_each_stage_once(monkeypatch, case):
    """A case c-2 run (c2_run) calls construct_outputs and
    midpoint_witnesses once each, through the pipeline module's names, which
    the benchmark's tracer rebinds.  Each cone it builds (one per conic
    step: ell + 1) keeps the int rows of its restricted polyhedron
    themselves, so no row is scaled twice."""
    outputs = counted_calls(monkeypatch, pipeline, "construct_outputs")
    witnesses = counted_calls(monkeypatch, pipeline, "midpoint_witnesses")
    polys = counted_calls(monkeypatch, pipeline, "restricted_polyhedron")
    cones_built = counted_calls(monkeypatch, cones, "build_cone")
    res = run_pipeline(*c2_run(case))
    assert res.case == "c2"
    assert (len(outputs), len(witnesses)) == (1, 1)
    assert len(cones_built) == len(polys) == res.trace[-1].j + 1
    assert all(rows_kept(cone, P) for (_, cone), (_, P) in zip(cones_built, polys))


@pytest.mark.parametrize("case", ["example-1-1", "box-100"])
def test_c2_run_records_int_generators(case):
    """Every generator a case c-2 run (c2_run) records, in the rounding
    step's decomposition and in each one_step record, is a tuple of ints."""
    res = run_pipeline(*c2_run(case))
    assert res.case == "c2"
    decs = [res.decomposition, res.normalized.decomposition,
            *(rec.decomposition for rec in res.trace if rec.decomposition is not None)]
    assert len(decs) == res.trace[-1].j + 2
    assert all(type(g) is tuple and all(type(x) is int for x in g)
               for dec in decs for g in dec.generators)


def test_subdeterminant_bound_reads_the_int_rows(monkeypatch):
    """subdeterminant_bound hands the instance's A, read off its int rows,
    to the scan as ints: no entry is validated again (_integer_matrix ran
    once, when the instance was built)."""
    insts = [box_product(100), *(random_instance(s, n_max=4) for s in range(20))]
    want = [max(1, exact.max_abs_subdeterminant(rational_rows(inst.P)[0])) for inst in insts]
    assert max(want) > 1
    converted = counted_calls(monkeypatch, exact, "_integer_matrix")
    assert [subdeterminant_bound(inst) for inst in insts] == want
    assert converted == []


@st.composite
def delta_matrices(draw):
    """Int matrices of 0-6 rows in n = 1..3 columns, with zero rows,
    duplicate rows (copies or negations of an earlier row) and unit rows
    +-e_i among them."""
    n = draw(st.integers(1, 3))
    A = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "unit"]))
        if kind == "zero":
            A.append([0] * n)
        elif kind == "duplicate" and A:
            row = draw(st.sampled_from(A))
            A.append(list(row) if draw(st.booleans()) else [-x for x in row])
        elif kind == "unit":
            i, s = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1]))
            A.append([s * (j == i) for j in range(n)])
        else:
            A.append([draw(st.integers(-3, 3)) for _ in range(n)])
    return A, n


@settings(max_examples=150, deadline=None)
@given(delta_matrices())
@example(([], 2))
@example(([[0, 0], [1, 0], [0, -1]], 2))
@example(([[2, 1], [-2, -1], [0, 0]], 2))
def test_instance_delta_matches_the_scan(case):
    """Instance.delta is Delta of A floored at 1, as the public scan and the
    exhaustive witness scan give it, and is held on the instance once read;
    the instance still equals one built afresh."""
    A, n = case
    inst = instance(A, [1] * len(A), [1], [0] * n)
    want = max(1, exact.max_abs_subdeterminant(A))
    assert want == max(1, exact.max_abs_subdeterminant_witness(A)[0])
    assert "delta" not in vars(inst)
    assert inst.delta == subdeterminant_bound(inst) == want
    assert vars(inst)["delta"] == want
    assert inst == instance(A, [1] * len(A), [1], [0] * n)


def test_eps_sweep_scans_delta_once(monkeypatch):
    """Three runs on one instance, at eps = 1/10, 1/2 and 1, scan Delta
    once: the value is held on the instance (Instance.delta).  The shifted
    instance of normalize starts without it, and each run equals the run
    on a fresh copy of the instance."""
    args = anchored(random_instance(5, n_max=4), 1)
    inst, _, xc, xd = args
    scans = counted_calls(monkeypatch, exact, "_max_abs_subdeterminant_rows")
    shifted = counted_calls(monkeypatch, pipeline, "normalize")
    results = [run_pipeline(inst, eps, xc, xd) for eps in (F(1, 10), F(1, 2), F(1))]
    assert len(scans) == 1 and [r.delta for r in results] == [6, 6, 6]
    assert len(shifted) == 3
    assert all("delta" not in vars(norm) for (_, (norm, _)) in shifted)
    fresh = [run_pipeline(random_instance(5, n_max=4), eps, xc, xd)
             for eps in (F(1, 10), F(1, 2), F(1))]
    assert results == fresh
    assert len(scans) == 4


# -- one_step on ints against the Fraction reference -----------------------

def step_inputs(inst, eps, xc, xd):
    """The normalized instance, delta, and (x_j, Z_j) of every one_step that
    the run (inst, eps, xc, xd) takes."""
    res = run_pipeline(inst, eps, xc, xd)
    norm, _ = normalize(inst, xd)
    return norm, res.delta, [(rec.x_j, rec.z_set) for rec in res.trace if rec.lam is not None]


def assert_one_step_matches_reference(norm, delta, steps):
    for x, z in steps:
        X, d = exact.integer_vector(x)
        (XB, dB), rec = one_step(norm, (X, d), z, delta)
        xb, want = reference_one_step(norm, x, z, delta)
        assert tuple(F(v, dB) for v in XB) == xb
        assert dB > 0 and math.gcd(dB, *XB) == 1  # in lowest terms
        assert rec == want
        assert all(type(v) is F for v in (*rec.x_j, *rec.lam, *rec.decomposition.coefficients))


@st.composite
def block_runs(draw):
    """A product of 1-3 example 1.1 blocks with its own anchors, as in
    test_block_products_reach_every_cell."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    widths = sorted(draw(st.lists(st.sampled_from((0, 1, 3, 10, 30, 100, 300, 1000, 3000)),
                                  min_size=n, max_size=n)))
    eps = draw(st.sampled_from([F(1, 10), F(1, 2), F(1)]))
    return (block_product(widths, k), eps, [t + F(3, 4) for t in widths],
            [F(-t) for t in widths])


@settings(max_examples=100, deadline=None)
@given(block_runs())
@example((box_product(100), F(1), [F(3, 4), F(403, 4)], [F(0), F(-100)]))
@example((block_product((1, 30, 3000), 3), F(1, 10), [F(7, 4), F(123, 4), F(12003, 4)],
          [F(-1), F(-30), F(-3000)]))
def test_one_step_matches_fraction_reference_on_block_products(case):
    """The int one_step gives the Fraction one_step's next point, in lowest
    terms, and the same record (x_j, the sets, s, lambda, decomposition) at
    every step of the run."""
    assert_one_step_matches_reference(*step_inputs(*case))


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_one_step_matches_fraction_reference_on_prop44(n):
    """prop44 takes n - 1 one_steps in a row, each on a cone of n - j
    generators."""
    fam = build_prop44(F(1, 4), 3, n)
    norm, delta, steps = step_inputs(fam.instance, F(1, 4), fam.expected["xc"],
                                     fam.expected["xd"])
    assert len(steps) == n - 1
    assert_one_step_matches_reference(norm, delta, steps)


# -- each claim of one_step, on one corrupted conic step -------------------

def box(n, r, k):
    A = [row for i in range(n) for row in ([int(j == i) for j in range(n)],
                                           [-int(j == i) for j in range(n)])]
    return instance(A, [r] * (2 * n), [1] * k, [0] * n, k)


@pytest.mark.parametrize("r, x, zset, delta, generators, coefficients, restricted, claim, message", [
    # no generator covers x_s = 1
    (10, [1, 5], (), 1, [], [], 10, "onestep", "greedy coefficients cannot cover x_s"),
    # x_b = (0, 2) is outside the "restricted" box of radius 1
    (10, [1, 5], (), 1, [(1, 3), (0, 2)], [1, 1], 1,
     "onestep-iii", "common point escaped the polyhedron"),
    # a generator off the zeroed coordinate 0 moves x_b to (-1, 0, 5)
    (10, [0, 1, 5], (0,), 1, [(1, 1, 0), (-1, 0, 5)], [1, 1], 10,
     "onestep-i", "coordinate not zeroed at [0, 1]"),
    # the generator (1, 3) has norm 3 > delta: the step moves 3 > delta |x_s| = 1
    (10, [1, 5], (), 1, [(1, 3), (0, 2)], [1, 1], 10, "onestep-ii", "step moved too far"),
    # x_b = (0, 7) lies in the restricted box of radius 10, not in P (radius 5)
    (5, [1, 5], (), 2, [(1, -2), (0, 7)], [1, 1], 10,
     "onestep", "step output left the polyhedron"),
])
def test_one_step_claims_on_a_corrupted_conic_step(monkeypatch, r, x, zset, delta, generators,
                                                   coefficients, restricted, claim, message):
    """Each one_step claim after the conic step is implied by an earlier
    check on a true conic step, so each is reached here through a conic
    step (pipeline._conic_step) that returns a given decomposition, a cone
    with no rows, and a box of the given radius as the restricted
    polyhedron."""
    n = len(x)
    inst = box(n, r, n)
    dec = ConicDecomposition([tuple(g) for g in generators], list(map(F, coefficients)))
    step = (box(n, restricted, n).polyhedron(), cones.ProximityCone((), (), n), dec)
    monkeypatch.setattr(pipeline, "_conic_step", lambda *args: step)
    with pytest.raises(ClaimViolation) as err:
        one_step(inst, (x, 1), frozenset(zset), delta)
    assert err.value.claim == claim
    assert str(err.value) == f"claim {claim} violated: {message}"
    # The Fraction reference raises the same on the same conic step.
    monkeypatch.setattr(reference, "reference_conic_step", lambda *args: step)
    with pytest.raises(ClaimViolation) as ref:
        reference_one_step(inst, list(map(F, x)), frozenset(zset), delta)
    assert str(ref.value) == str(err.value)


# -- eval_objective on ints against Fractions -------------------------------

RATIONAL = st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12))


@st.composite
def objectives_and_points(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    inst = instance([[1] * n], [1], [draw(st.fractions(F(1, 8), 5, max_denominator=8))
                                     for _ in range(k)],
                    [draw(RATIONAL) for _ in range(n)], k)
    size = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    return inst, [draw(RATIONAL) for _ in range(size)]


@settings(max_examples=300, deadline=None)
@given(objectives_and_points())
@example((instance([[1]], [1], [F(1, 3)], [F(1, 2)]), [F(7, 6)]))
@example((instance([[1, 1]], [1], [], [0, F(-3, 4)], 0), [3, F(-1, 5)]))
def test_eval_objective_matches_fraction_reference(case):
    inst, x = case
    try:
        want = objective(inst, x)
    except DimensionError as err:
        with pytest.raises(DimensionError) as got:
            eval_objective(inst, x)
        assert str(got.value) == str(err)
        return
    got = eval_objective(inst, x)
    assert got == want
    assert type(got) is F


def box_of_radius_2(q, h, k):
    """The instance with objective (q, h) on the box |x_i| <= 2."""
    n = len(h)
    rows = [[s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    return instance(rows, [2] * (2 * n), q, h, k)


@st.composite
def objectives_and_anchors(draw):
    """An instance on the box |x_i| <= 2, h all-zero in about half the
    draws, and an integer point of the box."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    q = [draw(st.fractions(F(1, 8), 5, max_denominator=8)) for _ in range(k)]
    h = draw(st.one_of(st.just([0] * n), st.lists(RATIONAL, min_size=n, max_size=n)))
    return box_of_radius_2(q, h, k), [draw(st.integers(-2, 2)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(objectives_and_anchors())
@example((box_of_radius_2([], [F(1, 2), 3], 0), [1, -2]))                   # k = 0
@example((box_of_radius_2([F(1, 3), 2], [F(-3, 4), F(5, 6)], 2), [2, 0]))   # k = n
@example((box_of_radius_2([F(3, 2)], [0, 0], 1), [-1, 1]))                  # h = 0
def test_int_objective_is_q_and_h_scaled_once(case):
    """Instance.int_objective is q + h over the lcm d of their
    denominators, split at k, and d: on an instance and on the shifted
    instance normalize returns.  It is built once per instance."""
    inst, xd = case
    for it in (inst, normalize(inst, xd)[0]):
        qh, d = exact.integer_vector(it.q + it.h)
        assert it.int_objective == (qh[:it.k], qh[it.k:], d)
        assert it.int_objective is it.int_objective


SQUARE = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2], [1, 1], [0, 0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: instance([[1]], [1], [1], [0], k=0), InputError,
     "k=0 but 1 quadratic coefficients given"),
    (lambda: instance([[1, 0]], [1], [1], [0]), InputError, "matrix width does not match h"),
    (lambda: one_step(SQUARE, ([0], 1), frozenset(), 1), DimensionError,
     "point has dim 1, polyhedron has 2"),
    (lambda: one_step(SQUARE, ([3, 0], 1), frozenset(), 1), InputError,
     "step input must be feasible"),
    (lambda: one_step(SQUARE, ([1, 0], 1), frozenset(), 1), InputError,
     "supplied zero set does not match the point"),
    (lambda: one_step(SQUARE, ([0, 0], 1), frozenset({0, 1}), 1), InputError,
     "all quadratic coordinates are already zero"),
    (lambda: run_pipeline(SQUARE, F(1, 2), [0], [0, 0]), DimensionError,
     "point has dim 1, polyhedron has 2"),
    (lambda: run_pipeline(SQUARE, F(1, 2), [3, 0], [0, 0]), InputError,
     "continuous anchor is infeasible"),
], ids=["instance-k", "instance-width", "one_step-dim", "one_step-infeasible",
        "one_step-zero-set", "one_step-all-zero", "run_pipeline-dim",
        "run_pipeline-infeasible"])
def test_pipeline_input_checks(call, error, message):
    """Each input check of pipeline raises its own class and message."""
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message
    assert got.traceback[-1].path.name == "pipeline.py"
