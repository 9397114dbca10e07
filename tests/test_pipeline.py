import random
from collections import Counter
from fractions import Fraction as F

import pytest

from iqprox import exact
from iqprox.errors import ClaimViolation, InputError
from iqprox.families import (build_example_1_1, build_pbar, build_prop44,
                             pbar_params, random_instance)
from iqprox.oracles import claim_cross_checks, full_report, solve_iqp, verdict
from iqprox.pipeline import (Instance, compute_schedule, eval_objective, instance,
                             midpoint_witnesses, normalize, one_step,
                             restricted_polyhedron, run_pipeline,
                             subdeterminant_bound)
from iqprox.cones import build_cone
from iqprox.polyhedra import Polyhedron, contains, polyhedron


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


def test_schedule_k_zero():
    s = compute_schedule(3, 2, 0, F(1, 2))
    assert s.chi == ()
    assert s.theorem_bound == 6


def test_normalize_moves_anchor_to_origin():
    fam = build_example_1_1(3)
    norm, shift = normalize(fam.instance, [F(-3)])
    assert shift == (F(-3),)
    assert norm.b == (F(27, 4), F(0))
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


def test_restricted_polyhedron():
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 2, 2],
                    [1, 1], [0, 0])
    P = restricted_polyhedron(inst, {1})
    assert contains(P, [F(1), F(0)])
    assert not contains(P, [F(1), F(1)])


def test_one_step_zeroes_smallest_coordinate():
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [8, 0, 3, 0],
                    [1, 1], [0, 0], k=2)
    xb, rec = one_step(inst, [F(5), F(2)], frozenset(), 1)
    assert rec.s == 1
    assert xb[1] == 0
    assert exact.inf_norm(exact.vec_sub([F(5), F(2)], list(xb))) <= 2
    assert contains(inst.polyhedron(), xb)


def test_one_step_requires_progress_room():
    inst = instance([[1], [-1]], [3, 3], [1], [0], k=1)
    with pytest.raises(InputError):
        # small-norm holds, caller should have stopped
        one_step(inst, [F(2)], frozenset(), 1)


def test_pipeline_example_small_eps_case_c1():
    fam = build_example_1_1(3)
    res = run_pipeline(fam.instance, F(1, 2), xc=[F(15, 4)], xd=[F(-3)])
    assert res.case == "c1"
    assert res.x_star_int == (F(-3),)
    assert res.x_star_cont == (F(15, 4),)
    assert res.distance_int == F(27, 4)
    assert res.schedule.theorem_bound == 21
    assert res.trace[-1].termination_reason == "small-norm"


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


def test_midpoint_witnesses_need_c2():
    fam = build_example_1_1(3)
    res = run_pipeline(fam.instance, F(1, 2), xc=[F(15, 4)], xd=[F(-3)])
    with pytest.raises(InputError):
        midpoint_witnesses(fam.instance, res)


def test_subdeterminant_bound_floors_at_one():
    inst = instance([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
                    [1, 1, 1, 1, 1], [], [1, 1], k=0)
    assert subdeterminant_bound(inst) == 1


def reference_normalized_rhs(inst, xd):
    return tuple(bi - exact.dot(row, exact.vec(xd)) for row, bi in zip(inst.A, inst.b))


def reference_restricted_polyhedron(inst, zset):
    """The +-e_i rows appended and every entry re-wrapped by `polyhedron`."""
    rows = [list(r) for r in inst.A]
    rhs = list(inst.b)
    for i in sorted(zset):
        e = [F(int(j == i)) for j in range(inst.n)]
        rows += [e, [-x for x in e]]
        rhs += [F(0), F(0)]
    return polyhedron(rows, rhs, inst.n)


def assert_fresh_int_rows(P, x):
    """P's int rows, passed down from a parent, are the ones P would
    compute itself, and so are those of the cone at x against the origin,
    kept by build_cone from its sign test."""
    assert P.int_rows == Polyhedron(P.A, P.b, P.n).int_rows
    cone = build_cone(P.A, x, [F(0)] * P.n)
    assert cone.int_rows == (exact._integer_rows(cone.a1)[0],
                             exact._integer_rows(cone.a2)[0])


def test_normalize_and_restriction_match_fraction_reference():
    rng = random.Random(4)
    for seed in range(30):
        inst = random_instance(seed)
        xd = solve_iqp(inst).point
        norm, _ = normalize(inst, xd)
        assert norm.b == reference_normalized_rhs(inst, xd)
        assert all(type(x) is F for x in norm.b)
        assert_fresh_int_rows(norm.polyhedron(), [F(rng.randint(-3, 3), 2)] * inst.n)
        for zset in ({0}, set(range(inst.n)), set()):
            P = restricted_polyhedron(norm, zset)
            assert P == reference_restricted_polyhedron(norm, zset)
            assert all(type(x) is F for r in P.A for x in r)
            assert all(type(x) is F for x in P.b)
            x = [F(0) if i in zset else F(rng.randint(-3, 3), rng.randint(1, 3))
                 for i in range(inst.n)]
            assert_fresh_int_rows(P, x)
    # a rational row, which `instance` rejects, still shifts exactly, and
    # keeps its scale: lcm(2, den 3/2) = lcm(2, den 3) = 2
    inst = Instance(((F(1, 2), F(1)), (F(-1), F(0))), (F(3), F(2)), 0, (), (F(0), F(0)))
    norm, _ = normalize(inst, [F(-1), F(2)])
    assert norm.b == reference_normalized_rhs(inst, [F(-1), F(2)]) == (F(3, 2), F(1))
    assert norm.polyhedron().int_rows == (((1, 2), (-1, 0)), (3, 1))
    assert_fresh_int_rows(norm.polyhedron(), [F(1, 3), F(-2)])
    for zset in ({0}, {1}, {0, 1}):
        assert_fresh_int_rows(restricted_polyhedron(norm, zset), [F(0), F(1, 2)])


@pytest.mark.parametrize("t", [100, 300])
def test_box_product_reaches_c2_after_a_step(t):
    """The box [0, 3/4] x [-t, t + 3/4] with q = (1, 1), h = (1/2, 1/2),
    that is f = -(x_1 - 1/4)^2 - (x_2 - 1/4)^2 up to a constant.  One step
    zeroes the short coordinate; at eps = 1 the long one is past chi_1 and
    the run ends in case c-2 at ell = 1 with N_1 = {1}, on a restricted
    polyhedron whose +-e_0 rows are tied at x_1, so every generator has
    g_0 = 0.  At eps = 1/2, chi_2 = 612 > 2t and the run stops in c-1."""
    inst = instance([[1, 0], [-1, 0], [0, 1], [0, -1]], [F(3, 4), 0, t + F(3, 4), t],
                    [1, 1], [F(1, 2), F(1, 2)], 2)
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
    P = build_pbar(p)
    k = rng.randint(1, n)
    q = [F(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(k)]
    h = [F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
    return instance(P.A, P.b, q, h, k)


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
