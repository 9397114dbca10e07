"""Acceptance suite: ten exact end-to-end checks, one printed line each.

Every comparison below is exact rational equality or inequality; there are
no tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from iqprox import exact, oracles
from iqprox.cones import (build_cone, caratheodory_decompose, cone_contains,
                          enumerate_generators, in_generated_cone)
from iqprox.families import (build_example_1_1, build_ilp_tightness,
                             build_pbar, build_prop44, build_prop45,
                             build_prop46, pbar_params, random_instance)
from iqprox.pipeline import compute_schedule, run_pipeline
from iqprox.polyhedra import contains, enumerate_lattice_points

from reference import combine, rational_rows


@contextmanager
def criterion(num, name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS [{time.monotonic() - t0:.1f}s]")


def test_criterion_1_example_reproduction():
    with criterion(1, "one-variable example"):
        fam = build_example_1_1(3)
        rep = oracles.full_report(fam.instance)
        assert rep.int_opt.point == (F(-3),)
        assert rep.cont_opt.point == (F(15, 4),)
        gap = exact.inf_norm(exact.vec_sub(rep.cont_opt.point,
                                           rep.int_opt.point))
        assert gap == F(27, 4)
        v = oracles.verdict(fam.instance, [3], F(1, 2), "integer", rep)
        assert v.ratio == F(2, 7)
        res = run_pipeline(fam.instance, F(1, 2), rep.cont_opt.point,
                           rep.int_opt.point)
        assert exact.is_integral_vec(res.x_star_int)
        assert contains(fam.instance.polyhedron(), res.x_star_int)
        assert res.schedule.theorem_bound == 21
        assert res.distance_int <= 21


def test_criterion_2_linear_proximity_bound():
    with criterion(2, "linear case distance <= n*delta"):
        count = 0
        for seed in range(130):
            inst = random_instance(seed, n_max=3, k_max=0, entry_bound=2)
            rep = oracles.full_report(inst)
            res = run_pipeline(inst, F(1, 2), rep.cont_opt.point,
                               rep.int_opt.point)
            nd = inst.n * res.delta
            assert res.distance_int <= nd, (seed, res.distance_int, nd)
            count += 1
        assert count >= 100


def test_criterion_3_distance_guarantee_property_suite():
    with criterion(3, "distance guarantee on random instances"):
        count = 0
        for seed in range(200):
            inst = random_instance(seed, n_max=3, k_max=2, entry_bound=2)
            rep = oracles.full_report(inst)
            for eps in (F(1, 10), F(1, 2), F(1)):
                res = run_pipeline(inst, eps, xc=rep.cont_opt.point,
                                   xd=rep.int_opt.point)
                assert exact.is_integral_vec(res.x_star_int)
                P = inst.polyhedron()
                assert contains(P, res.x_star_int)
                assert contains(P, res.x_star_cont)
                vi = oracles.verdict(inst, res.x_star_int, eps, "integer", rep)
                vc = oracles.verdict(inst, res.x_star_cont, eps,
                                     "continuous", rep)
                assert vi.is_approx, (seed, eps, vi.ratio)
                assert vc.is_approx, (seed, eps, vc.ratio)
                bound = res.schedule.theorem_bound
                assert res.distance_int <= bound
                assert res.distance_cont <= bound
                # sequence and rounding claims are asserted inside the run;
                # the objective-gap claims are cross-checked here
                oracles.claim_cross_checks(inst, res, rep)
            count += 1
        assert count >= 200


def test_criterion_4_strip_polytope_subdeterminants():
    with criterion(4, "strip polytope subdeterminant set"):
        for n in (2, 3, 4):
            for d in (1, 2, 3):
                P = build_pbar(pbar_params(n, d, 1, F(1, 2)))
                A = [[int(x) for x in row] for row in rational_rows(P)[0]]
                m = len(A)
                seen = set()
                from itertools import combinations
                for size in range(1, n + 1):
                    for rows in combinations(range(m), size):
                        for cols in combinations(range(n), size):
                            sub = [[A[r][c] for c in cols] for r in rows]
                            seen.add(int(exact.det(sub)))
                assert seen <= {0, 1, -1, d, -d}, (n, d, seen)
                assert exact.max_abs_subdeterminant(A) == d


def test_criterion_5_linear_tightness():
    with criterion(5, "linear worst-case gap"):
        fam = build_ilp_tightness(3, 2, F(1, 2), t=1)
        rep = oracles.full_report(fam.instance)
        assert rep.int_opt.ties == (fam.expected["u"],)
        assert rep.cont_opt.ties == (fam.expected["v"],)
        gap = exact.inf_norm(exact.vec_sub(rep.cont_opt.point,
                                           rep.int_opt.point))
        assert gap == 2 == fam.expected["gap"]


def test_criterion_6_distance_lower_bound_tight():
    with criterion(6, "integer-side distance lower bound"):
        fam = build_prop45(2, 1, F(1, 2))
        ds = oracles.delta_star(fam.instance, F(1, 2))
        assert ds.value == F(14, 3)
        rep = oracles.full_report(fam.instance)
        approx = [p for p in enumerate_lattice_points(fam.instance.polyhedron())
                  if oracles.verdict(fam.instance, p, F(1, 2), "integer", rep).is_approx]
        assert approx == [(-2, 0)]  # only -u qualifies
        assert ds.witness_point == (F(-2), F(0))
        assert not ds.upper_bound_only
        assert fam.expected["bound"] == F(14, 3)


def test_criterion_7_bad_neighborhood():
    with criterion(7, "no integer approximation near the continuous optimum"):
        fam = build_prop44(F(1, 4), 1)
        inst = fam.instance
        assert fam.params["n"] == 5
        rep = oracles.full_report(inst)
        xc = rep.cont_opt.point
        nd = 5
        S = [p for p in enumerate_lattice_points(inst.polyhedron())
             if exact.inf_norm(exact.vec_sub(p, xc)) <= nd]
        expected_S = [(F(j),) + (F(0),) * 4 for j in range(4)]
        assert S == expected_S
        worst = None
        for p in S:
            v = oracles.verdict(inst, p, F(1, 4), "integer", rep)
            assert not v.is_approx, (p, v.ratio)
            worst = v.ratio if worst is None else min(worst, v.ratio)
        assert worst == F(3, 4)


def test_criterion_8_continuous_side_certificate():
    with criterion(8, "no continuous approximation near the integer optimum"):
        fam = build_prop46(2, 2, F(1, 4))
        ok = oracles.certify_no_cont_approx_within(
            fam.instance, F(1, 4), fam.expected["xd"], 4)
        assert ok
        assert F(4) >= fam.expected["bound"] == 2


def test_criterion_9_cone_generator_suite():
    with criterion(9, "cone generators"):
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
            diff = exact.vec_sub(xa, xb)
            cone = build_cone(A, exact.integer_vector(diff)[0])
            gens = enumerate_generators(cone, delta)
            for g in gens:
                assert exact.is_integral_vec(g)
                assert exact.inf_norm(g) <= delta
            assert cone_contains(cone, diff)
            for _ in range(100):
                p = [F(rng.randint(-9, 9), rng.randint(1, 3))
                     for _ in range(n)]
                assert cone_contains(cone, p) == in_generated_cone(gens, p)
            if in_generated_cone(gens, diff):
                dec = caratheodory_decompose(diff, gens)
                assert combine(dec, n) == diff
                assert len(dec.generators) <= n
                assert exact.rank(list(dec.generators)) == len(dec.generators)
                assert all(c > 0 for c in dec.coefficients)
            done += 1


def test_criterion_10_schedule_bound_grid():
    with criterion(10, "threshold schedule bound"):
        for n in range(1, 6):
            for d in range(1, 5):
                for k in range(0, 6):
                    for eps in (F(1, 10), F(1, 4), F(1, 2), F(1)):
                        s = compute_schedule(n, d, k, eps)
                        nd = F(n * d)
                        if k:
                            assert s.psi[-1] + nd <= s.theorem_bound
        s = compute_schedule(1, 1, 1, F(1))
        assert s.psi[0] + 1 == s.theorem_bound == 11
