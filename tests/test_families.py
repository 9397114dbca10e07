from fractions import Fraction as F

import pytest

from iqprox import exact, oracles
from iqprox.errors import InputError
from iqprox.families import (build_example_1_1, build_ilp_tightness,
                             build_pbar, build_pr_tight, build_prop44,
                             build_prop45, build_prop46, pbar_params, pbar_u,
                             pbar_v, random_instance)
from iqprox.formats import rat_to_str
from iqprox.pipeline import eval_objective
from iqprox.polyhedra import contains, enumerate_lattice_points
from reference import rational_rows


def test_pbar_param_validation():
    with pytest.raises(InputError):
        pbar_params(0, 1, 1, F(1, 2))
    with pytest.raises(InputError):
        pbar_params(2, 1, -1, F(1, 2))
    with pytest.raises(InputError):
        pbar_params(2, 1, 1, F(1))  # beta must be strictly below 1


def test_pbar_shape_and_subdet():
    p = pbar_params(2, 3, 1, F(1, 2))
    P = build_pbar(p)
    assert P.m == 2 + 2 * (p.n - 1)
    assert exact.max_abs_subdeterminant(rational_rows(P)[0]) == 3


def test_pbar_u_and_v_membership():
    for n, d in [(2, 1), (3, 2), (4, 3)]:
        p = pbar_params(n, d, 2, F(1, 2))
        P = build_pbar(p)
        assert contains(P, pbar_u(p))
        assert contains(P, pbar_v(p))


def test_pbar_t_zero_lattice_is_origin():
    p = pbar_params(3, 2, 0, F(1, 2))
    pts = enumerate_lattice_points(build_pbar(p))
    assert pts == [(F(0), F(0), F(0))]


def test_pbar_lattice_points_are_axis_points():
    p = pbar_params(3, 2, 1, F(1, 2))
    pts = enumerate_lattice_points(build_pbar(p))
    assert pts == [(F(j), F(0), F(0)) for j in (-1, 0, 1)]


def test_example_1_1_expected_values():
    fam = build_example_1_1(3)
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.point == fam.expected["xd"]
    assert rep.cont_opt.point == fam.expected["xc"]
    gap = exact.inf_norm(exact.vec_sub(rep.cont_opt.point, rep.int_opt.point))
    assert gap == fam.expected["gap"] == F(27, 4)


def test_example_1_1_t_zero():
    fam = build_example_1_1(0)
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.point == (F(0),)
    assert rep.cont_opt.point == (F(3, 4),)


def test_ilp_tightness():
    fam = build_ilp_tightness(3, 2, F(1, 2))
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.ties == (fam.expected["u"],)
    assert rep.cont_opt.ties == (fam.expected["v"],)
    gap = exact.inf_norm(exact.vec_sub(rep.cont_opt.point, rep.int_opt.point))
    assert gap == fam.expected["gap"] == 2


def test_ilp_gap_within_general_bound():
    fam = build_ilp_tightness(2, 1, F(3, 4))
    rep = oracles.full_report(fam.instance)
    gap = exact.inf_norm(exact.vec_sub(rep.cont_opt.point, rep.int_opt.point))
    assert gap == F(3, 4) <= 2


def test_pr_tight_optima():
    fam = build_pr_tight(2, 1, 2, F(1, 2), F(2, 3))
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.point == fam.expected["xd"]
    assert rep.cont_opt.point == fam.expected["xc"]


def test_prop45_values():
    fam = build_prop45(2, 1, F(1, 2))
    assert fam.params["t"] == 2
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.point == (F(-2), F(0))
    assert rep.cont_opt.point == (F(8, 3), F(2, 3))
    assert rep.fmax_int == -F(1, 4) - fam.expected["constant"]


def test_prop45_eps_one_only_origin():
    fam = build_prop45(2, 1, F(1))
    pts = enumerate_lattice_points(fam.instance.polyhedron())
    assert pts == [(F(0), F(0))]


def test_prop44_parametrization():
    fam = build_prop44(F(1, 4), 1)
    assert fam.params["n"] == 5
    assert fam.params["beta"] == F(1, 2)
    assert fam.params["a"] == 1
    assert fam.params["t"] == 3
    fam2 = build_prop44(F(1, 4), 2)
    assert fam2.params["a"] == 2 and fam2.params["t"] == 6


def test_prop44_explicit_n():
    fam = build_prop44(F(1, 4), 1, n=6)
    assert fam.params["n"] == 6
    with pytest.raises(InputError):
        build_prop44(F(1, 2), 1)  # sqrt(1/2) is irrational
    with pytest.raises(InputError):
        build_prop44(F(9, 16), 1, n=5)  # (1 - 1/2)^2 < 9/16


def test_prop44_objective_chain():
    fam = build_prop44(F(1, 4), 1)
    inst = fam.instance
    c = fam.expected["constant"]
    u = fam.expected["u"]
    rep = oracles.full_report(inst)
    assert eval_objective(inst, u) == fam.expected["f_u"] - c
    assert rep.int_opt.value == fam.expected["f_xd"] - c
    v = oracles.verdict(inst, u, F(1, 4), "integer", rep)
    assert v.ratio == fam.expected["ratio_u"] == F(3, 4)
    assert not v.is_approx


def test_prop46_values():
    fam = build_prop46(2, 2, F(1, 4))
    assert fam.params["t"] == 2
    rep = oracles.full_report(fam.instance)
    assert rep.int_opt.point == fam.expected["xd"] == (F(-2), F(0))
    assert rep.cont_opt.point == fam.expected["xc"] == (F(5, 2), F(1, 2))
    assert rep.fmax_cont == 0
    # u is cut off while -u survives
    P = fam.instance.polyhedron()
    assert not contains(P, fam.expected["u"])
    assert contains(P, fam.expected["xd"])
    assert eval_objective(fam.instance, fam.expected["xc"]) < rep.int_opt.value


def test_prop46_param_validation():
    with pytest.raises(InputError):
        build_prop46(2, 1, F(1, 4))  # delta must be >= 2
    with pytest.raises(InputError):
        build_prop46(2, 2, F(1, 2))  # eps must stay below 1/2


def test_random_instance_deterministic():
    a = random_instance(42)
    b = random_instance(42)
    assert a == b
    assert a != random_instance(43)


def test_random_instance_always_has_lattice_point():
    for seed in range(40):
        inst = random_instance(seed)
        assert enumerate_lattice_points(inst.polyhedron())


def test_random_instance_k_zero_slice():
    for seed in range(10):
        inst = random_instance(seed, k_max=0)
        assert inst.k == 0 and inst.q == ()


@pytest.mark.parametrize("call, message", [
    (lambda: build_example_1_1(-1), "t must be a nonnegative integer"),
    (lambda: build_prop45(2, 1, 0), "eps must be in (0, 1], got 0"),
    (lambda: build_prop45(1, 1, F(1, 2)), "need n >= 2 and delta >= 1"),
    (lambda: build_prop44(1, 1), "eps must be in (0, 1), got 1"),
    (lambda: build_prop44(F(1, 4), 0), "delta must be >= 1"),
    (lambda: build_prop44(F(1, 4), 1, n=4), "n must be >= 5, got 4"),
], ids=["example11-t", "prop45-eps", "prop45-n", "prop44-eps", "prop44-delta", "prop44-n"])
def test_families_parameter_checks(call, message):
    """Each parameter check of families raises its InputError."""
    with pytest.raises(InputError) as got:
        call()
    assert type(got.value) is InputError and str(got.value) == message
    assert got.traceback[-1].path.name == "families.py"


# Per builder: its valid arguments, and the positions of those it takes as
# ints, by name, and as rationals.
BUILDER_CALLS = {
    "pbar_params": (pbar_params, (2, 1, 0, F(1, 10)), {"n": 0, "delta": 1, "t": 2},
                    {"beta": 3}),
    "build_pr_tight": (build_pr_tight, (2, 1, 1, F(1, 3), F(2, 3)),
                       {"n": 0, "delta": 1, "t": 2}, {"a": 3, "beta": 4}),
    "build_prop45": (build_prop45, (2, 1, F(1, 2)), {"n": 0, "delta": 1}, {"eps": 2}),
    "build_prop44": (build_prop44, (F(1, 4), 1, 8), {"delta": 1, "n": 2}, {"eps": 0}),
    "build_prop46": (build_prop46, (2, 2, F(1, 4)), {"n": 0, "delta": 1}, {"eps": 2}),
}


@pytest.mark.parametrize("name", list(BUILDER_CALLS))
def test_builder_number_contract(name):
    """A builder takes an int where it expects an int, and an int, a
    Fraction or a rational string ("1/10", as perfbench/workloads.py and
    CI's smoke step pass them) where it expects a rational, with the same
    result for each.  A float, a bool or any other type there is an
    InputError, which names an int parameter and is formats.str_to_rat's
    for a rational one: pbar_params(2.7, 1, 0, 0.1) read n as 2 and beta as
    3602879701896397/36028797018963968 when it took floats."""
    build, args, ints, rationals = BUILDER_CALLS[name]
    want = build(*args)

    def call(i, v):
        return build(*args[:i], v, *args[i + 1:])

    for i in rationals.values():
        assert call(i, rat_to_str(args[i])) == want
        if args[i].denominator == 1:
            assert call(i, int(args[i])) == want
        for bad in (float(args[i]), True, None, [args[i]]):
            with pytest.raises(InputError) as got:
                call(i, bad)
            assert str(got.value) == f"bad rational literal {bad!r}: not a string or an int"
    for param, i in ints.items():
        for bad in (float(args[i]), True, str(args[i]), F(args[i]), [args[i]]):
            with pytest.raises(InputError) as got:
                call(i, bad)
            assert str(got.value) == f"{param} must be an int, got {bad!r}"
