"""Instance families with known exact optima and tightness values.

The strip polytope family ("pbar") skews a box with the constraint
-t <= x_1 - D*sum(x_i) <= t; its subdeterminants never exceed D, yet its
integer and continuous optima can be far apart.  The builders below
specialize it into the worst-case instances used by the acceptance suite,
each carrying the expected quantities for the oracles to reproduce.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .formats import str_to_rat
from .pipeline import Instance, instance
from .polyhedra import Polyhedron, polyhedron

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PbarParams:
    n: int
    delta: int
    t: int
    beta: Fraction


def _ints(**params):
    """InputError unless each parameter is an int (a bool is not)."""
    for name, v in params.items():
        if type(v) is not int:
            raise InputError(f"{name} must be an int, got {v!r}")


def _rational(v) -> Fraction:
    """v as a Fraction: an int, a Fraction or a rational string such as
    "1/2" (formats.str_to_rat); InputError for any other type, a float or
    a bool among them."""
    return v if type(v) is Fraction else str_to_rat(v)


def pbar_params(n, delta, t, beta) -> PbarParams:
    _ints(n=n, delta=delta, t=t)
    beta = _rational(beta)
    if n < 1 or delta < 1 or t < 0:
        raise InputError(f"need n >= 1, delta >= 1, t >= 0; got {n}, {delta}, {t}")
    if not 0 < beta < 1:
        raise InputError(f"beta must be in (0, 1), got {beta}")
    return PbarParams(n, delta, t, beta)


def build_pbar(p: PbarParams) -> Polyhedron:
    """Strip polytope: -t <= x_1 - delta*sum_{i>=2} x_i <= t, 0 <= x_i <= beta."""
    return polyhedron(*_pbar_rows(p), p.n)


def _pbar_rows(p: PbarParams) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The rational rows and right-hand sides of build_pbar's polytope."""
    n, d = p.n, Fraction(p.delta)
    strip = [ONE] + [-d] * (n - 1)
    rows = [strip, [-x for x in strip]]
    rhs = [Fraction(p.t), Fraction(p.t)]
    for i in range(1, n):
        e = [ZERO] * n
        e[i] = ONE
        rows.append(e)
        rhs.append(p.beta)
        rows.append([-x for x in e])
        rhs.append(ZERO)
    return rows, rhs


def pbar_u(p: PbarParams) -> tuple[Fraction, ...]:
    """The lattice point with the largest first coordinate."""
    return (Fraction(p.t),) + (ZERO,) * (p.n - 1)


def pbar_v(p: PbarParams) -> tuple[Fraction, ...]:
    """The vertex with the largest first coordinate."""
    return (Fraction(p.t) + (p.n - 1) * p.beta * p.delta,) + (p.beta,) * (p.n - 1)


@dataclass(frozen=True)
class FamilyInstance:
    instance: Instance
    family: str
    params: dict
    expected: dict = field(default_factory=dict)


def build_example_1_1(t: int) -> FamilyInstance:
    """One-variable showcase: min -(x - 1/4)^2 over -t <= x <= t + 3/4.

    The additive constant -1/16 of the expanded square is dropped; it shifts
    every objective value equally and is recorded in expected["constant"].
    """
    if type(t) is not int or t < 0:
        raise InputError("t must be a nonnegative integer")
    inst = instance(A=[[1], [-1]], b=[Fraction(t) + Fraction(3, 4), Fraction(t)],
                    q=[1], h=[Fraction(1, 2)])
    return FamilyInstance(
        inst, "example-1-1", {"t": t},
        expected={
            "constant": Fraction(-1, 16),
            "xd": (Fraction(-t),),
            "xc": (Fraction(t) + Fraction(3, 4),),
            "gap": 2 * Fraction(t) + Fraction(3, 4),
        })


def build_ilp_tightness(n: int, delta: int, beta, t: int = 1) -> FamilyInstance:
    """Linear worst case: maximize x_1 over the strip polytope (k = 0)."""
    p = pbar_params(n, delta, t, beta)
    h = [ZERO] * n
    h[0] = -ONE  # minimizing -x_1 maximizes x_1
    inst = instance(*_pbar_rows(p), q=[], h=h, k=0)
    return FamilyInstance(
        inst, "ilp", {"n": n, "delta": delta, "beta": p.beta, "t": t},
        expected={
            "u": pbar_u(p),
            "v": pbar_v(p),
            "gap": (p.n - 1) * p.beta * p.delta,
        })


def build_pr_tight(n: int, delta: int, t: int, a, beta) -> FamilyInstance:
    """Fully quadratic worst case on the strip polytope (k = n).

    Objective -(x_1 - a)^2 - ((t + n*delta)/beta)^2 * sum_{i>=2} x_i^2 with
    the constant -a^2 dropped.  For 0 < a < (n-1)*beta*delta the integer
    optimum is -u and the continuous optimum is v.
    """
    p = pbar_params(n, delta, t, beta)
    a = _rational(a)
    big = (Fraction(t + n * delta) / p.beta) ** 2
    q = [ONE] + [big] * (n - 1)
    h = [2 * a] + [ZERO] * (n - 1)
    inst = instance(*_pbar_rows(p), q=q, h=h, k=n)
    expected = {"constant": -a * a, "u": pbar_u(p), "v": pbar_v(p)}
    if 0 < a < (n - 1) * p.beta * p.delta:
        expected["xd"] = tuple(-x for x in pbar_u(p))
        expected["xc"] = pbar_v(p)
    return FamilyInstance(inst, "pr-tight",
                          {"n": n, "delta": delta, "t": t, "a": a, "beta": p.beta},
                          expected)


def build_prop45(n: int, delta: int, eps) -> FamilyInstance:
    """Distance lower bound 4(1/eps - 1) + (2/3)(n-1)*delta, via pr-tight."""
    _ints(n=n, delta=delta)
    eps = _rational(eps)
    if not 0 < eps <= 1:
        raise InputError(f"eps must be in (0, 1], got {eps}")
    if n < 2 or delta < 1:
        raise InputError("need n >= 2 and delta >= 1")
    t = math.ceil(2 / eps - 1) - 1
    fam = build_pr_tight(n, delta, t, Fraction(1, 2), Fraction(2, 3))
    expected = dict(fam.expected)
    expected["bound"] = 4 * (1 / eps - 1) + Fraction(2, 3) * (n - 1) * delta
    return FamilyInstance(fam.instance, "prop45",
                          {"n": n, "delta": delta, "eps": eps, "t": t}, expected)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def build_prop44(eps, delta: int, n: int | None = None) -> FamilyInstance:
    """Instance whose continuous optimum has no nearby integer approximation.

    With s = sqrt(eps) rational, n = ceil((4 - 3s)/(1 - s)); alternatively an
    explicit n >= 5 with (1 - 1/(n-3))^2 >= eps.  Either way the pr-tight
    parameters beta = (n-4)/(n-3), a = (n-4)*delta, t = (n-2)*delta are used.
    """
    _ints(delta=delta)
    eps = _rational(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    if delta < 1:
        raise InputError("delta must be >= 1")
    if n is None:
        s = _rational_sqrt(eps)
        if s is None:
            raise InputError(
                "sqrt(eps) is irrational; supply n explicitly instead")
        n = math.ceil((4 - 3 * s) / (1 - s))
    _ints(n=n)
    if n < 5:
        raise InputError(f"n must be >= 5, got {n}")
    if (1 - Fraction(1, n - 3)) ** 2 < eps:
        raise InputError(f"n={n} too small for eps={eps}")
    beta = Fraction(n - 4, n - 3)
    a = Fraction((n - 4) * delta)
    t = (n - 2) * delta
    fam = build_pr_tight(n, delta, t, a, beta)
    expected = dict(fam.expected)
    expected["f_u"] = Fraction(-4 * delta * delta)
    expected["f_xd"] = -Fraction((2 * n - 6) * delta) ** 2
    expected["ratio_u"] = Fraction((n - 4) * (n - 2), (n - 3) ** 2)
    return FamilyInstance(fam.instance, "prop44",
                          {"n": n, "delta": delta, "eps": eps,
                           "a": a, "beta": beta, "t": t}, expected)


def build_prop46(n: int, delta: int, eps) -> FamilyInstance:
    """Instance whose integer optimum has no nearby continuous approximation.

    The strip polytope is cut once more by x_1 - delta*sum x_i <= beta - 1 + t
    (same matrix rows, so the subdeterminant bound is unchanged); objective
    is -x_1^2 alone (k = 1).
    """
    _ints(n=n, delta=delta)
    eps = _rational(eps)
    if not 0 < eps < Fraction(1, 2):
        raise InputError(f"eps must be in (0, 1/2), got {eps}")
    if n < 2 or delta < 2:
        raise InputError("need n >= 2 and delta >= 2")
    beta = Fraction(1, 2)
    t = math.floor(((n - 1) * beta * delta + beta - 1) / eps)
    p = pbar_params(n, delta, t, beta)
    rows, rhs = _pbar_rows(p)
    q = [ONE]
    h = [ZERO] * n
    inst = instance(rows + rows[:1], rhs + [beta - 1 + t], q=q, h=h, k=1)
    w = ((n - 1) * beta * delta + beta - 1 + t,) + (beta,) * (n - 1)
    return FamilyInstance(
        inst, "prop46", {"n": n, "delta": delta, "eps": eps, "t": t},
        expected={
            "u": pbar_u(p),
            "xd": tuple(-x for x in pbar_u(p)),
            "xc": w,
            "bound": ((n - 1) * delta - 1) / eps - 2,
            "radius": 2 * t,
        })


def random_instance(seed: int, n_max: int = 3, k_max: int = 2,
                    entry_bound: int = 2, box_bound: int = 3) -> Instance:
    """Seeded random bounded instance with a guaranteed lattice point.

    Enclosing box rows keep the region bounded; extra rows are anchored at a
    random integer point so the lattice is never empty.
    """
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    k = rng.randint(0, min(k_max, n))
    rows = []
    rhs = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        rows.append(list(e))
        rhs.append(Fraction(box_bound))
        rows.append([-x for x in e])
        rhs.append(Fraction(box_bound))
    x0 = [rng.randint(-box_bound + 1, box_bound - 1) for _ in range(n)]
    for _ in range(rng.randint(0, 3)):
        row = [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(n)]
        if all(x == 0 for x in row):
            continue
        slack = rng.randint(0, 2)
        rows.append(row)
        rhs.append(sum(c * v for c, v in zip(row, x0)) + slack)
    q = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k)]
    h = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    return instance(rows, rhs, q=q, h=h, k=k)
