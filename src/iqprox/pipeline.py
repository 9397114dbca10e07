"""Constructive proximity pipeline for separable concave integer QPs.

Given optimal anchors for the discrete and continuous problems, the pipeline
normalizes the instance so the discrete anchor is the origin, walks the
zeroing sequence governed by the chi/psi threshold schedule, and rounds a
conic decomposition of the endpoint into an integer output together with its
continuous counterpart.  Every intermediate guarantee that does not need a
brute-force oracle is asserted at runtime and raises ClaimViolation with the
claim's name when it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from . import exact
from .cones import (ConicDecomposition, ProximityCone, build_cone,
                    caratheodory_decompose, check_two_representations,
                    combination_int, enumerate_generators)
from .errors import ClaimViolation, DimensionError, DomainError, InputError
from .polyhedra import Polyhedron, contains, contains_int, fix_zero, translate

# run_pipeline and its stages test every point with contains_int, but the
# benchmark's self-check (perfbench/selfcheck.py) rebinds contains by this
# module's name, so the name stays bound here.
__all__ = ["Instance", "Schedule", "StepRecord", "PipelineResult", "MidpointWitnesses",
           "instance", "subdeterminant_bound", "checked_eps", "compute_schedule",
           "eval_objective", "normalize", "restricted_polyhedron", "one_step",
           "build_sequence", "construct_outputs", "midpoint_witnesses", "run_pipeline",
           "contains"]

ZERO = Fraction(0)


@dataclass(frozen=True)
class Instance:
    """Data of the discrete problem and its continuous relaxation.

    Objective: sum_{i<k} -q_i x_i^2 + h.x, minimized over P = {A x <= b}
    (intersected with the integer lattice on the discrete side).
    """

    P: Polyhedron
    k: int
    q: tuple[Fraction, ...]
    h: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.h)

    @property
    def m(self) -> int:
        return self.P.m

    @property
    def A(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.P.A

    @property
    def b(self) -> tuple[Fraction, ...]:
        return self.P.b

    @property
    def int_A(self) -> list[list[int]]:
        """A as ints, read off the int rows: A is integer, so row i's int
        row is A_i times its scale, and each division is exact."""
        return [[a // d for a in row] for row, d in zip(self.P.int_rows[0], self.P.scales)]

    def polyhedron(self) -> Polyhedron:
        return self.P


def instance(A, b, q, h, k: int | None = None) -> Instance:
    """Validated Instance: integer A, positive q, 0 <= k <= n."""
    try:
        rows = exact._integer_matrix(A)
    except DomainError:
        raise InputError("constraint matrix must be integer") from None
    qv = _fractions(q)
    hv = _fractions(h)
    if k is None:
        k = len(qv)
    if k != len(qv):
        raise InputError(f"k={k} but {len(qv)} quadratic coefficients given")
    if not hv:
        raise InputError("an instance needs at least one variable")
    if not 0 <= k <= len(hv):
        raise InputError(f"k={k} out of range for n={len(hv)}")
    if any(x <= 0 for x in qv):
        raise InputError("quadratic coefficients must be positive")
    bv = _fractions(b)
    if len(bv) != len(rows):
        raise InputError("row/rhs count mismatch")
    if any(len(r) != len(hv) for r in rows):
        raise InputError("matrix width does not match h")
    # A is integer, so row i's scale is the denominator of b_i.
    scales = tuple(c.denominator for c in bv)
    P = Polyhedron((tuple(tuple(a * d for a in row) for row, d in zip(rows, scales)),
                    tuple(c.numerator for c in bv)), scales, len(hv))
    return Instance(P, k, qv, hv)


def _fractions(xs) -> tuple[Fraction, ...]:
    """The entries as Fractions; a Fraction is kept as it is."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def subdeterminant_bound(inst: Instance) -> int:
    """Delta of the constraint matrix, floored at 1 for the cone machinery."""
    return max(1, exact.max_abs_subdeterminant(inst.int_A))


@dataclass(frozen=True)
class Schedule:
    """chi/psi thresholds of the zeroing sequence and the proven bound."""

    eps: Fraction
    n: int
    delta: int
    k: int
    chi: tuple[Fraction, ...]
    psi: tuple[Fraction, ...]
    theorem_bound: Fraction

    def psi_at(self, j: int) -> Fraction:
        return self.psi[j - 1] if j >= 1 else ZERO


def checked_eps(eps) -> Fraction:
    """eps as a Fraction; InputError unless an int or a Fraction, not a bool."""
    if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
        raise InputError(f"eps must be an int or a Fraction, got {eps!r}")
    return eps if type(eps) is Fraction else Fraction(eps)


def compute_schedule(n: int, delta: int, k: int, eps) -> Schedule:
    """The thresholds for eps = p/q, an int or a Fraction in (0, 1], and
    int n, delta >= 1 and k >= 0.

    chi_1 = 8 n delta / eps + 2 n delta and, with psi_j the sum of
    delta * chi_i over i <= j, chi_{j+1} = 2 n delta + 8 / eps (psi_j +
    n delta); that is the first rule too, with psi_0 = 0.  So chi_j and
    psi_j are ints over p^j, and the bound n delta (10 delta / eps + 1)^k
    is n delta (10 delta q + p)^k over p^k: the recurrence and the
    schedule-bound claim run on those ints, and each field is made a
    Fraction once.
    """
    eps = checked_eps(eps)
    if not 0 < eps <= 1:
        raise InputError(f"eps must be in (0, 1], got {eps}")
    if any(type(v) is not int for v in (n, delta, k)) or n < 1 or delta < 1 or k < 0:
        raise InputError(f"bad schedule parameters n={n}, delta={delta}, k={k}")
    p, q = eps.numerator, eps.denominator
    nd = n * delta
    chi: list[Fraction] = []
    psi: list[Fraction] = []
    acc, den = 0, 1  # psi_j = acc / den, den = p^j
    for _ in range(k):
        c = 2 * nd * den * p + 8 * q * (acc + nd * den)  # chi_{j+1}, over p^{j+1}
        acc = acc * p + delta * c
        den *= p
        chi.append(Fraction(c, den))
        psi.append(Fraction(acc, den))
    top = nd * (10 * delta * q + p) ** k  # the bound, over den = p^k
    bound = Fraction(top, den)
    if k and acc + nd * den > top:
        raise ClaimViolation("schedule-bound", f"psi_k + n*delta = {psi[-1] + nd} > {bound}")
    return Schedule(eps, n, delta, k, tuple(chi), tuple(psi), bound)


@dataclass
class StepRecord:
    """One entry of the sequence trace (the last carries the stop reason)."""

    j: int
    x_j: tuple[Fraction, ...]
    z_set: frozenset[int]
    n_set: frozenset[int]
    s: int | None = None
    lam: list[Fraction] | None = None
    decomposition: ConicDecomposition | None = None
    termination_reason: str | None = None  # None | "all-large" | "small-norm"


@dataclass
class PipelineResult:
    case: str  # "c1" | "c2"
    x_ell: tuple[Fraction, ...]
    x_star_int: tuple[Fraction, ...]
    x_star_cont: tuple[Fraction, ...]
    trace: list[StepRecord]
    distance_int: Fraction
    distance_cont: Fraction
    schedule: Schedule
    delta: int
    xc: tuple[Fraction, ...]
    xd: tuple[Fraction, ...]
    z_ell: frozenset[int] = frozenset()
    decomposition: ConicDecomposition | None = None
    normalized: "PipelineResult | None" = None
    witnesses: "MidpointWitnesses | None" = None


def _integer_objective(inst: Instance) -> tuple[list[int], list[int], int]:
    """q and h times the lcm d of their denominators, and d."""
    qh, d = exact.integer_vector(inst.q + inst.h)
    return qh[:inst.k], qh[inst.k:], d


def _objective_numerator(q: list[int], h: list[int], X: list[int], e: int) -> int:
    """d e^2 f(x) for x = X / e, with q and h from _integer_objective."""
    return e * sum(map(mul, h, X)) - sum(map(mul, map(mul, q, X), X))


def _objective_at(inst: Instance, X: list[int], e: int) -> Fraction:
    """f(X / e) for an int vector X and an int e > 0."""
    q, h, d = _integer_objective(inst)
    return Fraction(_objective_numerator(q, h, X, e), d * e * e)


def eval_objective(inst: Instance, x) -> Fraction:
    """f(x): x is scaled once to X / e, and f is one int numerator over d e^2."""
    X, e = exact.integer_vector(x)
    if len(X) != inst.n:
        raise exact.DimensionError(f"point has dim {len(X)}, instance has {inst.n}")
    return _objective_at(inst, X, e)


def normalize(inst: Instance, xd) -> tuple[Instance, tuple[int, ...]]:
    """Translate so the given integer feasible point becomes the origin.

    Returns the shifted instance and the translation (the original point)
    as ints; the shifted objective vanishes at the origin by construction.
    The point is scaled once: it is integer when its denominator is 1.  The
    shifted instance holds the instance's polyhedron translated by it.
    """
    X, d = exact.integer_vector(xd)
    if d != 1:
        raise InputError("anchor point must be integer")
    P = inst.polyhedron()
    if len(X) != inst.n:
        raise DimensionError(f"point has dim {len(X)}, polyhedron has {inst.n}")
    if not contains_int(P, X, 1):
        raise InputError("anchor point must be feasible")
    h2 = tuple(inst.h[i] - 2 * X[i] * inst.q[i] if i < inst.k else inst.h[i]
               for i in range(inst.n))
    return Instance(translate(P, X), inst.k, inst.q, h2), tuple(X)


def restricted_polyhedron(inst: Instance, zset) -> Polyhedron:
    """The feasible set with x_i = 0 appended (as +-rows) for i in zset.

    Built on the instance's polyhedron, whose rows and int rows it keeps.
    """
    return fix_zero(inst.polyhedron(), zset)


def _zero_nonzero_sets(x, k) -> tuple[frozenset[int], frozenset[int]]:
    z = frozenset(i for i in range(k) if x[i] == 0)
    return z, frozenset(range(k)) - z


def _conic_step(inst: Instance, zset, x, X,
                delta: int) -> tuple[Polyhedron, ProximityCone, ConicDecomposition]:
    """Restricted polyhedron, cone and conic decomposition of x.

    The polyhedron is the feasible set with x_i = 0 for i in zset, the cone
    is its row-sign cone at x against the origin, and x is decomposed over
    the cone's integer generators by Caratheodory.  X is x times a positive
    int: the cone's sign test takes it and the polyhedron's int rows.
    """
    P = restricted_polyhedron(inst, zset)
    cone = build_cone(P.int_rows[0], X, [0] * inst.n)
    return P, cone, caratheodory_decompose(list(x), enumerate_generators(cone, delta))


def one_step(inst: Instance, xa, zset,
             delta: int) -> tuple[tuple[list[int], int], StepRecord]:
    """Produce the next sequence point: zero one more quadratic coordinate.

    The input must have some nonzero quadratic coordinate whose magnitude,
    scaled by delta, stays below the overall infinity norm; the output keeps
    all previously zeroed coordinates at zero, zeroes the smallest-magnitude
    one, and moves by at most delta times that magnitude.

    xa is the point as (X, d) with X = d x and d > 0, and the next point is
    returned the same way, in lowest terms.  Every test runs on these ints;
    the greedy coefficients lambda are Fractions, as the record reports them,
    and the next point is X / d minus their combination over one
    denominator (cones.combination_int).
    """
    X, d = xa
    P = inst.polyhedron()
    if len(X) != inst.n:
        raise DimensionError(f"point has dim {len(X)}, polyhedron has {inst.n}")
    if not contains_int(P, X, d):
        raise InputError("step input must be feasible")
    z, nset = _zero_nonzero_sets(X, inst.k)
    if z != frozenset(zset):
        raise InputError("supplied zero set does not match the point")
    if not nset:
        raise InputError("all quadratic coordinates are already zero")
    s = min(nset, key=lambda i: (abs(X[i]), i))
    if max(map(abs, X)) <= delta * abs(X[s]):
        raise InputError("caller should have terminated: small-norm condition holds")

    xav = _scaled_fractions(X, d)
    Pt, cone, dec = _conic_step(inst, z, xav, X, delta)

    sgn = 1 if X[s] > 0 else -1
    selected = [i for i, g in enumerate(dec.generators)
                if g[s] != 0 and (g[s] > 0) == (sgn > 0)]
    residual = abs(xav[s])
    lam = [ZERO] * len(dec.generators)
    for i in selected:
        if residual == 0:
            break
        g = dec.generators[i]
        take = min(dec.coefficients[i], residual / abs(g[s]))
        lam[i] = take
        residual -= take * abs(g[s])
    if residual != 0:
        raise ClaimViolation("onestep", "greedy coefficients cannot cover x_s")

    neg = ConicDecomposition([dec.generators[i] for i in selected if lam[i] != 0],
                             [lam[i] for i in selected if lam[i] != 0])
    XB, dB = combination_int(X, d, neg, -1)

    # Claim onestep (iii): both conic expressions agree and land in P.
    rest = [(g, c - l) for g, c, l in zip(dec.generators, dec.coefficients, lam) if c != l]
    pos = ConicDecomposition([g for g, _ in rest], [c for _, c in rest])
    if not check_two_representations(Pt, cone, [0] * inst.n, xav, pos, neg):
        raise ClaimViolation("onestep-iii", "common point escaped the polyhedron")

    # The checks below are implied by earlier ones, so only a corrupted
    # conic step reaches them.  onestep (iii) puts x_b in the restricted
    # polyhedron, where the coordinates of z are 0, and the greedy
    # coefficients cover x_s exactly: onestep-i.
    if any(XB[i] != 0 for i in z | {s}):
        raise ClaimViolation("onestep-i", f"coordinate not zeroed at {sorted(z | {s})}")
    # Each generator is integral with norm <= delta (generator-norm), and
    # |g_s| >= 1 on the ones the step uses: onestep-ii.  x_a - x_b is
    # compared over L = lcm(d, dB).
    L = math.lcm(d, dB)
    if (max(abs(a * (L // d) - b * (L // dB)) for a, b in zip(X, XB)) * d
            > delta * abs(X[s]) * L):
        raise ClaimViolation("onestep-ii", "step moved too far")
    # The restricted polyhedron lies in P: onestep (iii) implies this one.
    if not contains_int(P, XB, dB):
        raise ClaimViolation("onestep", "step output left the polyhedron")

    rec = StepRecord(j=-1, x_j=xav, z_set=z, n_set=nset, s=s, lam=lam, decomposition=dec)
    return (XB, dB), rec


def build_sequence(inst: Instance, xc, schedule: Schedule,
                   delta: int) -> tuple[tuple[list[int], int], list[StepRecord]]:
    """Run the zeroing sequence from the continuous anchor.

    xc is the anchor as (X, d) with X = d x_c and d > 0, and the endpoint is
    returned the same way.  Every point is tested as ints over its own
    denominator, x_c - x_j over the lcm of the two, and each threshold
    through its numerator and denominator; one_step takes and returns its
    point the same way, and a point is made Fractions only for its trace
    record.  The trace has one record per
    sequence point; the last record carries the termination reason
    ("all-large" or "small-norm").
    """
    P = inst.polyhedron()
    XC, dc = xc
    X, d = xc
    trace: list[StepRecord] = []
    j = 0
    while True:
        z, nset = _zero_nonzero_sets(X, inst.k)
        L = math.lcm(dc, d)
        DR = [a * (L // dc) - b * (L // d) for a, b in zip(XC, X)]  # x_c - x_j, times L
        if not contains_int(P, DR, L):
            raise ClaimViolation("xell-a", f"x^c - x^{j} left the polyhedron")
        c = schedule.chi[j] if nset else None  # chi_{j+1}; none is read once N_j is empty
        if all(abs(X[i]) * c.denominator > c.numerator * d for i in nset):
            trace.append(StepRecord(j, _scaled_fractions(X, d), z, nset,
                                    termination_reason="all-large"))
            break
        s = min(nset, key=lambda i: (abs(X[i]), i))
        if max(map(abs, X)) <= delta * abs(X[s]):
            trace.append(StepRecord(j, _scaled_fractions(X, d), z, nset, s=s,
                                    termination_reason="small-norm"))
            break
        if j >= inst.k:
            raise ClaimViolation("sequence-length", "more than k steps taken")
        (NX, dn), rec = one_step(inst, (X, d), z, delta)
        rec.j = j
        trace.append(rec)
        Ln = math.lcm(d, dn)
        if (max(abs(a * (Ln // d) - b * (Ln // dn)) for a, b in zip(X, NX)) * c.denominator
                > delta * c.numerator * Ln):
            raise ClaimViolation("xell-step", f"step {j} exceeded delta*chi_{j + 1}")
        z2, _ = _zero_nonzero_sets(NX, inst.k)
        if len(z2) <= len(z):
            raise ClaimViolation("zero-growth", "zero set did not grow")
        X, d = NX, dn
        j += 1
    ell = trace[-1].j
    if ell > inst.k:
        raise ClaimViolation("sequence-length", f"ell={ell} > k={inst.k}")
    psi = schedule.psi_at(ell)
    if max(map(abs, DR)) * psi.denominator > psi.numerator * L:
        raise ClaimViolation("xell-b", "endpoint drifted beyond psi_ell")
    return (X, d), trace


def _scaled_fractions(X, d: int) -> tuple[Fraction, ...]:
    """The point X / d as Fractions."""
    return tuple(Fraction(x, d) for x in X) if d != 1 else tuple(map(Fraction, X))


def _combine_int(generators, coefficients, n: int) -> list[int]:
    """sum_i coefficients[i] * generators[i] for integral generators and
    int coefficients, in ints."""
    out = [0] * n
    for g, c in zip(generators, coefficients):
        if c:
            out = [o + c * x.numerator for o, x in zip(out, g)]
    return out


def construct_outputs(inst: Instance, xc, x_ell, trace, schedule: Schedule,
                      delta: int) -> PipelineResult:
    """Build the integer output and its continuous counterpart (normalized).

    xc and x_ell are the continuous anchor and the sequence's endpoint
    trace[-1].x_j, each as (X, d) with X = d x and d > 0.  Small-norm
    termination keeps the anchors themselves (case c-1).  Otherwise (case
    c-2) the endpoint's conic decomposition is floored into the integer
    point x* = sum_i floor(c_i) g_i over the integral generators g_i, and
    the result carries its midpoint witnesses.  Every point is checked as
    ints over one positive denominator: x* over 1, x_c - x* over that of
    x_c.  Fractions are built only for the result.
    """
    XC, d = xc
    xcv = _scaled_fractions(XC, d)
    n = inst.n
    nd = n * delta
    last = trace[-1]
    ell = last.j

    if last.termination_reason == "small-norm":
        # Case c-1: the anchors are already close.
        dist = Fraction(max(map(abs, XC)), d)
        if dist > schedule.psi_at(ell + 1):
            raise ClaimViolation("c1-distance", "anchors further apart than psi_{ell+1}")
        origin = (ZERO,) * n
        return PipelineResult(
            case="c1", x_ell=last.x_j, x_star_int=origin, x_star_cont=xcv,
            trace=trace, distance_int=dist, distance_cont=dist,
            schedule=schedule, delta=delta, xc=xcv, xd=origin,
            z_ell=last.z_set)

    # Case c-2.
    zl = last.z_set
    XL, dl = x_ell
    Pbar, _, dec = _conic_step(inst, zl, last.x_j, XL, delta)
    if not exact.is_integral_mat(dec.generators):
        raise ClaimViolation("xstar-integrality", "a generator is not integer")
    XS = _combine_int(dec.generators, [math.floor(c) for c in dec.coefficients], n)
    if max(abs(a - dl * b) for a, b in zip(XL, XS)) > nd * dl:
        raise ClaimViolation("floor-residual", "||x_ell - x_star|| > n*delta")
    if not contains_int(Pbar, XS, 1):
        raise ClaimViolation("xstar-membership", "x_star left the restricted polyhedron")
    nl = last.n_set
    if nl and ell < inst.k:
        thresh = schedule.chi[ell] - nd
        if any(abs(XS[i]) < thresh for i in nl):
            raise ClaimViolation("xstar-d", "a surviving coordinate is too small")
    zstar = frozenset(i for i in range(inst.k) if XS[i] == 0)
    if zstar != zl:
        raise ClaimViolation("xstar-e", f"zero sets differ: {sorted(zstar)} vs {sorted(zl)}")
    XK = [a - d * b for a, b in zip(XC, XS)]  # x_c - x_star, times d
    dist = Fraction(max(map(abs, XK)), d)
    if dist > schedule.psi_at(ell) + nd:
        raise ClaimViolation("xstar-f", "||x_c - x_star|| > psi_ell + n*delta")
    if not contains_int(inst.polyhedron(), XK, d):
        raise ClaimViolation("xstar-g", "x_c - x_star left the polyhedron")

    return PipelineResult(
        case="c2", x_ell=last.x_j, x_star_int=tuple(map(Fraction, XS)),
        x_star_cont=_scaled_fractions(XK, d),
        trace=trace, distance_int=dist, distance_cont=dist,
        schedule=schedule, delta=delta, xc=xcv, xd=(ZERO,) * n,
        z_ell=zl, decomposition=dec,
        witnesses=midpoint_witnesses(inst, dec, delta, xc, XS, Pbar))


@dataclass
class MidpointWitnesses:
    x_tri: tuple[Fraction, ...]
    x_l: tuple[Fraction, ...]
    x_r: tuple[Fraction, ...]
    x_dia: tuple[Fraction, ...]


def midpoint_witnesses(inst: Instance, dec: ConicDecomposition, delta: int, xc,
                       XS, Pbar: Polyhedron) -> MidpointWitnesses:
    """Integer points flanking the half-way point of the rounded output.

    Operates on the normalized problem (discrete anchor at the origin) in
    case c-2: dec is the decomposition of the endpoint over the generators
    of the restricted polyhedron Pbar, XS the rounded point x* as ints, and
    xc the continuous anchor as (X, d) with X = d x_c.  The parity split of
    the floored coefficients gives two lattice points of Pbar whose
    midpoint is x*/2; the fourth witness is the midpoint of x_c and
    x_c - x*, which must be feasible.
    """
    n = inst.n
    # Every coefficient is > 0, so each floor fl >= 0 splits as fl // 2
    # plus fl - fl // 2.
    floors = [math.floor(c) for c in dec.coefficients]
    if not exact.is_integral_mat(dec.generators):
        raise ClaimViolation("witness-integrality", "a generator is not integer")
    XLw, XRw = (_combine_int(dec.generators, cs, n)
                for cs in ([f // 2 for f in floors], [f - f // 2 for f in floors]))
    if any(a + b != c for a, b, c in zip(XLw, XRw, XS)):
        raise ClaimViolation("witness-midpoint", "parity split misses the midpoint")
    if not (contains_int(Pbar, XLw, 1) and contains_int(Pbar, XRw, 1)):
        raise ClaimViolation("witness-membership", "a witness left the restricted polyhedron")
    if max(abs(a - b) for a, b in zip(XRw, XLw)) > n * delta:
        raise ClaimViolation("witness-span", "||x_r - x_l|| > n*delta")
    XC, d = xc
    XD = [2 * a - d * b for a, b in zip(XC, XS)]  # (x_c + (x_c - x_star)) / 2, times 2d
    if not contains_int(inst.polyhedron(), XD, 2 * d):
        raise ClaimViolation("witness-diamond", "continuous midpoint left the polyhedron")
    return MidpointWitnesses(_scaled_fractions(XS, 2), tuple(map(Fraction, XLw)),
                             tuple(map(Fraction, XRw)), _scaled_fractions(XD, 2 * d))


def run_pipeline(inst: Instance, eps, xc, xd) -> PipelineResult:
    """End-to-end construction in the instance's original coordinates.

    xc and xd are optimal solutions of the continuous and the discrete
    problem; the construction checks that both are feasible but takes
    their optimality as given.  The continuous anchor is scaled to ints
    once, X_c = d x_c, and the discrete anchor is the integer shift; the
    shift keeps d the denominator of every continuous point after it, and
    the integer points are over 1.  Fractions are built only for the
    result.
    """
    XC, d = exact.integer_vector(xc)
    if len(XC) != inst.n:
        raise DimensionError(f"point has dim {len(XC)}, polyhedron has {inst.n}")
    P = inst.polyhedron()
    if not contains_int(P, XC, d):
        raise InputError("continuous anchor is infeasible")

    delta = subdeterminant_bound(inst)
    norm_inst, S = normalize(inst, xd)
    sched = compute_schedule(inst.n, delta, inst.k, eps)
    YC = [a - d * s for a, s in zip(XC, S)]  # y_c = x_c - shift, times d
    (YL, dl), trace = build_sequence(norm_inst, (YC, d), sched, delta)
    norm_result = construct_outputs(norm_inst, (YC, d), (YL, dl), trace, sched, delta)
    XS = [x.numerator for x in norm_result.x_star_int]

    XI = [a + s for a, s in zip(XS, S)]  # the integer output
    XO = [a - d * b for a, b in zip(XC, XS)]  # the continuous output, times d
    result = replace(
        norm_result,
        x_ell=_scaled_fractions([a + dl * s for a, s in zip(YL, S)], dl),
        x_star_int=tuple(map(Fraction, XI)),
        x_star_cont=_scaled_fractions(XO, d),
        xc=_scaled_fractions(XC, d), xd=tuple(map(Fraction, S)),
        normalized=norm_result)
    if result.distance_int > sched.theorem_bound:
        raise ClaimViolation("theorem-bound", "integer output beyond the proven distance")
    # construct_outputs gives distance_cont = distance_int, so the check
    # above fires first.
    if result.distance_cont > sched.theorem_bound:
        raise ClaimViolation("theorem-bound", "continuous output beyond the proven distance")
    # XI is the discrete anchor, checked by normalize, in case c-1, and the
    # shift of x* in the restricted polyhedron (xstar-membership) in c-2.
    if not contains_int(P, XI, 1):
        raise ClaimViolation("xstar-feasible", "integer output is infeasible")
    # XO / d is the continuous anchor, checked above, in case c-1, and the
    # shift of x_c - x* (xstar-g) in c-2.
    if not contains_int(P, XO, d):
        raise ClaimViolation("xstarc-feasible", "continuous output is infeasible")
    return result
