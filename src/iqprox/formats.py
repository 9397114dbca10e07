"""JSON instance files and machine-readable run reports.

Every exact number crossing the process boundary is a rational string ("3/4"
or "5") or a JSON integer, and a float read from outside is rejected, so
parse(serialize(x)) is exact; only a report's elapsed_seconds is a float.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

from .errors import InputError
from .pipeline import Instance, PipelineResult, instance


def rat_to_str(x) -> str:
    """The string "p/q", or "p" for an integer, of an int (a bool counts as
    one) or a Fraction; InputError for any other type, and when p or q is
    past the limit on int digits, which inputs within it can reach."""
    try:
        if type(x) is int:
            return str(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except AttributeError:
        raise InputError(f"a number must be an int or a Fraction, "
                         f"not {type(x).__name__}") from None
    except ValueError as e:
        raise InputError(past_digit_limit()) from e


def past_digit_limit() -> str:
    """The error message where str or json.dumps refuses an int's digits."""
    return (f"a number to write has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit on int digits")


ECHO_CHARS = 80  # the most of a rejected literal an error message repeats


def echo(x) -> str:
    """repr(x) for an error message, cut when long: a string of more than
    ECHO_CHARS characters as the repr of its first ECHO_CHARS and its
    length, and any other value whose repr is longer as that repr's first
    ECHO_CHARS characters and its length."""
    if type(x) is str:
        if len(x) <= ECHO_CHARS:
            return repr(x)
        return f"{x[:ECHO_CHARS]!r}... ({len(x)} characters)"
    text = repr(x)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def str_to_rat(s) -> Fraction:
    """The exact rational of a string ("3/4", "0.5") or an int; no float, no bool.

    An ASCII p or p/q, p a sign and digits and q digits other than zero,
    is read by int; every other string by Fraction, which reads those the
    same way.  Both raise ValueError on a literal past the interpreter's
    limit on int digits, which is then an InputError too.  Fraction builds
    the power of ten of an exponent literal ("1e3") whatever its size, so
    an exponent whose absolute value exceeds that limit is an InputError
    before Fraction reads it; a decimal or exponent literal whose value has
    a numerator or denominator of more digits than the limit ("1e4300",
    "1e-4300") is one after, as the same value written out in digits is.
    """
    if type(s) not in (str, int):
        raise InputError(f"bad rational literal {echo(s)}: not a string or an int")
    limit = sys.get_int_max_str_digits()  # 0 is no limit
    try:
        if type(s) is int:
            return Fraction(s)
        if s.isascii():
            num, slash, den = s.partition("/")
            digits = num[1:] if num[:1] in ("+", "-") else num
            if digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit() and den.strip("0"):
                    return Fraction(int(num), int(den))
        _, mark, exp = s.upper().rpartition("E")
        x = None if mark and 0 < limit < abs(int(exp)) else Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational literal {echo(s)}") from e
    if x is None:
        raise InputError(f"bad rational literal {echo(s)}: exponent past the limit on int digits")
    if limit and max(abs(x.numerator), x.denominator) >= 10 ** limit:
        raise InputError(f"bad rational literal {echo(s)}: more than {limit} digits, "
                         "the interpreter's limit on int digits")
    return x


def vec_to_strs(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def strs_to_vec(xs) -> list[Fraction]:
    """The rationals of a JSON array; InputError for anything else, such as
    a string, whose characters would otherwise read as entries."""
    if type(xs) is not list:
        raise InputError(f"expected a JSON array of rationals, got {echo(xs)}")
    return [str_to_rat(x) for x in xs]


def _matrix_row(xs) -> list:
    """A row of A: strs_to_vec, with each JSON int kept as the int it is."""
    if type(xs) is not list:
        raise InputError(f"expected a JSON array of rationals, got {echo(xs)}")
    return [x if type(x) is int else str_to_rat(x) for x in xs]


def instance_to_dict(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "k": inst.k,
        "A": inst.int_A,
        "b": vec_to_strs(Fraction(c, d) for c, d in zip(inst.P.int_rows[1], inst.P.scales)),
        "q": vec_to_strs(inst.q),
        "h": vec_to_strs(inst.h),
    }


def instance_from_dict(d: dict) -> Instance:
    """The validated instance of a document; InputError when it is malformed.

    A is a JSON array of rows; each row and b, q and h are JSON arrays
    whose entries go through str_to_rat, except that a JSON int of A is
    passed on as it is; k, n and m are JSON ints.
    """
    try:
        for key in ("k", "n", "m"):
            if key in d and type(d[key]) is not int:
                raise InputError(f"{key} must be a JSON integer, got {echo(d[key])}")
        if type(d["A"]) is not list:
            raise InputError(f"A must be a JSON array of rows, got {echo(d['A'])}")
        q = strs_to_vec(d["q"])
        inst = instance([_matrix_row(row) for row in d["A"]], strs_to_vec(d["b"]),
                        q, strs_to_vec(d["h"]), d.get("k", len(q)))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed instance document: {type(e).__name__}: {e}") from e
    if d.get("n", inst.n) != inst.n:
        raise InputError("declared n does not match the data")
    if d.get("m", inst.m) != inst.m:
        raise InputError("declared m does not match the data")
    return inst


def save_instance(inst: Instance, path: str):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def read_json(path: str, what: str):
    """The JSON document in a file; InputError when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # not UTF-8, not JSON, too deep
        raise InputError(f"cannot read {what} {path}: {e}") from e


def load_instance(path: str) -> Instance:
    d = read_json(path, "instance")
    if not isinstance(d, dict):
        raise InputError("instance document must be a JSON object")
    return instance_from_dict(d)


def instance_digest(inst: Instance) -> str:
    return _digest(instance_to_dict(inst))


def _digest(doc: dict) -> str:
    """sha256 of an instance document in canonical JSON."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def schedule_to_dict(sched) -> dict:
    return {
        "eps": rat_to_str(sched.eps),
        "n": sched.n,
        "delta": sched.delta,
        "k": sched.k,
        "chi": vec_to_strs(sched.chi),
        "psi": vec_to_strs(sched.psi),
        "theorem_bound": rat_to_str(sched.theorem_bound),
    }


def oracles_to_dict(report) -> dict:
    """The oracle block of a run report: both optima and both maxima."""
    return {
        "xd": vec_to_strs(report.int_opt.point),
        "f_xd": rat_to_str(report.int_opt.value),
        "xc": vec_to_strs(report.cont_opt.point),
        "f_xc": rat_to_str(report.cont_opt.value),
        "fmax_int": rat_to_str(report.fmax_int),
        "fmax_cont": rat_to_str(report.fmax_cont),
    }


def verdicts_to_dict(vi, vc) -> dict:
    """The verdict block of a run report, from the integer and the
    continuous output's verdicts."""
    return {
        "int_ratio": None if vi.ratio is None else rat_to_str(vi.ratio),
        "cont_ratio": None if vc.ratio is None else rat_to_str(vc.ratio),
        "int_approx": vi.is_approx,
        "cont_approx": vc.is_approx,
    }


def trace_to_list(trace) -> list[dict]:
    out = []
    for rec in trace:
        out.append({
            "j": rec.j,
            "x": vec_to_strs(rec.x_j),
            "zero_set": sorted(rec.z_set),
            "nonzero_set": sorted(rec.n_set),
            "s": rec.s,
            "termination": rec.termination_reason,
        })
    return out


def run_report(inst: Instance, result: PipelineResult, report, verdicts: dict,
               elapsed: float) -> dict:
    doc = instance_to_dict(inst)
    return {
        "instance": doc,
        "digest": _digest(doc),
        "delta": result.delta,
        "eps": rat_to_str(result.schedule.eps),
        "schedule": schedule_to_dict(result.schedule),
        "case": result.case,
        "x_star_int": vec_to_strs(result.x_star_int),
        "x_star_cont": vec_to_strs(result.x_star_cont),
        "xc": vec_to_strs(result.xc),
        "xd": vec_to_strs(result.xd),
        "distance_int": rat_to_str(result.distance_int),
        "distance_cont": rat_to_str(result.distance_cont),
        "trace": trace_to_list(result.trace),
        "oracles": oracles_to_dict(report),
        "verdicts": verdicts,
        "elapsed_seconds": elapsed,
    }
