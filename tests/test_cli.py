import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from iqprox import cli, errors, exact, formats, oracles, polyhedra
from iqprox.cli import main
from iqprox.families import (build_example_1_1, build_pr_tight, build_prop45,
                             random_instance)
from iqprox.pipeline import instance


@pytest.fixture
def ex11_path(tmp_path):
    p = tmp_path / "ex11.json"
    formats.save_instance(build_example_1_1(3).instance, str(p))
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_one_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and len(err.strip().splitlines()) == 1
    return err


def test_roundtrip_serialization():
    for seed in range(20):
        inst = random_instance(seed)
        assert formats.instance_from_dict(formats.instance_to_dict(inst)) == inst


def test_instance_from_dict_keeps_the_int_entries_of_a(monkeypatch):
    """A JSON int of A reaches instance() as the int it is, and a string
    entry of A goes through str_to_rat; the instance is the same either
    way."""
    seen = []
    build = formats.instance
    monkeypatch.setattr(formats, "instance", lambda A, *rest: seen.append(A) or build(A, *rest))
    doc = {"A": [[1, -2], ["3", "4/2"]], "b": ["1", "2"], "q": ["1"], "h": ["0", "1"]}
    inst = formats.instance_from_dict(doc)
    assert seen == [[[1, -2], [F(3), F(2)]]]
    assert [type(x) for row in seen[0] for x in row] == [int, int, F, F]
    assert inst == instance([[1, -2], [3, 2]], [1, 2], [1], [0, 1])


def test_rational_strings():
    assert formats.rat_to_str(F(3, 4)) == "3/4"
    assert formats.rat_to_str(F(-5)) == "-5"
    assert formats.str_to_rat("3/4") == F(3, 4)
    assert formats.str_to_rat("0.5") == F(1, 2)
    assert formats.str_to_rat(-7) == F(-7)
    with pytest.raises(Exception):
        formats.str_to_rat("1.5.2")
    for bad in (0.5, 1.0, True, False, None, F(1, 2)):
        with pytest.raises(errors.InputError):
            formats.str_to_rat(bad)


PAST_LIMIT = ("1e5000", "1e-5000", "1e4301", "-3E-4301", "1e+0004301")


@pytest.mark.parametrize("literal", [
    "3", "-3", "+3", "007", "-0", " 3", "3 ", " -3 ", "1_0", "\u0663", "\u00b2",
    "0.5", "1e3", "-1/2", " 3/4 ", "", "+", "-", "+-3", "3/0", "1.5.2",
    True, False, 2.0, 0.5, None, 12, -12, F(1, 2),
    # p/q: signs, spaces, zero denominators, underscores, leading zeros
    "7/3", "-14/6", "+14/6", "-0/5", "007/021", "7/-3", "7/+3", "-+7/3", "- 7/3",
    "7 /3", "7/ 3", " -7/3", "7/3 ", "7/0", "-7/00", "0/0", "1_0/3", "10/3_0",
    "1__0/3", "10/_3", "7/", "/3", "-/3", "7/3/2", "\u0663/4", "3/\u0663",
    # past the interpreter's 4,300-digit limit on str to int
    pytest.param("1" * 4301, id="long-p"), pytest.param("-1/" + "1" * 4301, id="long-q"),
    pytest.param("1" * 4301 + "/3", id="long-p/q"),
    # exponents up to that limit in absolute value, and past it
    "1e4300", "-2.5E-4300", " 1e+4_300 ", "\u0661e\u0663",
    *PAST_LIMIT, pytest.param("1.5e-" + "9" * 4301, id="long-exponent"),
])
def test_str_to_rat_matches_fraction(literal):
    """str_to_rat reads an ASCII p or p/q, p a sign and digits and q
    digits, with int and every other string with Fraction: the value is
    Fraction(literal)'s, in lowest terms, and an InputError stands where
    Fraction raises, where the literal's exponent exceeds the interpreter's
    4,300-digit limit in absolute value, and for every literal that is
    neither a string nor an int ("\u0663" is the Arabic-Indic digit 3,
    "\u00b2" a superscript 2)."""
    if type(literal) not in (str, int) or literal in PAST_LIMIT:
        with pytest.raises(errors.InputError):
            formats.str_to_rat(literal)
        return
    try:
        want = F(literal)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(errors.InputError):
            formats.str_to_rat(literal)
        return
    got = formats.str_to_rat(literal)
    assert got == want
    assert type(got) is F


@pytest.mark.parametrize("value, text", [
    (3, "3"), (-3, "-3"), (F(6, 4), "3/2"), (F(-4, 2), "-2"), (True, "1"), ("5/10", "1/2"),
])
def test_rat_to_str(value, text):
    assert formats.rat_to_str(value) == text


def test_run_report_digest_is_its_instance_document_digest(capsys, ex11_path):
    assert main(["proximity", ex11_path, "--eps", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = formats.instance_from_dict(doc["instance"])
    assert doc["digest"] == formats.instance_digest(inst)
    assert doc["instance"] == formats.instance_to_dict(inst)


def test_emit_writes_the_bytes_of_json_dump(capsys):
    doc = {"a": [1, "2/3", None, True], "b": {"c": []}, "d": "x"}
    cli._emit(doc)
    buf = io.StringIO()
    json.dump(doc, buf, indent=2)
    assert capsys.readouterr().out == buf.getvalue() + "\n"


def test_digest_stable():
    inst = random_instance(7)
    assert formats.instance_digest(inst) == formats.instance_digest(inst)
    assert formats.instance_digest(inst) != formats.instance_digest(random_instance(8))


def test_cmd_solve(capsys, ex11_path):
    code, doc = run_json(capsys, ["solve", ex11_path])
    assert code == 0
    assert doc["xd"] == ["-3"]
    assert doc["xc"] == ["15/4"]


def test_cmd_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 2


@pytest.mark.parametrize("content", [
    {"A": [["x"]], "b": ["1"], "q": ["1"], "h": ["0"]},
    {"A": [[1]], "b": ["1"], "k": "z", "q": ["1"], "h": ["0"]},
    {"A": [[1]], "b": ["1"], "n": "z", "q": ["1"], "h": ["0"]},
    {"A": 5, "b": ["1"], "q": ["1"], "h": ["0"]},
    b"\xff\xfe",
    None,  # a directory
    {"A": [[1.0], [-1]], "b": [3.5, "3"], "k": 1.9, "q": ["1"], "h": ["0"]},
    {"A": [[True], [-1]], "b": ["1", "1"], "q": ["1"], "h": ["0"]},
    {"A": [[1], [-1]], "b": ["1", "1"], "q": ["1"], "h": ["0"], "n": 1.0},
    {"A": [], "b": [], "q": [], "h": []},
    # a JSON string is no vector: "1100" would read as b = (1, 1, 0, 0)
    {"A": [[1], [-1], [1], [-1]], "b": "1100", "q": ["1"], "h": ["0"]},
    {"A": [[1], "1"], "b": ["1", "1"], "q": ["1"], "h": ["0"]},
    {"A": "11", "b": ["1", "1"], "q": ["1"], "h": ["0"]},
    {"A": [[1], [-1]], "b": ["1", "1"], "q": "1", "h": ["0"]},
    {"A": [[1], [-1]], "b": ["1", "1"], "q": ["1"], "h": "0"},
    {"A": {"1": 0}, "b": ["1"], "q": ["1"], "h": ["0"]},
    b"[" * 100_000,  # json.load raises RecursionError
], ids=["A-entry", "k", "n", "A-scalar", "not-utf8", "directory", "floats",
        "A-bool", "n-float", "empty", "b-string", "A-row-string", "A-string",
        "q-string", "h-string", "A-object", "deep"])
def test_cmd_solve_malformed_instance(capsys, tmp_path, content):
    p = tmp_path / "inst.json"
    if content is None:
        p.mkdir()
    elif isinstance(content, bytes):
        p.write_bytes(content)
    else:
        p.write_text(json.dumps(content))
    assert_one_input_error(capsys, ["solve", str(p)])


LONG_JSON = "1" * 5000
LONG_JSON_ECHO = f"{LONG_JSON[:80]!r}... (5000 characters)"


@pytest.mark.parametrize("content, message", [
    ({"A": [[1], [-1]], "b": ["1", "1"], "q": ["1"], "h": LONG_JSON},
     f"expected a JSON array of rationals, got {LONG_JSON_ECHO}"),
    ({"A": LONG_JSON, "b": ["1", "1"], "q": ["1"], "h": ["0"]},
     f"A must be a JSON array of rows, got {LONG_JSON_ECHO}"),
    ({"A": [[1], LONG_JSON], "b": ["1", "1"], "q": ["1"], "h": ["0"]},
     f"expected a JSON array of rationals, got {LONG_JSON_ECHO}"),
    ({"A": [[1], [-1]], "b": ["1", "1"], "k": LONG_JSON, "q": ["1"], "h": ["0"]},
     f"k must be a JSON integer, got {LONG_JSON_ECHO}"),
], ids=["h", "A", "A-row", "k"])
def test_cmd_solve_long_malformed_value(capsys, tmp_path, content, message):
    """A malformed instance value is echoed as formats.echo cuts it, so the
    error stays one short line however long the value is."""
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(content))
    err = assert_one_input_error(capsys, ["solve", str(p)])
    assert err == f"input error: {message}\n" and len(err) < 200


def test_cmd_solve_infeasible(capsys, tmp_path):
    p = tmp_path / "bad.json"
    formats.save_instance(instance([[1], [-1]], [-1, 0], [1], [0]), str(p))
    assert main(["solve", str(p)]) == 3


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def solve_run(capsys, path):
    code = main(["solve", path])
    return code, capsys.readouterr().out


def test_main_after_errors_matches_a_first_call(capsys, ex11_path, tmp_path):
    """The cached parser keeps no state from a usage error or a failed run."""
    bad = tmp_path / "bad.json"
    formats.save_instance(instance([[1], [-1]], [-1, 0], [1], [0]), str(bad))
    cli.build_parser.cache_clear()
    first = solve_run(capsys, ex11_path)
    assert first[0] == 0 and json.loads(first[1])["fmax_cont"]
    with pytest.raises(SystemExit) as e:
        main(["solve", ex11_path, "--eps", "1/2"])
    assert e.value.code == 2
    capsys.readouterr()
    assert solve_run(capsys, ex11_path) == first
    assert main(["solve", str(bad)]) == 3
    capsys.readouterr()
    assert solve_run(capsys, ex11_path) == first


def test_main_runs_a_handler_rebound_after_the_first_call(capsys, ex11_path,
                                                          monkeypatch):
    """main looks its handler up by name on every call, as a tracer that
    rebinds cmd_* needs, so the cached parser holds no stale handler."""
    assert main(["subdet", ex11_path]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_subdet", lambda args: seen.append(args.instance) or 0)
    assert main(["subdet", ex11_path]) == 0
    assert seen == [ex11_path]
    assert capsys.readouterr().out == ""


def test_cmd_proximity(capsys, ex11_path):
    code, doc = run_json(capsys, ["proximity", ex11_path, "--eps", "1/2"])
    assert code == 0
    assert doc["case"] == "c1"
    assert doc["x_star_int"] == ["-3"]
    assert doc["distance_int"] == "27/4"
    assert doc["schedule"]["theorem_bound"] == "21"
    assert doc["verdicts"]["int_approx"] is True
    assert doc["trace"]
    assert doc["trace"][-1]["termination"] == "small-norm"


def test_cmd_proximity_approximation_claim(capsys, ex11_path, monkeypatch):
    """The outputs' verdicts, which the theorem makes approximations, are
    read after the run's own claims; a verdict that rejects them (verdict
    patched) exits 4 with the approximation claim."""
    monkeypatch.setattr(oracles, "verdict",
                        lambda *args: oracles.ApproxVerdict(False, F(2), False))
    assert main(["proximity", ex11_path, "--eps", "1/2"]) == 4
    assert capsys.readouterr().err == (
        "violation: claim approximation violated: pipeline output failed its verdict\n")


def test_cmd_proximity_bad_eps(capsys, ex11_path):
    assert main(["proximity", ex11_path, "--eps", "0"]) == 2
    assert main(["proximity", ex11_path, "--eps", "x"]) == 2


LONG_LITERAL = "1/" + "1" * 5000  # past the interpreter's limit on int digits
LONG_ECHO = f"{LONG_LITERAL[:80]!r}... (5002 characters)"
LONG_POINT = ",".join(["1"] * 3000)


@pytest.mark.parametrize("args, echo", [
    (["--eps", LONG_LITERAL], f"bad rational literal {LONG_ECHO}"),
    (["--eps", "1/2", "--xc", LONG_LITERAL], f"bad rational literal {LONG_ECHO}"),
    (["--eps", "1/2", "--xc", LONG_POINT],
     f"point {LONG_POINT[:80]!r}... (5999 characters) has dimension 3000, the instance 1"),
    (["--eps", "1/2/3"], "bad rational literal '1/2/3'"),
    (["--eps", "1/2", "--xc", "1,2"], "point '1,2' has dimension 2, the instance 1"),
], ids=["eps", "xc", "xc-dimension", "eps-short", "xc-dimension-short"])
def test_cmd_proximity_overlong_literal(capsys, ex11_path, args, echo):
    """A rejected literal is echoed whole up to 80 characters, and past
    that as its first 80 and its length, so the error stays one short
    line."""
    err = assert_one_input_error(capsys, ["proximity", ex11_path, *args])
    assert err == f"input error: {echo}\n" and len(err) < 200


@pytest.mark.parametrize("value, message", [
    ("1/2/3", "bad rational literal '1/2/3'"),
    ("x" * 81, f"bad rational literal {'x' * 80!r}... (81 characters)"),
    ([1, 2], "bad rational literal [1, 2]: not a string or an int"),
    ([1] * 3000, f"bad rational literal {repr([1] * 3000)[:80]}... (9000 characters): "
                 "not a string or an int"),
], ids=["short", "long", "list", "long-list"])
def test_str_to_rat_echoes_a_long_value_cut(value, message):
    with pytest.raises(errors.InputError) as got:
        formats.str_to_rat(value)
    assert str(got.value) == message


def test_cmd_proximity_checked_anchor(capsys, ex11_path):
    # 0 is a feasible point of -3 <= x <= 15/4 but optimal for neither problem;
    # every supplied anchor is checked against the run's oracle report.
    for eps in ("1/2", "1"):
        for anchor in ("--xd", "--xc"):
            assert_one_input_error(capsys, ["proximity", ex11_path, "--eps", eps,
                                            anchor, "0"])


@pytest.mark.parametrize("flag", ["--checked", "--trace=t.json"])
def test_cmd_proximity_removed_flags(capsys, ex11_path, flag):
    with pytest.raises(SystemExit) as e:
        main(["proximity", ex11_path, "--eps", "1/2", flag])
    assert e.value.code == 2


def test_cmd_tightness_prop45(capsys):
    code, doc = run_json(capsys, ["tightness", "prop45", "--n", "2",
                                  "--delta", "1", "--eps", "1/2"])
    assert code == 0
    assert doc["delta_star"] == "14/3"
    assert doc["status"] == "TIGHT"


def test_cmd_tightness_ilp(capsys):
    code, doc = run_json(capsys, ["tightness", "ilp", "--n", "3",
                                  "--delta", "2", "--beta", "1/2"])
    assert code == 0
    assert doc["gap"] == "2"
    assert doc["status"] == "TIGHT"


def test_cmd_tightness_prop46(capsys):
    code, doc = run_json(capsys, ["tightness", "prop46", "--n", "2",
                                  "--delta", "2", "--eps", "1/4"])
    assert code == 0
    assert doc["certified"] is True
    assert doc["certified_radius"] == "4"
    assert doc["bound"] == "2"


def test_cmd_tightness_bad_params(capsys):
    assert main(["tightness", "prop46", "--n", "2", "--delta", "1",
                 "--eps", "1/4"]) == 2


def test_cmd_tightness_prop45_without_n(capsys):
    assert_one_input_error(capsys, ["tightness", "prop45", "--eps", "1/2"])


def test_cmd_tightness_prop46_without_n(capsys):
    assert_one_input_error(capsys, ["tightness", "prop46", "--eps", "1/4"])


def test_cmd_tightness_ilp_without_n(capsys):
    assert_one_input_error(capsys, ["tightness", "ilp", "--delta", "2"])


def test_cmd_tightness_example11(capsys):
    code, doc = run_json(capsys, ["tightness", "example11", "--t", "1",
                                  "--eps", "1/2"])
    assert code == 0
    assert doc["delta_star"] == "11/4"
    assert doc["upper_bound_only"] is False


@pytest.mark.parametrize("eps", ["-1", "0", "5"])
def test_cmd_tightness_example11_eps_out_of_range(capsys, eps):
    assert_one_input_error(capsys, ["tightness", "example11", "--t", "2", "--eps", eps])


def test_cmd_tightness_prop44(capsys):
    code, doc = run_json(capsys, ["tightness", "prop44", "--eps", "1/4"])
    assert code == 0
    assert (doc["n"], doc["delta_star"], doc["bound"]) == (5, "8", "5")
    assert doc["status"] == "TIGHT"


def test_cmd_tightness_prop45_without_eps(capsys):
    assert main(["tightness", "prop45", "--n", "2"]) == 2
    assert capsys.readouterr().err.strip() == (
        "input error: --eps is required for this family")


def test_cmd_subdet(capsys, tmp_path):
    from iqprox.families import build_pbar, build_ilp_tightness
    fam = build_ilp_tightness(2, 3, F(1, 2))
    p = tmp_path / "pbar.json"
    formats.save_instance(fam.instance, str(p))
    code, doc = run_json(capsys, ["subdet", str(p)])
    assert code == 0
    assert doc["max_abs_subdeterminant"] == 3


def test_cmd_cone(capsys, ex11_path):
    code, doc = run_json(capsys, ["cone", ex11_path, "--xa", "1", "--xb", "0"])
    assert code == 0
    assert doc["generators"] == [["1"]]


def test_cmd_proximity_wrong_dimension(capsys, ex11_path):
    assert_one_input_error(capsys, ["proximity", ex11_path, "--eps", "1/2",
                                    "--xc", "1,2", "--xd", "-3"])


def test_cmd_cone_wrong_dimension(capsys, ex11_path):
    assert_one_input_error(capsys, ["cone", ex11_path, "--xa", "1,2", "--xb", "0"])


def test_cmd_cone_without_rows(capsys, tmp_path):
    p = tmp_path / "norows.json"
    p.write_text(json.dumps({"A": [], "b": [], "k": 1, "q": ["1"], "h": ["0", "1"]}))
    assert_one_input_error(capsys, ["cone", str(p), "--xa", "0,0", "--xb", "0,0"])


EXIT_OF_ERROR = {
    "DimensionError": (2, "input error:"),
    "DomainError": (2, "input error:"),
    "InputError": (2, "input error:"),
    "InfeasibleError": (3, "infeasible:"),
    "UnboundedError": (3, "unbounded:"),
    "ClaimViolation": (4, "violation:"),
    "RepresentationMismatch": (4, "violation:"),
}


@pytest.mark.parametrize("error_class", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
], ids=lambda cls: cls.__name__)
def test_error_exit_codes(capsys, ex11_path, monkeypatch, error_class):
    name = error_class.__name__
    assert name in EXIT_OF_ERROR, f"no exit code documented for {name}"
    code, prefix = EXIT_OF_ERROR[name]

    def fail(*args, **kwargs):
        raise error_class("raised by the test")
    monkeypatch.setattr(cli, "build_cone", fail)
    assert main(["cone", ex11_path, "--xa", "1", "--xb", "0"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["solve"], ["proximity", "--eps", "1"]],
                         ids=["solve", "proximity"])
def test_closed_stdout_in_process(capsys, monkeypatch, ex11_path, argv):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main([argv[0], ex11_path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and len(err.strip().splitlines()) == 1


def test_closed_stdout_pipe(ex11_path):
    """A pipe whose read end is closed: exit 2 and one stderr line.

    stdout is block-buffered, as for a user's shell, so the report is still
    in the buffer when main returns and the flush at exit must not raise.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "iqprox.cli", "proximity", ex11_path, "--eps", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), text=True, timeout=120)
    finally:
        os.close(write_end)
    assert_one_output_error(proc)


def cli_env() -> dict:
    """The environment for `python -m iqprox.cli`: this checkout's package,
    and stdout block-buffered when it is not a terminal."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_one_output_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("output error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("redirect", [
    pytest.param("> /dev/full", id="full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full device")),
    pytest.param(">&-", id="closed"),
])
def test_unwritable_stdout(ex11_path, redirect):
    """A report written to a full device (ENOSPC), or a process started
    with descriptor 1 closed (sys.stdout is None): exit 2 and one stderr
    line, as for a closed pipe."""
    proc = subprocess.run(
        ["/bin/sh", "-c", f'exec "$0" -m iqprox.cli solve "$1" {redirect}',
         sys.executable, ex11_path],
        stderr=subprocess.PIPE, env=cli_env(), text=True, timeout=120)
    assert_one_output_error(proc)


def test_verify_report_roundtrip(capsys, ex11_path, tmp_path):
    code = main(["proximity", ex11_path, "--eps", "1/2"])
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out)
    code, doc = run_json(capsys, ["verify-report", str(report)])
    assert code == 0
    assert doc["verified"] is True


def test_verify_report_detects_tampering(capsys, ex11_path, tmp_path):
    main(["proximity", ex11_path, "--eps", "1/2"])
    doc = json.loads(capsys.readouterr().out)
    doc["x_star_int"] = ["3"]  # feasible but a lie about the distance
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(doc))
    assert main(["verify-report", str(report)]) == 4


@pytest.fixture
def ex11_report(capsys, ex11_path):
    assert main(["proximity", ex11_path, "--eps", "1/2"]) == 0
    return json.loads(capsys.readouterr().out)


def verify_edited(capsys, tmp_path, doc, **edits):
    """Exit code and stderr of verify-report on doc with some fields replaced."""
    report = tmp_path / "edited.json"
    report.write_text(json.dumps({**doc, **edits}))
    code = main(["verify-report", str(report)])
    return code, capsys.readouterr().err


def test_verify_report_not_json(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text("{not json")
    assert main(["verify-report", str(report)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_verify_report_nested_too_deeply(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_bytes(b"[" * 100_000)
    assert_one_input_error(capsys, ["verify-report", str(report)])


def test_verify_report_missing_key(capsys, tmp_path, ex11_report):
    del ex11_report["xc"]
    code, err = verify_edited(capsys, tmp_path, ex11_report)
    assert code == 2
    assert "'xc'" in err and len(err.strip().splitlines()) == 1


def test_verify_report_wrong_dimension(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path, ex11_report, xd=["-3", "0"])
    assert code == 2
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["x_star_int", "x_star_cont", "xc", "xd"])
def test_verify_report_string_vector(capsys, tmp_path, ex11_report, key):
    """A point must be a JSON array: the string "3" is not the point (3)."""
    code, err = verify_edited(capsys, tmp_path, ex11_report, **{key: "3"})
    assert code == 2
    assert "JSON array" in err and len(err.strip().splitlines()) == 1


def test_verify_report_string_instance_vector(capsys, tmp_path, ex11_report):
    """An InputError from a report's fields is its own message, not wrapped
    as a malformed report's ValueError."""
    instance_doc = {**ex11_report["instance"], "b": "13"}
    code, err = verify_edited(capsys, tmp_path, ex11_report, instance=instance_doc)
    assert code == 2
    assert err == "input error: expected a JSON array of rationals, got '13'\n"


def test_verify_report_bad_eps_literal(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path, ex11_report, eps="1/0")
    assert code == 2
    assert err == "input error: bad rational literal '1/0'\n"


def test_verify_report_infeasible_point(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path, ex11_report, x_star_int=["100"])
    assert code == 4
    assert "x_star_int is infeasible" in err


def test_verify_report_fractional_point(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path, ex11_report, x_star_int=["1/2"])
    assert code == 4
    assert "x_star_int is not integer" in err


@pytest.mark.parametrize("edits", [
    {"delta": 99},
    {"schedule": {"theorem_bound": "10000"}},
    {"delta": 99, "schedule": {"theorem_bound": "10000"}},
])
def test_verify_report_recomputes_delta_and_bound(capsys, tmp_path, ex11_report,
                                                  edits):
    code, err = verify_edited(capsys, tmp_path, ex11_report, **edits)
    assert code == 4
    assert "recomputed" in err


def test_verify_report_distance_cont_beyond_bound(capsys, tmp_path):
    # A constant objective: every point is optimal, and Delta = 1, k = 0 make
    # the theorem bound 1, so only the distance check can fail.
    p = tmp_path / "flat.json"
    formats.save_instance(instance([[1], [-1]], [100, 0], [], [0], k=0), str(p))
    assert main(["proximity", str(p), "--eps", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schedule"]["theorem_bound"] == "1"
    code, err = verify_edited(capsys, tmp_path, doc, x_star_cont=["100"],
                              distance_cont="100")
    assert code == 4
    assert err.strip() == "distance_cont beyond the theorem bound"


@pytest.mark.parametrize("anchors", [
    [],
    ["--xc", "15/4", "--xd", "-3"],
], ids=["no-anchors", "checked-anchors"])
def test_proximity_without_anchors_enumerates_lattice_once(capsys, ex11_path,
                                                           monkeypatch, anchors):
    calls = []
    for mod, name in ((oracles, "lattice_runs"), (oracles, "enumerate_lattice_points"),
                      (oracles, "enumerate_vertices"), (oracles, "_face_walk"),
                      (polyhedra, "coordinate_range")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    assert main(["proximity", ex11_path, "--eps", "1/2", *anchors]) == 0
    assert sorted(calls) == ["_face_walk", "lattice_runs"]


@pytest.mark.parametrize("fi", [build_prop45(3, 1, "1/2"),
                                build_pr_tight(3, 1, 1, "1/3", "2/3")],
                         ids=["prop45-n3", "pr-tight-n3"])
def test_proximity_scales_the_objective_once(capsys, tmp_path, monkeypatch, fi):
    """One proximity op scales q + h to ints once (Instance.int_objective),
    for the oracle report, the verdicts and the checks alike."""
    path = tmp_path / "inst.json"
    formats.save_instance(fi.instance, str(path))
    qh = fi.instance.q + fi.instance.h
    calls = []
    real = exact.integer_vector
    monkeypatch.setattr(exact, "integer_vector", lambda v: calls.append(v) or real(v))
    assert main(["proximity", str(path), "--eps", "1/2"]) == 0
    assert [v for v in calls if v == qh] == [qh]


def with_anchors(doc, xc, xd):
    """doc with new anchors and the two distances recomputed to match them."""
    xs_int, xs_cont = F(doc["x_star_int"][0]), F(doc["x_star_cont"][0])
    return {**doc, "xc": [str(xc)], "xd": [str(xd)],
            "distance_int": str(abs(F(xc) - xs_int)),
            "distance_cont": str(abs(xs_cont - F(xd)))}


def test_verify_report_forged_anchors(capsys, tmp_path):
    # Moving both anchors to 1 shrinks both distances (19/4 to 3 and 7/4);
    # 1 is a feasible integer point but neither anchor is optimal any more.
    p = tmp_path / "ex11.json"
    formats.save_instance(build_example_1_1(2).instance, str(p))
    assert main(["proximity", str(p), "--eps", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["distance_int"], doc["distance_cont"]) == ("19/4", "19/4")
    forged = with_anchors(doc, 1, 1)
    assert (forged["distance_int"], forged["distance_cont"]) == ("3", "7/4")
    code, err = verify_edited(capsys, tmp_path, forged)
    assert code == 4
    assert err.strip().splitlines() == [
        "xd is not an optimum of the integer problem",
        "xc is not an optimum of the continuous problem"]


def test_verify_report_nonoptimal_xd(capsys, tmp_path, ex11_report):
    # 3 is a feasible integer point of -3 <= x <= 15/4, but f(3) > f(-3).
    code, err = verify_edited(capsys, tmp_path,
                              with_anchors(ex11_report, ex11_report["xc"][0], 3))
    assert code == 4
    assert err.strip() == "xd is not an optimum of the integer problem"


def test_verify_report_infeasible_xc(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path,
                              with_anchors(ex11_report, 4, ex11_report["xd"][0]))
    assert code == 4
    assert err.strip() == "xc is infeasible"


def test_verify_report_forged_digest(capsys, tmp_path, ex11_report):
    code, err = verify_edited(capsys, tmp_path, ex11_report,
                              digest="0" * len(ex11_report["digest"]))
    assert code == 4
    assert err.strip() == "digest mismatch"


def test_verify_report_x_star_cont_fails_verdict(capsys, tmp_path):
    # 1/4 is feasible and 9/4 from xd = -2, within the theorem bound 21, but
    # f(1/4) is not within eps = 1/2 of the continuous optimum.
    p = tmp_path / "ex11.json"
    formats.save_instance(build_example_1_1(2).instance, str(p))
    assert main(["proximity", str(p), "--eps", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["xd"] == ["-2"] and doc["schedule"]["theorem_bound"] == "21"
    code, err = verify_edited(capsys, tmp_path, doc, x_star_cont=["1/4"],
                              distance_cont="9/4")
    assert code == 4
    assert err.strip().splitlines() == ["x_star_cont fails its verdict"]


@pytest.fixture(scope="module")
def prop45_report(tmp_path_factory):
    """The proximity report of prop45 at n = 3, eps = 1/2."""
    path = tmp_path_factory.mktemp("prop45") / "prop45.json"
    formats.save_instance(build_prop45(3, 1, "1/2").instance, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["proximity", str(path), "--eps", "1/2"]) == 0
    return json.loads(out.getvalue())


def verify_forged_block(capsys, tmp_path, doc, block, key, value):
    """verify-report on doc with doc[block][key] set to value: the exit code
    and the stderr lines."""
    code, err = verify_edited(capsys, tmp_path, doc, **{block: {**doc[block], key: value}})
    return code, err.strip().splitlines()


@pytest.mark.parametrize("key, value, line", [
    ("fmax_cont", "999", "oracles.fmax_cont is '999', recomputed '1/4'"),
    ("f_xd", "-999", "oracles.f_xd is '-999', recomputed '-6'"),
    ("xc", ["10/3", "2/3", "1/3"],
     "oracles.xc is ['10/3', '2/3', '1/3'], recomputed ['10/3', '2/3', '2/3']"),
])
def test_verify_report_forged_oracles(capsys, tmp_path, prop45_report, key, value, line):
    """The oracle block is compared with the recomputed full_report."""
    code, err = verify_forged_block(capsys, tmp_path, prop45_report, "oracles", key, value)
    assert (code, err) == (4, [line])


@pytest.mark.parametrize("key, value, line", [
    ("int_ratio", "7/3", "verdicts.int_ratio is '7/3', recomputed '0'"),
    ("int_approx", False, "verdicts.int_approx is False, recomputed True"),
    ("cont_approx", 1, "verdicts.cont_approx is 1, recomputed True"),
    ("cont_ratio", None, "verdicts.cont_ratio is None, recomputed '0'"),
])
def test_verify_report_forged_verdicts(capsys, tmp_path, prop45_report, key, value, line):
    """The verdict block is compared with the two recomputed verdicts, as
    JSON values: 1 is not true."""
    code, err = verify_forged_block(capsys, tmp_path, prop45_report, "verdicts", key, value)
    assert (code, err) == (4, [line])


@pytest.mark.parametrize("key, value, line", [
    ("chi", ["1"], "schedule.chi is ['1'], recomputed ['54', '918', '15606']"),
    ("eps", "1/3", "schedule.eps is '1/3', recomputed '1/2'"),
    ("n", 99, "schedule.n is 99, recomputed 3"),
    ("psi", ["54", "972"], "schedule.psi is ['54', '972'], recomputed ['54', '972', '16578']"),
    ("theorem_bound", "27784", "schedule.theorem_bound is '27784', recomputed '27783'"),
])
def test_verify_report_forged_schedule(capsys, tmp_path, prop45_report, key, value, line):
    """The schedule block is compared with compute_schedule on the
    instance's n, k and Delta and the report's eps."""
    code, err = verify_forged_block(capsys, tmp_path, prop45_report, "schedule", key, value)
    assert (code, err) == (4, [line])


@pytest.mark.parametrize("block", ["schedule", "oracles", "verdicts"])
def test_verify_report_block_field_missing_or_not_an_object(capsys, tmp_path,
                                                            prop45_report, block):
    """A block without one of its fields names the field, and exits 4; a
    block that is not a JSON object is a malformed report, exit 2."""
    doc = prop45_report
    first = next(iter(doc[block]))
    rest = {k: v for k, v in doc[block].items() if k != first}
    code, err = verify_edited(capsys, tmp_path, doc, **{block: rest})
    assert code == 4
    assert err.strip().splitlines() == [
        f"{block}.{first} is missing, recomputed {formats.echo(doc[block][first])}"]
    code, err = verify_edited(capsys, tmp_path, doc, **{block: ["1"]})
    assert code == 2
    assert err.strip() == (f"input error: malformed report: {block} must be a JSON "
                           "object, got ['1']")


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "instance document must be a JSON object"),
    ({"A": [[1]], "b": ["1"], "h": ["0"]}, "malformed instance document: KeyError: 'q'"),
    ({"n": 2, "A": [[1]], "b": ["1"], "q": ["1"], "h": ["0"]},
     "declared n does not match the data"),
    ({"m": 2, "A": [[1]], "b": ["1"], "q": ["1"], "h": ["0"]},
     "declared m does not match the data"),
    ({"A": [[1]], "b": ["1e5000"], "q": ["1"], "h": ["0"]},
     "bad rational literal '1e5000': exponent past the limit on int digits"),
], ids=["not-an-object", "no-q", "n", "m", "exponent"])
def test_formats_instance_checks(tmp_path, doc, message):
    """Each check of an instance file in formats raises its InputError."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(errors.InputError) as got:
        formats.load_instance(str(path))
    assert type(got.value) is errors.InputError and str(got.value) == message
    assert got.traceback[-1].path.name == "formats.py"


@pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
def test_exponent_past_the_digit_limit_is_an_input_error(capsys, tmp_path, literal):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"A": [[1], [-1]], "b": [literal, "1"], "q": ["1"], "h": ["0"]}))
    err = assert_one_input_error(capsys, ["solve", str(path)])
    assert err == (f"input error: bad rational literal {literal!r}: "
                   "exponent past the limit on int digits\n")


def test_cmd_tightness_unknown_family():
    """The parser admits only the five families; called directly with
    another, cmd_tightness raises its InputError."""
    args = argparse.Namespace(family="prop47", n=2, delta=1, t=1, beta="1/2", eps="1/2")
    with pytest.raises(errors.InputError) as got:
        cli.cmd_tightness(args)
    assert str(got.value) == "unknown family 'prop47'"
    assert got.traceback[-1].path.name == "cli.py"


class UnwritableStdout(ClosedStdout):
    """A ClosedStdout on a descriptor: fileno() gives it, or raises when it
    is None."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


def test_main_with_stdout_none(capsys, monkeypatch, ex11_path):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["solve", ex11_path]) == 2
    assert capsys.readouterr().err == "output error: standard output is closed\n"


@pytest.mark.parametrize("on_file", [True, False], ids=["descriptor", "no-descriptor"])
def test_main_with_unwritable_stdout(capsys, monkeypatch, tmp_path, ex11_path, on_file):
    """A write to stdout raises: exit 2 and one stderr line.  When stdout
    has a descriptor, main points it at devnull, so a later write there
    (the flush at exit) reaches no file."""
    path = tmp_path / "out"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT) if on_file else None
    try:
        monkeypatch.setattr(sys, "stdout", UnwritableStdout(fd))
        assert main(["solve", ex11_path]) == 2
        if on_file:
            os.write(fd, b"rest")
    finally:
        if on_file:
            os.close(fd)
    assert capsys.readouterr().err == "output error: cannot write standard output: Broken pipe\n"
    if on_file:
        assert path.read_bytes() == b""
