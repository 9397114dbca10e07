import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import iqprox
from iqprox import errors

SOURCES = sorted(Path(iqprox.__file__).parent.glob("*.py"))


def nodes_where(pred) -> list[str]:
    """file:line of every AST node under src/iqprox/ that satisfies pred."""
    assert SOURCES
    return [f"{path.name}:{node.lineno}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if pred(node)]


def test_no_assert_statements():
    """Claims raise ClaimViolation; `python -O` would strip an assert."""
    assert nodes_where(lambda node: isinstance(node, ast.Assert)) == []


def is_float(node) -> bool:
    return ((isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"))


def test_no_floats():
    """Arithmetic is exact: no float literal and no float(...) call."""
    assert nodes_where(is_float) == []


def names_in(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def scales_back_by_hand(node) -> bool:
    """A map(Fraction, ...) call, or a comprehension over x whose element
    (or a branch of it, for an if-else) is Fraction(x, y) with y not bound
    by that comprehension: a point of ints over one common denominator."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "map"
                and bool(node.args) and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "Fraction")
    if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return False
    bound = set().union(*(names_in(g.target) for g in node.generators))
    elt = node.elt
    return any(isinstance(e, ast.Call) and isinstance(e.func, ast.Name)
               and e.func.id == "Fraction" and len(e.args) == 2
               and isinstance(e.args[0], ast.Name) and e.args[0].id in bound
               and not names_in(e.args[1]) & bound
               for e in ([elt.body, elt.orelse] if isinstance(elt, ast.IfExp) else [elt]))


def test_points_become_fractions_through_rational_vector():
    """Outside exact.py, a point held as ints X over one denominator d is
    made Fractions only by exact.rational_vector(X, d)."""
    assert [site for site in nodes_where(scales_back_by_hand)
            if not site.startswith("exact.py:")] == []


ERROR_CLASSES = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__}


def raises_foreign_error(node) -> bool:
    """A raise X(...) whose X, by name or as module.X, is no iqprox.errors class."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
        return False
    func = node.exc.func
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)
    return name not in ERROR_CLASSES


def test_errors_come_from_iqprox_errors():
    """Every raised error is an iqprox.errors class, each of which the CLI
    maps to an exit code."""
    assert nodes_where(raises_foreign_error) == []


RESULT_ERRORS = {"InfeasibleError", "UnboundedError", "ClaimViolation",
                 "RepresentationMismatch"}


def catches_a_result_error(node) -> bool:
    """An except clause that names one of RESULT_ERRORS, bare or as an
    attribute."""
    return (isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(isinstance(n, ast.Name) and n.id in RESULT_ERRORS
                    or isinstance(n, ast.Attribute) and n.attr in RESULT_ERRORS
                    for n in ast.walk(node.type)))


def test_only_the_cli_catches_result_errors():
    """An empty or unbounded region and a failed claim reach the CLI, which
    maps each to its exit code: no other module catches them, to decide a
    result from a raised error."""
    assert [site for site in nodes_where(catches_a_result_error)
            if not site.startswith("cli.py:")] == []


def imports_in_body(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, (ast.Import, ast.ImportFrom))
                    for stmt in node.body for n in ast.walk(stmt)))


def test_no_function_local_imports():
    """Every module imports at the top, so each dependency is in plain sight."""
    assert nodes_where(imports_in_body) == []


def writes_private_state(node) -> bool:
    """An object.__setattr__(...) call, or an assignment into x.__dict__[...]."""
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Attribute) and f.attr == "__setattr__"
                and isinstance(f.value, ast.Name) and f.value.id == "object")
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
               and t.value.attr == "__dict__" for t in targets)


def test_no_private_state_writes():
    """A frozen dataclass holds its data in its fields, built by its
    constructor: no module seeds a cache behind it."""
    assert nodes_where(writes_private_state) == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_entry_points_exist():
    """perfbench/tracer.py rebinds each ENTRY_POINTS name by getattr, so a
    renamed or deleted function breaks the traced benchmark run."""
    tracer = load_tracer()
    missing = [f"{layer}.{name}"
               for layer, names in tracer.ENTRY_POINTS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{layer}"), name, None))]
    assert tracer.ENTRY_POINTS
    assert missing == []


def selfcheck_rebound() -> tuple[str, ...]:
    """REBOUND of perfbench/selfcheck.py, read without running the file."""
    tree = ast.parse((PERFBENCH / "selfcheck.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "REBOUND" for t in node.targets))


def test_selfcheck_rebound_names_are_imported():
    """Each name perfbench/selfcheck.py requires rebound ("pkg.module.name")
    is still bound in its module to the function its defining module
    exports, and is a tracer entry point of that module, so its time is
    charged to the defining layer.  A dropped import fails here, not only
    in the benchmark's self-check."""
    tracer = load_tracer()
    rebound = selfcheck_rebound()
    wrong = []
    for dotted in rebound:
        module, name = dotted.rsplit(".", 1)
        fn = getattr(importlib.import_module(module), name, None)
        home = getattr(fn, "__module__", "")
        layer = home.removeprefix(f"{tracer.PACKAGE}.")
        if not (callable(fn) and home != module
                and getattr(importlib.import_module(home), name, None) is fn
                and name in tracer.ENTRY_POINTS.get(layer, ())):
            wrong.append(dotted)
    assert rebound
    assert wrong == []


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used | exported]


def test_no_unused_imports():
    """Every imported name is used or exported, so a replaced loop leaves no
    stale import behind."""
    assert SOURCES
    assert [entry for path in SOURCES for entry in unused_imports(path)] == []


TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def literal_parts(node) -> list[str]:
    """The text of a string literal, the constant parts of an f-string, or
    else the source text, which no test asserts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [v.value for v in node.values if isinstance(v, ast.Constant)]
    return [ast.unparse(node)]


def claim_calls() -> list[tuple[str, str, list[str]]]:
    """(name, file:line, message parts) of each ClaimViolation(name, message)
    under src/iqprox/; a name that is no string literal is kept as its
    source text, which no test asserts."""
    calls = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ClaimViolation"):
                arg = node.args[0] if node.args else node
                name = (arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        else ast.unparse(arg))
                message = literal_parts(node.args[1]) if len(node.args) > 1 else [""]
                calls.append((name, f"{path.name}:{node.lineno}", message))
    return calls


def claim_sites() -> dict[str, list[str]]:
    """file:line of each ClaimViolation(...) under src/iqprox/, by the claim
    name, its first argument."""
    sites: dict[str, list[str]] = {}
    for name, site, _ in claim_calls():
        sites.setdefault(name, []).append(site)
    return sites


def asserted_strings() -> set[str]:
    """The string literals in the assert statements and the decorators (the
    parametrize tables) of the test_ functions under tests/.  The
    test-local reference copies raise their claims and assert none, so a
    name counts only where a test checks it."""
    found = set()
    for path in TESTS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                for part in [*node.decorator_list,
                             *(n for n in ast.walk(node) if isinstance(n, ast.Assert))]:
                    found |= {c.value for c in ast.walk(part)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return found


def test_every_claim_is_asserted_by_a_test():
    """Each claim name raised under src/iqprox/ is asserted by some test:
    as the name (err.value.claim == name, or a parametrize entry) or in its
    message, "claim <name> violated: ...", as the CLI prints it."""
    sites = claim_sites()
    asserted = asserted_strings()
    unasserted = {name: where for name, where in sites.items()
                  if name not in asserted
                  and not any(f"claim {name} violated" in s for s in asserted)}
    assert len(sites) >= 30
    assert unasserted == {}


def test_every_site_of_a_shared_claim_is_asserted_by_a_test():
    """A claim name raised at two or more sites is asserted at each of them:
    some test asserts a string holding every constant part of the site's
    message.  The two face-constant sites share one message, so this cannot
    tell them apart; test_fmax_cont_witness_face_constant_claim and
    test_fmax_cont_witness_face_constant_claim_at_a_superseded_face drive
    one each."""
    sites = claim_sites()
    asserted = asserted_strings()
    shared = [(site, parts) for name, site, parts in claim_calls() if len(sites[name]) > 1]
    unasserted = [site for site, parts in shared
                  if not any(all(part in s for part in parts) for s in asserted)]
    assert len(shared) >= 8
    assert unasserted == []
