import ast
import dataclasses
import importlib
import inspect
import random
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plunnecke_lab

from conftest import gset, translation


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from plunnecke_lab import *", namespace)
    assert sorted(set(plunnecke_lab.__all__)) == sorted(plunnecke_lab.__all__)
    assert set(plunnecke_lab.__all__) <= set(namespace)


def test_benchmark_trace_hooks_name_package_attributes(monkeypatch):
    """Every function the benchmark's tracer wraps still exists under its name.

    ``benchmark/tracing.py`` is read and executed in a fresh namespace; no
    file under ``benchmark/`` is imported, compiled to a cache or written.
    """
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    tracing = types.ModuleType("benchmark_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)  # for its dataclass
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    assert tracing.TRACED
    for module, attr, _span, _count in tracing.TRACED:
        home = importlib.import_module(f"plunnecke_lab.{module}")
        if attr.endswith("*"):
            assert any(key.startswith(attr[:-1]) and callable(value)
                       for key, value in vars(home).items()), (module, attr)
        else:
            owner = home
            for part in attr.split("."):
                assert hasattr(owner, part), (module, attr)
                owner = getattr(owner, part)
            assert callable(owner), (module, attr)
    assert isinstance(importlib.import_module("plunnecke_lab.cli").CHECKS, dict)


def test_every_registry_row_keeps_the_contract_the_benchmark_reads():
    """Each ``cli.CHECKS`` row is (verifier, generator, kind), derived from
    its ``cli.REGISTRY`` row: the generator draws a bundle ``read_bundle``
    accepts, the kind is a ``generate`` kind, and the verifier is exported,
    takes one argument per bundle field, then the instance name, and holds
    on the draw.  No other module has a global CHECKS, whose rows the
    benchmark's tracer walks."""
    cli = importlib.import_module("plunnecke_lab.cli")
    jsonio = importlib.import_module("plunnecke_lab.jsonio")
    assert list(cli.CHECKS) == list(cli.REGISTRY)
    for check_id, row in cli.CHECKS.items():
        assert type(row) is tuple and len(row) == 3, check_id
        verify, fields, draw, kind = cli.REGISTRY[check_id]
        assert row == (verify, draw, kind)
        assert kind in cli._GENERATORS
        bundle = row[1](random.Random(f"contract:{check_id}"), check_id)
        read = jsonio.read_bundle(check_id, fields, bundle)
        assert sorted(cli._ARGUMENTS[check_id]) == sorted(read)
        assert verify.__name__ in plunnecke_lab.__all__
        assert getattr(plunnecke_lab, verify.__name__) is verify
        params = list(inspect.signature(verify).parameters)
        assert params[-1] == "instance" and len(params) == len(fields) + 1, check_id
        assert cli.run_check_bundle(check_id, bundle)["holds"] is True
    src = Path(plunnecke_lab.__file__).parent
    modules = [importlib.import_module(f"plunnecke_lab.{path.stem}")
               for path in sorted(src.glob("*.py")) if not path.stem.startswith("__")]
    holders = [mod.__name__ for mod in [plunnecke_lab, *modules] if "CHECKS" in vars(mod)]
    assert holders == ["plunnecke_lab.cli"]


def test_readme_documents_every_check_id():
    """Each ``cli.CHECKS`` id has one row in README's "Check ids" table and
    a line in the bundle list above it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    above, below = text.split("### Check ids\n\n")
    bundles = above[above.index("`verify` accepts instance bundle files"):]
    listed = [i for line in re.findall(r"^\* (.*?):", bundles, re.M)
              for i in re.findall(r"`([^`]+)`", line)]
    rows = re.findall(r"^\| `([^`]+)` +\|", below.split("\n\n")[0], re.M)
    checks = sorted(importlib.import_module("plunnecke_lab.cli").CHECKS)
    assert sorted(rows) == checks
    assert sorted(listed) == checks


def test_verification_reports_are_frozen():
    report = plunnecke_lab.VerificationReport("x", "thm-3.5", Fraction(1), Fraction(1), True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.holds = False


def test_one_home_for_the_brute_force_limit():
    """maxflow defines the one brute-force limit; no function takes a ``limit``."""
    src = Path(plunnecke_lab.__file__).parent
    modules = [importlib.import_module(f"plunnecke_lab.{path.stem}")
               for path in sorted(src.glob("*.py")) if not path.stem.startswith("__")]
    for mod in modules:
        for name, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                assert "limit" not in inspect.signature(value).parameters, (mod, name)
    assert [mod.__name__ for mod in modules if "BRUTE_FORCE_LIMIT" in vars(mod)] == [
        "plunnecke_lab.maxflow"]
    assert "method" not in inspect.signature(plunnecke_lab.c).parameters
    assert [f.name for f in dataclasses.fields(plunnecke_lab.MagnificationResult)] == [
        "value", "witness", "trace"]


def test_one_measure_per_ratio_problem_and_one_home_for_scaling():
    """No function takes separate source and target weights, and only
    rational clears denominators, so only rational imports ``lcm``."""
    src = Path(plunnecke_lab.__file__).parent
    importers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                assert not names & {"source_weight", "target_weight"}, (path.name, node)
            elif isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names):
                importers.append(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "lcm":
                importers.append(path.stem)
    assert importers == ["rational"]
    assert not hasattr(plunnecke_lab.maxflow, "common_scale")


_RATIO_SOLVERS = {"min_ratio_bruteforce", "min_ratio_mincut", "_ratio"}


def _solver_result_splits(source: str) -> list[int]:
    """Lines where a ratio solver's result is subscripted, tuple-unpacked
    or star-unpacked, rather than read by attribute."""

    def solve(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        return name in _RATIO_SOLVERS

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Subscript, ast.Starred)) and solve(node.value):
            found.add(node.lineno)
        elif (isinstance(node, ast.Assign) and solve(node.value)
              and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_finds_each_way_of_splitting_a_solver_result():
    snippet = "\n".join([
        "value = min_ratio_mincut(s, n, w)[0]",
        "value, witness = maxflow.min_ratio_bruteforce(s, n, w)",
        "[value, witness, trace] = min_ratio_mincut(s, n, w)",
        "pair = _ratio(act, A, B)[:2]",
        "result = Result(*min_ratio_bruteforce(s, n, w))",
        "value = min_ratio_mincut(s, n, w).value",
        "result = _ratio(act, A, B)",
    ])
    assert _solver_result_splits(snippet) == [1, 2, 3, 4, 5]


def test_no_module_splits_a_ratio_solver_result():
    """Every solve returns one MagnificationResult, read by attribute."""
    src = Path(plunnecke_lab.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert _solver_result_splits(path.read_text()) == [], path.name


def _graph():
    """Z/4's orbit graph of {0, 1} over atom 0, three layers high."""
    return plunnecke_lab.orbit_graph(translation(4), gset(4, 0, 1), {"0"}, 3)


def _periodic(*residues):
    return plunnecke_lab.PeriodicSet.periodic((4,), [(r,) for r in residues])


_ACTION = {"act": translation(6), "A": gset(6, 0, 1), "B": {"0"}}
_ORDERS = {"j": "order j", "k": "order k"}

# name -> (a valid call's keyword arguments, the name each int parameter's
# message gives it); restricted_orbit_subgraph's k is its orbit graph's height
# and the two verifiers without one are rows for their valid calls
_INT_ARGUMENTS = {
    "cutset_push": (lambda: {"g": _graph(), "S": {"0@0"}, "C": 1, "j": 1},
                    {"j": "push layer"}),
    "heavy_subset": (lambda: {**_ACTION, "delta": "1/2", "j": 1, "k": 2}, _ORDERS),
    "iterate": (lambda: {"A": gset(6, 0, 1), "k": 2}, {"k": "iteration count"}),
    "iterate_sumset": (lambda: {"A": _periodic(0, 1), "k": 2}, {"k": "iteration count"}),
    "iterated_image": (lambda: {"g": _graph(), "S": {"0@0"}, "steps": 1}, {"steps": "steps"}),
    "magnification_bruteforce": (lambda: {"g": _graph(), "j": 1}, {"j": "order"}),
    "magnification_mincut": (lambda: {"g": _graph(), "j": 1}, {"j": "order"}),
    "orbit_graph": (lambda: {"act": translation(4), "A": gset(4, 0, 1), "Y": {"0"}, "h": 2},
                    {"h": "height"}),
    "push_penalty": (lambda: {"label_count": 2, "C": 1, "eps": "1/2"},
                     {"label_count": "label count"}),
    "restricted_orbit_subgraph": (lambda: {**_ACTION, "E": {"0"}, "k": 2}, {"k": "height"}),
    "truncate": (lambda: {"g": _graph(), "k": 2}, {"k": "truncation layer"}),
    "verify_density_plunnecke": (lambda: {"A": _periodic(0, 1), "B": _periodic(0), "j": 1,
                                          "k": 2}, _ORDERS),
    "verify_dyn_plunnecke": (lambda: {**_ACTION, "j": 1, "k": 2}, _ORDERS),
    "verify_flow_duality": (lambda: {"g": plunnecke_lab.orbit_graph(
        translation(4), gset(4, 0, 1), {"0"}, 1), "instance": "O1"}, {}),
    "verify_heavy_subset": (lambda: {**_ACTION, "delta": "1/2", "j": 1, "k": 2}, _ORDERS),
    "verify_orbit_commutes": (lambda: {"g": _graph(), "instance": "O1"}, {}),
    "verify_restricted_plunnecke": (lambda: {**_ACTION, "E": {"0"}, "j": 1, "k": 2},
                                    _ORDERS),
    "window_scan": (lambda: {"oracle": bool, "side": 2, "radius": 3, "dim": 1},
                    {"side": "window side", "radius": "search radius", "dim": "dimension"}),
}
_INT_ROWS = sorted((name, param) for name, (_call, names) in _INT_ARGUMENTS.items()
                   for param in names)


@pytest.mark.parametrize("name", sorted(_INT_ARGUMENTS))
def test_each_row_is_a_valid_call(name):
    call, _names = _INT_ARGUMENTS[name]
    getattr(plunnecke_lab, name)(**call())


def _int_parameters():
    for name in plunnecke_lab.__all__:
        value = getattr(plunnecke_lab, name)
        if inspect.isfunction(value):
            for param in inspect.signature(value).parameters.values():
                if param.annotation in ("int", int):
                    yield name, param.name


def test_every_int_parameter_has_a_row():
    """A new int-annotated parameter of an exported function needs a row."""
    assert set(_INT_ROWS) == set(_int_parameters())


@pytest.mark.parametrize("name, param", _INT_ROWS)
def test_each_int_parameter_is_read_by_require_order(name, param):
    """A valid int returns; a bool, a float, None and a str raise InputError
    with ``require_order``'s message, naming the parameter."""
    call, names = _INT_ARGUMENTS[name]
    function = getattr(plunnecke_lab, name)
    function(**call())
    for bad in (True, 2.0, None, "2"):
        kwargs = call()
        kwargs[param] = bad
        message = f"{names[param]} must be an integer (got {bad!r})"
        with pytest.raises(plunnecke_lab.InputError, match=f"^{re.escape(message)}$"):
            function(**kwargs)
