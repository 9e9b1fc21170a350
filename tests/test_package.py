import ast
import dataclasses
import importlib
import inspect
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plunnecke_lab


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
