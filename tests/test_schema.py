"""Schema checks: every bundle and document is checked once, before anything
is built, and every refusal names the JSON path of the value it refuses."""

import functools
import json
import random
from fractions import Fraction

import pytest

from plunnecke_lab import cli, density, jsonio, magnification, maxflow
from plunnecke_lab.cli import main
from plunnecke_lab.errors import InputError

# Each schema field is dropped, then set to each of these.
_VALUES = [None, True, 0, -1, "1e3", 1.5, [], {}, [[]]]
_OPTIONAL = {"instance", "theorem", "E"}  # top-level fields a bundle file may leave out
_RATIONAL = {"weight", "C", "delta"}      # fields that take a literal 'p/q' or an integer


@pytest.fixture(autouse=True)
def _one_parser(monkeypatch):
    """Build the argument parser once per test: thousands of runs share it."""
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, out.err.splitlines()


def _sites(doc, path="", keys=(), map_keys=False):
    """(path, keys) of every field of ``doc`` and of the first item of every
    array, depth first; ``keys`` leads from ``doc`` to the value."""
    items = enumerate(doc[:1]) if type(doc) is list else doc.items()
    for key, value in items:
        if type(doc) is list:
            step = f"{path}[{key}]"
        elif map_keys:
            step = f"{path}[{json.dumps(key)}]"
        else:
            step = f"{path}.{key}" if path else key
        yield step, (*keys, key)
        if type(value) in (list, dict):
            yield from _sites(value, step, (*keys, key), map_keys=key == "perm")


def _may_fit(key, old, new):
    """Whether the schema may take ``new`` where the bundle had ``old``: the
    same JSON type, an integer for a rational, or a bare integer for a vector."""
    return (type(new) is type(old) or (key in _RATIONAL and type(new) is int)
            or (type(key) is int and type(old) is list and type(new) is int))


def _bundles():
    for check_id in sorted(cli.CHECKS):
        rng = random.Random(f"schema:{check_id}")
        for i in range(2):
            yield check_id, cli.CHECKS[check_id][1](rng, f"{check_id}-{i}")


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return [str(path)]


@pytest.mark.parametrize("check_id, bundle", list(_bundles()),
                         ids=[f"{cid}-{i}" for cid in sorted(cli.CHECKS) for i in range(2)])
def test_every_field_refusal_names_its_path(tmp_path, capsys, monkeypatch, check_id, bundle):
    path = tmp_path / "bundle.json"
    assert _run(capsys, ["verify", check_id, *_write(path, bundle)])[0] in (0, 1)
    # each mutation is read as the JSON text the file would hold, without the disk
    text, mutated = path.read_text(), {}
    monkeypatch.setattr(cli, "_load_json", lambda name: json.loads(mutated[name]))
    for step, keys in list(_sites(bundle)):
        for new in ["drop", *_VALUES]:
            doc = json.loads(text)
            container = functools.reduce(lambda d, k: d[k], keys[:-1], doc)
            key, old = keys[-1], container[keys[-1]]
            if new != "drop":
                container[key] = new
            elif type(container) is dict:
                del container[key]
            else:
                continue
            mutated[str(path)] = json.dumps(doc)
            code, err = _run(capsys, ["verify", check_id, str(path)])
            if (_may_fit(key, old, new) if new != "drop"
                    else len(keys) == 1 and key in _OPTIONAL or step.endswith("]")):
                # the shape fits: the content decides, and the contract holds
                assert code in (0, 1, 2) and len(err) == (code == 2), (step, new, err)
                assert not err or json.loads(err[0])["kind"] in ("input", "hypothesis")
                continue
            assert code == 2 and len(err) == 1, (step, new, err)
            refusal = json.loads(err[0])
            assert refusal["kind"] == "input", (step, new, refusal)
            if new == "drop":
                assert refusal["error"] == f"{step} is missing"
            else:
                assert refusal["error"].split(" must be ")[0] in (step, f"order {step}"), \
                    (step, new, refusal)


def _read_bundle(check_id, doc):
    return jsonio.read_bundle(check_id, cli.REGISTRY[check_id][1], doc)


def test_every_check_has_a_bundle_schema_its_generator_fits():
    assert sorted(cli.REGISTRY) == sorted(cli.CHECKS)
    for check_id, (_verify, draw, kind) in cli.CHECKS.items():
        rng = random.Random(f"fit:{check_id}")
        for i in range(50):
            _read_bundle(check_id, draw(rng, f"{kind}-{i}"))


def _graph_doc(ids=("a", "b"), label="x"):
    return {"height": 1, "labels": [label],
            "vertices": [{"id": ids[0], "layer": 0, "weight": "1/1"},
                         {"id": ids[1], "layer": 1, "weight": "1/1"}],
            "edges": [{"tail": ids[0], "head": ids[1], "label": label}]}


@pytest.mark.parametrize("doc, message", [
    (_graph_doc(ids=([1], "b")), "graph.vertices[0].id must be a JSON string (got [1])"),
    (_graph_doc(ids=("a", {"k": 2})),
     "graph.vertices[1].id must be a JSON string (got {'k': 2})"),
    (_graph_doc(label=["x"]), "graph.labels[0] must be a JSON string (got ['x'])"),
])
def test_graph_files_with_non_string_ids_exit_two(tmp_path, capsys, doc, message):
    code, err = _run(capsys, ["validate", *_write(tmp_path / "g.json", doc)])
    assert code == 2 and err == [json.dumps({"error": message, "kind": "input"})]


def test_graph_height_is_bounded_when_read():
    assert cli.MAX_ORDER is jsonio.MAX_ORDER
    doc = _graph_doc()
    doc["height"] = jsonio.MAX_ORDER
    assert jsonio.graph_from_doc(doc).height == jsonio.MAX_ORDER
    doc["height"] = jsonio.MAX_ORDER + 1
    with pytest.raises(InputError, match=r"^graph\.height must be at most MAX_ORDER"):
        jsonio.graph_from_doc(doc)


@pytest.mark.parametrize("check_id", [cid for cid, row in cli.REGISTRY.items() if "j" in row[1]])
def test_bundle_orders_are_bounded_when_read(check_id):
    bundle = cli.CHECKS[check_id][1](random.Random(4), "orders")
    top = jsonio.MAX_ORDER
    read = _read_bundle(check_id, {**bundle, "j": top, "k": top})
    assert (read["j"], read["k"]) == (top, top)
    for j, k, name in [(top + 1, 1, "j"), (1, top + 1, "k"), (top + 1, top + 2, "j")]:
        with pytest.raises(InputError) as refused:
            _read_bundle(check_id, {**bundle, "j": j, "k": k})
        assert str(refused.value) == \
            f"order {name} must be at most MAX_ORDER ({top}) (got {top + 1})"


@pytest.mark.parametrize("check_id", sorted(cid for cid in cli.CHECKS
                                             if "j" not in cli.REGISTRY[cid][1]))
def test_an_order_the_schema_does_not_name_is_ignored(tmp_path, capsys, check_id):
    bundle = cli.CHECKS[check_id][1](random.Random(4), "extra")
    path = _write(tmp_path / "b.json", bundle)
    plain = main(["verify", check_id, *path]), capsys.readouterr()
    for key in ("j", "k"):
        for extra in ["x", None, jsonio.MAX_ORDER + 1]:
            extended = _write(tmp_path / "b.json", {**bundle, key: extra})
            assert (main(["verify", check_id, *extended]), capsys.readouterr()) == plain


@pytest.mark.parametrize("seed", range(4))
def test_a_missing_E_reads_and_reports_as_an_empty_one(seed):
    bundle = cli.CHECKS["thm-4.3"][1](random.Random(seed), f"no-E-{seed}")
    empty = cli.run_check_bundle("thm-4.3", {**bundle, "E": []})
    del bundle["E"]
    assert _read_bundle("thm-4.3", bundle)["E"] == frozenset()
    assert jsonio.dumps_canonical(cli.run_check_bundle("thm-4.3", bundle)) == \
        jsonio.dumps_canonical(empty)


def test_an_edge_label_that_is_not_a_string_exits_two(tmp_path, capsys):
    doc = _graph_doc()
    doc["edges"][0]["label"] = ["x"]
    code, err = _run(capsys, ["commute", *_write(tmp_path / "g.json", doc)])
    assert code == 2
    assert json.loads(err[0])["error"] == \
        "graph.edges[0].label must be a JSON string (got ['x'])"


@pytest.mark.parametrize("check_id, mutate, message", [
    ("thm-4.2", lambda b: b["B"].insert(0, ["1"]), "B[0] must be a JSON string (got ['1'])"),
    ("thm-1.4", lambda b: b.update(A_list=3), "A_list must be a JSON array (got 3)"),
    ("thm-3.5", lambda b: b.update(instance=7), "instance must be a JSON string (got 7)"),
])
def test_bundle_repros_exit_two_and_name_the_path(tmp_path, capsys, check_id, mutate,
                                                   message):
    bundle = cli.CHECKS[check_id][1](random.Random(4), "repro")
    mutate(bundle)
    code, err = _run(capsys, ["verify", check_id, *_write(tmp_path / "b.json", bundle)])
    assert code == 2 and err == [json.dumps({"error": message, "kind": "input"})]


def test_nothing_is_built_before_the_whole_bundle_is_checked(tmp_path, capsys,
                                                             monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a document was read before the bundle was checked")

    monkeypatch.setattr(jsonio, "action_from_doc", refuse)
    bundle = cli.CHECKS["lemma-6.1"][1](random.Random(2), "late")
    bundle["B2"] = [0]
    code, err = _run(capsys, ["verify", "lemma-6.1", *_write(tmp_path / "b.json", bundle)])
    assert code == 2
    assert json.loads(err[0])["error"] == "B2[0] must be a JSON string (got 0)"


def test_a_bug_inside_a_check_exits_three(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise TypeError("unexpected keyword argument 'bogus'")

    monkeypatch.setattr(magnification, "min_ratio_mincut", broken)
    code, err = _run(capsys, ["verify", "thm-3.5", "--seed", "3", "--count", "2"])
    assert code == 3
    assert err == [json.dumps({"error": "TypeError: unexpected keyword argument 'bogus'",
                               "kind": "internal"})]


@pytest.mark.parametrize("point", [(0.5,), ("2",), 0.5, "2", None, (True,)])
def test_contains_refuses_points_that_are_not_ints(point):
    two_z = density.PeriodicSet.periodic((2,), [(0,)])
    with pytest.raises(InputError, match="coordinates must be integers"):
        density.contains(two_z, point)


def test_contains_takes_ints_tuples_and_lists():
    two_z = density.PeriodicSet.periodic((2,), [(0,)])
    assert [density.contains(two_z, p) for p in (4, (4,), [4], 3, (3,))] == \
        [True, True, True, False, False]


@pytest.mark.parametrize("solver", [maxflow.min_ratio_mincut, maxflow.min_ratio_bruteforce])
@pytest.mark.parametrize("weight", [0.5, True, "1"])
def test_ratio_solvers_refuse_weights_that_are_not_exact(solver, weight):
    with pytest.raises(InputError, match=r"weight of \(a\) must be a Fraction or an int"):
        solver(["a"], {"a": {"t"}}, {"a": weight, "t": 1})
    assert solver(["a"], {"a": {"t"}}, {"a": 2, "t": 1}).value == Fraction(1, 2)
