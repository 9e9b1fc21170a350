"""Public values refuse malformed fields; graphs and actions are read-only,
and each checks itself once."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from plunnecke_lab import (InputError, LayeredMeasureGraph, dual, is_commutative,
                           iterated_image, verify_bottom_layer_minimal,
                           verify_dyn_plunnecke, verify_graph_plunnecke)
from plunnecke_lab import dynamics, graphcore
from plunnecke_lab.density import PeriodicSet
from plunnecke_lab.dynamics import FinAbGroup, FiniteAction, GroupSet
from plunnecke_lab.errors import require_order
from plunnecke_lab.graphcore import require_valid, validate

from conftest import build, gset, translation


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each argument's id."""
    seen = []
    original = getattr(module, name)

    def counted(obj, *args, **kwargs):
        seen.append(id(obj))
        return original(obj, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


# A well-formed value of each public dataclass, and malformed values for each
# of its fields.  VerificationReport checks nothing, by design.
_WELL_FORMED = {
    FinAbGroup: {"moduli": (2,)},
    GroupSet: {"group": FinAbGroup((4,)), "elements": frozenset({(1,)})},
    PeriodicSet: {"dim": 1, "period": (4,), "residues": frozenset({(1,)})},
    LayeredMeasureGraph: {"atoms": {"a": Fraction(1), "b": Fraction(1)},
                          "layer": {"a": 0, "b": 1}, "height": 1,
                          "labels": frozenset({"x"}), "edges": frozenset({("a", "b", "x")})},
    FiniteAction: {"group": FinAbGroup((2,)),
                   "atoms": {"0": Fraction(1, 2), "1": Fraction(1, 2)},
                   "generator_perms": ({"0": "1", "1": "0"},)},
}
_MALFORMED = {
    FinAbGroup: {"moduli": [[2], (), (0,), (True,), (2.0,), "2", 2, None]},
    GroupSet: {"group": ["x", (4,), None],
               "elements": [[(1,)], {(5,)}, {(1.5,)}, {(True,)}, {(1, 0)}, {1}, None]},
    PeriodicSet: {"dim": ["1", 0, True, 1.0, None],
                  "period": [[4], (0,), (4, 4), (4.0,), (True,), 4],
                  "residues": [[(1,)], {(5,)}, {(1.5,)}, {(1, 0)}, {1}, None]},
    LayeredMeasureGraph: {
        "atoms": [{"a": 1.5, "b": 1}, {"a": "1", "b": 1}, {"a": True, "b": 1},
                  {"a": 0, "b": 1}, 5, [("a", 1), ("b", 1)]],
        "layer": [{"a": "0", "b": 1}, {"a": 0.0, "b": 1}, {"a": 0, "b": 2}, {"a": 0}, 5, None],
        "height": ["1", 1.0, True, 0, None],
        "labels": [frozenset(), 5, None, [["x"]], "x", "xy"],
        "edges": [{("a", "c", "x")}, {("b", "a", "x")}, {("a", "b")}, {("a", "b", "x", 1)},
                  {5}, 5, None, [["a", "b", "x"]], "abx", {"abx"}, {frozenset("abx")}],
    },
    FiniteAction: {
        "group": ["x", (2,), None, FinAbGroup((3,)), FinAbGroup((2, 2))],
        "atoms": [{"0": 1.5, "1": 1}, {"0": Fraction(1), "1": Fraction(1)},
                  {"0": Fraction(1, 2)}, 5, None],
        "generator_perms": [(), ({"0": "0", "1": "0"},), 5, None, (5,), ("01",)],
    },
}


def _build_and_use(cls, fields):
    """Build the value; a graph or action then checks its structure, as its
    first use does."""
    value = cls(**fields)
    if cls is LayeredMeasureGraph:
        require_valid(value)
    elif cls is FiniteAction:
        dynamics.require_valid_action(value)
    return value


@pytest.mark.parametrize("cls", list(_MALFORMED), ids=lambda cls: cls.__name__)
def test_each_malformed_field_raises_input_error(cls):
    assert [f.name for f in dataclasses.fields(cls)] == list(_MALFORMED[cls])
    well_formed = _WELL_FORMED[cls]
    _build_and_use(cls, well_formed)
    for name, values in _MALFORMED[cls].items():
        for bad in values:
            with pytest.raises(InputError):
                _build_and_use(cls, {**well_formed, name: bad})


def test_group_set_of_refuses_a_non_iterable():
    with pytest.raises(InputError, match="elements must be an iterable"):
        GroupSet.of(FinAbGroup((4,)), 5)


@pytest.mark.parametrize("factory, message", [
    (lambda: PeriodicSet.periodic((4,), 5), "residues must be an iterable"),
    (lambda: PeriodicSet.periodic(5, [(1,)]), "period must be an iterable"),
    (lambda: PeriodicSet.finite(1, 5), "points must be an iterable"),
])
def test_periodic_set_factories_refuse_a_non_iterable(factory, message):
    with pytest.raises(InputError, match=message):
        factory()


@pytest.mark.parametrize("edges, labels, reported", [
    (["abx"], {"x"}, "'abx'"),
    (["abx"], None, "'abx'"),
    (["ab"], None, "'ab'"),
    ([("a", "b")], None, "('a', 'b')"),
    ([("a", "b", "x"), ("a", "b")], None, "('a', 'b')"),
    ([5], None, "5"),
])
def test_build_leaves_malformed_edges_for_validate(edges, labels, reported):
    g = LayeredMeasureGraph.build([("a", 0, 1), ("b", 1, 1)], edges, labels=labels)
    assert f"edge {reported} is not a (tail, head, label) triple" in validate(g)
    with pytest.raises(InputError, match="not a"):
        require_valid(g)


@pytest.mark.parametrize("vertices, message", [
    ([("a", 0)], r"vertex row \('a', 0\) is not an \(id, layer, weight\) triple"),
    ([("a", 0, 1), ("b", 1, 1, 0)], r"vertex row \('b', 1, 1, 0\) is not"),
    ([("a", 0, 1), 5], "vertex row 5 is not"),
    (5, "vertices must be an iterable"),
    ([(["a"], 0, 1)], "with a hashable id"),
])
def test_build_refuses_malformed_vertex_rows(vertices, message):
    # ('a', 0) raised a raw ValueError from unpacking
    with pytest.raises(InputError, match=message):
        LayeredMeasureGraph.build(vertices, [])


def test_build_reads_its_vertices_once():
    # a one-shot iterator gave every vertex a weight and no layer
    vertices, edges = [("a", 0, 1), ("b", 1, 1)], [("a", "b", "x")]
    from_iterator = LayeredMeasureGraph.build(iter(vertices), iter(edges))
    assert from_iterator == LayeredMeasureGraph.build(vertices, edges)
    assert validate(from_iterator) == []


def test_require_order_takes_only_ints_in_range():
    assert require_order(3, 1, 3, "order") == 3
    assert require_order(10 ** 30, 1, None, "order") == 10 ** 30
    for bad, message in [(True, "must be an integer"), (2.0, "must be an integer"),
                         (0, "order 0 not in 1..3"), (4, "order 4 not in 1..3")]:
        with pytest.raises(InputError, match=message):
            require_order(bad, 1, 3, "order")
    with pytest.raises(InputError, match="order must be at least 1"):
        require_order(0, 1, None, "order")


def test_build_turns_list_edges_into_tuples():
    g = LayeredMeasureGraph.build([("a", 0, 1), ("b", 1, 1)], [["a", "b", "x"]])
    assert g.edges == {("a", "b", "x")} and g.labels == {"x"}
    assert validate(g) == []


def test_build_refuses_string_labels():
    with pytest.raises(InputError, match="not strings"):
        LayeredMeasureGraph.build([("a", 0, 1), ("b", 1, 1)], [("a", "b", "x")], labels="x")


def test_a_graph_reports_each_edge_that_is_not_a_tuple():
    g = LayeredMeasureGraph({"a": 1, "b": 1}, {"a": 0, "b": 1}, 1, {"x"},
                            {("a", "b", "x"), "abx", ("a", "b")})
    assert validate(g) == ["edge 'abx' is not a (tail, head, label) triple",
                           "edge ('a', 'b') is not a (tail, head, label) triple"]


class TestReadOnly:
    def test_graph_mappings_refuse_writes(self, o1):
        with pytest.raises(TypeError):
            o1.atoms["a"] = 5
        with pytest.raises(TypeError):
            o1.layer["0@0"] = 1
        with pytest.raises(TypeError):
            o1.successor_map["0@0"] = frozenset()

    def test_action_mappings_refuse_writes(self, z4_act):
        with pytest.raises(TypeError):
            z4_act.generator_perms[0]["0"] = "0"
        with pytest.raises(TypeError):
            z4_act.atoms["0"] = Fraction(1)

    def test_constructors_copy_their_dicts(self):
        atoms, layer = {"v0": Fraction(1), "v1": Fraction(1)}, {"v0": 0, "v1": 1}
        g = LayeredMeasureGraph(atoms, layer, 1, frozenset("a"),
                                frozenset({("v0", "v1", "a")}))
        atoms["v0"] = Fraction(7)
        layer["v2"] = 1
        assert g.atoms == {"v0": 1, "v1": 1}
        assert dict(g.layer) == {"v0": 0, "v1": 1}
        perm = {"0": "1", "1": "0"}
        act = dynamics.FiniteAction(dynamics.FinAbGroup((2,)),
                                    {"0": Fraction(1, 2), "1": Fraction(1, 2)}, (perm,))
        perm["0"] = "0"
        assert act.apply((1,), "0") == "1"

    def test_graphs_and_actions_are_unhashable(self, o1, z4_act):
        with pytest.raises(TypeError):
            hash(o1)
        with pytest.raises(TypeError):
            hash(z4_act)

    def test_equality_and_pickling_are_by_content(self, o1, z4_act):
        assert o1 == build([(v, o1.layer[v], w) for v, w in o1.atoms.items()],
                           o1.edges, height=o1.height, labels=o1.labels)
        for value in (o1, z4_act):
            assert pickle.loads(pickle.dumps(value)) == value


class TestValidatedOnce:
    def test_graph_plunnecke(self, monkeypatch, o1):
        seen = _count_calls(monkeypatch, graphcore, "validate")
        assert verify_graph_plunnecke(o1).holds
        assert seen == [id(o1)]

    def test_bottom_layer_minimal(self, monkeypatch, o1_full):
        seen = _count_calls(monkeypatch, graphcore, "validate")
        assert verify_bottom_layer_minimal(o1_full, 2).holds
        assert seen == [id(o1_full)]

    def test_dyn_plunnecke(self, monkeypatch):
        act = translation(6)
        seen = _count_calls(monkeypatch, dynamics, "validate_action")
        assert verify_dyn_plunnecke(act, gset(6, 0, 1), {"0", "3"}, 1, 2).holds
        assert seen == [id(act)]

    def test_successor_maps_are_built_once_per_graph(self, monkeypatch, o1):
        seen = _count_calls(monkeypatch, graphcore, "successors")
        for v in sorted(o1.layer_set(0)):
            iterated_image(o1, {v}, 2)
        verify_graph_plunnecke(o1)
        assert seen == [id(o1)]

    def test_dual_of_a_valid_graph_is_not_checked_again(self, monkeypatch, o1):
        require_valid(o1)
        seen = _count_calls(monkeypatch, graphcore, "validate")
        flipped = dual(o1)
        require_valid(flipped)
        assert is_commutative(flipped).holds
        assert seen == []
        assert flipped.violations == ()

    def test_dual_of_an_unchecked_graph_checks_itself(self, monkeypatch):
        bad = build([("v0", 0, 1), ("v1", 1, 2)], [("v0", "v1", "a")])
        seen = _count_calls(monkeypatch, graphcore, "validate")
        flipped = dual(bad)
        with pytest.raises(InputError, match="edge weight mismatch"):
            require_valid(flipped)
        assert seen == [id(flipped)]
