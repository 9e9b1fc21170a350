import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import InputError, LayeredMeasureGraph, channel, dual, flow, image, \
    induced_subgraph, is_cutset, iterated_image, truncate, validate
from plunnecke_lab.generators import random_layered_graph, random_one_layer_graph
from plunnecke_lab.graphcore import BACKWARD, FORWARD

from conftest import build

graphs = st.integers(0, 10 ** 9).map(
    lambda s: random_layered_graph(random.Random(s), max_layer0=5, max_width=5))
one_layer_graphs = st.integers(0, 10 ** 9).map(
    lambda s: random_one_layer_graph(random.Random(s), max_side=8))


class TestValidate:
    def test_minimal_legal_graph(self, path2):
        assert validate(path2) == []

    def test_edge_weight_mismatch(self):
        g = build([("v0", 0, 1), ("v1", 1, 2)], [("v0", "v1", "a")])
        assert "edge weight mismatch (v0,v1,a)" in validate(g)

    def test_label_functionality(self):
        g = build([("v0", 0, 1), ("v1", 1, 1), ("v2", 1, 1)],
                  [("v0", "v1", "a"), ("v0", "v2", "a")])
        assert "label functionality at (v0,a)" in validate(g)

    def test_incoming_functionality(self):
        g = build([("v0", 0, 1), ("u0", 0, 1), ("v1", 1, 1)],
                  [("v0", "v1", "a"), ("u0", "v1", "a")])
        assert "label functionality at (v1,a)" in validate(g)

    def test_layer_step(self):
        g = build([("v0", 0, 1), ("v1", 2, 1)], [("v0", "v1", "a")], height=2)
        assert any(v.startswith("edge layer step") for v in validate(g))

    def test_zero_weight_rejected(self):
        g = build([("v0", 0, 0)], [], height=1)
        assert any("nonpositive weight" in v for v in validate(g))

    def test_unknown_vertex_and_label(self):
        g = build([("v0", 0, 1), ("v1", 1, 1)],
                  [("v0", "ghost", "a"), ("v0", "v1", "z")], labels=["a"])
        msgs = validate(g)
        assert any("unknown vertex" in m for m in msgs)
        assert any("unknown label" in m for m in msgs)

    def test_height_zero(self):
        g = build([("v0", 0, 1)], [], height=0)
        assert any("height" in v for v in validate(g))

    def test_multi_edges_with_distinct_labels_are_fine(self):
        g = build([("v0", 0, 1), ("v1", 1, 1)],
                  [("v0", "v1", "a"), ("v0", "v1", "b")])
        assert validate(g) == []


def _sorted_walk_violations(g):
    """validate's messages from a walk over sorted atoms and sorted edges."""
    found = []
    if g.height < 1:
        found.append(f"height must be at least 1 (got {g.height})")
    found += [f"layer entry for unknown vertex ({v})" for v in sorted(set(g.layer) - set(g.atoms))]
    found += [f"missing layer for vertex ({v})" for v in sorted(set(g.atoms) - set(g.layer))]
    for v in sorted(g.atoms):
        if g.atoms[v] <= 0:
            found.append(f"nonpositive weight at ({v})")
        l = g.layer.get(v)
        if l is not None and not 0 <= l <= g.height:
            found.append(f"layer out of range at ({v}): {l} not in 0..{g.height}")
    outs, ins = {}, {}
    for t, h, a in sorted(g.edges):
        if t not in g.atoms or h not in g.atoms:
            found.append(f"edge references unknown vertex ({t},{h},{a})")
            continue
        if a not in g.labels:
            found.append(f"edge references unknown label ({t},{h},{a})")
        outs[(t, a)] = outs.get((t, a), 0) + 1
        ins[(h, a)] = ins.get((h, a), 0) + 1
        if g.atoms[t] != g.atoms[h]:
            found.append(f"edge weight mismatch ({t},{h},{a})")
        lt, lh = g.layer.get(t), g.layer.get(h)
        if lt is not None and lh is not None and lh != lt + 1:
            found.append(f"edge layer step ({t},{h},{a})")
    bad = {pair for counts in (outs, ins) for pair, c in counts.items() if c > 1}
    found += [f"label functionality at ({v},{a})" for v, a in sorted(bad)]
    return found


def _broken_graph(rng):
    g = random_layered_graph(rng, max_layer0=5, max_width=5)
    atoms, layer = dict(g.atoms), dict(g.layer)
    edges, labels = set(g.edges), set(g.labels)
    ids = sorted(atoms)
    for _ in range(rng.randint(1, 8)):
        v = rng.choice(ids)
        kind = rng.randrange(8)
        if kind == 0:
            atoms[v] = Fraction(rng.randint(-2, 0))
        elif kind == 1:
            layer[v] = rng.choice([-1, g.height + 1, g.height + 3])
        elif kind == 2:
            layer.pop(v, None)
        elif kind == 3:
            layer[f"ghost{rng.randint(0, 3)}"] = 0
        elif kind == 4:
            edges.add((v, f"ghost{rng.randint(0, 3)}", rng.choice(sorted(labels) or ["a"])))
        elif kind == 5:
            edges.add((v, rng.choice(ids), rng.choice(["a", "b", "zz"])))
        elif kind == 6:
            atoms[v] = atoms[v] + 1
        else:
            labels.discard(rng.choice(sorted(labels) or ["a"]))
    height = rng.choice([g.height, g.height, 0])
    return LayeredMeasureGraph(atoms, layer, height, labels, edges)


class TestValidateOrder:
    @pytest.mark.parametrize("seed", range(60))
    def test_messages_match_a_sorted_walk(self, seed):
        g = _broken_graph(random.Random(f"validate:{seed}"))
        found = validate(g)
        assert found and found == _sorted_walk_violations(g)


class TestValidateCases:
    """Cases the broken graphs above never build, checked against the sorted walk."""

    @pytest.mark.parametrize("wt, wh", [(Fraction(1, 2), Fraction(2, 4)), (1, Fraction(1))])
    def test_equal_endpoint_weights_held_by_distinct_objects(self, wt, wh):
        g = build([("v0", 0, wt), ("v1", 1, wh)], [("v0", "v1", "a")])
        assert g.atoms["v0"] is not g.atoms["v1"]
        assert validate(g) == _sorted_walk_violations(g) == []

    @pytest.mark.parametrize("wt, wh", [(Fraction(1, 2), Fraction(1, 3)), (1, 2),
                                        (Fraction(1, 2), Fraction(-1, 2))])
    def test_unequal_endpoint_weights(self, wt, wh):
        g = build([("v0", 0, wt), ("v1", 1, wh)], [("v0", "v1", "a")])
        assert "edge weight mismatch (v0,v1,a)" in validate(g)
        assert validate(g) == _sorted_walk_violations(g)

    def test_zero_and_negative_weights(self):
        g = build([("v0", 0, 0), ("v1", 1, 0), ("u0", 0, -1), ("u1", 1, Fraction(-1, 3)),
                   ("w0", 0, Fraction(1, 3))],
                  [("v0", "v1", "a"), ("u0", "u1", "a"), ("w0", "u1", "b")])
        assert validate(g) == _sorted_walk_violations(g) == [
            "nonpositive weight at (u0)", "nonpositive weight at (u1)",
            "nonpositive weight at (v0)", "nonpositive weight at (v1)",
            "edge weight mismatch (u0,u1,a)", "edge weight mismatch (w0,u1,b)"]

    def test_pairs_repeated_three_times_are_named_once(self):
        g = build([("v0", 0, 1), ("x0", 0, 1), ("y0", 0, 1), ("z0", 0, 1),
                   ("x1", 1, 1), ("y1", 1, 1), ("z1", 1, 1)],
                  [("v0", h, "a") for h in ("x1", "y1", "z1")]
                  + [(t, "z1", "b") for t in ("x0", "y0", "z0")])
        assert validate(g) == _sorted_walk_violations(g) == [
            "label functionality at (v0,a)", "label functionality at (z1,b)"]


class TestWeightTypes:
    def test_int_weights_are_stored_as_fractions(self):
        g = LayeredMeasureGraph({"a": 1, "b": Fraction(1)}, {"a": 0, "b": 1}, 1, {"x"},
                                {("a", "b", "x")})
        assert all(type(w) is Fraction for w in g.atoms.values())
        assert validate(g) == []

    @pytest.mark.parametrize("weight", [0.5, True, "1/2"])
    def test_other_weight_types_are_refused(self, weight):
        with pytest.raises(InputError, match=r"weight of \(a\) must be a Fraction or an int"):
            LayeredMeasureGraph({"a": weight, "b": weight}, {"a": 0, "b": 1}, 1, {"x"},
                                {("a", "b", "x")})
        with pytest.raises(InputError, match="must be a Fraction or an int"):
            build([("a", 0, weight), ("b", 1, weight)], [("a", "b", "x")])


class TestLayerTypes:
    @pytest.mark.parametrize("layer", ["0", 0.0, False])
    def test_non_int_layers_are_refused(self, layer):
        with pytest.raises(InputError, match=r"layer of \(a\) must be an integer"):
            LayeredMeasureGraph({"a": 1, "b": 1}, {"a": layer, "b": 1}, 1, {"x"},
                                {("a", "b", "x")})

    @pytest.mark.parametrize("height", [1.5, 1.0, True, "1"])
    def test_non_int_heights_are_refused(self, height):
        with pytest.raises(InputError, match="graph height must be an integer"):
            LayeredMeasureGraph({"a": 1, "b": 1}, {"a": 0, "b": 1}, height, {"x"},
                                {("a", "b", "x")})

    def test_float_layers_with_a_float_height_are_refused(self):
        with pytest.raises(InputError, match="must be an integer"):
            build([("a", 0.0, 1), ("b", 1.5, 1)], [("a", "b", "x")])


class TestImage:
    def test_forward(self, path2):
        assert image(path2, {"v0"}, "a") == {"v1"}

    def test_empty(self, path2):
        assert image(path2, set(), "a") == frozenset()

    def test_backward(self, path2):
        assert image(path2, {"v1"}, "a", BACKWARD) == {"v0"}

    def test_unknown_label(self, path2):
        with pytest.raises(InputError):
            image(path2, {"v0"}, "zzz")

    @pytest.mark.parametrize("label", [[], ["a"], {}], ids=["empty-list", "list", "dict"])
    def test_unhashable_label(self, path2, label):
        with pytest.raises(InputError, match="label must be hashable"):
            image(path2, {"v0"}, label)

    @given(graphs, st.data())
    def test_distributes_over_unions(self, g, data):
        ids = sorted(g.atoms)
        s1 = frozenset(data.draw(st.sets(st.sampled_from(ids))))
        s2 = frozenset(data.draw(st.sets(st.sampled_from(ids))))
        label = data.draw(st.sampled_from(sorted(g.labels)))
        direction = data.draw(st.sampled_from([FORWARD, BACKWARD]))
        assert image(g, s1 | s2, label, direction) == \
            image(g, s1, label, direction) | image(g, s2, label, direction)

    @given(graphs, st.data())
    def test_weight_preserving_on_tails(self, g, data):
        label = data.draw(st.sampled_from(sorted(g.labels)))
        tails = sorted({t for t, _, a in g.edges if a == label})
        S = frozenset(data.draw(st.sets(st.sampled_from(tails)))) if tails else frozenset()
        assert g.weight(image(g, S, label)) == g.weight(S)

    @given(graphs, st.data())
    def test_weight_preserving_on_heads(self, g, data):
        label = data.draw(st.sampled_from(sorted(g.labels)))
        heads = sorted({h for _, h, a in g.edges if a == label})
        S = frozenset(data.draw(st.sets(st.sampled_from(heads)))) if heads else frozenset()
        assert g.weight(image(g, S, label, BACKWARD)) == g.weight(S)


class TestIteratedImage:
    def test_two_steps(self, path3):
        assert iterated_image(path3, {"v0"}, 2) == {"v2"}

    def test_zero_is_identity(self, path3):
        assert iterated_image(path3, {"v0", "v2"}, 0) == {"v0", "v2"}

    def test_backward(self, path3):
        assert iterated_image(path3, {"v2"}, -2) == {"v0"}

    def test_o1_two_steps_matches_sumset(self, o1):
        # independent oracle: {0,1} + {0,1} mod 4 computed directly
        expected = {(a + b) % 4 for a in (0, 1) for b in (0, 1)}
        got = iterated_image(o1, {"0@0"}, 2)
        assert got == {f"{x}@2" for x in expected}
        assert len(got) == 3

    def test_steps_run_from_minus_to_plus_the_height(self, o1):
        assert iterated_image(o1, {"0@0"}, 2) == {"0@2", "1@2", "2@2"}
        assert iterated_image(o1, {"0@2"}, -2) == {"0@0"}
        for steps in (3, -3):
            with pytest.raises(InputError, match=rf"^steps {steps} not in -2\.\.2$"):
                iterated_image(o1, {"0@0"}, steps)

    def test_a_huge_step_count_is_refused_at_once(self, o1):
        start = time.perf_counter()
        with pytest.raises(InputError, match=r"steps 1000000000000 not in -2\.\.2"):
            iterated_image(o1, {"0@0"}, 10 ** 12)
        assert time.perf_counter() - start < 1


_VERTEX_READERS = {
    "image": lambda g, S: image(g, S, "a"),
    "iterated_image": lambda g, S: iterated_image(g, S, 1),
    "induced_subgraph": induced_subgraph,
    "is_cutset": is_cutset,
}


class TestVertexSets:
    @pytest.mark.parametrize("name", sorted(_VERTEX_READERS))
    @pytest.mark.parametrize("vertices, message", [
        ({"nope", 3}, r"unknown vertex \(nope\)"),
        ({3, 4}, r"unknown vertex \(3\)"),
        ({"zz", "nope", "v0"}, r"unknown vertex \(nope\)"),
        (5, "vertex set must be an iterable"),
        (None, "vertex set must be an iterable"),
        ("v0", "vertex set must be a collection of ids, not a str"),
        ([["v0"]], "vertex ids must be hashable"),
    ])
    def test_a_malformed_vertex_set_is_an_input_error(self, path3, name, vertices, message):
        with pytest.raises(InputError, match=message):
            _VERTEX_READERS[name](path3, vertices)

    @pytest.mark.parametrize("name", sorted(_VERTEX_READERS))
    def test_any_iterable_of_vertex_ids_is_read(self, path3, name):
        read = _VERTEX_READERS[name]
        assert read(path3, ["v1", "v1"]) == read(path3, iter({"v1"})) == read(path3, {"v1"})


class TestInducedSubgraph:
    def test_interior_removal_drops_both_edges(self, path3):
        sub = induced_subgraph(path3, {"v0", "v2"})
        assert sub.edges == frozenset()

    def test_identity(self, path3):
        assert induced_subgraph(path3, path3.atoms.keys()) == path3

    def test_o1_prefix(self, o1):
        keep = [v for v, l in o1.layer.items() if l <= 1]
        sub = induced_subgraph(o1, keep)
        assert len(sub.atoms) == 3
        assert len(sub.edges) == 2
        assert validate(sub) == []

    @given(graphs, st.data())
    def test_always_valid(self, g, data):
        W = data.draw(st.sets(st.sampled_from(sorted(g.atoms))))
        assert validate(induced_subgraph(g, W)) == []


def _paths_oracle(g):
    """All vertices on some directed path from S to T, by path enumeration."""
    succ = {}
    for t, h, _ in g.edges:
        succ.setdefault(t, set()).add(h)

    def on_paths(S, T):
        hits = set()

        def walk(v, trail):
            if v in T:
                hits.update(trail)
                # continue: longer paths through T vertices still count
            for u in succ.get(v, ()):
                walk(u, trail + [u])

        for s in S:
            walk(s, [s])
        return frozenset(hits)

    return on_paths


class TestChannel:
    def test_path_with_isolated_vertex(self, path3):
        g = build([("v0", 0, 1), ("v1", 1, 1), ("v2", 2, 1), ("u", 1, 1)],
                  [("v0", "v1", "a"), ("v1", "v2", "a")], height=2)
        ch = channel(g, {"v0"}, {"v2"})
        assert set(ch.atoms) == {"v0", "v1", "v2"}

    def test_disconnected(self):
        g = build([("v0", 0, 1), ("u", 1, 1), ("v1", 1, 1)], [("v0", "v1", "a")])
        ch = channel(g, {"v0"}, {"u"})
        assert ch.atoms == {}

    def test_o1_whole_graph(self, o1):
        ch = channel(o1, o1.layer_set(0), o1.layer_set(2))
        assert ch == o1

    @given(graphs, st.data())
    def test_matches_path_enumeration(self, g, data):
        ids = sorted(g.atoms)
        S = frozenset(data.draw(st.sets(st.sampled_from(ids), max_size=4)))
        T = frozenset(data.draw(st.sets(st.sampled_from(ids), max_size=4)))
        ch = channel(g, S, T)
        assert frozenset(ch.atoms) == _paths_oracle(g)(S, T)
        assert validate(ch) == []


class TestDual:
    def test_reverses_path(self, path2):
        d = dual(path2)
        assert d.edges == {("v1", "v0", "a")}
        assert d.layer == {"v0": 1, "v1": 0}

    def test_involution(self, o1):
        assert dual(dual(o1)) == o1

    def test_edge_count_preserved(self, o1):
        assert len(dual(o1).edges) == 6


class TestFlow:
    def test_single_edge(self, path2):
        assert flow(path2) == 1

    def test_bipartite_example(self, bipartite_flow_example):
        g = bipartite_flow_example
        assert flow(g) == Fraction(3, 2)
        assert flow(dual(g)) == Fraction(3, 2)

    def test_no_edges(self):
        g = build([("v0", 0, 1), ("v1", 1, 1)], [], height=1, labels=["a"])
        assert flow(g) == 0

    def test_rejects_taller_graphs(self, path3):
        with pytest.raises(InputError):
            flow(path3)

    @given(one_layer_graphs)
    def test_flow_duality(self, g):
        assert validate(g) == []
        assert flow(g) == flow(dual(g))


class TestTruncate:
    def test_prefix_of_o1(self, o1):
        t = truncate(o1, 1)
        assert t.height == 1
        assert len(t.atoms) == 3
        assert validate(t) == []

    def test_bad_layer(self, o1):
        with pytest.raises(InputError):
            truncate(o1, 3)
