import random

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import (InputError, LayeredMeasureGraph, channel, dual, is_commutative,
                           is_semi_commutative, validate)
from plunnecke_lab.commutativity import check_witnesses
from plunnecke_lab.generators import random_layered_graph, random_orbit_graph

from conftest import build

orbit_graphs = st.integers(0, 10 ** 9).map(
    lambda s: random_orbit_graph(random.Random(s), max_n=10, max_a=3, max_h=3))


# -- the matching oracle ------------------------------------------------------
# The injection condition decided edge by edge with an augmenting-path
# maximum matching, independently of the block count the package uses.


def _saturating_matching(adjacency: list[list[int]], n_right: int) -> list[int] | None:
    """Left-saturating matching via augmenting paths; None when impossible."""
    match_right = [-1] * n_right
    match_left = [-1] * len(adjacency)

    def augment(li: int, seen: set[int]) -> bool:
        for ri in adjacency[li]:
            if ri in seen:
                continue
            seen.add(ri)
            if match_right[ri] == -1 or augment(match_right[ri], seen):
                match_right[ri] = li
                match_left[li] = ri
                return True
        return False

    for li in range(len(adjacency)):
        if not augment(li, set()):
            return None
    return match_left


def oracle_semi_commutative(g):
    """(holds, failing edge) of the forward injection condition, by matching."""
    assert validate(g) == []
    out_edges = {}
    for e in sorted(g.edges):
        out_edges.setdefault(e[0], []).append(e)
    for x, y, a in sorted(g.edges):
        need = out_edges.get(y, [])
        pool = out_edges.get(x, [])
        adjacency = [[fi for fi, f in enumerate(pool) if (f[1], e[1], a) in g.edges]
                     for e in need]
        if _saturating_matching(adjacency, len(pool)) is None:
            return False, (x, y, a)
    return True, None


def oracle_commutative(g):
    first = oracle_semi_commutative(g)
    return first if not first[0] else oracle_semi_commutative(dual(g))


def _drop_one_edge(g, rng):
    edges = sorted(g.edges)
    gone = edges[rng.randrange(len(edges))]
    return LayeredMeasureGraph(g.atoms, g.layer, g.height, g.labels, g.edges - {gone})


def _differential_battery():
    graphs = []
    for seed in range(150):
        rng = random.Random(seed)
        layered = random_layered_graph(rng, max_layer0=6, max_width=5)
        orbit = random_orbit_graph(rng, max_n=10, max_a=3, max_h=3)
        graphs += [layered, orbit]
        graphs += [_drop_one_edge(g, rng) for g in (layered, orbit) if g.edges]
    return graphs


def test_block_count_matches_the_matching_oracle():
    failures = dual_failures = 0
    for g in _differential_battery():
        semi = is_semi_commutative(dual(g))
        assert (semi.holds, semi.failing_edge) == oracle_semi_commutative(dual(g))
        dual_failures += not semi.holds
        verdict = is_commutative(g)
        assert (verdict.holds, verdict.failing_edge) == oracle_commutative(g)
        if verdict.holds:
            assert check_witnesses(g, verdict)
            assert len(verdict.matching_witnesses) == 2 * len(g.edges)
        else:
            failures += 1
    # the battery must exercise refutations, of graphs and of duals
    assert failures >= 50
    assert dual_failures >= 50


def test_chain_counterexample_fails_with_documented_edge(chain_counterexample):
    verdict = is_semi_commutative(chain_counterexample)
    assert not verdict.holds
    assert verdict.failing_edge == ("v0", "v1", "a")
    assert not is_commutative(chain_counterexample).holds


def test_single_edge_graph_is_commutative(path2):
    verdict = is_commutative(path2)
    assert verdict.holds
    assert verdict.failing_edge is None


def test_top_layer_edges_are_vacuous(path3):
    # v1 -> v2 has no outgoing edges at v2, so only the bottom edge matters
    assert is_semi_commutative(path3).holds


def test_o1_commutative(o1):
    verdict = is_commutative(o1)
    assert verdict.holds
    assert check_witnesses(o1, verdict)


def test_o2_commutative(o2):
    assert is_commutative(o2).holds


def test_reversed_chain_fails_at_its_own_edge(chain_counterexample):
    # the reversed chain is just as non-commutative; the report names its edge
    from plunnecke_lab import dual

    verdict = is_commutative(dual(chain_counterexample))
    assert not verdict.holds
    assert verdict.failing_edge == ("v2", "v1", "b")


def test_invalid_graph_is_an_input_error():
    g = build([("v0", 0, 1), ("v1", 1, 2)], [("v0", "v1", "a")])
    with pytest.raises(InputError):
        is_commutative(g)


def test_witnesses_satisfy_injectivity_and_compatibility(o1, o1_full):
    for g in (o1, o1_full):
        verdict = is_commutative(g)
        assert verdict.holds
        assert check_witnesses(g, verdict)
        # every edge is covered by a witness entry in the graph or its dual
        assert len(verdict.matching_witnesses) == 2 * len(g.edges)


@given(orbit_graphs)
def test_orbit_graphs_are_commutative(g):
    verdict = is_commutative(g)
    assert verdict.holds
    assert check_witnesses(g, verdict)


@given(orbit_graphs, st.data())
def test_channels_of_commutative_graphs_stay_commutative(g, data):
    i = data.draw(st.integers(0, g.height - 1))
    j = data.draw(st.integers(i + 1, g.height))
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.layer_set(i))), min_size=1)))
    T = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.layer_set(j))), min_size=1)))
    ch = channel(g, S, T)
    if ch.atoms:
        assert is_commutative(ch).holds
