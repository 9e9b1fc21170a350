import dataclasses
import itertools
import pickle
import random
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import (CommutativityVerdict, HypothesisError, InputError,
                           LayeredMeasureGraph, channel, commutativity, dual,
                           is_commutative, matching_witnesses, validate,
                           verify_orbit_commutes)
from plunnecke_lab.commutativity import check_witnesses, require_commutative
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
    """Both passes, as the definition of commutativity states them."""
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
        reverse = is_commutative(dual(g))
        assert (reverse.holds, reverse.failing_edge) == oracle_semi_commutative(dual(g))
        dual_failures += not reverse.holds
        verdict = is_commutative(g)
        assert (verdict.holds, verdict.failing_edge) == oracle_commutative(g)
        if verdict.holds:
            witnesses = matching_witnesses(g)
            assert check_witnesses(g, witnesses)
            assert set(witnesses) == g.edges
        else:
            failures += 1
    # the battery must exercise refutations, of graphs and of duals
    assert failures >= 50
    assert dual_failures >= 50


# -- the verdict-only pass against the full pass ------------------------------
# The package decides the verdict from edge counts and builds the witness
# injections only on request, in ``matching_witnesses``; this is the pass it
# replaced, which built every injection while it decided.


def full_pass(edges):
    """(holds, failing edge, witnesses) with every injection built on the way."""
    edges = sorted(edges)
    out_edges, parallel, tail_of = {}, {}, {}
    for e in edges:
        out_edges.setdefault(e[0], []).append(e)
        parallel.setdefault(e[:2], []).append(e)
        tail_of[e[1], e[2]] = e[0]
    witnesses = {}
    for x, y, a in edges:
        used, pairs = {}, []
        for e in out_edges.get(y, ()):
            w = tail_of.get((e[1], a))
            block = parallel.get((x, w), ())
            k = used.get(w, 0)
            if k == len(block):
                return False, (x, y, a), None
            used[w] = k + 1
            pairs.append((e, block[k]))
        witnesses[(x, y, a)] = tuple(pairs)
    return True, None, witnesses


def test_verdict_only_pass_matches_the_full_pass():
    rng = random.Random(2026)
    graphs = _differential_battery()
    for _ in range(150):
        graphs.append(random_orbit_graph(rng, max_n=12, max_a=4, max_h=4))
        graphs.append(random_layered_graph(rng, max_layer0=8, max_width=6, max_height=4))
    held = 0
    for g in graphs:
        verdict = is_commutative(g)
        holds, failing, witnesses = full_pass(g.edges)
        assert (verdict.holds, verdict.failing_edge) == (holds, failing)
        if holds:
            held += 1
            assert list(matching_witnesses(g).items()) == list(witnesses.items())
        else:
            with pytest.raises(HypothesisError):
                matching_witnesses(g)
    assert 100 < held < len(graphs) - 100


def test_is_commutative_builds_no_injection(monkeypatch, o1_full):
    def refuse(g):
        raise AssertionError("is_commutative built the witness injections")

    monkeypatch.setattr(commutativity, "matching_witnesses", refuse)
    verdict = is_commutative(o1_full)
    assert verdict == CommutativityVerdict(True, None)
    assert [f.name for f in dataclasses.fields(verdict)] == ["holds", "failing_edge"]
    monkeypatch.undo()
    witnesses = matching_witnesses(o1_full)
    edge = min(o1_full.edges)
    assert witnesses[edge] == full_pass(o1_full.edges)[2][edge]
    assert len(witnesses) == len(o1_full.edges)
    assert check_witnesses(o1_full, witnesses)


def test_chain_counterexample_fails_with_documented_edge(chain_counterexample):
    verdict = is_commutative(chain_counterexample)
    assert not verdict.holds
    assert verdict.failing_edge == ("v0", "v1", "a")


def test_single_edge_graph_is_commutative(path2):
    verdict = is_commutative(path2)
    assert verdict.holds
    assert verdict.failing_edge is None


def test_top_layer_edges_are_vacuous(path3):
    # v1 -> v2 has no outgoing edges at v2, so only the bottom edge matters
    assert is_commutative(path3).holds


def test_o1_commutative(o1):
    assert is_commutative(o1).holds
    assert check_witnesses(o1, matching_witnesses(o1))


def test_o2_commutative(o2):
    assert is_commutative(o2).holds


def test_reversed_chain_fails_at_its_own_edge(chain_counterexample):
    # the reversed chain is just as non-commutative; the report names its edge
    from plunnecke_lab import dual

    verdict = is_commutative(dual(chain_counterexample))
    assert not verdict.holds
    assert verdict.failing_edge == ("v2", "v1", "b")


# -- one pass decides both ----------------------------------------------------
# Every assignment of partial injections for two labels on a three-layer
# window; the forward and dual passes must agree on each.


def _partial_injections(lower, upper):
    for size in range(min(len(lower), len(upper)) + 1):
        for tails in itertools.combinations(lower, size):
            for heads in itertools.permutations(upper, size):
                yield tuple(zip(tails, heads))


def _windows(sizes, labels=("a", "b")):
    layers = [[f"v{lay}_{i}" for i in range(n)] for lay, n in enumerate(sizes)]
    vertices = [(v, lay, 1) for lay, row in enumerate(layers) for v in row]
    steps = [list(_partial_injections(layers[lay], layers[lay + 1]))
             for lay in range(len(sizes) - 1)]
    for choice in itertools.product(*steps, repeat=len(labels)):
        edges = [(t, h, labels[i // len(steps)])
                 for i, injection in enumerate(choice) for t, h in injection]
        yield LayeredMeasureGraph.build(vertices, edges, height=len(sizes) - 1,
                                        labels=labels)


@pytest.mark.parametrize("sizes, count", [((1, 2, 2), 441), ((2, 2, 1), 441),
                                          ((2, 2, 2), 2401), ((2, 3, 2), 28561)],
                         ids=["1-2-2", "2-2-1", "2-2-2", "2-3-2"])
def test_one_pass_decides_every_small_window(sizes, count):
    seen = refuted = 0
    for g in _windows(sizes):
        verdict = is_commutative(g)
        assert (verdict.holds, verdict.failing_edge) == oracle_commutative(g)
        assert verdict.holds == is_commutative(dual(g)).holds
        seen += 1
        refuted += not verdict.holds
    assert seen == count
    assert 0 < refuted < seen


def test_one_injection_pass_per_call(monkeypatch, o1_full, chain_counterexample):
    calls = []
    real = commutativity._injections

    def counting(edges):
        calls.append(1)
        return real(edges)

    monkeypatch.setattr(commutativity, "_injections", counting)
    for g in (o1_full, chain_counterexample, dual(chain_counterexample)):
        calls.clear()
        is_commutative(g)
        assert len(calls) == 1


def test_invalid_graph_is_an_input_error():
    g = build([("v0", 0, 1), ("v1", 1, 2)], [("v0", "v1", "a")])
    with pytest.raises(InputError):
        is_commutative(g)


def test_witnesses_satisfy_injectivity_and_compatibility(o1, o1_full):
    for g in (o1, o1_full):
        assert is_commutative(g).holds
        witnesses = matching_witnesses(g)
        assert check_witnesses(g, witnesses)
        # one witness injection per edge of the graph
        assert set(witnesses) == g.edges


def test_verdict_witnesses_are_read_only_and_pickle(o1, chain_counterexample):
    witnesses = matching_witnesses(o1)
    assert isinstance(witnesses, MappingProxyType)
    edge = min(witnesses)
    with pytest.raises(TypeError):
        witnesses[edge] = ()
    with pytest.raises(TypeError):
        del witnesses[edge]
    for v in (is_commutative(o1), is_commutative(chain_counterexample)):
        assert pickle.loads(pickle.dumps(v)) == v
    # the refusal's payload crosses worker processes by pickling
    with pytest.raises(HypothesisError) as refused:
        require_commutative(chain_counterexample)
    again = pickle.loads(pickle.dumps(refused.value))
    assert str(again) == str(refused.value)
    assert again.payload == refused.value.payload == {"failing_edge": ["v0", "v1", "a"]}


@given(orbit_graphs)
def test_orbit_graphs_are_commutative(g):
    assert is_commutative(g).holds
    assert check_witnesses(g, matching_witnesses(g))


# -- the certificate checker --------------------------------------------------
# ``check_witnesses`` reads only the graph's edges, so a certificate that is
# incomplete or tampered with is refused whatever produced it.


@pytest.fixture
def fork():
    """(v0, v1, a) needs an a-edge into v2 from a head of v0; there is none."""
    return build([("v0", 0, 1), ("v1", 1, 1), ("w1", 1, 1), ("v2", 2, 1)],
                 [("v0", "v1", "a"), ("v1", "v2", "b"), ("v0", "w1", "b")], height=2)


def test_matching_witnesses_refuses_a_graph_that_does_not_commute(fork, chain_counterexample):
    for g in (fork, chain_counterexample):
        verdict = is_commutative(g)
        assert not verdict.holds
        with pytest.raises(HypothesisError, match="graph is not commutative") as err:
            matching_witnesses(g)
        assert err.value.payload == {"failing_edge": list(verdict.failing_edge)}


def test_the_commutativity_report_names_the_failing_edge(o1, fork):
    held = verify_orbit_commutes(o1, "o1")
    assert (held.instance, held.theorem, held.lhs, held.rhs) == ("o1", "ex-2.6", 1, 1)
    assert held.holds and held.details == {}
    failed = verify_orbit_commutes(fork)
    assert (failed.lhs, failed.rhs, failed.holds) == (0, 1, False)
    assert failed.details == {"failing_edge": list(is_commutative(fork).failing_edge)}


def test_certificates_of_a_graph_that_does_not_commute_are_refused(fork):
    assert not check_witnesses(fork, {})
    assert not check_witnesses(fork, {e: () for e in fork.edges})
    # the only candidate pairing for (v0, v1, a) misses an a-edge into v2
    forged = {e: () for e in fork.edges}
    forged["v0", "v1", "a"] = ((("v1", "v2", "b"), ("v0", "w1", "b")),)
    assert not check_witnesses(fork, forged)


def _without_edge(witnesses):
    out = dict(witnesses)
    del out[max(e for e, pairs in out.items() if pairs)]
    return out


def _without_pair(witnesses):
    out = dict(witnesses)
    edge = max(e for e, pairs in out.items() if pairs)
    out[edge] = out[edge][1:]
    return out


def _repeated_pair(witnesses):
    out = dict(witnesses)
    edge = max(e for e, pairs in out.items() if pairs)
    out[edge] = out[edge] + out[edge][:1]
    return out


def _shared_target(witnesses):
    out = dict(witnesses)
    edge = max(e for e, pairs in out.items() if len(pairs) > 1)
    (e0, phi0), (e1, _phi1), *rest = out[edge]
    out[edge] = ((e0, phi0), (e1, phi0), *rest)
    return out


def _extra_edge(witnesses):
    return {**witnesses, ("v0", "v1", "zzz"): ()}


@pytest.mark.parametrize("mutate", [lambda w: {}, _without_edge, _without_pair,
                                    _repeated_pair, _shared_target, _extra_edge],
                         ids=["empty", "edge-dropped", "pair-dropped", "pair-repeated",
                              "shared-target", "unknown-edge"])
def test_mutated_certificates_of_o1_are_refused(o1, mutate):
    witnesses = matching_witnesses(o1)
    assert check_witnesses(o1, witnesses)
    assert not check_witnesses(o1, mutate(witnesses))


@pytest.mark.parametrize("certificate", [
    lambda g: {e: 5 for e in g.edges},
    lambda g: 7,
    lambda g: {e: ((1,),) for e in g.edges},
    lambda g: [list(e) for e in g.edges],
    lambda g: {e: tuple((list(p[0]), list(p[1])) for p in pairs)
               for e, pairs in matching_witnesses(g).items()},
    lambda g: sorted(g.edges),
], ids=["int-injections", "not-a-mapping", "short-pairs", "unhashable-list",
        "list-edges", "edges-without-injections"])
def test_malformed_certificates_are_refused_with_false(o1, certificate):
    assert check_witnesses(o1, certificate(o1)) is False


def test_an_invalid_graph_is_refused_whatever_the_certificate(path2):
    broken = build([("v0", 0, 1), ("v1", 1, 2)], [("v0", "v1", "a")], height=1)
    for certificate in ({}, 7, matching_witnesses(path2)):
        with pytest.raises(InputError, match="invalid graph"):
            check_witnesses(broken, certificate)


@given(orbit_graphs, st.data())
def test_channels_of_commutative_graphs_stay_commutative(g, data):
    i = data.draw(st.integers(0, g.height - 1))
    j = data.draw(st.integers(i + 1, g.height))
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.layer_set(i))), min_size=1)))
    T = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.layer_set(j))), min_size=1)))
    ch = channel(g, S, T)
    if ch.atoms:
        assert is_commutative(ch).holds
