import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import InputError
from plunnecke_lab.dynamics import (FinAbGroup, GroupSet, move_set, pair_group_set,
                                    pair_space_set, product_action, translation_action)
from plunnecke_lab.maxflow import (BRUTE_FORCE_LIMIT, FlowNetwork, lex_less, lex_min_greedy,
                                   min_ratio_bruteforce, min_ratio_mincut)


def test_textbook_max_flow():
    # classic 6-node network with max flow 23
    net = FlowNetwork(6)
    for u, v, c in [(0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
                    (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4)]:
        net.add_edge(u, v, c)
    assert net.max_flow(0, 5) == 23


def test_source_side_is_min_cut():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 1)
    net.add_edge(1, 2, 5)
    net.add_edge(2, 3, 5)
    assert net.max_flow(0, 3) == 1
    assert net.source_side(0) == {0}


def _random_network(rng):
    """At most 8 nodes; capacities include 0 and values past 10**12, and
    some arcs come with a parallel copy or an antiparallel partner."""
    n = rng.randint(2, 8)
    caps = [0, 1, 2, 3, 5, 8, 10 ** 12 + 1, 3 * 10 ** 13]
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.choice(caps)))
        roll = rng.random()
        if roll < 0.2:
            arcs.append((u, v, rng.choice(caps)))
        elif roll < 0.4:
            arcs.append((v, u, rng.choice(caps)))
    s, t = rng.sample(range(n), 2)
    return n, arcs, s, t


def _build(n, arcs):
    net = FlowNetwork(n)
    for u, v, c in arcs:
        net.add_edge(u, v, c)
    return net


def _cut_oracle(n, arcs, s, t):
    """Minimum s-t cut value and the intersection of all minimum source sides,
    by enumerating every cut."""
    best, common = None, None
    others = [v for v in range(n) if v not in (s, t)]
    for mask in range(1 << len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        value = sum(c for u, v, c in arcs if u in side and v not in side)
        if best is None or value < best:
            best, common = value, side
        elif value == best:
            common = common & side
    return best, common


def test_max_flow_matches_cut_enumeration():
    rng = random.Random(20140715)
    for _ in range(600):
        n, arcs, s, t = _random_network(rng)
        value, common = _cut_oracle(n, arcs, s, t)
        net = _build(n, arcs)
        assert net.max_flow(s, t) == value, (n, arcs, s, t)
        assert net.source_side(s) == common, (n, arcs, s, t)


def test_long_chain_needs_no_recursion():
    # a recursive path walk would go 4000 frames deep here
    n = 4000
    net = FlowNetwork(n)
    for v in range(n - 1):
        net.add_edge(v, v + 1, 7 if v == 2500 else 9 + v % 5)
    assert net.max_flow(0, n - 1) == 7
    assert net.source_side(0) == set(range(2501))


def test_warm_start_after_raising_arcs_matches_a_fresh_network():
    rng = random.Random(1970)
    for _ in range(300):
        n, arcs, s, t = _random_network(rng)
        net = FlowNetwork(n)
        handles = [net.add_edge(u, v, c) for u, v, c in arcs]
        first = net.max_flow(s, t)
        if not arcs:
            continue
        # raise 1-3 arcs, one of them carrying flow whenever some arc does
        carrying = [k for k, a in enumerate(handles) if net.cap[a ^ 1]]
        picks = rng.sample(range(len(arcs)), min(len(arcs), rng.randint(1, 3)))
        if carrying:
            picks[0] = rng.choice(carrying)
        raised = list(arcs)
        for k in set(picks):
            u, v, c = arcs[k]
            new = rng.choice([c + 1, c + 4, 10 ** 15])
            raised[k] = (u, v, new)
            net.cap[handles[k]] += new - c
        fresh = _build(n, raised)
        assert first + net.max_flow(s, t) == fresh.max_flow(s, t), (n, arcs, raised)
        assert net.source_side(s) == fresh.source_side(s), (n, arcs, raised)


def test_cutoff_answers_whether_more_flow_exists():
    """A warm-started query with raised pins, cut off at 1 and at random
    values, against the same query run to the maximum."""
    rng = random.Random(1956)
    feasible = infeasible = stopped = 0
    for _ in range(400):
        n, arcs, s, t = _random_network(rng)
        net = FlowNetwork(n)
        handles = [net.add_edge(u, v, c) for u, v, c in arcs]
        net.max_flow(s, t)
        base = net.cap[:]
        pins = rng.sample(handles, min(len(handles), rng.randint(0, 3)))
        for arc in pins:
            base[arc] += rng.choice([1, 4, 10 ** 15])
        net.cap[:] = base
        full = net.max_flow(s, t)
        for cutoff in (1, rng.choice([2, 5, 10 ** 12, 10 ** 16])):
            net.cap[:] = base
            got = net.max_flow(s, t, cutoff=cutoff)
            assert min(cutoff, full) <= got <= full, (n, arcs, pins, cutoff)
            if got < cutoff:
                assert got == full
            if cutoff == 1:
                assert (got == 0) == (full == 0)
                stopped += got < full
        if full:
            feasible += 1
        else:
            infeasible += 1
    assert feasible >= 50 and infeasible >= 50 and stopped >= 15


def _pinned_warm_start(rng):
    """A random network at its maximum flow, with 0-3 arcs then raised as
    pins are: returns the network, s, t and each arc's capacity."""
    n, arcs, s, t = _random_network(rng)
    net = FlowNetwork(n)
    handles = [net.add_edge(u, v, c) for u, v, c in arcs]
    net.max_flow(s, t)
    capacity = []
    for _u, _v, c in arcs:
        capacity += (c, 0)
    for arc in rng.sample(handles, min(len(handles), rng.randint(0, 3))):
        raise_by = rng.choice([1, 4, 10 ** 15])
        net.cap[arc] += raise_by
        capacity[arc] += raise_by
    return net, s, t, capacity


def _net_out(net, capacity, v):
    # flow on arc a is capacity[a] - cap[a]; an arc and its reverse cancel
    return sum(capacity[a] - net.cap[a] for a in net.adj[v])


def test_cutoff_leaves_a_feasible_flow():
    rng = random.Random(1972)
    found = 0
    for _ in range(300):
        net, s, t, capacity = _pinned_warm_start(rng)
        saved = net.cap[:]
        for cutoff in (1, 2, 10 ** 12):
            net.cap[:] = saved
            before = _net_out(net, capacity, s)
            got = net.max_flow(s, t, cutoff=cutoff)
            found += got > 0
            for a in range(0, len(capacity), 2):
                flow = capacity[a] - net.cap[a]
                assert 0 <= flow <= capacity[a] and net.cap[a + 1] == flow
            for v in range(net.n):
                if v not in (s, t):
                    assert _net_out(net, capacity, v) == 0
            assert _net_out(net, capacity, s) - before == got
    assert found >= 100


def test_first_push_runs_along_one_simple_path():
    rng = random.Random(1984)
    found = 0
    for _ in range(300):
        net, s, t, _capacity = _pinned_warm_start(rng)
        before = net.cap[:]
        got = net.max_flow(s, t, cutoff=1)
        changed = [a for a in range(len(before)) if net.cap[a] != before[a]]
        if not got:
            assert changed == []
            continue
        found += 1
        path = {net.head[a ^ 1]: a for a in changed if net.cap[a] < before[a]}
        assert sorted(changed) == sorted({a ^ k for a in path.values() for k in (0, 1)})
        for a in path.values():
            assert before[a] - net.cap[a] == net.cap[a ^ 1] - before[a ^ 1] == got
        v, seen = s, {s}
        while v != t:
            v = net.head[path[v]]
            assert v not in seen
            seen.add(v)
        assert len(seen) == len(path) + 1
    assert found >= 50


def test_truncate_leaves_the_network_that_never_had_the_arcs():
    rng = random.Random(1974)
    for _ in range(300):
        n, arcs, s, t = _random_network(rng)
        net = _build(n, arcs)
        net.max_flow(s, t)
        mark, saved = len(net.head), net.cap[:]
        for _extra in range(rng.randint(1, 4)):
            u, v = rng.choice([rng.sample(range(n), 2), [s, t], [s, s]])
            net.add_edge(u, v, rng.choice([0, 1, 7, 10 ** 15]))
        net.max_flow(s, t)
        net.truncate(mark)
        net.cap[:] = saved
        fresh = _build(n, arcs)
        fresh.max_flow(s, t)
        assert (net.head, net.cap, net.adj) == (fresh.head, fresh.cap, fresh.adj)
        assert net.max_flow(s, t) == 0


def _product_relation(seed):
    """c(A x A2, B x B2)'s ratio problem on a product of two cyclic translation
    actions, with 11-20 sources."""
    rng = random.Random(f"product:{seed}")
    size = 11 + seed % 10
    first = rng.choice([d for d in range(1, size + 1) if size % d == 0])
    sides = []
    for count in (first, size // first):
        act = translation_action(FinAbGroup((rng.randint(count + 1, count + 6),)))
        A = GroupSet.of(act.group, [(x,) for x in rng.sample(range(act.group.order), 2)])
        sides.append((act, A, rng.sample(sorted(act.atoms), count)))
    (act, A, B), (act2, A2, B2) = sides
    pact = product_action(act, act2)
    sources = sorted(pair_space_set(B, B2))
    pairs = pair_group_set(A, A2)
    neighbors = {b: move_set(pact, pairs, frozenset([b])) for b in sources}
    return sources, neighbors, pact.atoms


@pytest.mark.parametrize("seed", range(10))
def test_mincut_agrees_with_bruteforce_on_product_actions(seed):
    sources, neighbors, weights = _product_relation(seed)
    assert 11 <= len(sources) <= 20
    value, witness, _trace = min_ratio_mincut(sources, neighbors, weights)
    assert (value, witness) == min_ratio_bruteforce(sources, neighbors, weights)


def test_cutoff_on_unit_capacities_is_exact():
    # every augmenting path carries 1, so the call stops at exactly the cutoff
    rng = random.Random(1962)
    for _ in range(200):
        n, arcs, s, t = _random_network(rng)
        unit = [(u, v, 1) for u, v, _c in arcs]
        full = _build(n, unit).max_flow(s, t)
        for cutoff in range(1, full + 2):
            assert _build(n, unit).max_flow(s, t, cutoff=cutoff) == min(cutoff, full)


def test_lex_min_greedy_queries_only_add_constraints():
    rng = random.Random(1967)
    for _ in range(200):
        n = rng.randint(1, 9)
        queries = []
        accepted = [((), ())]

        def feasible(chosen, barred):
            key = (tuple(chosen), tuple(barred))
            queries.append(key)
            last_in, last_out = accepted[-1]
            assert set(last_in) <= set(chosen) and set(last_out) <= set(barred)
            assert not set(chosen) & set(barred)
            ok = rng.random() < 0.5 or chosen[-1] == n - 1
            if ok:
                accepted.append(key)
            return ok

        target = rng.randint(1, n)
        witness = lex_min_greedy(n, feasible, lambda chosen: len(chosen) >= target
                                 or (chosen and chosen[-1] == n - 1))
        assert queries and witness == list(accepted[-1][0])


@given(st.sets(st.integers(0, 9)), st.sets(st.integers(0, 9)))
def test_lex_less_matches_tuple_order(a, b):
    mask = lambda s: sum(1 << i for i in s)
    assert lex_less(mask(a), mask(b)) == (tuple(sorted(a)) < tuple(sorted(b)))


def _random_relation(rng, max_src=7, max_dst=6):
    n_src = rng.randint(1, max_src)
    n_dst = rng.randint(1, max_dst)
    sources = [f"s{i}" for i in range(n_src)]
    targets = [f"t{i}" for i in range(n_dst)]
    neighbors = {
        s: frozenset(t for t in targets if rng.random() < 0.55) for s in sources
    }
    weights = {
        x: Fraction(rng.randint(1, 5), rng.randint(1, 5))
        for x in sources + targets
    }
    return sources, neighbors, weights


relations = st.integers(0, 10 ** 9).map(
    lambda s: _random_relation(random.Random(s)))


@given(relations)
def test_mincut_agrees_with_bruteforce(rel):
    sources, neighbors, weights = rel
    v1, w1 = min_ratio_bruteforce(sources, neighbors, weights)
    v2, w2, trace = min_ratio_mincut(sources, neighbors, weights)
    assert v1 == v2
    assert w1 == w2
    assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))


@given(relations)
def test_witness_reproduces_value(rel):
    sources, neighbors, weights = rel
    value, witness, _ = min_ratio_mincut(sources, neighbors, weights)
    image = frozenset(u for s in witness for u in neighbors[s])
    mu_img = sum((weights[u] for u in image), Fraction(0))
    mu_set = sum((weights[s] for s in witness), Fraction(0))
    assert mu_img == value * mu_set
    assert witness


def test_zero_when_some_source_has_no_neighbors():
    neighbors = {"a": frozenset({"t"}), "b": frozenset()}
    weights = {"a": Fraction(1), "b": Fraction(1), "t": Fraction(1)}
    value, witness, _ = min_ratio_mincut(["a", "b"], neighbors, weights)
    assert value == 0
    assert witness == {"b"}
    assert min_ratio_mincut(["a", "b"], neighbors, weights,
                            witness=False) == (0, None, (0,))
    value, witness = min_ratio_bruteforce(["a", "b"], neighbors, weights)
    assert value == 0
    assert witness == {"b"}


def test_iteration_bound_is_enforced():
    neighbors = {"a": frozenset({"t"})}
    weights = {"a": Fraction(1), "t": Fraction(2)}
    value, witness, trace = min_ratio_mincut(["a"], neighbors, weights)
    assert value == 2 and witness == {"a"}
    assert len(trace) <= 1 * 1 + 2


def test_empty_sources_rejected():
    with pytest.raises(InputError):
        min_ratio_bruteforce([], {}, {})
    with pytest.raises(InputError):
        min_ratio_mincut([], {}, {})


def test_brute_force_limit():
    sources = [f"s{i:02d}" for i in range(23)]
    neighbors = {s: frozenset({"t"}) for s in sources}
    weights = {x: Fraction(1) for x in sources + ["t"]}
    for n in (21, 22, 23):
        with pytest.raises(InputError, match="limited to 20 sources"):
            min_ratio_bruteforce(sources[:n], neighbors, weights)
    assert BRUTE_FORCE_LIMIT == 20
