import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import InputError
from plunnecke_lab.dynamics import (FinAbGroup, GroupSet, move_set, orbit_graph, pair_group_set,
                                    pair_space_set, product_action, translation_action)
from plunnecke_lab import magnification, maxflow
from plunnecke_lab.maxflow import (BRUTE_FORCE_LIMIT, FlowNetwork, _integerize, lex_min_walk,
                                   min_ratio_bruteforce, min_ratio_mincut)

from conftest import lex_min_greedy


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


def test_probe_answers_whether_more_flow_exists():
    """A warm-started query with raised pins, probed, against the same query
    run to the maximum; the probe changes nothing."""
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
        net.cap[:] = base
        state = (net.head[:], net.cap[:], [out[:] for out in net.adj])
        got = net.max_flow(s, t, probe=True)
        assert got == (full > 0), (n, arcs, pins)
        assert (net.head, net.cap, net.adj) == state, (n, arcs, pins)
        # a probe answers 1 however much more flow the maximum would add
        stopped += full > 1
        if full:
            feasible += 1
        else:
            infeasible += 1
    assert feasible >= 50 and infeasible >= 50 and stopped >= 15


def _bfs_reaches(net, s, t):
    """1 if t can be reached from s in the residual network, else 0, by a
    breadth-first search that stops once t is labelled (the probe's earlier
    search, kept as an independent oracle)."""
    adj, head, cap = net.adj, net.head, net.cap
    labelled = [False] * net.n
    labelled[s] = True
    queue = [s]
    for v in queue:
        for a in adj[v]:
            w = head[a]
            if not labelled[w] and cap[a]:
                if w == t:
                    return 1
                labelled[w] = True
                queue.append(w)
    return 0


def _checked_probe(net, s, t, max_flow=FlowNetwork.max_flow):
    """The probe's answer, checked against the oracle; the probe must leave
    ``head``, ``cap`` and ``adj`` as they were.  ``max_flow`` defaults to the
    method as defined, so a test that wraps the method can call this."""
    state = (net.head[:], net.cap[:], [out[:] for out in net.adj])
    got = max_flow(net, s, t, probe=True)
    assert got == _bfs_reaches(net, s, t)
    assert (net.head, net.cap, net.adj) == state
    return got


def test_probe_matches_a_breadth_first_search_in_walk_states():
    """Random networks in the states a witness walk leaves: at a maximum
    flow, with pins raised, with bars added, and after truncating them."""
    rng = random.Random(2026)
    answers = []
    for _ in range(400):
        n, arcs, s, t = _random_network(rng)
        net = _build(n, arcs)
        net.max_flow(s, t)
        answers.append(_checked_probe(net, s, t))
        mark = len(net.head)
        for arc in rng.sample(range(0, mark, 2), min(mark // 2, rng.randint(1, 3))):
            net.cap[arc] += rng.choice([1, 4, 10 ** 15])  # a pin
            answers.append(_checked_probe(net, s, t))
        for _bar in range(rng.randint(1, 3)):
            net.add_edge(rng.randrange(n), rng.choice([t, rng.randrange(n)]),
                         rng.choice([0, 1, 10 ** 15]))
            answers.append(_checked_probe(net, s, t))
        net.truncate(mark)
        answers.append(_checked_probe(net, s, t))
    assert answers.count(0) >= 300 and answers.count(1) >= 300


@pytest.mark.parametrize("n", [8, 11, 16])
def test_probe_matches_a_breadth_first_search_on_orbit_graphs(n, monkeypatch):
    """Every probe of the ratio and cutset walks on Z/n orbit graphs, h = 3."""
    act = translation_action(FinAbGroup((n,)))
    g = orbit_graph(act, GroupSet.of(act.group, [(0,), (1,), (3,)]),
                    {str(y) for y in range(0, n, 3)}, 3)
    answers = []
    original = FlowNetwork.max_flow

    def checked(net, s, t, probe=False):
        if probe:
            answers.append(_checked_probe(net, s, t))
        return original(net, s, t, probe)

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    for j in (1, 2, 3):
        magnification.magnification_mincut(g, j)
    for C in (1, 2):
        magnification.min_weight_cutset(g, C)
    assert answers.count(0) >= 20 and answers.count(1) >= 30


@pytest.mark.parametrize("probe", [False, True])
def test_a_flow_from_a_node_to_itself_is_refused(probe):
    # a probe answered 1 here, and a full max flow failed inside min()
    net = _build(3, [(0, 1, 2), (1, 0, 2), (1, 2, 1)])
    with pytest.raises(ValueError, match="same node"):
        net.max_flow(1, 1, probe=probe)


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


def test_warm_started_flow_stays_feasible():
    rng = random.Random(1972)
    found = 0
    for _ in range(300):
        net, s, t, capacity = _pinned_warm_start(rng)
        before = _net_out(net, capacity, s)
        got = net.max_flow(s, t)
        found += got > 0
        for a in range(0, len(capacity), 2):
            flow = capacity[a] - net.cap[a]
            assert 0 <= flow <= capacity[a] and net.cap[a + 1] == flow
        for v in range(net.n):
            if v not in (s, t):
                assert _net_out(net, capacity, v) == 0
        assert _net_out(net, capacity, s) - before == got
        assert net.max_flow(s, t, probe=True) == 0
    assert found >= 34  # cases where the warm start admits more flow


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


def _product_relation(seed, size=None):
    """c(A x A2, B x B2)'s ratio problem on a product of two cyclic translation
    actions, with ``size`` sources (by default 11-20)."""
    rng = random.Random(f"product:{seed}")
    size = size or 11 + seed % 10
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
    assert min_ratio_mincut(sources, neighbors, weights) == min_ratio_bruteforce(
        sources, neighbors, weights)


def test_lex_min_walk_queries_only_add_constraints():
    rng = random.Random(1967)
    for _ in range(200):
        n = rng.randint(1, 9)
        queries, chosen, barred = [], [], []

        def query(i):
            # the query's chosen set is the last accepted one plus i, its
            # barred set the last one's, and the two stay disjoint
            assert i not in chosen and i not in barred
            queries.append(i)
            ok = rng.random() < 0.5 or i == n - 1
            if ok:
                chosen.append(i)
            return ok

        def bar(i):
            assert queries[-1] == i and i not in chosen and i not in barred
            barred.append(i)

        def done(got):
            assert got == chosen
            return bool(got) and (len(got) >= target or got[-1] == n - 1)

        target = rng.randint(1, n)
        witness = lex_min_walk(n, query, bar, done)
        assert queries and witness == chosen


def _walk_outcome(walk, n, query, done):
    try:
        return walk(n, query, done)
    except RuntimeError:
        return "exhausted"


def test_lex_min_walk_replays_the_reference_greedy_on_answer_sequences():
    """Each query's (chosen, barred) lists, in order, equal the reference
    greedy's, on 200 seeded answer sequences; so do the witness and the
    end of the walk."""
    rng = random.Random(2011)
    exhausted = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        answers = [rng.random() < 0.4 for _ in range(n + 1)]
        target = rng.randint(0, n)

        def done(chosen):
            return len(chosen) >= target

        walk_log, chosen, barred = [], [], []

        def query(i):
            walk_log.append((chosen + [i], barred[:]))
            ok = answers[len(walk_log) - 1]
            if ok:
                chosen.append(i)
            return ok

        got = _walk_outcome(lambda n, q, d: lex_min_walk(n, q, barred.append, d),
                            n, query, done)
        greedy_log = []

        def feasible(chosen, barred):
            greedy_log.append((chosen, barred))
            return answers[len(greedy_log) - 1]

        want = _walk_outcome(lex_min_greedy, n, feasible, done)
        assert (walk_log, got) == (greedy_log, want)
        exhausted += want == "exhausted"
    assert 20 <= exhausted <= 180


def _recording_walk(runs):
    """``lex_min_walk`` that logs each query's (chosen, barred, answer) and each
    ``done`` verdict, and the result, into ``runs``."""
    original = maxflow.lex_min_walk

    def walk(n, query, bar, done):
        log, dones, chosen, barred = [], [], [], []

        def logged_query(i):
            ok = query(i)
            log.append((chosen + [i], barred[:], ok))
            if ok:
                chosen.append(i)
            return ok

        def logged_bar(i):
            bar(i)
            barred.append(i)

        def logged_done(got):
            dones.append(done(got))
            return dones[-1]

        result = original(n, logged_query, logged_bar, logged_done)
        runs.append((n, log, dones, result))
        return result

    return walk


def _solver_runs(monkeypatch, walk):
    """Seeded ratio and cutset solves past BRUTE_FORCE_LIMIT with ``walk`` in
    place of ``lex_min_walk``: orbit graphs of Z/n, n in 42..63, with 21 or
    more base atoms, and products of two cyclic actions with 21-40 sources."""
    monkeypatch.setattr(maxflow, "lex_min_walk", walk)
    monkeypatch.setattr(magnification, "lex_min_walk", walk)
    for seed in range(6):
        rng = random.Random(f"walk-replay:{seed}")
        n = rng.randint(42, 63)
        act = translation_action(FinAbGroup((n,)))
        A = GroupSet.of(act.group, [(x,) for x in rng.sample(range(n), 3)])
        Y = frozenset(rng.sample(sorted(act.atoms), rng.randint(BRUTE_FORCE_LIMIT + 1, n // 2)))
        g = orbit_graph(act, A, Y, rng.choice([2, 3]))
        for j in range(1, g.height + 1):
            magnification.magnification_mincut(g, j)
        magnification.min_weight_cutset(g, 1)
    for seed in range(6):
        sources, neighbors, weights = _product_relation(seed, 21 + 4 * seed)
        assert len(sources) > BRUTE_FORCE_LIMIT
        min_ratio_mincut(sources, neighbors, weights)


def test_lex_min_walk_replays_the_reference_greedy_on_solver_runs(monkeypatch):
    """The same replay on the solvers' own extractions: fed the walk's
    answers, the reference greedy asks the same queries in the same order
    and returns the same witness."""
    runs = []
    _solver_runs(monkeypatch, _recording_walk(runs))
    assert len(runs) >= 20
    rejected = 0
    for n, log, dones, result in runs:
        answers, verdicts = iter(log), iter(dones)

        def feasible(chosen, barred):
            want_in, want_out, ok = next(answers)
            assert (chosen, barred) == (want_in, want_out)
            return ok

        assert lex_min_greedy(n, feasible, lambda _chosen: next(verdicts)) == result
        assert next(answers, None) is None and next(verdicts, None) is None
        rejected += sum(not ok for _in, _out, ok in log)
    assert rejected >= 50


def test_each_index_is_pinned_in_and_barred_at_most_once(monkeypatch):
    """Per extraction, each index is queried (pinned in) at most once and
    barred at most once, and no arc is added twice."""
    original = maxflow.lex_min_walk
    add_edge = FlowNetwork.add_edge
    added = [None]
    extractions = 0

    def counted_add_edge(net, u, v, cap):
        if added[0] is not None:
            assert (u, v) not in added[0]
            added[0].add((u, v))
        return add_edge(net, u, v, cap)

    def walk(n, query, bar, done):
        nonlocal extractions
        queried, barred = [], []
        added[0] = set()

        def counted_query(i):
            queried.append(i)
            return query(i)

        def counted_bar(i):
            barred.append(i)
            bar(i)

        try:
            return original(n, counted_query, counted_bar, done)
        finally:
            added[0] = None
            assert len(set(queried)) == len(queried)
            assert len(set(barred)) == len(barred) and set(barred) <= set(queried)
            extractions += 1

    monkeypatch.setattr(FlowNetwork, "add_edge", counted_add_edge)
    _solver_runs(monkeypatch, walk)
    assert extractions >= 20


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
    brute = min_ratio_bruteforce(sources, neighbors, weights)
    mincut = min_ratio_mincut(sources, neighbors, weights)
    assert brute.value == mincut.value
    assert brute.witness == mincut.witness
    trace = mincut.trace
    assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))


@given(relations)
def test_witness_reproduces_value(rel):
    sources, neighbors, weights = rel
    result = min_ratio_mincut(sources, neighbors, weights)
    value, witness = result.value, result.witness
    image = frozenset(u for s in witness for u in neighbors[s])
    mu_img = sum((weights[u] for u in image), Fraction(0))
    mu_set = sum((weights[s] for s in witness), Fraction(0))
    assert mu_img == value * mu_set
    assert witness


def test_zero_when_some_source_has_no_neighbors():
    # "b" has no neighbor, so the rounds run from the full-set ratio 1/2
    # down to 0
    neighbors = {"a": frozenset({"t"}), "b": frozenset()}
    weights = {"a": Fraction(1), "b": Fraction(1), "t": Fraction(1)}
    result = min_ratio_mincut(["a", "b"], neighbors, weights)
    assert result.value == 0
    assert result.witness == {"b"}
    value_only = min_ratio_mincut(["a", "b"], neighbors, weights, witness=False)
    assert (value_only.value, value_only.witness) == (0, None)
    assert value_only.trace == (Fraction(1, 2), 0)
    result = min_ratio_bruteforce(["a", "b"], neighbors, weights)
    assert result.value == 0
    assert result.witness == {"b"}


def test_iteration_bound_is_enforced():
    neighbors = {"a": frozenset({"t"})}
    weights = {"a": Fraction(1), "t": Fraction(2)}
    result = min_ratio_mincut(["a"], neighbors, weights)
    assert result.value == 2 and result.witness == {"a"}
    assert len(result.trace) <= 1 * 1 + 2


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


def _ratio_oracle(sources, neighbors, weights, min_share=0):
    """The definition: every nonempty subset that weighs at least
    ``min_share`` of the whole, minimized by (ratio, sorted ids) in Fractions."""
    ids = sorted(sources)
    need = Fraction(min_share) * sum(weights[s] for s in ids)
    best = None
    for size in range(1, len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            mass = sum(weights[s] for s in subset)
            if mass < need:
                continue
            image = set().union(*(neighbors[s] for s in subset))
            key = (sum((weights[u] for u in image), Fraction(0)) / mass, subset)
            if best is None or key < best:
                best = key
    return maxflow.MagnificationResult(best[0], frozenset(best[1]), ())


def test_bruteforce_matches_the_definition():
    """Seeded battery: equal weights (so ties are common), sources with no
    neighbours, every min_share below, and up to 12 sources."""
    rng = random.Random(20141)
    shares = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    equal_weighted = empty = 0
    for trial in range(360):
        n = rng.randint(10, 12) if trial % 30 == 0 else rng.randint(1, 7)
        targets = [f"t{k}" for k in range(rng.randint(0, 6))]
        density = rng.random()
        neighbors = {f"s{i}": frozenset(t for t in targets if rng.random() < density)
                     for i in range(n)}
        equal = trial % 2 == 0
        weights = {x: Fraction(1) if equal else Fraction(rng.randint(1, 4), rng.randint(1, 3))
                   for x in [*neighbors, *targets]}
        min_share = shares[trial % len(shares)]
        got = min_ratio_bruteforce(list(neighbors), neighbors, weights, min_share)
        assert got == _ratio_oracle(neighbors, neighbors, weights, min_share), trial
        equal_weighted += equal
        empty += not all(neighbors.values())
    assert equal_weighted >= 150 and empty >= 100


def test_bruteforce_memory_does_not_grow_with_the_subset_count():
    # tables indexed by subset would hold 2**16 entries each, 512 KiB of
    # pointers per table before the ints they point to; small images keep
    # the traced run short
    rng = random.Random(16)
    sources = [f"s{i:02d}" for i in range(16)]
    targets = [f"t{k:02d}" for k in range(16)]
    neighbors = {s: frozenset(rng.sample(targets, 2)) for s in sources}
    weights = {x: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for x in sources + targets}
    tracemalloc.start()
    try:
        min_ratio_bruteforce(sources, neighbors, weights)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_arc_list_network_matches_add_edge_calls():
    rng = random.Random(1989)
    for _ in range(300):
        n, arcs, _s, _t = _random_network(rng)
        laid_out = FlowNetwork(n, arcs)
        built = _build(n, arcs)
        assert (laid_out.head, laid_out.cap, laid_out.adj) == (built.head, built.cap, built.adj)
        extra = (rng.randrange(n), rng.randrange(n), rng.choice([0, 1, 10 ** 13]))
        assert laid_out.add_edge(*extra) == built.add_edge(*extra)
        assert (laid_out.head, laid_out.cap, laid_out.adj) == (built.head, built.cap, built.adj)


def _cold_min_ratio(sources, neighbors, weight):
    """The ratio solver before its rounds were nested: every round re-weighs
    the full source set from zero flow, and a rejected witness query is
    undone by restoring a copy of every capacity."""
    sources = sorted(sources)
    sw, dw, nbr = _integerize(sources, neighbors, weight)
    n, m = len(sw), len(dw)
    net = FlowNetwork(2 + n + m)
    for i in range(n):
        net.add_edge(0, 2 + i, 0)
    for i in range(n):
        for k in nbr[i]:
            net.add_edge(2 + i, 2 + n + k, 0)
    for k in range(m):
        net.add_edge(2 + n + k, 1, 0)
    first_target = len(net.head) - 2 * m

    def reweigh(num, den):
        inf = num * sum(sw) + den * sum(dw) + 1
        cap = [inf, 0] * (len(net.head) // 2)
        cap[:2 * n:2] = [num * w for w in sw]
        cap[first_target::2] = [den * w for w in dw]
        net.cap[:] = cap
        return inf

    def ratio(index_set):
        img = set().union(*(nbr[i] for i in index_set))
        return Fraction(sum(dw[k] for k in img), sum(sw[i] for i in index_set))

    lam = Fraction(sum(dw), sum(sw))
    trace = [lam]
    while True:
        inf = reweigh(lam.numerator, lam.denominator)
        if net.max_flow(0, 1) == lam.numerator * sum(sw):
            break
        reached = net.source_side(0)
        lam = ratio([i for i in range(n) if 2 + i in reached])
        trace.append(lam)
    base = net.cap[:]
    kept = [0, 0]

    def feasible(chosen, barred):
        for i in chosen[kept[0]:]:
            net.cap[2 * i] = inf
        for i in barred[kept[1]:]:
            net.add_edge(2 + i, 1, inf)
        if not net.max_flow(0, 1, probe=True):
            base[:] = net.cap
            kept[:] = len(chosen), len(barred)
            return True
        net.truncate(len(base))
        net.cap[:] = base
        return False

    chosen = lex_min_greedy(n, feasible, lambda s: bool(s) and ratio(s) == lam)
    return lam, frozenset(sources[i] for i in chosen), tuple(trace)


def _tied_relation(rng):
    """Up to 30 sources and 40 targets, every source with a neighbor; small
    integer weights make ties common, and some targets weigh 0."""
    n = rng.randint(1, 30) if rng.random() < 0.2 else rng.randint(1, 10)
    m = rng.randint(1, 40) if rng.random() < 0.2 else rng.randint(1, 12)
    targets = [f"t{k:02d}" for k in range(m)]
    density = rng.uniform(0.05, 0.6)
    neighbors = {}
    for i in range(n):
        picked = [t for t in targets if rng.random() < density]
        neighbors[f"s{i:02d}"] = frozenset(picked or [rng.choice(targets)])
    zero_share = rng.choice([0, 0, 0.2, 0.6])
    weight = {s: Fraction(rng.randint(1, 3), rng.choice([1, 1, 2])) for s in neighbors}
    weight.update({t: Fraction(0) if rng.random() < zero_share else Fraction(rng.randint(1, 3))
                   for t in targets})
    return sorted(neighbors), neighbors, weight


def test_nested_rounds_match_the_cold_start_solver(monkeypatch):
    """Value, witness, trace and max-flows per solve, on 3,000 seeded
    instances, against the solver that restarts every round from zero flow."""
    calls = []
    original = FlowNetwork.max_flow

    def counted(net, *args, **kwargs):
        calls.append((args, kwargs))
        return original(net, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    rng = random.Random(1989)
    rounds = zero_optimum = 0
    for trial in range(3000):
        rel = _tied_relation(rng)
        calls.clear()
        got = min_ratio_mincut(*rel)
        solved = calls[:]
        calls.clear()
        assert (got.value, got.witness, got.trace) == _cold_min_ratio(*rel), trial
        assert solved == calls, trial
        rounds += len(got.trace) > 2
        zero_optimum += got.value == 0
    assert rounds >= 300 and zero_optimum >= 100


def test_a_source_whose_neighbors_all_weigh_zero_comes_first():
    # "a" reaches only a target of weight 0, so {"a"} ties with {"b"} at 0
    # and precedes it; the full-set ratio is 0 already, so one round runs
    neighbors = {"a": frozenset({"t"}), "b": frozenset()}
    weights = {"a": Fraction(1), "b": Fraction(1), "t": Fraction(0)}
    brute = min_ratio_bruteforce(["a", "b"], neighbors, weights)
    assert (brute.value, brute.witness) == (0, {"a"})
    mincut = min_ratio_mincut(["a", "b"], neighbors, weights)
    assert (mincut.value, mincut.witness, mincut.trace) == (0, {"a"}, (0,))


_REFUSED = [
    # (source weights, target weight, min_share, message)
    ({"a": 0, "b": 0}, 1, 0, r"source weight of \(a\) must be positive \(got 0\)"),
    ({"a": 1, "b": -1}, 1, 0, r"source weight of \(b\) must be positive \(got -1\)"),
    ({"a": 1, "b": 1}, -1, 0, r"neighbor weight of \(t\) must be nonnegative \(got -1\)"),
    ({"a": 1, "b": 1}, 1, 2, r"min_share must lie in \[0, 1\] \(got 2\)"),
    ({"a": 1, "b": 1}, 1, Fraction(-1, 2), r"min_share must lie in \[0, 1\] \(got -1/2\)"),
]


@pytest.mark.parametrize("case", range(len(_REFUSED)))
def test_ratio_solvers_refuse_what_they_cannot_answer(case, monkeypatch):
    source_weight, target_weight, min_share, message = _REFUSED[case]
    neighbors = {"a": frozenset({"t"}), "b": frozenset({"t"})}
    weights = {**{s: Fraction(w) for s, w in source_weight.items()},
               "t": Fraction(target_weight)}

    def built(*_args):
        raise AssertionError("a table or network was built")

    monkeypatch.setattr(maxflow, "to_integers", built)
    monkeypatch.setattr(maxflow, "FlowNetwork", built)
    with pytest.raises(InputError, match=message):
        min_ratio_bruteforce(["a", "b"], neighbors, weights, min_share)
    if not min_share:
        with pytest.raises(InputError, match=message):
            min_ratio_mincut(["a", "b"], neighbors, weights)


def test_zero_weight_neighbors_stay_allowed():
    neighbors = {"a": frozenset({"t", "u"}), "b": frozenset({"u"})}
    weights = {"a": Fraction(1), "b": Fraction(2), "t": Fraction(0), "u": Fraction(3)}
    brute = min_ratio_bruteforce(["a", "b"], neighbors, weights)
    assert (brute.value, brute.witness) == (1, {"a", "b"})
    assert min_ratio_mincut(["a", "b"], neighbors, weights) == brute


def _zero_ratio_relation(rng, trial):
    """Sources some of which have no neighbor, targets some of which weigh 0,
    or no targets at all, in turn; up to BRUTE_FORCE_LIMIT sources."""
    kind = trial % 3
    n = BRUTE_FORCE_LIMIT if trial < 3 else rng.randint(1, 8)
    m = 0 if kind == 2 else rng.randint(1, 8)
    targets = [f"t{k}" for k in range(m)]
    density = rng.uniform(0.1, 0.7)
    neighbors = {f"s{i:02d}": frozenset(t for t in targets if rng.random() < density)
                 for i in range(n)}
    if kind == 0:
        neighbors[rng.choice(sorted(neighbors))] = frozenset()
    weight = {s: Fraction(rng.randint(1, 3), rng.choice([1, 2])) for s in neighbors}
    weight.update({t: Fraction(0) if kind == 1 and rng.random() < 0.5
                   else Fraction(rng.randint(1, 3)) for t in targets})
    return sorted(neighbors), neighbors, weight


def test_zero_ratio_problems_take_the_general_rounds():
    """Neighbourless sources, zero-weight neighbours and no targets at all:
    the min-cut rounds give the enumerator's value and witness, a value-only
    solve the same value, and a strictly decreasing trace."""
    rng = random.Random(1967)
    zero = multi_round = at_limit = 0
    for trial in range(450):
        rel = _zero_ratio_relation(rng, trial)
        brute = min_ratio_bruteforce(*rel)
        mincut = min_ratio_mincut(*rel)
        assert (mincut.value, mincut.witness) == (brute.value, brute.witness), trial
        value_only = min_ratio_mincut(*rel, witness=False)
        assert (value_only.value, value_only.witness) == (brute.value, None), trial
        trace = mincut.trace
        assert value_only.trace == trace
        assert trace[-1] == mincut.value
        assert all(later < earlier for earlier, later in zip(trace, trace[1:])), trial
        zero += mincut.value == 0
        multi_round += len(trace) > 1
        at_limit += len(rel[0]) == BRUTE_FORCE_LIMIT
    assert zero >= 250 and multi_round >= 100 and at_limit >= 3


def _largest_optimal_set_runs(monkeypatch):
    """Per min-cut solve past BRUTE_FORCE_LIMIT, on orbit graphs and product
    actions: the problem, the result, the last source_side call's source
    indices (None if no round cut) and the walk's (index, answer) queries."""
    sides, queries = [], []
    source_side, walk = FlowNetwork.source_side, maxflow.lex_min_walk

    def recorded_side(net, s):
        sides.append(source_side(net, s))
        return sides[-1]

    def recorded_walk(n, query, bar, done):
        def logged(i):
            queries.append((i, query(i)))
            return queries[-1][1]
        return walk(n, logged, bar, done)

    monkeypatch.setattr(FlowNetwork, "source_side", recorded_side)
    monkeypatch.setattr(maxflow, "lex_min_walk", recorded_walk)
    problems = []
    for seed in range(8):
        rng = random.Random(f"largest-set:{seed}")
        n = rng.randint(42, 63)
        act = translation_action(FinAbGroup((n,)))
        if seed % 2:
            A = GroupSet.of(act.group, [(x,) for x in rng.sample(range(n), 3)])
            Y = rng.sample(range(n), rng.randint(BRUTE_FORCE_LIMIT + 1, n // 2))
        else:
            # six translates of one cluster, so that an optimal set often
            # has optimal translates and the witness is a proper prefix
            A = GroupSet.of(act.group, [(x,) for x in rng.sample(range(3), 2)])
            cluster = rng.sample(range(5), 4)
            Y = [x + k * (n // 6) for k in range(6) for x in cluster]
        g = orbit_graph(act, A, frozenset(map(str, Y)), 2 + seed // 2 % 2)
        for j in range(1, g.height + 1):
            problems.append((*magnification._bottom_problem(g, j), g.atoms))
    problems += [_product_relation(seed, 21 + 4 * seed) for seed in range(6)]
    for sources, neighbors, weights in problems:
        sides.clear()
        queries.clear()
        result = min_ratio_mincut(sources, neighbors, weights)
        last = [i for i in range(len(sources)) if 2 + i in sides[-1]] if sides else None
        yield sources, neighbors, weights, result, last, queries[:]


def test_witness_is_the_shortest_optimal_prefix_of_the_last_live_set(monkeypatch):
    """The last round's live set S is the largest optimal set: the walk
    accepts exactly its sources, and the witness is the shortest prefix of
    sorted S whose ratio is the optimum."""
    cut = uncut = proper = rejected = 0
    for sources, neighbors, weights, result, last, queries in \
            _largest_optimal_set_runs(monkeypatch):
        assert len(sources) > BRUTE_FORCE_LIMIT
        live = range(len(sources)) if last is None else last
        assert all(ok == (i in live) for i, ok in queries)

        def ratio(subset):
            image = set().union(*(neighbors[s] for s in subset))
            return (sum((weights[u] for u in image), Fraction(0))
                    / sum(weights[s] for s in subset))

        prefix = next(k for k in range(1, len(live) + 1)
                      if ratio([sources[i] for i in live[:k]]) == result.value)
        assert result.witness == {sources[i] for i in live[:prefix]}
        assert ratio(sorted(sources[i] for i in live)) == result.value
        cut += last is not None
        uncut += last is None
        proper += prefix < len(live)
        rejected += sum(not ok for _i, ok in queries)
    assert cut >= 10 and uncut >= 1 and proper >= 5 and rejected >= 50
