import itertools
import random
import tracemalloc
from collections import Counter
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
    net = FlowNetwork(6, [(0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
                          (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4)])
    assert net.max_flow(0, 5) == 23


def test_source_side_is_min_cut():
    net = FlowNetwork(4, [(0, 1, 1), (1, 2, 5), (2, 3, 5)])
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
        net = FlowNetwork(n, arcs)
        assert net.max_flow(s, t) == value, (n, arcs, s, t)
        assert net.source_side(s) == common, (n, arcs, s, t)


def test_long_chain_needs_no_recursion():
    # a recursive path walk would go 4000 frames deep here
    n = 4000
    net = FlowNetwork(n, [(v, v + 1, 7 if v == 2500 else 9 + v % 5) for v in range(n - 1)])
    assert net.max_flow(0, n - 1) == 7
    assert net.source_side(0) == set(range(2501))


def test_warm_start_after_raising_arcs_matches_a_fresh_network():
    rng = random.Random(1970)
    for _ in range(300):
        n, arcs, s, t = _random_network(rng)
        net = FlowNetwork(n, arcs)
        first = net.max_flow(s, t)
        if not arcs:
            continue
        # raise 1-3 arcs, one of them carrying flow whenever some arc does;
        # arc k has index 2k
        carrying = [k for k in range(len(arcs)) if net.cap[2 * k + 1]]
        picks = rng.sample(range(len(arcs)), min(len(arcs), rng.randint(1, 3)))
        if carrying:
            picks[0] = rng.choice(carrying)
        raised = list(arcs)
        for k in set(picks):
            u, v, c = arcs[k]
            new = rng.choice([c + 1, c + 4, 10 ** 15])
            raised[k] = (u, v, new)
            net.cap[2 * k] += new - c
        fresh = FlowNetwork(n, raised)
        assert first + net.max_flow(s, t) == fresh.max_flow(s, t), (n, arcs, raised)
        assert net.source_side(s) == fresh.source_side(s), (n, arcs, raised)


def test_probe_answers_whether_more_flow_exists():
    """A warm-started query with raised pins, probed, against the same query
    run to the maximum; the probe changes nothing."""
    rng = random.Random(1956)
    feasible = infeasible = stopped = 0
    for _ in range(400):
        n, arcs, s, t = _random_network(rng)
        net = FlowNetwork(n, arcs)
        net.max_flow(s, t)
        base = net.cap[:]
        pins = rng.sample(range(0, 2 * len(arcs), 2), min(len(arcs), rng.randint(0, 3)))
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
    """Random networks in the states a witness walk leaves, with the walk's
    closures opened by hand: at a maximum flow, with pins raised, some of
    them undone after a probe that found a path, and with bars raised (1-3
    arcs built in at capacity 0), each raise through ``_raise`` as the walk
    makes it.  Then, with the closures dropped as a walk's end drops them,
    every arc is written back to what it held at the maximum flow."""
    rng = random.Random(2026)
    answers = []
    for _ in range(400):
        n, arcs, s, t = _random_network(rng)
        bars = [(rng.randrange(n), rng.choice([t, rng.randrange(n)]), 0)
                for _bar in range(rng.randint(1, 3))]
        net = FlowNetwork(n, arcs + bars)
        net.max_flow(s, t)
        net._walk = net._closures(s, t)
        answers.append(_checked_probe(net, s, t))
        mark, at_max = 2 * len(arcs), net.cap[:]
        for arc in rng.sample(range(0, mark, 2), min(mark // 2, rng.randint(1, 3))):
            old = net.cap[arc]
            net._raise(arc, old + rng.choice([1, 4, 10 ** 15]))  # a pin
            answers.append(_checked_probe(net, s, t))
            if answers[-1] and rng.random() < 0.5:
                net.cap[arc] = old  # the pin undone
                answers.append(_checked_probe(net, s, t))
        for bar in range(mark, len(net.head), 2):
            net._raise(bar, rng.choice([0, 1, 10 ** 15]))
            answers.append(_checked_probe(net, s, t))
        net._walk = None
        net.cap[:] = at_max
        answers.append(_checked_probe(net, s, t))
    assert answers.count(0) >= 300 and answers.count(1) >= 300


def _check_every_probe(monkeypatch):
    """Check every probe against ``_bfs_reaches`` from now on; returns the
    list the answers go to."""
    answers = []
    original = FlowNetwork.max_flow

    def checked(net, s, t, probe=False):
        if probe:
            answers.append(_checked_probe(net, s, t, original))
            return answers[-1]
        return original(net, s, t, probe)

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    return answers


@pytest.mark.parametrize("n", [8, 11, 16, 32, 48, 64])
def test_probe_matches_a_breadth_first_search_on_orbit_graphs(n, monkeypatch):
    """Every probe of the ratio and cutset walks on Z/n orbit graphs, h = 3.
    At n = 64 layer 0 has 22 vertices, past BRUTE_FORCE_LIMIT."""
    act = translation_action(FinAbGroup((n,)))
    g = orbit_graph(act, GroupSet.of(act.group, [(0,), (1,), (3,)]),
                    {str(y) for y in range(0, n, 3)}, 3)
    answers = _check_every_probe(monkeypatch)
    for j in (1, 2, 3):
        magnification.magnification_mincut(g, j)
    for C in (1, 2):
        magnification.min_weight_cutset(g, C)
    assert answers.count(0) >= 20 and answers.count(1) >= 30


@pytest.mark.parametrize("size", [12, 24, 40])
def test_probe_matches_a_breadth_first_search_on_product_actions(size, monkeypatch):
    """Every probe of the ratio walk of c(A x A2, B x B2) on products of two
    cyclic actions (the thm-4.2 min-cut route), |B x B2| = ``size``."""
    answers = _check_every_probe(monkeypatch)
    for seed in range(4):
        min_ratio_mincut(*_product_relation(seed, size))
    assert answers.count(0) >= 30 and answers.count(1) >= 5


def _committed(net, s, t):
    """Probe once, expecting no path; in a walk, the probe commits its
    closures."""
    assert net.max_flow(s, t, probe=True) == 0


@pytest.mark.parametrize("before", ["a probe", "a walk that returns", "a walk that raises",
                                    "an empty walk and a probe"])
@pytest.mark.parametrize("side", ["source", "sink"])
def test_a_direct_write_to_cap_is_seen_by_the_next_probe(side, before):
    """Node 2 is reached from s 0 but reaches no t 1, or reaches t but is
    not reached.  After a probe or a walk, writing the missing arc straight
    into ``cap`` as arc 2 opens a path, and the next probe must find it:
    closures kept past their probe or their walk would answer 0.  Each walk
    pins arc 0, and its probe commits; the empty walk is done at once."""
    net = FlowNetwork(3, [(0, 2, 1), (2, 1, 0)] if side == "source" else [(2, 1, 1), (0, 2, 0)])
    if before == "a walk that returns":
        assert lex_min_walk(net, [(0,)], [2], 5, lambda chosen: bool(chosen)) == [0]
    elif before == "a walk that raises":
        with pytest.raises(RuntimeError, match="no feasible extension"):
            lex_min_walk(net, [(0,)], [2], 5, lambda _chosen: False)
    elif before == "an empty walk and a probe":
        assert lex_min_walk(net, [(0,)], [2], 5, lambda _chosen: True) == []
    if "probe" in before:
        _committed(net, 0, 1)
    net.cap[2] = 1
    assert _bfs_reaches(net, 0, 1) == 1
    assert net.max_flow(0, 1, probe=True) == 1


def test_a_probe_between_other_nodes_searches_afresh():
    """In a walk whose probe has committed closures for s = 0 and t = 1, a
    probe from 2 to 1 or from 0 to 3 searches afresh: the walk's closures
    would answer 0 to both.  The walk pins arc 3 -> 0 and would bar 1 -> 2."""
    net = FlowNetwork(4, [(0, 3, 1), (2, 1, 1), (3, 0, 0), (1, 2, 0)])
    answers = []

    def done(chosen):
        if chosen:
            answers.extend([net.max_flow(2, 1, probe=True), net.max_flow(0, 3, probe=True)])
        return bool(chosen)

    assert lex_min_walk(net, [(4,)], [6], 5, done) == [0]
    assert answers == [1, 1]


def test_a_committing_probe_of_a_walk_keeps_its_sides_and_no_notes():
    """Index 0 is rejected, since pinning s -> 2 opens 2 -> t; its bar
    2 -> t is then raised and noted, so the commit of index 1's probe puts
    node 2 on the sink side, with nothing that does not reach it, and
    leaves no arc noted.  ``done`` reads the walk's closures after it."""
    net = FlowNetwork(4, [(0, 2, 0), (2, 1, 1), (2, 1, 0), (0, 3, 0), (3, 1, 0)])
    seen = []

    def done(chosen):
        if chosen:
            seen.append(net._walk[2:])
        return bool(chosen)

    assert lex_min_walk(net, [(0,), (6,)], [4, 8], 5, done) == [1]
    assert seen == [([True, False, False, True], [False, True, True, False], [], [])]


def test_the_sink_side_grows_only_over_arcs_with_capacity():
    """An arc into t noted with capacity 0 at a commit (a pin raised and
    undone) does not put its tail on the sink side: raising arc 0 -> 2
    later closes no path."""
    net = FlowNetwork(3, [(2, 1, 0), (0, 2, 0)])
    net._walk = net._closures(0, 1)
    net._raise(0, 4)
    net.cap[0] = 0
    _committed(net, 0, 1)
    net._raise(2, 1)
    assert _bfs_reaches(net, 0, 1) == 0
    assert net.max_flow(0, 1, probe=True) == 0


def test_the_sink_side_grows_only_against_residual_arcs():
    """Node 2 joins the sink side when arc 2 -> t is raised; node 3, which
    2 reaches but which reaches nothing, must not join it, so raising
    arc 0 -> 3 later closes no path."""
    net = FlowNetwork(4, [(2, 1, 0), (2, 3, 1), (0, 3, 0)])
    net._walk = net._closures(0, 1)
    _committed(net, 0, 1)
    net._raise(0, 1)
    _committed(net, 0, 1)
    net._raise(4, 1)
    assert _bfs_reaches(net, 0, 1) == 0
    assert net.max_flow(0, 1, probe=True) == 0


def test_the_probes_of_a_walk_scan_each_arc_about_once(monkeypatch):
    """The probes of one witness walk keep their residual closures, so
    together they scan at most twice as many arcs as the network has.  The
    walks: both of the Z/128 anchor graph (a fresh search from the source
    per probe scanned 38 and 14 times as many), and four ratio walks of
    product actions with |B x B2| = 40, where rejected pins are undone."""
    act = translation_action(FinAbGroup((128,)))
    g = orbit_graph(act, GroupSet.of(act.group, [(0,), (1,), (3,)]),
                    frozenset(str(x) for x in range(0, 128, 3)), 3)
    scanned = [0]

    class Counted(list):
        def __iter__(self):
            scanned[0] += len(self)
            return super().__iter__()

    original = FlowNetwork.max_flow
    walk = {}

    def counted(net, s, t, probe=False):
        if not probe:
            net.adj = [Counted(arcs) for arcs in net.adj]
            return original(net, s, t)
        before = scanned[0]
        got = original(net, s, t, probe)
        walk["scanned"] = walk.get("scanned", 0) + scanned[0] - before
        walk["arcs"] = len(net.head)
        return got

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    walks = [lambda: magnification.magnification_mincut(g, 3),
             lambda: magnification.min_weight_cutset(g, 1),
             *(lambda seed=seed: min_ratio_mincut(*_product_relation(seed, 40))
               for seed in range(4))]
    for solve in walks:
        walk.clear()
        solve()
        assert 0 < walk["scanned"] <= 2 * walk["arcs"]


@pytest.mark.parametrize("probe", [False, True])
def test_a_flow_from_a_node_to_itself_is_refused(probe):
    # a probe answered 1 here, and a full max flow failed inside min()
    net = FlowNetwork(3, [(0, 1, 2), (1, 0, 2), (1, 2, 1)])
    with pytest.raises(ValueError, match="same node"):
        net.max_flow(1, 1, probe=probe)


def _pinned_warm_start(rng):
    """A random network at its maximum flow, with 0-3 arcs then raised as
    pins are: returns the network, s, t and each arc's capacity."""
    n, arcs, s, t = _random_network(rng)
    net = FlowNetwork(n, arcs)
    net.max_flow(s, t)
    capacity = []
    for _u, _v, c in arcs:
        capacity += (c, 0)
    for arc in rng.sample(range(0, 2 * len(arcs), 2), min(len(arcs), rng.randint(0, 3))):
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


def test_zero_capacity_arcs_leave_the_network_that_never_had_them():
    """Arcs built in at capacity 0, as a walk's pin and bar arcs are, change
    no flow: at its maximum flow the network holds on every other arc what
    the network without them holds, with the same minimal min cut.  Raised,
    flowed through and given back their saved capacities, they leave a
    maximum flow again."""
    rng = random.Random(1974)
    for _ in range(300):
        n, arcs, s, t = _random_network(rng)
        extra = []
        for _extra in range(rng.randint(1, 4)):
            u, v = rng.choice([rng.sample(range(n), 2), [s, t], [s, s]])
            extra.append((u, v, 0))
        net, fresh = FlowNetwork(n, arcs + extra), FlowNetwork(n, arcs)
        assert net.max_flow(s, t) == fresh.max_flow(s, t)
        mark, saved = 2 * len(arcs), net.cap[:]
        assert (net.head[:mark], saved[:mark]) == (fresh.head, fresh.cap)
        assert saved[mark:] == [0] * (2 * len(extra))
        assert net.source_side(s) == fresh.source_side(s)
        for a in range(mark, len(net.head), 2):
            net.cap[a] = rng.choice([0, 1, 7, 10 ** 15])
        net.max_flow(s, t)
        net.cap[:] = saved
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


class _LoggedCap(list):
    """A capacity list that hands each write to ``write(arc, old, new)``."""

    def __init__(self, caps, write):
        super().__init__(caps)
        self.write = write

    def __setitem__(self, a, c):
        old = self[a]
        super().__setitem__(a, c)
        self.write(a, old, c)


class _WalkLog:
    """What ``lex_min_walk`` does to ``net``, logged.

    Gives ``net`` a ``_LoggedCap`` and wraps its probe.  ``sets`` gets each
    write to ``cap`` as (arc, old, new), and ``log`` each probe's (chosen,
    barred, accepted): the indices whose every pin arc, and those whose bar
    arc, was last set to ``inf``, each list in the order the indices were
    raised.  With ``accept``, a probe answers ``accept(chosen, barred)``,
    True for no more flow, instead of searching.
    """

    def __init__(self, net, pins, bars, inf, accept=None):
        self.accept, self.pins, self.inf = accept, pins, inf
        self.bar_of = {a: i for i, a in enumerate(bars)}
        self.at_inf = {}  # the arcs set to inf, in the order they were set
        self.log, self.sets = [], []
        net.cap = _LoggedCap(net.cap, self.write)
        self.probe, net.max_flow = net.max_flow, self.max_flow

    def write(self, a, old, c):
        self.sets.append((a, old, c))
        self.at_inf.pop(a, None)
        if c == self.inf:
            self.at_inf[a] = None

    def max_flow(self, s, t, probe=False):
        assert (s, t, probe) == (0, 1, True)
        order = {a: k for k, a in enumerate(self.at_inf)}
        chosen = sorted((max(order[a] for a in pin), i) for i, pin in enumerate(self.pins)
                        if all(a in order for a in pin))
        barred = sorted((order[a], i) for a, i in self.bar_of.items() if a in order)
        chosen, barred = [i for _k, i in chosen], [i for _k, i in barred]
        got = self.probe(s, t, probe) if self.accept is None \
            else 0 if self.accept(chosen, barred) else 1
        self.log.append((chosen, barred, not got))
        return got


_INF = 10 ** 6


def _stand_in(n, accept):
    """A network for an n-index walk whose probes answer ``accept``: index
    i's pin arcs are 2i and 2(n + i), its bar arc 2(2n + i), and every arc
    starts below ``_INF``.  Returns it, its ``_WalkLog``, the pins and the
    bars."""
    pins = [(2 * i, 2 * (n + i)) for i in range(n)]
    bars = [2 * (2 * n + i) for i in range(n)]
    net = FlowNetwork(2, [(0, 1, 0)] * (3 * n))
    net.cap = [a % 7 for a in range(6 * n)]
    return net, _WalkLog(net, pins, bars, _INF, accept), pins, bars


def test_lex_min_walk_queries_only_add_constraints():
    """Each query pins its own index on top of the last accepted query's
    pins and bars.  A rejected one gives its pin arcs back what they held
    and raises its bar arc; nothing else changes, so every write to ``cap``
    raises an arc to ``inf`` or undoes a pin, and the walk ends with the
    accepted indices pinned, the rejected ones barred and every other arc
    as it started."""
    rng = random.Random(1967)
    for _ in range(200):
        n = rng.randint(1, 9)
        accepted, rejected = [], []

        def accept(chosen, barred):
            # the query's chosen set is the last accepted one plus i, its
            # barred set the last one's, and the two stay disjoint
            i = chosen[-1]
            assert i not in accepted and i not in rejected
            assert (chosen, barred) == (accepted + [i], rejected)
            ok = rng.random() < 0.5 or i == n - 1
            (accepted if ok else rejected).append(i)
            return ok

        def done(got):
            assert got == accepted
            return bool(got) and (len(got) >= target or got[-1] == n - 1)

        target = rng.randint(1, n)
        net, logged, pins, bars = _stand_in(n, accept)
        start = net.cap[:]
        witness = lex_min_walk(net, pins, bars, _INF, done)
        assert logged.log and witness == accepted
        undone = {a for i in rejected for a in pins[i]}
        assert all(new == _INF or (a in undone and new == start[a])
                   for a, _old, new in logged.sets)
        held = {a for i in accepted for a in pins[i]} | {bars[i] for i in rejected}
        assert net.cap == [_INF if a in held else c for a, c in enumerate(start)]


def _walk_outcome(walk):
    try:
        return walk()
    except RuntimeError:
        return "exhausted"


def test_lex_min_walk_replays_the_reference_greedy_on_answer_sequences():
    """Each probe's (chosen, barred) lists, in order, equal the reference
    greedy's queries, on 200 seeded answer sequences; so do the witness
    and the end of the walk."""
    rng = random.Random(2011)
    exhausted = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        answers = [rng.random() < 0.4 for _ in range(n + 1)]
        target = rng.randint(0, n)

        def done(chosen):
            return len(chosen) >= target

        net, logged, pins, bars = _stand_in(n, lambda _chosen, _barred: answers[len(logged.log)])
        got = _walk_outcome(lambda: lex_min_walk(net, pins, bars, _INF, done))
        greedy_log = []

        def feasible(chosen, barred):
            greedy_log.append((chosen, barred))
            return answers[len(greedy_log) - 1]

        want = _walk_outcome(lambda: lex_min_greedy(n, feasible, done))
        assert ([(chosen, barred) for chosen, barred, _ok in logged.log], got) == (greedy_log, want)
        exhausted += want == "exhausted"
    assert 20 <= exhausted <= 180


def _recording_walk(runs):
    """``lex_min_walk`` on the solver's network through a ``_WalkLog``,
    logging the index count, the probes, each ``done`` verdict and the
    result into ``runs``."""
    original = maxflow.lex_min_walk

    def walk(net, pins, bars, inf, done):
        logged, dones = _WalkLog(net, pins, bars, inf), []

        def logged_done(got):
            dones.append(done(got))
            return dones[-1]

        result = original(net, pins, bars, inf, logged_done)
        runs.append((len(pins), logged.log, dones, result))
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
    """Per extraction, each index is queried (pinned in) at most once; its
    pin arcs are set once, or twice when the query is rejected and undone,
    and its bar arc once, exactly when it is rejected.  The network keeps
    its arcs: ``len(net.head)`` and every ``len(net.adj[v])`` stay as built
    at every probe and after the walk."""
    original = maxflow.lex_min_walk
    extractions = 0

    def walk(net, pins, bars, inf, done):
        nonlocal extractions
        shape = (len(net.head), [len(arcs) for arcs in net.adj])
        logged = _WalkLog(net, pins, bars, inf)
        logged_probe = net.max_flow

        def checked_probe(s, t, probe=False):
            assert (len(net.head), [len(arcs) for arcs in net.adj]) == shape
            return logged_probe(s, t, probe)

        net.max_flow = checked_probe
        try:
            return original(net, pins, bars, inf, done)
        finally:
            assert (len(net.head), [len(arcs) for arcs in net.adj]) == shape
            queried = [chosen[-1] for chosen, _barred, _ok in logged.log]
            rejected = {chosen[-1] for chosen, _barred, ok in logged.log if not ok}
            assert len(set(queried)) == len(queried)
            touched = Counter(a for a, _old, _new in logged.sets)
            for i, pin in enumerate(pins):
                want = 2 if i in rejected else 1 if i in queried else 0
                assert [touched[a] for a in pin] == [want] * len(pin)
                assert touched[bars[i]] == (i in rejected)
            extractions += 1

    _solver_runs(monkeypatch, walk)
    assert extractions >= 20


def test_walks_pin_and_bar_the_arcs_of_their_index(monkeypatch):
    """The arcs each solver hands its walk: a source is pinned by its arc
    s -> i and barred by its arc i -> t; a vertex v is pinned by its arcs
    s -> v_in and v_out -> t and barred by its split arc v_in -> v_out."""
    original = maxflow.lex_min_walk
    walks = {1: 0, 2: 0}

    def walk(net, pins, bars, inf, done):
        ends = [(net.head[a ^ 1], net.head[a]) for a in range(0, len(net.head), 2)]
        for i, pin in enumerate(pins):
            if len(pin) == 1:  # the ratio network: source i is node 2 + i
                assert ends[pin[0] // 2] == (0, 2 + i)
                assert ends[bars[i] // 2] == (2 + i, 1)
            else:  # the cutset network: vertex i is nodes 2 + 2i -> 3 + 2i
                assert [ends[a // 2] for a in pin] == [(0, 2 + 2 * i), (3 + 2 * i, 1)]
                assert ends[bars[i] // 2] == (2 + 2 * i, 3 + 2 * i)
            assert all(a % 2 == 0 for a in (*pin, bars[i]))
        walks[len(pins[0]) if pins else 1] += 1
        return original(net, pins, bars, inf, done)

    _solver_runs(monkeypatch, walk)
    assert walks[1] >= 10 and walks[2] >= 6


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


def test_arc_list_network_lays_arc_k_out_at_index_2k():
    """Arc k of the list runs forward as arc 2k and back as arc 2k + 1, and
    each node lists the arcs leaving it in increasing index order."""
    rng = random.Random(1989)
    for _ in range(300):
        n, arcs, _s, _t = _random_network(rng)
        net = FlowNetwork(n, arcs)
        tails = [end for u, v, _c in arcs for end in (u, v)]
        assert net.head == [end for u, v, _c in arcs for end in (v, u)]
        assert net.cap == [c for _u, _v, cap in arcs for c in (cap, 0)]
        assert net.adj == [[a for a, u in enumerate(tails) if u == w] for w in range(n)]


def _cold_min_ratio(sources, neighbors, weight):
    """The ratio solver before its rounds were nested: every round re-weighs
    the full source set from zero flow, and a rejected witness query is
    undone by installing a copy of every capacity as a new list.  Its
    network lists the source arcs, the middle arcs, the target arcs and
    then one bar arc per source, built at capacity 0."""
    sources = sorted(sources)
    sw, dw, nbr = _integerize(sources, neighbors, weight)
    n, m = len(sw), len(dw)
    net = FlowNetwork(2 + n + m, [*((0, 2 + i, 0) for i in range(n)),
                                  *((2 + i, 2 + n + k, 0) for i in range(n) for k in nbr[i]),
                                  *((2 + n + k, 1, 0) for k in range(m)),
                                  *((2 + i, 1, 0) for i in range(n))])
    first_target = len(net.head) - 2 * m - 2 * n
    first_bar = len(net.head) - 2 * n

    def reweigh(num, den):
        inf = num * sum(sw) + den * sum(dw) + 1
        cap = [inf, 0] * (len(net.head) // 2)
        cap[:2 * n:2] = [num * w for w in sw]
        cap[first_target:first_bar:2] = [den * w for w in dw]
        cap[first_bar::2] = [0] * n
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
            net.cap[first_bar + 2 * i] = inf
        if not net.max_flow(0, 1, probe=True):
            base[:] = net.cap
            kept[:] = len(chosen), len(barred)
            return True
        net.cap = base[:]
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

    def recorded_walk(net, pins, bars, inf, done):
        logged = _WalkLog(net, pins, bars, inf)
        try:
            return walk(net, pins, bars, inf, done)
        finally:
            queries.extend((chosen[-1], ok) for chosen, _barred, ok in logged.log)

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
