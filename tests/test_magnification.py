import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from plunnecke_lab import (HypothesisError, InputError, cut_weight, cutset_push,
                           is_cutset, iterated_image, magnification_bruteforce,
                           magnification_mincut, min_weight_cutset, push_penalty,
                           truncate, verify_bottom_layer_minimal,
                           verify_graph_plunnecke)
from plunnecke_lab.dynamics import FinAbGroup, GroupSet, orbit_graph, translation_action
from plunnecke_lab.generators import (admissible_cut_rate,
                                      perfect_power_orbit_graph,
                                      random_layered_graph, random_orbit_graph)
from plunnecke_lab import generators, magnification, maxflow
from plunnecke_lab.magnification import _bottom_problem
from plunnecke_lab.maxflow import FlowNetwork, _integerize, min_ratio_mincut

from conftest import build, lex_min_greedy

small_graphs = st.integers(0, 10 ** 9).map(
    lambda s: random_layered_graph(random.Random(s), max_layer0=6, max_width=5))
orbit_graphs = st.integers(0, 10 ** 9).map(
    lambda s: random_orbit_graph(random.Random(s), max_n=8, max_a=3, max_h=3))


class TestMagnification:
    def test_o1_pinned_values(self, o1):
        for j, expected in ((1, 2), (2, 3)):
            assert magnification_bruteforce(o1, j).value == expected
            assert magnification_mincut(o1, j).value == expected

    def test_o2_pinned_values(self, o2):
        for j, expected in ((1, 2), (2, 2)):
            assert magnification_bruteforce(o2, j).value == expected
            assert magnification_mincut(o2, j).value == expected

    def test_dead_end_vertex_gives_zero(self):
        g = build([("v0", 0, 1), ("u0", 0, 1), ("v1", 1, 1)], [("v0", "v1", "a")])
        for method in (magnification_bruteforce, magnification_mincut):
            result = method(g, 1)
            assert result.value == 0
            assert result.witness == {"u0"}

    def test_brute_force_limit_refusal(self):
        vertices = [(f"b{i:02d}", 0, 1) for i in range(21)] + [("t", 1, 1)]
        edges = [(f"b{i:02d}", "t", "a") for i in range(1)]
        g = build(vertices, edges, height=1)
        with pytest.raises(InputError, match="mincut"):
            magnification_bruteforce(g, 1)
        assert magnification_mincut(g, 1).value == 0

    def test_brute_force_takes_exactly_the_limit(self):
        # a ring: each bottom vertex reaches its own top vertex and the next
        # one's, so only the whole bottom layer has as large an image as itself
        n = maxflow.BRUTE_FORCE_LIMIT
        vertices = [(f"b{i:02d}", 0, 1) for i in range(n)] + \
            [(f"t{i:02d}", 1, 1) for i in range(n)]
        edges = [(f"b{i:02d}", f"t{i:02d}", "a") for i in range(n)] + \
            [(f"b{i:02d}", f"t{(i + 1) % n:02d}", "b") for i in range(n)]
        g = build(vertices, edges, height=1)
        brute = magnification_bruteforce(g, 1)
        assert brute.value == 1 and len(brute.witness) == n
        mincut = magnification_mincut(g, 1)
        assert (mincut.value, mincut.witness) == (brute.value, brute.witness)

    def test_out_of_range_order(self, o1):
        for j in (0, 3):
            with pytest.raises(InputError):
                magnification_bruteforce(o1, j)

    @pytest.mark.parametrize("solve", [magnification_bruteforce, magnification_mincut,
                                       magnification.mincut_value])
    @pytest.mark.parametrize("j", [True, 1.0, "1", None])
    def test_order_must_be_an_int(self, o1, solve, j):
        # True was read as order 1
        with pytest.raises(InputError, match="order must be an integer"):
            solve(o1, j)

    @given(small_graphs, st.data())
    def test_oracle_agreement(self, g, data):
        j = data.draw(st.integers(1, g.height))
        brute = magnification_bruteforce(g, j)
        mincut = magnification_mincut(g, j)
        assert brute.value == mincut.value
        assert brute.witness == mincut.witness

    @given(small_graphs, st.data())
    def test_witness_soundness(self, g, data):
        j = data.draw(st.integers(1, g.height))
        result = magnification_mincut(g, j)
        assert result.witness
        img = iterated_image(g, result.witness, j)
        assert g.weight(img) == result.value * g.weight(result.witness)

    @given(small_graphs, st.data())
    def test_ratio_iteration_stays_in_bounds(self, g, data):
        j = data.draw(st.integers(1, g.height))
        bottom = sorted(g.layer_set(0))
        neighbors = {v: iterated_image(g, frozenset([v]), j) for v in bottom}
        trace = min_ratio_mincut(bottom, neighbors, g.atoms).trace
        assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))
        layer_j = {u for vs in neighbors.values() for u in vs}
        assert len(trace) <= max(1, len(bottom) * max(1, len(layer_j))) + 2


class TestCutWeight:
    def test_layer_zero_ignores_rate(self, o1):
        bottom = o1.layer_set(0)
        for rate in (1, 2, Fraction(7, 3)):
            assert cut_weight(o1, bottom, rate) == o1.weight(bottom)

    def test_o1_full_layers(self, o1_full):
        assert cut_weight(o1_full, o1_full.layer_set(1), 2) == Fraction(1, 2)
        assert cut_weight(o1_full, o1_full.layer_set(2), 2) == Fraction(1, 4)

    def test_rate_one_is_plain_measure(self, o1):
        S = set(o1.atoms)
        assert cut_weight(o1, S, 1) == o1.total_weight()

    def test_nonpositive_rate(self, o1):
        with pytest.raises(InputError):
            cut_weight(o1, o1.layer_set(0), 0)


class TestIsCutset:
    def test_path(self, path3):
        assert is_cutset(path3, {"v1"})
        assert not is_cutset(path3, set())
        assert is_cutset(path3, {"v0"})
        assert is_cutset(path3, {"v2"})

    def test_o1_layers(self, o1):
        assert is_cutset(o1, o1.layer_set(1))
        one_of_two = {sorted(o1.layer_set(1))[0]}
        assert not is_cutset(o1, one_of_two)


def _min_cutset_oracle(g, rate):
    """Enumerate all vertex subsets; minimum weight, then lexicographic order."""
    ids = sorted(g.atoms)
    best = None
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            S = frozenset(combo)
            if not is_cutset(g, S):
                continue
            w = cut_weight(g, S, rate)
            key = (w, tuple(sorted(S)))
            if best is None or key < best:
                best = key
    return best


class TestMinWeightCutset:
    def test_unit_path_rate_one(self, path3):
        report = min_weight_cutset(path3, 1)
        assert report.weight == 1
        assert report.cutset == {"v0"}
        assert report.is_minimal

    def test_o1_full_rate_two(self, o1_full):
        report = min_weight_cutset(o1_full, 2)
        assert report.weight == Fraction(1, 4)
        assert report.cutset == o1_full.layer_set(0)

    def test_o1_rate_one(self, o1):
        report = min_weight_cutset(o1, 1)
        assert report.weight == Fraction(1, 4)
        assert report.cutset == o1.layer_set(0)

    def test_no_paths_gives_empty_cutset(self):
        g = build([("v0", 0, 1), ("v1", 1, 1)], [], height=2, labels=["a"])
        report = min_weight_cutset(g, 1)
        assert report.cutset == frozenset()
        assert report.weight == 0

    def test_no_path_to_a_nonempty_top_gives_empty_cutset(self):
        g = build([("v0", 0, 1), ("v1", 1, 1), ("w1", 1, 2), ("w2", 2, 2)],
                  [("v0", "v1", "a"), ("w1", "w2", "a")], height=2)
        report = min_weight_cutset(g, 2)
        assert report.cutset == frozenset()
        assert report.weight == 0
        assert is_cutset(g, report.cutset)

    @given(st.integers(0, 10 ** 9), st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]))
    @settings(max_examples=25)
    def test_matches_subset_enumeration(self, seed, rate):
        g = random_layered_graph(random.Random(seed), max_layer0=4, max_width=4,
                                 max_height=2)
        if len(g.atoms) > 11:
            return
        report = min_weight_cutset(g, rate)
        expected_weight, expected_set = _min_cutset_oracle(g, rate)
        assert report.weight == expected_weight
        assert tuple(sorted(report.cutset)) == expected_set
        assert is_cutset(g, report.cutset)


def _cold_cutset(g, rate):
    """Greedy cutset extraction from zero flow: a fresh split-vertex network
    per query, each chosen vertex's split arc pinned to 0."""
    ids = sorted(g.atoms)
    index = {v: i for i, v in enumerate(ids)}
    wc = [rate ** -g.layer[v] * g.atoms[v] for v in ids]
    scale = lcm(*{w.denominator for w in wc})
    wci = [int(w * scale) for w in wc]
    inf = 1 + sum(wci)
    edges = sorted({(index[t], index[h]) for t, h, _ in g.edges})

    def flow(chosen=(), barred=()):
        return FlowNetwork(2 + 2 * len(ids), [
            *((2 + 2 * i, 3 + 2 * i, 0 if i in chosen else inf if i in barred else w)
              for i, w in enumerate(wci)),
            *((3 + 2 * t, 2 + 2 * h, inf) for t, h in edges),
            *((0, 2 + 2 * index[v], inf) for v in g.layer_set(0)),
            *((3 + 2 * index[v], 1, inf) for v in g.layer_set(g.height))]).max_flow(0, 1)

    minimum = flow()

    def feasible(chosen, barred):
        return flow(set(chosen), set(barred)) + sum(wci[i] for i in chosen) == minimum

    def done(chosen):
        return (sum(wci[i] for i in chosen) == minimum
                and is_cutset(g, [ids[i] for i in chosen]))

    return Fraction(minimum, scale), frozenset(ids[i] for i in lex_min_greedy(len(ids), feasible, done))


def _cold_magnification(g, j):
    """Dinkelbach ratio and greedy witness from zero flow: a fresh network
    per round and per query, forced sources pinned through infinite arcs."""
    bottom = sorted(g.layer_set(0))
    relation = {v: iterated_image(g, frozenset([v]), j) for v in bottom}
    sw, dw, nbr = _integerize(bottom, relation, g.atoms)
    n, m = len(sw), len(dw)

    def network(lam, forced_in=(), forced_out=()):
        num, den = lam.numerator, lam.denominator
        inf = num * sum(sw) + den * sum(dw) + 1
        arcs = []
        for i in range(n):
            arcs.append((0, 2 + i, inf if i in forced_in else num * sw[i]))
            if i in forced_out:
                arcs.append((2 + i, 1, inf))
            arcs += [(2 + i, 2 + n + k, inf) for k in nbr[i]]
        arcs += [(2 + n + k, 1, den * dw[k]) for k in range(m)]
        net = FlowNetwork(2 + n + m, arcs)
        return net, net.max_flow(0, 1) == num * sum(sw)

    lam = Fraction(sum(dw), sum(sw))
    while True:
        net, optimal = network(lam)
        if optimal:
            break
        side = [i for i in range(n) if 2 + i in net.source_side(0)]
        image = set().union(*(nbr[i] for i in side))
        lam = Fraction(sum(dw[k] for k in image), sum(sw[i] for i in side))

    def done(chosen):
        image = set().union(*(nbr[i] for i in chosen))
        return bool(chosen) and sum(dw[k] for k in image) == lam * sum(sw[i] for i in chosen)

    chosen = lex_min_greedy(
        n, lambda inn, out: network(lam, set(inn), set(out))[1], done)
    return lam, frozenset(bottom[i] for i in chosen)


class TestWarmStartedQueries:
    """The warm-started greedy queries against the cold-start extraction, on
    orbit graphs past the subset oracles' size limits."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_cold_start_extraction(self, seed):
        rng = random.Random(f"warm-start:{seed}")
        n = rng.randint(8, 40)
        act = translation_action(FinAbGroup((n,)))
        A = GroupSet.of(act.group, [(x,) for x in rng.sample(range(n), 3)])
        Y = frozenset(rng.sample(sorted(act.atoms), rng.randint(2, n // 2)))
        g = orbit_graph(act, A, Y, rng.choice([2, 3]))
        for j in range(1, g.height + 1):
            result = magnification_mincut(g, j)
            assert (result.value, result.witness) == _cold_magnification(g, j)
        rate = rng.choice([Fraction(1), admissible_cut_rate(rng, g)])
        report = min_weight_cutset(g, rate)
        assert (report.weight, report.cutset) == _cold_cutset(g, rate)


def _count_max_flows(monkeypatch):
    calls = []
    original = FlowNetwork.max_flow

    def counted(net, *args, **kwargs):
        calls.append(kwargs.get("probe", False))
        return original(net, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    return calls


def _seeded_graph(seed):
    rng = random.Random(f"value-only:{seed}")
    if seed % 2:
        return random_layered_graph(rng, max_layer0=8, max_width=6)
    return random_orbit_graph(rng, max_n=16, max_a=3, max_h=3)


class TestValueOnlyRatios:
    """Value-only solves skip the witness extraction and nothing else."""

    @pytest.mark.parametrize("seed", range(40))
    def test_value_and_trace_match_the_witnessed_solve(self, seed):
        g = _seeded_graph(seed)
        for j in range(1, g.height + 1):
            bottom, relation = _bottom_problem(g, j)
            result = min_ratio_mincut(bottom, relation, g.atoms)
            value_only = min_ratio_mincut(bottom, relation, g.atoms, witness=False)
            assert (value_only.value, value_only.witness) == (result.value, None)
            assert value_only.trace == result.trace
            assert result.value == magnification_bruteforce(g, j).value

    def test_value_only_solve_makes_one_max_flow_per_round(self, monkeypatch):
        calls = _count_max_flows(monkeypatch)
        multi_round = 0
        for seed in range(40):
            g = _seeded_graph(seed)
            for j in range(1, g.height + 1):
                bottom, relation = _bottom_problem(g, j)
                calls.clear()
                rounds = len(min_ratio_mincut(bottom, relation, g.atoms,
                                              witness=False).trace)
                assert calls == [False] * rounds
                multi_round += rounds > 1
                calls.clear()
                min_ratio_mincut(bottom, relation, g.atoms)
                # the extraction's queries are all probes
                assert calls[:rounds] == [False] * rounds
                assert set(calls[rounds:]) <= {True}
        assert multi_round >= 3

    def test_only_the_reported_witness_is_extracted(self, monkeypatch):
        act = translation_action(FinAbGroup((40,)))
        A = GroupSet.of(act.group, [(0,), (1,), (3,)])
        g = orbit_graph(act, A, frozenset(str(x) for x in range(0, 40, 3)), 3)
        extractions = []
        original = maxflow.lex_min_walk

        def counted(*args):
            extractions.append(args[0])
            return original(*args)

        monkeypatch.setattr(maxflow, "lex_min_walk", counted)
        report = verify_graph_plunnecke(g)
        assert len(extractions) == 1
        assert report.witness == sorted(magnification_bruteforce(g, 3).witness)
        extractions.clear()
        verify_bottom_layer_minimal(g, 1)
        assert extractions == []


    def test_admissible_cut_rate_extracts_no_witness(self, monkeypatch):
        graphs = [random_orbit_graph(random.Random(f"cut-rate:{seed}"), max_n=16, max_h=3)
                  for seed in range(40)]

        def rates():
            # each rate, and the draw after it: the rng advances as before
            out = []
            for seed, g in enumerate(graphs):
                rng = random.Random(f"cut-rate-draw:{seed}")
                out.append((admissible_cut_rate(rng, g), rng.random()))
            return out

        # the witnessed route the rates used to read
        monkeypatch.setattr(generators, "mincut_value",
                            lambda g, j: magnification_mincut(g, j).value)
        expected = rates()
        monkeypatch.undo()

        def no_witness(*_args):
            raise AssertionError("witness extracted")

        monkeypatch.setattr(maxflow, "lex_min_walk", no_witness)
        with pytest.raises(AssertionError, match="witness extracted"):
            magnification_mincut(graphs[0], graphs[0].height)
        got = rates()
        assert got == expected
        assert len({rate for rate, _draw in got}) >= 2


class TestFlowWork:
    """Upper bounds on the max-flows of a fixed orbit graph of Z/128, so a
    change that adds flow work fails here; less work always passes."""

    def test_anchor_max_flows_do_not_rise(self, monkeypatch):
        act = translation_action(FinAbGroup((128,)))
        A = GroupSet.of(act.group, [(0,), (1,), (3,)])
        g = orbit_graph(act, A, frozenset(str(x) for x in range(0, 128, 3)), 3)
        calls = _count_max_flows(monkeypatch)
        magnification_mincut(g, 3)
        assert len(calls) <= 44
        calls.clear()
        min_weight_cutset(g, 1)
        assert len(calls) <= 383


class TestPinnedQueries:
    """Witness queries pin only their own index; a rejected query undoes
    itself whole, and then its index is barred."""

    def test_a_rejected_query_leaves_the_last_state_plus_one_bar(self, monkeypatch):
        def state(net):
            return len(net.head), net.cap[:], [len(arcs) for arcs in net.adj]

        original = maxflow.lex_min_walk
        seen = {"accepted": 0, "rejected": 0}

        def watched(net, pins, bars, inf, done):
            # the state after the last accepted query or bar, against the
            # state at each bar: one bar arc raised, nothing else changed
            last = [state(net)]
            bar_arcs = set(bars)

            class Watched:
                cap = net.cap

                def set_cap(self, a, c):
                    net.set_cap(a, c)
                    if a in bar_arcs:
                        arcs, cap, degrees = state(net)
                        old_arcs, old_cap, old_degrees = last[0]
                        assert (arcs, degrees) == (old_arcs, old_degrees)
                        assert [b for b in range(arcs) if cap[b] != old_cap[b]] == [a]
                        assert cap[a] > old_cap[a]
                        seen["rejected"] += 1
                        last[0] = arcs, cap, degrees

                def max_flow(self, s, t, probe=False):
                    got = net.max_flow(s, t, probe)
                    if not got:
                        seen["accepted"] += 1
                        last[0] = state(net)
                    return got

            return original(Watched(), pins, bars, inf, done)

        monkeypatch.setattr(maxflow, "lex_min_walk", watched)
        monkeypatch.setattr(magnification, "lex_min_walk", watched)
        for seed in range(30):
            g = _seeded_graph(seed)
            for j in range(1, g.height + 1):
                assert magnification_mincut(g, j) == magnification_bruteforce(g, j)
            report = min_weight_cutset(g, 1)
            assert (report.weight, report.cutset) == _cold_cutset(g, Fraction(1))
        assert seen["accepted"] >= 50 and seen["rejected"] >= 50

    def test_one_network_per_ratio_problem(self, monkeypatch):
        built = []

        class Counted(FlowNetwork):
            def __init__(self, n, arcs=()):
                built.append(n)
                super().__init__(n, arcs)

        monkeypatch.setattr(maxflow, "FlowNetwork", Counted)
        multi_round = 0
        for seed in range(40):
            g = _seeded_graph(seed)
            for j in range(1, g.height + 1):
                bottom, relation = _bottom_problem(g, j)
                for witness in (True, False):
                    built.clear()
                    trace = min_ratio_mincut(bottom, relation, g.atoms,
                                             witness=witness).trace
                    assert len(built) == 1
                    multi_round += len(trace) > 1
        assert multi_round >= 6

    def test_extraction_leaves_the_maximum_flow_on_every_original_arc(self, monkeypatch):
        """Probes push nothing, and a pin or bar only raises a forward
        residual, so after extraction the network has the arcs the last full
        max-flow saw, and each still holds that flow as its reverse
        residual.  Pins and bars open arcs that held 0 at the maximum flow."""
        runs = []
        original = FlowNetwork.max_flow

        def recorded(net, s, t, probe=False):
            got = original(net, s, t, probe=probe)
            if not probe:
                arcs = len(net.head)
                runs.append((net, arcs, net.cap[:arcs]))
            return got

        monkeypatch.setattr(FlowNetwork, "max_flow", recorded)
        solves = raised = opened = 0
        for seed in range(30):
            g = _seeded_graph(seed)
            for solve in [lambda: min_weight_cutset(g, 1),
                          *(lambda j=j: magnification_mincut(g, j)
                            for j in range(1, g.height + 1))]:
                runs.clear()
                solve()
                net, arcs, cap = runs[-1]
                assert len(net.head) == arcs and net.cap[1::2] == cap[1::2]
                solves += 1
                raised += net.cap[::2] != cap[::2]
                opened += any(new and not old for old, new in zip(cap[::2], net.cap[::2]))
        assert solves >= 80 and raised >= 30 and opened >= 30


class TestCutsetPush:
    def test_path_push_example(self, path4):
        pushed = cutset_push(path4, {"v2"}, 1, 2)
        assert pushed == {"v1"}
        assert is_cutset(path4, pushed)
        assert cut_weight(path4, pushed, 1) == cut_weight(path4, {"v2"}, 1) == 1

    def test_push_with_empty_middle_keeps_set(self, path4):
        S = frozenset({"v0", "v3"})
        pushed = cutset_push(path4, S, 1, 2)
        assert pushed >= S

    def test_o1_layer_one_to_layer_zero(self, o1):
        pushed = cutset_push(o1, o1.layer_set(1), 1, 1)
        assert pushed == o1.layer_set(0)
        assert cut_weight(o1, pushed, 1) == Fraction(1, 4)

    def test_rejects_non_cutsets_and_bad_layers(self, path4):
        with pytest.raises(InputError):
            cutset_push(path4, {"v0"}, 1, 3)  # j out of 1..h-1
        with pytest.raises(InputError):
            cutset_push(path4, set(), 1, 1)  # not a cutset
        with pytest.raises(InputError):
            cutset_push(path4, {"v2"}, 1, 1)  # touches layer 2, outside 0..1 + top

    @given(orbit_graphs, st.sampled_from([Fraction(1), Fraction(2)]))
    def test_exact_minimality_survives_pushing(self, g, rate):
        if g.height < 2:
            return
        m0 = min_weight_cutset(g, rate).weight
        S = min_weight_cutset(g, rate).cutset
        for j in range(g.height - 1, 0, -1):
            S = cutset_push(g, S, rate, j)
            assert is_cutset(g, S)
            assert cut_weight(g, S, rate) == m0
        assert all(g.layer[v] in (0, g.height) for v in S)

    @given(small_graphs, st.data())
    def test_push_output_is_a_cutset_even_without_commutativity(self, g, data):
        if g.height < 2:
            return
        j = data.draw(st.integers(1, g.height - 1))
        S = g.layer_set(j)
        pushed = cutset_push(g, S, 1, j)
        assert is_cutset(g, pushed)
        allowed = set(range(j)) | {g.height}
        assert all(g.layer[v] in allowed for v in pushed)

    @given(orbit_graphs, st.data())
    def test_push_respects_the_stated_slack(self, g, data):
        if g.height < 2:
            return
        rate = data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
        j = data.draw(st.integers(1, g.height - 1))
        S = g.layer_set(j)  # a deliberately suboptimal cutset
        m0 = min_weight_cutset(g, rate).weight
        eps = cut_weight(g, S, rate) - m0
        assert eps >= 0
        pushed = cutset_push(g, S, rate, j)
        bound = m0 + eps + push_penalty(len(g.labels), rate, eps)
        assert cut_weight(g, pushed, rate) <= bound


class TestVerifyGraphPlunnecke:
    def test_o1(self, o1):
        report = verify_graph_plunnecke(o1, "O1")
        assert report.holds
        assert (report.lhs, report.rhs) == (4, 3)
        assert report.details["d"] == {"1": "2/1", "2": "3/1"}

    def test_o2(self, o2):
        report = verify_graph_plunnecke(o2, "O2")
        assert report.holds
        assert (report.lhs, report.rhs) == (4, 2)

    def test_height_one_is_trivial_equality(self, path2):
        report = verify_graph_plunnecke(path2, "edge")
        assert report.holds
        assert report.lhs == report.rhs

    def test_refuses_non_commutative_graphs(self, chain_counterexample):
        with pytest.raises(HypothesisError) as err:
            verify_graph_plunnecke(chain_counterexample)
        assert err.value.payload == {"failing_edge": ["v0", "v1", "a"]}

    @given(orbit_graphs)
    def test_holds_on_random_orbit_graphs(self, g):
        assert verify_graph_plunnecke(g).holds

    @given(orbit_graphs, st.data())
    def test_truncated_layerings_satisfy_the_inequality(self, g, data):
        k = data.draw(st.integers(1, g.height))
        assert verify_graph_plunnecke(truncate(g, k)).holds


class TestVerifyBottomLayerMinimal:
    def test_o1_full_at_the_exact_power(self, o1_full):
        report = verify_bottom_layer_minimal(o1_full, 2, "O1-full")
        assert report.holds
        assert report.lhs == report.rhs == Fraction(1, 4)

    def test_height_one_at_its_own_ratio(self, path2):
        report = verify_bottom_layer_minimal(path2, 1, "edge")
        assert report.holds

    def test_refusal_when_rate_is_too_big(self, o1_full):
        with pytest.raises(HypothesisError):
            verify_bottom_layer_minimal(o1_full, 3, "O1-full")  # 3**2 > 4

    def test_perfect_power_instances(self, rng):
        for _ in range(10):
            g, rate = perfect_power_orbit_graph(rng)
            top = magnification_mincut(g, g.height).value
            assert rate ** g.height == top
            assert verify_bottom_layer_minimal(g, rate).holds

    @given(orbit_graphs, st.data())
    def test_admissible_rates_hold(self, g, data):
        rate = admissible_cut_rate(random.Random(data.draw(st.integers(0, 9999))), g)
        assert verify_bottom_layer_minimal(g, rate).holds
