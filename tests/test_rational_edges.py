"""Fractions at the edges: integer sums against Fraction sums, shared weight
products against per-atom ones, and the rational parameters' refusals."""

import random
from fractions import Fraction

import pytest

from plunnecke_lab import (InputError, c_delta, cut_weight, flow, format_rational,
                           heavy_subset, min_weight_cutset, product_action, push_penalty,
                           verify_bottom_layer_minimal, verify_heavy_subset)
from plunnecke_lab.dynamics import measure
from plunnecke_lab.generators import (random_action, random_cyclic_action,
                                      random_layered_graph, random_one_layer_graph,
                                      random_orbit_graph, random_space_subset)
from plunnecke_lab.maxflow import exact_sum, min_ratio_bruteforce

from conftest import gset, translation


def fraction_sum(values):
    return sum(values, Fraction(0))


class TestIntegerSums:
    def test_exact_sum_matches_the_fraction_sum(self):
        rng = random.Random(1)
        for _ in range(500):
            values = [rng.choice([rng.randint(-9, 9),
                                  Fraction(rng.randint(-40, 40), rng.randint(1, 36))])
                      for _ in range(rng.randint(0, 30))]
            got = exact_sum(values)
            assert type(got) is Fraction
            assert got == fraction_sum(values), values
        assert exact_sum([]) == 0
        assert exact_sum(iter([Fraction(1, 3)] * 3)) == 1

    def test_graph_weights_and_flows(self):
        rng = random.Random(2)
        for _ in range(200):
            g = random_layered_graph(rng)
            S = [v for v in g.atoms if rng.random() < 0.5]
            assert g.weight(S) == fraction_sum(g.atoms[v] for v in S)
            assert g.total_weight() == fraction_sum(g.atoms.values())
            one = random_one_layer_graph(rng)
            assert flow(one) == fraction_sum(one.atoms[t] for t, _, _ in one.edges)

    def test_action_measures(self):
        rng = random.Random(3)
        for _ in range(300):
            act = random_action(rng)
            S = random_space_subset(rng, act, len(act.atoms))
            assert measure(act, S) == fraction_sum(act.atoms[x] for x in S)
            assert measure(act, act.atoms) == 1

    def test_cut_weight_matches_the_per_vertex_powers(self):
        rng = random.Random(4)
        rates = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 7))
        for _ in range(200):
            g = random_layered_graph(rng, max_height=4)
            S = [v for v in g.atoms if rng.random() < 0.5]
            C = rng.choice(rates)
            expected = fraction_sum(C ** -g.layer[v] * g.atoms[v] for v in S)
            assert cut_weight(g, S, C) == expected


def cyclic_action_per_atom(rng, modulus, max_cycles=3):
    """The generator's draws, with each atom's weight divided by the total."""
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    lengths = [rng.choice(divisors) for _ in range(rng.randint(1, max_cycles))]
    perm, raw, idx = {}, {}, 0
    for length in lengths:
        cycle = [f"x{idx + i}" for i in range(length)]
        idx += length
        w = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for i, atom in enumerate(cycle):
            raw[atom] = w
            perm[atom] = cycle[(i + 1) % length]
    total = fraction_sum(raw.values())
    return {atom: w / total for atom, w in raw.items()}, perm


class TestSharedWeights:
    def test_cyclic_action_weights(self):
        for seed in range(300):
            modulus = 2 + seed % 11
            act = random_cyclic_action(random.Random(seed), modulus)
            atoms, perm = cyclic_action_per_atom(random.Random(seed), modulus)
            assert list(act.atoms.items()) == list(atoms.items())
            assert dict(act.generator_perms[0]) == perm

    def test_product_action_weights(self):
        rng = random.Random(5)
        for _ in range(150):
            first = random_action(rng, max_coords=1, max_n=8)
            second = random_action(rng, max_coords=1, max_n=8)
            pact = product_action(first, second)
            expected = {f"{x}|{y}": wx * wy for x, wx in first.atoms.items()
                        for y, wy in second.atoms.items()}
            assert list(pact.atoms.items()) == list(expected.items())
            # one product formed, and shared, per distinct pair of weights
            pairs = {(wx, wy) for wx in first.atoms.values() for wy in second.atoms.values()}
            assert len({id(w) for w in pact.atoms.values()}) == len(pairs)


class TestRefusedRationals:
    """Rational parameters go through parse_rational: ints, Fractions and
    ``p/q`` strings are read exactly; floats, bools and decimals are refused."""

    @pytest.fixture
    def graph(self):
        return random_orbit_graph(random.Random(6), max_n=6, max_h=2)

    @pytest.mark.parametrize("rate", [0.5, 1.0, True, "0.5", "1e0"])
    def test_rates(self, graph, rate):
        with pytest.raises(InputError):
            min_weight_cutset(graph, rate)
        with pytest.raises(InputError):
            cut_weight(graph, graph.layer_set(0), rate)
        with pytest.raises(InputError):
            verify_bottom_layer_minimal(graph, rate)
        with pytest.raises(InputError):
            push_penalty(2, rate, Fraction(1, 10))

    def test_rates_read_exactly(self, graph):
        assert min_weight_cutset(graph, "1/1") == min_weight_cutset(graph, 1)
        top = graph.layer_set(1)
        assert cut_weight(graph, top, "2") == cut_weight(graph, top, 2)
        assert push_penalty(2, "1/2", "1/10") == push_penalty(2, Fraction(1, 2), Fraction(1, 10))

    @pytest.mark.parametrize("eps", [0.1, False, "0.1"])
    def test_push_penalty_eps(self, eps):
        with pytest.raises(InputError):
            push_penalty(2, 2, eps)

    @pytest.mark.parametrize("delta", [0.5, True, "0.5"])
    def test_deltas(self, delta):
        act, A, B = translation(6), gset(6, 0, 1), {"0", "3"}
        with pytest.raises(InputError):
            c_delta(act, A, B, delta)
        with pytest.raises(InputError):
            heavy_subset(act, A, B, delta, 1, 2)
        with pytest.raises(InputError):
            verify_heavy_subset(act, A, B, delta, 1, 2)

    @pytest.mark.parametrize("share", [0.5, True, "0.5"])
    def test_min_share(self, share):
        neighbors = {"a": frozenset({"t"}), "b": frozenset()}
        weights = {"a": Fraction(1), "b": Fraction(1), "t": Fraction(1)}
        with pytest.raises(InputError):
            min_ratio_bruteforce(["a", "b"], neighbors, weights, share)
        assert min_ratio_bruteforce(["a", "b"], neighbors, weights, "1/2") == (
            0, frozenset({"b"}))

    @pytest.mark.parametrize("value", [0.1, 1.0, True, "1/2", None])
    def test_format_rational(self, value):
        with pytest.raises(InputError, match="expected an int or a Fraction"):
            format_rational(value)

    def test_format_rational_writes_ints_and_fractions(self):
        assert format_rational(3) == "3/1"
        assert format_rational(-7) == "-7/1"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(6, 3)) == "2/1"

