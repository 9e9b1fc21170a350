import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from plunnecke_lab import (FinAbGroup, GroupSet, LayeredMeasureGraph,
                           orbit_graph, translation_action)

settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def lex_min_greedy(n, feasible, done):
    """The reference lex-min greedy: grow the lexicographically smallest index
    set in 0..n-1 that ``done`` accepts.

    ``feasible(chosen, barred)`` says whether some optimal set contains every
    index in ``chosen`` and none in ``barred``.  Each round re-offers the
    indices past the last accepted one, each query listing the last accepted
    query's sets plus its own index and the indices it skipped.  The cold-start
    oracles drive it, independently of the package's walk.
    """
    included, excluded = [], []
    pos = 0
    while not done(included):
        for idx in range(pos, n):
            skipped = list(range(pos, idx))
            if feasible(included + [idx], excluded + skipped):
                included.append(idx)
                excluded += skipped
                pos = idx + 1
                break
        else:
            raise RuntimeError("no feasible extension of the lex-min witness")
    return included

def build(vertices, edges, height=None, labels=None):
    return LayeredMeasureGraph.build(vertices, edges, height=height, labels=labels)


@pytest.fixture
def path2():
    return build([("v0", 0, 1), ("v1", 1, 1)], [("v0", "v1", "a")])


@pytest.fixture
def path3():
    return build([("v0", 0, 1), ("v1", 1, 1), ("v2", 2, 1)],
                 [("v0", "v1", "a"), ("v1", "v2", "a")], height=2)


@pytest.fixture
def path4():
    return build(
        [("v0", 0, 1), ("v1", 1, 1), ("v2", 2, 1), ("v3", 3, 1)],
        [("v0", "v1", "a"), ("v1", "v2", "a"), ("v2", "v3", "a")], height=3)


@pytest.fixture
def chain_counterexample():
    # a then b along a path, with no b-step available at the bottom
    return build([("v0", 0, 1), ("v1", 1, 1), ("v2", 2, 1)],
                 [("v0", "v1", "a"), ("v1", "v2", "b")], height=2)


@pytest.fixture
def bipartite_flow_example():
    # flow = mu(tails of a) + mu(tails of b) = 1 + 1/2 = 3/2
    half = Fraction(1, 2)
    return build(
        [("x", 0, half), ("y", 0, half), ("s", 1, half), ("t", 1, half)],
        [("x", "s", "a"), ("y", "t", "a"), ("y", "s", "b")], height=1)


def translation(n):
    return translation_action(FinAbGroup((n,)))


def gset(n, *values):
    return GroupSet.of(FinAbGroup((n,)), [(v,) for v in values])


@pytest.fixture
def z4_act():
    return translation(4)


@pytest.fixture
def o1(z4_act):
    return orbit_graph(z4_act, gset(4, 0, 1), {"0"}, 2)


@pytest.fixture
def o2(z4_act):
    return orbit_graph(z4_act, gset(4, 0, 2), {"0"}, 2)


@pytest.fixture
def o1_full(z4_act):
    return orbit_graph(z4_act, gset(4, 0, 1, 2, 3), {"0"}, 2)


@pytest.fixture
def rng():
    return random.Random(20260811)
