"""Seeded random instances: graphs, actions, periodic sets, and check bundles.

Everything is driven by a caller-supplied ``random.Random`` so identical
seeds give identical instances (and byte-identical files downstream).
Generated layered graphs always satisfy the structural invariants; orbit
graphs are commutative by construction, plain layered graphs usually are
not.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import jsonio
from .density import PeriodicSet, check_period_box
from .dynamics import (FinAbGroup, FiniteAction, GroupSet, check_action_size,
                       orbit_graph, product_action, translation_action)
from .graphcore import LayeredMeasureGraph
# magnification_mincut is not called here; it stays bound because the
# benchmark's tracer test expects to wrap a binding of it in this module.
from .magnification import magnification_mincut, mincut_value  # noqa: F401
from .rational import format_rational

_WEIGHT_PALETTE = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3, 2))
_LABELS = ("a", "b", "c")


def _matched_edges(rng: random.Random, label: str, lower: list[tuple[str, Fraction]],
                   upper: list[tuple[str, Fraction]]):
    """A random partial weight-matching from lower to upper for one label."""
    pool: dict[Fraction, list[str]] = {}
    for v, w in upper:
        pool.setdefault(w, []).append(v)
    for vs in pool.values():
        rng.shuffle(vs)
    edges = []
    order = list(lower)
    rng.shuffle(order)
    for v, w in order:
        if rng.random() < 0.75 and pool.get(w):
            edges.append((v, pool[w].pop(), label))
    return edges


def random_layered_graph(rng: random.Random, max_layer0: int = 10,
                         max_width: int = 6, max_height: int = 3) -> LayeredMeasureGraph:
    """A valid layered graph with palette weights and matchings for 1-3 labels."""
    height = rng.randint(1, max_height)
    sizes = [rng.randint(1, max_layer0)] + [rng.randint(1, max_width) for _ in range(height)]
    vertices = []
    by_layer: list[list[tuple[str, Fraction]]] = []
    for lay, size in enumerate(sizes):
        row = []
        for i in range(size):
            w = rng.choice(_WEIGHT_PALETTE)
            row.append((f"v{lay}_{i}", w))
            vertices.append((f"v{lay}_{i}", lay, w))
        by_layer.append(row)
    labels = _LABELS[: rng.randint(1, len(_LABELS))]
    edges = []
    for lay in range(height):
        for label in labels:
            edges.extend(_matched_edges(rng, label, by_layer[lay], by_layer[lay + 1]))
    return LayeredMeasureGraph.build(vertices, edges, height=height, labels=labels)


def random_one_layer_graph(rng: random.Random, max_side: int = 15) -> LayeredMeasureGraph:
    return random_layered_graph(rng, max_layer0=max_side, max_width=max_side,
                                max_height=1)


def _check_cyclic_size(max_n: int, max_cycles: int = 3) -> None:
    """Refuse, before anything is drawn, cyclic actions that may pass
    MAX_GROUP_ORDER atoms: up to max_cycles cycles of length up to max_n."""
    check_action_size(max_cycles * max_n, f"the largest cyclic action of Z/{max_n}")


def random_cyclic_action(rng: random.Random, modulus: int,
                         max_cycles: int = 3) -> FiniteAction:
    """Z/modulus acting by disjoint rotations, weights constant per cycle."""
    _check_cyclic_size(modulus, max_cycles)
    group = FinAbGroup((modulus,))
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    lengths = [rng.choice(divisors) for _ in range(rng.randint(1, max_cycles))]
    perm: dict[str, str] = {}
    cycles = []
    idx = 0
    for length in lengths:
        cycle = [f"x{idx + i}" for i in range(length)]
        idx += length
        cycles.append((cycle, Fraction(rng.randint(1, 4), rng.randint(1, 4))))
        for i, atom in enumerate(cycle):
            perm[atom] = cycle[(i + 1) % length]
    # one division per cycle; every atom of a cycle shares its weight
    total = sum(w * len(cycle) for cycle, w in cycles)
    atoms = {}
    for cycle, w in cycles:
        atoms.update(dict.fromkeys(cycle, w / total))
    return FiniteAction(group, atoms, (perm,))


def random_action(rng: random.Random, max_coords: int = 2, max_n: int = 12) -> FiniteAction:
    """One or two commuting cyclic factors, translation or rotation style."""
    _check_cyclic_size(max_n)
    if max_coords > 1:
        # each of several factors has at most 2 * min(max_n, 6) atoms
        check_action_size((2 * min(max_n, 6)) ** max_coords, "the largest product action")
    coords = rng.randint(1, max_coords)
    parts = []
    for _ in range(coords):
        n = rng.randint(2, max_n if coords == 1 else min(max_n, 6))
        if rng.random() < 0.5:
            parts.append(translation_action(FinAbGroup((n,))))
        else:
            parts.append(random_cyclic_action(rng, n, max_cycles=2 if coords > 1 else 3))
    act = parts[0]
    for part in parts[1:]:
        act = product_action(act, part)
    return act


def random_group_subset(rng: random.Random, group: FinAbGroup, max_size: int) -> GroupSet:
    pool = sorted(group.elements())
    size = rng.randint(1, min(max_size, len(pool)))
    return GroupSet.of(group, rng.sample(pool, size))


def random_space_subset(rng: random.Random, act: FiniteAction, max_size: int) -> frozenset[str]:
    pool = sorted(act.atoms)
    size = rng.randint(1, min(max_size, len(pool)))
    return frozenset(rng.sample(pool, size))


def random_orbit_graph(rng: random.Random, max_n: int = 12, max_a: int = 4,
                       max_h: int = 4) -> LayeredMeasureGraph:
    """Orbit graph of a random cyclic-group action; commutative by construction."""
    _check_cyclic_size(max_n)
    n = rng.randint(2, max_n)
    act = translation_action(FinAbGroup((n,))) if rng.random() < 0.5 \
        else random_cyclic_action(rng, n)
    A = random_group_subset(rng, act.group, max_a)
    Y = random_space_subset(rng, act, 3)
    h = rng.randint(1, max_h)
    return orbit_graph(act, A, Y, h)


def perfect_power_orbit_graph(rng: random.Random) -> tuple[LayeredMeasureGraph, Fraction]:
    """Full-group orbit graph over Z/(m**h) with a single base point.

    Its top magnification ratio is exactly m**h, so C = m meets C**h = D_h.
    """
    m, h = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    group = FinAbGroup((m ** h,))
    act = translation_action(group)
    A = GroupSet.of(group, group.elements())
    g = orbit_graph(act, A, frozenset({"0"}), h)
    return g, Fraction(m)


def admissible_cut_rate(rng: random.Random, g: LayeredMeasureGraph) -> Fraction:
    """A random rational C > 0 with C ** height <= top magnification ratio."""
    top = mincut_value(g, g.height)
    floor = 1
    while Fraction(floor + 1) ** g.height <= top:
        floor += 1
    candidates = [Fraction(1), Fraction(floor)]
    half_up = Fraction(2 * floor + 1, 2)
    if half_up ** g.height <= top:
        candidates.append(half_up)
    return rng.choice(sorted(set(candidates)))


def _period_cap(dim: int, max_period: int) -> int:
    """Largest period per axis: max_period, capped at 6 above one dimension."""
    return max_period if dim == 1 else min(max_period, 6)


def random_periodic_set(rng: random.Random, dim: int | None = None,
                        max_period: int = 12, allow_empty: bool = True) -> PeriodicSet:
    # Refuse a box past MAX_PERIOD_BOX before anything is drawn.
    for d in ((1, 2) if dim is None else (dim,)):
        check_period_box(itertools.repeat(_period_cap(d, max_period), d))
    if dim is None:
        dim = rng.randint(1, 2)
    period = tuple(rng.randint(1, _period_cap(dim, max_period)) for _ in range(dim))
    residues = []
    for r in itertools.product(*(range(p) for p in period)):
        if rng.random() < 0.45:
            residues.append(r)
    if not residues and not allow_empty:
        residues.append(tuple(rng.randrange(p) for p in period))
    return PeriodicSet.periodic(period, residues)


def random_periodic_or_finite(rng: random.Random, dim: int = 1) -> PeriodicSet:
    if rng.random() < 0.3:
        count = rng.randint(1, 3)
        pts = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(count)]
        return PeriodicSet.finite(dim, pts)
    return random_periodic_set(rng, dim=dim, allow_empty=False)


# ---------------------------------------------------------------------------
# Check bundles: JSON-ready instance documents consumed by the verify runners.
# ---------------------------------------------------------------------------


def _dyn_parameters(rng: random.Random) -> dict:
    act = random_action(rng)
    A = random_group_subset(rng, act.group, 3)
    max_b = min(6, len(act.atoms))
    B = sorted(random_space_subset(rng, act, max_b))
    j = rng.randint(1, 2)
    k = rng.randint(j + 1, 3)
    return {
        "action": jsonio.action_to_doc(act),
        "A": jsonio.group_set_to_doc(A),
        "B": B,
        "j": j,
        "k": k,
    }


def bundle_flow_duality(rng: random.Random, name: str) -> dict:
    return {"instance": name,
            "graph": jsonio.graph_to_doc(random_one_layer_graph(rng))}


def bundle_graph_plunnecke(rng: random.Random, name: str) -> dict:
    return {"instance": name,
            "graph": jsonio.graph_to_doc(random_orbit_graph(rng))}


def bundle_bottom_layer(rng: random.Random, name: str) -> dict:
    if rng.random() < 0.5:
        g, rate = perfect_power_orbit_graph(rng)
    else:
        g = random_orbit_graph(rng, max_n=8, max_h=3)
        rate = admissible_cut_rate(rng, g)
    return {"instance": name, "graph": jsonio.graph_to_doc(g),
            "C": format_rational(rate)}


def bundle_dyn_plunnecke(rng: random.Random, name: str) -> dict:
    return {"instance": name, **_dyn_parameters(rng)}


def bundle_restricted(rng: random.Random, name: str) -> dict:
    doc = _dyn_parameters(rng)
    ids = [row["id"] for row in doc["action"]["atoms"]]  # sorted
    E = sorted(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
    return {"instance": name, **doc, "E": E}


def bundle_heavy(rng: random.Random, name: str) -> dict:
    return {"instance": name, **_dyn_parameters(rng),
            "delta": rng.choice(["1/4", "1/2", "3/4"])}


def bundle_multiplicativity(rng: random.Random, name: str) -> dict:
    act = random_action(rng, max_coords=1, max_n=8)
    act2 = random_action(rng, max_coords=1, max_n=8)
    B = sorted(random_space_subset(rng, act, 4))
    B2 = sorted(random_space_subset(rng, act2, 16 // max(1, len(B))))
    return {
        "instance": name,
        "action": jsonio.action_to_doc(act),
        "A": jsonio.group_set_to_doc(random_group_subset(rng, act.group, 3)),
        "B": B,
        "action2": jsonio.action_to_doc(act2),
        "A2": jsonio.group_set_to_doc(random_group_subset(rng, act2.group, 3)),
        "B2": B2,
    }


def bundle_different_summands(rng: random.Random, name: str) -> dict:
    act = random_action(rng)
    k = rng.randint(1, 3)
    return {
        "instance": name,
        "action": jsonio.action_to_doc(act),
        "A_list": [
            jsonio.group_set_to_doc(random_group_subset(rng, act.group, 3))
            for _ in range(k)
        ],
        "B": sorted(random_space_subset(rng, act, 5)),
    }


def bundle_density_plunnecke(rng: random.Random, name: str) -> dict:
    dim = rng.randint(1, 2)
    j = 1 if rng.random() < 0.7 else 2
    k = rng.randint(j + 1, 3)
    return {
        "instance": name,
        "A": jsonio.periodic_to_doc(random_periodic_set(rng, dim=dim)),
        "B": jsonio.periodic_to_doc(random_periodic_set(rng, dim=dim)),
        "j": j,
        "k": k,
    }


def bundle_density_summands(rng: random.Random, name: str) -> dict:
    dim = rng.randint(1, 2)
    k = rng.randint(1, 3)
    return {
        "instance": name,
        "A_list": [
            jsonio.periodic_to_doc(random_periodic_or_finite(rng, dim=dim))
            for _ in range(k)
        ],
        "B": jsonio.periodic_to_doc(
            random_periodic_set(rng, dim=dim, allow_empty=False)),
    }


def bundle_correspondence(rng: random.Random, name: str) -> dict:
    return {
        "instance": name,
        "B": jsonio.periodic_to_doc(
            random_periodic_set(rng, dim=1, allow_empty=False)),
        "A0": jsonio.periodic_to_doc(random_periodic_or_finite(rng, dim=1)),
    }
