"""Seeded instance pools for the three benchmark workloads.

An instance is a zero-argument callable returning ``(holds, text)``: the
verdict and the canonical report text the package produced for it.  A pool
lists its instances in canonical order, the order the expected-output
reference records them in; ``schedule`` is the seeded order the timed loop
cycles through.  Every callable reaches the package through module
attributes at call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("battery", "flow-large", "density-large")

# run_suite.py's per-check counts, multiplied by BATTERY_SCALE per pool
BATTERY_COUNTS = {"lemma-6.1": 60, "lemma-5.4": 120}
BATTERY_DEFAULT_COUNT = 200
BATTERY_SCALE = 4



@dataclass
class Pool:
    labels: list[str]
    instances: list[Callable[[], tuple[bool, str]]]
    schedule: list[int]
    warmup: list[int]


def import_package():
    """Import the package modules the workloads drive."""
    names = ("cli", "density", "dynamics", "generators", "jsonio", "magnification",
             "rational")
    return {name: importlib.import_module(f"plunnecke_lab.{name}") for name in names}


def build(workload: str, gen_seed: int, mods: dict) -> Pool:
    builder = {"battery": _battery, "flow-large": _flow_large,
               "density-large": _density_large}[workload]
    return builder(gen_seed, mods)


def _first_of_each_kind(labels: list[str]) -> list[int]:
    """Labels read ``<kind>/<index>``."""
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        seen.setdefault(label.split("/")[0], i)
    return sorted(seen.values())


def _shuffled(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def _run_bundle(mods: dict, check_id: str, doc: dict) -> tuple[bool, str]:
    report = mods["cli"].run_check_bundle(check_id, doc)
    return report["holds"], mods["jsonio"].dumps_canonical(report)


# ---------------------------------------------------------------------------
# battery: the CLI's own generators, exactly as `verify --generate` runs them.
# ---------------------------------------------------------------------------


def battery_count(check_id: str) -> int:
    return BATTERY_SCALE * BATTERY_COUNTS.get(check_id, BATTERY_DEFAULT_COUNT)


def _battery(gen_seed: int, mods: dict) -> Pool:
    cli = mods["cli"]
    check_ids = sorted(cli.CHECKS)
    rngs: dict[str, random.Random] = {}

    def instance(check_id: str, index: int):
        kind = cli.CHECKS[check_id][2]
        name = f"{kind}-{gen_seed}-{index:04d}"

        def run() -> tuple[bool, str]:
            # Each check draws from its own stream, as one `verify` call does;
            # index 0 restarts the stream, so every pass repeats the same bundles.
            if index == 0:
                rngs[check_id] = random.Random(gen_seed)
            doc = cli.CHECKS[check_id][1](rngs[check_id], name)
            return _run_bundle(mods, check_id, doc)
        return run

    labels, instances, position = [], [], {}
    for check_id in check_ids:
        for index in range(battery_count(check_id)):
            position[check_id, index] = len(labels)
            labels.append(f"{check_id}/{index}")
            instances.append(instance(check_id, index))
    # Interleave the checks in a seeded order that keeps each check's own
    # stream in index order.
    draws = [cid for cid in check_ids for _ in range(battery_count(cid))]
    random.Random(f"battery-order:{gen_seed}").shuffle(draws)
    next_index = dict.fromkeys(check_ids, 0)
    schedule = []
    for check_id in draws:
        schedule.append(position[check_id, next_index[check_id]])
        next_index[check_id] += 1
    # Warm-up runs index 0 of every check, which also seeds every stream.
    warmup = [position[cid, 0] for cid in check_ids]
    return Pool(labels, instances, schedule, warmup)


# ---------------------------------------------------------------------------
# flow-large: pre-built orbit graphs and product actions big enough that
# max-flow dominates.
# ---------------------------------------------------------------------------

FLOW_GRAPHS = 60            # each runs thm-3.5 and cor-3.4
FLOW_N = (16, 64)           # Z/n, n spread evenly over this range
FLOW_ACTIONS = 36           # thm-4.2 bundles on Z/n1 x Z/n2
FLOW_N1 = (8, 24)
FLOW_N2 = (2, 6)
FLOW_B = (11, 40)           # above the brute-force cut-off of dynamics.c


def _spread(lo: int, hi: int, i: int, count: int) -> int:
    return lo + round(i * (hi - lo) / (count - 1))


def _flow_large(gen_seed: int, mods: dict) -> Pool:
    dyn, gens, jsonio = mods["dynamics"], mods["generators"], mods["jsonio"]
    fmt = mods["rational"].format_rational
    rng = random.Random(f"flow-large:{gen_seed}")
    labels, docs = [], []
    for i in range(FLOW_GRAPHS):
        n = _spread(*FLOW_N, i, FLOW_GRAPHS)
        h = 2 + i % 2
        act = dyn.translation_action(dyn.FinAbGroup((n,)))
        A = dyn.GroupSet.of(act.group, [(x,) for x in rng.sample(range(n), 3)])
        Y = frozenset(rng.sample(sorted(act.atoms), n // 3))
        g = dyn.orbit_graph(act, A, Y, h)
        # The rate draw has its own stream per graph, so every seed picks the
        # same candidate; C = 1 and C > 1 differ twofold in extraction work.
        rate = gens.admissible_cut_rate(random.Random(f"flow-large-rate:{i}"), g)
        graph_doc = jsonio.graph_to_doc(g)
        name = f"orbit-large-{gen_seed}-{i:03d}"
        labels.append(f"thm-3.5/{i}")
        docs.append(("thm-3.5", {"instance": name, "graph": graph_doc}))
        labels.append(f"cor-3.4/{i}")
        docs.append(("cor-3.4", {"instance": name, "graph": graph_doc, "C": fmt(rate)}))
    jk = ((1, 2), (1, 3), (2, 3))
    for i in range(FLOW_ACTIONS):
        n1 = _spread(*FLOW_N1, i, FLOW_ACTIONS)
        n2 = FLOW_N2[0] + i % (FLOW_N2[1] - FLOW_N2[0] + 1)
        act = dyn.product_action(dyn.translation_action(dyn.FinAbGroup((n1,))),
                                 dyn.translation_action(dyn.FinAbGroup((n2,))))
        A = dyn.GroupSet.of(act.group, rng.sample(sorted(act.group.elements()), 3))
        b_size = min(_spread(*FLOW_B, i, FLOW_ACTIONS), len(act.atoms))
        B = sorted(rng.sample(sorted(act.atoms), b_size))
        j, k = jk[i % len(jk)]
        labels.append(f"thm-4.2/{i}")
        docs.append(("thm-4.2", {
            "instance": f"action-large-{gen_seed}-{i:03d}",
            "action": jsonio.action_to_doc(act),
            "A": jsonio.group_set_to_doc(A), "B": B, "j": j, "k": k}))
    instances = [lambda cid=cid, doc=doc: _run_bundle(mods, cid, doc) for cid, doc in docs]
    schedule = _shuffled(random.Random(f"flow-large-order:{gen_seed}"), len(docs))
    return Pool(labels, instances, schedule, _first_of_each_kind(labels))


# ---------------------------------------------------------------------------
# density-large: periodic sets past the generator's period caps, plus
# window scans.
# ---------------------------------------------------------------------------

DENSITY_ROUNDS = 48         # each round adds one instance of every entry below
DENSITY_FILL = 0.4          # share of the period box a set occupies
PERIOD_1D = 30
PERIOD_2D = 8
LCM_BOX_CAP = 2000          # cells in the common lcm box of one instance's sets
SCAN_1D = (40, 200)         # (side, radius)
SCAN_2D = (5, 15)
# (check id or "scan", dimension)
DENSITY_ROUND = (
    ("thm-1.3", 1), ("thm-1.3", 2), ("thm-1.3", 2),
    ("thm-1.4", 1), ("thm-1.4", 2),
    ("lemma-7.1", 1),
    ("scan", 1), ("scan", 2),
)


def _density_large(gen_seed: int, mods: dict) -> Pool:
    density, jsonio = mods["density"], mods["jsonio"]
    fmt = mods["rational"].format_rational
    # The periods come from a fixed ladder, so every seed sees the same
    # lcm-box sizes; the seed draws the residues.
    ladder = random.Random("density-large-periods")
    rng = random.Random(f"density-large:{gen_seed}")

    def periods(dim: int, count: int) -> list[tuple[int, ...]]:
        # Redraw past LCM_BOX_CAP, so no single instance outweighs the rest
        # of the pool and a run's total does not hinge on it.
        cap = PERIOD_1D if dim == 1 else PERIOD_2D
        while True:
            drawn = [tuple(ladder.randint(1, cap) for _ in range(dim)) for _ in range(count)]
            if math.prod(math.lcm(*axis) for axis in zip(*drawn)) <= LCM_BOX_CAP:
                return drawn

    def periodic(p: tuple[int, ...]):
        cells = list(itertools.product(*(range(q) for q in p)))
        size = max(1, round(DENSITY_FILL * len(cells)))
        return density.PeriodicSet.periodic(p, rng.sample(cells, size))

    def doc(p: tuple[int, ...]) -> dict:
        return jsonio.periodic_to_doc(periodic(p))

    labels, instances = [], []
    for r in range(DENSITY_ROUNDS):
        for check, dim in DENSITY_ROUND:
            name = f"periodic-large-{gen_seed}-{len(labels):03d}"
            if check == "thm-1.3":
                j, k = (1, 2) if r % 2 == 0 else (1, 3)
                pa, pb = periods(dim, 2)
                bundle = {"instance": name, "A": doc(pa), "B": doc(pb), "j": j, "k": k}
            elif check == "thm-1.4":
                p1, p2, pb = periods(dim, 3)
                bundle = {"instance": name, "A_list": [doc(p1), doc(p2)], "B": doc(pb)}
            elif check == "lemma-7.1":
                pb, pa = periods(1, 2)
                bundle = {"instance": name, "B": doc(pb), "A0": doc(pa)}
            if check == "scan":
                side, radius = SCAN_1D if dim == 1 else SCAN_2D
                target = periodic(periods(dim, 1)[0])

                def run(A=target, side=side, radius=radius) -> tuple[bool, str]:
                    upper, lower = density.window_scan(
                        lambda pt: density.contains(A, pt), side, radius, dim=A.dim)
                    row = {"side": side, "radius": radius,
                           "upper": fmt(upper), "lower": fmt(lower)}
                    return lower <= upper, jsonio.dumps_canonical(row)
                instances.append(run)
                labels.append(f"scan-{dim}d/{r}")
            else:
                instances.append(lambda cid=check, b=bundle: _run_bundle(mods, cid, b))
                labels.append(f"{check}/{r}")
    schedule = _shuffled(random.Random(f"density-large-order:{gen_seed}"), len(labels))
    return Pool(labels, instances, schedule, _first_of_each_kind(labels))
