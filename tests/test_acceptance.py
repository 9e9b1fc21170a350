"""Acceptance battery: every release criterion, checked exactly.

Each test prints one PASS/FAIL line.  All comparisons are exact rational
equalities or inequalities (tolerance zero); the only numeric bounds are the
stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from plunnecke_lab import (PeriodicSet, cut_weight, cutset_push, dual, flow,
                           is_commutative, is_cutset, magnification_bruteforce,
                           magnification_mincut, min_weight_cutset,
                           verify_bottom_layer_minimal, verify_correspondence,
                           verify_density_plunnecke, verify_density_summands,
                           verify_different_summands, verify_dyn_plunnecke,
                           verify_graph_plunnecke, verify_heavy_subset,
                           verify_multiplicativity, verify_restricted_plunnecke)
from plunnecke_lab.cli import main
from plunnecke_lab.commutativity import is_semi_commutative
from plunnecke_lab.generators import (admissible_cut_rate,
                                      perfect_power_orbit_graph,
                                      random_action, random_group_subset,
                                      random_layered_graph,
                                      random_one_layer_graph,
                                      random_orbit_graph,
                                      random_periodic_or_finite,
                                      random_periodic_set,
                                      random_space_subset)
from plunnecke_lab.graphcore import validate

from conftest import gset, translation


def _report(number, ok, message, started=None, budget=None):
    elapsed = "" if started is None else f" [{time.perf_counter() - started:.2f}s]"
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {message}{elapsed}")
    assert ok, f"criterion {number}: {message}"
    if budget is not None:
        took = time.perf_counter() - started
        assert took < budget, f"criterion {number} took {took:.2f}s, budget {budget}s"


def test_criterion_01_flow_duality():
    started = time.perf_counter()
    rng = random.Random(101)
    count = 0
    ok = True
    while count < 500:
        g = random_one_layer_graph(rng, max_side=15)
        assert len(g.atoms) <= 30
        ok = ok and validate(g) == [] and flow(g) == flow(dual(g))
        count += 1
    _report(1, ok, f"flow equals dual flow on {count} random 1-layered graphs",
            started, budget=5.0)


def test_criterion_02_orbit_commutativity(chain_counterexample):
    started = time.perf_counter()
    rng = random.Random(202)
    count = 0
    ok = True
    while count < 200:
        g = random_orbit_graph(rng, max_n=12, max_a=4, max_h=4)
        ok = ok and is_commutative(g).holds
        count += 1
    pinned = is_semi_commutative(chain_counterexample)
    ok = ok and not pinned.holds and pinned.failing_edge == ("v0", "v1", "a")
    _report(2, ok, f"{count} random orbit graphs commute; the chain "
                   "counterexample fails at (v0,v1,a)", started, budget=10.0)


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(303)
    instances = comparisons = 0
    ok = True
    while instances < 300:
        g = random_layered_graph(rng, max_layer0=14, max_width=6, max_height=3)
        for j in range(1, g.height + 1):
            brute = magnification_bruteforce(g, j)
            mincut = magnification_mincut(g, j)
            ok = ok and brute.value == mincut.value and brute.witness == mincut.witness
            comparisons += 1
        instances += 1
    _report(3, ok, f"min-cut equals brute force on {instances} graphs "
                   f"({comparisons} orders)", started, budget=60.0)


def test_criterion_04_graph_plunnecke(o1):
    started = time.perf_counter()
    pinned = verify_graph_plunnecke(o1, "O1")
    ok = pinned.holds and pinned.details["d"] == {"1": "2/1", "2": "3/1"} \
        and (pinned.lhs, pinned.rhs) == (4, 3)
    rng = random.Random(404)
    count = 0
    while count < 200:
        g = random_orbit_graph(rng, max_n=10, max_a=4, max_h=4)
        ok = ok and verify_graph_plunnecke(g).holds
        count += 1
    _report(4, ok, f"growth inequality holds on {count} commutative graphs; "
                   "O1 pins 4 >= 3", started)


def test_criterion_05_minimal_cutset_and_pushes():
    started = time.perf_counter()
    rng = random.Random(505)
    instances = pushes = perfect = 0
    ok = True
    while instances < 100 or pushes < 100:
        if instances % 2 == 0:
            g, rate = perfect_power_orbit_graph(rng)
            perfect += 1
        else:
            g = random_orbit_graph(rng, max_n=8, max_a=3, max_h=3)
            rate = admissible_cut_rate(rng, g)
        report = verify_bottom_layer_minimal(g, rate)
        ok = ok and report.holds
        instances += 1
        if g.height < 2:
            continue
        minimum = min_weight_cutset(g, rate)
        cut = minimum.cutset
        for j in range(g.height - 1, 0, -1):
            cut = cutset_push(g, cut, rate, j)
            ok = ok and is_cutset(g, cut)
            ok = ok and cut_weight(g, cut, rate) == minimum.weight
            pushes += 1
    ok = ok and pushes >= 100 and perfect >= 25
    _report(5, ok, f"bottom layer is the minimum cutset on {instances} "
                   f"instances ({perfect} exact-power rates); minimality "
                   f"survived {pushes} pushes", started)


def test_criterion_06_dynamical_plunnecke():
    started = time.perf_counter()
    act6 = translation(6)
    pin1 = verify_dyn_plunnecke(act6, gset(6, 0, 1), {"0", "3"}, 1, 2)
    pin2 = verify_restricted_plunnecke(act6, gset(6, 0, 1), {"0"}, {"5"}, 1, 2)
    ok = pin1.holds and (pin1.lhs, pin1.rhs) == (4, 3)
    ok = ok and pin2.holds and (pin2.lhs, pin2.rhs) == (4, 2)
    rng = random.Random(606)
    count = 0
    while count < 300:
        act = random_action(rng)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 5)
        E = random_space_subset(rng, act, 3)
        j = rng.randint(1, 2)
        k = rng.randint(j + 1, 3)
        ok = ok and verify_dyn_plunnecke(act, A, B, j, k).holds
        ok = ok and verify_restricted_plunnecke(act, A, B, E, j, k).holds
        count += 1
    _report(6, ok, f"orbit-growth inequality and restricted variant hold on "
                   f"{count} random instances plus the Z/6 fixtures", started)


def test_criterion_07_heavy_subsets():
    started = time.perf_counter()
    rng = random.Random(707)
    count = 0
    ok = True
    deltas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    while count < 200:
        act = random_action(rng)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 5)
        j = rng.randint(1, 2)
        k = rng.randint(j, 3)
        report = verify_heavy_subset(act, A, B, deltas[count % 3], j, k)
        ok = ok and report.holds and report.details["subset_is_heavy"] \
            and report.details["subset_growth_bounded"]
        count += 1
    _report(7, ok, f"heavy subsets satisfy both postconditions on {count} "
                   "instances across deltas 1/4, 1/2, 3/4", started)


def test_criterion_08_multiplicativity():
    started = time.perf_counter()
    rng = random.Random(808)
    count = 0
    ok = True
    while count < 100:
        act = random_action(rng, max_coords=1, max_n=8)
        act2 = random_action(rng, max_coords=1, max_n=8)
        B = random_space_subset(rng, act, 4)
        B2 = random_space_subset(rng, act2, 4)
        report = verify_multiplicativity(
            act, act2, random_group_subset(rng, act.group, 3),
            random_group_subset(rng, act2.group, 3), B, B2)
        ok = ok and report.holds and len(B) * len(B2) <= 16
        count += 1
    _report(8, ok, f"product ratios multiply exactly on {count} instances",
            started)


def test_criterion_09_different_summands():
    started = time.perf_counter()
    act6 = translation(6)
    pinned = verify_different_summands(act6, [gset(6, 0, 1), gset(6, 0, 2)], {"0"})
    ok = pinned.holds and pinned.lhs == pinned.rhs == 4
    rng = random.Random(909)
    count = 0
    while count < 200:
        act = random_action(rng)
        k = rng.randint(1, 3)
        A_list = [random_group_subset(rng, act.group, 3) for _ in range(k)]
        B = random_space_subset(rng, act, 5)
        ok = ok and verify_different_summands(act, A_list, B).holds
        count += 1
    _report(9, ok, f"mixed-summand bound holds on {count} instances; the Z/6 "
                   "fixture is an exact equality", started)


def test_criterion_10_density_inequalities():
    started = time.perf_counter()
    two_z = PeriodicSet.periodic((2,), [(0,)])
    three_z = PeriodicSet.periodic((3,), [(0,)])
    mod4 = PeriodicSet.periodic((4,), [(0,), (1,)])
    four_z = PeriodicSet.periodic((4,), [(0,)])
    pin1 = verify_density_plunnecke(two_z, three_z, 1, 2)
    pin2 = verify_density_plunnecke(mod4, four_z, 1, 2)
    ok = pin1.holds and (pin1.lhs, pin1.rhs) == (1, Fraction(1, 6))
    ok = ok and pin2.holds and (pin2.lhs, pin2.rhs) == (Fraction(1, 4), Fraction(3, 16))
    rng = random.Random(1010)
    count = 0
    while count < 500:
        dim = rng.randint(1, 2)
        A = random_periodic_set(rng, dim=dim)
        B = random_periodic_set(rng, dim=dim)
        j = rng.randint(1, 2)
        k = rng.randint(j + 1, 3)
        ok = ok and verify_density_plunnecke(A, B, j, k).holds
        A_list = [random_periodic_or_finite(rng, dim=dim)
                  for _ in range(rng.randint(1, 3))]
        base = random_periodic_set(rng, dim=dim, allow_empty=False)
        ok = ok and verify_density_summands(A_list, base).holds
        count += 1
    _report(10, ok, f"both density inequalities hold on {count} random "
                    "periodic instances plus the pinned fixtures", started)


def test_criterion_11_correspondence():
    started = time.perf_counter()
    rng = random.Random(1111)
    count = 0
    ok = True
    while count < 200:
        B = random_periodic_set(rng, dim=1, allow_empty=False)
        A0 = random_periodic_or_finite(rng, dim=1)
        report = verify_correspondence(B, A0)
        ok = ok and report.holds and report.details["base_equality"] \
            and report.details["sum_equality"] and report.details["translate_bound"]
        count += 1
    _report(11, ok, f"all three orbit-system density bridges hold on {count} "
                    "instances", started)


def test_criterion_12_cli_determinism(tmp_path):
    started = time.perf_counter()
    ok = True
    for theorem, seed in (("thm-3.5", 7), ("thm-4.2", 13), ("thm-1.3", 29)):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{theorem}-{tag}.json"
            code = main(["verify", theorem, "--seed", str(seed), "--count", "12",
                         "--out", str(out)])
            ok = ok and code == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    for tag in ("a", "b"):
        code = main(["generate", "orbit", "--seed", "3", "--count", "3",
                     "--dir", str(tmp_path / f"gen-{tag}"),
                     "--out", str(tmp_path / f"gen-{tag}" / "manifest.json")])
        ok = ok and code == 0
    for i in range(3):
        name = f"orbit_0003_{i:04d}.json"
        ok = ok and (tmp_path / "gen-a" / name).read_bytes() == \
            (tmp_path / "gen-b" / name).read_bytes()
    _report(12, ok, "repeated seeded runs produce byte-identical reports and "
                    "instance files", started)
