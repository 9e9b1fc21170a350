import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from plunnecke_lab import (FinAbGroup, InputError, c, c_delta, jsonio,
                           heavy_subset, is_commutative, iterate,
                           magnification_mincut, move_set, orbit_graph,
                           product_action, product_set,
                           restricted_orbit_subgraph, translation_action,
                           validate, validate_action, verify_different_summands,
                           verify_dyn_plunnecke, verify_heavy_subset,
                           verify_multiplicativity, verify_restricted_plunnecke)
from plunnecke_lab import LayeredMeasureGraph, density, dynamics
from plunnecke_lab.graphcore import induced_subgraph
from plunnecke_lab.dynamics import measure, vec_id
from plunnecke_lab.generators import (random_action, random_cyclic_action,
                                      random_group_subset, random_orbit_graph,
                                      random_space_subset)
from plunnecke_lab.maxflow import FlowNetwork, min_ratio_bruteforce, min_ratio_mincut

from conftest import gset, translation

seeds = st.integers(0, 10 ** 9)


def _sumset_oracle(n, A, B):
    """Direct pairwise sums mod n, independent of the GroupSet machinery."""
    return {(a + b) % n for a in A for b in B}


class TestGroupSets:
    def test_sumset_mod_four(self):
        got = product_set(gset(4, 0, 1), gset(4, 0, 1))
        assert {e[0] for e in got.elements} == _sumset_oracle(4, (0, 1), (0, 1)) == {0, 1, 2}

    def test_three_fold_iterate(self):
        got = iterate(gset(4, 0, 1), 3)
        assert {e[0] for e in got.elements} == {0, 1, 2, 3}

    def test_identity_element(self):
        A = gset(6, 2, 5)
        assert product_set(A, gset(6, 0)).elements == A.elements

    def test_group_mismatch(self):
        with pytest.raises(InputError):
            product_set(gset(4, 0), gset(6, 0))

    def test_zeroth_power_is_identity_singleton(self):
        assert iterate(gset(6, 2, 3), 0).elements == {(0,)}

    def test_sumsets_and_images_keep_the_pair_budget(self, monkeypatch):
        monkeypatch.setattr(density, "MAX_SUMSET_PAIRS", 6)
        A, B = gset(10, 0, 1, 2), gset(10, 0, 5)
        assert len(product_set(A, B).elements) == 6
        assert len(move_set(translation(10), A, {"0", "5"})) == 6
        with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
            product_set(A, A)
        with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
            iterate(A, 2)
        with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
            dynamics.pair_group_set(A, A)
        with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
            move_set(translation(10), A, {"0", "1", "2"})

    @pytest.mark.parametrize("moduli", [("3",), (True,), (3, False), (0,), (2.0,), ()])
    def test_moduli_must_be_positive_ints(self, moduli):
        with pytest.raises(InputError):
            FinAbGroup(moduli)

    @pytest.mark.parametrize("element", [(1.7,), (True,), ("2",)])
    def test_elements_must_have_int_coordinates(self, element):
        with pytest.raises(InputError, match="integer coordinates"):
            dynamics.GroupSet.of(FinAbGroup((4,)), [(1,), element])

    @pytest.mark.parametrize("group, elements, message", [
        (FinAbGroup((4,)), frozenset({(1.5,)}), "integer coordinates"),
        (FinAbGroup((4,)), frozenset({(True,)}), "integer coordinates"),
        (FinAbGroup((4,)), frozenset({(1,), (5,)}), "not reduced"),
        (FinAbGroup((4,)), frozenset({(-1,)}), "not reduced"),
        (FinAbGroup((4,)), frozenset({(1, 0)}), "wrong rank"),
        (FinAbGroup((4, 2)), frozenset({(1,)}), "wrong rank"),
        (FinAbGroup((4,)), frozenset({1}), "not reduced"),
        (FinAbGroup((4,)), [(1,)], "must be a set"),
        ((4,), frozenset({(1,)}), "FinAbGroup"),
    ])
    def test_the_constructor_refuses_what_of_would_not_build(self, group, elements, message):
        with pytest.raises(InputError, match=message):
            dynamics.GroupSet(group, elements)

    def test_a_truncated_translate_no_longer_moves_a_set(self):
        # on Z/4, GroupSet(g, {(1.5,)}) and {(True,)} moved '0' to '1'
        act = translation(4)
        for bad in [(1.5,), (True,)]:
            with pytest.raises(InputError, match="integer coordinates"):
                move_set(act, dynamics.GroupSet(act.group, frozenset({bad})), ["0"])
            with pytest.raises(InputError, match="integer coordinates"):
                act.apply(bad, "0")

    @pytest.mark.parametrize("build", [
        lambda: dynamics.GroupSet.of(FinAbGroup((4,)), [5]),
        lambda: FinAbGroup((4,)).reduce(5),
        lambda: translation_action(FinAbGroup((4,))).apply(5, "0"),
        lambda: dynamics.GroupSet.of("x", [(1,)]),
        lambda: dynamics.GroupSet.of((4,), []),
        lambda: FinAbGroup([4]),
    ], ids=["of-int-element", "reduce-int", "apply-int", "of-str-group", "of-tuple-group",
            "list-moduli"])
    def test_malformed_library_inputs_raise_input_error(self, build):
        # each of these raised a raw TypeError or AttributeError, or was built
        with pytest.raises(InputError):
            build()

    def test_reduced_elements_are_kept(self):
        g = FinAbGroup((4, 3))
        built = dynamics.GroupSet(g, {(1, 2), (3, 0)})
        assert built == dynamics.GroupSet.of(g, [(5, -1), (-1, 3)])
        assert type(built.elements) is frozenset

    def test_the_package_builds_its_sets_unchecked(self, monkeypatch):
        A = gset(6, 1, 2)

        def checked(_self):
            raise AssertionError("a GroupSet was checked")

        monkeypatch.setattr(dynamics.GroupSet, "__post_init__", checked)
        assert dynamics.GroupSet.of(A.group, [(7,)]).elements == {(1,)}
        assert product_set(A, A).elements == {(2,), (3,), (4,)}
        assert iterate(A, 0).elements == {(0,)}
        assert iterate(A, 3).elements == {(3,), (4,), (5,), (0,)}
        assert dynamics.pair_group_set(A, A).elements == {(1, 1), (1, 2), (2, 1), (2, 2)}
        with pytest.raises(AssertionError, match="checked"):
            dynamics.GroupSet(A.group, A.elements)


class TestActions:
    def test_translation_action_shape(self):
        act = translation(6)
        assert len(act.atoms) == 6
        assert set(act.atoms.values()) == {Fraction(1, 6)}
        assert validate_action(act) == []

    def test_product_action_shape(self):
        act = product_action(translation(6), translation(6))
        assert len(act.atoms) == 36
        assert set(act.atoms.values()) == {Fraction(1, 36)}
        assert validate_action(act) == []

    def test_weight_change_is_a_violation(self):
        act = translation(2)
        bad = type(act)(act.group, {"0": Fraction(2, 3), "1": Fraction(1, 3)},
                        act.generator_perms)
        assert any("weight" in v for v in validate_action(bad))

    def test_non_commuting_generators_detected(self):
        group = FinAbGroup((2, 2))
        atoms = {str(i): Fraction(1, 4) for i in range(4)}
        swap01 = {"0": "1", "1": "0", "2": "2", "3": "3"}
        cycle = {"0": "1", "1": "2", "2": "3", "3": "0"}
        bad = translation_action(group)
        bad = type(bad)(group, atoms, (swap01, cycle))
        assert any("commute" in v or "order" in v for v in validate_action(bad))

    @given(seeds)
    def test_random_actions_validate(self, seed):
        assert validate_action(random_action(random.Random(seed))) == []

    def test_int_weights_are_stored_as_fractions(self):
        act = dynamics.FiniteAction(FinAbGroup((2,)), {"0": 1}, ({"0": "0"},))
        assert type(act.atoms["0"]) is Fraction
        assert validate_action(act) == []

    @pytest.mark.parametrize("weight", [0.5, True, "1/2"])
    def test_other_weight_types_are_refused(self, weight):
        with pytest.raises(InputError, match=r"weight of \(0\) must be a Fraction or an int"):
            dynamics.FiniteAction(FinAbGroup((2,)), {"0": weight, "1": weight},
                                  ({"0": "1", "1": "0"},))


class TestActionBudget:
    """Actions past MAX_GROUP_ORDER atoms are refused before any is listed."""

    @pytest.fixture
    def no_listing(self, monkeypatch):
        def refuse(_group):
            raise AssertionError("group elements listed past the budget")

        monkeypatch.setattr(FinAbGroup, "elements", refuse)

    def test_translation_action_refuses_a_huge_group(self, no_listing):
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            translation_action(FinAbGroup((10 ** 9,)))
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            translation_action(FinAbGroup((2 ** 10, 2 ** 10 + 1)))

    def test_product_action_refuses_a_huge_product_space(self, monkeypatch):
        first, second = translation(2 ** 10), translation(2 ** 10 + 1)

        def refuse(_moduli):
            raise AssertionError("product built past the budget")

        # the product's group is built before its atoms
        monkeypatch.setattr(dynamics, "FinAbGroup", refuse)
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            product_action(first, second)

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_GROUP_ORDER", 12)
        assert len(translation_action(FinAbGroup((3, 4))).atoms) == 12
        assert len(product_action(translation(3), translation(4)).atoms) == 12
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            translation_action(FinAbGroup((13,)))
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            product_action(translation(13), translation(1))

    def test_random_cyclic_actions_are_refused_before_any_draw(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} drawn past the budget")

        big = 2 ** 19  # three cycles of this length pass MAX_GROUP_ORDER
        for make in (lambda: random_cyclic_action(NoDraws(), big),
                     lambda: random_action(NoDraws(), max_n=big),
                     lambda: random_action(NoDraws(), max_coords=6),
                     lambda: random_orbit_graph(NoDraws(), max_n=big)):
            with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
                make()

    def test_random_cyclic_action_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_GROUP_ORDER", 12)
        assert validate_action(random_cyclic_action(random.Random(1), 4)) == []
        with pytest.raises(InputError, match="MAX_GROUP_ORDER"):
            random_cyclic_action(random.Random(1), 5)

    def test_a_huge_modulus_on_few_atoms_still_multiplies(self):
        huge = jsonio.action_from_doc({
            "moduli": [10 ** 12], "atoms": [{"id": "x", "weight": "1"}],
            "generators": [{"perm": {"x": "x"}}]})
        assert len(product_action(huge, translation(3)).atoms) == 3


def _walked_order_violations(act):
    """The order check by walking every atom n steps (small moduli only)."""
    found = []
    for i, (perm, n) in enumerate(zip(act.generator_perms, act.group.moduli)):
        for v in sorted(act.atoms):
            w = v
            for _ in range(n):
                w = perm[w]
            if w != v:
                found.append(f"generator {i} order does not divide {n} at ({v})")
                break
    return found


def _sorted_walk_action_violations(act):
    """validate_action's messages from walks over sorted atoms, summing
    weights as Fractions."""
    perms = act.generator_perms
    if len(perms) != act.group.rank:
        return [f"need {act.group.rank} generator permutations (got {len(perms)})"]
    atoms = sorted(act.atoms)
    found = [f"nonpositive weight at ({v})" for v in atoms if act.atoms[v] <= 0]
    total = sum(act.atoms.values(), Fraction(0))
    if total != 1:
        found.append(f"weights must sum to 1 (got {total.numerator}/{total.denominator})")
    for i, perm in enumerate(perms):
        if sorted(perm) != atoms or sorted(perm.values()) != atoms:
            return found + [f"generator {i} is not a permutation of the atoms"]
        found += [f"generator {i} changes the weight of ({v})"
                  for v in atoms if act.atoms[perm[v]] != act.atoms[v]]
    for i, j in combinations(range(len(perms)), 2):
        bad = [v for v in atoms if perms[i][perms[j][v]] != perms[j][perms[i][v]]]
        found += [f"generators {i} and {j} do not commute at ({v})" for v in bad[:1]]
    return found + _walked_order_violations(act)


def _broken_action(rng):
    act = random_action(rng)
    atoms = dict(act.atoms)
    perms = [dict(perm) for perm in act.generator_perms]
    moduli = list(act.group.moduli)
    ids = sorted(atoms)
    for _ in range(rng.randint(1, 4)):
        v, u = rng.choice(ids), rng.choice(ids)
        perm = rng.choice(perms)
        kind = rng.randrange(7)
        if kind == 0:
            atoms[v] = Fraction(rng.randint(-2, 0))
        elif kind == 1:
            atoms[v] = atoms[v] + Fraction(1, rng.randint(2, 5))
        elif kind == 2:  # the same value in a distinct object
            atoms[v] = Fraction(2 * atoms[v].numerator, 2 * atoms[v].denominator)
        elif kind == 3:
            perm[v], perm[u] = perm[u], perm[v]
        elif kind == 4:
            moduli[rng.randrange(len(moduli))] = rng.randint(1, 12)
        elif kind == 5 and rng.random() < 0.3:
            perm[v] = perm[u]
        elif kind == 6 and rng.random() < 0.1:
            perms.pop()
    return dynamics.FiniteAction(FinAbGroup(tuple(moduli)), atoms, tuple(perms))


class TestValidateActionOrder:
    @pytest.mark.parametrize("seed", range(80))
    def test_messages_match_a_sorted_walk(self, seed):
        act = _broken_action(random.Random(f"validate_action:{seed}"))
        assert validate_action(act) == _sorted_walk_action_violations(act)

    def test_the_broken_actions_reach_every_message(self):
        messages = [m for seed in range(80) for m in validate_action(
            _broken_action(random.Random(f"validate_action:{seed}")))]
        for phrase in ("need", "nonpositive weight", "must sum to 1", "not a permutation",
                       "changes the weight", "do not commute", "order does not divide"):
            assert any(phrase in m for m in messages), phrase


class TestCycleTables:
    HUGE = 10 ** 12

    def _fixed_point_action(self):
        return jsonio.action_from_doc({
            "moduli": [self.HUGE], "atoms": [{"id": "x", "weight": "1"}],
            "generators": [{"perm": {"x": "x"}}]})

    def test_huge_modulus_validates_fast(self):
        act = self._fixed_point_action()
        start = time.perf_counter()
        assert validate_action(act) == []
        assert time.perf_counter() - start < 1

    def test_huge_element_applies_fast(self):
        act = self._fixed_point_action()
        start = time.perf_counter()
        assert act.apply((self.HUGE - 1,), "x") == "x"
        assert time.perf_counter() - start < 1

    def test_cycle_length_not_dividing_a_huge_modulus(self):
        act = jsonio.action_from_doc({
            "moduli": [self.HUGE],
            "atoms": [{"id": a, "weight": "1/4"} for a in "wxyz"],
            "generators": [{"perm": {"w": "w", "x": "y", "y": "z", "z": "x"}}]})
        assert validate_action(act) == [
            f"generator 0 order does not divide {self.HUGE} at (x)"]

    @given(seeds)
    def test_order_check_matches_walking(self, seed):
        rng = random.Random(seed)
        act = random_action(rng)
        moduli = tuple(rng.randint(1, 12) for _ in act.group.moduli)
        act = type(act)(FinAbGroup(moduli), act.atoms, act.generator_perms)
        order = [v for v in validate_action(act) if "order" in v]
        assert order == _walked_order_violations(act)

    @given(seeds)
    def test_apply_matches_stepping_the_generators(self, seed):
        rng = random.Random(seed)
        act = random_action(rng)
        for _ in range(20):
            element = tuple(rng.randint(-30, 30) for _ in act.group.moduli)
            x = rng.choice(sorted(act.atoms))
            y = x
            for perm, times in zip(act.generator_perms, act.group.reduce(element)):
                for _ in range(times):
                    y = perm[y]
            assert act.apply(element, x) == y

    def test_apply_on_an_invalid_action_is_an_input_error(self):
        act = translation(3)
        bad = type(act)(FinAbGroup((2,)), act.atoms, act.generator_perms)
        with pytest.raises(InputError, match="order does not divide"):
            bad.apply((1,), "0")
        not_a_perm = type(act)(act.group, act.atoms, ({"0": "1", "1": "1", "2": "0"},))
        with pytest.raises(InputError, match="not a permutation"):
            not_a_perm.apply((1,), "0")

    def test_apply_refuses_a_wrong_rank(self):
        with pytest.raises(InputError, match="wrong rank"):
            translation(3).apply((1, 1), "0")

    def test_validating_then_applying_builds_one_table_per_generator(self, monkeypatch):
        act = product_action(translation(4), translation(3))
        built = []
        table = dynamics._cycle_table

        def counted(perm):
            built.append(perm)
            return table(perm)

        monkeypatch.setattr(dynamics, "_cycle_table", counted)
        assert validate_action(act) == []
        assert act.apply((1, 2), "0|0") == "1|2"
        assert act.violations == ()
        assert act.apply((3, 1), "1|2") == "0|0"
        assert len(built) == 2


def _two_pass_orbit_graph(act, A, Y, h):
    """Oracle for orbit_graph's one pass: layers by move_set, then every edge
    by applying each translate again."""
    layers = [frozenset(Y)]
    for _ in range(h):
        layers.append(move_set(act, A, layers[-1]))
    return LayeredMeasureGraph.build(
        [(f"{x}@{k}", k, act.atoms[x]) for k, layer in enumerate(layers) for x in layer],
        [(f"{x}@{k}", f"{act.apply(a, x)}@{k + 1}", vec_id(a))
         for k in range(h) for x in layers[k] for a in A.elements],
        height=h, labels=[vec_id(a) for a in A.elements])


class TestOrbitGraph:
    def test_o1_shape(self, o1):
        assert [len(o1.layer_set(i)) for i in range(3)] == [1, 2, 3]
        assert len(o1.edges) == 6
        assert validate(o1) == []

    def test_identity_translates_give_a_path(self):
        act = translation(5)
        g = orbit_graph(act, gset(5, 0), {"2"}, 3)
        assert len(g.atoms) == 4
        assert len(g.edges) == 3

    def test_o1_commutative(self, o1):
        assert is_commutative(o1).holds

    def test_one_apply_per_edge(self, monkeypatch):
        act = translation(20)
        A, Y = gset(20, 0, 1, 3), {"0", "5"}
        two_pass = _two_pass_orbit_graph(act, A, Y, 3)
        calls = []
        original = dynamics.FiniteAction.apply

        def counted(self, element, atom):
            calls.append(atom)
            return original(self, element, atom)

        monkeypatch.setattr(dynamics.FiniteAction, "apply", counted)
        g = orbit_graph(act, A, Y, 3)
        assert len(g.edges) == 57
        assert len(calls) == 57
        assert g == two_pass

    def test_edge_budget_is_inclusive(self, monkeypatch):
        # layers {0}, {0..2}, {0..4} with 3 translates: 3 + 9 = 12 edges
        act, A = translation(10), gset(10, 0, 1, 2)
        monkeypatch.setattr(dynamics, "MAX_ORBIT_EDGES", 12)
        assert len(orbit_graph(act, A, {"0"}, 2).edges) == 12
        monkeypatch.setattr(dynamics, "MAX_ORBIT_EDGES", 11)
        with pytest.raises(InputError, match="MAX_ORBIT_EDGES = 11"):
            orbit_graph(act, A, {"0"}, 2)

    def test_edge_budget_refuses_before_forming_the_layer(self, monkeypatch):
        act, A = translation(10), gset(10, 0, 1, 2)
        monkeypatch.setattr(dynamics, "MAX_ORBIT_EDGES", 11)
        applied = []
        original = dynamics.FiniteAction.apply

        def counted(self, element, atom):
            applied.append(atom)
            return original(self, element, atom)

        monkeypatch.setattr(dynamics.FiniteAction, "apply", counted)
        with pytest.raises(InputError, match="12 edges by layer 2"):
            orbit_graph(act, A, {"0"}, 2)
        assert len(applied) == 3  # layer 1's edges only

    @given(seeds)
    def test_matches_the_two_pass_construction(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=2, max_n=8)
        A = random_group_subset(rng, act.group, 3)
        Y = random_space_subset(rng, act, 3)
        h = rng.randint(1, 3)
        assert orbit_graph(act, A, Y, h) == _two_pass_orbit_graph(act, A, Y, h)

    @given(seeds)
    def test_random_orbit_graphs_validate_and_commute(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=1, max_n=10)
        A = random_group_subset(rng, act.group, 3)
        Y = random_space_subset(rng, act, 3)
        g = orbit_graph(act, A, Y, rng.randint(1, 3))
        assert validate(g) == []
        assert is_commutative(g).holds

    @given(seeds)
    def test_multi_coordinate_orbit_graphs_commute(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=2, max_n=6)
        A = random_group_subset(rng, act.group, 3)
        Y = random_space_subset(rng, act, 2)
        g = orbit_graph(act, A, Y, rng.randint(1, 3))
        assert validate(g) == []
        assert is_commutative(g).holds


def _mincut_sizes(monkeypatch):
    """The source count of each min-cut solve dynamics makes from now on."""
    sizes = []
    solver = dynamics.min_ratio_mincut

    def spy(sources, *args, **kwargs):
        sizes.append(len(sources))
        return solver(sources, *args, **kwargs)

    monkeypatch.setattr(dynamics, "min_ratio_mincut", spy)
    return sizes


def _both_solvers(act, A, B, drop=frozenset()):
    """Each ratio solver's result on c's neighbour relation."""
    neighbors = {b: move_set(act, A, {b}) - drop for b in B}
    brute = min_ratio_bruteforce(sorted(B), neighbors, act.atoms)
    mincut = min_ratio_mincut(sorted(B), neighbors, act.atoms)
    return brute, mincut


class TestMeasure:
    def test_each_atom_counts_once(self):
        act = translation(4)
        # ['0', '0'] summed the atom twice, to 1/2
        assert measure(act, ["0", "0"]) == measure(act, {"0"}) == Fraction(1, 4)

    def test_an_unknown_atom_is_an_input_error(self):
        with pytest.raises(InputError, match=r"unknown atom \(nope\)"):
            measure(translation(4), {"nope"})

    @pytest.mark.parametrize("atoms, message", [
        ({"nope", 3}, r"unknown atom \(nope\)"),
        ({3, 4}, r"unknown atom \(3\)"),
        ({"zz", "nope", "0"}, r"unknown atom \(nope\)"),
        (5, "atom set must be an iterable"),
        (None, "atom set must be an iterable"),
        ("01", "atom set must be a collection of ids, not a str"),
        ([["0"]], "atom ids must be hashable"),
    ])
    def test_a_malformed_atom_set_is_an_input_error(self, atoms, message):
        act = translation(6)
        for read in (lambda S: measure(act, S), lambda S: move_set(act, gset(6, 1), S)):
            with pytest.raises(InputError, match=message):
                read(atoms)


_ORDER_CHECKS = {
    "verify_dyn_plunnecke":
        lambda act, j, k: verify_dyn_plunnecke(act, gset(6, 0, 1), {"0"}, j, k),
    "verify_restricted_plunnecke":
        lambda act, j, k: verify_restricted_plunnecke(act, gset(6, 0, 1), {"0"}, {"0"}, j, k),
    "_grow_heavy_subset":
        lambda act, j, k: dynamics._grow_heavy_subset(act, gset(6, 0, 1), {"0"},
                                                      Fraction(1, 2), j, k),
}


class TestOrders:
    @pytest.mark.parametrize("name", sorted(_ORDER_CHECKS))
    @pytest.mark.parametrize("j, k, message", [
        (True, 2, r"order j must be an integer \(got True\)"),
        (1, True, r"order k must be an integer \(got True\)"),
        (1.0, 2.0, r"order j must be an integer \(got 1.0\)"),
        (1, 2.0, r"order k must be an integer \(got 2.0\)"),
        ("1", 2, "order j must be an integer"),
        (None, 2, "order j must be an integer"),
        (0, 2, r"need 0 < j <= k \(got j=0, k=2\)"),
        (3, 2, r"need 0 < j <= k \(got j=3, k=2\)"),
    ])
    def test_orders_must_be_ints_with_0_lt_j_le_k(self, name, j, k, message):
        with pytest.raises(InputError, match=message):
            _ORDER_CHECKS[name](translation(6), j, k)

    @pytest.mark.parametrize("name", sorted(_ORDER_CHECKS))
    def test_int_orders_are_accepted(self, name):
        _ORDER_CHECKS[name](translation(6), 1, 2)


class TestMagnificationRatio:
    def test_pinned_z6_values(self):
        act = translation(6)
        result = c(act, gset(6, 0, 1), {"0", "3"})
        assert result.value == 2
        assert result.witness == {"0"}
        assert c(act, gset(6, 0), {"0", "3"}).value == 1
        assert c(act, gset(6, 0, 1, 2), {"0", "3"}).value == 3

    def test_methods_agree(self, monkeypatch):
        mincut_sizes = _mincut_sizes(monkeypatch)
        act24 = translation(24)
        cases = [(translation(6), gset(6, 0, 1), {"0", "2", "3"})]
        # one B on each side of c's enumeration cut-off of 10 atoms
        cases += [(act24, gset(24, 0, 1, 5),
                   random.Random(size).sample(sorted(act24.atoms), size)) for size in (10, 11)]
        for act, A, B in cases:
            brute, mincut = _both_solvers(act, A, B)
            assert brute == mincut
            result = c(act, A, B)
            assert result == brute
        assert mincut_sizes == [11]

    @given(seeds)
    def test_methods_agree_with_a_drop_set(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_n=12)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 12)
        pool = sorted(act.atoms)
        drop = frozenset(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
        brute, mincut = _both_solvers(act, A, B, drop)
        assert brute == mincut
        result = c(act, A, B, drop=drop)
        assert result == brute

    def test_drop_atoms_are_checked(self):
        act = translation(6)
        with pytest.raises(InputError):
            c(act, gset(6, 0, 1), {"0"}, drop={"nowhere"})

    @given(seeds)
    def test_matches_orbit_graph_magnification(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=1, max_n=8)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 4)
        h = rng.randint(1, 3)
        j = rng.randint(1, h)
        g = orbit_graph(act, A, B, h)
        direct = c(act, iterate(A, j), B).value
        assert magnification_mincut(g, j).value == direct
        one_layer = orbit_graph(act, iterate(A, j), B, 1)
        assert magnification_mincut(one_layer, 1).value == direct


def _c_delta_oracle(act, A, B, delta):
    """Every heavy subset by itertools.combinations, images by act.apply."""
    total = sum(act.atoms[x] for x in B)
    best = None
    for r in range(1, len(B) + 1):
        for combo in combinations(sorted(B), r):
            weight = sum(act.atoms[x] for x in combo)
            if weight < delta * total:
                continue
            img = {act.apply(a, x) for a in A.elements for x in combo}
            ratio = sum(act.atoms[y] for y in img) / weight
            if best is None or ratio < best:
                best = ratio
    return best


class TestHeavyRatio:
    @given(seeds, st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    @settings(max_examples=30)
    def test_matches_combination_enumeration(self, seed, delta):
        rng = random.Random(seed)
        act = random_action(rng, max_n=10)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 7)
        assert c_delta(act, A, B, delta) == _c_delta_oracle(act, A, B, delta)

    def test_delta_one_forces_full_set(self):
        act = translation(6)
        A = gset(6, 0, 1)
        B = {"0", "3"}
        expected = measure(act, move_set(act, A, B)) / measure(act, B)
        assert c_delta(act, A, B, 1) == expected

    def test_tiny_delta_matches_plain_ratio(self):
        act = translation(6)
        A = gset(6, 0, 1)
        B = {"0", "3"}
        assert c_delta(act, A, B, Fraction(1, 100)) == c(act, A, B).value

    def test_pinned_three_quarters(self):
        act = translation(6)
        assert c_delta(act, gset(6, 0, 1, 3), {"0", "1"}, Fraction(3, 4)) == Fraction(5, 2)

    def test_refuses_past_the_brute_force_limit_before_any_image(self, monkeypatch):
        def no_images(*_args):
            raise AssertionError("an image was formed")

        monkeypatch.setattr(dynamics, "move_set", no_images)
        act = translation(24)
        with pytest.raises(InputError, match="<= 20"):
            c_delta(act, gset(24, 0, 1), [str(x) for x in range(21)], Fraction(1, 2))

    @given(seeds, st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    @settings(max_examples=30)
    def test_monotone_in_delta_and_bounded_below_by_c(self, seed, delta):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=1, max_n=8)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 5)
        small = c_delta(act, A, B, Fraction(1, 1000))
        assert small == c(act, A, B).value
        assert c_delta(act, A, B, delta) >= small
        if delta < 1:
            assert c_delta(act, A, B, delta) <= c_delta(act, A, B, 1)


class TestRestrictedRatio:
    def test_empty_restriction_is_plain_c(self):
        act = translation(6)
        A = gset(6, 0, 1)
        B = {"0", "3"}
        assert c(act, A, B, drop=frozenset()).value == c(act, A, B).value

    def test_full_restriction_is_zero(self):
        act = translation(6)
        assert c(act, gset(6, 0, 1), {"0"}, drop=set(act.atoms)).value == 0

    def test_pinned_singleton(self):
        act = translation(6)
        assert c(act, gset(6, 0, 1), {"0"}, drop={"1"}).value == 1


class TestDynPlunnecke:
    def test_pinned_z6(self):
        act = translation(6)
        report = verify_dyn_plunnecke(act, gset(6, 0, 1), {"0", "3"}, 1, 2, "z6")
        assert report.holds
        assert (report.lhs, report.rhs) == (4, 3)

    def test_pinned_z6_two_step(self):
        act = translation(6)
        report = verify_dyn_plunnecke(act, gset(6, 0, 3), {"0"}, 1, 2, "z6b")
        assert report.holds
        assert (report.lhs, report.rhs) == (4, 2)

    def test_equal_orders_are_trivially_equal(self):
        act = translation(6)
        report = verify_dyn_plunnecke(act, gset(6, 0, 1), {"0"}, 2, 2, "eq")
        assert report.holds and report.lhs == report.rhs

    @given(seeds)
    def test_holds_on_random_instances(self, seed):
        rng = random.Random(seed)
        act = random_action(rng)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 5)
        j = rng.randint(1, 2)
        k = rng.randint(j + 1, 3)
        assert verify_dyn_plunnecke(act, A, B, j, k).holds


def _sumset_restricted_subgraph(act, A, B, E, k):
    """Oracle: the orbit graph kept at B, and at layer j at the sumset image
    A^j.B minus A^(j-1).E, each formed afresh from iterate."""
    full = orbit_graph(act, A, B, k)
    keep = {f"{x}@0" for x in frozenset(B)}
    for j in range(1, k + 1):
        layer_atoms = move_set(act, iterate(A, j), B) - move_set(act, iterate(A, j - 1), E)
        keep |= {f"{x}@{j}" for x in layer_atoms}
    return induced_subgraph(full, keep & set(full.atoms))


class TestRestrictedPlunnecke:
    @given(seeds)
    def test_subgraph_matches_the_sumset_construction(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=2, max_n=8)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 4)
        E = random_space_subset(rng, act, 3) if rng.random() < 0.8 else frozenset()
        k = rng.randint(1, 3)
        assert (restricted_orbit_subgraph(act, A, B, E, k)
                == _sumset_restricted_subgraph(act, A, B, E, k))

    def test_subgraph_forms_no_iterated_sumset(self, monkeypatch):
        monkeypatch.setattr(dynamics, "iterate", None)
        sub = restricted_orbit_subgraph(translation(6), gset(6, 0, 1), {"0"}, {"5"}, 3)
        assert sorted(sub.layer_set(3)) == ["2@3", "3@3"]

    def test_pinned_z6(self):
        act = translation(6)
        report = verify_restricted_plunnecke(act, gset(6, 0, 1), {"0"}, {"5"}, 1, 2, "r")
        assert report.holds
        assert (report.lhs, report.rhs) == (4, 2)

    def test_empty_restriction_reduces_to_unrestricted(self):
        act = translation(6)
        A, B = gset(6, 0, 1), {"0", "3"}
        restricted = verify_restricted_plunnecke(act, A, B, frozenset(), 1, 2, "e")
        plain = verify_dyn_plunnecke(act, A, B, 1, 2, "e")
        assert (restricted.lhs, restricted.rhs) == (plain.lhs, plain.rhs)

    def test_unrestricted_subgraph_is_whole_orbit_graph(self, o1, z4_act):
        sub = restricted_orbit_subgraph(z4_act, gset(4, 0, 1), {"0"}, frozenset(), 2)
        assert sub == o1

    @given(seeds)
    def test_holds_and_subgraph_commutes_on_random_instances(self, seed):
        rng = random.Random(seed)
        act = random_action(rng)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 4)
        E = random_space_subset(rng, act, 3) if rng.random() < 0.8 else frozenset()
        j = rng.randint(1, 2)
        k = rng.randint(j + 1, 3)
        report = verify_restricted_plunnecke(act, A, B, E, j, k)
        assert report.holds
        assert report.details["restricted_subgraph_commutative"]

    def test_ratios_past_the_cut_off_skip_the_witness(self, monkeypatch):
        calls = []
        max_flow = FlowNetwork.max_flow

        def counted(net, *args, **kwargs):
            calls.append(args)
            return max_flow(net, *args, **kwargs)

        monkeypatch.setattr(FlowNetwork, "max_flow", counted)
        act = translation(48)
        rng = random.Random(0)
        B = rng.sample(sorted(act.atoms), 20)
        E = rng.sample(sorted(act.atoms), 6)
        report = verify_restricted_plunnecke(act, gset(48, 0, 1, 5), B, E, 1, 2)
        assert report.details == {
            "j": 1, "k": 2, "c_j_restricted": "17/11", "c_k_restricted": "7/5",
            "restricted_subgraph_commutative": True}
        # one max-flow per Dinkelbach round; a witness would take 37 more
        assert len(calls) <= 4


class TestHeavySubset:
    def test_pinned_z6(self):
        act = translation(6)
        chosen = heavy_subset(act, gset(6, 0, 1), {"0", "3"}, Fraction(1, 2), 1, 2)
        assert chosen <= {"0", "3"}
        assert measure(act, chosen) >= Fraction(1, 2) * Fraction(2, 6)

    def test_tiny_delta_keeps_initial_witness(self):
        act = translation(6)
        chosen = heavy_subset(act, gset(6, 0, 1), {"0", "3"}, Fraction(1, 100), 1, 2)
        assert chosen == {"0"}

    def test_identity_translates(self):
        act = translation(6)
        chosen = heavy_subset(act, gset(6, 0), {"0", "1", "2"}, Fraction(2, 3), 1, 2)
        assert measure(act, chosen) >= Fraction(2, 3) * Fraction(3, 6)

    @given(seeds, st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
    @settings(max_examples=30)
    def test_postconditions_on_random_instances(self, seed, delta):
        rng = random.Random(seed)
        act = random_action(rng)
        A = random_group_subset(rng, act.group, 3)
        B = random_space_subset(rng, act, 5)
        j = rng.randint(1, 2)
        k = rng.randint(j, 3)
        report = verify_heavy_subset(act, A, B, delta, j, k)
        assert report.holds
        assert report.details["subset_is_heavy"]
        assert report.details["subset_growth_bounded"]


class TestMultiplicativity:
    def test_pinned_two_copies(self):
        act = translation(6)
        report = verify_multiplicativity(act, act, gset(6, 0, 1), gset(6, 0, 1),
                                         {"0", "3"}, {"0", "3"}, "m")
        assert report.holds
        assert report.lhs == report.rhs == 4

    def test_identity_factor(self):
        act = translation(6)
        report = verify_multiplicativity(act, act, gset(6, 0, 1), gset(6, 0),
                                         {"0", "3"}, {"0", "1"}, "i")
        assert report.holds
        assert report.lhs == c(act, gset(6, 0, 1), {"0", "3"}).value * 1

    def test_single_atom_second_base(self):
        act = translation(6)
        report = verify_multiplicativity(act, act, gset(6, 0, 1), gset(6, 0, 2),
                                         {"0", "3"}, {"1"}, "s")
        assert report.holds

    def test_size_limit_refusal(self):
        act = translation(6)
        with pytest.raises(InputError):
            verify_multiplicativity(act, act, gset(6, 0), gset(6, 0),
                                    set(act.atoms), set(act.atoms), "big")

    def test_products_up_to_the_bound_take_min_cuts(self, monkeypatch):
        sizes = _mincut_sizes(monkeypatch)
        act = translation(6)
        B, B2 = {"0", "2", "3", "5"}, {"0", "1", "4", "5"}
        assert len(B) * len(B2) == dynamics.MAX_PRODUCT_BASE
        # the 4-atom factors enumerate, so lhs == rhs pits the two solvers
        report = verify_multiplicativity(act, act, gset(6, 0, 1), gset(6, 0, 2), B, B2)
        assert report.holds
        assert sizes == [16]
        with pytest.raises(InputError, match="MAX_PRODUCT_BASE"):
            verify_multiplicativity(act, act, gset(6, 0, 1), gset(6, 0, 2),
                                    B | {"1"}, B2)

    @given(seeds)
    @settings(max_examples=25)
    def test_exact_equality_on_random_instances(self, seed):
        rng = random.Random(seed)
        act = random_action(rng, max_coords=1, max_n=8)
        act2 = random_action(rng, max_coords=1, max_n=8)
        B = random_space_subset(rng, act, 4)
        B2 = random_space_subset(rng, act2, 4)
        report = verify_multiplicativity(
            act, act2, random_group_subset(rng, act.group, 3),
            random_group_subset(rng, act2.group, 3), B, B2)
        assert report.holds


class TestDifferentSummands:
    def test_pinned_equality(self):
        act = translation(6)
        report = verify_different_summands(act, [gset(6, 0, 1), gset(6, 0, 2)], {"0"}, "p")
        assert report.holds
        assert report.lhs == report.rhs == 4

    def test_single_summand(self):
        act = translation(6)
        assert verify_different_summands(act, [gset(6, 0, 1)], {"0", "3"}).holds

    def test_identity_summands(self):
        act = translation(6)
        report = verify_different_summands(act, [gset(6, 0)] * 3, {"0", "2"})
        assert report.holds
        assert report.lhs == report.rhs == 1

    @given(seeds)
    def test_holds_on_random_instances(self, seed):
        rng = random.Random(seed)
        act = random_action(rng)
        k = rng.randint(1, 3)
        A_list = [random_group_subset(rng, act.group, 3) for _ in range(k)]
        B = random_space_subset(rng, act, 5)
        assert verify_different_summands(act, A_list, B).holds
