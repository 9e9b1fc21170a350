import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mod

import pytest
from hypothesis import given, settings, strategies as st

from plunnecke_lab import (GroupSet, HypothesisError, InputError, PeriodicSet,
                           banach_density, correspondence_system, density,
                           iterate_sumset, move_set, normalize, periodic_sumset,
                           verify_correspondence, verify_density_plunnecke,
                           verify_density_summands, window_scan)
from plunnecke_lab.density import MAX_PERIOD_BOX, MAX_SCAN_CALLS, _point, contains
from plunnecke_lab.dynamics import FinAbGroup, measure, translation_action, validate_action
from plunnecke_lab.generators import (random_periodic_or_finite,
                                      random_periodic_set)
from plunnecke_lab.rational import format_rational

seeds = st.integers(0, 10 ** 9)


def per(period, *residues):
    return PeriodicSet.periodic(period, residues)


two_z = per((2,), (0,))
three_z = per((3,), (0,))
six_z = per((6,), (0,))
z_line = per((1,), (0,))
zero_pt = PeriodicSet.finite(1, [(0,)])


class TestNormalize:
    def test_period_reduction(self):
        assert normalize(per((4,), (0,), (2,))) == per((2,), (0,))

    def test_already_minimal(self):
        a = per((4,), (0,), (1,))
        assert normalize(a) == a

    def test_full_line(self):
        assert normalize(per((6,), *[(i,) for i in range(6)])) == z_line

    def test_two_dimensional(self):
        a = PeriodicSet.periodic((2, 4), [(0, 0), (0, 2), (1, 0), (1, 2)])
        assert normalize(a) == PeriodicSet.periodic((1, 2), [(0, 0)])

    @given(seeds)
    def test_density_is_invariant(self, seed):
        a = random_periodic_set(random.Random(seed))
        assert banach_density(normalize(a)) == banach_density(a)


def normalize_by_divisor_scan(A):
    """Oracle: each axis's minimal period as the first divisor q of p whose
    shift fixes the residues, one shifted set per divisor tried."""
    if A.is_finite:
        return A
    if not A.residues:
        return PeriodicSet(A.dim, (1,) * A.dim, frozenset())
    new_period = []
    for i, p in enumerate(A.period):
        for q in range(1, p + 1):
            if p % q == 0 and A.residues == frozenset(
                    r[:i] + ((r[i] + q) % p,) + r[i + 1:] for r in A.residues):
                new_period.append(q)
                break
    reduced = frozenset(tuple(x % q for x, q in zip(r, new_period)) for r in A.residues)
    return PeriodicSet(A.dim, tuple(new_period), reduced)


def _draw_periodic(rng, dim, cap):
    """A set whose minimal period is often a proper divisor of its period:
    residues drawn in a small box, then lifted to a multiple of it."""
    base = tuple(rng.randint(1, cap) for _ in range(dim))
    cells = list(itertools.product(*map(range, base)))
    drawn = rng.sample(cells, rng.randint(0, len(cells)))
    if rng.random() < 0.3:
        return PeriodicSet.periodic(base, drawn)
    times = tuple(rng.randint(1, cap) for _ in range(dim))
    period = tuple(b * t for b, t in zip(base, times))
    lifted = [tuple(x + k * b for x, k, b in zip(r, ks, base))
              for r in drawn for ks in itertools.product(*map(range, times))]
    return PeriodicSet.periodic(period, lifted)


class TestNormalizeOracle:
    @pytest.mark.parametrize("dim, cap", [(1, 36), (2, 6), (3, 3)])
    def test_prime_descent_matches_the_divisor_scan(self, dim, cap):
        rng = random.Random(f"normalize-{dim}")
        reduced = 0
        for _ in range(300):
            A = _draw_periodic(rng, dim, cap)
            got = normalize(A)
            assert got == normalize_by_divisor_scan(A), A
            reduced += got.period != A.period
        assert reduced >= 100

    def test_pinned_periods(self):
        assert normalize(per((12,), (1,), (5,), (9,))) == per((4,), (1,))
        assert normalize(per((30,), *[(x,) for x in range(0, 30, 5)])) == per((5,), (0,))
        assert normalize(per((8, 9), *[(x, y) for x in (1, 5) for y in (0, 3, 6)])) \
            == per((4, 3), (1, 0))
        assert normalize(per((7,), (0,), (3,))).period == (7,)

    def test_periodic_reduces_like_one_point_at_a_time(self):
        rng = random.Random(7)
        for _ in range(200):
            dim = rng.randint(1, 3)
            period = tuple(rng.randint(1, 9) for _ in range(dim))
            points = [tuple(rng.randint(-40, 40) for _ in range(dim))
                      for _ in range(rng.randint(0, 12))]
            expected = {tuple(x % p for x, p in zip(pt, period)) for pt in points}
            assert PeriodicSet.periodic(period, points).residues == expected


class TestSumsets:
    def test_coprime_progressions_cover_everything(self):
        assert periodic_sumset(two_z, three_z) == z_line

    @pytest.mark.parametrize("k, message", [
        (True, "must be an integer"),  # was read as k = 1
        (2.0, "must be an integer"),  # was a raw TypeError
        ("2", "must be an integer"),
        (0, "must be at least 1"),
    ])
    def test_iteration_count_must_be_a_positive_int(self, k, message):
        with pytest.raises(InputError, match=f"iteration count {message}"):
            iterate_sumset(two_z, k)

    def test_same_progression(self):
        assert periodic_sumset(two_z, two_z) == two_z

    def test_pinned_mod_four(self):
        a = per((4,), (0,), (1,))
        assert periodic_sumset(a, a) == per((4,), (0,), (1,), (2,))

    def test_finite_plus_periodic_is_periodic(self):
        shifted = periodic_sumset(two_z, PeriodicSet.finite(1, [(1,)]))
        assert shifted == per((2,), (1,))

    def test_finite_plus_finite_stays_finite(self):
        got = periodic_sumset(zero_pt, PeriodicSet.finite(1, [(2,), (5,)]))
        assert got.is_finite and got.residues == {(2,), (5,)}

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            periodic_sumset(two_z, PeriodicSet.periodic((2, 2), [(0, 0)]))

    @given(seeds)
    def test_commutative_and_associative(self, seed):
        rng = random.Random(seed)
        a, b, d = (random_periodic_set(rng, dim=1, max_period=8) for _ in range(3))
        assert periodic_sumset(a, b) == periodic_sumset(b, a)
        assert periodic_sumset(periodic_sumset(a, b), d) == \
            periodic_sumset(a, periodic_sumset(b, d))

    @given(seeds)
    def test_density_monotone_when_zero_is_added(self, seed):
        rng = random.Random(seed)
        a = random_periodic_set(rng, dim=1)
        b = random_periodic_set(rng, dim=1, allow_empty=False)
        b_with_zero = PeriodicSet.periodic(b.period, set(b.residues) | {(0,)})
        assert banach_density(periodic_sumset(a, b_with_zero)) >= banach_density(a)


def lcm_box_sumset(A, B):
    """Oracle: A + B with both periodic sets lifted to the lcm of their periods."""
    box = tuple(lcm(p, q) for p, q in zip(A.period, B.period))

    def lift(S):
        reps = [range(L // p) for p, L in zip(S.period, box)]
        return {tuple((r[i] + m[i] * S.period[i]) % box[i] for i in range(S.dim))
                for r in S.residues for m in itertools.product(*reps)}

    summed = {tuple((x + y) % L for x, y, L in zip(a, b, box))
              for a in lift(A) for b in lift(B)}
    return normalize(PeriodicSet(A.dim, box, frozenset(summed)))


def lcm_box_iterate(A, k):
    out = normalize(A)
    for _ in range(k - 1):
        out = lcm_box_sumset(out, A)
    return out


ORACLE_BOX_CAP = 1024  # cells in the lcm box, so the oracle stays quick


def _draw_set(rng, period):
    cells = list(itertools.product(*(range(p) for p in period)))
    return PeriodicSet.periodic(period, rng.sample(cells, rng.randint(0, min(8, len(cells)))))


def _draw_pair(rng, dim, cap):
    """Periods that are unrelated, equal, one dividing the other, or coprime."""
    while True:
        kind = rng.choice(("any", "equal", "divides", "coprime"))
        pa = tuple(rng.randint(1, cap) for _ in range(dim))
        if kind == "any":
            pb = tuple(rng.randint(1, cap) for _ in range(dim))
        elif kind == "equal":
            pb = pa
        elif kind == "divides":
            pb = tuple(p * rng.randint(1, cap // p) for p in pa)
        else:
            pb = tuple(rng.choice([q for q in range(1, cap + 1) if gcd(p, q) == 1])
                       for p in pa)
        box = 1
        for p, q in zip(pa, pb):
            box *= lcm(p, q)
        if box <= ORACLE_BOX_CAP:
            return _draw_set(rng, pa), _draw_set(rng, pb)


class TestGcdBoxSumset:
    @pytest.mark.parametrize("pa, ra, pb, rb", [
        ((6,), [], (4,), [(1,)]),
        ((6,), [(1,)], (4,), []),
        ((7,), [(0,), (3,)], (9,), [(2,)]),
        ((12,), [(0,), (5,)], (12,), [(0,), (7,)]),
        ((5,), [(1,), (2,)], (30,), [(0,), (11,), (29,)]),
        ((2, 3), [(0, 0)], (3, 2), [(1, 1)]),
        ((4, 6), [(0, 0), (1, 3)], (8, 3), [(2, 1)]),
        ((2, 2, 2), [], (3, 5, 7), [(0, 0, 0)]),
        ((4, 4, 6), [(0, 1, 2), (3, 3, 5)], (2, 8, 6), [(1, 0, 0)]),
    ])
    def test_pinned_pairs_match_the_lcm_box(self, pa, ra, pb, rb):
        A, B = per(pa, *ra), per(pb, *rb)
        assert periodic_sumset(A, B) == lcm_box_sumset(A, B)

    @pytest.mark.parametrize("dim, cap, count", [(1, 30, 150), (2, 8, 100), (3, 8, 150)])
    def test_seeded_pairs_match_the_lcm_box(self, dim, cap, count):
        rng = random.Random(f"gcd-box-{dim}")
        for _ in range(count):
            A, B = _draw_pair(rng, dim, cap)
            assert periodic_sumset(A, B) == lcm_box_sumset(A, B), (A, B)

    @pytest.mark.parametrize("dim, cap, count", [(1, 30, 60), (2, 8, 30), (3, 8, 20)])
    def test_seeded_iterates_match_the_lcm_box(self, dim, cap, count):
        rng = random.Random(f"gcd-box-iterate-{dim}")
        for _ in range(count):
            A = _draw_set(rng, tuple(rng.randint(1, cap) for _ in range(dim)))
            for k in range(1, 5):
                assert iterate_sumset(A, k) == lcm_box_iterate(A, k), (A, k)


def _untouched():
    raise AssertionError("the residues were read")
    yield


class TestBudgets:
    def test_period_box_is_refused_before_the_residues_are_read(self):
        with pytest.raises(InputError, match="MAX_PERIOD_BOX"):
            PeriodicSet.periodic((2 ** 10, 2 ** 10 + 1), _untouched())
        with pytest.raises(InputError, match="MAX_PERIOD_BOX"):
            PeriodicSet.periodic((10 ** 18,), _untouched())

    def test_a_box_of_exactly_the_budget_is_accepted(self):
        a = PeriodicSet.periodic((MAX_PERIOD_BOX,), [(3,)])
        assert banach_density(a) == Fraction(1, MAX_PERIOD_BOX)

    @pytest.mark.parametrize("dim, max_period", [(1, MAX_PERIOD_BOX + 1),
                                                 (None, 10 ** 18), (8, 12)])
    def test_generator_refuses_before_drawing(self, dim, max_period):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(InputError, match="MAX_PERIOD_BOX"):
            random_periodic_set(rng, dim=dim, max_period=max_period)
        assert rng.getstate() == state

    def test_scan_budget_is_the_oracle_call_count(self, monkeypatch):
        calls = []

        def counting(pt):
            calls.append(pt)
            return True

        monkeypatch.setattr(density, "MAX_SCAN_CALLS", (2 * 3 - 2 + 2) ** 2 * 2 ** 2)
        assert window_scan(counting, 2, 3, dim=2) == (1, 1)
        assert len(calls) == density.MAX_SCAN_CALLS
        with pytest.raises(InputError, match="MAX_SCAN_CALLS"):
            window_scan(counting, 2, 4, dim=2)
        assert len(calls) == density.MAX_SCAN_CALLS

    def test_sumset_budget_is_the_pair_count(self, monkeypatch):
        monkeypatch.setattr(density, "MAX_SUMSET_PAIRS", 6)
        # periodic + periodic counts the pairs left in the gcd box: 2 * 3
        a, b = per((4,), (0,), (1,)), per((12,), (0,), (1,), (2,))
        assert periodic_sumset(a, b) == z_line
        finite2 = PeriodicSet.finite(1, [(0,), (5,)])
        finite3 = PeriodicSet.finite(1, [(0,), (1,), (2,)])
        assert periodic_sumset(finite2, finite3).residues == {(0,), (1,), (2,), (5,), (6,), (7,)}
        assert periodic_sumset(finite2, b) == normalize(per((12,), (0,), (1,), (2,), (5,), (6,), (7,)))
        assert density._project(per((2,), (0,)), (6,)) == {(0,), (2,), (4,)}
        bigger = PeriodicSet.finite(1, [(0,), (1,), (2,), (3,)])
        for x, y in ((a, per((12,), (0,), (1,), (2,), (3,))), (finite2, bigger),
                     (bigger, b)):
            with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
                periodic_sumset(x, y)
        with pytest.raises(InputError, match="MAX_SUMSET_PAIRS"):
            density._project(per((2,), (0,)), (14,))

    @pytest.mark.parametrize("side, radius, dim", [
        (1, MAX_SCAN_CALLS // 2, 1), (10, 1000, 2), (1, 1, 10 ** 9)])
    def test_scan_past_the_budget_never_calls_the_oracle(self, side, radius, dim):
        def never(pt):
            raise AssertionError("the oracle was called")

        with pytest.raises(InputError, match="MAX_SCAN_CALLS"):
            window_scan(never, side, radius, dim=dim)


class TestIntegerInputs:
    @pytest.mark.parametrize("period, residues", [((2.5,), [(0.7,)]), ((2,), [(0.7,)]),
                                                  ((True,), [(0,)]), ((4,), [(1, "2")]),
                                                  ((4,), [False])])
    def test_periodic_refuses_non_int_values(self, period, residues):
        with pytest.raises(InputError, match="must be integers"):
            PeriodicSet.periodic(period, residues)

    @pytest.mark.parametrize("dim, points", [(1.9, [(1.2,)]), (True, [(1,)]),
                                             (1, [(1.2,)]), (1, [True])])
    def test_finite_refuses_non_int_values(self, dim, points):
        with pytest.raises(InputError, match="must be (an integer|integers)"):
            PeriodicSet.finite(dim, points)

    def test_int_points_and_bare_ints_are_kept(self):
        assert PeriodicSet.periodic((4,), [5, (-2,)]).residues == {(1,), (2,)}
        assert PeriodicSet.finite(2, [(1, -2)]).residues == {(1, -2)}


class TestValidByConstruction:
    @pytest.mark.parametrize("dim, period, residues, message", [
        (1, (4,), frozenset({(1,), (5,)}), "not reduced"),
        (1, (4,), frozenset({(-1,)}), "not reduced"),
        (1, (0,), frozenset(), "period must be positive"),
        (2, (4,), frozenset({(1,)}), "tuple of length 2"),
        (1, [4], frozenset(), "tuple of length 1"),
        (1, (True,), frozenset(), "must be integers"),
        (1, (MAX_PERIOD_BOX + 1,), frozenset(), "MAX_PERIOD_BOX"),
        (0, None, frozenset(), "dimension must be positive"),
        (True, None, frozenset(), "dimension must be an integer"),
        (1, (4,), frozenset({(1.0,)}), "must be integers"),
        (1, (4,), frozenset({(True,)}), "must be integers"),
        (1, (4,), frozenset({1}), "must be a tuple"),
        (1, None, frozenset({(1, 2)}), "dimension 1"),
        (1, (4,), [(1,)], "must be a set"),
    ])
    def test_the_constructor_refuses_malformed_fields(self, dim, period, residues, message):
        with pytest.raises(InputError, match=message):
            PeriodicSet(dim, period, residues)

    def test_well_formed_fields_are_kept(self):
        built = PeriodicSet(1, (4,), {(1,)})
        assert built == PeriodicSet.periodic((4,), [5])
        assert type(built.residues) is frozenset
        assert banach_density(built) == Fraction(1, 4)
        assert PeriodicSet(2, None, frozenset({(1, -2)})) == PeriodicSet.finite(2, [(1, -2)])

    def test_the_package_builds_its_sets_unchecked(self, monkeypatch):
        def checked(_self):
            raise AssertionError("a PeriodicSet was checked")

        monkeypatch.setattr(PeriodicSet, "__post_init__", checked)
        A, B = PeriodicSet.periodic((4,), [0, 1]), PeriodicSet.periodic((6,), [0])
        F = PeriodicSet.finite(1, [(0,), (3,)])
        assert periodic_sumset(A, B) == normalize(per((2,), (0,), (1,)))
        assert periodic_sumset(A, F).residues == {(0,), (1,), (3,)}
        assert periodic_sumset(F, F).residues == {(0,), (3,), (6,)}
        assert normalize(PeriodicSet.periodic((4,), [0, 2])).period == (2,)
        assert normalize(PeriodicSet.periodic((4,), [])).period == (1,)
        with pytest.raises(AssertionError, match="checked"):
            PeriodicSet(1, (4,), frozenset())


class TestBanachDensity:
    def test_pinned_values(self):
        assert banach_density(two_z) == Fraction(1, 2)
        assert banach_density(PeriodicSet.periodic((2, 2), [(0, 0)])) == Fraction(1, 4)
        assert banach_density(per((4,), (0,), (1,))) == Fraction(1, 2)

    def test_finite_sets_have_zero_density(self):
        assert banach_density(zero_pt) == 0


class TestWindowScan:
    def test_even_numbers_with_aligned_window(self):
        upper, lower = window_scan(lambda pt: contains(two_z, pt), 100, 200)
        assert upper == lower == Fraction(1, 2)

    def test_even_numbers_with_odd_window(self):
        upper, lower = window_scan(lambda pt: contains(two_z, pt), 3, 10)
        assert (upper, lower) == (Fraction(2, 3), Fraction(1, 3))

    def test_full_line(self):
        upper, lower = window_scan(lambda pt: True, 7, 9)
        assert upper == lower == 1

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            window_scan(lambda pt: True, 0, 5)
        with pytest.raises(InputError):
            window_scan(lambda pt: True, 5, 4)

    @given(seeds)
    @settings(max_examples=20)
    def test_period_aligned_windows_recover_the_density(self, seed):
        rng = random.Random(seed)
        a = random_periodic_set(rng, dim=rng.randint(1, 2), max_period=4)
        side = a.period[0]
        for p in a.period:
            side = lcm(side, p)
        side = min(side * rng.randint(1, 2), 12)
        for p in a.period:
            if side % p:
                return
        upper, lower = window_scan(lambda pt: contains(a, pt), side, 2 * side, dim=a.dim)
        assert upper == lower == banach_density(a)


def _scan_per_window(oracle, side, radius, dim=1):
    """The scan as it was written before cells were streamed through ``map``:
    one offset list, and one generator-built point per oracle call."""
    origins = range(-radius, radius - side + 2)
    offsets = list(itertools.product(range(side), repeat=dim))
    best = worst = None
    for origin in itertools.product(origins, repeat=dim):
        count = sum(
            1 for off in offsets
            if oracle(tuple(o + d for o, d in zip(origin, off)))
        )
        if best is None or count > best:
            best = count
        if worst is None or count < worst:
            worst = count
    volume = side ** dim
    return Fraction(best, volume), Fraction(worst, volume)


def _recording(A, calls):
    """``contains(A, .)``, appending each point it is asked about to ``calls``."""
    def oracle(pt):
        calls.append(pt)
        return contains(A, pt)
    return oracle


_SCAN_RADIUS_CAP = {1: 12, 2: 8, 3: 4}


class TestScanCallContract:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_values_and_oracle_calls_as_the_per_window_scan(self, dim, seed):
        rng = random.Random(f"scan-contract:{dim}:{seed}")
        radius = rng.randint(2, _SCAN_RADIUS_CAP[dim])
        if seed % 2:
            span = range(-radius - 1, radius + 2)
            cells = list(itertools.product(span, repeat=dim))
            A = PeriodicSet.finite(dim, rng.sample(cells, rng.randint(1, len(cells) // 2)))
        else:
            A = random_periodic_set(rng, dim=dim, max_period=6)
        for side in sorted({1, 2, radius}):
            new_calls, old_calls = [], []
            got = window_scan(_recording(A, new_calls), side, radius, dim=dim)
            assert got == _scan_per_window(_recording(A, old_calls), side, radius, dim)
            assert new_calls == old_calls
            assert len(new_calls) == (2 * radius - side + 2) ** dim * side ** dim

    @pytest.mark.parametrize("hit, miss, expected", [
        (True, False, (Fraction(2, 3), Fraction(1, 3))),
        (2, 0, (Fraction(2, 3), Fraction(1, 3))),
        ("x", None, (Fraction(2, 3), Fraction(1, 3))),
        (2, 2, (1, 1)),
        ("x", "x", (1, 1)),
        (0, 0, (0, 0)),
        (None, None, (0, 0)),
    ])
    def test_each_truthy_value_counts_once(self, hit, miss, expected):
        def oracle(pt):
            return hit if contains(two_z, pt) else miss

        assert window_scan(oracle, 3, 10) == expected
        assert _scan_per_window(oracle, 3, 10) == expected

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 48])
    def test_an_oracle_that_raises_stops_both_scans_at_that_call(self, k):
        # side 2, radius 3, dim 2: 6 ** 2 cubes of 4 cells, 144 calls in all
        for scan in (window_scan, _scan_per_window):
            calls = []

            def oracle(pt):
                calls.append(pt)
                if len(calls) == k:
                    raise LookupError("the k-th call")
                return True

            with pytest.raises(LookupError, match="k-th"):
                scan(oracle, 2, 3, 2)
            assert len(calls) == k

    @pytest.mark.parametrize("point", [1.0, (1.0,), True, (True,), (0, 1.5), [2.0]])
    def test_contains_refuses_float_and_bool_coordinates(self, point):
        for A in (two_z, zero_pt):
            with pytest.raises(InputError, match="must be integers"):
                contains(A, point)


def _contains_by_map(A, point):
    """``contains`` as it was before 1-D and 2-D tuples took a tuple
    display: every point through ``_point``, then reduced with ``map``."""
    point = _point(point, A.dim)
    if A.period is None:
        return point in A.residues
    return tuple(map(mod, point, A.period)) in A.residues


def _outcome(test, A, point):
    """``test(A, point)``, or the class and message of what it raised."""
    try:
        return test(A, point)
    except Exception as exc:
        return type(exc), str(exc)


_HUGE = 10 ** 30


def _probe_points(rng, A):
    """Points in every form ``contains`` may be handed, valid or not."""
    dim = A.dim
    values = [0, 1, -1, 7, -13, _HUGE, -_HUGE - 5, 2 ** 63]
    good = [tuple(rng.choice(values) if rng.random() < 0.3 else rng.randint(-40, 40)
                  for _ in range(dim)) for _ in range(60)]
    good += sorted(A.residues)[:10]
    points = good + [list(p) for p in good[::3]]
    if dim == 1:
        points += [p[0] for p in good[::3]]
    for p in good[:8]:
        for i in range(dim):
            for bad in (True, False, 1.0, -2.5, None, "3"):
                points.append(p[:i] + (bad,) + p[i + 1:])
        points += [p + (0,), p[:-1], list(p + (1,)), [*p[:-1], 2.0]]
    points += [(), [], True, 1.0, None, "x", (1, 2, 3, 4), ((0,),), {0}, range(dim)]
    return points


def _differential_sets(dim):
    rng = random.Random(f"contains-sets:{dim}")
    sets = [random_periodic_set(rng, dim=dim, max_period=9) for _ in range(4)]
    cells = list(itertools.product(range(-6, 7), repeat=dim))
    sets += [PeriodicSet.finite(dim, rng.sample(cells, 9)), PeriodicSet.finite(dim, [])]
    return sets


class TestContainsOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_same_answer_or_error_as_the_map_reduction(self, dim):
        rng = random.Random(f"contains-points:{dim}")
        hits = errors = 0
        for A in _differential_sets(dim):
            for point in _probe_points(rng, A):
                got = _outcome(contains, A, point)
                assert got == _outcome(_contains_by_map, A, point), (A, point)
                if type(got) is bool:
                    hits += got
                else:
                    assert got[0] is InputError, (A, point)
                    errors += 1
        assert hits > 20 and errors > 100

    @pytest.mark.parametrize("dim, side, radius", [(1, 1, 9), (1, 4, 23), (2, 1, 5), (2, 3, 7)])
    def test_scans_match_the_map_reduction(self, dim, side, radius):
        for A in _differential_sets(dim):
            got = window_scan(lambda pt: contains(A, pt), side, radius, dim=dim)
            assert got == window_scan(lambda pt: _contains_by_map(A, pt), side, radius, dim=dim)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_int_tuples_of_one_or_two_skip_the_general_reduction(self, dim, monkeypatch):
        def general(*args):
            raise AssertionError("the general path was taken")

        points = [(x,) * dim for x in range(-5, 6)] + [(_HUGE, -_HUGE)[:dim]]
        cases = [(A, p, _contains_by_map(A, p)) for A in _differential_sets(dim) for p in points]
        assert any(expected for _, _, expected in cases)
        monkeypatch.setattr(density, "_point", general)
        for A, point, expected in cases:
            assert contains(A, point) is expected


class TestScanArguments:
    @pytest.mark.parametrize("side, radius, dim, message", [
        (2.5, 3, 1, "window side must be an integer"),
        (2, 3.0, 1, "search radius must be an integer"),
        (2, 3, 1.5, "dimension must be an integer"),
        (2, 3, -1, "dimension must be positive"),
        (2, 3, 0, "dimension must be positive"),
        (True, 3, 1, "window side must be an integer"),
        (2, True, 1, "search radius must be an integer"),
        (2, 3, True, "dimension must be an integer"),
        ("2", 3, 1, "window side must be an integer"),
        (None, 3, 1, "window side must be an integer"),
        # refused as malformed before the budget would refuse them
        (True, MAX_SCAN_CALLS, 1, "window side must be an integer"),
        (1, MAX_SCAN_CALLS, 0, "dimension must be positive"),
        (1, 2, 10.0 ** 9, "dimension must be an integer"),
    ])
    def test_malformed_arguments_are_refused_before_any_oracle_call(
            self, side, radius, dim, message):
        def never(pt):
            raise AssertionError("the oracle was called")

        with pytest.raises(InputError, match=message):
            window_scan(never, side, radius, dim=dim)


class TestDensityPlunnecke:
    def test_pinned_two_three(self):
        report = verify_density_plunnecke(two_z, three_z, 1, 2, "p1")
        assert report.holds
        assert report.lhs == 1
        assert report.rhs == Fraction(1, 6)

    def test_pinned_mod_four(self):
        a = per((4,), (0,), (1,))
        four_z = per((4,), (0,))
        report = verify_density_plunnecke(a, four_z, 1, 2, "p2")
        assert report.holds
        assert report.lhs == Fraction(1, 4)
        assert report.rhs == Fraction(3, 16)

    def test_full_line_base(self):
        report = verify_density_plunnecke(per((3,), (1,)), z_line, 1, 2, "p3")
        assert report.holds
        assert report.lhs == 1

    def test_finite_base_is_trivially_fine(self):
        assert verify_density_plunnecke(two_z, zero_pt, 1, 2, "p4").holds

    def test_requires_strict_orders(self):
        with pytest.raises(InputError):
            verify_density_plunnecke(two_z, three_z, 2, 2)

    @pytest.mark.parametrize("j, k, message", [
        (1.0, 2.0, "order k must be an integer"),  # was a raw TypeError
        (1, 2.0, "order k must be an integer"),
        (1.0, 2, "order j must be an integer"),
        (True, 2, "order j must be an integer"),
        (1, True, "order k must be an integer"),
        (0, 2, "order j 0 not in 1..1"),
        (3, 2, "order j 3 not in 1..1"),
        (1, 1, "order k must be at least 2"),
    ])
    def test_orders_must_be_ints_with_j_below_k(self, j, k, message):
        with pytest.raises(InputError, match=message):
            verify_density_plunnecke(two_z, three_z, j, k)

    @given(seeds)
    def test_holds_on_random_instances(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 2)
        a = random_periodic_set(rng, dim=dim)
        b = random_periodic_set(rng, dim=dim)
        j = rng.randint(1, 2)
        k = rng.randint(j + 1, 3)
        assert verify_density_plunnecke(a, b, j, k).holds


class TestDensitySummands:
    def test_pinned_equality(self):
        report = verify_density_summands([two_z, three_z], six_z, "s1")
        assert report.holds
        assert report.lhs == report.rhs == Fraction(1, 6)

    def test_single_summand(self):
        report = verify_density_summands([per((4,), (0,), (1,))], two_z, "s2")
        assert report.holds

    def test_identity_point_summands(self):
        report = verify_density_summands([zero_pt, zero_pt], two_z, "s3")
        assert report.holds
        assert report.lhs == 0

    def test_zero_density_base_is_refused(self):
        with pytest.raises(HypothesisError):
            verify_density_summands([two_z], zero_pt)

    @given(seeds)
    def test_holds_on_random_instances(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 2)
        k = rng.randint(1, 3)
        A_list = [random_periodic_or_finite(rng, dim=dim) for _ in range(k)]
        b = random_periodic_set(rng, dim=dim, allow_empty=False)
        assert verify_density_summands(A_list, b).holds


def image_in_box(A: PeriodicSet, box: tuple[int, ...]) -> set[tuple[int, ...]]:
    """A mod box, read off one lcm box of A's period and box: a test oracle
    for density._project."""
    if A.is_finite:
        return {tuple(x % m for x, m in zip(pt, box)) for pt in A.residues}
    span = [lcm(q, m) for q, m in zip(A.period, box)]
    return {tuple(x % m for x, m in zip(pt, box))
            for pt in itertools.product(*map(range, span)) if contains(A, pt)}


def atom_ids(A: PeriodicSet, box: tuple[int, ...]) -> set[str]:
    """Ids of the cells of ``box`` that lie in A."""
    return {",".join(map(str, pt))
            for pt in itertools.product(*map(range, box)) if contains(A, pt)}


class TestCorrespondence:
    def test_two_z_system(self):
        act, clopen = correspondence_system(two_z)
        assert act.group.moduli == (2,)
        assert clopen == {"0"}
        assert measure(act, clopen) == Fraction(1, 2)

    def test_pinned_mod_four(self):
        b = per((4,), (0,), (1,))
        a0 = PeriodicSet.finite(1, [(0,), (1,)])
        report = verify_correspondence(b, a0, "c1")
        assert report.holds
        assert report.lhs == report.rhs == Fraction(3, 4)

    def test_pinned_checkerboard_in_two_dimensions(self):
        b = per((2, 2), (0, 0), (1, 1))
        act, clopen = correspondence_system(b)
        assert act.group.moduli == (2, 2)
        assert clopen == {"0,0", "1,1"}
        a0 = PeriodicSet.finite(2, [(0, 0), (1, 0)])
        report = verify_correspondence(b, a0)
        assert report.holds
        assert report.lhs == report.rhs == 1
        assert report.details["mu_clopen"] == "1/2"

    def test_full_line_is_a_single_point(self):
        act, clopen = correspondence_system(z_line)
        assert act.group.moduli == (1,)
        assert measure(act, clopen) == 1

    def test_default_translate_is_the_origin_of_b(self):
        for b in (two_z, per((3, 2), (0, 1), (2, 0))):
            origin = PeriodicSet.finite(b.dim, [(0,) * b.dim])
            assert correspondence_system(b) == correspondence_system(b, origin)
            assert verify_correspondence(b) == verify_correspondence(b, origin)

    def test_rejects_empty_and_finite_bases(self):
        with pytest.raises(InputError):
            correspondence_system(per((3,)))
        with pytest.raises(InputError):
            correspondence_system(zero_pt)
        with pytest.raises(InputError, match="nonempty"):
            correspondence_system(per((3, 2)))
        with pytest.raises(InputError, match="finite point set"):
            correspondence_system(PeriodicSet.finite(2, [(0, 0)]))

    def test_rejects_a_dimension_mismatch(self):
        b2 = per((2, 2), (0, 0))
        with pytest.raises(InputError, match=r"dimension mismatch \(1 vs 2\)"):
            verify_correspondence(b2, zero_pt)
        with pytest.raises(InputError, match=r"dimension mismatch \(2 vs 1\)"):
            correspondence_system(two_z, PeriodicSet.finite(2, [(0, 0)]))

    def test_shift_is_measure_preserving_bijection(self):
        for b in (per((6,), (0,), (1,), (3,)), per((3, 4), (0, 1), (2, 3))):
            act, _clopen = correspondence_system(b)
            assert validate_action(act) == []
            for perm in act.generator_perms:
                assert set(perm.values()) == set(act.atoms)
                assert all(act.atoms[perm[x]] == act.atoms[x] for x in act.atoms)

    def test_a_failed_bridge_raises_and_reports_false(self, monkeypatch):
        true_density = density.banach_density
        monkeypatch.setattr(density, "banach_density",
                            lambda A: true_density(A) + Fraction(1, 7))
        b, a0 = per((4,), (0,), (1,)), PeriodicSet.finite(1, [(0,), (1,)])
        with pytest.raises(RuntimeError, match="clopen measure does not match"):
            correspondence_system(b, a0)
        report = verify_correspondence(b, a0)
        assert not report.holds
        assert report.details["base_equality"] is False
        assert report.details["sum_equality"] is False
        assert report.details["translate_bound"] is True

    @given(seeds)
    def test_all_three_bridges_hold_on_random_instances(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 2)
        b = random_periodic_set(rng, dim=dim, allow_empty=False)
        a0 = random_periodic_or_finite(rng, dim=dim)
        report = verify_correspondence(b, a0)
        assert report.holds
        assert report.details["base_equality"]
        assert report.details["sum_equality"]
        assert report.details["translate_bound"]

    def test_agrees_with_dynamical_ratio_quantities(self):
        # The system is the translation action of B's period box: the
        # measures of B~ and of A0.B~, formed with move_set on that action,
        # equal the counts verify_correspondence reports, in 1-D and 2-D.
        rng = random.Random(7107)
        for draw in range(400):
            dim = 1 + draw % 2
            b = random_periodic_set(rng, dim=dim, allow_empty=False)
            a0 = random_periodic_or_finite(rng, dim=dim)
            act, clopen = correspondence_system(b, a0)
            box = act.group.moduli
            assert box == normalize(b).period
            assert clopen == atom_ids(b, box)
            moved = move_set(act, GroupSet.of(act.group, image_in_box(a0, box)), clopen)
            details = verify_correspondence(b, a0).details
            assert details["mu_clopen"] == format_rational(measure(act, clopen))
            assert details["mu_translated"] == format_rational(measure(act, moved))

    @pytest.mark.parametrize("dim, cap", [(1, 24), (2, 6)])
    def test_gcd_box_density_matches_move_set_on_the_lcm_box(self, dim, cap):
        # A second route to the densities of thm-1.3 and thm-1.4: lift A and
        # B to the translation action of their lcm box and measure A.B there.
        rng = random.Random(f"lcm-box-move-{dim}")
        drawn = 0
        while drawn < 150:
            A = _draw_set(rng, tuple(rng.randint(1, cap) for _ in range(dim)))
            B = _draw_set(rng, tuple(rng.randint(1, cap) for _ in range(dim)))
            box = tuple(lcm(p, q) for p, q in zip(A.period, B.period))
            if prod(box) > 144:
                continue
            drawn += 1
            act = translation_action(FinAbGroup(box))
            moved = move_set(act, GroupSet.of(act.group, image_in_box(A, box)),
                             atom_ids(B, box))
            assert measure(act, moved) == banach_density(periodic_sumset(A, B)), (A, B)

    def test_projection_matches_the_lcm_box_oracle(self):
        rng = random.Random(7108)
        for draw in range(200):
            dim = 1 + draw % 2
            a0 = random_periodic_or_finite(rng, dim=dim)
            box = random_periodic_set(rng, dim=dim).period
            assert density._project(a0, box) == image_in_box(a0, box)
