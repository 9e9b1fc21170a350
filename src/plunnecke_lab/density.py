"""Exact Banach densities for fully periodic subsets of Z^d.

A fully periodic set is determined by a period vector and a residue set, and
its upper and lower Banach densities coincide at |residues| / prod(period):
every period-aligned cube holds exactly the same count, so all cube averages
squeeze to that value.  Finite point sets appear as a density-0 stand-in used
by the trivial branches of the inequalities.

The correspondence system realizes a periodic set B of any dimension as the
translation action of its minimal period box Z/p_1 x ... x Z/p_d on itself,
with the uniform measure and the clopen set of B's residues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mod, truth

from .errors import HypothesisError, InputError, require_iterable, require_order
from .rational import format_rational
from .reports import VerificationReport

MAX_PERIOD_BOX = 2 ** 20
"""Most cells (the product of the periods) a periodic set's period box may hold.

Sumsets, normalization and the orbit system all walk the period box, so a
larger box is refused as an input error before any residue is read.
"""

MAX_SCAN_CALLS = 10 ** 7
"""Most membership-oracle calls one ``window_scan`` may make.

A scan makes ``(2 * radius - side + 2) ** dim * side ** dim`` calls; a larger
scan is refused as an input error before the oracle is called.
"""

MAX_SUMSET_PAIRS = 10 ** 7
"""Most residue pairs one sumset (or one projection into a period box, per
axis) may add up; the period box bounds them only by its square, so more are
refused up front."""


@dataclass(frozen=True)
class PeriodicSet:
    """{x in Z^d : x mod period in residues}, or (period None) a finite set.

    For the finite variant ``residues`` holds the points themselves; such
    sets carry Banach density zero.  The constructor refuses, with
    InputError, a ``dim`` that is not a positive int, a period that is not a
    tuple of ``dim`` positive ints or whose box passes MAX_PERIOD_BOX, and
    a residue that is not a tuple of ``dim`` ints, or not reduced into the
    period box.  ``periodic`` and ``finite`` check and reduce their inputs
    themselves; they and the package's own sums and normal forms build
    unchecked (``_unchecked``).
    """

    dim: int
    period: tuple[int, ...] | None
    residues: frozenset[tuple[int, ...]]

    def __post_init__(self):
        dim, period = self.dim, self.period
        _check_dim(dim)
        if period is not None:
            if type(period) is not tuple or len(period) != dim:
                raise InputError(f"period must be a tuple of length {dim} (got {period!r})")
            _check_period(period)
        if not isinstance(self.residues, (set, frozenset)):
            raise InputError(f"residues must be a set (got {self.residues!r})")
        object.__setattr__(self, "residues", frozenset(self.residues))
        for r in self.residues:
            if type(r) is not tuple:
                raise InputError(f"residue {r!r} must be a tuple")
            _point(r, dim)
            if period is not None and any(not 0 <= x < p for x, p in zip(r, period)):
                raise InputError(f"residue {r} is not reduced mod {period}")

    @classmethod
    def _unchecked(cls, dim: int, period, residues: frozenset) -> "PeriodicSet":
        """A PeriodicSet of fields already checked and reduced, built as is."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)
        return self

    @classmethod
    def periodic(cls, period, residues) -> "PeriodicSet":
        period = tuple(require_iterable(period, "period"))
        _check_period(period)
        points = [_point(r, len(period)) for r in require_iterable(residues, "residues")]
        return cls._unchecked(len(period), period, _reduce(points, period))

    @classmethod
    def finite(cls, dim, points) -> "PeriodicSet":
        _check_dim(dim)
        return cls._unchecked(dim, None, frozenset(
            _point(p, dim) for p in require_iterable(points, "points")))

    @property
    def is_finite(self) -> bool:
        return self.period is None


def _check_dim(dim) -> None:
    if type(dim) is not int:
        raise InputError(f"dimension must be an integer (got {dim!r})")
    if dim < 1:
        raise InputError(f"dimension must be positive (got {dim})")


def _check_period(period: tuple) -> None:
    if any(type(p) is not int for p in period):
        raise InputError(f"period entries must be integers (got {period})")
    if not period or any(p < 1 for p in period):
        raise InputError(f"period must be positive (got {period})")
    check_period_box(period)


def check_period_box(period) -> None:
    """Raise InputError if the periods multiply past MAX_PERIOD_BOX cells.

    ``period`` may be any iterable of positive ints; the product is formed
    one axis at a time and stops at the first axis past the limit.
    """
    box = 1
    for p in period:
        box *= p
        if box > MAX_PERIOD_BOX:
            raise InputError(
                f"period box has more than {MAX_PERIOD_BOX} cells (MAX_PERIOD_BOX)")


def _point(value, dim: int) -> tuple[int, ...]:
    """``value``, an int or a tuple or list of ints, as a point of ``Z^dim``;
    anything else raises InputError.  A tuple is checked without a copy."""
    vec = value if type(value) is tuple else tuple(value) if type(value) is list else (value,)
    for x in vec:
        if type(x) is not int:
            raise InputError(f"coordinates must be integers (got {vec})")
    if len(vec) != dim:
        raise InputError(f"point {vec} does not have dimension {dim}")
    return vec


def contains(A: PeriodicSet, point) -> bool:
    """Whether ``point`` lies in ``A``: its residue mod ``A.period`` (or, for
    a finite set, the point itself) is one of ``A.residues``.

    ``point`` is a tuple or list of ``A.dim`` ints, or a bare int when
    ``A.dim`` is 1.  A coordinate that is not an int (a bool, a float) and
    a point of another length are refused with InputError, as any other
    value is.  A tuple of one or two ints, the points ``window_scan``
    passes for every set the generators draw, is reduced with a tuple
    display of ``x % p`` terms: that builds no ``map`` iterator and calls
    no ``_point``, which halves the cost of a membership test.  Every other
    form goes through ``_point`` and ``map``, with the same answers and
    the same messages.
    """
    dim, period = A.dim, A.period
    if dim < 3 and type(point) is tuple and len(point) == dim:
        if dim == 1:
            (x,) = point
            if type(x) is int:
                return (point if period is None else (x % period[0],)) in A.residues
        else:
            x, y = point
            if type(x) is int and type(y) is int:
                return (point if period is None
                        else (x % period[0], y % period[1])) in A.residues
    point = _point(point, dim)
    if period is None:
        return point in A.residues
    return tuple(map(mod, point, period)) in A.residues


def _reduce(points, box) -> frozenset[tuple[int, ...]]:
    """{x mod box : x in points}, reduced one axis column at a time."""
    columns = [[x % m for x in column] for column, m in zip(zip(*points), box)]
    return frozenset(zip(*columns))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing ``n``, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def _invariant(residues, axis: int, step: int, p: int) -> bool:
    """Whether shifting every residue by ``step`` along ``axis`` (mod p) keeps
    it in ``residues``; the shift is a bijection, so it then fixes the set."""
    return all(r[:axis] + ((r[axis] + step) % p,) + r[axis + 1:] in residues
               for r in residues)


def normalize(A: PeriodicSet) -> PeriodicSet:
    """Canonical minimal-period form; density is unchanged.

    The shifts along axis i that fix the residues form a subgroup of Z/p_i,
    so the minimal period q_i divides p_i and the invariant periods are its
    multiples.  Starting from p_i, q is divided by each prime r of p_i for
    as long as the shift by s = q/r still fixes the residues, which ends at
    q_i.  A shift by s moves each residue along an orbit of p_i/s of them,
    so it is tried only when p_i/s divides their count.
    """
    if A.is_finite:
        return A
    if not A.residues:
        return PeriodicSet._unchecked(A.dim, (1,) * A.dim, frozenset())
    count = len(A.residues)
    new_period = []
    for i, p in enumerate(A.period):
        q = p
        for r in _prime_factors(p):
            while (q % r == 0 and count % (p // (q // r)) == 0
                   and _invariant(A.residues, i, q // r, p)):
                q //= r
        new_period.append(q)
    if new_period == list(A.period):
        return A
    return PeriodicSet._unchecked(A.dim, tuple(new_period), _reduce(A.residues, new_period))


def banach_density(A: PeriodicSet) -> Fraction:
    """|residues| / prod(period); upper and lower densities agree for this class."""
    if A.is_finite:
        return Fraction(0)
    return Fraction(len(A.residues), prod(A.period))


def check_pairs(count: int, what: str = "residue sum") -> None:
    """Raise InputError if ``what`` would add up more than MAX_SUMSET_PAIRS pairs."""
    if count > MAX_SUMSET_PAIRS:
        raise InputError(f"{what} needs more than {MAX_SUMSET_PAIRS} pairs "
                         f"(MAX_SUMSET_PAIRS)")


def _sum_mod(xs, ys, box: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """{x + y mod box : x in xs, y in ys}, built one axis column at a time."""
    check_pairs(len(xs) * len(ys))
    axes = [[(a + b) % m for a in xa for b in ya]
            for xa, ya, m in zip(zip(*xs), zip(*ys), box)]
    return frozenset(zip(*axes))


def periodic_sumset(A: PeriodicSet, B: PeriodicSet) -> PeriodicSet:
    """Exact sumset; the result is normalized.

    periodic + finite stays periodic with the same period; finite + finite
    stays finite.  periodic + periodic is computed in the gcd box: A + B is
    invariant under translation by each period, hence by their gcd g on each
    axis (Bezout), so x lies in A + B exactly when x mod g lies in
    (A mod g) + (B mod g).
    """
    if A.dim != B.dim:
        raise InputError(f"dimension mismatch ({A.dim} vs {B.dim})")
    if A.is_finite and B.is_finite:
        check_pairs(len(A.residues) * len(B.residues))
        return PeriodicSet._unchecked(A.dim, None, frozenset(
            tuple(a + b for a, b in zip(x, y)) for x in A.residues for y in B.residues))
    if A.is_finite:
        A, B = B, A
    if B.is_finite:
        summed = _sum_mod(A.residues, B.residues, A.period)
        return normalize(PeriodicSet._unchecked(A.dim, A.period, summed))
    box = tuple(gcd(p, q) for p, q in zip(A.period, B.period))
    summed = _sum_mod(_reduce(A.residues, box), _reduce(B.residues, box), box)
    return normalize(PeriodicSet._unchecked(A.dim, box, summed))


def iterate_sumset(A: PeriodicSet, k: int) -> PeriodicSet:
    require_order(k, 1, None, "iteration count")
    out = normalize(A)
    for _ in range(k - 1):
        out = periodic_sumset(out, A)
    return out


def window_scan(oracle, side: int, radius: int, dim: int = 1
                ) -> tuple[Fraction, Fraction]:
    """Max and min of |A ∩ cube| / side**dim over all side-cubes within radius.

    A reporting estimate for arbitrary membership oracles, not a certified
    density.  The cubes' origins run over ``[-radius, radius - side + 1]^dim``
    in ``itertools.product`` order, and the oracle is called once for each
    cell of each cube, in ``itertools.product`` order within the cube:
    ``(2 * radius - side + 2) ** dim * side ** dim`` calls, each counted
    once if its value is truthy, with the cells streamed through ``map`` and
    counted by ``sum`` in C.  ``side``, ``radius`` and ``dim`` must be ints
    with ``1 <= side <= radius`` and ``dim >= 1``; anything else, and a scan
    that would call the oracle more than MAX_SCAN_CALLS times, is refused
    with InputError before the oracle is called.
    """
    for name, value in (("window side", side), ("search radius", radius)):
        if type(value) is not int:
            raise InputError(f"{name} must be an integer (got {value!r})")
    _check_dim(dim)
    if side < 1:
        raise InputError(f"window side must be at least 1 (got {side})")
    if radius < side:
        raise InputError(f"search radius {radius} is smaller than the side {side}")
    calls = 1
    for _ in range(dim):
        calls *= (2 * radius - side + 2) * side
        if calls > MAX_SCAN_CALLS:
            raise InputError(f"window scan needs more than {MAX_SCAN_CALLS} "
                             f"oracle calls (MAX_SCAN_CALLS)")
    spans = [range(o, o + side) for o in range(-radius, radius - side + 2)]
    volume = side ** dim
    best, worst = 0, volume
    for cube in itertools.product(spans, repeat=dim):
        count = sum(map(truth, map(oracle, itertools.product(*cube))))
        if count > best:
            best = count
        if count < worst:
            worst = count
    return Fraction(best, volume), Fraction(worst, volume)


def verify_density_plunnecke(A: PeriodicSet, B: PeriodicSet, j: int, k: int,
                             instance: str = "periodic") -> VerificationReport:
    """d(A^j + B) ** k >= d(A^k) ** j * d(B) ** (k - j) for 0 < j < k.

    For fully periodic sets the upper and lower densities coincide, so one
    exact comparison settles both variants.
    """
    require_order(k, 2, None, "order k")
    require_order(j, 1, k - 1, "order j")
    if A.dim != B.dim:
        raise InputError(f"dimension mismatch ({A.dim} vs {B.dim})")
    d_mixed = banach_density(periodic_sumset(iterate_sumset(A, j), B))
    d_iter = banach_density(iterate_sumset(A, k))
    d_base = banach_density(B)
    lhs = d_mixed ** k
    rhs = d_iter ** j * d_base ** (k - j)
    return VerificationReport(
        instance=instance,
        theorem="thm-1.3",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        witness=[],
        details={
            "j": j, "k": k,
            "d_sum": format_rational(d_mixed),
            "d_iterate": format_rational(d_iter),
            "d_base": format_rational(d_base),
        },
    )


def verify_density_summands(A_list: list[PeriodicSet], B: PeriodicSet,
                            instance: str = "periodic") -> VerificationReport:
    """d(A_1 + ... + A_k) * d(B) ** (k-1) <= prod_i d(A_i + B)."""
    if not A_list:
        raise InputError("need at least one summand")
    if any(A.dim != B.dim for A in A_list):
        raise InputError("dimension mismatch among summands")
    d_base = banach_density(B)
    if d_base == 0:
        raise HypothesisError(
            "B has zero density; the bound is vacuous there",
            payload={"d_base": "0/1"})
    total = A_list[0]
    for A in A_list[1:]:
        total = periodic_sumset(total, A)
    k = len(A_list)
    lhs = banach_density(total) * d_base ** (k - 1)
    rhs = Fraction(1)
    for A in A_list:
        rhs *= banach_density(periodic_sumset(A, B))
    return VerificationReport(
        instance=instance,
        theorem="thm-1.4",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        witness=[],
        details={"k": k, "d_total": format_rational(banach_density(total)),
                 "d_base": format_rational(d_base)},
    )


def _project(A0: PeriodicSet, box: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Image of ``A0`` in Z/box_1 x ... x Z/box_d.

    A periodic ``A0`` is invariant under its period q_i on axis i, so its
    image mod box_i is invariant under gcd(q_i, box_i) (Bezout): the image
    is A0's residues plus every multiple of those gcds.
    """
    if A0.is_finite:
        return _sum_mod(A0.residues, [(0,) * A0.dim], box)
    steps = [range(0, m, gcd(q, m)) for q, m in zip(A0.period, box)]
    return _sum_mod(A0.residues, list(itertools.product(*steps)), box)


def _correspondence_facts(B: PeriodicSet, A0: PeriodicSet | None
                          ) -> tuple[PeriodicSet, dict, dict]:
    """B in normalized form, the five measures and the three bridge verdicts.

    The system is the translation action on B's period box with the uniform
    measure, and B~ is the clopen set of B's residues, so A0.B~ is the sum of
    A0's image with those residues and every measure is a count over the box.
    A0 defaults to the origin of B's dimension.
    """
    if A0 is None:
        A0 = PeriodicSet.finite(B.dim, [(0,) * B.dim])
    if A0.dim != B.dim:
        raise InputError(f"dimension mismatch ({A0.dim} vs {B.dim})")
    if B.is_finite:
        raise InputError("B must be periodic, not a finite point set")
    if not B.residues:
        raise InputError("B must be nonempty")
    base = normalize(B)
    cells = prod(base.period)
    translated = _sum_mod(_project(A0, base.period), base.residues, base.period)
    measures = {
        "mu_clopen": Fraction(len(base.residues), cells),
        "d_base": banach_density(B),
        "mu_translated": Fraction(len(translated), cells),
        "d_sum": banach_density(periodic_sumset(A0, B)),
        "d_translates": banach_density(A0),
    }
    bridges = {
        "base_equality": measures["mu_clopen"] == measures["d_base"],
        "sum_equality": measures["mu_translated"] == measures["d_sum"],
        "translate_bound": measures["mu_translated"] >= measures["d_translates"],
    }
    return base, measures, bridges


def correspondence_system(B: PeriodicSet, A0: PeriodicSet | None = None):
    """B's orbit system as (translation action, clopen atom ids), bridges asserted.

    The action is Z/p_1 x ... x Z/p_d translating itself, p being B's minimal
    period, and the clopen set holds B's residues.  Its measure equals the
    density of B; the measure of A0 applied to it equals the density of
    A0 + B and dominates the density of A0.  A0 defaults to the origin.
    """
    from .dynamics import FinAbGroup, translation_action, vec_id

    base, _measures, bridges = _correspondence_facts(B, A0)
    if not bridges["base_equality"]:
        raise RuntimeError("clopen measure does not match the base density")
    if not bridges["sum_equality"]:
        raise RuntimeError("translated clopen measure does not match the sumset density")
    if not bridges["translate_bound"]:
        raise RuntimeError("translated clopen measure fell below the translate density")
    act = translation_action(FinAbGroup(base.period))
    return act, frozenset(map(vec_id, base.residues))


def verify_correspondence(B: PeriodicSet, A0: PeriodicSet | None = None,
                          instance: str = "periodic") -> VerificationReport:
    """Report form of the three correspondence assertions; A0 defaults to the origin."""
    _base, measures, bridges = _correspondence_facts(B, A0)
    return VerificationReport(
        instance=instance,
        theorem="lemma-7.1",
        lhs=measures["mu_translated"],
        rhs=measures["d_sum"],
        holds=all(bridges.values()),
        witness=[],
        details={**{key: format_rational(m) for key, m in measures.items()}, **bridges},
    )
