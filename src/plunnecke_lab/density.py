"""Exact Banach densities for fully periodic subsets of Z^d.

A fully periodic set is determined by a period vector and a residue set, and
its upper and lower Banach densities coincide at |residues| / prod(period):
every period-aligned cube holds exactly the same count, so all cube averages
squeeze to that value.  Finite point sets appear as a density-0 stand-in used
by the trivial branches of the inequalities.

The one-dimensional correspondence system realizes a periodic set as the
finite orbit of its indicator word under the coordinate shift, with the
uniform measure and the clopen cylinder of words that start with 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import HypothesisError, InputError
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
"""Most residue pairs one sumset (or one projection mod p) may add up; the
period box bounds them only by its square, so more are refused up front."""


@dataclass(frozen=True)
class PeriodicSet:
    """{x in Z^d : x mod period in residues}, or (period None) a finite set.

    For the finite variant ``residues`` holds the points themselves; such
    sets carry Banach density zero.
    """

    dim: int
    period: tuple[int, ...] | None
    residues: frozenset[tuple[int, ...]]

    @classmethod
    def periodic(cls, period, residues) -> "PeriodicSet":
        period = tuple(int(p) for p in period)
        if not period or any(p < 1 for p in period):
            raise InputError(f"period must be positive (got {period})")
        check_period_box(period)
        reduced = frozenset(
            tuple(int(x) % p for x, p in zip(_as_vector(r, len(period)), period))
            for r in residues
        )
        return cls(len(period), period, reduced)

    @classmethod
    def finite(cls, dim, points) -> "PeriodicSet":
        dim = int(dim)
        if dim < 1:
            raise InputError(f"dimension must be positive (got {dim})")
        return cls(dim, None, frozenset(_as_vector(p, dim) for p in points))

    @property
    def is_finite(self) -> bool:
        return self.period is None


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


def _as_vector(value, dim: int) -> tuple[int, ...]:
    if isinstance(value, int):
        value = (value,)
    vec = tuple(int(x) for x in value)
    if len(vec) != dim:
        raise InputError(f"point {vec} does not have dimension {dim}")
    return vec


def contains(A: PeriodicSet, point) -> bool:
    point = _as_vector(point, A.dim)
    if A.is_finite:
        return point in A.residues
    return tuple(x % p for x, p in zip(point, A.period)) in A.residues


def normalize(A: PeriodicSet) -> PeriodicSet:
    """Canonical minimal-period form; density is unchanged."""
    if A.is_finite:
        return A
    if not A.residues:
        return PeriodicSet(A.dim, (1,) * A.dim, frozenset())
    new_period = []
    for i in range(A.dim):
        p = A.period[i]
        for q in range(1, p + 1):
            if p % q:
                continue
            shifted = frozenset(
                r[:i] + ((r[i] + q) % p,) + r[i + 1:] for r in A.residues
            )
            if shifted == A.residues:
                new_period.append(q)
                break
    reduced = frozenset(
        tuple(x % q for x, q in zip(r, new_period)) for r in A.residues
    )
    return PeriodicSet(A.dim, tuple(new_period), reduced)


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
    """{x + y mod box : x in xs, y in ys}, coordinatewise."""
    check_pairs(len(xs) * len(ys))
    return frozenset(
        tuple((a + b) % m for a, b, m in zip(x, y, box)) for x in xs for y in ys
    )


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
        return PeriodicSet.finite(
            A.dim,
            (tuple(a + b for a, b in zip(x, y)) for x in A.residues for y in B.residues),
        )
    if A.is_finite:
        A, B = B, A
    if B.is_finite:
        summed = _sum_mod(A.residues, B.residues, A.period)
        return normalize(PeriodicSet(A.dim, A.period, summed))
    box = tuple(gcd(p, q) for p, q in zip(A.period, B.period))
    ra = frozenset(tuple(x % m for x, m in zip(r, box)) for r in A.residues)
    rb = frozenset(tuple(x % m for x, m in zip(r, box)) for r in B.residues)
    return normalize(PeriodicSet(A.dim, box, _sum_mod(ra, rb, box)))


def iterate_sumset(A: PeriodicSet, k: int) -> PeriodicSet:
    if k < 1:
        raise InputError(f"iteration count must be positive (got {k})")
    out = normalize(A)
    for _ in range(k - 1):
        out = periodic_sumset(out, A)
    return out


def window_scan(oracle, side: int, radius: int, dim: int = 1
                ) -> tuple[Fraction, Fraction]:
    """Max and min of |A ∩ cube| / side**dim over all side-cubes within radius.

    A reporting estimate for arbitrary membership oracles, not a certified
    density.  Scans that would call the oracle more than MAX_SCAN_CALLS times
    are refused.
    """
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


def verify_density_plunnecke(A: PeriodicSet, B: PeriodicSet, j: int, k: int,
                             instance: str = "periodic") -> VerificationReport:
    """d(A^j + B) ** k >= d(A^k) ** j * d(B) ** (k - j) for 0 < j < k.

    For fully periodic sets the upper and lower densities coincide, so one
    exact comparison settles both variants.
    """
    if not 0 < j < k:
        raise InputError(f"need 0 < j < k (got j={j}, k={k})")
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


@dataclass(frozen=True)
class ShiftSystem:
    """Finite orbit of a periodic 0/1 word under the coordinate shift.

    ``word`` is one minimal period of the indicator; point t stands for the
    word shifted by t, each carrying measure 1/period.  ``clopen`` collects
    the points whose coordinate at the origin is 1.
    """

    period: int
    word: tuple[int, ...]
    clopen: frozenset[int]

    def measure(self, points) -> Fraction:
        pts = frozenset(int(t) % self.period for t in points)
        return Fraction(len(pts), self.period)

    def shift(self, t: int) -> int:
        return (t + 1) % self.period

    def translate(self, shifts, points) -> frozenset[int]:
        return frozenset(
            (s + t) % self.period for s in shifts for t in points
        )


def _project_mod(A: PeriodicSet, p: int) -> frozenset[int]:
    """Image of a one-dimensional set in Z/p."""
    if A.is_finite:
        return frozenset(pt[0] % p for pt in A.residues)
    q = A.period[0]
    g = gcd(q, p)
    check_pairs(len(A.residues) * (p // g))
    return frozenset((r[0] + g * m) % p for r in A.residues for m in range(p // g))


def _build_shift_system(B: PeriodicSet) -> ShiftSystem:
    if B.dim != 1:
        raise InputError("shift systems are one-dimensional")
    if B.is_finite:
        raise InputError("B must be periodic, not a finite point set")
    if not B.residues:
        raise InputError("B must be nonempty")
    B = normalize(B)
    p = B.period[0]
    word = tuple(1 if (i,) in B.residues else 0 for i in range(p))
    return ShiftSystem(p, word, frozenset(i for i in range(p) if word[i]))


def _correspondence_facts(B: PeriodicSet, A0: PeriodicSet) -> dict:
    if A0.dim != 1:
        raise InputError("translate sets for the correspondence are one-dimensional")
    system = _build_shift_system(B)
    translated = system.translate(_project_mod(A0, system.period), system.clopen)
    return {
        "system": system,
        "mu_clopen": system.measure(system.clopen),
        "d_base": banach_density(B),
        "mu_translated": system.measure(translated),
        "d_sum": banach_density(periodic_sumset(A0, B)),
        "d_translates": banach_density(A0),
    }


def correspondence_system(B: PeriodicSet, A0: PeriodicSet | None = None) -> ShiftSystem:
    """Build the orbit system of B and assert its exact density bridges.

    The clopen set's measure equals the density of B; for a supplied finite
    or periodic A0, the measure of A0 applied to the clopen set equals the
    density of A0 + B and dominates the density of A0.
    """
    if A0 is None:
        A0 = PeriodicSet.finite(1, [(0,)])
    facts = _correspondence_facts(B, A0)
    if facts["mu_clopen"] != facts["d_base"]:
        raise RuntimeError("clopen measure does not match the base density")
    if facts["mu_translated"] != facts["d_sum"]:
        raise RuntimeError("translated clopen measure does not match the sumset density")
    if facts["mu_translated"] < facts["d_translates"]:
        raise RuntimeError("translated clopen measure fell below the translate density")
    return facts["system"]


def verify_correspondence(B: PeriodicSet, A0: PeriodicSet,
                          instance: str = "periodic") -> VerificationReport:
    """Report form of the three correspondence assertions."""
    facts = _correspondence_facts(B, A0)
    base_ok = facts["mu_clopen"] == facts["d_base"]
    sum_ok = facts["mu_translated"] == facts["d_sum"]
    dom_ok = facts["mu_translated"] >= facts["d_translates"]
    return VerificationReport(
        instance=instance,
        theorem="lemma-7.1",
        lhs=facts["mu_translated"],
        rhs=facts["d_sum"],
        holds=base_ok and sum_ok and dom_ok,
        witness=[],
        details={
            "mu_clopen": format_rational(facts["mu_clopen"]),
            "d_base": format_rational(facts["d_base"]),
            "mu_translated": format_rational(facts["mu_translated"]),
            "d_sum": format_rational(facts["d_sum"]),
            "d_translates": format_rational(facts["d_translates"]),
            "base_equality": base_ok,
            "sum_equality": sum_ok,
            "translate_bound": dom_ok,
        },
    )


def shift_system_action(system: ShiftSystem):
    """The system as a cyclic translation action plus its clopen atom set.

    Returns (action, clopen_atoms) with atom ids matching the translation
    action of Z/period, for cross-checks against the dynamical ratios.
    """
    from .dynamics import FinAbGroup, translation_action

    act = translation_action(FinAbGroup((system.period,)))
    return act, frozenset(str(t) for t in sorted(system.clopen))
