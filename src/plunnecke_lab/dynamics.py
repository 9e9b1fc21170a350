"""Finite abelian group actions and their magnification ratios.

A group Z/n_1 x ... x Z/n_d acts on a finite atomic probability space by
weight-preserving permutations, one permutation per coordinate generator.
Orbit graphs of such actions are the canonical commutative layered graphs,
and the dynamical ratio c(A, B) = min over nonempty B' of mu(A.B')/mu(B')
mirrors the bottom-layer magnification of those graphs exactly.

Actions are read-only, like graphs: each one validates itself once and
keeps a cycle table per generator, so applying a group element costs one
lookup per coordinate whatever its size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from . import maxflow
from .commutativity import is_commutative
from .density import check_pairs
from .errors import InputError, require_ids, require_iterable, require_order
from .graphcore import LayeredMeasureGraph, induced_subgraph
from .maxflow import MagnificationResult, min_ratio_bruteforce, min_ratio_mincut
from .rational import exact_sum, exact_weights, format_rational, parse_rational, to_integers
from .reports import VerificationReport

SpaceSet = frozenset[str]

_ENUMERATE_MAX = 10    # c enumerates subsets up to this |B|, takes min-cuts above
MAX_PRODUCT_BASE = 16  # the most atoms in lemma-6.1's B x B2
# The most atoms a constructed action may have: a translation action has one
# per group element, a product action one per pair of factor atoms.
MAX_GROUP_ORDER = 2 ** 20
MAX_ORBIT_EDGES = 2 ** 18  # the most edges orbit_graph forms


def vec_id(vec: tuple[int, ...]) -> str:
    return ",".join(map(str, vec))


@dataclass(frozen=True)
class FinAbGroup:
    """Z/n_1 x ... x Z/n_d with componentwise addition."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if (type(self.moduli) is not tuple or not self.moduli
                or any(type(n) is not int or n < 1 for n in self.moduli)):
            raise InputError(
                f"moduli must be a nonempty tuple of positive integers (got {self.moduli!r})")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vec) -> tuple[int, ...]:
        try:
            vec = tuple(vec)
        except TypeError:
            raise InputError(f"element {vec!r} must be a tuple of integers") from None
        if len(vec) != self.rank:
            raise InputError(f"element {vec} has wrong rank for moduli {self.moduli}")
        if any(type(x) is not int for x in vec):
            raise InputError(f"element {vec} must have integer coordinates")
        return tuple(x % n for x, n in zip(vec, self.moduli))

    def add(self, u, v) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(u, v, self.moduli))

    def elements(self):
        return itertools.product(*(range(n) for n in self.moduli))


def _require_group(group) -> None:
    if type(group) is not FinAbGroup:
        raise InputError(f"group must be a FinAbGroup (got {group!r})")


@dataclass(frozen=True)
class GroupSet:
    """A finite subset of a group, stored as reduced residue vectors.

    The constructor refuses, with InputError, a ``group`` that is not a
    FinAbGroup, ``elements`` that are not a set, and any element that is not
    a tuple of ints (bools refused) of the group's rank, reduced mod its
    moduli; ``GroupSet.of`` reduces first.  The package's own sums and
    products, already reduced, are built unchecked (``_unchecked``).
    """

    group: FinAbGroup
    elements: frozenset[tuple[int, ...]]

    def __post_init__(self):
        _require_group(self.group)
        if not isinstance(self.elements, (set, frozenset)):
            raise InputError(f"elements must be a set (got {self.elements!r})")
        object.__setattr__(self, "elements", frozenset(self.elements))
        for e in self.elements:
            if type(e) is not tuple or self.group.reduce(e) != e:
                raise InputError(f"element {e!r} is not reduced mod {self.group.moduli}")

    @classmethod
    def of(cls, group: FinAbGroup, elements) -> "GroupSet":
        _require_group(group)
        return cls._unchecked(group, frozenset(
            group.reduce(e) for e in require_iterable(elements, "elements")))

    @classmethod
    def _unchecked(cls, group: FinAbGroup, elements: frozenset) -> "GroupSet":
        """A GroupSet of elements already reduced, built without the checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)
        return self


def product_set(A: GroupSet, B: GroupSet) -> GroupSet:
    """Exact sumset {a + b} inside the common group.

    Refuses more than density.MAX_SUMSET_PAIRS pairs before forming any.
    """
    if A.group != B.group:
        raise InputError("sets live in different groups")
    check_pairs(len(A.elements) * len(B.elements), "translate sumset")
    g = A.group
    return GroupSet._unchecked(g, frozenset(g.add(a, b) for a in A.elements for b in B.elements))


def iterate(A: GroupSet, k: int) -> GroupSet:
    """k-fold sumset; k = 0 gives the identity singleton."""
    require_order(k, 0, None, "iteration count")
    if k == 0:
        return GroupSet._unchecked(A.group, frozenset({A.group.identity()}))
    out = A
    for _ in range(k - 1):
        out = product_set(out, A)
    return out


@dataclass(frozen=True)
class FiniteAction:
    """A group acting by weight-preserving permutations on a probability space.

    One permutation per coordinate generator; the permutations must commute
    pairwise and have orders dividing their moduli, so they extend to a
    well-defined action of the whole group.  Weights are stored as
    Fractions: ints are converted, and any other type raises InputError, as
    does a field of the wrong type; structure is checked on first use.
    """

    group: FinAbGroup
    atoms: Mapping[str, Fraction]
    generator_perms: tuple[Mapping[str, str], ...]

    __hash__ = None

    def __post_init__(self):
        _require_group(self.group)
        object.__setattr__(self, "atoms", MappingProxyType(exact_weights(self.atoms)))
        try:
            perms = tuple(MappingProxyType(dict(perm)) for perm in self.generator_perms)
        except (TypeError, ValueError):
            raise InputError("generator_perms must be a sequence of mappings") from None
        object.__setattr__(self, "generator_perms", perms)

    def __reduce__(self):
        return (type(self), (self.group, dict(self.atoms),
                             tuple(dict(perm) for perm in self.generator_perms)))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate_action(self))

    @cached_property
    def _cycle_tables(self) -> tuple[dict[str, tuple[tuple[str, ...], int]], ...]:
        return tuple(_cycle_table(perm) for perm in self.generator_perms)

    @cached_property
    def _cycles(self) -> tuple[dict[str, tuple[tuple[str, ...], int]], ...]:
        require_valid_action(self)
        return self._cycle_tables

    def apply(self, element, atom: str) -> str:
        """``element . atom``; raises InputError on an invalid action, and on
        an unknown or unhashable ``atom``.

        Every cycle's length divides its modulus, so a tuple ``element`` is
        used unreduced; any other sequence is read by ``FinAbGroup.reduce``.
        """
        cycles = self._cycles
        if type(element) is not tuple or len(element) != len(cycles):
            element = self.group.reduce(element)  # raises unless a sequence of that rank
        for table, times in zip(cycles, element):
            if type(times) is not int:
                raise InputError(f"element {element} must have integer coordinates")
            try:
                cycle, at = table[atom]
            except KeyError:  # only the given atom can be unknown
                raise InputError(f"unknown atom ({atom})") from None
            except TypeError as exc:
                raise InputError(f"atom ids must be hashable ({exc})") from None
            atom = cycle[(at + times) % len(cycle)]
        return atom


def _cycle_table(perm: Mapping[str, str]) -> dict[str, tuple[tuple[str, ...], int]]:
    """Atom -> (its cycle under ``perm``, its position in that cycle).

    ``perm`` must be a permutation; on anything else the walk may not end.
    """
    table: dict[str, tuple[tuple[str, ...], int]] = {}
    for start in perm:
        if start in table:
            continue
        cycle = [start]
        v = perm[start]
        while v != start:
            cycle.append(v)
            v = perm[v]
        frozen = tuple(cycle)
        for at, v in enumerate(frozen):
            table[v] = (frozen, at)
    return table


def validate_action(act: FiniteAction) -> list[str]:
    found: list[str] = []
    if len(act.generator_perms) != act.group.rank:
        found.append(
            f"need {act.group.rank} generator permutations (got {len(act.generator_perms)})")
        return found
    # sort only what is found; an atom and its image usually share one weight
    weights = act.atoms
    atoms = set(weights)
    pairs = [w.as_integer_ratio() for w in weights.values()]
    for v in sorted(v for v, (num, _den) in zip(weights, pairs) if num <= 0):
        found.append(f"nonpositive weight at ({v})")
    ints, scale = to_integers(pairs)
    total = sum(ints)
    if total != scale:
        found.append(f"weights must sum to 1 (got {format_rational(Fraction(total, scale))})")
    for i, perm in enumerate(act.generator_perms):
        if set(perm) != atoms or set(perm.values()) != atoms:
            found.append(f"generator {i} is not a permutation of the atoms")
            return found
        for v in sorted(v for v, w in weights.items()
                        if (u := weights[perm[v]]) is not w and u != w):
            found.append(f"generator {i} changes the weight of ({v})")
    for i in range(len(act.generator_perms)):
        for j in range(i + 1, len(act.generator_perms)):
            pi, pj = act.generator_perms[i], act.generator_perms[j]
            bad = [v for v in atoms if pi[pj[v]] != pj[pi[v]]]
            if bad:
                found.append(f"generators {i} and {j} do not commute at ({min(bad)})")
    # every generator permutes the atoms, so its cycle table can be built;
    # perm^n fixes v iff the length of v's cycle divides n
    for i, (table, n) in enumerate(zip(act._cycle_tables, act.group.moduli)):
        bad = [v for v, (cycle, _at) in table.items() if n % len(cycle)]
        if bad:
            found.append(f"generator {i} order does not divide {n} at ({min(bad)})")
    return found


def require_valid_action(act: FiniteAction) -> None:
    if act.violations:
        raise InputError("invalid action: " + "; ".join(act.violations))


def _check_atoms(act: FiniteAction, S: Iterable[str]) -> SpaceSet:
    return require_ids(S, act.atoms, "atom")


def _base_set(act: FiniteAction, B: Iterable[str]) -> SpaceSet:
    """``B`` as a nonempty set of atoms of the valid action ``act``."""
    require_valid_action(act)
    B = _check_atoms(act, B)
    if not B:
        raise InputError("B must be nonempty")
    return B


def _check_orders(j: int, k: int) -> None:
    """Refuse orders that are not ints (bools too) or not ``0 < j <= k``."""
    require_order(j, 1, None, "order j")
    require_order(k, j, None, "order k")


def _check_group_set(act: FiniteAction, A: GroupSet) -> None:
    if A.group != act.group:
        raise InputError("translate set lives in a different group")


def move_set(act: FiniteAction, A: GroupSet, S: Iterable[str]) -> SpaceSet:
    """A.S = {a.x : a in A, x in S}; distributes over unions of atoms.

    Refuses more than density.MAX_SUMSET_PAIRS pairs before forming any.
    """
    _check_group_set(act, A)
    S = _check_atoms(act, S)
    check_pairs(len(A.elements) * len(S), "translate image")
    return frozenset(act.apply(a, x) for a in A.elements for x in S)


def measure(act: FiniteAction, S: Iterable[str]) -> Fraction:
    """mu(S), each atom counted once; an unknown atom raises InputError."""
    return _measure(act, _check_atoms(act, S))


def _measure(act: FiniteAction, S: SpaceSet) -> Fraction:
    """mu(S) of a checked set, such as a ``move_set`` result."""
    return exact_sum(map(act.atoms.__getitem__, S))


def check_action_size(size: int, what: str) -> None:
    """Raise InputError if ``what`` would have more than MAX_GROUP_ORDER atoms."""
    if size > MAX_GROUP_ORDER:
        raise InputError(f"{what} would have {size} atoms, over "
                         f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")


def translation_action(group: FinAbGroup) -> FiniteAction:
    """The group acting on itself by addition, with uniform weights.

    Refuses a group of more than MAX_GROUP_ORDER elements before listing any.
    Adding the i-th unit vector rotates each run of n_i * stride elements, in
    ``group.elements()`` order, by stride, the product of the later moduli.
    """
    check_action_size(group.order, "translation action")
    ids = [vec_id(e) for e in group.elements()]
    perms = []
    for i, n in enumerate(group.moduli):
        stride = math.prod(group.moduli[i + 1:])
        images = []
        for start in range(0, len(ids), n * stride):
            run = ids[start:start + n * stride]
            images += run[stride:] + run[:stride]
        perms.append(dict(zip(ids, images)))
    return FiniteAction(group, dict.fromkeys(ids, Fraction(1, group.order)), tuple(perms))


def product_action(first: FiniteAction, second: FiniteAction) -> FiniteAction:
    """Direct-sum group acting coordinatewise on the product space.

    Refuses a product space of more than MAX_GROUP_ORDER atoms before
    building any.
    """
    check_action_size(len(first.atoms) * len(second.atoms), "product action")
    group = FinAbGroup(first.group.moduli + second.group.moduli)
    # one product per distinct pair of factor weights, shared by its atoms
    column: dict[Fraction, int] = {}
    kinds = [column.setdefault(wy, len(column)) for wy in second.atoms.values()]
    rows: dict[Fraction, list[Fraction]] = {}
    atoms = {}
    for x, wx in first.atoms.items():
        row = rows.get(wx)
        if row is None:
            row = rows[wx] = [wx * wy for wy in column]
        for y, k in zip(second.atoms, kinds):
            atoms[f"{x}|{y}"] = row[k]
    perms = []
    for perm in first.generator_perms:
        perms.append({f"{x}|{y}": f"{perm[x]}|{y}" for x in first.atoms for y in second.atoms})
    for perm in second.generator_perms:
        perms.append({f"{x}|{y}": f"{x}|{perm[y]}" for x in first.atoms for y in second.atoms})
    return FiniteAction(group, atoms, tuple(perms))


def pair_group_set(A: GroupSet, B: GroupSet) -> GroupSet:
    """A x B inside the direct sum of the two groups.

    Refuses more than density.MAX_SUMSET_PAIRS pairs before forming any.
    """
    check_pairs(len(A.elements) * len(B.elements), "translate product")
    group = FinAbGroup(A.group.moduli + B.group.moduli)
    return GroupSet._unchecked(group, frozenset(a + b for a in A.elements for b in B.elements))


def pair_space_set(S: Iterable[str], T: Iterable[str]) -> SpaceSet:
    return frozenset(f"{x}|{y}" for x in S for y in T)


def orbit_graph(act: FiniteAction, A: GroupSet, Y: Iterable[str], h: int
                ) -> LayeredMeasureGraph:
    """Layered graph on (atom, k) for atom in A^k.Y, with a-labelled steps.

    Vertex ids are "atom@k"; labels are the translate vectors. The result is
    always a valid commutative graph.  A graph of more than MAX_ORBIT_EDGES
    edges is refused before the first layer that would pass it is formed.
    """
    require_valid_action(act)
    _check_group_set(act, A)
    if not A.elements:
        raise InputError("translate set A must be nonempty")
    Y = _check_atoms(act, Y)
    if not Y:
        raise InputError("base set Y must be nonempty")
    require_order(h, 1, None, "height")
    labels = [(a, vec_id(a)) for a in A.elements]
    layer = Y
    vertices = [(f"{x}@0", 0, act.atoms[x]) for x in Y]
    edges = []
    for k in range(h):
        if len(edges) + len(layer) * len(labels) > MAX_ORBIT_EDGES:
            raise InputError(
                f"orbit graph would have {len(edges) + len(layer) * len(labels)} edges "
                f"by layer {k + 1}, over MAX_ORBIT_EDGES = {MAX_ORBIT_EDGES}")
        # one apply per edge gives both layer k+1 and the edges into it
        after = set()
        up = f"@{k + 1}"
        for x in layer:
            tail = f"{x}@{k}"
            for a, label in labels:
                y = act.apply(a, x)
                after.add(y)
                edges.append((tail, y + up, label))
        vertices += [(f"{y}@{k + 1}", k + 1, act.atoms[y]) for y in after]
        layer = after
    return LayeredMeasureGraph.build(
        vertices, edges, height=h, labels=[label for _, label in labels])


def restricted_orbit_subgraph(act: FiniteAction, A: GroupSet, B: Iterable[str],
                              E: Iterable[str], k: int) -> LayeredMeasureGraph:
    """Orbit graph on (A, B, k) restricted to B at the bottom and, at layer j,
    to A^j.B minus A^(j-1).E; layer j of the orbit graph is A^j.B already."""
    E = _check_atoms(act, E)
    full = orbit_graph(act, A, B, k)
    drop = set()
    for j in range(1, k + 1):
        if j > 1:
            E = move_set(act, A, E)
        drop |= {f"{x}@{j}" for x in E}
    return induced_subgraph(full, set(full.atoms) - drop)


def _ratio(act: FiniteAction, A: GroupSet, B: Iterable[str],
           drop: Iterable[str] = frozenset(), witness: bool = True) -> MagnificationResult:
    """c(A, B) minus ``drop``; ``witness=False`` skips a min-cut witness (None)."""
    B = _base_set(act, B)
    drop = _check_atoms(act, drop)
    neighbors = {b: move_set(act, A, frozenset([b])) - drop for b in B}
    if len(B) <= _ENUMERATE_MAX:
        return min_ratio_bruteforce(sorted(B), neighbors, act.atoms)
    return min_ratio_mincut(sorted(B), neighbors, act.atoms, witness=witness)


def c(act: FiniteAction, A: GroupSet, B: Iterable[str],
      drop: Iterable[str] = frozenset()) -> MagnificationResult:
    """Magnification ratio: min over nonempty B' of mu(A.B' minus drop) / mu(B').

    The default empty ``drop`` gives the plain ratio c(A, B); a nonempty one
    gives the restricted ratio of thm-4.3.  The witness is the lex-min B'
    whichever solver ran: subsets for |B| <= 10, iterated min-cuts above.
    """
    return _ratio(act, A, B, drop)


def c_delta(act: FiniteAction, A: GroupSet, B: Iterable[str], delta) -> Fraction:
    """Heavy magnification ratio: only subsets with mu(B') >= delta * mu(B) compete.

    Brute force over subsets (knapsack-flavoured constraint), so a B of more
    than maxflow.BRUTE_FORCE_LIMIT atoms is refused before any image is formed.
    """
    delta = parse_rational(delta)
    if not 0 < delta <= 1:
        raise InputError(f"delta must lie in (0, 1] (got {delta})")
    B = _base_set(act, B)
    if len(B) > maxflow.BRUTE_FORCE_LIMIT:
        raise InputError(f"heavy ratio is brute force only; |B| <= {maxflow.BRUTE_FORCE_LIMIT}")
    neighbors = {b: move_set(act, A, frozenset([b])) for b in B}
    return min_ratio_bruteforce(sorted(B), neighbors, act.atoms, min_share=delta).value


def verify_dyn_plunnecke(act: FiniteAction, A: GroupSet, B: Iterable[str],
                         j: int, k: int, instance: str = "action"
                         ) -> VerificationReport:
    """Check c(A^j, B) ** k >= c(A^k, B) ** j for 0 < j <= k."""
    _check_orders(j, k)
    low = c(act, iterate(A, j), B)
    high = c(act, iterate(A, k), B)
    lhs, rhs = low.value ** k, high.value ** j
    return VerificationReport(
        instance=instance,
        theorem="thm-4.2",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        witness=sorted(high.witness),
        details={
            "j": j, "k": k,
            "c_j": format_rational(low.value),
            "c_k": format_rational(high.value),
            "witness_j": sorted(low.witness),
        },
    )


def verify_restricted_plunnecke(act: FiniteAction, A: GroupSet, B: Iterable[str],
                                E: Iterable[str], j: int, k: int,
                                instance: str = "action") -> VerificationReport:
    """Restricted variant: c(A^j, B, A^(j-1).E) ** k >= c(A^k, B, A^(k-1).E) ** j,
    plus commutativity of the restricted orbit subgraph it rests on."""
    _check_orders(j, k)
    E = _check_atoms(act, E)
    low = _ratio(act, iterate(A, j), B, move_set(act, iterate(A, j - 1), E), witness=False).value
    high = _ratio(act, iterate(A, k), B, move_set(act, iterate(A, k - 1), E), witness=False).value
    lhs, rhs = low ** k, high ** j
    sub = restricted_orbit_subgraph(act, A, B, E, k)
    sub_ok = True if not sub.atoms else is_commutative(sub).holds
    return VerificationReport(
        instance=instance,
        theorem="thm-4.3",
        lhs=lhs,
        rhs=rhs,
        holds=(lhs >= rhs) and sub_ok,
        details={
            "j": j, "k": k,
            "c_j_restricted": format_rational(low),
            "c_k_restricted": format_rational(high),
            "restricted_subgraph_commutative": sub_ok,
        },
    )


def _heavy_hypothesis(act: FiniteAction, A: GroupSet, B: SpaceSet, Bp: SpaceSet,
                      delta: Fraction, j: int, k: int) -> bool:
    """mu(A^k.B')^j * mu(B)^k <= (1-delta)^-k * mu(A^j.B)^k * mu(B')^j, exactly."""
    mu_k = _measure(act, move_set(act, iterate(A, k), Bp))
    mu_j = _measure(act, move_set(act, iterate(A, j), B))
    lhs = mu_k ** j * _measure(act, B) ** k
    rhs = (1 - delta) ** (-k) * mu_j ** k * _measure(act, Bp) ** j
    return lhs <= rhs


def heavy_subset(act: FiniteAction, A: GroupSet, B: Iterable[str], delta,
                 j: int, k: int) -> SpaceSet:
    """Grow a subset that is both heavy (measure >= delta * mu(B)) and growth-bounded.

    Starts from a minimizing witness of c(A^k, .) on B and, while too light,
    adjoins a minimizing witness taken inside the complement; the measure
    strictly grows each round, so at most |B| rounds happen.
    """
    chosen, bounded = _grow_heavy_subset(act, A, B, delta, j, k)
    if not bounded:
        raise RuntimeError("constructed subset misses the growth bound")
    return chosen


def _grow_heavy_subset(act: FiniteAction, A: GroupSet, B: Iterable[str], delta,
                       j: int, k: int) -> tuple[SpaceSet, bool]:
    """``heavy_subset``'s subset, and whether it meets the growth bound."""
    delta = parse_rational(delta)
    if not 0 < delta < 1:
        raise InputError(f"delta must lie in (0, 1) (got {delta})")
    _check_orders(j, k)
    B = _base_set(act, B)
    a_k = iterate(A, k)
    chosen = frozenset(c(act, a_k, B).witness)
    threshold = delta * _measure(act, B)
    for _ in range(len(B) + 1):
        if _measure(act, chosen) >= threshold:
            break
        rest = B - chosen
        extra = c(act, a_k, rest).witness
        if not extra:
            raise RuntimeError("growth stalled while building a heavy subset")
        chosen |= extra
    else:
        raise RuntimeError("heavy subset construction exceeded its bound")
    return chosen, _heavy_hypothesis(act, A, B, chosen, delta, j, k)


def verify_heavy_subset(act: FiniteAction, A: GroupSet, B: Iterable[str], delta,
                        j: int, k: int, instance: str = "action"
                        ) -> VerificationReport:
    """Heavy-ratio bound c_delta(A^k, B)^j <= (1-delta)^-k * (mu(A^j.B)/mu(B))^k,
    re-verified together with both properties of the constructed heavy subset."""
    delta = parse_rational(delta)
    B = _check_atoms(act, B)
    chosen, bound_ok = _grow_heavy_subset(act, A, B, delta, j, k)
    heavy_ok = _measure(act, chosen) >= delta * _measure(act, B)
    cd = c_delta(act, iterate(A, k), B, delta)
    ratio = _measure(act, move_set(act, iterate(A, j), B)) / _measure(act, B)
    lhs, rhs = cd ** j, (1 - delta) ** (-k) * ratio ** k
    return VerificationReport(
        instance=instance,
        theorem="lemma-5.4",
        lhs=lhs,
        rhs=rhs,
        holds=(lhs <= rhs) and heavy_ok and bound_ok,
        witness=sorted(chosen),
        details={
            "delta": format_rational(delta), "j": j, "k": k,
            "c_delta": format_rational(cd),
            "subset_is_heavy": heavy_ok,
            "subset_growth_bounded": bound_ok,
        },
    )


def verify_multiplicativity(act: FiniteAction, act2: FiniteAction,
                            A: GroupSet, A2: GroupSet,
                            B: Iterable[str], B2: Iterable[str],
                            instance: str = "action") -> VerificationReport:
    """c(A, B) * c(A2, B2) equals c(A x A2, B x B2) on the product action."""
    B = _check_atoms(act, B)
    B2 = _check_atoms(act2, B2)
    if len(B) * len(B2) > MAX_PRODUCT_BASE:
        raise InputError(
            f"product base set has {len(B) * len(B2)} atoms, over "
            f"MAX_PRODUCT_BASE = {MAX_PRODUCT_BASE}")
    left = _ratio(act, A, B, witness=False).value * _ratio(act2, A2, B2, witness=False).value
    pact = product_action(act, act2)
    right = _ratio(pact, pair_group_set(A, A2), pair_space_set(B, B2), witness=False).value
    return VerificationReport(
        instance=instance,
        theorem="lemma-6.1",
        lhs=left,
        rhs=right,
        holds=left == right,
        details={"c_left_product": format_rational(left),
                 "c_product_action": format_rational(right)},
    )


def verify_different_summands(act: FiniteAction, A_list: list[GroupSet],
                              B: Iterable[str], instance: str = "action"
                              ) -> VerificationReport:
    """c(A_1 + ... + A_k, B) <= prod_i mu(A_i.B) / mu(B)."""
    if not A_list:
        raise InputError("need at least one translate set")
    B = _check_atoms(act, B)
    total = A_list[0]
    for A in A_list[1:]:
        total = product_set(total, A)
    result = c(act, total, B)
    mu_b = _measure(act, B)
    rhs = Fraction(1)
    for A in A_list:
        rhs *= _measure(act, move_set(act, A, B)) / mu_b
    return VerificationReport(
        instance=instance,
        theorem="prop-6.2",
        lhs=result.value,
        rhs=rhs,
        holds=result.value <= rhs,
        witness=sorted(result.witness),
        details={"k": len(A_list), "c_sum": format_rational(result.value)},
    )
