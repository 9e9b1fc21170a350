"""Magnification ratios, weighted cutsets, and the graph growth inequality.

The magnification ratio of order j is the minimum of
weight(j-step image of Y) / weight(Y) over nonempty bottom-layer subsets Y.
It is computed either by exhaustive subset enumeration or by iterated
min-cuts; both are exact and agree, including on tie-broken witnesses.

Cutsets are vertex sets meeting every bottom-to-top path; their weight
discounts layer j by C**-j.  A minimum-weight cutset comes from a
vertex-splitting min-cut with exact integer capacities, and ``cutset_push``
moves cutset mass one layer down while controlling the weight increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import maxflow
from .commutativity import require_commutative
from .errors import HypothesisError, InputError, require_order
from .graphcore import (LayeredMeasureGraph, VertexSet, _check_vertices, _closure,
                        iterated_image, require_valid)
from .maxflow import (FlowNetwork, MagnificationResult, lex_min_walk, min_ratio_bruteforce,
                      min_ratio_mincut)
from .rational import format_rational, parse_rational, to_integers
from .reports import VerificationReport


@dataclass(frozen=True)
class CutsetReport:
    cutset: VertexSet
    weight: Fraction
    C: Fraction
    is_minimal: bool


def _bottom_problem(g: LayeredMeasureGraph, j: int, brute: bool = False):
    """Checked order-j ratio problem: sorted layer 0 and each vertex's j-step image.

    For ``brute``, a layer 0 past maxflow.BRUTE_FORCE_LIMIT is refused before
    any image is computed.
    """
    require_valid(g)
    require_order(j, 1, g.height, "order")
    bottom = sorted(g.layer_set(0))
    if not bottom:
        raise InputError("layer 0 is empty")
    if brute and len(bottom) > maxflow.BRUTE_FORCE_LIMIT:
        raise InputError(
            f"layer 0 has {len(bottom)} vertices, over the brute-force limit "
            f"{maxflow.BRUTE_FORCE_LIMIT}; use magnification_mincut")
    return bottom, {v: iterated_image(g, frozenset([v]), j) for v in bottom}


def _rate(C) -> Fraction:
    """``C`` as a positive rational (``rational.parse_rational``)."""
    C = parse_rational(C)
    if C <= 0:
        raise InputError("C must be positive")
    return C


def _discounted(g: LayeredMeasureGraph, vertices, C: Fraction) -> tuple[list[int], int]:
    """``to_integers`` of C**-layer(v) * weight(v) over ``vertices``, in order.

    For C = p/q and weight(v) = num/den the term is q**l * num / (p**l * den);
    both powers are formed once per layer.
    """
    p, q = C.numerator, C.denominator
    powers: dict[int, tuple[int, int]] = {}
    pairs = []
    for v in vertices:
        l = g.layer[v]
        scaled = powers.get(l)
        if scaled is None:
            scaled = powers[l] = (q ** l, p ** l)
        w = g.atoms[v]
        pairs.append((scaled[0] * w.numerator, scaled[1] * w.denominator))
    return to_integers(pairs)


def magnification_bruteforce(g: LayeredMeasureGraph, j: int) -> MagnificationResult:
    """Exact minimum over all nonempty bottom-layer subsets.

    Ties go to the lexicographically smallest vertex-id set.  Refuses layers
    bigger than maxflow.BRUTE_FORCE_LIMIT; use :func:`magnification_mincut`
    for those.
    """
    bottom, relation = _bottom_problem(g, j, brute=True)
    return min_ratio_bruteforce(bottom, relation, g.atoms)


def magnification_mincut(g: LayeredMeasureGraph, j: int) -> MagnificationResult:
    """Same value and witness as the brute-force method, via iterated min-cuts."""
    bottom, relation = _bottom_problem(g, j)
    return min_ratio_mincut(bottom, relation, g.atoms)


def mincut_value(g: LayeredMeasureGraph, j: int) -> Fraction:
    """The order-j magnification ratio alone: no witness is extracted."""
    bottom, relation = _bottom_problem(g, j)
    return min_ratio_mincut(bottom, relation, g.atoms, witness=False).value


def cut_weight(g: LayeredMeasureGraph, S: Iterable[str], C) -> Fraction:
    """Layer-discounted weight: sum over v in S of C**-layer(v) * weight(v)."""
    C = _rate(C)
    ints, scale = _discounted(g, _check_vertices(g, S), C)
    return Fraction(sum(ints), scale)


def is_cutset(g: LayeredMeasureGraph, S: Iterable[str]) -> bool:
    """True iff no bottom-to-top path avoids S (endpoints count as hits)."""
    S = _check_vertices(g, S)
    return not (_closure(g.layer_set(0), g.successor_map, avoid=S) & g.layer_set(g.height))


def min_weight_cutset(g: LayeredMeasureGraph, C) -> CutsetReport:
    """A minimum-weight cutset, tie-broken to the lexicographically smallest set.

    The minimum is one min cut of a split-vertex network: node 0 is the
    source, node 1 the sink, and vertex v becomes a split arc v_in -> v_out
    of its scaled weight.  Each vertex also gets a force arc s -> v_in and
    one v_out -> t, infinite for a bottom and a top vertex and 0 for the
    rest.  The canonical witness is grown by ``lex_min_walk`` on the
    minimum's flow: a query raises the vertex's two force arcs to infinity
    and probes for more flow (``max_flow(0, 1, probe=True)``, which pushes
    nothing), and a rejected vertex gets their old capacities back and has
    its split arc raised to infinity for good, so every probe runs on the
    network of the textbook greedy's query (see ``lex_min_walk``).  The
    walk's probes share its residual closures, so a probe searches only
    from the arcs raised since the last accepted query.
    ``is_cutset`` runs on the empty set, then once the chosen vertices'
    weight reaches the minimum.
    """
    C = _rate(C)
    require_valid(g)
    ids = sorted(g.atoms)
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    wci, scale = _discounted(g, ids, C)
    inf = 1 + sum(wci)
    bottom, top = g.layer_set(0), g.layer_set(g.height)
    # arcs: the n split arcs, the n arcs s -> v_in, the n arcs v_out -> t,
    # then one arc per edge
    net = FlowNetwork(2 + 2 * n, [
        *((2 + 2 * i, 3 + 2 * i, w) for i, w in enumerate(wci)),
        *((0, 2 + 2 * i, inf if v in bottom else 0) for i, v in enumerate(ids)),
        *((3 + 2 * i, 1, inf if v in top else 0) for i, v in enumerate(ids)),
        *((3 + 2 * index[t], 2 + 2 * index[h], inf)
          for t, h in sorted({(t, h) for t, h, _ in g.edges}))])
    minimum = net.max_flow(0, 1)
    weight = 0

    def done(chosen) -> bool:
        nonlocal weight
        if chosen:
            weight += wci[chosen[-1]]
        return weight == minimum and is_cutset(g, [ids[i] for i in chosen])

    # vertex i is pinned by its force arcs n + i and 2n + i, and barred by
    # its split arc i (arc k has index 2k)
    cutset = frozenset(ids[i] for i in lex_min_walk(
        net, [(2 * (n + i), 2 * (2 * n + i)) for i in range(n)], range(0, 2 * n, 2), inf, done))
    return CutsetReport(cutset=cutset, weight=Fraction(minimum, scale), C=C, is_minimal=True)


def push_penalty(label_count: int, C, eps) -> Fraction:
    """Slack added by one push of a cutset that was within eps of optimal."""
    require_order(label_count, 0, None, "label count")
    C, eps = _rate(C), parse_rational(eps)
    if eps < 0:
        raise InputError("eps must be nonnegative")
    return eps + 4 * label_count ** 2 * C * eps + 4 * label_count ** 2 * eps


def cutset_push(g: LayeredMeasureGraph, S: Iterable[str], C, j: int) -> VertexSet:
    """Replace the layer-j part of a cutset by the layer j-1 vertices it shields.

    ``S`` must be a cutset inside layers 0..j plus the top layer.  Dropping
    S's layer-j part and adding, at layer j-1, every vertex that is both
    reachable from the bottom along S-avoiding paths and two steps away from
    the still-uncut part of the top-bound flow gives a cutset inside layers
    0..j-1 plus the top.  If S was within eps of the optimal weight for C,
    the result is within eps + push_penalty(labels, C, eps) of it; at eps = 0
    exact minimality is preserved.  (Both endpoint conditions matter: adding
    the whole reachable layer j-1 would break the weight bound whenever S
    cuts the flow elsewhere.)
    """
    C = _rate(C)
    require_valid(g)
    require_order(j, 1, g.height - 1, "push layer")
    S = _check_vertices(g, S)
    allowed = set(range(0, j + 1)) | {g.height}
    outside = sorted(v for v in S if g.layer[v] not in allowed)
    if outside:
        raise InputError(
            f"cutset vertex ({outside[0]}) lies in layer {g.layer[outside[0]]}, "
            f"outside 0..{j} and {g.height}")
    top = g.layer_set(g.height)
    reach = _closure(g.layer_set(0), g.successor_map, avoid=S)
    if reach & top:
        raise InputError("S is not a cutset")
    shield = frozenset(v for v in reach if g.layer[v] == j - 1)
    # layer j+1 vertices that still reach the top once S's top part is gone
    back = g.predecessor_map
    live = _closure(top - S, back)
    gate = {v for v in live if g.layer[v] == j + 1}
    feeders = {t for u in gate for t in back.get(u, ())}
    funnel = {t for x in feeders for t in back.get(x, ())}
    middle = frozenset(v for v in S if g.layer[v] == j)
    return (S | (shield & funnel)) - middle


def verify_graph_plunnecke(g: LayeredMeasureGraph,
                           instance: str = "graph") -> VerificationReport:
    """Check D_j ** h >= D_h ** j for every order j of a commutative graph.

    The report's lhs/rhs show the tightest nontrivial comparison (or the
    first failing one); per-order values sit in the details.  Only order h
    reports a witness, so the lower orders skip witness extraction.
    """
    require_commutative(g)
    h = g.height
    top = magnification_mincut(g, h)
    ratio = {j: mincut_value(g, j) for j in range(1, h)}
    ratio[h] = top.value
    checks = []
    for j in range(1, h + 1):
        lhs, rhs = ratio[j] ** h, ratio[h] ** j
        checks.append({"j": j, "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs})
    failing = [c for c in checks if not c["holds"]]
    if failing:
        shown = failing[0]
    elif h == 1:
        shown = checks[0]
    else:
        shown = min(checks[:-1], key=lambda c: (c["lhs"] - c["rhs"], c["j"]))
    return VerificationReport(
        instance=instance,
        theorem="thm-3.5",
        lhs=shown["lhs"],
        rhs=shown["rhs"],
        holds=not failing,
        witness=sorted(top.witness),
        details={
            "d": {str(j): format_rational(ratio[j]) for j in ratio},
            "checks": [
                {"j": c["j"], "lhs": format_rational(c["lhs"]),
                 "rhs": format_rational(c["rhs"]), "holds": c["holds"]}
                for c in checks
            ],
        },
    )


def verify_bottom_layer_minimal(g: LayeredMeasureGraph, C,
                                instance: str = "graph") -> VerificationReport:
    """Check that layer 0 attains the minimum cutset weight when C**h <= D_h."""
    C = _rate(C)
    require_commutative(g)
    top_ratio = mincut_value(g, g.height)
    if C ** g.height > top_ratio:
        raise HypothesisError(
            f"C^h = {format_rational(C ** g.height)} exceeds the top "
            f"magnification ratio {format_rational(top_ratio)}",
            payload={"C": format_rational(C), "d_h": format_rational(top_ratio)})
    bottom_weight = cut_weight(g, g.layer_set(0), C)
    report = min_weight_cutset(g, C)
    return VerificationReport(
        instance=instance,
        theorem="cor-3.4",
        lhs=bottom_weight,
        rhs=report.weight,
        holds=bottom_weight == report.weight,
        witness=sorted(report.cutset),
        details={"C": format_rational(C), "d_h": format_rational(top_ratio)},
    )
