"""Commutativity of layered measure graphs, decided by counting.

For every edge (x, y, a) the edges leaving y must inject into the edges
leaving x so that matched heads are joined by an a-labelled edge.  Labels are
partial injections, so an edge (y, z, b) can only be matched to an edge from
x to the unique a-tail of z.  The candidates therefore fall into complete
bipartite blocks, one per a-tail, and by Hall's theorem an injection exists
iff every block offers at least as many edges leaving x as it needs edges
leaving y.  The verdict needs only the counts; ``matching_witnesses``
builds the injections, each pairing a block's edges in sorted order, and
``check_witnesses`` re-checks them from the edges alone.

A graph is commutative when this holds for the graph and for its dual, but
one pass decides both.  Take x two layers below z and a label a.  Let
F(x, a, z) count the 2-paths x -> z whose first edge is labelled a, and
S(x, a, z) those whose second edge is labelled a.  As labels are partial
injections, F = M(a.x, z) and S = M(x, a^-1.z), where M counts the edges
between two vertices and a term is 0 where a.x or a^-1.z is undefined.  The
forward pass holds iff F <= S everywhere, and the dual pass iff S <= F
everywhere.  For each (x, z), both F and S summed over all labels count
the 2-paths x -> z, so either inequality forces equality: each pass implies
the other.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import HypothesisError
from .graphcore import Edge, LayeredMeasureGraph, require_valid
from .reports import VerificationReport

Injection = tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class CommutativityVerdict:
    holds: bool
    failing_edge: Edge | None = None


def _injections(edges: Iterable[Edge]) -> Edge | None:
    """The first edge, in (tail, head, label) order, at which the forward
    injection condition fails on the edges of a valid graph, or None.

    The block of an edge (y, z, b) under the edge (x, y, a) is the a-tail w
    of z, and z = a.w is the only head in that block, so the blocks fit iff
    M(y, z) <= M(x, w) for every head z of y, M counting parallel edges.
    """
    count: dict[str, dict[str, int]] = {}  # tail -> head -> parallel edges
    tail_of: dict[tuple[str, str], str] = {}  # (head, label) -> its tail
    for t, h, a in edges:
        tail_of[h, a] = t
        heads = count.get(t)
        if heads is None:
            count[t] = {h: 1}
        else:
            heads[h] = heads.get(h, 0) + 1
    first = None
    for e in edges:
        x, y, a = e
        after = count.get(y)
        if after is None:
            continue
        before = count[x]
        for z, m in after.items():
            if before.get(tail_of.get((z, a)), 0) < m:
                if first is None or e < first:
                    first = e
                break
    return first


def is_commutative(g: LayeredMeasureGraph) -> CommutativityVerdict:
    """Commutativity of a valid graph, by one forward pass; on failure the
    first failing edge in (tail, head, label) order is reported."""
    require_valid(g)
    failing = _injections(g.edges)
    return CommutativityVerdict(failing is None, failing)


def verify_orbit_commutes(g: LayeredMeasureGraph, instance: str = "graph") -> VerificationReport:
    """Report whether a valid graph commutes: 1 against 1, or 0 and its first failing edge."""
    verdict = is_commutative(g)
    details = {} if verdict.holds else {"failing_edge": list(verdict.failing_edge)}
    return VerificationReport(instance, "ex-2.6", Fraction(int(verdict.holds)),
                              Fraction(1), verdict.holds, details=details)


def require_commutative(g: LayeredMeasureGraph) -> None:
    """Refuse a graph that does not commute with HypothesisError, whose
    payload names the failing edge."""
    verdict = is_commutative(g)
    if not verdict.holds:
        raise HypothesisError(
            f"graph is not commutative (edge {verdict.failing_edge})",
            payload={"failing_edge": list(verdict.failing_edge)})


def matching_witnesses(g: LayeredMeasureGraph) -> Mapping[Edge, Injection]:
    """The witness injection of every edge of a commutative valid graph, read
    only: each block's edges paired in sorted order.  A graph that does not
    commute is refused by ``require_commutative``."""
    require_commutative(g)
    edges = sorted(g.edges)
    out_edges: dict[str, list[Edge]] = {}
    parallel: dict[tuple[str, str], list[Edge]] = {}  # (tail, head) -> edges
    tail_of: dict[tuple[str, str], str] = {}          # (head, label) -> its tail
    for e in edges:
        out_edges.setdefault(e[0], []).append(e)
        parallel.setdefault(e[:2], []).append(e)
        tail_of[e[1], e[2]] = e[0]
    witnesses: dict[Edge, Injection] = {}
    for x, y, a in edges:
        used: dict[str, int] = {}
        pairs = []
        for e in out_edges.get(y, ()):
            w = tail_of[e[1], a]
            k = used.get(w, 0)
            used[w] = k + 1
            pairs.append((e, parallel[x, w][k]))
        witnesses[(x, y, a)] = tuple(pairs)
    return MappingProxyType(witnesses)


def check_witnesses(g: LayeredMeasureGraph, witnesses: Mapping[Edge, Injection]) -> bool:
    """Whether ``witnesses`` certifies that ``g`` commutes, checked from the
    edges alone: one injection per edge (x, y, a), whose domain is the edges
    leaving y, each once, mapped injectively into the edges leaving x so that
    matched heads are joined by an a-labelled edge.  A certificate of any
    other shape is refused with False; an invalid graph raises InputError."""
    require_valid(g)
    out_edges: dict[str, list[Edge]] = {}
    for e in sorted(g.edges):
        out_edges.setdefault(e[0], []).append(e)
    try:
        if set(witnesses) != g.edges:
            return False
        for (x, y, a), pairs in witnesses.items():
            targets = {phi for _, phi in pairs}
            if sorted(e for e, _ in pairs) != out_edges.get(y, []) or len(targets) != len(pairs):
                return False
            for e, phi in pairs:
                if phi not in g.edges or phi[0] != x or (phi[1], e[1], a) not in g.edges:
                    return False
    except (AttributeError, TypeError, ValueError):  # not a map of edges to pairs of edges
        return False
    return True
