"""Commutativity of layered measure graphs, decided by counting.

For every edge (x, y, a) the edges leaving y must inject into the edges
leaving x so that matched heads are joined by an a-labelled edge.  A graph is
commutative when this holds for the graph and for its dual.  Labels are
partial injections, so an edge (y, z, b) can only be matched to an edge from
x to the unique a-tail of z.  The candidates therefore fall into complete
bipartite blocks, one per a-tail, and by Hall's theorem an injection exists
iff every block offers at least as many edges leaving x as it needs edges
leaving y.  Each witness injection pairs a block's edges in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphcore import Edge, LayeredMeasureGraph, dual, require_valid

Injection = tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class CommutativityVerdict:
    holds: bool
    failing_edge: Edge | None = None
    matching_witnesses: dict[Edge, Injection] | None = None


def _injections(edges: Iterable[Edge]) -> CommutativityVerdict:
    """The forward injection condition on the edges of a valid graph."""
    edges = sorted(edges)
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
            w = tail_of.get((e[1], a))
            block = parallel.get((x, w), ())
            k = used.get(w, 0)
            if k == len(block):
                return CommutativityVerdict(False, (x, y, a), None)
            used[w] = k + 1
            pairs.append((e, block[k]))
        witnesses[(x, y, a)] = tuple(pairs)
    return CommutativityVerdict(True, None, witnesses)


def is_semi_commutative(g: LayeredMeasureGraph) -> CommutativityVerdict:
    """Check the forward injection condition edge by edge.

    On failure the first failing edge in (tail, head, label) order is
    reported; on success the verdict carries one witness injection per edge.
    """
    require_valid(g)
    return _injections(g.edges)


def is_commutative(g: LayeredMeasureGraph) -> CommutativityVerdict:
    """Semi-commutativity of the graph and of its dual.

    A failure found only in the dual check reports the offending dual edge,
    i.e. with reversed orientation relative to ``g``.
    """
    require_valid(g)
    first = _injections(g.edges)
    if not first.holds:
        return first
    second = _injections((h, t, a) for t, h, a in g.edges)
    if not second.holds:
        return second
    return CommutativityVerdict(
        True, None, {**first.matching_witnesses, **second.matching_witnesses})


def check_witnesses(g: LayeredMeasureGraph, verdict: CommutativityVerdict) -> bool:
    """Re-verify a positive verdict: injectivity plus head-compatibility.

    The dual's witnesses are keyed by dual edges; each entry is checked
    against the edge set its key belongs to (a triple cannot occur in both,
    since edges always advance one layer).
    """
    if not verdict.holds or verdict.matching_witnesses is None:
        return False
    dual_edges = dual(g).edges
    for key, pairs in verdict.matching_witnesses.items():
        if key in g.edges:
            edge_set = g.edges
        elif key in dual_edges:
            edge_set = dual_edges
        else:
            return False
        x, y, a = key
        targets = [phi for _, phi in pairs]
        if len(set(targets)) != len(targets):
            return False
        for e, phi in pairs:
            if e[0] != y or phi[0] != x or e not in edge_set or phi not in edge_set:
                return False
            if (phi[1], e[1], a) not in edge_set:
                return False
    return True
