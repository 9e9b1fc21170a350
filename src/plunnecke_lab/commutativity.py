"""Commutativity of layered measure graphs, decided by counting.

For every edge (x, y, a) the edges leaving y must inject into the edges
leaving x so that matched heads are joined by an a-labelled edge.  Labels are
partial injections, so an edge (y, z, b) can only be matched to an edge from
x to the unique a-tail of z.  The candidates therefore fall into complete
bipartite blocks, one per a-tail, and by Hall's theorem an injection exists
iff every block offers at least as many edges leaving x as it needs edges
leaving y.  Each witness injection pairs a block's edges in sorted order.

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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .graphcore import Edge, LayeredMeasureGraph, require_valid

Injection = tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class CommutativityVerdict:
    holds: bool
    failing_edge: Edge | None = None
    matching_witnesses: Mapping[Edge, Injection] | None = None  # a read-only copy

    def __post_init__(self):
        if self.matching_witnesses is not None:
            object.__setattr__(self, "matching_witnesses",
                               MappingProxyType(dict(self.matching_witnesses)))

    def __reduce__(self):
        witnesses = self.matching_witnesses
        return (type(self), (self.holds, self.failing_edge,
                             None if witnesses is None else dict(witnesses)))


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


def is_commutative(g: LayeredMeasureGraph) -> CommutativityVerdict:
    """Commutativity of a valid graph, by one forward pass.

    On failure the first failing edge in (tail, head, label) order is
    reported; on success the verdict carries one witness injection per edge.
    """
    require_valid(g)
    return _injections(g.edges)


def check_witnesses(g: LayeredMeasureGraph, verdict: CommutativityVerdict) -> bool:
    """Re-verify a positive verdict: injectivity plus head-compatibility."""
    if not verdict.holds or verdict.matching_witnesses is None:
        return False
    for key, pairs in verdict.matching_witnesses.items():
        if key not in g.edges:
            return False
        x, y, a = key
        targets = [phi for _, phi in pairs]
        if len(set(targets)) != len(targets):
            return False
        for e, phi in pairs:
            if e[0] != y or phi[0] != x or e not in g.edges or phi not in g.edges:
                return False
            if (phi[1], e[1], a) not in g.edges:
                return False
    return True
