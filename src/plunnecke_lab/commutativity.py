"""Commutativity of layered measure graphs, decided by counting.

For every edge (x, y, a) the edges leaving y must inject into the edges
leaving x so that matched heads are joined by an a-labelled edge.  Labels are
partial injections, so an edge (y, z, b) can only be matched to an edge from
x to the unique a-tail of z.  The candidates therefore fall into complete
bipartite blocks, one per a-tail, and by Hall's theorem an injection exists
iff every block offers at least as many edges leaving x as it needs edges
leaving y.  Each witness injection pairs a block's edges in sorted order;
the verdict needs only the counts, so the injections are built from the
edges when a caller first reads them.

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

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .graphcore import Edge, LayeredMeasureGraph, require_valid

Injection = tuple[tuple[Edge, Edge], ...]


@dataclass(frozen=True)
class CommutativityVerdict:
    holds: bool
    failing_edge: Edge | None = None
    matching_witnesses: Mapping[Edge, Injection] | None = None  # a read-only copy

    def __post_init__(self):
        witnesses = self.matching_witnesses
        if witnesses is not None:
            if not isinstance(witnesses, _Witnesses):
                witnesses = dict(witnesses)
            object.__setattr__(self, "matching_witnesses", MappingProxyType(witnesses))

    def __reduce__(self):
        witnesses = self.matching_witnesses
        return (type(self), (self.holds, self.failing_edge,
                             None if witnesses is None else dict(witnesses)))


class _Witnesses(Mapping):
    """One witness injection per edge of a commutative graph, built from its
    edges on the first read, so a caller that reads only the verdict never
    pays for them."""

    def __init__(self, edges: Iterable[Edge]):
        self._edges, self._table = edges, None

    def _built(self) -> dict[Edge, Injection]:
        if self._table is None:
            self._table, self._edges = _witness_injections(self._edges), None
        return self._table

    def __getitem__(self, edge: Edge) -> Injection:
        return self._built()[edge]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


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


def _witness_injections(edges: Iterable[Edge]) -> dict[Edge, Injection]:
    """The witness injection of every edge of a commutative valid graph: each
    block's edges paired in sorted order."""
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
            w = tail_of[e[1], a]
            k = used.get(w, 0)
            used[w] = k + 1
            pairs.append((e, parallel[x, w][k]))
        witnesses[(x, y, a)] = tuple(pairs)
    return witnesses


def is_commutative(g: LayeredMeasureGraph) -> CommutativityVerdict:
    """Commutativity of a valid graph, by one forward pass.

    On failure the first failing edge in (tail, head, label) order is
    reported; on success the verdict carries one witness injection per edge,
    built when ``matching_witnesses`` is first read.
    """
    require_valid(g)
    failing = _injections(g.edges)
    if failing is not None:
        return CommutativityVerdict(False, failing, None)
    return CommutativityVerdict(True, None, _Witnesses(g.edges))


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
