"""Labelled layered graphs on finite atomic measure spaces.

A graph holds finitely many atoms (vertices) with positive rational weights,
a layer assignment ``0..height``, and labelled directed edges.  Each label
acts as a partial weight-preserving bijection that advances exactly one
layer, so statements about images, channels, duals, and flows all reduce to
exact rational identities on atoms.

Graphs are read-only: ``atoms`` and ``layer`` are ``MappingProxyType``
copies, so each graph computes its validity verdict, successor and
predecessor maps and layer sets once, on first use, and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InputError, require_ids, require_iterable, require_order
from .rational import exact_sum, exact_weights

Edge = tuple[str, str, str]  # (tail, head, label)
VertexSet = frozenset[str]

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class LayeredMeasureGraph:
    """Finite atomic measure space with labelled layer-advancing edges.

    Weights are stored as Fractions: ints are converted, and any other type
    raises InputError, as do a height or layer that is not an int and a
    field of the wrong container type; structure is checked on first use.
    Compared by content; not hashable (``hash(g)`` raises ``TypeError``).
    """

    atoms: Mapping[str, Fraction]  # vertex id -> weight (> 0)
    layer: Mapping[str, int]       # vertex id -> layer in 0..height
    height: int
    labels: frozenset[str]
    edges: frozenset[Edge]

    __hash__ = None

    def __post_init__(self):
        if type(self.height) is not int:
            raise InputError(f"graph height must be an integer (got {self.height!r})")
        try:
            layer = dict(self.layer.items())
        except AttributeError:
            raise InputError(
                f"graph layers must be a mapping (got {type(self.layer).__name__})") from None
        if not set(map(type, layer.values())) <= {int}:
            v = next(v for v, l in layer.items() if type(l) is not int)
            raise InputError(f"layer of ({v}) must be an integer (got {layer[v]!r})")
        object.__setattr__(self, "atoms", MappingProxyType(exact_weights(self.atoms)))
        object.__setattr__(self, "layer", MappingProxyType(layer))
        if isinstance(self.labels, str) or isinstance(self.edges, str):
            raise InputError("graph labels and edges must be collections, not strings")
        try:
            labels, edges = frozenset(self.labels), frozenset(self.edges)
        except TypeError:
            raise InputError("graph labels and edges must hold hashable values") from None
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)

    def __reduce__(self):
        return (type(self), (dict(self.atoms), dict(self.layer), self.height,
                             self.labels, self.edges))

    @classmethod
    def build(cls, vertices, edges, height=None, labels=None) -> "LayeredMeasureGraph":
        """Convenience constructor.

        ``vertices``: iterable of ``(id, layer, weight)``, read once; a row
        that is not such a triple with a hashable id raises InputError
        naming it.
        ``edges``: iterable of ``(tail, head, label)``.  An edge that is
        neither a tuple nor a string, such as a JSON list, becomes a tuple;
        a string or any other malformed edge is kept as it is, and ``labels``
        (by default the labels of the 3-tuple edges) leaves it to
        ``validate`` to report.
        """
        atoms, layer = {}, {}
        for row in require_iterable(vertices, "vertices"):
            try:
                v, l, w = row
                atoms[v], layer[v] = w, l
            except (TypeError, ValueError):
                raise InputError(f"vertex row {row!r} is not an (id, layer, weight) "
                                 f"triple with a hashable id") from None
        edge_set = frozenset(e if type(e) is tuple else _as_edge(e) for e in edges)
        if height is None:
            height = max(max(layer.values(), default=1), 1)
        if labels is None:
            labels = frozenset(e[2] for e in edge_set if type(e) is tuple and len(e) == 3)
        return cls(atoms, layer, height, labels, edge_set)

    def weight(self, vertices: Iterable[str]) -> Fraction:
        return exact_sum(map(self.atoms.__getitem__, vertices))

    def total_weight(self) -> Fraction:
        return self.weight(self.atoms)

    def layer_set(self, i: int) -> VertexSet:
        return self._layer_sets.get(i, frozenset())

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate(self))

    @cached_property
    def successor_map(self) -> Mapping[str, frozenset[str]]:
        return MappingProxyType(successors(self))

    @cached_property
    def predecessor_map(self) -> Mapping[str, frozenset[str]]:
        return MappingProxyType(predecessors(self))

    @cached_property
    def _layer_sets(self) -> dict[int, VertexSet]:
        out: dict[int, set[str]] = {}
        for v, l in self.layer.items():
            out.setdefault(l, set()).add(v)
        return {l: frozenset(vs) for l, vs in out.items()}


def _as_edge(e):
    """A non-tuple edge as a tuple, unless it is a string or not iterable."""
    return e if isinstance(e, str) or not isinstance(e, Iterable) else tuple(e)


def validate(g: LayeredMeasureGraph) -> list[str]:
    """Check every structural invariant; one message per violation (empty = valid).

    Violations are data, not failures: any candidate structure is accepted.
    """
    found: list[str] = []
    if g.height < 1:
        found.append(f"height must be at least 1 (got {g.height})")
    for v in sorted(set(g.layer) - set(g.atoms)):
        found.append(f"layer entry for unknown vertex ({v})")
    for v in sorted(set(g.atoms) - set(g.layer)):
        found.append(f"missing layer for vertex ({v})")
    # walk unsorted; sort only what is found, by vertex or edge, then kind.
    # Weights are Fractions, so a weight's sign is its numerator's, and two
    # endpoints usually share one parsed weight object.
    atoms, layer = g.atoms, g.layer
    bad_atoms = []
    for v, w in atoms.items():
        if w.numerator <= 0:
            bad_atoms.append((v, 0, f"nonpositive weight at ({v})"))
        l = layer.get(v)
        if l is not None and not 0 <= l <= g.height:
            bad_atoms.append((v, 1, f"layer out of range at ({v}): {l} not in 0..{g.height}"))
    found += [message for _v, _kind, message in sorted(bad_atoms)]
    outs: set[tuple[str, str]] = set()
    ins: set[tuple[str, str]] = set()
    bad_pairs: set[tuple[str, str]] = set()
    bad_edges = []
    malformed = []
    for e in g.edges:
        if type(e) is not tuple or len(e) != 3:
            malformed.append(repr(e))
            continue
        t, h, a = e
        if t not in atoms or h not in atoms:
            bad_edges.append((e, 0, f"edge references unknown vertex ({t},{h},{a})"))
            continue
        if a not in g.labels:
            bad_edges.append((e, 1, f"edge references unknown label ({t},{h},{a})"))
        out_pair, in_pair = (t, a), (h, a)
        if out_pair in outs:
            bad_pairs.add(out_pair)
        outs.add(out_pair)
        if in_pair in ins:
            bad_pairs.add(in_pair)
        ins.add(in_pair)
        wt, wh = atoms[t], atoms[h]
        if wt is not wh and wt != wh:
            bad_edges.append((e, 2, f"edge weight mismatch ({t},{h},{a})"))
        lt, lh = layer.get(t), layer.get(h)
        if lt is not None and lh is not None and lh != lt + 1:
            bad_edges.append((e, 3, f"edge layer step ({t},{h},{a})"))
    found += [f"edge {r} is not a (tail, head, label) triple" for r in sorted(malformed)]
    found += [message for _e, _kind, message in sorted(bad_edges)]
    for v, a in sorted(bad_pairs):
        found.append(f"label functionality at ({v},{a})")
    return found


def require_valid(g: LayeredMeasureGraph) -> None:
    if g.violations:
        raise InputError("invalid graph: " + "; ".join(g.violations))


def _check_vertices(g: LayeredMeasureGraph, S: Iterable[str]) -> frozenset[str]:
    return require_ids(S, g.atoms, "vertex")


def successors(g: LayeredMeasureGraph) -> dict[str, frozenset[str]]:
    """Forward adjacency over all labels."""
    out: dict[str, set[str]] = {}
    for t, h, _ in g.edges:
        out.setdefault(t, set()).add(h)
    return {v: frozenset(s) for v, s in out.items()}


def predecessors(g: LayeredMeasureGraph) -> dict[str, frozenset[str]]:
    out: dict[str, set[str]] = {}
    for t, h, _ in g.edges:
        out.setdefault(h, set()).add(t)
    return {v: frozenset(s) for v, s in out.items()}


def image(g: LayeredMeasureGraph, S: Iterable[str], label: str,
          direction: str = FORWARD) -> VertexSet:
    """One-step image of ``S`` under a single label, forward or backward."""
    try:
        known = label in g.labels
    except TypeError:
        raise InputError(f"label must be hashable (got {label!r})") from None
    if not known:
        raise InputError(f"unknown label ({label})")
    S = _check_vertices(g, S)
    if direction == FORWARD:
        return frozenset(h for t, h, a in g.edges if a == label and t in S)
    if direction == BACKWARD:
        return frozenset(t for t, h, a in g.edges if a == label and h in S)
    raise InputError(f"direction must be '{FORWARD}' or '{BACKWARD}' (got {direction!r})")


def iterated_image(g: LayeredMeasureGraph, S: Iterable[str], steps: int) -> VertexSet:
    """``steps``-fold image (union over all labels per step); negative steps go backward.

    ``steps`` must be an int in ``-height..height``: a longer walk leaves
    every layer, so it is refused rather than run.
    """
    require_order(steps, -g.height, g.height, "steps")
    S = _check_vertices(g, S)
    if steps == 0:
        return S
    step_map = g.successor_map if steps > 0 else g.predecessor_map
    cur = S
    for _ in range(abs(steps)):
        cur = frozenset(u for v in cur for u in step_map.get(v, ()))
    return cur


def induced_subgraph(g: LayeredMeasureGraph, W: Iterable[str]) -> LayeredMeasureGraph:
    """Restrict to ``W``: keeps edges with both endpoints inside, same label set."""
    W = _check_vertices(g, W)
    return LayeredMeasureGraph(
        atoms={v: g.atoms[v] for v in W},
        layer={v: g.layer[v] for v in W},
        height=g.height,
        labels=g.labels,
        edges=frozenset(e for e in g.edges if e[0] in W and e[1] in W),
    )


def _closure(start: Iterable[str], step_map: Mapping[str, frozenset[str]],
             avoid: frozenset[str] = frozenset()) -> frozenset[str]:
    """Everything reachable from ``start`` along ``step_map`` without entering ``avoid``."""
    seen = set(start) - avoid
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in step_map.get(v, ()):
            if u not in seen and u not in avoid:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def channel(g: LayeredMeasureGraph, S: Iterable[str], T: Iterable[str]) -> LayeredMeasureGraph:
    """Induced subgraph on every vertex lying on a forward path from S to T.

    Disconnected S and T give the empty graph.
    """
    S = _check_vertices(g, S)
    T = _check_vertices(g, T)
    on_paths = _closure(S, g.successor_map) & _closure(T, g.predecessor_map)
    return induced_subgraph(g, on_paths)


def dual(g: LayeredMeasureGraph) -> LayeredMeasureGraph:
    """Reverse every edge and flip the layer order; an involution.

    The dual of a graph already known to be valid is valid, and is not
    checked again.
    """
    out = LayeredMeasureGraph(
        atoms=g.atoms,
        layer={v: g.height - l for v, l in g.layer.items()},
        height=g.height,
        labels=g.labels,
        edges=frozenset((h, t, a) for t, h, a in g.edges),
    )
    if g.__dict__.get("violations") == ():
        out.__dict__["violations"] = ()
    return out


def flow(g: LayeredMeasureGraph) -> Fraction:
    """Weight-integral of out-degrees over the bottom layer of a 1-layered graph.

    Equals the sum over labels of the total weight of that label's edge tails,
    and matches the dual graph's flow exactly.
    """
    if g.height != 1:
        raise InputError(f"flow needs a 1-layered graph (height {g.height})")
    return exact_sum(g.atoms[t] for t, _, _ in g.edges)


def truncate(g: LayeredMeasureGraph, k: int) -> LayeredMeasureGraph:
    """Induced subgraph on layers 0..k, re-declared as a k-layered graph."""
    require_order(k, 1, g.height, "truncation layer")
    sub = induced_subgraph(g, (v for v, l in g.layer.items() if l <= k))
    return LayeredMeasureGraph(sub.atoms, sub.layer, k, sub.labels, sub.edges)
