"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every function listed in ``TRACED`` wherever the
package binds it: module globals (``from x import f`` copies), the package
namespace, class attributes for methods, and the generator references the
CLI's ``CHECKS`` registry captured at import.  ``restore`` puts every
original back.  A span records its name, start and end (perf_counter_ns),
parent span, instance id, and a work count computed from the call's
arguments at entry.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass


def _arcs(net, *_a, **_k):
    return sum(len(edges) for edges in net.adj)


def _subsets(sources, *_a, **_k):
    return (1 << len(set(sources))) - 1


def _edges(g, *_a, **_k):
    return len(g.edges)


def _c_delta_subsets(_act, _A, B, *_a, **_k):
    return (1 << len(set(B))) - 1


def _sumset_pairs(A, B, *_a, **_k):
    if A.is_finite or B.is_finite:
        return len(A.residues) * len(B.residues)
    lifted = 1
    for p, q in zip(A.period, B.period):
        box = math.lcm(p, q)
        lifted *= (box // p) * (box // q)
    return len(A.residues) * len(B.residues) * lifted


def _scan_cells(_oracle, side, radius, dim=1, *_a, **_k):
    return (2 * radius - side + 2) ** dim * side ** dim


# (module, function or Class.method or prefix*, span name, work count from
# the call's arguments)
TRACED = (
    ("maxflow", "FlowNetwork.max_flow", "maxflow.max_flow", _arcs),
    ("maxflow", "min_ratio_mincut", "maxflow.min_ratio_mincut", None),
    ("maxflow", "min_ratio_bruteforce", "maxflow.min_ratio_bruteforce", _subsets),
    ("magnification", "magnification_mincut", "magnification.magnification_mincut", None),
    ("magnification", "min_weight_cutset", "magnification.min_weight_cutset", None),
    ("magnification", "is_cutset", "magnification.is_cutset", None),
    ("commutativity", "is_commutative", "commutativity.is_commutative", _edges),
    ("graphcore", "validate", "graphcore.validate", None),
    ("graphcore", "iterated_image", "graphcore.iterated_image", None),
    ("graphcore", "successors", "graphcore.successors", None),
    ("dynamics", "validate_action", "dynamics.validate_action", None),
    ("dynamics", "move_set", "dynamics.move_set", None),
    ("dynamics", "FiniteAction.apply", "dynamics.apply", None),
    ("dynamics", "orbit_graph", "dynamics.orbit_graph", None),
    ("dynamics", "c", "dynamics.c", None),
    ("dynamics", "c_delta", "dynamics.c_delta", _c_delta_subsets),
    ("density", "periodic_sumset", "density.periodic_sumset", _sumset_pairs),
    ("density", "normalize", "density.normalize", None),
    ("density", "window_scan", "density.window_scan", _scan_cells),
    ("jsonio", "graph_from_doc", "jsonio.parse", None),
    ("jsonio", "action_from_doc", "jsonio.parse", None),
    ("jsonio", "group_set_from_doc", "jsonio.parse", None),
    ("jsonio", "space_set_from_doc", "jsonio.parse", None),
    ("jsonio", "periodic_from_doc", "jsonio.parse", None),
    ("jsonio", "dumps_canonical", "jsonio.dumps", None),
    ("generators", "bundle_*", "generators.bundle", None),
    ("cli", "run_check_bundle", "cli.run_check_bundle", None),
)

# Per-layer metrics: (metric name, span name, statistic).  Statistics are
# calls, self_s, the summed work count, or the mean number of max_flow
# spans nested inside one call.
LAYER_METRICS = (
    ("maxflow.max_flow.calls", "maxflow.max_flow", "calls"),
    ("maxflow.max_flow.self_s", "maxflow.max_flow", "self_s"),
    ("maxflow.max_flow.arcs", "maxflow.max_flow", "work"),
    ("maxflow.min_ratio_mincut.calls", "maxflow.min_ratio_mincut", "calls"),
    ("maxflow.min_ratio_mincut.self_s", "maxflow.min_ratio_mincut", "self_s"),
    ("maxflow.min_ratio_bruteforce.calls", "maxflow.min_ratio_bruteforce", "calls"),
    ("maxflow.min_ratio_bruteforce.self_s", "maxflow.min_ratio_bruteforce", "self_s"),
    ("maxflow.min_ratio_bruteforce.subsets", "maxflow.min_ratio_bruteforce", "work"),
    ("magnification.magnification_mincut.calls", "magnification.magnification_mincut", "calls"),
    ("magnification.magnification_mincut.self_s", "magnification.magnification_mincut", "self_s"),
    ("magnification.magnification_mincut.maxflows_per_call",
     "magnification.magnification_mincut", "maxflows_per_call"),
    ("magnification.min_weight_cutset.calls", "magnification.min_weight_cutset", "calls"),
    ("magnification.min_weight_cutset.self_s", "magnification.min_weight_cutset", "self_s"),
    ("magnification.min_weight_cutset.maxflows_per_call",
     "magnification.min_weight_cutset", "maxflows_per_call"),
    ("magnification.is_cutset.calls", "magnification.is_cutset", "calls"),
    ("commutativity.is_commutative.calls", "commutativity.is_commutative", "calls"),
    ("commutativity.is_commutative.self_s", "commutativity.is_commutative", "self_s"),
    ("commutativity.is_commutative.edges", "commutativity.is_commutative", "work"),
    ("graphcore.validate.calls", "graphcore.validate", "calls"),
    ("graphcore.validate.self_s", "graphcore.validate", "self_s"),
    ("graphcore.iterated_image.calls", "graphcore.iterated_image", "calls"),
    ("graphcore.iterated_image.self_s", "graphcore.iterated_image", "self_s"),
    ("graphcore.successors.calls", "graphcore.successors", "calls"),
    ("dynamics.validate_action.calls", "dynamics.validate_action", "calls"),
    ("dynamics.validate_action.self_s", "dynamics.validate_action", "self_s"),
    ("dynamics.move_set.calls", "dynamics.move_set", "calls"),
    ("dynamics.move_set.self_s", "dynamics.move_set", "self_s"),
    ("dynamics.apply.calls", "dynamics.apply", "calls"),
    ("dynamics.orbit_graph.calls", "dynamics.orbit_graph", "calls"),
    ("dynamics.orbit_graph.self_s", "dynamics.orbit_graph", "self_s"),
    ("dynamics.c.calls", "dynamics.c", "calls"),
    ("dynamics.c.self_s", "dynamics.c", "self_s"),
    ("dynamics.c_delta.calls", "dynamics.c_delta", "calls"),
    ("dynamics.c_delta.subsets", "dynamics.c_delta", "work"),
    ("density.periodic_sumset.calls", "density.periodic_sumset", "calls"),
    ("density.periodic_sumset.self_s", "density.periodic_sumset", "self_s"),
    ("density.periodic_sumset.pairs", "density.periodic_sumset", "work"),
    ("density.normalize.calls", "density.normalize", "calls"),
    ("density.normalize.self_s", "density.normalize", "self_s"),
    ("density.window_scan.calls", "density.window_scan", "calls"),
    ("density.window_scan.self_s", "density.window_scan", "self_s"),
    ("density.window_scan.cells", "density.window_scan", "work"),
    ("jsonio.parse.self_s", "jsonio.parse", "self_s"),
    ("jsonio.dumps.self_s", "jsonio.dumps", "self_s"),
    ("generators.bundle.self_s", "generators.bundle", "self_s"),
    ("cli.run_check_bundle.self_s", "cli.run_check_bundle", "self_s"),
)

# Spans each workload must record at least one call of (coverage guard).
_EVERY = ("jsonio.parse", "jsonio.dumps", "cli.run_check_bundle")
_FLOW = ("maxflow.max_flow", "maxflow.min_ratio_mincut",
         "magnification.magnification_mincut", "magnification.min_weight_cutset",
         "magnification.is_cutset", "commutativity.is_commutative",
         "graphcore.validate", "graphcore.iterated_image", "graphcore.successors")
_ACTION = ("dynamics.validate_action", "dynamics.move_set", "dynamics.apply", "dynamics.c")
_DENSITY = ("density.periodic_sumset", "density.normalize")
EXERCISED = {
    "battery": _EVERY + _FLOW + _ACTION + _DENSITY + (
        "maxflow.min_ratio_bruteforce", "dynamics.orbit_graph", "dynamics.c_delta",
        "generators.bundle"),
    "flow-large": _EVERY + _FLOW + _ACTION,
    "density-large": _EVERY + _DENSITY + ("density.window_scan",),
}

MAXFLOW = "maxflow.max_flow"


@dataclass(slots=True)
class Span:
    name: str
    parent: int          # index of the parent span, -1 at the top
    start: int           # perf_counter_ns
    end: int
    instance: str
    work: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._checks: list[tuple[dict, str, tuple]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            work = count(*args, **kwargs) if count else 0
            span = Span(name, stack[-1] if stack else -1, 0, 0, self.instance, work)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function at every place the package binds it."""
        modules = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
                   if name == "plunnecke_lab" or name.startswith("plunnecke_lab.")}
        wrappers: dict[int, object] = {}    # id(original function) -> wrapper
        for module, attr, name, count in TRACED:
            home = modules[module]
            if "." in attr:                 # a method: wrap the class attribute
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, method, self._wrap(getattr(owner, method), name, count))
                continue
            keys = [k for k in vars(home) if k.startswith(attr[:-1])] \
                if attr.endswith("*") else [attr]
            for key in keys:
                wrappers[id(getattr(home, key))] = self._wrap(getattr(home, key), name, count)
        # Each wrapper keeps its original alive, so these ids stay unique.
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, key, wrappers[id(value)])
        checks = modules["cli"].CHECKS
        for check_id, entry in list(checks.items()):
            if any(id(x) in wrappers for x in entry):
                self._checks.append((checks, check_id, entry))
                checks[check_id] = tuple(wrappers.get(id(x), x) for x in entry)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        for checks, check_id, entry in reversed(self._checks):
            checks[check_id] = entry
        self._patches.clear()
        self._checks.clear()

    # -- summarising -------------------------------------------------------

    def summary(self, keep=lambda span: True) -> dict[str, dict]:
        """Per span name: calls, self seconds, summed work, nested max-flows."""
        child_ns = [0] * len(self.spans)
        flows_inside = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        # Spans are appended at entry, so every ancestor precedes its
        # descendants; walking backwards folds nested max-flow counts upward.
        for i in range(len(self.spans) - 1, -1, -1):
            span = self.spans[i]
            if span.name == MAXFLOW:
                flows_inside[i] += 1
            if span.parent >= 0:
                flows_inside[span.parent] += flows_inside[i]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            if not keep(span):
                continue
            row = out.setdefault(span.name, {"calls": 0, "self_ns": 0, "work": 0,
                                             "maxflows": 0})
            row["calls"] += 1
            row["self_ns"] += span.end - span.start - child_ns[i]
            row["work"] += span.work
            row["maxflows"] += flows_inside[i] - (span.name == MAXFLOW)
        return out


def leftover_wrappers() -> list[str]:
    """Places in the package that still hold a span wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "plunnecke_lab" and not mod_name.startswith("plunnecke_lab."):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "span_name"):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type):
                found += [f"{mod_name}.{key}.{m}" for m, v in vars(value).items()
                          if hasattr(v, "span_name")]
        for check_id, entry in (vars(mod).get("CHECKS") or {}).items():
            if any(hasattr(x, "span_name") for x in entry):
                found.append(f"{mod_name}.CHECKS[{check_id!r}]")
    return found


def layer_values(summary: dict[str, dict]) -> dict[str, float]:
    values = {}
    for metric, span_name, stat in LAYER_METRICS:
        row = summary.get(span_name, {"calls": 0, "self_ns": 0, "work": 0, "maxflows": 0})
        if stat == "calls":
            values[metric] = row["calls"]
        elif stat == "self_s":
            values[metric] = row["self_ns"] / 1e9
        elif stat == "work":
            values[metric] = row["work"]
        else:
            values[metric] = row["maxflows"] / row["calls"] if row["calls"] else 0.0
    return values


def layer_unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".maxflows_per_call"):
        return "count/call"
    return "count"
