"""JSON interchange for graphs, actions, periodic sets, and reports.

Documents are emitted in a canonical form (sorted keys, sorted collections,
two-space indent, trailing newline) so that identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .density import PeriodicSet
from .dynamics import FinAbGroup, FiniteAction, GroupSet
from .errors import InputError
from .graphcore import LayeredMeasureGraph
from .rational import format_rational, parse_rational


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing '{key}' in {where}")
    return doc[key]


def _need_list(doc: dict, key: str, where: str) -> list:
    value = _need(doc, key, where)
    if not isinstance(value, list):
        raise InputError(f"'{key}' in {where} must be a JSON array")
    return value


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer (got {value!r})")
    return value


def graph_to_doc(g: LayeredMeasureGraph) -> dict:
    return {
        "height": g.height,
        "labels": sorted(g.labels),
        "vertices": [
            {"id": v, "layer": g.layer[v], "weight": format_rational(g.atoms[v])}
            for v in sorted(g.atoms)
        ],
        "edges": [
            {"tail": t, "head": h, "label": a} for t, h, a in sorted(g.edges)
        ],
    }


def graph_from_doc(doc: dict) -> LayeredMeasureGraph:
    height = _as_int(_need(doc, "height", "graph document"), "graph height")
    labels = frozenset(str(a) for a in _need_list(doc, "labels", "graph document"))
    atoms: dict[str, Fraction] = {}
    layer: dict[str, int] = {}
    # A row that is a dict with every field is read directly; any other row
    # goes through _need, which names its first missing field.
    for row in _need_list(doc, "vertices", "graph document"):
        full = type(row) is dict and "id" in row and "weight" in row and "layer" in row
        vid = str(row["id"] if full else _need(row, "id", "graph vertex"))
        if vid in atoms:
            raise InputError(f"duplicate vertex id ({vid})")
        atoms[vid] = parse_rational(row["weight"] if full
                                    else _need(row, "weight", "graph vertex"))
        layer[vid] = _as_int(row["layer"] if full else _need(row, "layer", "graph vertex"),
                             f"layer of ({vid})")
    edges = frozenset(
        (str(row["tail"]), str(row["head"]), str(row["label"]))
        if type(row) is dict and "tail" in row and "head" in row and "label" in row
        else (str(_need(row, "tail", "graph edge")), str(_need(row, "head", "graph edge")),
              str(_need(row, "label", "graph edge")))
        for row in _need_list(doc, "edges", "graph document")
    )
    return LayeredMeasureGraph(atoms, layer, height, labels, edges)


def action_to_doc(act: FiniteAction) -> dict:
    return {
        "moduli": list(act.group.moduli),
        "atoms": [
            {"id": a, "weight": format_rational(w)}
            for a, w in sorted(act.atoms.items())
        ],
        "generators": [
            {"perm": {a: perm[a] for a in sorted(perm)}}
            for perm in act.generator_perms
        ],
    }


def action_from_doc(doc: dict) -> FiniteAction:
    moduli = _need_list(doc, "moduli", "action document")
    group = FinAbGroup(tuple(_as_int(n, "modulus") for n in moduli))
    atoms: dict[str, Fraction] = {}
    for row in _need_list(doc, "atoms", "action document"):
        full = type(row) is dict and "id" in row and "weight" in row
        aid = str(row["id"] if full else _need(row, "id", "action atom"))
        if aid in atoms:
            raise InputError(f"duplicate atom id ({aid})")
        atoms[aid] = parse_rational(row["weight"] if full
                                    else _need(row, "weight", "action atom"))
    perms = []
    for row in _need_list(doc, "generators", "action document"):
        perm = (row["perm"] if type(row) is dict and "perm" in row
                else _need(row, "perm", "action generator"))
        if not isinstance(perm, dict):
            raise InputError("'perm' in action generator must be a JSON object")
        perms.append({str(k): str(v) for k, v in perm.items()})
    return FiniteAction(group, atoms, tuple(perms))


def group_set_to_doc(A: GroupSet) -> list:
    return [list(e) for e in sorted(A.elements)]


def group_set_from_doc(group: FinAbGroup, doc) -> GroupSet:
    if not isinstance(doc, list):
        raise InputError("a translate set must be a JSON array of vectors")
    return GroupSet.of(group, [_as_element(e) for e in doc])


def _as_element(entry):
    if isinstance(entry, bool):
        raise InputError(f"bad vector entry {entry!r}")
    if isinstance(entry, int):
        return (entry,)
    if isinstance(entry, list):
        return tuple(_as_int(x, "vector coordinate") for x in entry)
    raise InputError(f"bad vector entry {entry!r}")


def space_set_from_doc(doc) -> frozenset[str]:
    if not isinstance(doc, list):
        raise InputError("an atom set must be a JSON array of ids")
    return frozenset(str(a) for a in doc)


def periodic_to_doc(A: PeriodicSet) -> dict:
    if A.is_finite:
        return {"dim": A.dim, "finite": [list(p) for p in sorted(A.residues)]}
    return {
        "dim": A.dim,
        "period": list(A.period),
        "residues": [list(r) for r in sorted(A.residues)],
    }


def periodic_from_doc(doc: dict) -> PeriodicSet:
    dim = _as_int(_need(doc, "dim", "periodic-set document"), "periodic-set dim")
    if "finite" in doc:
        return PeriodicSet.finite(
            dim, [_as_element(p) for p in _need_list(doc, "finite", "periodic-set document")])
    period = _need_list(doc, "period", "periodic-set document")
    residues = [_as_element(r)
                for r in _need_list(doc, "residues", "periodic-set document")]
    got = PeriodicSet.periodic(
        tuple(_as_int(p, "period entry") for p in period), residues)
    if got.dim != dim:
        raise InputError(f"declared dim {dim} does not match period {period}")
    return got


def detect_doc_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object")
    if "vertices" in doc:
        return "graph"
    if "moduli" in doc:
        return "action"
    if "period" in doc or "finite" in doc:
        return "periodic"
    raise InputError("unrecognized document (expected a graph, action, or periodic set)")
