"""JSON interchange for graphs, actions, periodic sets, and reports.

Each document kind has one schema here, and a check's bundle fields are
built from them in ``cli.REGISTRY``.  A document is checked once before
anything is built; the readers then index the checked document.  What a
schema does not say (duplicate ids, rational literals, ranks, budgets) is
refused by the reader or the constructor it calls.

Documents are emitted in a canonical form (sorted keys, sorted collections,
two-space indent, trailing newline) so that identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain
from operator import itemgetter
from types import FunctionType

from .density import PeriodicSet
from .dynamics import FinAbGroup, FiniteAction, GroupSet
from .errors import InputError
from .graphcore import LayeredMeasureGraph
from .rational import format_rational, parse_rational


# The largest order j or k a bundle may ask for, and the largest height a
# graph document may declare: iterated sumsets, the k-th powers of the
# comparands and a graph's iterated images all grow with it.  Generated
# bundles use k <= 3.
MAX_ORDER = 64


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Schemas.  A schema is a frozenset of types (a JSON scalar of one of them;
# INT refuses true and false), a tuple (a value that fits one of its
# schemas), `[item]` (a JSON array of items), a dict (a JSON object with
# these fields: a key ending in "?" is optional, the key `str` stands for
# every key, other keys are ignored), a set (one of its strings), or a
# function (the schema it returns for the value).
# ---------------------------------------------------------------------------

STR, INT = frozenset({str}), frozenset({int})
RATIONAL = STR | INT  # parse_rational's input
VECTOR = ([INT], INT)
GRAPH = {"height": INT, "labels": [STR],
         "vertices": [{"id": STR, "weight": RATIONAL, "layer": INT}],
         "edges": [{"tail": STR, "head": STR, "label": STR}]}
ACTION = {"moduli": [INT], "atoms": [{"id": STR, "weight": RATIONAL}],
          "generators": [{"perm": {str: STR}}]}


def PERIODIC(doc):
    if type(doc) is dict and "finite" in doc:
        return {"dim": INT, "finite": [VECTOR]}
    return {"dim": INT, "period": [INT], "residues": [VECTOR]}


_WHAT = {STR: "a JSON string", INT: "an integer", RATIONAL: "a JSON string or an integer",
         list: "a JSON array", dict: "a JSON object", tuple: "a JSON array or an integer"}


class _Refusal(Exception):
    """The first value a schema refuses; the walk adds its path as it unwinds."""

    def __init__(self, schema, value, *steps):  # schema None: a missing field
        self.schema, self.value, self.steps = schema, value, list(steps)


def check(value, schema, root: str = "") -> None:
    """Raise InputError at the first part of ``value`` that ``schema`` refuses.

    The error names the JSON path from ``root``: ``graph.vertices[3].id
    must be a JSON string (got [1])``; a bundle's fields are named bare.
    """
    try:
        _walk(value, schema, root)
    except _Refusal as bad:
        path = "".join(reversed(bad.steps)).removeprefix(".")
        if bad.schema is None:
            raise InputError(f"{path} is missing") from None
        kind = type(bad.schema)
        what = repr(min(bad.schema)) if kind is set else _WHAT[
            bad.schema if kind is frozenset else kind]
        got = f"{what} (got {reprlib.repr(bad.value)})"
        if not path:
            raise InputError(f"expected {got}") from None
        if path in ("j", "k"):  # a bundle's orders
            path = f"order {path}"
        raise InputError(f"{path} must be {got}") from None


def _walk(value, schema, step: str) -> None:
    """Raise _Refusal at the first part of ``value``, which ``step`` leads to
    from its parent, that ``schema`` refuses."""
    kind = type(schema)
    try:
        if kind is FunctionType:
            return _walk(value, schema(value), "")
        if kind is tuple:  # the alternative of the value's JSON type decides
            for sub in schema:
                if type(value) in (sub if type(sub) is frozenset else (type(sub),)):
                    return _walk(value, sub, "")
            raise _Refusal(schema, value)
        if kind is frozenset:
            fits = type(value) in schema
        elif kind is set:
            fits = type(value) is str and value in schema
        else:  # an array or an object
            fits = type(value) is kind
        if not fits:
            raise _Refusal(schema, value)
        if kind is list and not _all_fit(value, schema[0]):
            for i, item in enumerate(value):
                _walk(item, schema[0], f"[{i}]")
        elif kind is dict:
            for key, sub in schema.items():
                name = key if key is str else key.removesuffix("?")
                if key is str:
                    if not _all_fit(list(value.values()), sub):
                        for k, item in value.items():
                            _walk(item, sub, f"[{json.dumps(k)}]")
                elif name in value:
                    if type(sub) is not frozenset or type(value[name]) not in sub:
                        _walk(value[name], sub, "." + name)
                elif name == key:
                    raise _Refusal(None, None, "." + key)
    except _Refusal as bad:
        bad.steps.append(step)
        raise


def _all_fit(values: list, schema) -> bool:
    """Whether every item of ``values`` fits ``schema``, deciding the common
    shapes at C speed: the scalars of an array, or one field of all its
    objects, are tested at once.  False may also mean "walk them one by one"."""
    kind = type(schema)
    if kind is frozenset:
        return set(map(type, values)) <= schema
    if kind is tuple:
        return _all_fit(values, schema[0])
    if kind not in (list, dict) or not set(map(type, values)) <= {kind}:
        return False
    if kind is list:
        return _all_fit(list(chain.from_iterable(values)), schema[0])
    for key, sub in schema.items():
        if key is not str and key.endswith("?"):
            return False
        column = (chain.from_iterable(map(dict.values, values)) if key is str
                  else map(itemgetter(key), values))
        try:
            if not (set(map(type, column)) <= sub if type(sub) is frozenset
                    else _all_fit(list(column), sub)):
                return False
        except KeyError:  # a required field is missing
            return False
    return True


# ---------------------------------------------------------------------------
# Readers and writers.  A graph, action or periodic reader checks its
# document unless a bundle check already has (``checked=True``).
# ---------------------------------------------------------------------------


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


def graph_from_doc(doc: dict, *, checked: bool = False) -> LayeredMeasureGraph:
    if not checked:
        check(doc, GRAPH, "graph")
    if doc["height"] > MAX_ORDER:
        raise InputError(f"graph.height must be at most MAX_ORDER ({MAX_ORDER}) "
                         f"(got {doc['height']})")
    atoms, layer = {}, {}
    for row in doc["vertices"]:
        vid = row["id"]
        if vid in atoms:
            raise InputError(f"duplicate vertex id ({vid})")
        atoms[vid] = parse_rational(row["weight"])
        layer[vid] = row["layer"]
    edges = map(itemgetter("tail", "head", "label"), doc["edges"])
    return LayeredMeasureGraph(atoms, layer, doc["height"], doc["labels"], edges)


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


def action_from_doc(doc: dict, *, checked: bool = False) -> FiniteAction:
    if not checked:
        check(doc, ACTION, "action")
    atoms = {}
    for row in doc["atoms"]:
        aid = row["id"]
        if aid in atoms:
            raise InputError(f"duplicate atom id ({aid})")
        atoms[aid] = parse_rational(row["weight"])
    return FiniteAction(FinAbGroup(tuple(doc["moduli"])), atoms,
                        tuple(row["perm"] for row in doc["generators"]))


def group_set_to_doc(A: GroupSet) -> list:
    return [list(e) for e in sorted(A.elements)]


def group_set_from_doc(group: FinAbGroup, doc) -> GroupSet:
    return GroupSet.of(group, [(e,) if type(e) is int else e for e in doc])


def space_set_from_doc(doc) -> frozenset[str]:
    return frozenset(doc)


def periodic_to_doc(A: PeriodicSet) -> dict:
    if A.is_finite:
        return {"dim": A.dim, "finite": [list(p) for p in sorted(A.residues)]}
    return {
        "dim": A.dim,
        "period": list(A.period),
        "residues": [list(r) for r in sorted(A.residues)],
    }


def periodic_from_doc(doc: dict, *, checked: bool = False) -> PeriodicSet:
    if not checked:
        check(doc, PERIODIC, "periodic")
    if "finite" in doc:
        return PeriodicSet.finite(doc["dim"], doc["finite"])
    got = PeriodicSet.periodic(doc["period"], doc["residues"])
    if got.dim != doc["dim"]:
        raise InputError(f"declared dim {doc['dim']} does not match period {doc['period']}")
    return got


def read_bundle(theorem: str, fields: dict, doc) -> dict:
    """``doc`` checked as a ``theorem`` bundle with ``fields`` (each field's
    schema, in reading order), each field read by its schema.

    A translate set is read in the group of the action before it, and an
    absent optional id set as the empty set.  Then the orders j and k that
    ``fields`` names are refused past MAX_ORDER, before any sumset is formed;
    a field it does not name is ignored, as ``check`` ignores it.
    """
    check(doc, {"instance": STR, "theorem?": {theorem}, **fields})
    out, group = {}, None
    for key, schema in fields.items():
        key = key.removesuffix("?")
        if key in doc:
            out[key] = _read(schema, doc[key], group)
            group = out[key].group if schema is ACTION else group
        elif schema == [STR]:
            out[key] = frozenset()
    for key in ("j", "k"):
        if key in out and out[key] > MAX_ORDER:
            raise InputError(f"order {key} must be at most MAX_ORDER ({MAX_ORDER}) "
                             f"(got {out[key]})")
    return out


def _read(schema, value, group):
    if schema is GRAPH:
        return graph_from_doc(value, checked=True)
    if schema is ACTION:
        return action_from_doc(value, checked=True)
    if schema is PERIODIC:
        return periodic_from_doc(value, checked=True)
    if schema == [STR]:
        return space_set_from_doc(value)
    if schema == [VECTOR]:
        return group_set_from_doc(group, value)
    if type(schema) is list:  # an A_list
        return [_read(schema[0], item, group) for item in value]
    return parse_rational(value) if schema is RATIONAL else value


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
