import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import InputError, PeriodicSet, format_rational, parse_rational
from plunnecke_lab import jsonio, rational
from plunnecke_lab.generators import (random_action, random_layered_graph,
                                      random_periodic_or_finite)

seeds = st.integers(0, 10 ** 9)


@given(seeds)
def test_graph_round_trip(seed):
    g = random_layered_graph(random.Random(seed))
    assert jsonio.graph_from_doc(jsonio.graph_to_doc(g)) == g


@given(seeds)
def test_action_round_trip(seed):
    act = random_action(random.Random(seed))
    assert jsonio.action_from_doc(jsonio.action_to_doc(act)) == act


@given(seeds)
def test_periodic_round_trip(seed):
    a = random_periodic_or_finite(random.Random(seed), dim=random.Random(seed + 1).randint(1, 2))
    got = jsonio.periodic_from_doc(jsonio.periodic_to_doc(a))
    if a.is_finite:
        assert got == a
    else:
        assert got.period == a.period and got.residues == a.residues


def test_weights_must_be_decimal_free():
    doc = {"height": 1, "labels": [], "edges": [],
           "vertices": [{"id": "v", "layer": 0, "weight": "0.5"}]}
    with pytest.raises(InputError):
        jsonio.graph_from_doc(doc)


def test_duplicate_vertex_ids_rejected():
    doc = {"height": 1, "labels": [], "edges": [],
           "vertices": [{"id": "v", "layer": 0, "weight": "1/2"},
                        {"id": "v", "layer": 1, "weight": "1/2"}]}
    with pytest.raises(InputError):
        jsonio.graph_from_doc(doc)


def test_missing_fields_name_the_location():
    with pytest.raises(InputError, match="height"):
        jsonio.graph_from_doc({"labels": [], "vertices": [], "edges": []})


_VERTEX = {"id": "v", "layer": 0, "weight": "1/2"}
_EDGE = {"tail": "v", "head": "w", "label": "a"}
_ATOM = {"id": "0", "weight": "1/2"}


def _without(row, *keys):
    return {k: v for k, v in row.items() if k not in keys}


def _graph(vertices, edges=()):
    return {"height": 1, "labels": ["a"], "vertices": list(vertices), "edges": list(edges)}


def _action(atoms, generators=()):
    return {"moduli": [1], "atoms": list(atoms), "generators": list(generators)}


def _message(parse, doc):
    with pytest.raises(InputError) as caught:
        parse(doc)
    return str(caught.value)


_BAD_WEIGHT = _message(parse_rational, "x")
_ROW_MESSAGES = [
    # each row's first missing field is named by its path, in schema order
    (jsonio.graph_from_doc, _graph([_without(_VERTEX, "id")]), "graph.vertices[0].id is missing"),
    (jsonio.graph_from_doc, _graph([_without(_VERTEX, "weight")]),
     "graph.vertices[0].weight is missing"),
    (jsonio.graph_from_doc, _graph([_without(_VERTEX, "layer")]),
     "graph.vertices[0].layer is missing"),
    (jsonio.graph_from_doc, _graph([_without(_VERTEX, "id", "weight", "layer")]),
     "graph.vertices[0].id is missing"),
    (jsonio.graph_from_doc, _graph([_without(_VERTEX, "weight", "layer")]),
     "graph.vertices[0].weight is missing"),
    (jsonio.graph_from_doc, _graph([["v", 0, "1/2"]]),
     "graph.vertices[0] must be a JSON object (got ['v', 0, '1/2'])"),
    (jsonio.graph_from_doc, _graph(["v"]), "graph.vertices[0] must be a JSON object (got 'v')"),
    (jsonio.graph_from_doc, _graph([None]), "graph.vertices[0] must be a JSON object (got None)"),
    # every row's shape is checked before any content: a later missing field
    # is found before a duplicate id or a bad weight
    (jsonio.graph_from_doc, _graph([_VERTEX, _without(_VERTEX, "weight")]),
     "graph.vertices[1].weight is missing"),
    (jsonio.graph_from_doc, _graph([{"id": "v", "weight": "x"}]),
     "graph.vertices[0].layer is missing"),
    (jsonio.graph_from_doc, _graph([_VERTEX], [_without(_EDGE, "tail")]),
     "graph.edges[0].tail is missing"),
    (jsonio.graph_from_doc, _graph([_VERTEX], [_without(_EDGE, "head")]),
     "graph.edges[0].head is missing"),
    (jsonio.graph_from_doc, _graph([_VERTEX], [_without(_EDGE, "label")]),
     "graph.edges[0].label is missing"),
    (jsonio.graph_from_doc, _graph([_VERTEX], [_without(_EDGE, "head", "label")]),
     "graph.edges[0].head is missing"),
    (jsonio.graph_from_doc, _graph([_VERTEX], [["v", "w", "a"]]),
     "graph.edges[0] must be a JSON object (got ['v', 'w', 'a'])"),
    (jsonio.action_from_doc, _action([_without(_ATOM, "id")]), "action.atoms[0].id is missing"),
    (jsonio.action_from_doc, _action([_without(_ATOM, "weight")]),
     "action.atoms[0].weight is missing"),
    (jsonio.action_from_doc, _action([["0", "1/2"]]),
     "action.atoms[0] must be a JSON object (got ['0', '1/2'])"),
    (jsonio.action_from_doc, _action([_ATOM, _without(_ATOM, "weight")]),
     "action.atoms[1].weight is missing"),
    (jsonio.action_from_doc, _action([_ATOM], [{}]), "action.generators[0].perm is missing"),
    (jsonio.action_from_doc, _action([_ATOM], [[{"0": "0"}]]),
     "action.generators[0] must be a JSON object (got [{'0': '0'}])"),
]


@pytest.mark.parametrize("case", range(len(_ROW_MESSAGES)))
def test_each_missing_row_field_keeps_its_message(case):
    parse, doc, message = _ROW_MESSAGES[case]
    assert _message(parse, doc) == message


@pytest.mark.parametrize("parse, doc, message", [
    (jsonio.graph_from_doc, _graph([_VERTEX, dict(_VERTEX, layer=1)]), "duplicate vertex id (v)"),
    (jsonio.graph_from_doc, _graph([dict(_VERTEX, weight="x")]), _BAD_WEIGHT),
    (jsonio.action_from_doc, _action([_ATOM, _ATOM]), "duplicate atom id (0)"),
])
def test_content_is_refused_once_the_shape_fits(parse, doc, message):
    assert _message(parse, doc) == message


def test_kind_detection():
    assert jsonio.detect_doc_kind({"vertices": []}) == "graph"
    assert jsonio.detect_doc_kind({"moduli": [2]}) == "action"
    assert jsonio.detect_doc_kind({"period": [2]}) == "periodic"
    assert jsonio.detect_doc_kind({"finite": []}) == "periodic"
    with pytest.raises(InputError):
        jsonio.detect_doc_kind({"something": 1})


_GOOD_DOCS = {
    "graph": {"height": 1, "labels": ["a"], "edges": [],
              "vertices": [{"id": "v", "layer": 0, "weight": "1/1"}]},
    "action": {"moduli": [2],
               "atoms": [{"id": "0", "weight": "1/2"}, {"id": "1", "weight": "1/2"}],
               "generators": [{"perm": {"0": "1", "1": "0"}}]},
    "periodic": {"dim": 1, "period": [2], "residues": [[0]]},
}
_PARSERS = {"graph": jsonio.graph_from_doc, "action": jsonio.action_from_doc,
            "periodic": jsonio.periodic_from_doc}
_GARBAGE = [None, 5, "x", "1.5", 0.5, True, {}, {"a": 1}, [None], [[]], [["x"]], [[0.5]]]


@pytest.mark.parametrize("kind", sorted(_GOOD_DOCS))
def test_malformed_values_raise_input_errors_only(kind):
    base = _GOOD_DOCS[kind]
    assert _PARSERS[kind](dict(base))
    for key in base:
        for bad in _GARBAGE:
            doc = dict(base)
            doc[key] = bad
            try:
                _PARSERS[kind](doc)
            except InputError:
                pass


def test_canonical_dump_is_stable():
    a = PeriodicSet.periodic((4,), [(2,), (0,)])
    text = jsonio.dumps_canonical(jsonio.periodic_to_doc(a))
    assert text == jsonio.dumps_canonical(json.loads(text))
    assert text.endswith("\n")


@pytest.mark.parametrize("text, want", [
    ("3/4", Fraction(3, 4)), (" -6/8 ", Fraction(-3, 4)), ("+7", Fraction(7)),
    ("0", Fraction(0)), (5, Fraction(5)), (Fraction(1, 3), Fraction(1, 3)),
])
def test_parse_rational_accepts_p_over_q(text, want):
    assert parse_rational(text) == want


@pytest.mark.parametrize("text", [
    "1e3", "1_000", "1.5", "1/2.0", "0x10", "", "  ", "3/", "/4", "3/0", "3/-4",
    "+-3", "3 / 4", "inf", "nan", "\u00bd", "\u0663", True, 0.5,
])
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_rationals_past_the_digit_limit_raise_input_errors():
    with pytest.raises(InputError, match="digit limit"):
        parse_rational("3" * 5000)
    with pytest.raises(InputError, match="digit limit"):
        format_rational(Fraction(10 ** 5000, 3))


def test_equal_literals_share_one_fraction():
    first = parse_rational("3/12")
    again = parse_rational("".join(["3/", "12"]))  # equal text, another str object
    assert again is first and again == Fraction(1, 4)
    assert parse_rational(" 3/12") == first


@pytest.mark.parametrize("value, message", [
    ("1e3", "bad rational literal '1e3'; expected 'p/q'"),
    ("1/0", "bad rational literal '1/0'; expected 'p/q'"),
    (" ", "bad rational literal ' '; expected 'p/q'"),
    ([1], "bad rational literal [1]; expected 'p/q'"),
    (None, "bad rational literal None; expected 'p/q'"),
    ("3" * 5000, f"rational literal of 5000 characters is past the "
                 f"{sys.get_int_max_str_digits()}-digit limit"),
])
def test_refused_literals_are_refused_on_every_call(value, message):
    for _ in range(3):
        with pytest.raises(InputError) as exc:
            parse_rational(value)
        assert str(exc.value) == message


def test_a_cached_literal_is_refused_after_the_digit_limit_drops():
    text = "7" * 700
    limit = sys.get_int_max_str_digits()
    assert parse_rational(text) == int(text)
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(InputError, match="digit limit"):
            parse_rational(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert parse_rational(text) == int(text)


def test_literal_cache_size_is_pinned():
    assert rational.LITERAL_CACHE_SIZE == 1024
    assert rational._parse_literal.cache_info().maxsize == 1024


def test_parse_rational_matches_fraction_on_accepted_literals():
    limit = sys.get_int_max_str_digits()
    rng = random.Random("parse-rational")
    digits = lambda k: "".join(rng.choice("0123456789") for _ in range(k))
    texts = ["0/5", "-0", "+0/7", "007/0014", "-12/18", "+3"]
    for _ in range(300):
        sign = rng.choice(["", "+", "-"])
        numerator = "0" * rng.randint(0, 3) + digits(rng.randint(1, 12))
        denominator = "0" * rng.randint(0, 2) + str(rng.randint(1, 10 ** 6))
        texts.append(sign + numerator + rng.choice(["", "/" + denominator]))
    for k in (limit - 1, limit):
        texts += [digits(k), "-" + digits(k), "1/" + "9" * k, digits(k) + "/3"]
    for text in texts:
        assert parse_rational(text) == Fraction(text), text
        assert parse_rational(f"  {text}\n") == Fraction(text), text
    for text in ("3/0", "-0/0", "9" * (limit + 1), "1/" + "7" * (limit + 1)):
        with pytest.raises((ZeroDivisionError, ValueError)):
            Fraction(text)
        with pytest.raises(InputError):
            parse_rational(text)
