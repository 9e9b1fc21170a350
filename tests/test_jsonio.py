import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plunnecke_lab import InputError, PeriodicSet, format_rational, parse_rational
from plunnecke_lab import jsonio
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
