import json
import re

import pytest

from jacobilie import (
    DocumentError,
    JacobiLieBialgebra,
    StructureTensor,
    Vector,
    document_from_bialgebra,
    lookup,
    parse_document,
    serialize_document,
    verify,
)
from jacobilie.linalg import format_fraction

GOOD = """
{
  "dim": 3,
  "g": {"name": "III"},
  "gstar": {"constants": [
    {"i": 1, "j": 2, "k": 1, "value": "1"},
    {"i": 1, "j": 3, "k": 1, "value": "1"},
    {"i": 2, "j": 3, "k": 2, "value": "1"},
    {"i": 2, "j": 3, "k": 3, "value": "-1"}
  ]},
  "alpha": ["0", "-1", "-1"],
  "beta": ["-2", "0", "0"]
}
"""


def test_parse_resolves_catalog_reference():
    doc = parse_document(GOOD)
    assert doc.g.name == "III"
    assert doc.g.tensor == lookup("III").tensor
    assert verify(doc.bialgebra()).passed


def test_parse_completes_antisymmetry():
    doc = parse_document(GOOD)
    t = doc.gstar.tensor
    assert t[1, 0, 0] == -1
    assert t[2, 1, 1] == -1


def test_parse_parametrized_reference():
    doc = parse_document(
        {
            "dim": 3,
            "g": {"name": "VIa", "param": "2"},
            "gstar": {"constants": []},
            "alpha": ["0", "0", "0"],
            "beta": ["0", "0", "0"],
        }
    )
    assert doc.g.param == 2
    assert doc.g.tensor == lookup("VIa", 2).tensor


def test_round_trip_is_byte_identical():
    text = serialize_document(parse_document(GOOD))
    again = serialize_document(parse_document(text))
    assert text == again
    assert text.endswith("\n")
    # canonical form: keys sorted, rationals in lowest terms
    assert json.loads(text)["beta"] == ["-2", "0", "0"]


def test_round_trip_normalizes_rationals():
    doc = parse_document(
        {
            "dim": 2,
            "g": {"name": "A1"},
            "gstar": {"constants": [{"i": 1, "j": 2, "k": 1, "value": "2/4"}]},
            "alpha": ["0", "0"],
            "beta": ["0", "0"],
        }
    )
    text = serialize_document(doc)
    assert '"1/2"' in text and "2/4" not in text


def test_document_from_bialgebra_round_trip():
    b = JacobiLieBialgebra(
        lookup("A2").tensor,
        StructureTensor.from_brackets(2, {(0, 1, 1): 1}),
        Vector([-1, 0]),
        Vector([0, 1]),
    )
    doc = document_from_bialgebra(b, g_name="A2")
    assert parse_document(serialize_document(doc)).bialgebra() == b


def _explicit_of_dim(data, dim):
    data.update(
        dim=dim,
        g={"constants": [{"i": 1, "j": 2, "k": 1, "value": "1"}]},
        gstar={"constants": []},
        alpha=["0"] * dim,
        beta=["0"] * dim,
    )


def _bad_beta(text):
    return pytest.param(
        lambda d: d.update(beta=["0", "0", text]), "bad rational", id=f"bad rational {text!r}"
    )


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("dim"), "missing fields"),
        (lambda d: d.update(dim="3"), "dim"),
        (lambda d: d.update(extra=1), "unexpected fields"),
        (lambda d: d["g"].update(name="nope"), "unknown Lie algebra"),
        (lambda d: d.update(alpha=["0", "0"]), "alpha"),
        (lambda d: d.update(beta=["0", "0", "x"]), "bad rational"),
        # the schema allows "n" and "p/q" only; Fraction() would accept these
        *(_bad_beta(text) for text in ("1.5", "1e0", "1_000", "+3", " 2", "1/00")),
        (
            lambda d: d["gstar"]["constants"].append(
                {"i": 2, "j": 1, "k": 1, "value": "1"}
            ),
            "1 <= i < j",
        ),
        (
            lambda d: d["gstar"]["constants"].extend(
                [
                    {"i": 1, "j": 2, "k": 1, "value": "1"},
                    {"i": 1, "j": 2, "k": 1, "value": "2"},
                ]
            ),
            "duplicate",
        ),
        # JSON booleans load as bool, a subclass of int: never a number here
        (lambda d: d.update(alpha=[True, "0", "0"]), "alpha[0]"),
        (lambda d: d["gstar"]["constants"][0].update(i=True), "indices must be integers"),
        (lambda d: d.update(dim=True), "dim: must be a positive integer"),
        # explicit tensors of any size would parse, and verifying one costs O(d^5)
        (lambda d: _explicit_of_dim(d, 4), "dim: must be 1, 2 or 3"),
        (lambda d: _explicit_of_dim(d, 60), "dim: must be 1, 2 or 3"),
    ],
)
def test_parse_rejects_malformed(mutate, message):
    data = json.loads(GOOD)
    mutate(data)
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert message in str(err.value)


def test_parse_reports_json_position():
    with pytest.raises(DocumentError) as err:
        parse_document('{"dim": 3,,}')
    assert "line 1" in str(err.value)


def test_dimension_mismatch_with_catalog():
    with pytest.raises(DocumentError) as err:
        parse_document(
            {
                "dim": 2,
                "g": {"name": "III"},
                "gstar": {"constants": []},
                "alpha": ["0", "0"],
                "beta": ["0", "0"],
            }
        )
    assert "dimension" in str(err.value)


def test_catalog_reference_with_bad_param():
    with pytest.raises(DocumentError):
        parse_document(
            {
                "dim": 3,
                "g": {"name": "VIa", "param": "1"},
                "gstar": {"constants": []},
                "alpha": ["0", "0", "0"],
                "beta": ["0", "0", "0"],
            }
        )


from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=12, max_size=12))
def test_round_trip_property(values):
    doc = parse_document(
        {
            "dim": 3,
            "g": {"name": "II"},
            "gstar": {
                "constants": [
                    {"i": 1, "j": 2, "k": 1, "value": str(values[0])},
                    {"i": 1, "j": 3, "k": 2, "value": str(values[1])},
                    {"i": 2, "j": 3, "k": 3, "value": str(values[2])},
                ]
            },
            "alpha": [str(v) for v in values[3:6]],
            "beta": [str(v) for v in values[6:9]],
        }
    )
    text = serialize_document(doc)
    assert serialize_document(parse_document(text)) == text
    assert parse_document(text).bialgebra() == doc.bialgebra()


RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=8),
        st.text(alphabet="0123456789-+/. _eE", max_size=8),
        st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    )
)
def test_rational_slot_is_strict_or_canonical(text):
    # any text in a rational slot is either refused or read as the exact
    # "n" / "p/q" it spells, and then serialized in lowest terms
    data = json.loads(GOOD)
    data["beta"][2] = text
    try:
        doc = parse_document(data)
    except DocumentError as exc:
        assert "bad rational" in str(exc)
        return
    assert RATIONAL_TEXT.fullmatch(text)
    num, _, den = text.partition("/")
    value = Fraction(int(num), int(den or 1))
    serialized = serialize_document(doc)
    assert json.loads(serialized)["beta"][2] == format_fraction(value)
    assert serialize_document(parse_document(serialized)) == serialized
