"""The JSON document reader shared by every loader."""

import json

import pytest

from paulipatch import ValidationError
from paulipatch.documents import fields, integer, number, numbers, parse


def test_parse_returns_the_object_of_str_or_utf8_bytes():
    doc = {"format": "thing", "version": 1, "name": "café"}
    assert parse(json.dumps(doc), "thing", "thing") == doc
    assert parse(json.dumps(doc, ensure_ascii=False).encode(), "thing", "thing") == doc
    assert parse('{"n": 3}', "circuit") == {"n": 3}


@pytest.mark.parametrize("text", [
    "{not json", "", b"\xff{}", '{"name": "café"}'.encode("latin-1"), "[1]", "null",
    '"thing"', '{"version": 1}', '{"format": "other", "version": 1}',
    '{"format": "thing"}', '{"format": "thing", "version": 2}',
    '{"format": "thing", "version": true}',
], ids=["not-json", "empty", "not-utf8", "latin-1", "list", "null", "string", "no-format",
        "other-format", "no-version", "version-2", "bool-version"])
def test_parse_rejects(text):
    with pytest.raises(ValidationError):
        parse(text, "thing", "thing")


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None, [1]])
def test_integer_refuses_non_integers(value):
    with pytest.raises(ValidationError) as err:
        integer(value, "gates[0].param")
    assert err.value.path == "gates[0].param"


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_number_refuses_non_numbers(value):
    with pytest.raises(ValidationError) as err:
        number(value, "terms[1].coeff")
    assert err.value.path == "terms[1].coeff"


def test_integer_and_number_pass_values_through():
    assert integer(-3) == -3 and type(integer(7)) is int
    assert number(2) == 2.0 and type(number(2)) is float
    assert number(-0.25) == -0.25


def test_numbers_reads_a_list_of_numbers():
    assert numbers("[1, -0.5, 2e-3]", "center") == [1.0, -0.5, 0.002]
    assert numbers(b"[]", "center") == []


@pytest.mark.parametrize("text,path", [
    ("{not json", ""), ('{"center": [1]}', ""), ("1.5", ""), ("[1, true]", "center[1]"),
    ('["0.5"]', "center[0]"), ("[[1]]", "center[0]"),
], ids=["not-json", "object", "scalar", "bool-entry", "string-entry", "nested"])
def test_numbers_rejects(text, path):
    with pytest.raises(ValidationError) as err:
        numbers(text, "center")
    assert err.value.path == path


@pytest.mark.parametrize("error", [AttributeError, KeyError, TypeError, ValueError])
def test_fields_turns_lookup_errors_into_validation_errors(error):
    with pytest.raises(ValidationError, match="malformed thing"):
        with fields("thing"):
            raise error("boom")


def test_fields_keeps_validation_errors_and_others():
    with pytest.raises(ValidationError) as err:
        with fields("thing"):
            raise ValidationError("bad", path="n")
    assert err.value.path == "n"
    with pytest.raises(ZeroDivisionError):
        with fields("thing"):
            1 / 0
