"""The JSON document reader shared by every loader."""

import json
import math

import numpy as np
import pytest

from paulipatch import ValidationError
from paulipatch.documents import (
    count,
    count_array,
    fields,
    integer,
    integer_array,
    number,
    number_array,
    numbers,
    parse,
)


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


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], math.nan, math.inf,
                                   -math.inf, 10**400])
def test_number_refuses_non_numbers(value):
    with pytest.raises(ValidationError) as err:
        number(value, "terms[1].coeff")
    assert err.value.path == "terms[1].coeff"


def test_integer_and_number_pass_values_through():
    assert integer(-3) == -3 and type(integer(7)) is int
    assert number(2) == 2.0 and type(number(2)) is float
    assert number(-0.25) == -0.25


def test_counts_are_integers_at_least_zero():
    assert count(0) == 0 and count(7) == 7
    assert count_array([0, 3]).tolist() == [0, 3] and count_array([]).shape == (0,)
    for value in (-1, True, 1.0, "1"):
        with pytest.raises(ValidationError) as err:
            count(value, "stats.paths_expanded")
        assert err.value.path == "stats.paths_expanded"
    for values in ([0, -2], [1, True], 5):
        with pytest.raises(ValidationError) as err:
            count_array(values, "sines")
        assert err.value.path == "sines"


def test_numbers_reads_a_list_of_numbers():
    assert numbers("[1, -0.5, 2e-3]", "center") == [1.0, -0.5, 0.002]
    assert numbers(b"[]", "center") == []


@pytest.mark.parametrize("text,path", [
    ("{not json", ""), ('{"center": [1]}', ""), ("1.5", ""), ("[1, true]", "center[1]"),
    ('["0.5"]', "center[0]"), ("[[1]]", "center[0]"), ("[0, NaN]", "center[1]"),
    ("[Infinity]", "center[0]"), ("[-Infinity]", "center[0]"),
], ids=["not-json", "object", "scalar", "bool-entry", "string-entry", "nested", "nan-entry",
        "infinity-entry", "minus-infinity-entry"])
def test_numbers_rejects(text, path):
    with pytest.raises(ValidationError) as err:
        numbers(text, "center")
    assert err.value.path == path


def test_arrays_read_lists_of_integers_and_numbers():
    ints = integer_array([3, -1, 0], "sines")
    assert ints.dtype == np.int64 and ints.tolist() == [3, -1, 0]
    values = number_array([1, -0.5], "weights")
    assert values.dtype == np.float64 and values.tolist() == [1.0, -0.5]
    assert integer_array([]).shape == number_array([]).shape == (0,)


@pytest.mark.parametrize("reader,values", [
    (integer_array, [1, True]), (integer_array, [1, 2.0]), (integer_array, ["1"]),
    (integer_array, 5), (integer_array, [[1]]), (number_array, [0.5, False]),
    (number_array, ["0.5"]), (number_array, {"w": 1}), (number_array, [1.0, math.nan]),
    (number_array, [math.inf]), (number_array, [-math.inf, 0.0]),
], ids=["int-bool", "int-float", "int-string", "int-scalar", "int-nested", "number-bool",
        "number-string", "number-object", "number-nan", "number-infinity",
        "number-minus-infinity"])
def test_arrays_refuse_other_values(reader, values):
    with pytest.raises(ValidationError) as err:
        reader(values, "column")
    assert err.value.path == "column"


def test_integer_array_beyond_int64_is_a_malformed_field():
    with pytest.raises(ValidationError):
        with fields("thing"):
            integer_array([2**63], "column")


def test_parse_takes_a_tuple_of_versions():
    for version in (1, 2):
        assert parse(json.dumps({"format": "thing", "version": version}), "thing", "thing",
                     (1, 2))["version"] == version
    for version in (3, True):
        with pytest.raises(ValidationError):
            parse(json.dumps({"format": "thing", "version": version}), "thing", "thing", (1, 2))


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
