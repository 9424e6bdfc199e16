"""One reader for the JSON documents the package loads.

Circuits, observables and parameter points come in as JSON, surrogate
artifacts and Taylor surrogates go out and come back as JSON, and every
measurement record log starts with a JSON header line. All of them are read
through this module, so a malformed document raises ``ValidationError``
whichever loader reads it, and the command line exits with code 2:

* ``parse`` decodes UTF-8 JSON text into an object and checks its
  ``format`` tag and ``version``; ``numbers`` decodes a list of numbers,
  such as the centre point of a Taylor patch;
* ``integer`` and ``number`` read one count or one value, refusing booleans
  (which JSON would otherwise hand over as 1 and 0) and strings;
* ``fields`` reports what a missing or mistyped field makes the reading code
  raise as ``ValidationError``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .errors import ValidationError


def _decode(text: str | bytes, what: str):
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{what} is not UTF-8 JSON: {exc}") from None


def parse(text: str | bytes, what: str, fmt: str | None = None, version: int = 1) -> dict:
    """The JSON object in ``text``; with ``fmt``, its format tag and version are checked."""
    doc = _decode(text, what)
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if fmt is not None:
        if doc.get("format") != fmt:
            raise ValidationError(f"not a {what}: format {doc.get('format')!r}")
        found = doc.get("version")
        if isinstance(found, bool) or found != version:  # true would equal version 1
            raise ValidationError(f"unsupported {what} version {found!r}")
    return doc


def integer(value, path: str = "") -> int:
    """A count or index: a JSON integer, not a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    return value


def number(value, path: str = "") -> float:
    """A coefficient, weight or angle: a JSON number, not a string or boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {value!r}", path)
    return float(value)


def numbers(text: str | bytes, what: str) -> list[float]:
    """The JSON list of numbers in ``text``, such as a parameter point."""
    values = _decode(text, what)
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a JSON list, got {type(values).__name__}")
    return [number(value, f"{what}[{k}]") for k, value in enumerate(values)]


@contextmanager
def fields(what: str):
    """Turn a missing or mistyped field of a ``what`` document into ``ValidationError``."""
    try:
        yield
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from None
