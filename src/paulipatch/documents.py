"""One reader for the JSON documents the package loads.

Circuits, observables and parameter points come in as JSON, surrogate
artifacts and Taylor surrogates go out and come back as JSON, and every
measurement record log starts with a JSON header line. All of them are read
through this module, so a malformed document raises ``ValidationError``
whichever loader reads it, and the command line exits with code 2:

* ``parse`` decodes UTF-8 JSON text into an object and checks its
  ``format`` tag and ``version``; ``numbers`` decodes a list of numbers,
  such as the centre point of a Taylor patch;
* ``integer`` and ``number`` read one index or one value, refusing booleans
  (which JSON would otherwise hand over as 1 and 0) and strings, and
  ``number`` refuses the ``NaN`` and ``Infinity`` that ``json`` reads although
  JSON has neither; ``count`` reads an integer that must be >= 0;
  ``integer_array``, ``count_array`` and ``number_array`` read a list of them
  into a numpy array at once;
* ``fields`` reports what a missing or mistyped field makes the reading code
  raise as ``ValidationError``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError


def _decode(text: str | bytes, what: str):
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{what} is not UTF-8 JSON: {exc}") from None


def parse(text: str | bytes, what: str, fmt: str | None = None,
          version: int | tuple[int, ...] = 1) -> dict:
    """The JSON object in ``text``; with ``fmt``, its format tag and version are checked.

    ``version`` is the one version read, or a tuple of the versions read.
    """
    doc = _decode(text, what)
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if fmt is not None:
        if doc.get("format") != fmt:
            raise ValidationError(f"not a {what}: format {doc.get('format')!r}")
        found = doc.get("version")
        versions = version if isinstance(version, tuple) else (version,)
        if isinstance(found, bool) or found not in versions:  # true would equal version 1
            raise ValidationError(f"unsupported {what} version {found!r}")
    return doc


def integer(value, path: str = "") -> int:
    """An index or size: a JSON integer, not a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    return value


def count(value, path: str = "") -> int:
    """A size or counter: a JSON integer >= 0."""
    if integer(value, path) < 0:
        raise ValidationError(f"expected a count >= 0, got {value!r}", path)
    return value


def number(value, path: str = "") -> float:
    """A coefficient, weight or angle: a finite JSON number, not a string or boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {value!r}", path)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {value!r}", path)
    return value


def integer_array(values, path: str = "") -> np.ndarray:
    """A JSON list of integers as an int64 array."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ValidationError("expected a list of integers", path)
    return np.array(values, dtype=np.int64)


def count_array(values, path: str = "") -> np.ndarray:
    """A JSON list of integers >= 0 as an int64 array."""
    array = integer_array(values, path)
    if array.min(initial=0) < 0:
        raise ValidationError("expected counts >= 0", path)
    return array


def number_array(values, path: str = "") -> np.ndarray:
    """A JSON list of finite numbers as a float64 array."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValidationError("expected a list of numbers", path)
    array = np.array(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValidationError("expected finite numbers, got NaN or Infinity", path)
    return array


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
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from None
