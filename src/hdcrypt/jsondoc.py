"""Versioned JSON documents.

Every JSON file hdcrypt writes (crossbar, secret-keys, linear-decoder,
experiment-spec and experiment-report) is one object carrying a
`"format"` name and `"version": 1` ahead of its fields. This module owns
that envelope: it builds it, checks it, builds the config and row
objects nested in it, checks its integer and number-array fields, and
maps every way a file can fail to be such a document onto
DataFormatError, naming the file, the byte offset or the missing,
unknown, wrongly typed or wrongly shaped field.
"""

import dataclasses
import json
import typing

import numpy as np

from .errors import DataFormatError

VERSION = 1


def envelope(fmt, fields):
    """The document for `fields` under the `fmt` envelope."""
    return {"format": fmt, "version": VERSION, **fields}


def check(doc, fmt, required=()):
    """Return `doc` if it is a version-1 `fmt` document with every
    `required` field; raise DataFormatError otherwise."""
    if not isinstance(doc, dict):
        raise DataFormatError(
            f"a {fmt} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != fmt or doc.get("version") != VERSION:
        raise DataFormatError(f"not a version-{VERSION} {fmt} document")
    missing = [name for name in required if name not in doc]
    if missing:
        raise DataFormatError(f"{fmt} document has no {missing[0]!r} field")
    return doc


def build(cls, fields, where):
    """`cls(**fields)` for the dataclass `cls`, from a JSON object nested
    in a document; a non-object, a missing or an unknown field raises
    DataFormatError naming `where` and the field."""
    if not isinstance(fields, dict):
        raise DataFormatError(f"{where} must be a JSON object, got {type(fields).__name__}")
    declared = dataclasses.fields(cls)
    unknown = sorted(set(fields) - {f.name for f in declared})
    if unknown:
        raise DataFormatError(f"{where} has unknown field {unknown[0]!r}")
    missing = [f.name for f in declared if f.name not in fields
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise DataFormatError(f"{where} has no {missing[0]!r} field")
    return cls(**fields)


# JSON types a field annotated with each Python type may hold; a tuple
# field is read from a JSON list
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", tuple: "a list", type(None): "null"}


def _has_json_type(value, kind):
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is tuple:
        return isinstance(value, list)
    return isinstance(value, (int, float) if kind is float else kind)


def check_types(cls, fields, where):
    """Raise DataFormatError naming `where` and the field unless each
    value in the JSON object `fields` has the JSON type of the dataclass
    `cls`'s annotation for it: str, int (not bool), float (any number but
    bool), bool, tuple (a list), or one of these or null for `X | None`.
    Unknown names are left to `build`; run this first when `cls` checks
    its values on construction."""
    for f in dataclasses.fields(cls):
        kinds = typing.get_args(f.type) or (f.type,)
        if f.name in fields and not any(_has_json_type(fields[f.name], k) for k in kinds):
            expected = " or ".join(_JSON_NAMES[kind] for kind in kinds)
            raise DataFormatError(f"{where} field {f.name!r} must be {expected}, "
                                  f"got {fields[f.name]!r}")
    return fields


def integer(doc, name, where, low=None):
    """doc[name] if it is a JSON integer (not true or false) of at least
    `low`; raise DataFormatError naming `where` and the field otherwise."""
    value = doc[name]
    if not _has_json_type(value, int) or (low is not None and value < low):
        expected = "an integer" if low is None else f"an integer >= {low}"
        raise DataFormatError(f"{where} field {name!r} must be {expected}, got {value!r}")
    return value


def numbers(value, name, where, shape):
    """`value`, a field's JSON number (shape ()) or array, as a float64
    array of `shape` holding finite numbers; raise DataFormatError naming
    `where` and the field otherwise."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not all numbers
        array = None
    if array is None or array.shape != shape or not np.all(np.isfinite(array)):
        expected = "a finite number" if shape == () else f"a {shape} array of finite numbers"
        raise DataFormatError(f"{where} field {name!r} must be {expected}")
    return array


def save(path, doc, indent=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def load(path):
    """Parse a UTF-8 JSON file; the caller checks the envelope."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))
        raise DataFormatError(f"{path}: not JSON: {exc.msg}", offset=offset) from None
