"""Versioned JSON documents.

Every JSON file hdcrypt writes (crossbar, secret-keys, linear-decoder,
experiment-spec and experiment-report) is one object carrying a
`"format"` name and `"version": 1` ahead of its fields. This module owns
that envelope: `save` writes a format's fields inside it and `load`
reads them back out, the only way a JSON document is written or read.
It also builds the config and row objects nested in a document, checks
its integer and number-array fields, and maps every way a file can fail
to be such a document onto DataFormatError, naming the file, the byte
offset or the missing, unknown, wrongly typed or wrongly shaped field.
"""

import dataclasses
import json
import math
import typing

import numpy as np

from .errors import DataFormatError

VERSION = 1


def envelope(fmt, fields):
    """The document for `fields` under the `fmt` envelope."""
    return {"format": fmt, "version": VERSION, **fields}


def _check(doc, fmt, required):
    """Raise DataFormatError unless `doc` is a version-1 `fmt` document
    with every `required` field."""
    if not isinstance(doc, dict):
        raise DataFormatError(
            f"a {fmt} document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    # true and 1.0 compare equal to 1 in Python, but are no JSON integer
    if doc.get("format") != fmt or not (_has_json_type(version, int) and version == VERSION):
        raise DataFormatError(f"not a version-{VERSION} {fmt} document")
    missing = [name for name in required if name not in doc]
    if missing:
        raise DataFormatError(f"{fmt} document has no {missing[0]!r} field")


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


def check_entries(fields, name, kind, where):
    """Raise DataFormatError naming `where`, the list field `name` and the
    entry unless each entry of fields[name], if present, has the JSON type
    of `kind`, as in check_types, or is a NaN or infinity, which the
    caller's finiteness check rejects as a configuration value."""
    for i, value in enumerate(fields.get(name, ())):
        nonfinite = isinstance(value, float) and not math.isfinite(value)
        if not (nonfinite or _has_json_type(value, kind)):
            raise DataFormatError(f"{where} field {name!r} entry {i} must be "
                                  f"{_JSON_NAMES[kind]}, got {value!r}")


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
    except (TypeError, ValueError, OverflowError):  # ragged, not all numbers, or huge
        array = None
    if array is None or array.shape != shape or not np.all(np.isfinite(array)):
        expected = "a finite number" if shape == () else f"a {shape} array of finite numbers"
        raise DataFormatError(f"{where} field {name!r} must be {expected}")
    return array


def save(path, fmt, fields, indent=None):
    """Write the `fmt` document holding `fields` as JSON and a newline.
    `json.dumps` encodes it in one piece, with CPython's C encoder when
    `indent` is None; the bytes are those `json.dump` writes, in half the
    time for a model file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(envelope(fmt, fields), indent=indent))
        fh.write("\n")


def load(path, fmt, required=()):
    """The fields of the version-1 `fmt` document in the UTF-8 JSON file
    at `path`, without `format` and `version`; raise DataFormatError
    unless the file is such a document with every `required` field."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))
        raise DataFormatError(f"{path}: not JSON: {exc.msg}", offset=offset) from None
    except RecursionError:  # the parser recurses once per nested list or object
        raise DataFormatError(f"{path}: JSON nested too deeply to parse") from None
    _check(doc, fmt, required)
    del doc["format"], doc["version"]
    return doc
