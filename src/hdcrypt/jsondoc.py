"""Versioned JSON documents.

Every JSON file hdcrypt writes (crossbar, secret-keys, linear-decoder,
experiment-spec and experiment-report) is one object carrying a
`"format"` name and `"version": 1` ahead of its fields. This module owns
that envelope: it builds it, checks it, and maps every way a file can
fail to be such a document onto DataFormatError, naming the file, the
byte offset or the missing field.
"""

import json

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
