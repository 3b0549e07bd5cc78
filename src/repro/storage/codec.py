"""A stable, JSON-compatible encoding of rows and column values.

Durable storage (the sqlite checkpoint store, the write-ahead log) needs
to put relation rows on disk and read them back *byte-identically* across
process restarts.  In-memory instances never had that problem: rows are plain
Python tuples whose values are JSON scalars plus the engine's labeled
nulls (:class:`~repro.datalog.ast.SkolemValue`, whose arguments may
recursively contain further labeled nulls or tuples).

The encoding is deliberately boring:

* JSON scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass
  through unchanged — the common case costs nothing;
* a labeled null becomes ``{"$null": [function_name, [args...]]}``;
* a tuple/list value becomes ``{"$tuple": [items...]}``;
* anything else is rejected loudly (:class:`CodecError`) — silent
  ``repr`` round-trips are exactly the corruption this module exists to
  prevent.

:func:`dumps_row` / :func:`loads_row` give the serialized form (compact,
sorted keys, so equal rows always serialize to equal bytes), and
:func:`key_text` gives a canonical text key for one row or bucket key —
what the checkpoint store uses as its primary key.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..datalog.ast import SkolemValue
from .instance import Row, StorageError

NULL_TAG = "$null"
TUPLE_TAG = "$tuple"


class CodecError(StorageError):
    """A value cannot be encoded for durable storage (or decoded back)."""


def encode_value(value: object) -> object:
    """One column value as a JSON-serializable object."""
    # bool first: isinstance(True, int) is True and the distinction must
    # survive the round trip.
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, SkolemValue):
        return {
            NULL_TAG: [
                value.function_name,
                [encode_value(arg) for arg in value.args],
            ]
        }
    if isinstance(value, (tuple, list)):
        return {TUPLE_TAG: [encode_value(item) for item in value]}
    raise CodecError(
        f"cannot durably encode a {type(value).__name__} value: {value!r}"
    )


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    # json.loads only ever produces exact builtin types, so dispatching on
    # type() keeps the dominant scalar case to a single comparison — this
    # is the recovery path's hot loop.
    kind = type(value)
    if kind is dict:
        if len(value) == 1:
            if NULL_TAG in value:
                name, args = value[NULL_TAG]
                return SkolemValue(
                    str(name), tuple([decode_value(a) for a in args])
                )
            if TUPLE_TAG in value:
                return tuple([decode_value(item) for item in value[TUPLE_TAG]])
        raise CodecError(f"unrecognized encoded value: {value!r}")
    if kind is list:
        raise CodecError(f"bare lists are not valid encoded values: {value!r}")
    return value


def encode_row(row: Sequence[object]) -> list:
    return [encode_value(value) for value in row]


def decode_row(encoded: Sequence[object]) -> Row:
    return tuple(decode_value(value) for value in encoded)


def dumps_row(row: Sequence[object]) -> str:
    """A row as canonical JSON text (equal rows -> equal bytes)."""
    return json.dumps(
        encode_row(row), separators=(",", ":"), sort_keys=True
    )


def loads_row(text: str) -> Row:
    return decode_row(json.loads(text))


def dumps_value(value: object) -> str:
    """One value as canonical JSON text."""
    return json.dumps(
        encode_value(value), separators=(",", ":"), sort_keys=True
    )


def loads_value(text: str) -> object:
    return decode_value(json.loads(text))


def key_text(key: object) -> str:
    """A canonical, totally ordered text form of a bucket key.

    Bucket keys in practice are strings (catalog entries) or tuples of
    strings (:func:`repro.storage.persistence._row_key` output); the encoding
    covers every value :func:`encode_value` does, so any row can also be
    its own key.  Equality is exact; the ordering is merely *some*
    deterministic total order (text order of the canonical JSON), which
    is all cursor iteration needs.
    """
    return dumps_value(key)
