"""The documented stats schema, and normalization of legacy keys.

Every stats surface in the system (``/stats`` on a serve node,
index and durability counters) reports snake_case keys following
these conventions:

- **Counters** end in ``_total`` in the metrics registry; in JSON
  stats blobs they keep their plain names (``requests``, ``appended``)
  because those names predate this module and are pinned by clients.
- **Durations** end in ``_seconds`` (``timeout_seconds``,
  ``settle_wall_seconds``).
- **Sizes** end in ``_bytes`` / ``_rows`` / ``_kb``.
- Nested blocks are one level deep and named after the layer:
  ``server``, ``admission``, ``snapshot``, ``engine``, ``indexes``,
  ``durability``.

Legacy keys kept as deprecation shims (old → new):

========================  ==========================
legacy key                normalized key
========================  ==========================
``timeout`` (admission)   ``timeout_seconds``
``wal_seq`` (durability)  ``wal_last_seq``
top-level ``requests``    ``server.requests``
top-level ``errors``      ``server.errors``
top-level ``publishes``   ``server.publishes``
========================  ==========================

:func:`normalize` rewrites a stats blob to the normalized names
(dropping the legacy spellings) — used by ``python -m repro stats``
so operators see one schema regardless of node version.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["LEGACY_KEYS", "normalize"]

#: Flat map of legacy key name → normalized key name.  Applied at any
#: nesting depth; collisions resolve in favour of the normalized key.
LEGACY_KEYS = {
    "timeout": "timeout_seconds",
    "wal_seq": "wal_last_seq",
}

#: Legacy top-level serve keys that moved into the ``server`` block.
LEGACY_SERVER_KEYS = ("requests", "errors", "publishes", "pending_edits")


def normalize(stats: Mapping) -> dict:
    """Return a copy of ``stats`` with legacy key spellings rewritten
    to the documented schema.  Unknown keys pass through untouched."""
    out = _rewrite(stats)
    # Fold legacy top-level serve counters into the ``server`` block
    # when both spellings are present (new nodes emit both).
    if isinstance(out.get("server"), dict):
        for key in LEGACY_SERVER_KEYS:
            if key in out and key in out["server"]:
                out.pop(key)
    return out


def _rewrite(value):
    if isinstance(value, Mapping):
        out = {}
        for key, inner in value.items():
            new_key = LEGACY_KEYS.get(key, key)
            rewritten = _rewrite(inner)
            if new_key in out and new_key != key:
                continue  # normalized spelling already present — keep it
            out[new_key] = rewritten
        return out
    if isinstance(value, list):
        return [_rewrite(item) for item in value]
    return value
