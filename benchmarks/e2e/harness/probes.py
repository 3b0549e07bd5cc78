"""Per-layer readings that are not spans: codec micro-probes and sizes.

Each one reaches below the stable surface by dotted name and degrades to
``None`` (→ ``null`` + ``unresolved``) when its target has gone.
"""

from __future__ import annotations

from .measure import perf
from .spans import resolve

CODEC_SAMPLE_ROWS = 5000


def sample_rows(cdss, limit: int = CODEC_SAMPLE_ROWS) -> list[tuple]:
    """A fixed sample of the live instance: the first ``limit`` rows in
    sorted order, labeled nulls (nested ones on ``bulk_load``) included."""
    rows: list[tuple] = []
    for name in cdss.relations():
        rows.extend(sorted(cdss.relation(name), key=repr))
        if len(rows) >= limit:
            break
    return rows[:limit]


def _per_row_us(function, items) -> tuple[float, list]:
    start = perf()
    out = [function(item) for item in items]
    return (perf() - start) / max(1, len(items)) * 1e6, out


def codec_probes(cdss) -> dict[str, float | None]:
    """``codec.dumps_row`` / ``loads_row`` and the serve tier's
    ``encode_row`` over the fixed row sample, in microseconds per row."""
    rows = sample_rows(cdss)
    values: dict[str, float | None] = {
        "storage.encode_us_per_row": None,
        "storage.decode_us_per_row": None,
        "serve.encode_us_per_row": None,
    }
    dumps = resolve("repro.storage.codec:dumps_row")
    loads = resolve("repro.storage.codec:loads_row")
    if dumps is not None:
        values["storage.encode_us_per_row"], texts = _per_row_us(dumps[2], rows)
        if loads is not None:
            values["storage.decode_us_per_row"], back = _per_row_us(
                loads[2], texts
            )
            if back != rows:
                raise AssertionError("codec round trip changed the rows")
    encode = resolve("repro.serve.protocol:encode_row")
    if encode is not None:
        values["serve.encode_us_per_row"], _ = _per_row_us(encode[2], rows)
    return values


def size_probes(cdss) -> dict[str, int | None]:
    """Live row count and provenance-table size of the loaded instance."""
    values: dict[str, int | None] = {
        "storage.rows_live": None,
        "provenance.rows": None,
    }
    try:
        system = cdss.system()
        values["storage.rows_live"] = system.total_tuples()
        values["provenance.rows"] = sum(
            len(system.db[name])
            for name in system.encoding.provenance_relation_names()
        )
    except (AttributeError, KeyError):
        pass
    return values
