"""Relational storage substrate: instances, indexes, statistics, and the
sqlite checkpoint store.

The storage layer of DESIGN.md's stack — the stand-in for the RDBMS
tables and Berkeley DB storage of the paper's Section 5.
"""

from .codec import (
    CodecError,
    decode_row,
    decode_value,
    dumps_row,
    encode_row,
    encode_value,
    key_text,
    loads_row,
)
from .database import Database, UnknownRelationError
from .instance import ArityError, Instance, Row, StorageError
from .persistence import checkpoint, checkpoint_equal, restore
from .snapshot import DatabaseSnapshot, pin_database
from .sqlite import SQLiteStore
from .stats import StatisticsCache, TableStats, compute_stats
from .zset import ZSet, apply_zset

__all__ = [
    "ArityError",
    "CodecError",
    "Database",
    "DatabaseSnapshot",
    "Instance",
    "Row",
    "SQLiteStore",
    "StatisticsCache",
    "StorageError",
    "TableStats",
    "UnknownRelationError",
    "ZSet",
    "apply_zset",
    "checkpoint",
    "checkpoint_equal",
    "compute_stats",
    "decode_row",
    "decode_value",
    "dumps_row",
    "encode_row",
    "encode_value",
    "key_text",
    "loads_row",
    "pin_database",
    "restore",
]
