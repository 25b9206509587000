"""Database facade and value-to-positional update translation."""

from .database import Database
from .update_processor import (
    BatchUpdater,
    DuplicateKey,
    KeyNotFound,
    PositionalUpdater,
    find_insert_position,
    find_rid_by_key,
    resolve_batch_positions,
)

__all__ = [
    "BatchUpdater",
    "Database",
    "DuplicateKey",
    "KeyNotFound",
    "PositionalUpdater",
    "find_insert_position",
    "find_rid_by_key",
    "resolve_batch_positions",
]
