"""Columnar storage substrate: schemas, blocks, buffering, tables, indexes.

This package is the paper's "read-store": ordered, block-wise, optionally
compressed columnar tables with buffer-pool-mediated access and sparse
(zone-map) indexing. Everything the PDT layer sits on top of.
"""

from .backend import (
    ColumnMeta,
    MemoryBackend,
    MemoryStorage,
    StorageBackend,
    StorageFactory,
    resolve_storage,
)
from .blocks import BlockKey, BlockStore, DEFAULT_BLOCK_ROWS
from .btree import BPlusTree
from .buffer import BufferPool
from .io_stats import IOSnapshot, IOStats
from .mmap_backend import MmapFileBackend, MmapStorage
from .schema import ColumnSpec, DataType, Schema, SchemaError
from .sparse_index import SidRange, SparseIndex
from .table import StableTable

__all__ = [
    "BlockKey",
    "BlockStore",
    "ColumnMeta",
    "MemoryBackend",
    "MemoryStorage",
    "MmapFileBackend",
    "MmapStorage",
    "StorageBackend",
    "StorageFactory",
    "resolve_storage",
    "BPlusTree",
    "BufferPool",
    "ColumnSpec",
    "DataType",
    "DEFAULT_BLOCK_ROWS",
    "IOSnapshot",
    "IOStats",
    "Schema",
    "SchemaError",
    "SidRange",
    "SparseIndex",
    "StableTable",
]
