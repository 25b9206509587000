"""repro — Positional Delta Trees for column stores.

A complete, from-scratch reproduction of "Positional Update Handling in
Column Stores" (Héman, Zukowski, Nes, Sidirourgos, Boncz — SIGMOD 2010):
the PDT data structure, positional MergeScan, the Propagate and Serialize
transaction algorithms, three-layer snapshot-isolation transaction
management, the value-based (VDT) baseline, and the columnar storage,
query-engine, and TPC-H substrates needed to reproduce the paper's
evaluation.

Quickstart::

    from repro import Database, DataType, Schema

    schema = Schema.build(
        ("store", DataType.STRING), ("prod", DataType.STRING),
        ("qty", DataType.INT64), sort_key=("store", "prod"))
    db = Database()
    db.create_table("inventory", schema,
                    [("London", "chair", 30), ("Paris", "rug", 1)])
    db.insert("inventory", ("Berlin", "table", 10))
    print(db.query("inventory", columns=["store", "qty"]).rows())
"""

from .core import (
    FlatPDT,
    PDT,
    ShadowTable,
    TransactionConflict,
    merge_rows,
    merge_scan,
    merge_scan_layers,
    propagate,
    propagate_batch,
    serialize,
)
from .db import BatchUpdater, Database
from .engine import Relation, scan_clean, scan_pdt, scan_vdt
from .service import QueryService, StreamingCursor
from .shard import ShardedTable, ShardRouter
from .storage import (
    BlockStore,
    BufferPool,
    DataType,
    IOStats,
    MemoryBackend,
    MemoryStorage,
    MmapFileBackend,
    MmapStorage,
    Schema,
    SparseIndex,
    StableTable,
    StorageBackend,
    StorageFactory,
)
from .txn import (
    SnapshotPin,
    Transaction,
    TransactionManager,
    WriteAheadLog,
)
from .vdt import VDT, vdt_merge_scan

__version__ = "1.0.0"

__all__ = [
    "BatchUpdater",
    "BlockStore",
    "BufferPool",
    "Database",
    "DataType",
    "FlatPDT",
    "IOStats",
    "MemoryBackend",
    "MemoryStorage",
    "MmapFileBackend",
    "MmapStorage",
    "PDT",
    "QueryService",
    "Relation",
    "Schema",
    "ShadowTable",
    "ShardRouter",
    "ShardedTable",
    "SnapshotPin",
    "SparseIndex",
    "StableTable",
    "StorageBackend",
    "StorageFactory",
    "StreamingCursor",
    "Transaction",
    "TransactionConflict",
    "TransactionManager",
    "VDT",
    "WriteAheadLog",
    "__version__",
    "merge_rows",
    "merge_scan",
    "merge_scan_layers",
    "propagate",
    "propagate_batch",
    "scan_clean",
    "scan_pdt",
    "scan_vdt",
    "serialize",
    "vdt_merge_scan",
]
