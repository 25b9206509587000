"""PDT-based ACID transaction management (paper section 3.3) plus the
checkpoint scheduler that keeps the delta structures small."""

from .checkpoint import checkpoint_table, checkpoint_table_range
from .group_commit import (
    GroupCommitCoordinator,
    GroupCommitStats,
)
from .manager import ManagerStats, TableState, TransactionManager
from .pins import PinnedLayout, PinnedTable, SnapshotPin
from .recovery import (
    recover_database,
    recover_manager,
    recover_persistent,
    restore_sharded_tables,
)
from .scheduler import CheckpointScheduler, SchedulerStats
from .transaction import Transaction, TransactionError, TxnStatus
from .wal import WalRecord, WriteAheadLog, replay_into

__all__ = [
    "CheckpointScheduler",
    "GroupCommitCoordinator",
    "GroupCommitStats",
    "ManagerStats",
    "PinnedLayout",
    "PinnedTable",
    "SchedulerStats",
    "SnapshotPin",
    "TableState",
    "Transaction",
    "TransactionError",
    "TransactionManager",
    "TxnStatus",
    "WalRecord",
    "WriteAheadLog",
    "checkpoint_table",
    "checkpoint_table_range",
    "recover_database",
    "recover_manager",
    "recover_persistent",
    "replay_into",
    "restore_sharded_tables",
]
