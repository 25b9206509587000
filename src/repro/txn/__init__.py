"""PDT-based ACID transaction management (paper section 3.3) plus the
cost-based checkpoint scheduler that keeps the delta structures small."""

from .checkpoint import (
    checkpoint_table,
    checkpoint_table_range,
    delta_memory_usage,
)
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
from .scheduler import (
    CheckpointPolicy,
    CheckpointScheduler,
    Decision,
    HotRangePolicy,
    MaintenanceAction,
    NeverPolicy,
    SchedulerStats,
    TableLoad,
    UpdateCountPolicy,
    policy_from_spec,
)
from .transaction import Transaction, TransactionError, TxnStatus
from .wal import WalRecord, WriteAheadLog, replay_into

__all__ = [
    "CheckpointPolicy",
    "CheckpointScheduler",
    "Decision",
    "GroupCommitCoordinator",
    "GroupCommitStats",
    "HotRangePolicy",
    "MaintenanceAction",
    "ManagerStats",
    "NeverPolicy",
    "PinnedLayout",
    "PinnedTable",
    "SchedulerStats",
    "SnapshotPin",
    "TableLoad",
    "TableState",
    "Transaction",
    "TransactionError",
    "TransactionManager",
    "TxnStatus",
    "UpdateCountPolicy",
    "WalRecord",
    "WriteAheadLog",
    "checkpoint_table",
    "checkpoint_table_range",
    "delta_memory_usage",
    "policy_from_spec",
    "recover_database",
    "recover_manager",
    "recover_persistent",
    "replay_into",
    "restore_sharded_tables",
]
