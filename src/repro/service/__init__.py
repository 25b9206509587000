"""Async query service: a concurrent front-end over the PDT database.

The paper's layering exists so readers never block writers; this package
carries that property across the API boundary. A
:class:`~repro.service.service.QueryService` admits concurrent query,
range-query, and update/batch requests (thread-safe ``submit_*`` calls or
an asyncio façade), plans every read against a database-wide snapshot pin
(one commit point across all shards), schedules one scan job per request
and shard, and returns streaming cursors that yield result blocks as
shards complete. See ``DESIGN.md`` ("Query service") for the job
scheduling, cursor protocol, and pin lifecycle.
"""

from .cursor import StreamingCursor
from .jobs import (
    AdmissionController,
    JobScheduler,
    ServiceClosed,
    ServiceError,
    ServiceSaturated,
    ServiceStats,
    ShardScanJob,
)
from .plan import (
    ScanPlan,
    ShardScanSpec,
    filter_blocks,
    iter_plan_blocks,
    plan_scan,
)
from .service import QueryService

__all__ = [
    "AdmissionController",
    "JobScheduler",
    "QueryService",
    "ScanPlan",
    "ServiceClosed",
    "ServiceError",
    "ServiceSaturated",
    "ServiceStats",
    "ShardScanJob",
    "ShardScanSpec",
    "StreamingCursor",
    "filter_blocks",
    "iter_plan_blocks",
    "plan_scan",
]
