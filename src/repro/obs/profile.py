"""Per-query profiles, the slow-query log, and commit-stage timings.

:class:`QueryProfile` is built by the streaming cursor as blocks flow:
plan time, time-to-first-block, total drain time, and per-shard
blocks/rows (counted where the shard feeds hand blocks to the cursor,
i.e. what each shard's pipeline actually streamed, pre-filter). When
tracing is enabled the profile also reports remote vs local block
counts, read off the query's span tree at finish time (the router
annotates shard-scan spans; the worker reports its own).

:class:`SlowQueryLog` keeps a bounded ring of queries that exceeded the
``slow_query_ms`` threshold. Each entry carries the profile dict and —
when tracing is on — the rendered span tree, and is also emitted
through :mod:`logging` (logger ``repro.obs.slow``), so a production run
gets actionable flight-recorder output without any polling.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field

log = logging.getLogger("repro.obs.slow")


@dataclass
class ShardScanProfile:
    """What one shard streamed into one query."""

    shard: str
    blocks: int = 0
    rows: int = 0

    def as_dict(self) -> dict:
        return {"shard": self.shard, "blocks": self.blocks,
                "rows": self.rows}


@dataclass
class QueryProfile:
    """Where one query's time and rows went."""

    table: str
    trace_id: str | None = None
    plan_s: float = 0.0
    total_s: float | None = None
    time_to_first_block_s: float | None = None
    rows: int = 0          # post-filter rows delivered to the consumer
    blocks: int = 0        # post-filter blocks delivered to the consumer
    shards: int = 0
    remote_blocks: int | None = None  # from span attrs; None w/o tracing
    local_blocks: int | None = None
    per_shard: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "trace_id": self.trace_id,
            "plan_s": self.plan_s,
            "total_s": self.total_s,
            "time_to_first_block_s": self.time_to_first_block_s,
            "rows": self.rows,
            "blocks": self.blocks,
            "shards": self.shards,
            "remote_blocks": self.remote_blocks,
            "local_blocks": self.local_blocks,
            "per_shard": [sp.as_dict() for sp in self.per_shard],
        }

    def fill_from_spans(self, spans) -> None:
        """Sum remote/local block counts off this query's spans.

        The router stamps ``remote_blocks``/``local_blocks`` on the
        shard-scan span it drove; a shard scan that never consulted the
        router (thread mode, or a payload-ineligible shard) carries only
        the job's ``blocks`` attr and counts as local."""
        remote = local = 0
        for span in spans:
            r = span.attrs.get("remote_blocks")
            l = span.attrs.get("local_blocks")
            if r is None and l is None and span.name == "shard.scan":
                l = span.attrs.get("blocks", 0)
            remote += r or 0
            local += l or 0
        self.remote_blocks = remote
        self.local_blocks = local


class SlowQueryLog:
    """Bounded ring of slow-query records; disabled when threshold is
    None."""

    def __init__(self, threshold_ms: float | None = None,
                 capacity: int = 256):
        self.threshold_ms = threshold_ms
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    def check(self, profile: QueryProfile, sink=None) -> bool:
        """Record (and log) the query if it crossed the threshold."""
        if self.threshold_ms is None or profile.total_s is None:
            return False
        elapsed_ms = profile.total_s * 1e3
        if elapsed_ms < self.threshold_ms:
            return False
        tree = ""
        if sink is not None and profile.trace_id is not None:
            tree = sink.render(profile.trace_id)
        entry = {"profile": profile.as_dict(), "span_tree": tree}
        with self._lock:
            self._entries.append(entry)
        log.warning(
            "slow query: table=%s %.2fms (threshold %.2fms) rows=%d "
            "shards=%d%s",
            profile.table, elapsed_ms, self.threshold_ms, profile.rows,
            profile.shards, ("\n" + tree) if tree else "",
        )
        return True

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
