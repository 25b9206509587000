"""Streaming cursors: result blocks as shards complete, never a full copy.

A :class:`StreamingCursor` is what every service read returns. It drains
its per-shard feeds in shard (key) order, rebasing local RIDs into the
global domain with the same :func:`~repro.engine.scan.rebase_block_streams`
inline reads use, and applies the request's key filter and
projection block by block — so the first result block is available as soon
as the first shard's pipeline produces it, while later shards are still
scanning. Nothing is materialized unless the caller asks
(:meth:`to_relation`).

Cursors are synchronous iterators and asynchronous iterators at once:
``for rid, arrays in cursor`` from a worker thread, or ``async for rid,
arrays in cursor`` from an event loop (each ``__anext__`` hops to a thread
so the loop never blocks on a shard scan). Exhausting or closing the
cursor releases its admission slot, its snapshot-pin lease, and fires the
service's between-requests maintenance hook.
"""

from __future__ import annotations

import time

from ..engine.relation import Relation
from ..engine.scan import rebase_block_streams
from ..obs import QueryProfile, ShardScanProfile


class StreamingCursor:
    """Iterator over one request's ``(rid, arrays)`` result blocks."""

    def __init__(self, plan, feeds, on_finish=None, tracer=None,
                 root_span=None):
        self._plan = plan
        self._on_finish = on_finish
        self._submitted_at = time.perf_counter()
        self._tracer = tracer
        self._root_span = root_span
        self.profile = QueryProfile(
            table=plan.table, shards=len(feeds),
            trace_id=root_span.trace_id if root_span is not None else None,
        )
        self._stream = self._blocks(feeds)
        self._finished = False

    @property
    def columns(self) -> list[str]:
        return list(self._plan.columns)

    @property
    def table(self) -> str:
        return self._plan.table

    def _blocks(self, feeds):
        from .plan import filter_blocks

        # Count what each shard's pipeline actually streamed (pre-filter).
        streams = []
        for feed, spec in zip(feeds, self._plan.parts):
            shard_prof = ShardScanProfile(shard=spec.pinned.name)
            self.profile.per_shard.append(shard_prof)
            streams.append(self._counted(feed, shard_prof))
        return filter_blocks(self._plan, rebase_block_streams(streams))

    @staticmethod
    def _counted(feed, shard_prof: ShardScanProfile):
        for rid, arrays in feed.blocks():
            shard_prof.blocks += 1
            if arrays:
                shard_prof.rows += len(next(iter(arrays.values())))
            yield rid, arrays

    # -- consumption -------------------------------------------------------

    def next_block(self):
        """Next ``(rid, arrays)`` result block, or ``None`` at the end.

        Blocks until a shard job produces one; a failed job re-raises its
        exception here (after releasing the cursor's resources).
        """
        if self._finished:
            return None
        try:
            rid, arrays = next(self._stream)
        except StopIteration:
            self._finish()
            return None
        except BaseException:
            self._finish()
            raise
        prof = self.profile
        if prof.time_to_first_block_s is None:
            prof.time_to_first_block_s = \
                time.perf_counter() - self._submitted_at
        prof.blocks += 1
        if arrays:
            prof.rows += len(next(iter(arrays.values())))
        return rid, arrays

    def __iter__(self):
        return self

    def __next__(self):
        block = self.next_block()
        if block is None:
            raise StopIteration
        return block

    def __aiter__(self):
        return self

    async def __anext__(self):
        import asyncio

        block = await asyncio.to_thread(self.next_block)
        if block is None:
            raise StopAsyncIteration
        return block

    def to_relation(self) -> Relation:
        """Drain the cursor into a materialized :class:`Relation`."""
        return Relation.from_batches(self._plan.columns, iter(self))

    def fetch_rows(self) -> list[tuple]:
        """Drain into Python row tuples (testing convenience)."""
        return self.to_relation().rows()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop consuming and release resources. In-flight shard jobs run
        to completion (their feeds are unbounded), but their output is
        dropped."""
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        prof = self.profile
        prof.total_s = time.perf_counter() - self._submitted_at
        if self._root_span is not None:
            # Finish the request root before on_finish runs the
            # slow-query check, so the rendered tree includes it.
            self._root_span.attrs["rows"] = prof.rows
            self._root_span.attrs["blocks"] = prof.blocks
            self._tracer.finish(self._root_span)
        if self._on_finish is not None:
            self._on_finish(self)

    def __enter__(self) -> "StreamingCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # Backstop for abandoned cursors: an admission slot or pin lease
        # must not leak just because a caller dropped the reference.
        try:
            self._finish()
        except BaseException:
            pass  # interpreter teardown; the service may be gone already

    def __repr__(self) -> str:
        state = "done" if self._finished else "open"
        return (
            f"StreamingCursor({self._plan.table!r}, "
            f"shards={self.profile.shards}, {state})"
        )
