"""Planning pinned scans: from a snapshot pin to per-shard scan specs.

Every read — through the query service, or inline through
``Database.query*`` (against an explicit pin, or the ephemeral one a
latest-state read takes) — is planned here: the pin's captured shard
layout routes range predicates to the shards whose key ranges intersect,
each surviving shard's captured (stale) sparse index narrows the scan to
a SID range, and the result is an ordered list of :class:`ShardScanSpec`
— one per shard (an unsharded table is a one-part plan), each naming
exactly the pinned objects a MergeScan pipeline needs. Every reader of a
spec — the inline chain, a service job, a fan-out source, a worker
process — streams it through the one shard-scan stream
(:func:`~repro.engine.scan.shard_scan_stream`): a block is one stored
block's merge, cut into views only where it runs to twice the image's
``block_rows``.

Push-down: a plan may carry a predicate (:class:`~repro.engine.expr.Expr`)
and/or a partial-aggregate spec (:class:`~repro.engine.expr.AggSpec`).
Both ride on every shard spec and are evaluated *inside* the scan job
(:meth:`ShardScanSpec.pushed_stream`), so only qualifying rows — or one
partial-aggregate block per shard — ever reach a feed. The predicate also
contributes conservative sort-key bounds to router and sparse-index
pruning and to the narrowing of each shard's merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import functions as fn
from ..engine.scan import (
    fanout_scan_blocks,
    rebase_block_streams,
    shard_scan_stream,
)
from ..exec.router import ScanSource
from ..shard.router import ShardRouter


@dataclass(frozen=True)
class ShardScanSpec:
    """One shard's share of a pinned scan: the version + the SID range.

    ``where`` / ``agg`` are the pushed-down predicate and aggregate (both
    optional). ``low`` / ``high`` are the plan's inclusive sort-key
    bounds (explicit and implied by ``where``): the merge narrows the SID
    range to them inside its first stored block, and an aggregate job,
    whose rows never reach the cursor's key trim, trims to them itself.
    """

    pinned: object  # PinnedTable
    scan_cols: tuple
    sid_lo: int
    sid_hi: int  # >= stable rows means "to the end", incl. trailing inserts
    where: object = None  # Expr | None
    agg: object = None  # AggSpec | None
    low: tuple | None = None
    high: tuple | None = None

    @property
    def pushdown(self) -> bool:
        return self.where is not None or self.agg is not None

    def pushed_stream(self, counter: dict | None = None):
        """The spec's block stream: the shard-scan pipeline
        (:func:`~repro.engine.scan.shard_scan_stream`) over the pinned
        version's ``[sid_lo, sid_hi)`` within ``[low, high]``, with the
        pushed-down predicate/aggregate applied when the spec carries
        one. Process workers run the same function on the same inputs."""
        pinned = self.pinned
        return shard_scan_stream(
            pinned.stable, pinned.layers, self.scan_cols, self.sid_lo,
            self.sid_hi, where=self.where, agg=self.agg, low=self.low,
            high=self.high, counter=counter,
        )

    def push_payload(self) -> dict | None:
        """The worker-protocol form of the pushed-down computation, or
        None when the spec pushes nothing."""
        if not self.pushdown:
            return None
        push: dict = {}
        if self.where is not None:
            push["where"] = self.where.to_payload()
        if self.agg is not None:
            push["agg"] = self.agg.to_payload()
        return push


@dataclass(frozen=True)
class ScanPlan:
    """An ordered set of shard scans plus the request's filter/projection."""

    table: str
    columns: tuple
    scan_cols: tuple
    sort_key: tuple
    parts: tuple
    low: tuple | None = None
    high: tuple | None = None
    where: object = None  # Expr | None — evaluated inside the shard jobs
    agg: object = None  # AggSpec | None — partials merged at the cursor

    @property
    def filtered(self) -> bool:
        """Whether result blocks need cursor-side trim/projection. The
        pushed predicate itself is already applied in-job; it still flags
        the plan filtered because the scan set carries predicate/sort-key
        columns the caller did not ask for."""
        return (self.low is not None or self.high is not None
                or self.where is not None)

    def filter_block(self, arrays: dict) -> dict | None:
        """Apply the inclusive (prefix-aware) ``[low, high]`` sort-key
        predicate to one block and project to the requested columns;
        ``None`` when no row qualifies. Blocks the predicate fully covers
        pass through without copying."""
        mask = fn.key_range_mask(arrays, self.sort_key, self.low,
                                 self.high)
        if mask is None or mask.all():
            return {c: arrays[c] for c in self.columns}
        if not mask.any():
            return None
        return {c: arrays[c][mask] for c in self.columns}


def _tighter_high(a: tuple, b: tuple) -> tuple:
    """The tighter of two inclusive upper prefix bounds. A prefix admits
    every extension, so of two bounds equal on their common prefix the
    longer one is tighter; otherwise the smaller one is."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return a if len(a) >= len(b) else b
    return min(a, b)


def plan_scan(pin, table: str, low=None, high=None,
              columns=None, where=None, agg=None) -> ScanPlan:
    """Plan a scan of ``table`` at the pin's commit point.

    ``low``/``high`` are inclusive sort-key (or SK-prefix) bounds, as in
    ``Database.query_range``; with neither, the plan is a full scan whose
    blocks stream in global RID order. ``where`` (an
    :class:`~repro.engine.expr.Expr`) and ``agg`` (an
    :class:`~repro.engine.expr.AggSpec`) push evaluation into the shard
    jobs: the predicate's sort-key bounds join the explicit ones for
    router/sparse-index pruning and merge narrowing (a conservative
    superset — the full predicate is re-applied in-job), and an
    aggregate plan's ``columns`` become the aggregate's output columns.
    """
    low = tuple(low) if low is not None else None
    high = tuple(high) if high is not None else None
    names = pin.physical_names(table)
    schema = pin.table(names[0]).stable.schema
    # Key bounds: the explicit range intersected with whatever the
    # pushed predicate implies for the leading sort-key column. They
    # prune shards and granules, narrow each shard's merge and trim an
    # aggregate job's rows — exactly, since the predicate implies its
    # own bounds. The cursor's trim still uses the explicit [low, high],
    # and the predicate is evaluated exactly, in-job.
    key_lo, key_hi = low, high
    if where is not None:
        for col in where.columns():
            schema.dtype_of(col)  # fail the batch on unknown columns
        wlow, whigh = where.sk_bounds(schema.sort_key)
        if wlow is not None:
            key_lo = wlow if key_lo is None else max(key_lo, wlow)
        if whigh is not None:
            key_hi = whigh if key_hi is None \
                else _tighter_high(key_hi, whigh)
    pruned = key_lo is not None or key_hi is not None
    layout = pin.layouts.get(table)
    if pruned and layout is not None:
        router = ShardRouter(layout.boundaries)
        # Inverted bounds prune every shard: an empty plan, matching
        # the empty relation the live range path returns.
        names = [names[i]
                 for i in router.shards_for_range(key_lo, key_hi)]
    where_cols = sorted(where.columns()) if where is not None else []
    if agg is not None:
        agg = agg.bind(schema)  # validates columns, pins dtypes
        columns = list(agg.output_columns())
        scan_cols = list(dict.fromkeys(
            agg.inputs() + where_cols
            + (list(schema.sort_key)
               if low is not None or high is not None else [])
        ))
        if not scan_cols:
            # count(*) alone names no column, but a block's row count is
            # read off its arrays: scan the leading sort-key column.
            scan_cols = [schema.sort_key[0]]
    else:
        columns = (list(schema.column_names) if columns is None
                   else list(columns))
        filtered = (low is not None or high is not None
                    or where is not None)
        scan_cols = (
            list(dict.fromkeys(columns + where_cols
                               + list(schema.sort_key)))
            if filtered else columns
        )
    parts = []
    for name in names:
        pt = pin.table(name)
        if pruned:
            sid_range = pt.sparse_index.sid_range_for_key_range(
                key_lo, key_hi)
            lo, hi = sid_range.start, sid_range.stop
        else:
            lo, hi = 0, pt.stable.num_rows
        parts.append(ShardScanSpec(
            pt, tuple(scan_cols), lo, hi, where=where, agg=agg,
            low=key_lo, high=key_hi,
        ))
    return ScanPlan(
        table=table, columns=tuple(columns), scan_cols=tuple(scan_cols),
        sort_key=tuple(schema.sort_key), parts=tuple(parts),
        low=low, high=high, where=where, agg=agg,
    )


def filter_blocks(plan: ScanPlan, stream):
    """Apply a plan's filter/projection to a rebased block stream.

    Unfiltered plans pass through in the exact global RID domain;
    filtered plans re-number RIDs densely over the qualifying rows (the
    pushed predicate was already applied in-job, so only the key trim
    and projection run here). Aggregate plans merge the per-shard
    partial blocks and finalize into one result block. The single
    definition both the inline pinned queries and the service's
    streaming cursors run their blocks through — the byte-identity
    oracle and the streamed path cannot diverge.
    """
    if plan.agg is not None:
        merger = plan.agg.aggregator()
        for _rid, arrays in stream:
            merger.merge(arrays)
        yield 0, merger.finalize()
        return
    if not plan.filtered:
        yield from stream
        return
    out_rid = 0
    for _, arrays in stream:
        block = plan.filter_block(arrays)
        if block is None:
            continue
        n = len(next(iter(block.values()))) if block else 0
        if n:
            yield out_rid, block
            out_rid += n


def iter_plan_blocks(plan: ScanPlan, router=None):
    """Execute a plan synchronously, yielding ``(rid, arrays)`` result
    blocks — the inline (service-less) form every ``Database.query*``
    and ``ShardedTable.scan_blocks`` uses.

    Shard specs run one after the other on the calling thread, unless
    ``router`` (:class:`~repro.exec.router.ExecutorRouter`) is in process
    mode *and* the plan has more than one part: then the parts fan out to
    shard worker processes concurrently. A one-part plan has nothing to
    overlap — the caller would only wait on a worker hop — so it never
    leaves the calling thread. Both forms stream every part through
    :meth:`ShardScanSpec.pushed_stream`, so the rebased/filtered result
    is byte-identical either way.
    """
    if router is not None and len(plan.parts) > 1 \
            and router.fanout_executor() is not None:
        # Capture the caller's span context here: the sources run on
        # driver-pool threads, where contextvars would read nothing.
        tracer = router.tracer
        trace_ctx = tracer.ctx() if tracer is not None and tracer.enabled \
            else None
        sources = [
            ScanSource(
                spec.pushed_stream,
                stable=spec.pinned.stable,
                layers=spec.pinned.layers,
                columns=spec.scan_cols,
                sid_lo=spec.sid_lo,
                sid_hi=spec.sid_hi,
                low=spec.low,
                high=spec.high,
                trace_ctx=trace_ctx,
                push=spec.push_payload(),
            )
            for spec in plan.parts
        ]
        return filter_blocks(
            plan, fanout_scan_blocks(sources, executor=router))
    return filter_blocks(plan, rebase_block_streams(
        spec.pushed_stream() for spec in plan.parts))
