"""Scan operators: bridging stored tables + delta structures to Relations.

Three scan modes mirror the paper's three TPC-H configurations:

* :func:`scan_clean` — no-updates run: stable table only.
* :func:`scan_pdt` — positional merge through a stack of PDT layers; never
  reads sort-key columns unless the query asks for them.
* :func:`scan_vdt` — value-based merge; always reads sort-key columns.

All three are *block-pipelined*: stable storage yields decoded blocks,
each PDT layer splices its updates in block-at-a-time (see
:class:`repro.core.merge.BlockMerger`), and only the terminal
``Relation.from_batches`` materializes. Every shard-scan reader (inline
plans, service jobs, worker processes) streams
:func:`shard_scan_stream`: the merge's own blocks, one per stored block,
cut only where one runs to twice the stored block size.
"""

from __future__ import annotations

from functools import partial

from ..core.merge import reblock
from ..core.stack import merge_scan_layers
from ..vdt.merge import vdt_merge_scan
from . import expr as ex
from . import functions as fn
from .relation import Relation


def scan_clean(table, columns=None) -> Relation:
    """Materialize a stable table scan with no update merging."""
    columns = list(columns) if columns is not None \
        else list(table.schema.column_names)
    return Relation.from_batches(columns, table.scan(columns=columns))


def scan_pdt(table, layers, columns=None) -> Relation:
    """Materialize a positional MergeScan through PDT ``layers``."""
    columns = list(columns) if columns is not None \
        else list(table.schema.column_names)
    return Relation.from_batches(
        columns, merge_scan_layers(table, layers, columns=columns))


def shard_scan_stream(stable, layers, columns, start: int = 0,
                      stop: int | None = None, where=None, agg=None,
                      low=None, high=None, counter: dict | None = None):
    """The shard-scan pipeline: one partition's pinned version as a
    ``(first_rid, {column: ndarray})`` block stream.

    The MergeScan of the stable SID window ``[start, stop)`` through
    ``layers``, narrowed to the inclusive sort-key bounds ``[low, high]``
    inside its first stored block, yields one block per non-empty merged
    stored block; :func:`repro.core.merge.reblock` cuts a block of twice
    the image's ``block_rows`` or more into views. With a pushed predicate
    or aggregate the stream is wrapped by
    :func:`repro.engine.expr.pushdown_stream` (``counter`` receives its
    row accounting); an aggregate also trims its rows to the bounds
    there, on the image's sort-key columns. Inline reads, service jobs,
    fan-out sources and worker processes all run this function, so every
    run over one pinned version yields the same blocks — what skip-based
    crash re-dispatch relies on.
    """
    stream = reblock(
        merge_scan_layers(stable, layers, columns, start, stop,
                          low=low, high=high),
        stable.block_rows)
    if where is None and agg is None:
        return stream
    trim = None
    if agg is not None and (low or high):
        trim = partial(fn.key_range_mask, sort_key=stable.schema.sort_key,
                       low=low, high=high)
    return ex.pushdown_stream(stream, where=where, agg=agg, trim=trim,
                              counter=counter)


def rebase_block_streams(parts):
    """Concatenate per-partition block streams into one global RID domain.

    ``parts`` is an ordered iterable of ``(first_rid, {column: ndarray})``
    block streams, each over its partition's *local* RID domain (starting
    at 0). Blocks are yielded in partition order with local RIDs rebased:
    partition ``i``'s offset is the total row count the preceding
    partitions produced, measured from their actual output — so the
    offsets stay exact under any per-partition insert/delete balance.
    Inline reads and the query service's streaming cursors share this as
    the single definition of cross-shard RID order.
    """
    offset = 0
    for part in parts:
        produced = 0
        for first_rid, arrays in part:
            yield offset + first_rid, arrays
            if arrays:
                produced = first_rid + len(next(iter(arrays.values())))
        offset += produced


def fanout_scan_blocks(sources, executor=None):
    """Scan partitions concurrently and re-concatenate in key order.

    ``sources`` is an ordered list of zero-argument callables, each
    returning a ``(first_rid, {column: ndarray})`` block stream over one
    partition's *local* RID domain (starting at 0). With an ``executor``
    (the multiprocess :class:`repro.exec.router.ExecutorRouter`) every
    source is handed to ``executor.submit_stream`` up front, which ships
    the partition to a worker process when the source carries remote
    identity (see :class:`repro.exec.ScanSource`) and resolves to its
    materialized block list; without one the sources run one after the
    other on the calling thread. Either way the blocks are re-concatenated
    by :func:`rebase_block_streams`, contents untouched.
    """
    if executor is not None:
        futures = [executor.submit_stream(s) for s in sources]
        parts = (future.result() for future in futures)
    else:
        parts = (source() for source in sources)
    yield from rebase_block_streams(parts)


def scan_vdt(table, vdt, columns=None) -> Relation:
    """Materialize a value-based merge scan (reads SK columns always)."""
    columns = list(columns) if columns is not None \
        else list(table.schema.column_names)
    return Relation.from_batches(
        columns, vdt_merge_scan(table, vdt, columns=columns))
