"""The shard worker process: read-only scans over mmap'd segments.

``worker_main`` is the (spawn-safe, importable) entry point of one
:class:`ShardWorker` process. The worker owns nothing: it opens shard
storage scopes **read-only** (no writer lock, no orphan sweep, writes
rejected), rebuilds the pinned snapshot from the job's serialized pin
vector, and runs the one shard-scan pipeline
(:func:`repro.engine.scan.shard_scan_stream`) the parent would have run
on a thread — the merge's own blocks, cut only where one runs to twice
the opened image's ``block_rows``. Result blocks go out through the
shared ring (:mod:`repro.exec.transport`); only control frames cross
the pipe.

Stable images are cached per ``(scope root, table)`` keyed by the
published ``(image_lsn, segment epoch)`` pair, so repeated jobs against
one pinned version pay the block decode once. The epoch matters: a
checkpoint that runs without an intervening commit republishes the same
table name at the *same* LSN, and only the never-reused epoch tells the
two images apart. A job whose pair does not match the published catalog
answers ``stale`` — the parent falls back to its thread path (the pinned
version is simply not on disk, e.g. the pin straddled an unpublished
checkpoint) — never a wrong result.

Crash contract: the parent counts delivered blocks per job. Because a
pinned scan is deterministic (same payload -> identical block sequence),
a re-dispatched job carries ``skip=N`` and the replacement worker
re-runs the stream, suppressing the first N blocks — the consumer's
byte stream continues exactly where the dead worker left it.
"""

from __future__ import annotations

import time

from .pinvec import rebuild_layers
from .transport import ShmRingWriter


class _Stale(Exception):
    """Published catalog does not carry the requested image version."""


class _Unsupported(Exception):
    """The job's pushed-down computation is outside this worker's
    vocabulary (version skew): the parent must run it locally. Distinct
    from ``_Stale`` so the router's stale-image counter stays honest."""


class _ScopeCache:
    """Per-worker cache of read-only storage scopes and stable images."""

    def __init__(self):
        self._backends: dict[str, object] = {}  # root -> MmapFileBackend
        self._tables: dict = {}  # (root, table) -> ((lsn, epoch), stable, pool)

    def _open(self, root: str, fresh: bool = False):
        from ..storage.mmap_backend import MmapFileBackend

        backend = None if fresh else self._backends.get(root)
        if backend is None:
            old = self._backends.pop(root, None)
            if old is not None:
                old.close()
            backend = MmapFileBackend(root, readonly=True)
            self._backends[root] = backend
        return backend

    def stable_for(self, payload: dict):
        """The stable image + buffer pool for a job's pinned version."""
        from ..storage.blocks import BlockStore
        from ..storage.buffer import BufferPool
        from ..storage.table import StableTable

        root, table = payload["root"], payload["table"]
        want = (payload["image_lsn"], payload["epoch"])
        cached = self._tables.get((root, table))
        if cached is not None and cached[0] == want:
            return cached[1], cached[2]
        # Cache miss or version moved on: reopen the scope so the check
        # runs against the *currently published* catalog, not a stale map.
        backend = self._open(root, fresh=cached is not None)
        have_lsn = backend.get_table_meta(table).get("image_lsn")
        have = (None if have_lsn is None else int(have_lsn),
                backend.table_epoch(table))
        if None in have or have != want:
            raise _Stale(
                f"{table}: published image (lsn, epoch) {have} "
                f"!= pinned {want}"
            )
        store = BlockStore(backend=backend)
        pool = BufferPool(store)
        schema = store.table_schema(table)
        if schema is None:
            raise _Stale(f"{table}: no schema in published catalog")
        stable = StableTable.from_storage(table, schema, pool)
        self._tables[(root, table)] = (want, stable, pool)
        return stable, pool

    def close(self) -> None:
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()
        self._tables.clear()


def _decode_push(push: dict) -> dict:
    """Rebuild the pushed-down computation from its payload as
    :func:`~repro.engine.scan.shard_scan_stream` keyword arguments,
    rejecting anything outside the supported vocabulary *before* the
    scan starts (so an unsupported job never half-streams)."""
    from ..engine import expr as ex

    known = {"where", "agg"}
    unknown = set(push) - known
    if unknown:
        raise _Unsupported(f"unknown push-down fields {sorted(unknown)}")
    try:
        return {
            "where": (ex.expr_from_payload(push["where"])
                      if "where" in push else None),
            "agg": (ex.agg_from_payload(push["agg"])
                    if "agg" in push else None),
        }
    except ex.PushdownUnsupported as exc:
        raise _Unsupported(str(exc)) from None


def _run_job(cache: _ScopeCache, ring, conn, job_id: int,
             payload: dict) -> None:
    from ..engine.scan import shard_scan_stream

    push = payload.get("push")
    pushed = _decode_push(push) if push else {}
    stable, pool = cache.stable_for(payload)
    # Telemetry for the final frame: the parent merges the IO delta into
    # its db-level stats (exactly once, only for *completed* jobs — a
    # crashed attempt ships nothing and its redispatch re-reads honestly)
    # and stitches the span into its trace sink.
    io_before = pool.io.snapshot()
    trace_ctx = payload.get("trace")
    wall_start = time.time()
    t0 = time.perf_counter()
    layers = rebuild_layers(stable.schema, payload["layers"])
    pushdown_counter = {"rows_in": 0, "rows_out": 0} if pushed else None
    # The parent's own pipeline on the same inputs: the block sequence
    # is identical on either side, which keeps skip-based crash
    # re-dispatch exact, pushed jobs included.
    bounds = {end: tuple(payload[end]) for end in ("low", "high")
              if end in payload}
    stream = shard_scan_stream(
        stable, layers, payload["columns"], payload["sid_lo"],
        payload["sid_hi"], counter=pushdown_counter, **bounds, **pushed)
    skip = payload.get("skip", 0)
    delay = payload.get("block_delay_s") or 0.0
    produced = 0
    rows = 0
    for first_rid, arrays in stream:
        produced += 1
        if produced <= skip:
            continue
        if delay:
            time.sleep(delay)  # test hook: widen the mid-scan kill window
        if arrays:
            rows += len(next(iter(arrays.values())))
        frame = ring.try_write(arrays) if ring is not None else None
        if frame is None:
            # Ring full (a slow consumer pins the oldest frames) or
            # object-only block: ship inline. Slower, never stuck.
            conn.send(("block", job_id, first_rid,
                       {"off": 0, "end": 0, "cols": [], "inline": arrays}))
        else:
            conn.send(("block", job_id, first_rid, frame))
    io_delta = pool.io.since(io_before)
    extras: dict = {"io": io_delta}
    if pushdown_counter is not None:
        extras["pushdown"] = pushdown_counter
    if trace_ctx is not None:
        from ..obs.trace import worker_span_dict

        extras["spans"] = [worker_span_dict(
            trace_ctx, "worker.scan", wall_start,
            time.perf_counter() - t0,
            {
                "table": payload["table"],
                "blocks": max(0, produced - skip),
                "skip": skip,
                "rows": rows,
                "io_bytes": io_delta.bytes_read,
            },
        )]
    conn.send(("done", job_id, produced, extras))


def worker_main(conn, ring_name: str | None, ring_capacity: int) -> None:
    """Process entry point: serve scan jobs until ``close`` or EOF."""
    ring = (
        ShmRingWriter(ring_name, ring_capacity)
        if ring_name is not None else None
    )
    cache = _ScopeCache()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "close":
                break
            if op == "ping":
                conn.send(("pong",))
                continue
            if op != "scan":
                conn.send(("error", None, f"unknown op {op!r}"))
                continue
            _op, job_id, payload = msg
            try:
                _run_job(cache, ring, conn, job_id, payload)
            except _Stale as exc:
                conn.send(("stale", job_id, str(exc)))
            except _Unsupported as exc:
                conn.send(("unsupported", job_id, str(exc)))
            except BaseException as exc:
                try:
                    conn.send(("error", job_id, repr(exc)))
                except (OSError, BrokenPipeError):
                    break
    finally:
        cache.close()
        if ring is not None:
            ring.close()
        try:
            conn.close()
        except OSError:
            pass
