"""Async query service: concurrent analytics over a live refresh stream.

Starts a :class:`repro.QueryService` over a 4-shard table, then runs — on
one asyncio event loop — a continuous refresh stream (bulk update batches)
*and* a fleet of concurrent analytics queries. Each analytics query pins a
database-wide snapshot, streams its result blocks as shards complete, and
verifies its own consistency (every cross-shard read sees exactly one
commit point, however the refresh stream interleaves). Each query runs
one scan job per shard it touches; the run ends with the service's
stats and a clean ``db.close()``.

Run: ``python examples/async_service.py``
"""

import asyncio
import random
import sys

from repro import Database, DataType, Schema

N_ROWS = 8000
N_ANALYSTS = 6
N_REFRESH_BATCHES = 10


def build_database() -> Database:
    schema = Schema.build(
        ("order_id", DataType.INT64), ("qty", DataType.INT64),
        ("price", DataType.INT64), sort_key=("order_id",),
    )
    db = Database(compressed=True, checkpoint_policy="updates:3000")
    db.create_sharded_table(
        "orders", schema,
        [(i * 2, 1 + i % 9, (i * 37) % 1000) for i in range(N_ROWS)],
        shards=4, split_rows=3 * N_ROWS, merge_rows=N_ROWS // 8,
    )
    return db


async def refresh_stream(svc, done: asyncio.Event) -> int:
    """TPC-H-style refresh: bulk batches of modifies + fresh inserts."""
    rng = random.Random(11)
    applied = 0
    next_new = 2 * N_ROWS + 1
    for _ in range(N_REFRESH_BATCHES):
        ops, touched = [], set()
        for _ in range(120):
            key = rng.randrange(N_ROWS // 2) * 2  # skewed: hot low range
            if key in touched:
                continue
            touched.add(key)
            ops.append(("mod", (key,), "price", rng.randrange(1000)))
        ops.append(("ins", (next_new, 1, 0)))
        next_new += 2
        applied += await svc.apply_batch("orders", ops)
        await asyncio.sleep(0)  # let analytics interleave
    done.set()
    return applied


async def analyst(svc, i: int) -> tuple:
    """One concurrent analytics query: pin, stream, verify consistency."""
    lo = (i * 400,)
    hi = (i * 400 + N_ROWS,)
    pin = await asyncio.to_thread(svc.pin)
    try:
        cursor = await svc.query_range(
            "orders", low=lo, high=hi, columns=["order_id", "qty"],
            pin=pin)
        rows = 0
        qty_sum = 0
        async for _, arrays in cursor:
            rows += len(arrays["order_id"])
            qty_sum += int(arrays["qty"].sum())
        # the pinned synchronous oracle must agree block for block: one
        # commit point across every shard, despite the refresh stream
        oracle = svc._db.query_range("orders", low=lo, high=hi,
                                     columns=["order_id", "qty"], pin=pin)
        assert rows == oracle.num_rows, "torn cross-shard read!"
        assert qty_sum == int(oracle["qty"].sum())
        profile = cursor.profile
        return rows, profile.shards, profile.time_to_first_block_s
    finally:
        pin.release()


async def main() -> None:
    db = build_database()
    with db, db.serve(workers=4) as svc:
        done = asyncio.Event()
        refresh_task = asyncio.create_task(refresh_stream(svc, done))
        analysts = [analyst(svc, i % 4) for i in range(N_ANALYSTS)]
        results = await asyncio.gather(*analysts)
        applied = await refresh_task

        print(f"refresh stream: {applied} ops in {N_REFRESH_BATCHES} "
              f"batches, concurrent with {N_ANALYSTS} analysts")
        for i, (rows, shards, ttfb) in enumerate(results):
            print(f"  analyst {i}: {rows} rows streamed "
                  f"from {shards} shards, "
                  f"first block after {ttfb * 1e3:.2f} ms")
        stats = svc.stats
        print(f"service: {stats.range_queries} range queries, "
              f"{stats.batches} batches, {stats.jobs_scheduled} shard jobs, "
              f"{stats.rows_streamed} rows streamed, "
              f"peak in-flight {svc.admission.peak_inflight}, "
              f"{stats.maintenance_runs} maintenance drains")
        assert stats.rows_streamed == sum(r for r, _, _ in results)
    print("clean shutdown: service workers joined, shard executors closed")


if __name__ == "__main__":
    sys.argv = sys.argv[:1]  # scale-factor args of sibling examples ignored
    asyncio.run(main())
