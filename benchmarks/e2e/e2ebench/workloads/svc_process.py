"""svc_process — reads through QueryService cursors over a 4-shard table,
with shard jobs running in worker processes (``executor="process"``) that
stream result blocks back through shared memory.

The only workload on which ``exec.router/transport/worker``,
``service.plan/jobs/cursor`` and ``shard`` carry the request. It shares
``core.merge`` with ``scan_dirty``, so a merge win must show on both and a
transport or service win only here. Write-side metrics come from the same
small durable companion database ``scan_dirty`` uses.

Every result is dropped before the next submit: a live result pins its
frames in the 8 MiB ring, the ring fills, and every further block waits
``stall_timeout`` before falling back to a pickled copy
(``exec.inline_block_share`` keeps that cliff visible).
"""

from __future__ import annotations

import os

from repro import Database

from .. import tables, writes
from ..harness import median, memcpy_ms
from ..metrics import rounds_at, tree_bytes
from ..reads import (AGG, Image, ReadMix, ServiceReads, agg_where,
                     dirty_table, read_round, round_inputs)

NAME = "svc_process"
WHY = ("QueryService cursors over 4 shards with process executors: the "
       "only workload where exec/service/shard carry the request")

# A full result must fit one worker's 8 MiB ring even when that worker
# happens to serve every shard (200k rows x 4 fixed-width columns =
# 6.4 MB). At 400k rows it does not whenever one worker serves three of
# the four shards, and about one scan in six then takes 9.6 s: the
# benchmark would gate a coin toss.
ROWS = 200_000
SHARDS = 4
WORKERS = 2
DELTA_SHARE = 0.01
MIX = ReadMix(scans=4, clean_scans=2, projections=4, aggregates=4,
              ranges=30, points=30)
ROUNDS = 15  # at metrics.RUN_SECONDS
INLINE_WARMUP_SCANS = 10
MIN_REMOTE_SHARE = 0.9
DIRTY, CLEAN = "t", "t_clean"


def rounds_for(seconds: float) -> int:
    return rounds_at(ROUNDS, seconds, writes.THIRDS)


def generate(seed: int, rounds: int) -> dict:
    base, deltas, image = dirty_table(seed, ROWS, DELTA_SHARE)
    rng = tables.rng_for(seed, 2)
    return {
        "base": base, "deltas": deltas, "image": image,
        "rounds": [round_inputs(rng, image, MIX) for _ in range(rounds)],
        "companion": writes.generate(tables.rng_for(seed, 3),
                                     writes.COMPANION),
    }


def setup(inputs: dict, tmp: str) -> dict:
    import time

    db = Database(storage="mmap", storage_path=os.path.join(tmp, "main"),
                  executor="process", workers=WORKERS)
    db.create_sharded_table_from_arrays(DIRTY, tables.SCHEMA,
                                        inputs["base"], shards=SHARDS)
    db.apply_batch(DIRTY, inputs["deltas"])
    db.create_sharded_table_from_arrays(CLEAN, tables.SCHEMA,
                                        inputs["image"].arrays,
                                        shards=SHARDS)
    # Warm-up. The inline scans spawn the worker processes and fill their
    # pools; their median is the base of service.overhead_x.
    inline = []
    for _ in range(INLINE_WARMUP_SCANS):
        start = time.perf_counter()
        db.query(DIRTY)
        inline.append(time.perf_counter() - start)
    svc = db.serve(workers=WORKERS)
    reads = ServiceReads(svc)
    for table in (DIRTY, CLEAN):
        reads.full(table)
    reads.agg(DIRTY, 0)
    reads.key_range(DIRTY, 0, 4_000)
    side = writes.WriteSide(inputs["companion"],
                            os.path.join(tmp, "companion"))
    return {"db": db, "svc": svc, "side": side, "inputs": inputs,
            "inline_scan_p50_ms": median(inline) * 1e3}


def _one_pin(svc, image: Image, column: str, a_low: int):
    """{full, projection, aggregate} against one pin: the submission shape
    whose shard jobs may be shared."""
    def call():
        with svc.pin() as pin:
            cursors = svc.submit_many([
                {"table": DIRTY},
                {"table": DIRTY, "columns": [column]},
                {"table": DIRTY, "where": agg_where(a_low), "agg": AGG},
            ], pin=pin)
            return [cursor.to_relation() for cursor in cursors]

    def check(rels) -> bool:
        return (image.full(rels[0]) and image.full(rels[1], (column,))
                and image.aggregate(rels[2], a_low))

    return call, check


def run(state: dict, rec) -> None:
    inputs = state["inputs"]
    image = inputs["image"]
    reads = ServiceReads(state["svc"])
    rounds = inputs["rounds"]
    for n, round_in in enumerate(rounds, 1):
        read_round(rec, reads, image, round_in, MIX, DIRTY, CLEAN)
        rec.op("one_pin", *_one_pin(state["svc"], image,
                                    round_in["proj"][0], round_in["agg"][0]))
        for third in range(writes.THIRDS):
            if n == (third + 1) * len(rounds) // writes.THIRDS:
                state["side"].third(rec, third)


def finish(state: dict, rec) -> dict:
    db = state["db"]
    router = db.exec_router.as_dict()
    jobs = router["remote_jobs"] + router["local_jobs"]
    problems = []
    if not jobs or router["remote_jobs"] / jobs < MIN_REMOTE_SHARE:
        problems.append(
            f"process mode on but only {router['remote_jobs']} of {jobs} "
            f"shard jobs ran remotely")
    entries = 0
    for shard in db.sharded(DIRTY).shard_states():
        entries += shard.read_pdt.count() + shard.write_pdt.count()
    return {
        "pdt_entries": entries,
        "memcpy_ms": memcpy_ms(state["inputs"]["image"].arrays),
        "disk_bytes": tree_bytes(state["side"].root),
        "live_user_bytes": state["side"].live_user_bytes(),
        "router_stats": router,
        "service_stats": state["svc"].stats.as_dict(),
        "inline_scan_p50_ms": state["inline_scan_p50_ms"],
        "problems": problems,
    }


def teardown(state: dict) -> None:
    state["side"].close()
    state["svc"].close()
    state["db"].close()


EXPECTED_PROBES = (
    "core.merge", "engine.relation_build", "storage.pool_get",
    "shard.route", "shard.fanout_wait", "service.admission_wait",
    "service.plan", "service.submit", "service.job_run",
    "service.cursor_merge", "exec.payload", "exec.stream_blocks",
    "exec.decode", "txn.pin", "txn.commit", "txn.fsync",
)
