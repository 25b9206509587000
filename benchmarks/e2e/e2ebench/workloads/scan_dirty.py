"""scan_dirty — the paper's Fig. 17 setting: full scans of a table whose
updates still sit in the PDT, beside a clean twin of the same image.

Memory backend, one unsharded table, inline ``Database.query*`` from one
client. ``core.merge``, ``engine.relation`` and ``storage.buffer`` do
nearly all the work of the measured reads; the WAL, the service, the
executor and the shard layer do none of it, so this is the workload on
which a write-, service- or executor-side change must leave the read
metrics where they were. The write-side metrics come from a small durable
companion database (see writes.py) that shares nothing with the scanned
tables.
"""

from __future__ import annotations

from repro import Database

from .. import tables, writes
from ..harness import memcpy_ms
from ..metrics import rounds_at, tree_bytes
from ..reads import (AGG_WIDTH, InlineReads, ReadMix, ServiceReads,
                     dirty_table, first_block_reads, read_round,
                     round_inputs)

NAME = "scan_dirty"
WHY = ("Fig. 17: scans over PDT-resident deltas vs a clean twin; merge, "
       "relation and buffer pool do the work, WAL/service/exec/shard none")

ROWS = 500_000
DELTA_SHARE = 0.01
MIX = ReadMix(scans=4, clean_scans=2, projections=4, aggregates=4,
              ranges=50, points=50)
FIRST_BLOCK_READS = 1  # per round, see reads.first_block_reads
ROUNDS = 28  # at metrics.RUN_SECONDS
DIRTY, CLEAN = "t", "t_clean"


def rounds_for(seconds: float) -> int:
    return rounds_at(ROUNDS, seconds, writes.THIRDS)


def generate(seed: int, rounds: int) -> dict:
    base, deltas, image = dirty_table(seed, ROWS, DELTA_SHARE)
    rng = tables.rng_for(seed, 2)
    per_round = []
    for _ in range(rounds):
        inputs = round_inputs(rng, image, MIX)
        inputs["first_block"] = rng.integers(
            0, tables.A_RANGE - AGG_WIDTH, FIRST_BLOCK_READS)
        per_round.append(inputs)
    return {
        "base": base, "deltas": deltas, "image": image,
        "rounds": per_round,
        "companion": writes.generate(tables.rng_for(seed, 3),
                                     writes.COMPANION),
    }


def setup(inputs: dict, tmp: str) -> dict:
    db = Database()  # memory backend, no checkpoint policy
    db.create_table_from_arrays(DIRTY, tables.SCHEMA, inputs["base"])
    db.apply_batch(DIRTY, inputs["deltas"])
    db.create_table_from_arrays(CLEAN, tables.SCHEMA,
                                inputs["image"].arrays)
    svc = db.serve(workers=2)
    # Warm-up: both pools filled, every op type run once, service threads
    # started.
    reads = InlineReads(db)
    for table in (DIRTY, CLEAN):
        reads.full(table)
    reads.agg(DIRTY, 0)
    reads.key_range(DIRTY, 0, 4_000)
    reads.point(DIRTY, 0)
    ServiceReads(svc).agg(DIRTY, 0)
    side = writes.WriteSide(inputs["companion"], tmp)
    return {"db": db, "svc": svc, "side": side, "inputs": inputs}


def run(state: dict, rec) -> None:
    inputs = state["inputs"]
    image = inputs["image"]
    reads = InlineReads(state["db"])
    via_service = ServiceReads(state["svc"])
    rounds = inputs["rounds"]
    for n, round_in in enumerate(rounds, 1):
        read_round(rec, reads, image, round_in, MIX, DIRTY, CLEAN)
        first_block_reads(rec, via_service, image, DIRTY,
                          round_in["first_block"])
        for third in range(writes.THIRDS):
            if n == (third + 1) * len(rounds) // writes.THIRDS:
                state["side"].third(rec, third)


def finish(state: dict, rec) -> dict:
    db = state["db"]
    st = db.manager.state_of(DIRTY)
    image = state["inputs"]["image"]
    return {
        "pdt_entries": st.read_pdt.count() + st.write_pdt.count(),
        "memcpy_ms": memcpy_ms(image.arrays),
        "disk_bytes": tree_bytes(state["side"].root),
        "live_user_bytes": state["side"].live_user_bytes(),
    }


def teardown(state: dict) -> None:
    state["side"].close()
    state["svc"].close()
    state["db"].close()


# Probes that must have fired on this workload for its layer metrics to
# mean anything (checked after a traced run).
EXPECTED_PROBES = (
    "db.facade", "core.merge", "engine.relation_build", "engine.expr_eval",
    "storage.pool_get", "storage.sparse_lookup", "txn.pin",
    "txn.commit", "txn.wal_append", "txn.fsync", "txn.checkpoint",
    "txn.recovery",
)
