"""oltp_durable — durable single-row commits, bulk batches, recovery and
checkpoint on the mmap backend with real fsync and default group commit.

commit -> serialize -> propagate -> WAL -> fsync, checkpoint and recovery
do all the work and MergeScan almost none: this is the workload on which a
scan-side change must show no movement of the write metrics, and the one
that uses ``db`` / ``core.pdt`` for writes where ``scan_dirty`` uses them
for reads. The table is read a little — while it carries a fifth of its
rows as deltas and again right after each checkpoint folded them — so the
read metrics exist here too, at a delta share ``scan_dirty`` never sees.

The three thirds are those of writes.py at full scale.
"""

from __future__ import annotations

from .. import tables, writes
from ..harness import memcpy_ms
from ..metrics import rounds_at, tree_bytes
from ..reads import (AGG_WIDTH, InlineReads, ReadMix, ServiceReads,
                     first_block_reads, read_round, round_inputs)

NAME = "oltp_durable"
WHY = ("durable commits by 2 writers, batches, recovery, checkpoint: "
       "serialize/propagate/WAL/fsync do the work, MergeScan almost none")

ROWS = 200_000
# Run length scales the op counts of a third in sixteenths; 16 units is
# the full size, run at metrics.RUN_SECONDS.
UNITS = 16
BATCH_OPS = 4_000
TABLE = writes.TABLE


def rounds_for(seconds: float) -> int:
    return rounds_at(UNITS, seconds, 4)


def _per_third(units: int) -> dict:
    """Op counts of one third, scaled by run length."""
    def scaled(at_full: int) -> int:
        return max(2, at_full * units // UNITS)

    return {
        "scale": writes.WriteScale(
            rows=ROWS, commits=scaled(195), batches=scaled(4),
            batch_ops=BATCH_OPS),
        "dirty": ReadMix(scans=scaled(18), clean_scans=0,
                         projections=scaled(5), aggregates=scaled(9),
                         ranges=scaled(90), points=scaled(90)),
        "clean_scans": scaled(30),
        "first_block": scaled(6),
    }


def generate(seed: int, rounds: int) -> dict:
    counts = _per_third(rounds)
    inputs = writes.generate(tables.rng_for(seed, 1), counts["scale"])
    inputs["counts"] = counts
    inputs["seed"] = seed
    return inputs


def setup(inputs: dict, tmp: str) -> dict:
    side = writes.WriteSide(inputs, tmp)
    return {"side": side, "inputs": inputs, "pdt_entries": 0}


def run(state: dict, rec) -> None:
    counts = state["inputs"]["counts"]
    rng = tables.rng_for(state["inputs"]["seed"], 2)

    def dirty_reads(side) -> None:
        st = side.db.manager.state_of(TABLE)
        state["pdt_entries"] = max(
            state["pdt_entries"],
            st.read_pdt.count() + st.write_pdt.count())
        image = side.image
        mix = counts["dirty"]
        read_round(rec, InlineReads(side.db), image,
                   round_inputs(rng, image, mix), mix, TABLE, None)
        first_block_reads(
            rec, ServiceReads(side.svc), image, TABLE,
            rng.integers(0, tables.A_RANGE - AGG_WIDTH,
                         counts["first_block"]))

    def clean_reads(side) -> None:
        for _ in range(counts["clean_scans"]):
            rec.op("scan_clean", lambda: side.db.query(TABLE),
                   side.image.full)

    for third in range(writes.THIRDS):
        state["side"].third(rec, third, before_close=dirty_reads,
                            after_checkpoint=clean_reads)


def finish(state: dict, rec) -> dict:
    side = state["side"]
    return {
        "pdt_entries": state["pdt_entries"],
        "memcpy_ms": memcpy_ms(side.image.arrays),
        "disk_bytes": tree_bytes(side.root),
        "live_user_bytes": side.live_user_bytes(),
    }


def teardown(state: dict) -> None:
    state["side"].close()


EXPECTED_PROBES = (
    "db.facade", "db.point_resolve", "db.batch_prepare",
    "db.batch_commit_staged", "core.merge", "core.propagate",
    "txn.commit", "txn.wal_append", "txn.fsync", "txn.durability_wait",
    "txn.checkpoint", "txn.recovery", "storage.put", "storage.sync",
    "service.write",
)
