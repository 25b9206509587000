"""Differential property suite under the process executor.

The same random workload grammar as the sharded-table property suite —
bulk batches, scalar updates, shard splits/merges, per-shard
checkpoints — but the system under test runs on mmap storage with
``executor="process"`` and a remote-eligibility floor of zero, so every
shard scan that *can* go to a worker process does, however small. The
oracle is an in-memory thread-mode unsharded table fed identical
updates; any divergence in the pin-vector serialization, the worker's
snapshot materialization, or the shared-memory block transport shows up
as a row-stream mismatch.

After every step each shard job — plain, ``where=`` and ``aggregate=``,
and the key-bounded point, range, ``where=``-on-the-sort-key and
bounded-aggregate jobs whose merge narrows its window — is also run
both ways at block level: the remote stream
(:meth:`~repro.exec.router.ExecutorRouter.stream_blocks`) must yield the
same ``(first_rid, size, bytes)`` sequence as the local
:meth:`~repro.service.plan.ShardScanSpec.pushed_stream`, which is what
skip-based crash re-dispatch relies on.
"""

import random
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType, Schema
from repro.engine import expr as ex
from repro.service.plan import plan_scan
from repro.shard import merge_adjacent, split_shard

from ..shard.test_sharded_property import KEY_RANGE, gen_batch

MID = KEY_RANGE // 2

SCHEMA = Schema.build(
    ("k", DataType.INT64),
    ("a", DataType.INT64),
    ("b", DataType.STRING),
    sort_key=("k",),
)


AGG = ex.AggSpec(("b",), {"total": ("a", "sum"), "n": ("*", "count")})
JOBS = {
    "plain": {},
    "where": {"where": ex.lt("a", 500)},
    "aggregate": {"agg": AGG},
    "point": {"low": (MID,), "high": (MID,)},
    "range": {"low": (MID // 2,), "high": (MID + MID // 2,)},
    "where_sort_key": {"where": ex.between("k", MID // 3, MID)},
    "bounded_aggregate": {"low": (MID // 2,), "high": (MID,), "agg": AGG},
}


def block_signature(stream):
    """``(first_rid, block size, column bytes)`` per block."""
    out = []
    for rid, arrays in stream:
        cols = sorted(arrays)
        out.append((rid, len(arrays[cols[0]]) if cols else 0, tuple(
            (c, arrays[c].tolist() if arrays[c].dtype == object
             else arrays[c].tobytes()) for c in cols)))
    return out


def assert_remote_blocks_match_local(db):
    router = db.exec_router
    with db.pin_snapshot() as pin:
        for kwargs in JOBS.values():
            for spec in plan_scan(pin, "t", **kwargs).parts:
                payload = router.payload_for(
                    spec.pinned.stable, spec.pinned.layers, spec.scan_cols,
                    spec.sid_lo, spec.sid_hi, low=spec.low, high=spec.high,
                    push=spec.push_payload())
                assert payload is not None
                remote = router.stream_blocks(payload, spec.pushed_stream)
                assert block_signature(remote) \
                    == block_signature(spec.pushed_stream())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_rows=st.integers(0, 60),
    shards=st.integers(1, 4),
    n_steps=st.integers(1, 8),
)
def test_process_executor_matches_thread_oracle(seed, n_rows, shards,
                                                n_steps):
    rng = random.Random(seed)
    rows = sorted(
        (k, rng.randrange(1000), f"s{k}")
        for k in rng.sample(range(0, KEY_RANGE, 2), n_rows)
    )
    live = {r[0] for r in rows}

    root = tempfile.mkdtemp(prefix="exec-prop-")
    db = Database(compressed=False, storage="mmap", storage_path=root,
                  executor="process", workers=1)
    oracle = Database(compressed=False, executor="thread")
    try:
        assert db.exec_router.mode == "process"
        db.exec_router.min_remote_rows = 0  # remote-execute even tiny shards
        sharded = db.create_sharded_table("t", SCHEMA, rows, shards=shards)
        oracle.create_table("t", SCHEMA, rows)

        for _ in range(n_steps):
            action = rng.random()
            if action < 0.5:
                ops = gen_batch(rng, live, rng.randrange(1, 10))
                if ops:
                    db.apply_batch("t", ops)
                    oracle.apply_batch("t", ops)
            elif action < 0.65:
                split_shard(sharded, rng.randrange(sharded.num_shards))
            elif action < 0.8:
                if sharded.num_shards > 1:
                    merge_adjacent(
                        sharded, rng.randrange(sharded.num_shards - 1)
                    )
            else:
                from repro.txn import checkpoint_table

                shard = rng.choice(sharded.shard_names)
                checkpoint_table(db.manager, shard)
            assert db.query("t").rows() == oracle.query("t").rows()
            assert db.row_count("t") == oracle.row_count("t")
            assert_remote_blocks_match_local(db)

        db.checkpoint("t")
        oracle.checkpoint("t")
        assert db.query("t").rows() == oracle.query("t").rows()
    finally:
        db.close()
        oracle.close()
        shutil.rmtree(root, ignore_errors=True)
