#!/usr/bin/env python
"""Crash matrix: kill a durable database at every interesting boundary,
reopen, and verify byte-identity against a pre-crash oracle.

For each crash point the parent spawns a child process that runs a
deterministic workload — commits, full checkpoints (one of them while a
transaction is open), a sharded table with per-shard checkpoints, an
incremental range checkpoint, and a shard split — against the mmap
storage backend, and dies with ``os._exit`` exactly at the chosen
boundary:

* ``commit:<k>``        — right after the k-th committed batch (the
                          fourth is the transaction that spans the fold
                          of ``inv``, committed after it)
* ``ckpt-pre-publish``  — inside a checkpoint (of a Read-PDT that a
                          Propagate filled and a Write-PDT that later
                          commits filled), after the new image's
                          blocks were appended but *before* the catalog
                          publish (the old image must recover, without
                          the open transaction's write)
* ``ckpt-post-publish`` — after the catalog publish but *before* the WAL
                          rebase (image-aware replay must skip the folded
                          history; the open transaction's write is
                          absent too)
* ``shard-ckpt-mid``    — between two shards' checkpoints of one sharded
                          table
* ``range-pre-publish`` / ``range-post-publish`` — the same two windows
                          around an incremental range checkpoint (whose
                          surviving deltas, from both the Read- and the
                          Write-PDT, ride a tagged snapshot record)
* ``split-pre-wal``     — mid shard-split, new shards installed but the
                          WAL layout rewrite never landed
* ``split-post-wal``    — layout committed but the retired shard's files
                          never dropped
* ``abandon``           — after the whole workload, no clean close

Scheduler boundaries run a third child: one table on a database with
``checkpoint_policy="updates:40"``, fed batches until a commit's listener
fires a full checkpoint. The publish hooks are armed only for the
duration of each commit, so the kill lands inside that scheduler-fired
fold:

* ``sched-fold-pre-publish``  — the fold's blocks appended, the catalog
                                not published
* ``sched-fold-post-publish`` — the catalog published, the WAL not rebased

The firing commit was never acknowledged (its ``apply_batch`` never
returned), so recovery must equal the oracle either before or after it —
never a mix.

Group-commit boundaries run a *different* child: four concurrent writers
submit batches through the query service (one WAL file, coalesced
fsyncs), and each writer appends the batch id to an fsynced ``acks``
file only after its future resolved — so the acks file is exactly the
set of acknowledged commits at the kill. The child emulates a 1 ms
durable device (every ``os.fsync`` sleeps after syncing, releasing the
GIL) so writers pile up behind the leader, and the kill lands inside a
leader's shared flush of at least two records via the coordinator's
crash hook:

* ``group-pre-fsync``   — group lines written, the log not fsynced yet
* ``group-post-fsync``  — the log fsynced, no ticket resolved (and so
                          nothing acknowledged)
* ``group-torn-write``  — like pre-fsync, plus the log's tail is
                          truncated mid-record (a torn append)

Recovery must show every *acknowledged* batch fully applied and every
batch — acknowledged or not — applied all-or-nothing (each batch mixes
one insert with spread modifies, and every modified key is touched by
exactly one batch, so partial application is detectable per key).

The child appends the full logical row image of every table to an
``oracle.json`` (written atomically, fsynced) after each commit; since
commits are WAL-fsynced, the last published oracle is exactly the state
the reopened database must serve — checkpoints, splits, and the crash
windows inside them never change logical contents. The parent runs
``Database.recover(root)`` and compares row-for-row, then verifies the
recovered database still accepts writes.

Usage::

    python scripts/crash_matrix.py                 # full matrix
    python scripts/crash_matrix.py --points commit:2,ckpt-pre-publish
    python scripts/crash_matrix.py --rows 600      # bigger workload
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

CRASH_EXIT = 77

MAINTENANCE_POINTS = [
    "ckpt-pre-publish",
    "ckpt-post-publish",
    "shard-ckpt-mid",
    "range-pre-publish",
    "range-post-publish",
    "split-pre-wal",
    "split-post-wal",
]

GROUP_POINTS = [
    "group-pre-fsync",
    "group-post-fsync",
    "group-torn-write",
]

SCHED_POINTS = [
    "sched-fold-pre-publish",
    "sched-fold-post-publish",
]


def default_points(n_commits: int) -> list[str]:
    return [f"commit:{k}" for k in range(1, n_commits + 1)] \
        + MAINTENANCE_POINTS + ["abandon"] + GROUP_POINTS + SCHED_POINTS


# ---------------------------------------------------------------------------
# child: run the workload, die at the chosen point


class _Crasher:
    """Arms os._exit at named maintenance-internal boundaries."""

    def __init__(self, point: str):
        self.point = point
        self.armed: str | None = None

    def arm(self, name: str) -> None:
        self.armed = name

    def disarm(self) -> None:
        self.armed = None

    def maybe_die(self, name: str) -> None:
        if self.point == name and self.armed == name:
            os._exit(CRASH_EXIT)


def _install_hooks(crasher: _Crasher) -> None:
    import repro.txn.checkpoint as ckpt_mod
    from repro.shard.sharded import ShardedTable
    from repro.storage.blocks import BlockStore
    from repro.txn.wal import WriteAheadLog

    orig_sync = BlockStore.sync

    def sync(self):
        # pre-publish points die *instead of* publishing the catalog.
        crasher.maybe_die("ckpt-pre-publish")
        crasher.maybe_die("range-pre-publish")
        crasher.maybe_die("sched-fold-pre-publish")
        orig_sync(self)

    BlockStore.sync = sync

    orig_rebase = WriteAheadLog.rebase_table

    def rebase_table(self, table, snapshot_pdt=None, lsn=0,
                     for_image_lsn=None):
        # post-publish points die after the catalog landed, before the
        # WAL drops the folded history.
        crasher.maybe_die("ckpt-post-publish")
        crasher.maybe_die("range-post-publish")
        crasher.maybe_die("sched-fold-post-publish")
        orig_rebase(self, table, snapshot_pdt=snapshot_pdt, lsn=lsn,
                    for_image_lsn=for_image_lsn)

    WriteAheadLog.rebase_table = rebase_table

    orig_ckpt = ckpt_mod.checkpoint_table
    state = {"calls": 0}

    def checkpoint_table(manager, table):
        if crasher.armed == "shard-ckpt-mid":
            state["calls"] += 1
            if state["calls"] == 2:
                crasher.maybe_die("shard-ckpt-mid")
        return orig_ckpt(manager, table)

    ckpt_mod.checkpoint_table = checkpoint_table

    orig_rewrite = WriteAheadLog._rewrite_file

    def _rewrite_file(self):
        # the commit write of a deferred (atomic) multi-step rewrite —
        # the shard split's layout commit point.
        if not self._defer_rewrites:
            crasher.maybe_die("split-pre-wal")
        orig_rewrite(self)

    WriteAheadLog._rewrite_file = _rewrite_file

    orig_drop = ShardedTable._drop_shard_storage

    def _drop_shard_storage(self, shard_name, pool):
        crasher.maybe_die("split-post-wal")
        orig_drop(self, shard_name, pool)

    ShardedTable._drop_shard_storage = _drop_shard_storage


def _rows(db, table, sort=False):
    """Logical rows as plain-Python lists (numpy scalars unwrapped) so
    JSON round-trips compare exactly."""
    out = [
        [v.item() if hasattr(v, "item") else v for v in row]
        for row in db.image_rows(table)
    ]
    return sorted(out) if sort else out


def _dump_oracle(root: str, db, unacked=()) -> None:
    """Atomically publish the expected logical contents of every table,
    plus the ``inv`` keys an open, unacknowledged transaction wrote."""
    oracle = {
        "inv": _rows(db, "inv"),
        "orders": _rows(db, "orders", sort=True),
        "unacked": list(unacked),
    }
    path = os.path.join(root, "oracle.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_child(root: str, point: str, rows: int) -> None:
    from repro import Database, DataType, Schema
    from repro.shard.rebalance import split_shard
    from repro.txn.checkpoint import checkpoint_table_range

    crasher = _Crasher(point)
    _install_hooks(crasher)

    schema = Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64),
        ("tag", DataType.STRING), sort_key=("k",),
    )
    db = Database(storage="mmap", storage_path=root, block_rows=64)
    db.create_table(
        "inv", schema, [(i, i * 10, f"r{i % 7}") for i in range(rows)]
    )
    db.create_sharded_table(
        "orders", schema,
        [(i, i, f"o{i % 5}") for i in range(rows * 2)], shards=3,
    )
    _dump_oracle(root, db)

    commit_no = 0

    def acknowledge():
        nonlocal commit_no
        commit_no += 1
        _dump_oracle(root, db)
        if point == f"commit:{commit_no}":
            os._exit(CRASH_EXIT)

    def commit(table, ops):
        db.apply_batch(table, ops)
        acknowledge()

    base = rows * 10
    commit("inv", [("ins", (base + 1, 1, "new")), ("del", (3,)),
                   ("mod", (7,), "v", 777)])
    # The full fold of inv merges both layers: this commit in the
    # Read-PDT, the next one in the Write-PDT.
    db.manager.propagate_write_to_read("inv")
    commit("orders", [("ins", (base + 2, 2, "new")), ("del", (10,)),
                      ("mod", (20,), "v", 555)])
    commit("inv", [("ins", (base + 3, 3, "x")), ("mod", (11,), "tag", "hot")])

    # A transaction spans the fold: written before, committed after.
    open_txn = db.begin()
    open_txn.insert("inv", (base + 7, 7, "open"))
    _dump_oracle(root, db, unacked=[base + 7])
    if point in ("ckpt-pre-publish", "ckpt-post-publish"):
        crasher.arm(point)
    db.checkpoint("inv")
    crasher.disarm()
    open_txn.commit()
    acknowledge()
    # The range fold below merges both layers too: the transaction's
    # insert in the Read-PDT, the sixth commit in the Write-PDT.
    db.manager.propagate_write_to_read("inv")

    commit("orders", [("del", (30,)), ("ins", (base + 4, 4, "y"))])

    if point == "shard-ckpt-mid":
        crasher.arm(point)
    db.checkpoint("orders")
    crasher.disarm()

    commit("inv", [("mod", (15,), "v", 1), ("mod", (int(rows * 0.9),),
                                            "v", 2)])

    # Incremental range checkpoint: folds the first half, re-logs the
    # surviving second-half deltas of both layers as a tagged snapshot.
    if point in ("range-pre-publish", "range-post-publish"):
        crasher.arm(point)
    checkpoint_table_range(db.manager, "inv", 0, rows // 2)
    crasher.disarm()

    commit("orders", [("ins", (base + 5, 5, "z")), ("mod", (40,), "v", 9)])

    if point in ("split-pre-wal", "split-post-wal"):
        crasher.arm(point)
    split_shard(db.sharded("orders"), 0)
    crasher.disarm()

    commit("inv", [("ins", (base + 6, 6, "tail")), ("del", (21,))])

    if point == "abandon":
        os._exit(CRASH_EXIT)
    db.close()
    os._exit(0)


# ---------------------------------------------------------------------------
# scheduler child: kill inside a fold that a commit listener fired

SCHED_POLICY = "updates:40"
SCHED_BATCHES = 12


def sched_batch_ops(batch_no: int, rows: int):
    """Six ops on six distinct keys, so every batch adds six PDT entries:
    under ``updates:40`` the scheduler Propagates every other commit and
    fires a full checkpoint at the seventh."""
    key = 5 * batch_no
    return [
        ("ins", (rows * 10 + batch_no, batch_no, f"s{batch_no}")),
        ("mod", (key,), "v", -batch_no),
        ("mod", (key + 1,), "tag", "hot"),
        ("mod", (key + 2,), "v", 10 ** 6 + batch_no),
        ("mod", (key + 3,), "tag", "warm"),
        ("del", (key + 4,)),
    ]


def _apply_to_model(model: dict, ops) -> None:
    for op in ops:
        if op[0] == "ins":
            model[op[1][0]] = list(op[1])
        elif op[0] == "del":
            del model[op[1][0]]
        else:
            _kind, (k,), column, value = op
            model[k][{"v": 1, "tag": 2}[column]] = value


def run_sched_child(root: str, point: str, rows: int) -> None:
    from repro import Database, DataType, Schema

    crasher = _Crasher(point)
    _install_hooks(crasher)

    schema = Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64),
        ("tag", DataType.STRING), sort_key=("k",),
    )
    db = Database(storage="mmap", storage_path=root, block_rows=64,
                  checkpoint_policy=SCHED_POLICY)
    seed = [[i, i * 10, f"r{i % 7}"] for i in range(rows)]
    db.create_table("inv", schema, [tuple(r) for r in seed])
    model = {r[0]: r for r in seed}
    for batch_no in range(SCHED_BATCHES):
        ops = sched_batch_ops(batch_no, rows)
        before = [list(model[k]) for k in sorted(model)]
        _apply_to_model(model, ops)
        after = [list(model[k]) for k in sorted(model)]
        path = os.path.join(root, "oracle.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"before": before, "after": after}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(path + ".tmp", path)
        crasher.arm(point)  # only while this commit (and its listener) runs
        db.apply_batch("inv", ops)
        crasher.disarm()
    # No commit fired a fold: a configuration failure, not a recovery one.
    os._exit(3)


def verify_sched_recovery(root: str, point: str) -> None:
    from repro import Database

    with open(os.path.join(root, "oracle.json"), encoding="utf-8") as fh:
        oracle = json.load(fh)
    db = Database.recover(root)
    try:
        got = _rows(db, "inv")
        if got not in (oracle["before"], oracle["after"]):
            raise AssertionError(
                f"[{point}] inv matches neither side of the firing commit: "
                f"{len(got)} rows recovered vs {len(oracle['before'])} "
                f"before / {len(oracle['after'])} after")
        q = [list(r) for r in db.query("inv", columns=["k", "v", "tag"])
             .rows()]
        if q != got:
            raise AssertionError(f"[{point}] inv query mismatch")
        db.apply_batch("inv", [("ins", (10 ** 7, 1, "post-recovery"))])
        assert db.query("inv", sk=(10 ** 7,)).num_rows == 1
    finally:
        db.close()


# ---------------------------------------------------------------------------
# group-commit child: concurrent writers, kill inside the shared fsync

GROUP_WRITERS = 4
GROUP_BATCHES = 60          # per writer
GROUP_SEED_ROWS = 800       # seeded keys 0..799, v == k
GROUP_WITNESS_BASE = 10_000
# Wait until this many flushes landed before killing, so recovery has
# both durable history and an in-flight group to reason about.
GROUP_MIN_FLUSHES = 4
# Emulated device sync latency: long enough that the other writers stage
# while a leader waits in fsync, so groups of several records form.
GROUP_FSYNC_FLOOR_S = 0.001


def group_batch_ops(batch_id: int):
    """The deterministic op list for one batch.

    One *witness* insert (key ``GROUP_WITNESS_BASE + batch_id``) plus
    three modifies of seeded keys. Modified keys are spread over the full
    key range (hence over every shard) by a multiplicative scramble, and
    each seeded key ``4*m + w`` belongs to exactly one ``(writer, seq)``
    pair — so after a crash, every key independently reveals whether its
    batch was applied, making partial application detectable.
    """
    writer, seq = divmod(batch_id, GROUP_BATCHES)
    span = 3 * GROUP_BATCHES
    ops = [("ins", (GROUP_WITNESS_BASE + batch_id, batch_id,
                    f"b{batch_id}"))]
    for j in range(3):
        m = ((3 * seq + j) * 37) % span
        ops.append(("mod", (4 * m + writer,), "v", batch_id))
    return ops


def run_group_child(root: str, point: str) -> None:
    import threading
    import time

    from repro import Database, DataType, Schema

    real_fsync = os.fsync

    def floored_fsync(fd):
        real_fsync(fd)
        time.sleep(GROUP_FSYNC_FLOOR_S)

    os.fsync = floored_fsync  # this child process only

    schema = Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64),
        ("tag", DataType.STRING), sort_key=("k",),
    )
    db = Database(storage="mmap", storage_path=root, block_rows=64)
    db.create_sharded_table(
        "orders", schema,
        [(i, i, f"o{i % 5}") for i in range(GROUP_SEED_ROWS)], shards=4,
    )

    acks_path = os.path.join(root, "acks.jsonl")
    ack_lock = threading.Lock()

    def ack(batch_id: int) -> None:
        # fsync before returning: a line in this file is a *promise* that
        # the commit was acknowledged as durable before the kill. The
        # real fsync: the emulated device is the WAL's, and a floored ack
        # under this lock would serialize the writers.
        with ack_lock:
            with open(acks_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(batch_id) + "\n")
                fh.flush()
                real_fsync(fh.fileno())

    target = "group-pre-fsync" if point == "group-torn-write" else point
    flushes = {"n": 0}

    def crash_hook(name, records):
        if name == "group-pre-fsync":
            flushes["n"] += 1
        # Kill only inside a coalesced flush: every group point then
        # tests a multi-record group, not a lone commit.
        if name != target or flushes["n"] < GROUP_MIN_FLUSHES \
                or records < 2:
            return
        if point == "group-torn-write":
            # Tear the log's tail: the flush's final record line loses
            # its closing bytes, exactly what a crash mid-append leaves
            # behind.
            wal_path = db.manager.wal.path
            size = os.path.getsize(wal_path)
            with open(wal_path, "r+b") as fh:
                fh.truncate(max(0, size - 4))
        os._exit(CRASH_EXIT)

    db.manager.wal.group.crash_hook = crash_hook

    def writer(w: int, svc) -> None:
        for i in range(GROUP_BATCHES):
            batch_id = w * GROUP_BATCHES + i
            future = svc.submit_batch("orders", group_batch_ops(batch_id))
            future.result(timeout=60)
            ack(batch_id)

    with db.serve(workers=GROUP_WRITERS) as svc:
        threads = [
            threading.Thread(target=writer, args=(w, svc), daemon=True)
            for w in range(GROUP_WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    # The armed boundary never fired: exit distinctly so the parent
    # reports a configuration failure rather than a recovery one.
    os._exit(3)


def verify_group_recovery(root: str, point: str) -> None:
    from repro import Database

    acked = set()
    acks_path = os.path.join(root, "acks.jsonl")
    if os.path.exists(acks_path):
        with open(acks_path, encoding="utf-8") as fh:
            raw = fh.read()
        # A line is only an acknowledgement once its newline landed; the
        # kill can tear the final append mid-line.
        for line in raw[: raw.rfind("\n") + 1].splitlines():
            if line.strip():
                acked.add(json.loads(line))
    if not acked:
        raise AssertionError(f"[{point}] no acknowledged batches before "
                             "the kill; workload misconfigured")

    db = Database.recover(root)
    try:
        rows = {r[0]: (r[1], r[2]) for r in db.image_rows("orders")}
        total = GROUP_WRITERS * GROUP_BATCHES
        for batch_id in range(total):
            applied = (GROUP_WITNESS_BASE + batch_id) in rows
            if batch_id in acked and not applied:
                raise AssertionError(
                    f"[{point}] acknowledged batch {batch_id} lost")
            # All-or-nothing: every key this batch modified must carry
            # the batch's value iff the witness insert is present.
            for op in group_batch_ops(batch_id)[1:]:
                key = op[1][0]
                v, _tag = rows[key]
                if applied and v != batch_id:
                    raise AssertionError(
                        f"[{point}] batch {batch_id} applied but key "
                        f"{key} has v={v}: partial application")
                if not applied and v != key:
                    raise AssertionError(
                        f"[{point}] batch {batch_id} not applied but key "
                        f"{key} has v={v}: partial application")
        # The recovered database keeps accepting writes.
        db.apply_batch("orders", [("ins", (10 ** 7, 1, "post-recovery"))])
        assert any(r[0] == 10 ** 7 for r in db.image_rows("orders"))
    finally:
        db.close()


# ---------------------------------------------------------------------------
# parent: spawn, recover, verify


def verify_recovery(root: str, point: str) -> None:
    from repro import Database

    with open(os.path.join(root, "oracle.json"), encoding="utf-8") as fh:
        oracle = json.load(fh)
    db = Database.recover(root)
    try:
        got_inv = _rows(db, "inv")
        got_orders = _rows(db, "orders", sort=True)
        leaked = sorted({k for k, *_ in got_inv} & set(oracle["unacked"]))
        if leaked:
            raise AssertionError(
                f"[{point}] unacknowledged transaction's write recovered: "
                f"inv keys {leaked}"
            )
        if got_inv != oracle["inv"]:
            raise AssertionError(
                f"[{point}] inv mismatch: {len(got_inv)} rows recovered "
                f"vs {len(oracle['inv'])} expected"
            )
        if got_orders != oracle["orders"]:
            raise AssertionError(
                f"[{point}] orders mismatch: {len(got_orders)} rows "
                f"recovered vs {len(oracle['orders'])} expected"
            )
        # Query results (not just image_rows) must match too.
        q = sorted(tuple(r) for r in
                   db.query("inv", columns=["k", "v", "tag"]).rows())
        if q != sorted(tuple(r) for r in oracle["inv"]):
            raise AssertionError(f"[{point}] inv query mismatch")
        # The recovered database keeps working.
        db.apply_batch("inv", [("ins", (10 ** 7, 1, "post-recovery"))])
        assert db.query("inv", sk=(10 ** 7,)).num_rows == 1
    finally:
        db.close()


def run_matrix(points: list[str], rows: int, keep: bool = False) -> int:
    base = tempfile.mkdtemp(prefix="crash-matrix-")
    failures = 0
    for point in points:
        root = os.path.join(base, point.replace(":", "_"))
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--child", root, point, "--rows", str(rows)],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True, text=True, timeout=120,
        )
        expected = 0 if point == "clean" else CRASH_EXIT
        if child.returncode != expected:
            print(f"FAIL [{point}]: child exited {child.returncode}, "
                  f"expected {expected}\n{child.stderr[-2000:]}")
            failures += 1
            continue
        try:
            if point in GROUP_POINTS:
                verify_group_recovery(root, point)
            elif point in SCHED_POINTS:
                verify_sched_recovery(root, point)
            else:
                verify_recovery(root, point)
            print(f"ok   [{point}]")
        except Exception as exc:  # noqa: BLE001 - report and count
            print(f"FAIL [{point}]: {exc}")
            failures += 1
        if not keep:
            shutil.rmtree(root, ignore_errors=True)
    if not keep:
        shutil.rmtree(base, ignore_errors=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", nargs=2, metavar=("ROOT", "POINT"),
                        help="internal: run the workload and die at POINT")
    parser.add_argument("--points", default=None,
                        help="comma-separated crash points (default: all)")
    parser.add_argument("--rows", type=int, default=300)
    parser.add_argument("--keep", action="store_true",
                        help="keep the crash directories for inspection")
    args = parser.parse_args(argv)

    if args.child:
        root, point = args.child
        if point in GROUP_POINTS:
            run_group_child(root, point)
        elif point in SCHED_POINTS:
            run_sched_child(root, point, args.rows)
        else:
            run_child(root, point, args.rows)
        return 0  # unreachable: the child always _exits

    points = (args.points.split(",") if args.points
              else default_points(n_commits=7))
    failures = run_matrix(points, args.rows, keep=args.keep)
    if failures:
        print(f"\n{failures} crash point(s) failed")
        return 1
    print(f"\nall {len(points)} crash points recovered byte-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
