"""Durable storage end to end: kill a database mid-flight, reopen, verify.

Runs the same story twice:

1. A *child process* builds a database on the mmap storage backend —
   bulk load, committed batches, a checkpoint, more batches — and then
   dies hard with ``os._exit`` (no close, no flush; the RAM-resident
   PDTs are simply gone, like any crash).
2. The parent reopens the directory with ``Database.recover``: tables
   (sharded and unsharded) are rebuilt from the persisted block files
   and catalogs, the WAL replays the committed-but-not-checkpointed
   deltas, and query results come back byte-identical — after which the
   revived database keeps taking writes.

Run: ``PYTHONPATH=src python examples/durability.py``
(extra numeric arguments, as the CI example runner passes, are ignored).
A denser crash matrix — kills *inside* checkpoint windows, shard splits,
WAL rebases — lives in ``scripts/crash_matrix.py``.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Database, DataType, Schema  # noqa: E402

SCHEMA = Schema.build(
    ("city", DataType.STRING), ("product", DataType.STRING),
    ("qty", DataType.INT64), sort_key=("city", "product"),
)


def workload(root: str) -> None:
    """Child: build durable state, record the oracle, crash."""
    db = Database(storage="mmap", storage_path=root)
    db.create_table("inventory", SCHEMA, [
        (city, product, 10 * (i + 1))
        for i, (city, product) in enumerate(
            (c, p) for c in ("Amsterdam", "Berlin", "Lisbon", "Porto")
            for p in ("chair", "desk", "lamp"))
    ])
    db.create_sharded_table("orders", SCHEMA, [
        (f"city{i % 20:02d}", f"sku{i:04d}", i) for i in range(400)
    ], shards=4)

    db.apply_batch("inventory", [
        ("ins", ("Zurich", "rug", 5)),
        ("mod", ("Berlin", "desk"), "qty", 99),
        ("del", ("Porto", "lamp")),
    ])
    db.checkpoint("inventory")          # folds deltas into persisted blocks
    db.apply_batch("inventory", [("ins", ("Athens", "vase", 7))])
    db.apply_batch("orders", [
        ("mod", ("city05", "sku0105"), "qty", 12345),
        ("ins", ("city99", "sku9999", 1)),
    ])

    oracle = {
        "inventory": [[str(a), str(b), int(c)]
                      for a, b, c in db.query("inventory").rows()],
        "orders_rows": int(db.row_count("orders")),
        "hot_qty": int(db.query("orders",
                                sk=("city05", "sku0105"))["qty"][0]),
    }
    with open(os.path.join(root, "oracle.json"), "w") as fh:
        json.dump(oracle, fh)
        fh.flush()
        os.fsync(fh.fileno())
    print("child: committed state built — crashing without close()")
    os._exit(1)  # the crash: no shutdown path runs


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-durability-")
    print(f"storage root: {root}")

    print("\n-- phase 1: run workload in a child process, kill it")
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", root],
        env={**os.environ,
             "PYTHONPATH": os.path.join(
                 os.path.dirname(os.path.abspath(__file__)), "..", "src")},
    )
    assert child.returncode == 1, "child should have crashed"

    print("\n-- phase 2: reopen the directory and verify")
    with open(os.path.join(root, "oracle.json")) as fh:
        oracle = json.load(fh)
    db = Database.recover(root)
    inventory = [[str(a), str(b), int(c)]
                 for a, b, c in db.query("inventory").rows()]
    assert inventory == oracle["inventory"], "inventory diverged!"
    assert db.row_count("orders") == oracle["orders_rows"]
    assert int(db.query("orders",
                        sk=("city05", "sku0105"))["qty"][0]) == \
        oracle["hot_qty"]
    print(f"recovered {len(inventory)} inventory rows + "
          f"{oracle['orders_rows']} sharded order rows — byte-identical")
    print(f"recovery replayed WAL up to LSN {db.recovered_lsn}")

    print("\n-- phase 3: the revived database keeps working")
    db.apply_batch("inventory", [("ins", ("Oslo", "stool", 3))])
    db.checkpoint("inventory")
    assert db.query("inventory", sk=("Oslo", "stool")).num_rows == 1
    db.close()
    print("post-recovery write + checkpoint + clean close: ok")

    import shutil
    shutil.rmtree(root, ignore_errors=True)
    print("\ndurability demo passed")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--workload":
        workload(sys.argv[2])
    else:
        main()
