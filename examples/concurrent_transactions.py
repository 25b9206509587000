"""Lock-free transactions on three PDT layers (paper section 3.3).

Demonstrates: snapshot isolation (readers never block or see concurrent
commits), the Figure 15 three-transaction schedule with Serialize-based
re-basing, write-write conflict detection (optimistic abort), reconciled
same-tuple different-column modifies, commits stacking Write layers
above the ones open transactions hold, and Write->Read propagation.

Run: ``python examples/concurrent_transactions.py``
"""

from repro import Database, DataType, Schema, TransactionConflict


def build_db() -> Database:
    schema = Schema.build(
        ("account", DataType.STRING),
        ("balance", DataType.INT64),
        ("branch", DataType.STRING),
        sort_key=("account",),
    )
    db = Database(compressed=False)
    db.create_table(
        "accounts",
        schema,
        [
            ("alice", 1_000, "north"),
            ("bob", 2_000, "south"),
            ("carol", 3_000, "north"),
            ("dave", 4_000, "south"),
        ],
    )
    return db


def show(db: Database, label: str) -> None:
    print(f"{label}:")
    for row in db.query("accounts").rows():
        print("   ", *row)


def main() -> None:
    db = build_db()
    show(db, "initial table")

    # --- snapshot isolation ---------------------------------------------
    print("\n[1] snapshot isolation")
    reader = db.begin()
    writer = db.begin()
    writer.modify("accounts", ("alice",), "balance", 500)
    writer.commit()
    balance_seen = dict(
        reader.scan("accounts", columns=["account", "balance"]).rows()
    )["alice"]
    print(f"  reader (older snapshot) still sees alice = {balance_seen}")
    reader.commit()
    print(f"  new queries see alice = "
          f"{db.query_point('accounts', ('alice',))['balance'][0]}")

    # --- Figure 15 schedule ------------------------------------------------
    print("\n[2] Figure 15: overlapping commits re-based with Serialize")
    a = db.begin()
    b = db.begin()
    b.insert("accounts", ("beth", 100, "east"))
    b.commit()  # t2: commits while a runs
    c = db.begin()
    a.insert("accounts", ("aaron", 200, "east"))
    a.commit()  # t3: serialized against b's trans-PDT
    c.insert("accounts", ("cathy", 300, "east"))
    c.commit()  # t4: serialized against a's
    print("  three overlapping inserts committed without locks:")
    show(db, "  table")
    stats = db.manager.stats
    layers = db.manager.state_of("accounts").write_pdt.layers
    # A commit under a running transaction's pin stacks a fresh Write
    # layer instead of copying the one the pin holds.
    print(f"  commits={stats.commits}, conflicts={stats.conflicts}, "
          f"Write layers={len(layers)}, "
          f"snapshot copies={stats.snapshot_copies}")

    # --- write-write conflict ------------------------------------------------
    print("\n[3] optimistic conflict detection")
    t1 = db.begin()
    t2 = db.begin()
    t1.modify("accounts", ("bob",), "balance", 2_500)
    t2.modify("accounts", ("bob",), "balance", 9_999)
    t1.commit()
    try:
        t2.commit()
    except TransactionConflict as exc:
        print(f"  second writer aborted: {exc}")

    # --- reconcilable modifies --------------------------------------------------
    print("\n[4] different columns of the same tuple reconcile")
    t1 = db.begin()
    t2 = db.begin()
    t1.modify("accounts", ("carol",), "balance", 3_333)
    t2.modify("accounts", ("carol",), "branch", "west")
    t1.commit()
    t2.commit()
    carol = db.query_point("accounts", ("carol",)).rows()[0]
    print("  both committed: carol =", *carol)

    # --- layer maintenance ----------------------------------------------------
    print("\n[5] write->read propagation (folds every Write layer into "
          "the Read-PDT)")
    state = db.manager.state_of("accounts")
    print(f"  write-PDT entries before: {state.write_pdt.count()} "
          f"(Write layers: {len(state.write_pdt.layers)})")
    db.manager.propagate_write_to_read("accounts")
    print(f"  write-PDT entries after:  {state.write_pdt.count()}, "
          f"read-PDT entries: {state.read_pdt.count()}")
    show(db, "  table unchanged")


if __name__ == "__main__":
    main()
