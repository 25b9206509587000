"""Quickstart: an updatable columnar database with PDT update handling.

Creates an ordered table, runs trickle updates through transactions, shows
that read queries never touch columns they don't name, and folds deltas
back into stable storage with a checkpoint.

Run: ``python examples/quickstart.py``
"""

from repro import Database, DataType, Schema


def main() -> None:
    schema = Schema.build(
        ("country", DataType.STRING),
        ("city", DataType.STRING),
        ("population", DataType.INT64),
        ("area_km2", DataType.FLOAT64),
        sort_key=("country", "city"),
    )
    db = Database(compressed=True)
    db.create_table(
        "cities",
        schema,
        [
            ("france", "lyon", 522_000, 47.9),
            ("france", "paris", 2_102_000, 105.4),
            ("netherlands", "amsterdam", 931_000, 219.3),
            ("netherlands", "rotterdam", 664_000, 324.1),
            ("poland", "warsaw", 1_863_000, 517.2),
        ],
    )

    # --- autocommit updates ------------------------------------------------
    db.insert("cities", ("germany", "berlin", 3_878_000, 891.7))
    db.modify("cities", ("france", "paris"), "population", 2_113_000)
    db.delete("cities", ("netherlands", "rotterdam"))

    # --- a multi-statement transaction --------------------------------------
    with db.transaction() as txn:
        txn.insert("cities", ("poland", "krakow", 804_000, 326.9))
        txn.insert("cities", ("germany", "hamburg", 1_906_000, 755.2))
        # The transaction reads its own writes:
        assert "krakow" in txn.scan("cities", columns=["city"])["city"]

    print("current image (merged positionally, no sort-key reads needed):")
    for row in db.query("cities").rows():
        print("   ", *row)

    # --- projection queries skip unused columns entirely ---------------------
    db.make_cold()
    db.io.reset()
    populations = db.query("cities", columns=["population"])
    print(
        f"\nprojection of 1 column read {db.io.bytes_read} bytes; "
        f"columns touched: {sorted(c for _, c in db.io.bytes_by_column)}"
    )
    print(f"total population: {int(populations['population'].sum()):,}")

    # --- delta bookkeeping and checkpoint -----------------------------------
    print(f"\ndelta memory before checkpoint: {db.delta_bytes('cities')} B")
    db.checkpoint("cities")
    print(f"delta memory after checkpoint:  {db.delta_bytes('cities')} B")
    print(f"stable rows after checkpoint:   {db.table('cities').num_rows}")


if __name__ == "__main__":
    main()
