"""The paper's running example (section 2.1, Figures 1-13), narrated.

Walks the inventory table through the three update batches of the paper,
printing the PDT's entries, value space, and the merged table image after
each batch — the same states Figures 3-13 show. Also demonstrates the
ghost-respecting SID assignment that keeps the TABLE0 sparse index valid.

Run: ``python examples/inventory_example.py``
"""

from repro import DataType, PDT, Schema, SparseIndex, StableTable, merge_rows
from repro.core.types import KIND_INS, kind_name
from repro.db import PositionalUpdater


def print_pdt(pdt: PDT, label: str) -> None:
    print(f"\n--- {label} ---")
    print("PDT entries (sid, rid, kind -> payload):")
    for entry, (_, _, payload) in zip(pdt.iter_entries(), pdt.entries()):
        print(
            f"   sid={entry.sid} rid={entry.rid} "
            f"{kind_name(entry.kind):<10} {payload}"
        )
    print(f"total delta: {pdt.total_delta():+d}, "
          f"memory (paper model): {pdt.memory_usage()} B")


def print_image(stable_rows, pdt) -> None:
    print("merged table image:")
    for rid, row in enumerate(merge_rows(stable_rows, pdt)):
        print(f"   rid={rid}  {row}")


def main() -> None:
    schema = Schema.build(
        ("store", DataType.STRING),
        ("prod", DataType.STRING),
        ("new", DataType.STRING),
        ("qty", DataType.INT64),
        sort_key=("store", "prod"),
    )
    stable = StableTable.bulk_load(
        "inventory",
        schema,
        [  # Figure 1: TABLE0
            ("London", "chair", "N", 30),
            ("London", "stool", "N", 10),
            ("London", "table", "N", 20),
            ("Paris", "rug", "N", 1),
            ("Paris", "stool", "N", 5),
        ],
    )
    index = SparseIndex(stable, granularity=2)
    pdt = PDT(schema, fanout=4)
    updater = PositionalUpdater(stable, [pdt], index)
    stable_rows = stable.rows()

    print("TABLE0 (Figure 1):")
    print_image(stable_rows, PDT(schema))

    # BATCH1 (Figure 2): three inserts landing at the table head.
    updater.insert(("Berlin", "table", "Y", 10))
    updater.insert(("Berlin", "cloth", "Y", 5))
    updater.insert(("Berlin", "chair", "Y", 20))
    print_pdt(pdt, "after BATCH1 (Figures 3-5)")
    print_image(stable_rows, pdt)

    # BATCH2 (Figure 6): in-place modify of an insert, a stable modify,
    # deletion of an insert (vanishes), deletion of a stable tuple (ghost).
    updater.modify_by_key(("Berlin", "cloth"), "qty", 1)
    updater.modify_by_key(("London", "stool"), "qty", 9)
    updater.delete_by_key(("Berlin", "table"))
    updater.delete_by_key(("Paris", "rug"))
    print_pdt(pdt, "after BATCH2 (Figures 7-9)")
    print_image(stable_rows, pdt)

    # BATCH3 (Figure 10): inserts interacting with the ghost tuple.
    updater.insert(("Paris", "rack", "Y", 4))
    updater.insert(("London", "rack", "Y", 4))
    updater.insert(("Berlin", "rack", "Y", 4))
    print_pdt(pdt, "after BATCH3 (Figures 11-13)")
    print_image(stable_rows, pdt)

    # The paper's sparse-index query: store='Paris' AND prod<'rug'.
    # (Paris, rack) respects the (Paris, rug) ghost, so the *stale* TABLE0
    # index still yields a correct SID range.
    rng = index.sid_range_for_key_range(("Paris",), ("Paris", "rug"))
    print(
        f"\nsparse index (built on TABLE0, never updated) says Paris rows "
        f"live in SID range [{rng.start}, {rng.stop})"
    )
    rack = [
        row for _, kind, row in pdt.entries()
        if kind == KIND_INS and row[0] == "Paris"
    ]
    print(f"and indeed the merged range contains the new tuple: {rack[0]}")


if __name__ == "__main__":
    main()
