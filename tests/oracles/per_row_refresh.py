"""TPC-H refresh streams applied one row at a time.

``RefreshApplier.apply_all_pdt`` sends each refresh half through
``Transaction.apply_batch``; this is the other side of the "batch == per
row" differential: the same two transactions per pair, every row through
``txn.insert`` / ``txn.delete``.
"""


def apply_refreshes_per_row(applier, db) -> None:
    for pair in applier.data.refreshes:
        for half in applier.refresh_ops(pair):
            with db.transaction() as txn:
                for table, ops in half.items():
                    for kind, payload in ops:
                        if kind == "ins":
                            txn.insert(table, payload)
                        else:
                            txn.delete(table, payload)
