"""Cost guards for the Write stack and the clean range fold.

A commit under a live pin stacks a fresh Write layer instead of copying
the layer the pin holds, so it writes only its own entries; layers no
pin holds any more fold back in place at the next commit. A range fold
whose window holds no entry returns before the merge reads a block.
"""

import pytest

from repro import Database, DataType, PDT, Schema
from repro.txn import checkpoint_table_range

SCHEMA = Schema.build(("k", DataType.INT64), ("a", DataType.INT64),
                      sort_key=("k",))


@pytest.fixture
def written(monkeypatch):
    """A counter of the PDT entries ``bulk_append_entries`` and the
    ``add_*`` primitives write."""
    count = [0]

    def counted(name, size):
        original = getattr(PDT, name)

        def wrapper(self, *args):
            count[0] += size(args)
            return original(self, *args)
        monkeypatch.setattr(PDT, name, wrapper)

    counted("bulk_append_entries", lambda args: len(list(args[0])))
    for name in ("add_insert", "add_modify", "add_delete"):
        counted(name, lambda args: 1)
    return count


def test_one_row_commit_under_a_pin_writes_one_entry(written):
    db = Database()
    db.create_table("t", SCHEMA, [(2 * k, k) for k in range(20_000)])
    db.apply_batch("t", [("mod", (2 * k,), "a", -k) for k in range(16_000)])
    state = db.manager.state_of("t")
    assert state.write_pdt.count() == 16_000
    with db.pin_snapshot():
        written[0] = 0
        db.modify("t", (8,), "a", 7)
        assert written[0] <= 2
        assert len(state.write_pdt.layers) == 2
    assert (8, 7) in db.image_rows("t")
    db.close()


def test_clean_range_fold_reads_no_block():
    db = Database(block_rows=64)
    db.create_table("t", SCHEMA, [(k, k) for k in range(1024)])
    db.modify("t", (5,), "a", -5)
    db.manager.propagate_write_to_read("t")
    db.modify("t", (1000,), "a", -1000)
    reads = db.io.blocks_read
    assert checkpoint_table_range(db.manager, "t", 256, 512) == 0
    assert db.io.blocks_read == reads
    db.close()


def test_layers_no_pin_holds_fold_back_at_the_next_commit():
    db = Database()
    db.create_table("t", SCHEMA, [(2 * k, k) for k in range(100)])
    db.apply_batch("t", [("mod", (2 * k,), "a", -k) for k in range(50, 100)])
    state = db.manager.state_of("t")
    (bottom,) = state.write_pdt.layers
    run = bottom.entries()
    old = db.pin_snapshot()
    db.modify("t", (0,), "a", -1)   # pushes a layer above the held one
    db.modify("t", (2,), "a", -2)   # writes that unheld layer in place
    new = db.pin_snapshot()
    db.modify("t", (4,), "a", -3)
    assert len(state.write_pdt.layers) == 3
    middle = state.write_pdt.layers[1]
    new.release()
    # Only the older pin is left, holding the bottom layer: the commit
    # folds the top into the middle layer in place and writes that.
    db.modify("t", (6,), "a", -4)
    assert state.write_pdt.layers == (bottom, middle)
    assert middle.count() == 4 and bottom.entries() == run
    rows = db.image_rows("t")
    assert [(k, a) for k, a in rows if k < 8] == [(0, -1), (2, -2), (4, -3),
                                                  (6, -4)]
    old.release()
    db.close()
