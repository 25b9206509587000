"""Pin-vector round trip: serialized PDT layers rebuild byte-identically.

The differential oracle is the scan itself: merging the *rebuilt* layers
over the same stable image must produce exactly the blocks the original
in-memory layers produce, for every delta shape the WAL entry format can
carry (inserts, deletes, single-column modifies, same-key chains,
multi-layer stacks).
"""

import numpy as np
import pytest

from repro import Database, DataType, Schema
from repro.engine.scan import shard_scan_stream
from repro.exec.pinvec import rebuild_layers, scan_payload, serialize_layers


def make_db(ops):
    schema = Schema.build(
        ("k", DataType.INT64), ("a", DataType.INT64),
        ("s", DataType.STRING), sort_key=("k",),
    )
    # 16-row stored blocks: the 50-row image scans as four blocks.
    db = Database(compressed=False, block_rows=16)
    db.create_table("t", schema, [(i * 2, i, f"r{i}") for i in range(50)])
    if ops:
        db.apply_batch("t", ops)
    return db, schema


def stream_bytes(stable, layers, schema):
    out = []
    for rid, arrays in shard_scan_stream(stable, list(layers),
                                         list(schema.column_names)):
        for c in schema.column_names:
            col = arrays[c]
            out.append((rid, c, col.tolist() if col.dtype == object
                        else col.tobytes()))
    return out


OPS_CASES = {
    "inserts": [("ins", (1, 100, "n1")), ("ins", (99, 101, "n2"))],
    "deletes": [("del", (0,)), ("del", (98,))],
    "modifies": [("mod", (4,), "a", -7), ("mod", (10,), "s", "patched")],
    "chains": [("del", (20,)), ("ins", (20, 999, "reborn")),
               ("mod", (20,), "a", 1000)],
    "mixed": [("ins", (3, 1, "i")), ("del", (6,)), ("mod", (8,), "a", 0),
              ("ins", (5, 2, "j")), ("del", (4,)),
              ("mod", (8,), "s", "x")],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(OPS_CASES))
def test_layer_roundtrip_scan_identical(case):
    db, schema = make_db(OPS_CASES[case])
    pin = db.pin_snapshot()
    try:
        pt = pin.table("t")
        rebuilt = rebuild_layers(schema, serialize_layers(pt.layers))
        assert stream_bytes(pt.stable, rebuilt, schema) \
            == stream_bytes(pt.stable, pt.layers, schema)
    finally:
        pin.release()
        db.close()


def test_multi_layer_stack_roundtrips():
    """A pinned Read-PDT + Write-PDT stack (pin taken mid-updates, then
    more updates land) serializes layer-by-layer in merge order."""
    db, schema = make_db([("mod", (2,), "a", -1)])
    pin = db.pin_snapshot()
    try:
        db.apply_batch("t", [("ins", (7, 7, "later")), ("del", (12,))])
        pt = pin.table("t")
        serialized = serialize_layers(pt.layers)
        rebuilt = rebuild_layers(schema, serialized)
        assert len(rebuilt) == len(serialized)
        assert stream_bytes(pt.stable, rebuilt, schema) \
            == stream_bytes(pt.stable, pt.layers, schema)
    finally:
        pin.release()
        db.close()


def test_empty_layers_are_elided():
    db, schema = make_db([])
    pin = db.pin_snapshot()
    try:
        assert serialize_layers(pin.table("t").layers) == []
        assert serialize_layers([None]) == []
    finally:
        pin.release()
        db.close()


def test_scan_payload_shape():
    db, schema = make_db(OPS_CASES["mixed"])
    pin = db.pin_snapshot()
    try:
        pt = pin.table("t")
        payload = scan_payload("/some/root", "t", 17, 3, pt.layers,
                               ["k", "a"], 0, 50)
        assert payload["root"] == "/some/root"
        assert payload["image_lsn"] == 17 and payload["epoch"] == 3
        assert payload["skip"] == 0
        assert payload["columns"] == ["k", "a"]
        assert (payload["sid_lo"], payload["sid_hi"]) == (0, 50)
        # The worker cuts at the block size of the image it opens.
        assert "block_rows" not in payload
        # Key bounds travel at the top level, and only when set.
        assert "low" not in payload and "high" not in payload
        bounded = scan_payload("/some/root", "t", 17, 3, pt.layers,
                               ["k", "a"], 0, 50, low=(3,), high=(9, 1))
        assert (bounded["low"], bounded["high"]) == ([3], [9, 1])
        # The payload must survive the pipe: pickle round-trip keeps the
        # rebuilt layers equivalent.
        import pickle

        thawed = pickle.loads(pickle.dumps(payload))
        rebuilt = rebuild_layers(schema, thawed["layers"])
        assert stream_bytes(pt.stable, rebuilt, schema) \
            == stream_bytes(pt.stable, pt.layers, schema)
    finally:
        pin.release()
        db.close()
