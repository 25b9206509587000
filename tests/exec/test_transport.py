"""Shared-memory ring transport unit tests (single-process harness).

The writer normally lives in a worker process, but the ring protocol is
process-agnostic bytes-in-shared-memory: attaching a writer to the
reader's segment inside one process exercises exactly the same code
paths (framing, alignment, wrap avoidance, flow control, inline
fallback, FIFO reclamation) deterministically.
"""

import gc

import numpy as np
import pytest

from repro.exec.transport import (
    ALIGN,
    ShmRingReader,
    ShmRingWriter,
    encode_frame_plan,
)


@pytest.fixture
def ring():
    reader = ShmRingReader(capacity=1 << 16)
    writer = ShmRingWriter(reader.name, capacity=1 << 16,
                           stall_timeout=0.05)
    yield reader, writer
    writer.close()
    reader.close()


def roundtrip(writer, reader, arrays):
    frame = writer.try_write(arrays)
    assert frame is not None
    return reader.decode(frame)


class TestFraming:
    def test_fixed_width_roundtrip_zero_copy(self, ring):
        reader, writer = ring
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 100),
            "c": np.arange(100, dtype=np.int32) % 3,
        }
        out = roundtrip(writer, reader, arrays)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            assert np.array_equal(out[name], arr)
            # Views of the shared segment are read-only.
            with pytest.raises(ValueError):
                out[name][0] = 0

    def test_object_columns_travel_inline(self, ring):
        reader, writer = ring
        strings = np.array(["x", "yy", None], dtype=object)
        arrays = {"k": np.arange(3, dtype=np.int64), "s": strings}
        cols, inline, _total = encode_frame_plan(arrays)
        assert [c[0] for c in cols] == ["k"]
        assert list(inline) == ["s"]
        out = roundtrip(writer, reader, arrays)
        assert out["s"] is strings  # same-process: the pickled leg is a no-op
        assert np.array_equal(out["k"], arrays["k"])

    def test_all_inline_block(self, ring):
        reader, writer = ring
        arrays = {"s": np.array(["a", "b"], dtype=object)}
        frame = writer.try_write(arrays)
        assert frame is not None and frame["cols"] == []
        out = reader.decode(frame)
        assert list(out) == ["s"]

    def test_offsets_are_aligned(self):
        arrays = {
            "a": np.arange(3, dtype=np.int8),   # 3 bytes -> pad to 16
            "b": np.arange(5, dtype=np.int64),  # 40 bytes -> pad to 48
            "c": np.arange(2, dtype=np.int16),
        }
        cols, _inline, total = encode_frame_plan(arrays)
        for _name, _dt, _n, off, _nbytes in cols:
            assert off % ALIGN == 0
        assert total == 16 + 48 + 16  # every column padded to ALIGN

    def test_oversized_frame_rejected(self, ring):
        reader, writer = ring
        too_big = {"a": np.zeros((1 << 15) // 8 + 16, dtype=np.int64)}
        assert writer.try_write(too_big) is None  # > capacity // 2


class TestFlowControl:
    def test_ring_full_times_out_while_views_live(self, ring):
        reader, writer = ring
        block = {"a": np.zeros(3000, dtype=np.int64)}  # ~24KB per frame
        held = []
        wrote = 0
        for _ in range(8):
            frame = writer.try_write(block)
            if frame is None:
                break
            held.append(reader.decode(frame))
            wrote += 1
        # 64KB ring, 24KB frames, no reclamation: the third write cannot
        # fit and try_write gives up after the stall timeout.
        assert 0 < wrote < 8
        assert writer.try_write(block) is None

    def test_reclamation_unblocks_writer_fifo(self, ring):
        reader, writer = ring
        block = {"a": np.zeros(3000, dtype=np.int64)}
        held = [reader.decode(writer.try_write(block)) for _ in range(2)]
        assert writer.try_write(block) is None  # full
        # Dropping the *second* frame's views reclaims nothing (FIFO:
        # the first frame still pins the ring head) ...
        del held[1]
        gc.collect()
        assert writer.try_write(block) is None
        # ... but dropping the first releases both frames at once.
        del held[0]
        gc.collect()
        frame = writer.try_write(block)
        assert frame is not None
        assert np.array_equal(reader.decode(frame)["a"], block["a"])

    def test_wrapping_frames_skip_the_tail(self, ring):
        reader, writer = ring
        # Uneven frame sizes force the logical position to a point where
        # the next frame would straddle the ring edge; frames must stay
        # contiguous (decode never reassembles split buffers).
        rng = np.random.default_rng(7)
        for i in range(200):
            n = int(rng.integers(1, 1200))
            arrays = {"a": np.arange(n, dtype=np.int64),
                      "b": np.full(n, i, dtype=np.float64)}
            frame = writer.try_write(arrays)
            assert frame is not None
            off = frame["off"]
            total = sum(
                (nb + ALIGN - 1) & ~(ALIGN - 1)
                for *_x, nb in frame["cols"]
            )
            assert off + total <= reader.capacity  # no straddle
            out = reader.decode(frame)
            assert np.array_equal(out["a"], arrays["a"])
            assert np.array_equal(out["b"], arrays["b"])
            del out
            gc.collect()


class TestLifecycle:
    def test_reader_close_idempotent_and_views_outlive_it(self):
        """A result may be held past ``Database.close()``: the mapping
        then belongs to the views, and collecting the reader first must
        not raise from ``SharedMemory.__del__`` (an unraisable
        ``BufferError`` before the ownership hand-over; pytest.ini turns
        unraisable exceptions into failures)."""
        reader = ShmRingReader(capacity=1 << 12)
        writer = ShmRingWriter(reader.name, capacity=1 << 12)
        view = reader.decode(writer.try_write(
            {"a": np.arange(10, dtype=np.int64)}))["a"]
        writer.close()
        reader.close()  # live view: unlinked, mapping handed to the view
        reader.close()  # idempotent
        del reader
        gc.collect()
        assert int(view.sum()) == 45  # the mapping survives both
        del view
        gc.collect()
