"""Shared-memory ring transport: result blocks without pickling.

One :class:`multiprocessing.shared_memory.SharedMemory` segment per
worker carries scan result blocks from the worker process back to the
parent. The segment is a single-producer/single-consumer byte ring:

* the **worker** appends one *frame* per result block — the raw bytes of
  every fixed-width column, 16-byte aligned, never wrapping around the
  ring edge (a frame that would straddle it skips the tail) — and
  announces it with a small pickled control message over the job pipe
  (the pipe send is also the cross-process memory barrier: the parent
  only touches a frame after receiving its announcement);
* the **parent** wraps each announced column in a read-only
  ``np.frombuffer`` view of the shared segment — zero copies — and
  advances the ring's ``read_pos`` header word only when every view of
  the oldest outstanding frames has been garbage-collected
  (``weakref.finalize`` refcounts, FIFO reclamation).

Flow control is the header word: the worker polls ``read_pos`` and
blocks while the ring is full. A consumer that holds views for a long
time would park the worker forever, so after ``stall_timeout`` the
worker gives up on the ring for that block and ships it *inline*
(pickled through the pipe) — strictly slower, never stuck. Object-dtype
columns (STRING) have no stable byte representation and always travel
inline; everything else stays raw.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

HEADER_BYTES = 16  # read_pos (uint64) + padding; write side keeps its own
ALIGN = 16
DEFAULT_RING_BYTES = 8 << 20


def _align(n: int) -> int:
    return (n + ALIGN - 1) & ~(ALIGN - 1)


def encode_frame_plan(arrays: dict) -> tuple[list, dict, int]:
    """Split a block into ring-able columns and inline columns.

    Returns ``(cols, inline, total)``: ``cols`` is a list of
    ``[name, dtype_str, length, frame_offset, nbytes]`` descriptors for
    fixed-width columns laid out back to back (16-byte aligned) in a
    frame of ``total`` bytes; ``inline`` maps object-dtype column names
    to their arrays (pickled with the control message).
    """
    cols: list = []
    inline: dict = {}
    offset = 0
    for name, arr in arrays.items():
        if arr.dtype == object:
            inline[name] = arr
            continue
        arr = np.ascontiguousarray(arr)
        cols.append([name, arr.dtype.str, len(arr), offset, arr.nbytes])
        offset += _align(arr.nbytes)
    return cols, inline, offset


class _RingSegment(shared_memory.SharedMemory):
    """The parent's handle on a ring segment whose mapping zero-copy
    views may outlive.

    ``SharedMemory.close`` unmaps, which CPython refuses with
    ``BufferError`` while an ndarray still exports the buffer — and
    ``SharedMemory.__del__`` calls it again, so a ring torn down under a
    live result used to fail a second time, unraisably, at whatever
    moment the collector ran. Ownership passes to the views instead: a
    close under live exports drops this handle's references (and its
    descriptor), and the mapping is unmapped by reference count when the
    last view is collected.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            self._buf = None
            self._mmap = None
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1


class ShmRingWriter:
    """Worker-side producer over an existing shared segment."""

    def __init__(self, name: str, capacity: int,
                 stall_timeout: float = 0.25):
        self._shm = shared_memory.SharedMemory(name=name)
        self.capacity = capacity
        self.stall_timeout = stall_timeout
        self._write_pos = 0  # monotonically increasing logical offset

    def _read_pos(self) -> int:
        return struct.unpack_from("<Q", self._shm.buf, 0)[0]

    def try_write(self, arrays: dict):
        """Write one block's fixed-width columns as a ring frame.

        Returns a control descriptor ``{"off", "end", "cols"}`` (plus the
        caller merges any inline columns), or ``None`` when the frame did
        not fit within ``stall_timeout`` (ring full — caller ships the
        whole block inline) or is larger than half the ring.
        """
        cols, inline, total = encode_frame_plan(arrays)
        if not cols:
            return None if not inline else {"off": 0, "end": self._write_pos,
                                            "cols": [], "inline": inline}
        if total > self.capacity // 2:
            return None
        deadline = time.monotonic() + self.stall_timeout
        while True:
            start = self._write_pos
            tail = self.capacity - (start % self.capacity)
            pad = tail if total > tail else 0  # never wrap a frame
            if self.capacity - (start - self._read_pos()) >= pad + total:
                break
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.0005)
        start += pad
        phys = start % self.capacity
        base = HEADER_BYTES + phys
        for name, _dt, _n, off, nbytes in cols:
            if nbytes:
                self._shm.buf[base + off:base + off + nbytes] = \
                    np.ascontiguousarray(arrays[name]).tobytes()
        self._write_pos = start + total
        return {"off": phys, "end": self._write_pos, "cols": cols,
                "inline": inline}

    def close(self) -> None:
        self._shm.close()


class ShmRingReader:
    """Parent-side consumer: zero-copy views + FIFO reclamation."""

    def __init__(self, capacity: int):
        self._shm = _RingSegment(
            create=True, size=HEADER_BYTES + capacity)
        self.capacity = capacity
        self.name = self._shm.name
        struct.pack_into("<Q", self._shm.buf, 0, 0)
        self._lock = threading.Lock()
        # frame id -> [logical_end, outstanding view refs]; insertion
        # order is ring order, so reclamation is a head walk.
        self._frames: OrderedDict[int, list] = OrderedDict()
        self._next_frame = 0
        self._closed = False

    def decode(self, frame: dict) -> dict:
        """Materialize one announced frame as ``{column: ndarray}``.

        Fixed-width columns are read-only views of the shared segment;
        their ring bytes are recycled once every view is collected.
        """
        arrays = dict(frame.get("inline", ()))
        cols = frame["cols"]
        if not cols:
            return arrays
        with self._lock:
            frame_id = self._next_frame
            self._next_frame += 1
            self._frames[frame_id] = [frame["end"], len(cols)]
        base = HEADER_BYTES + frame["off"]
        for name, dt, n, off, _nbytes in cols:
            view = np.frombuffer(self._shm.buf, dtype=np.dtype(dt),
                                 count=n, offset=base + off)
            view.flags.writeable = False
            weakref.finalize(view, self._release, frame_id)
            arrays[name] = view
        return arrays

    def _release(self, frame_id: int) -> None:
        with self._lock:
            if self._closed:
                return
            entry = self._frames.get(frame_id)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            entry[0] = -entry[0]  # mark fully released (sign flag)
            advanced = None
            while self._frames:
                head_id, (end, _refs) = next(iter(self._frames.items()))
                if end > 0:
                    break  # head still has live views; stop the walk
                self._frames.pop(head_id)
                advanced = -end
            if advanced is not None:
                struct.pack_into("<Q", self._shm.buf, 0, advanced)

    def close(self) -> None:
        """Unlink the segment and release this reader's handle on it;
        the mapping itself lives on exactly as long as any zero-copy
        view is still referenced (see :class:`_RingSegment`)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._frames.clear()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
