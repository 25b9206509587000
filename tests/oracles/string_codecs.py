"""Per-value reference for the string codecs.

These are the storage layer's string encoders as they were before they
became array code (one ``str(v).encode`` and one ``struct.pack`` per
value), and ``encode_best`` as it was: encode every candidate codec and
keep the smallest. ``tests/storage/test_string_codecs.py`` requires the
array encoders in ``repro.storage.compression`` to produce exactly these
bytes, so the on-disk block format cannot drift.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.storage.compression import (
    _HEADER,
    _UINT_OF_WIDTH,
    DICT,
    PLAIN,
    RLE,
    _width_for,
    candidate_codecs,
)
from repro.storage.schema import DataType


def _encode_plain(arr: np.ndarray, dtype: DataType) -> bytes:
    if dtype is DataType.STRING:
        parts = []
        for v in arr:
            b = str(v).encode("utf-8")
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        return b"".join(parts)
    return arr.astype(dtype.numpy_dtype).tobytes()


def _runs(arr: np.ndarray):
    """Run starts of ``arr`` as an index array (first index of each run)."""
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64)
    if arr.dtype == object:
        change = np.empty(len(arr), dtype=bool)
        change[0] = True
        prev = arr[:-1]
        cur = arr[1:]
        change[1:] = prev != cur
    else:
        change = np.empty(len(arr), dtype=bool)
        change[0] = True
        change[1:] = arr[1:] != arr[:-1]
    return np.flatnonzero(change)


def _encode_rle(arr: np.ndarray, dtype: DataType) -> bytes:
    starts = _runs(arr)
    lengths = np.diff(np.append(starts, len(arr))).astype(np.uint32)
    run_values = arr[starts]
    header = struct.pack("<I", len(starts))
    values_blob = _encode_plain(run_values, dtype)
    return header + lengths.tobytes() + values_blob


def _encode_dict(arr: np.ndarray, dtype: DataType) -> bytes:
    values = [str(v) for v in arr]
    mapping: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.uint32)
    for i, v in enumerate(values):
        code = mapping.get(v)
        if code is None:
            code = mapping[v] = len(mapping)
        codes[i] = code
    width = _width_for(max(len(mapping) - 1, 0))
    word_parts = []
    for word in mapping:
        encoded = word.encode("utf-8")
        word_parts.append(struct.pack("<I", len(encoded)))
        word_parts.append(encoded)
    dictionary = b"".join(word_parts)
    return (
        struct.pack("<IBI", len(mapping), width, len(dictionary))
        + dictionary
        + codes.astype(_UINT_OF_WIDTH[width]).tobytes()
    )


_ENCODERS = {
    PLAIN: _encode_plain,
    RLE: _encode_rle,
    DICT: _encode_dict,
}


def encode(arr: np.ndarray, dtype: DataType, codec: bytes) -> bytes:
    """Encode ``arr`` with an explicit codec, framed with a header."""
    payload = _ENCODERS[codec](arr, dtype)
    return _HEADER.pack(codec, len(arr), len(payload)) + payload


def encode_best(arr: np.ndarray, dtype: DataType) -> bytes:
    """Encode with the smallest applicable codec (per-block scheme choice)."""
    best = None
    for codec in candidate_codecs(dtype):
        if len(arr) == 0 and codec != PLAIN:
            continue
        blob = encode(arr, dtype, codec)
        if best is None or len(blob) < len(best):
            best = blob
    return best
