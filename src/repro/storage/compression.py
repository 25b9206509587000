"""Lightweight columnar compression codecs.

The paper's evaluation (Figure 19, plots 1-2) runs on compressed storage and
observes that sorted sort-key columns compress very well, shrinking — but not
eliminating — the extra I/O that value-based (VDT) merging pays for reading
them. To reproduce that effect the codecs here are *real*: they encode numpy
arrays to bytes and decode them back, and block I/O is accounted at the
encoded size.

Codecs
------
``plain``  raw little-endian array bytes (strings: length-prefixed UTF-8).
``rle``    run-length encoding — excellent for sorted/clustered columns.
``delta``  zigzag-encoded deltas at the minimal fixed byte width — excellent
           for monotone integer keys (e.g. ``l_orderkey``).
``dict``   dictionary encoding for strings with few distinct values.

``encode_best`` picks the smallest applicable encoding, mirroring how a
column store chooses per-block schemes. Every fold re-encodes its table,
so string blocks are encoded with array operations: one pass
(``_StringBlock``) gives the exact size of plain, rle and dict, and only
the winner is encoded. The bytes are those of the per-value encoders this
replaced, which ``tests/oracles/string_codecs.py`` keeps as the reference.
"""

from __future__ import annotations

import struct

import numpy as np

from .schema import DataType

_HEADER = struct.Struct("<4sIQ")  # codec tag, element count, payload length


class CompressionError(ValueError):
    """Raised on malformed compressed payloads."""


def _width_for(max_abs: int) -> int:
    """Smallest of 1/2/4/8 bytes that holds ``max_abs`` unsigned."""
    if max_abs < 1 << 8:
        return 1
    if max_abs < 1 << 16:
        return 2
    if max_abs < 1 << 32:
        return 4
    return 8


_UINT_OF_WIDTH = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed to unsigned so small magnitudes get small codes."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    u = codes.astype(np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)) ^ -(u & np.uint64(1)).astype(
        np.int64
    )


# ---------------------------------------------------------------------------
# plain


def _encode_plain(arr: np.ndarray, dtype: DataType) -> bytes:
    return arr.astype(dtype.numpy_dtype).tobytes()


def _decode_plain(payload: bytes, count: int, dtype: DataType) -> np.ndarray:
    if dtype is DataType.STRING:
        out = np.empty(count, dtype=object)
        off = 0
        for i in range(count):
            (n,) = struct.unpack_from("<I", payload, off)
            off += 4
            out[i] = payload[off : off + n].decode("utf-8")
            off += n
        return out
    return np.frombuffer(payload, dtype=dtype.numpy_dtype, count=count).copy()


# ---------------------------------------------------------------------------
# rle


def _runs(arr: np.ndarray):
    """Run starts of ``arr`` as an index array (first index of each run)."""
    change = np.empty(len(arr), dtype=bool)
    change[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=change[1:])
    return np.flatnonzero(change)


def _run_lengths(starts: np.ndarray, count: int) -> bytes:
    """The RLE run count, then the length of each run, all ``<u4``."""
    lengths = np.diff(starts, append=count)
    return np.append(len(starts), lengths).astype("<u4").tobytes()


def _encode_rle(arr: np.ndarray, dtype: DataType) -> bytes:
    starts = _runs(arr)
    return _run_lengths(starts, len(arr)) + _encode_plain(arr[starts], dtype)


def _decode_rle(payload: bytes, count: int, dtype: DataType) -> np.ndarray:
    (n_runs,) = struct.unpack_from("<I", payload, 0)
    off = 4
    lengths = np.frombuffer(payload, dtype=np.uint32, count=n_runs, offset=off)
    off += 4 * n_runs
    run_values = _decode_plain(payload[off:], n_runs, dtype)
    out = np.repeat(run_values, lengths.astype(np.int64))
    if len(out) != count:
        raise CompressionError("rle length mismatch")
    return out.astype(dtype.numpy_dtype, copy=False)


# ---------------------------------------------------------------------------
# delta (integers only)


def _encode_delta(arr: np.ndarray, dtype: DataType) -> bytes:
    v = arr.astype(np.int64)
    first = int(v[0]) if len(v) else 0
    deltas = np.diff(v)
    zz = _zigzag(deltas)
    width = _width_for(int(zz.max()) if len(zz) else 0)
    body = zz.astype(_UINT_OF_WIDTH[width]).tobytes()
    return struct.pack("<qB", first, width) + body


def _decode_delta(payload: bytes, count: int, dtype: DataType) -> np.ndarray:
    first, width = struct.unpack_from("<qB", payload, 0)
    if count == 0:
        return np.empty(0, dtype=dtype.numpy_dtype)
    codes = np.frombuffer(
        payload, dtype=_UINT_OF_WIDTH[width], count=count - 1, offset=9
    )
    deltas = _unzigzag(codes)
    out = np.empty(count, dtype=np.int64)
    out[0] = first
    if count > 1:
        np.cumsum(deltas, out=out[1:])
        out[1:] += first
    return out.astype(dtype.numpy_dtype)


# ---------------------------------------------------------------------------
# strings: plain, rle and dict as framing over one pass of block statistics


def _framed(payload: bytes, lengths: np.ndarray) -> bytes:
    """The string PLAIN layout: each value's ``<u4`` byte length, then its
    bytes. ``payload`` is the values' bytes back to back; the prefixes go
    in with one scatter."""
    out = np.empty(4 * len(lengths) + len(payload), dtype=np.uint8)
    prefix_at = 4 * np.arange(len(lengths)) + np.cumsum(lengths) - lengths
    prefix = (prefix_at[:, None] + np.arange(4)).ravel()
    out[prefix] = lengths.astype("<u4").view(np.uint8)
    is_value = np.ones(len(out), dtype=bool)
    is_value[prefix] = False
    out[is_value] = np.frombuffer(payload, dtype=np.uint8)
    return out.tobytes()


class _StringBlock:
    """One pass over a string block: the statistics every string codec
    is framing over, and so the exact size of each before any is built.

    A value is stored as ``str(v)``. The block keeps its text back to
    back, its distinct texts in first-appearance order (the DICT
    dictionary) with their UTF-8 byte lengths, each value's code into
    them, and the run starts of those codes.
    """

    def __init__(self, arr: np.ndarray):
        values = arr.tolist()
        # Anything but a plain str (np.str_ too: its str() drops
        # trailing NULs) is stored as its str().
        if not set(map(type, values)) <= {str}:
            values = list(map(str, values))
        self.text = "".join(values)
        self.keys = list(dict.fromkeys(values))
        if self.text.isascii():
            key_lengths = map(len, self.keys)
        else:
            key_lengths = (len(k.encode("utf-8")) for k in self.keys)
        self.key_lengths = np.fromiter(key_lengths, np.int64, len(self.keys))
        index = dict(zip(self.keys, range(len(self.keys))))
        self.codes = np.fromiter(map(index.__getitem__, values), np.int64,
                                 len(values))
        self.starts = _runs(self.codes)

    def _width(self) -> int:
        return _width_for(max(len(self.keys) - 1, 0))

    def size(self, codec: bytes) -> int:
        """Payload length of ``encode(codec)``, without encoding."""
        n, runs = len(self.codes), len(self.starts)
        if codec == PLAIN:
            return 4 * n + int(self.key_lengths[self.codes].sum())
        if codec == RLE:
            run_codes = self.codes[self.starts]
            return 4 + 8 * runs + int(self.key_lengths[run_codes].sum())
        return (9 + 4 * len(self.keys) + int(self.key_lengths.sum())
                + n * self._width())

    def encode(self, codec: bytes) -> bytes:
        if codec == PLAIN:
            return _framed(self.text.encode("utf-8"),
                           self.key_lengths[self.codes])
        if codec == RLE:
            run_codes = self.codes[self.starts]
            run_text = "".join(map(self.keys.__getitem__, run_codes.tolist()))
            return _run_lengths(self.starts, len(self.codes)) + _framed(
                run_text.encode("utf-8"), self.key_lengths[run_codes])
        if codec == DICT:
            width = self._width()
            dictionary = _framed("".join(self.keys).encode("utf-8"),
                                 self.key_lengths)
            return (
                struct.pack("<IBI", len(self.keys), width, len(dictionary))
                + dictionary
                + self.codes.astype(_UINT_OF_WIDTH[width]).tobytes()
            )
        raise CompressionError(f"codec {codec!r} does not encode strings")


def _decode_dict(payload: bytes, count: int, dtype: DataType) -> np.ndarray:
    n_dict, width, dict_len = struct.unpack_from("<IBI", payload, 0)
    off = 9
    words = []
    end = off + dict_len
    while off < end:
        (word_len,) = struct.unpack_from("<I", payload, off)
        off += 4
        words.append(payload[off : off + word_len].decode("utf-8"))
        off += word_len
    if len(words) != n_dict:
        raise CompressionError("dictionary corrupt")
    codes = np.frombuffer(
        payload, dtype=_UINT_OF_WIDTH[width], count=count, offset=off
    )
    lookup = np.empty(n_dict, dtype=object)
    lookup[:] = words
    return lookup[codes.astype(np.int64)]


# ---------------------------------------------------------------------------
# registry

_ENCODERS = {
    b"PLN ": _encode_plain,
    b"RLE ": _encode_rle,
    b"DLT ": _encode_delta,
}
_DECODERS = {
    b"PLN ": _decode_plain,
    b"RLE ": _decode_rle,
    b"DLT ": _decode_delta,
    b"DCT ": _decode_dict,
}

PLAIN, RLE, DELTA, DICT = b"PLN ", b"RLE ", b"DLT ", b"DCT "

_INT_TYPES = (DataType.INT64, DataType.INT32, DataType.DATE, DataType.BOOL)


def candidate_codecs(dtype: DataType) -> tuple[bytes, ...]:
    """Codecs applicable to a column of ``dtype``."""
    if dtype is DataType.STRING:
        return (PLAIN, RLE, DICT)
    if dtype in _INT_TYPES:
        return (PLAIN, RLE, DELTA)
    return (PLAIN, RLE)


def encode(arr: np.ndarray, dtype: DataType, codec: bytes) -> bytes:
    """Encode ``arr`` with an explicit codec, framed with a header."""
    if dtype is DataType.STRING:
        payload = _StringBlock(arr).encode(codec)
    else:
        payload = _ENCODERS[codec](arr, dtype)
    return _HEADER.pack(codec, len(arr), len(payload)) + payload


def encode_best(arr: np.ndarray, dtype: DataType) -> bytes:
    """Encode with the smallest applicable codec (per-block scheme choice).
    Ties go to the first of ``candidate_codecs(dtype)``; an empty block is
    PLAIN. A string block is sized under every codec from one pass and
    only the winner is encoded."""
    codecs = candidate_codecs(dtype) if len(arr) else (PLAIN,)
    if dtype is DataType.STRING:
        block = _StringBlock(arr)
        codec = min(codecs, key=block.size)
        payload = block.encode(codec)
        return _HEADER.pack(codec, len(arr), len(payload)) + payload
    return min((encode(arr, dtype, codec) for codec in codecs), key=len)


def decode(blob: bytes, dtype: DataType) -> np.ndarray:
    """Decode a framed payload back into a numpy array."""
    codec, count, payload_len = _HEADER.unpack_from(blob, 0)
    payload = blob[_HEADER.size : _HEADER.size + payload_len]
    if codec not in _DECODERS:
        raise CompressionError(f"unknown codec {codec!r}")
    return _DECODERS[codec](payload, count, dtype)


def codec_of(blob: bytes) -> bytes:
    """The codec tag a framed payload was encoded with."""
    codec, _, _ = _HEADER.unpack_from(blob, 0)
    return codec
