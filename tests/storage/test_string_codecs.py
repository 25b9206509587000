"""String codecs produce exactly the bytes of the per-value reference.

``repro.storage.compression`` encodes string blocks with array code over
one pass of block statistics, and ``encode_best`` sizes every candidate
from those statistics and encodes only the winner.
``tests/oracles/string_codecs.py`` keeps the per-value encoders they
replaced; every blob here must equal the oracle's byte for byte, and the
golden digest pins ``encode_best`` over a fixed set of blocks so that the
format of stores already on disk cannot drift.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DataType
from repro.storage import compression as comp

from ..oracles import string_codecs as oracle

STRING_CODECS = (comp.PLAIN, comp.RLE, comp.DICT)


def _objects(values) -> np.ndarray:
    values = list(values)
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _assert_matches_oracle(arr: np.ndarray, reference: np.ndarray) -> None:
    """Every string codec and ``encode_best`` over ``arr`` equal the
    oracle's bytes over ``reference``, and each predicted size equals the
    length of the payload it predicts."""
    block = comp._StringBlock(arr)
    for codec in STRING_CODECS:
        blob = comp.encode(arr, DataType.STRING, codec)
        assert blob == oracle.encode(reference, DataType.STRING, codec), codec
        assert block.size(codec) + comp._HEADER.size == len(blob), codec
    assert comp.encode_best(arr, DataType.STRING) == \
        oracle.encode_best(reference, DataType.STRING)


# -- strategies ---------------------------------------------------------------

# ASCII, embedded NUL, 2- and 3-byte UTF-8 and 4-byte UTF-8 (outside the
# BMP). Surrogates cannot be encoded as UTF-8 at all and stay out.
_CHARS = st.sampled_from(list("ab z~") + ["\x00", "é", "ß", "中", "𝄞", "😀"])
_SHORT = st.text(alphabet=_CHARS, max_size=12)
_LONG = st.builds(lambda c, n: c * n, _CHARS, st.integers(300, 70_000))
_TEXT = st.one_of(_SHORT, _SHORT, _SHORT, _LONG)


@st.composite
def _string_blocks(draw) -> list:
    """Blocks of 0-300 values: free, all-distinct, or drawn from a pool of
    1-3 values (where two codecs can tie), optionally sorted."""
    n = draw(st.integers(0, 300))
    shape = draw(st.sampled_from(["free", "distinct", "pool"]))
    if shape == "free":
        values = draw(st.lists(_SHORT, min_size=n, max_size=n))
    elif shape == "distinct":
        values = draw(st.lists(_SHORT, min_size=min(n, 40), max_size=n,
                               unique=True))
    else:
        pool = draw(st.lists(_TEXT, min_size=1, max_size=3))
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=n, max_size=n))
        values = [pool[i] for i in picks]
    if draw(st.booleans()):
        values.sort()
    return values


# -- properties ---------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(_string_blocks())
def test_string_codecs_match_per_value_oracle(values):
    arr = _objects(values)
    _assert_matches_oracle(arr, arr)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_SHORT, _SHORT.map(np.str_),
                          st.integers(-3, 3), st.integers()),
                max_size=300))
def test_non_str_values_are_stored_as_their_str(values):
    """A STRING column stores ``str(v)``. Against the oracle over those
    texts: the oracle split RLE runs by object equality, so ``1`` next to
    ``"1"`` was two runs of one text (see the test below for the case
    where that lost data)."""
    _assert_matches_oracle(_objects(values), _objects(map(str, values)))


@pytest.mark.parametrize("codec", STRING_CODECS)
def test_equal_objects_with_different_text_round_trip(codec):
    """``1 == 1.0`` but their texts differ. Runs and dictionary entries
    follow the text, so no codec folds ``"1.0"`` into ``"1"``."""
    arr = _objects([1, 1.0, 1.0, 1, True])
    for blob in (comp.encode(arr, DataType.STRING, codec),
                 comp.encode_best(arr, DataType.STRING)):
        assert comp.decode(blob, DataType.STRING).tolist() == \
            ["1", "1.0", "1.0", "1", "True"]


# -- golden digest --------------------------------------------------------------


def golden_blocks() -> list:
    """A fixed set of ``(dtype, block)`` pairs covering every codec choice."""
    rng = np.random.default_rng(38)
    words = ["", "AIR", "MAIL", "SHIP", "héllo", "a\x00b", "𝄞", "x" * 300,
             "TRUCK", "REG AIR", "FOB", "1", "中文"]
    blocks = []
    for n in (0, 1, 2, 5, 300, 4096):
        for k in (1, 2, 3, 7, len(words)):
            picks = [words[i] for i in rng.integers(0, k, n)]
            blocks.append((DataType.STRING, _objects(picks)))
            blocks.append((DataType.STRING, _objects(sorted(picks))))
    blocks.append((DataType.STRING,
                   _objects(f"Customer#{i:09d}" for i in range(4096))))
    blocks.append((DataType.STRING,
                   _objects(f"cmt {i * 7919 % 1000} ü" for i in range(4096))))
    blocks.append((DataType.INT64, np.arange(4096, dtype=np.int64) * 3))
    blocks.append((DataType.INT64, rng.integers(-2**40, 2**40, 4096)))
    blocks.append((DataType.INT64, np.repeat(np.arange(8), 512)))
    blocks.append((DataType.FLOAT64, rng.random(1000)))
    blocks.append((DataType.DATE,
                   np.sort(rng.integers(8000, 10000, 4096)).astype(np.int32)))
    blocks.append((DataType.BOOL, rng.random(300) < 0.1))
    return blocks


#: SHA-256 of every ``encode_best`` blob of ``golden_blocks()`` in order,
#: computed with the per-value encoders before the array rewrite.
GOLDEN_SHA256 = (
    "dec95568c6284c54a2b45117ba472d030c0449eb5e9502b79b6bcc20cd7029e7")


def test_encode_best_golden_digest():
    digest = hashlib.sha256()
    for dtype, block in golden_blocks():
        digest.update(comp.encode_best(block, dtype))
    assert digest.hexdigest() == GOLDEN_SHA256
