"""The paper's primary contribution: Positional Delta Trees and algorithms.

Exports the PDT data structure (tree and flat reference forms), the value
space, MergeScan in both tuple-at-a-time and block-oriented forms, and the
Propagate / Serialize transaction-management transformations.
"""

from .flat_pdt import FlatPDT
from .merge import (
    BlockMerger,
    merge_row_stream,
    merge_rows,
    reblock,
)
from .pdt import PDT
from .propagate import MERGE_FOLD_RATIO, propagate, propagate_batch
from .serialize import serialize
from .shadow import ShadowTable
from .stack import (
    image_rows,
    merge_rows_layers,
    merge_scan_layers,
    total_delta,
)
from .types import (
    Entry,
    KIND_DEL,
    KIND_INS,
    PDTError,
    TransactionConflict,
    delta_of,
    is_modify,
    kind_name,
)
from .value_space import ValueSpace

__all__ = [
    "BlockMerger",
    "Entry",
    "reblock",
    "FlatPDT",
    "KIND_DEL",
    "KIND_INS",
    "PDT",
    "PDTError",
    "ShadowTable",
    "TransactionConflict",
    "ValueSpace",
    "delta_of",
    "image_rows",
    "is_modify",
    "kind_name",
    "merge_row_stream",
    "merge_rows",
    "merge_rows_layers",
    "merge_scan_layers",
    "MERGE_FOLD_RATIO",
    "propagate",
    "propagate_batch",
    "serialize",
    "total_delta",
]
