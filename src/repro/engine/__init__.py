"""Vectorized query engine: relations, expressions, and scan operators."""

from . import expr, functions
from .expr import AggSpec, Expr
from .relation import EngineError, GroupBy, Relation
from .scan import (
    fanout_scan_blocks,
    rebase_block_streams,
    scan_clean,
    scan_pdt,
    scan_vdt,
)

__all__ = [
    "AggSpec",
    "EngineError",
    "Expr",
    "GroupBy",
    "Relation",
    "expr",
    "fanout_scan_blocks",
    "functions",
    "rebase_block_streams",
    "scan_clean",
    "scan_pdt",
    "scan_vdt",
]
