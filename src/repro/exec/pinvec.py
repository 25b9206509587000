"""Pin-vector serialization: shipping a pinned shard version to a worker.

A snapshot pin names one version of a physical table as (stable image
LSN, Read-PDT, Write-PDT): the stable image is *already on disk* — the
mmap backend published it under its ``image_lsn`` — so only the delta
layers travel. Each layer travels as its ``PDT.entries()`` run (the
``(sid, kind, payload)`` triples in (SID, RID) order that WAL records
also carry) and is rebuilt worker-side with one ``bulk_append_entries``
onto an empty PDT, the same build WAL replay stages through. Payloads
ride the job pipe (pickled — they are small, proportional to delta size,
not table size), never the block ring.
"""

from __future__ import annotations

from ..core.pdt import PDT


def serialize_layers(layers) -> list[list]:
    """Entry runs of each non-empty PDT layer, in merge order."""
    return [
        layer.entries()
        for layer in layers
        if layer is not None and not layer.is_empty()
    ]


def rebuild_layers(schema, serialized: list[list]) -> list[PDT]:
    """Inverse of :func:`serialize_layers`: fresh PDTs over ``schema``."""
    layers = []
    for entries in serialized:
        pdt = PDT(schema)
        pdt.bulk_append_entries(entries)
        layers.append(pdt)
    return layers


def scan_payload(root, table: str, image_lsn: int, epoch: int, layers,
                 columns, sid_lo, sid_hi, low=None, high=None,
                 push: dict | None = None) -> dict:
    """The complete job payload for one remote shard scan.

    ``root`` is the shard scope's backend directory (the worker opens it
    read-only and verifies the published catalog still carries exactly
    the ``(image_lsn, epoch)`` pair before trusting the layers to be
    relative to it — the LSN ties the image to the pinned commit point,
    the segment epoch disambiguates republishes at one LSN). No block
    size travels: the worker cuts blocks at the size the store persisted
    with the image it opens, which is the pinned image's.

    ``low`` / ``high`` are the job's sort-key bounds (present only when
    set), which the worker's merge narrows the window to exactly as the
    parent's does. ``push`` is the optional pushed-down computation
    (:meth:`repro.service.plan.ShardScanSpec.push_payload`): serialized
    ``where`` predicate and ``agg`` partial-aggregate spec. A worker that
    does not understand any part of it answers ``unsupported`` and the
    router runs the identical pushed pipeline locally.
    """
    payload = {
        "root": str(root),
        "table": table,
        "image_lsn": int(image_lsn),
        "epoch": int(epoch),
        "layers": serialize_layers(layers),
        "columns": list(columns),
        "sid_lo": sid_lo,
        "sid_hi": sid_hi,
        "skip": 0,
    }
    if low is not None:
        payload["low"] = list(low)
    if high is not None:
        payload["high"] = list(high)
    if push:
        payload["push"] = push
    return payload
