"""Read ops over the shared table, inline or through the query service,
each checked against a numpy oracle of the table image.

Op types (the keys of ``Recorder.samples``):

``scan``        full scan of the table that carries deltas
``scan_clean``  full scan of the clean twin (same image, empty PDT)
``proj``        one-column projection of the dirty table
``agg``         pushed ``where=`` + ``aggregate=``
``range``       1k-key sort-key range
``point``       single-key lookup
``first_block`` submit -> first cursor block of a service read (a sample
                taken inside service ops, not an op of its own)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine import expr as ex
from repro.engine.relation import Relation

from . import tables

RANGE_KEYS = 1000
AGG_WIDTH = 100  # of tables.A_RANGE: the predicate keeps ~10 % of the rows
AGG = ex.AggSpec(("s",), {"sb": ("b", "sum"), "n": ("*", "count")})


class Image:
    """A table image as sorted numpy columns, with the oracle answers."""

    def __init__(self, arrays: dict):
        self.arrays = arrays
        self.rows = len(arrays["k"])
        self._codes = None

    def full(self, rel, columns=tables.COLUMNS) -> bool:
        return (tuple(rel.column_names) == tuple(columns)
                and tables.same_columns(rel, self.arrays, columns))

    def key_range(self, rel, low: int, high: int) -> bool:
        keys = self.arrays["k"]
        i0 = int(np.searchsorted(keys, low, side="left"))
        i1 = int(np.searchsorted(keys, high, side="right"))
        if rel.num_rows != i1 - i0:
            return False
        return all(np.array_equal(rel[c], self.arrays[c][i0:i1])
                   for c in tables.COLUMNS)

    def aggregate(self, rel, a_low: int) -> bool:
        if self._codes is None:
            self._codes = np.searchsorted(tables.WORDS, self.arrays["s"])
        a = self.arrays["a"]
        mask = (a >= a_low) & (a < a_low + AGG_WIDTH)
        codes = self._codes[mask]
        counts = np.bincount(codes, minlength=len(tables.WORDS))
        sums = np.bincount(codes, weights=self.arrays["b"][mask],
                           minlength=len(tables.WORDS))
        expected = {
            str(tables.WORDS[i]): (float(sums[i]), int(counts[i]))
            for i in range(len(tables.WORDS)) if counts[i]
        }
        got = {
            str(s): (float(sb), int(n))
            for s, sb, n in zip(rel["s"], rel["sb"], rel["n"])
        }
        return got == expected


def dirty_table(seed: int, rows: int, delta_share: float):
    """``(base arrays, delta ops, Image of the merged table)`` of a table
    with ``delta_share`` of its rows touched by scattered updates."""
    rng = tables.rng_for(seed, 1)
    base = tables.base_arrays(rng, rows)
    deltas = tables.scattered_deltas(rng, rows, int(rows * delta_share))
    return base, deltas, Image(tables.merged_image(base, deltas))


def agg_where(a_low: int):
    return ex.and_(ex.ge("a", a_low), ex.lt("a", a_low + AGG_WIDTH))


class InlineReads:
    """The caller's own thread runs the scan: ``Database.query*``."""

    def __init__(self, db):
        self.db = db

    def full(self, table, columns=None):
        return self.db.query(table, columns=columns)

    def agg(self, table, a_low):
        return self.db.query(table, where=agg_where(a_low), aggregate=AGG)

    def key_range(self, table, low, high):
        return self.db.query_range(table, low=(low,), high=(high,))

    def point(self, table, key):
        return self.db.query_point(table, (key,))


class ServiceReads:
    """Reads through ``QueryService`` cursors. Every read notes the time
    from submit to its first block in ``first_block_s``."""

    def __init__(self, svc):
        self.svc = svc
        self.first_block_s = None

    def drain(self, submit):
        """Submit, note the time to the first block, materialise the rest
        (what ``cursor.to_relation()`` does, with the first block timed)."""
        start = time.perf_counter()
        cursor = submit()
        first = cursor.next_block()
        self.first_block_s = time.perf_counter() - start
        blocks = [first] if first is not None else []
        blocks.extend(cursor)
        return Relation.from_batches(cursor.columns, blocks)

    def full(self, table, columns=None):
        return self.drain(
            lambda: self.svc.submit_query(table, columns=columns))

    def agg(self, table, a_low):
        return self.drain(lambda: self.svc.submit_query(
            table, where=agg_where(a_low), agg=AGG))

    def key_range(self, table, low, high):
        return self.drain(lambda: self.svc.submit_range(
            table, low=(low,), high=(high,)))

    def point(self, table, key):
        return self.key_range(table, key, key)


def first_block_reads(rec, via_service: ServiceReads, image: Image,
                      table: str, a_lows) -> None:
    """``first_block`` samples for a workload that reads inline: pushed
    aggregates through the service. Their first (only) block arrives when
    the scan is done, so the number is CPU work and not the
    sub-millisecond thread hand-offs of a small read, which on a shared
    host double for half an hour at a time."""
    for a_low in a_lows:
        a_low = int(a_low)
        if rec.op("svc_agg", lambda: via_service.agg(table, a_low),
                  lambda rel: image.aggregate(rel, a_low)) is not None:
            rec.add("first_block", via_service.first_block_s)


@dataclass(frozen=True)
class ReadMix:
    """Ops of each type in one round."""

    scans: int
    clean_scans: int
    projections: int
    aggregates: int
    ranges: int
    points: int


def round_inputs(rng, image: Image, mix: ReadMix) -> dict:
    """The seed-derived arguments of one round's ops."""
    top = int(image.arrays["k"][-1])
    span = RANGE_KEYS * tables.KEY_STRIDE
    return {
        "proj": [tables.COLUMNS[1 + int(i)]
                 for i in rng.integers(0, 3, mix.projections)],
        "agg": [int(x) for x in rng.integers(
            0, tables.A_RANGE - AGG_WIDTH, mix.aggregates)],
        "range": [int(x) for x in rng.integers(0, top - span, mix.ranges)],
        # One key in eight is absent (k = 2 mod 4 is never generated).
        "point": [int(k) if i % 8 else int(k) // 4 * 4 + 2
                  for i, k in enumerate(rng.choice(
                      image.arrays["k"], mix.points))],
    }


def read_round(rec, reads, image: Image, inputs: dict, mix: ReadMix,
               dirty: str, clean: str | None) -> None:
    """One round of the read mix. ``reads`` is an InlineReads or a
    ServiceReads; every result is dropped before the next op, which the
    process executor's shared-memory ring needs (a live result pins its
    frames and the next scan stalls into the pickled fallback)."""
    service = isinstance(reads, ServiceReads)

    def run(kind, call, check):
        result = rec.op(kind, call, check)
        if result is not None and service:
            rec.add("first_block", reads.first_block_s)
        return result

    for _ in range(mix.scans):
        rel = run("scan", lambda: reads.full(dirty), image.full)
        if rel is not None:
            rec.bump("scan_rows", rel.num_rows)
        del rel
    for _ in range(mix.clean_scans):
        run("scan_clean", lambda: reads.full(clean), image.full)
    for column in inputs["proj"]:
        run("proj", lambda: reads.full(dirty, columns=[column]),
            lambda rel: image.full(rel, (column,)))
    for a_low in inputs["agg"]:
        rel = run("agg", lambda: reads.agg(dirty, a_low),
                  lambda rel: image.aggregate(rel, a_low))
        if rel is not None:
            rec.bump("agg_rows", rel.num_rows)
    span = RANGE_KEYS * tables.KEY_STRIDE
    for low in inputs["range"]:
        run("range", lambda: reads.key_range(dirty, low, low + span - 1),
            lambda rel: image.key_range(rel, low, low + span - 1))
    for key in inputs["point"]:
        run("point", lambda: reads.point(dirty, key),
            lambda rel: image.key_range(rel, key, key))
