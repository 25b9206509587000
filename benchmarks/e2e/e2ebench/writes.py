"""The durable write side: autocommits from two writers, bulk batches,
recovery and checkpoint, on an mmap-backed database with real fsync and
the default GroupCommitPolicy.

``oltp_durable`` is this module at full scale. ``scan_dirty`` and
``svc_process`` run it at a tenth of the scale on a *companion* database
of their own, so that the write-side metrics exist on every workload
without a commit, checkpoint or reopen ever touching the tables whose
reads those workloads measure.

A run is three identical thirds. Each third:

  phase A  two writer threads, disjoint key partitions (so the final
           state does not depend on their interleaving), single-row
           autocommits through ``QueryService.submit_update`` — the
           facade's inline surface is single-writer — with a
           read-your-write point lookup after every fifth commit;
  phase B  one client, ``Database.apply_batch`` of mixed ops;
  then     twice: close -> timed ``Database.recover`` -> full oracle
           check; then a timed ``Database.checkpoint``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import Database

from . import tables
from .harness import OP_DEADLINE_S
from .probes import COUNTERS
from .reads import Image, ServiceReads

WRITERS = 2
THIRDS = 3
REOPENS_PER_THIRD = 2  # the same WAL replayed twice: two reopen samples
TABLE = "w"
READ_BACK_EVERY = 5
# 50 % insert / 40 % modify / 10 % delete.
INS_SHARE, MOD_SHARE = 0.5, 0.4


@dataclass(frozen=True)
class WriteScale:
    rows: int
    commits: int    # autocommits per writer per third
    batches: int    # apply_batch calls per third
    batch_ops: int  # ops per batch


# The companion write side of the workloads that have no writes of their
# own: this module at a tenth of oltp_durable's scale.
COMPANION = WriteScale(rows=20_000, commits=170, batches=4, batch_ops=2_000)


class _KeySpace:
    """Which keys of one partition are live, so every generated op is
    valid: no duplicate insert, no modify or delete of a missing key."""

    def __init__(self, rng, lo: int, hi: int):
        self.rng = rng
        self.lo, self.hi = lo, hi
        self.dead: set = set()      # deleted base row numbers
        self.inserted: set = set()  # keys taken by inserts

    def _live_row(self, exclude=()) -> int:
        while True:
            i = int(self.rng.integers(self.lo, self.hi))
            if i not in self.dead and i not in exclude:
                return i

    def op(self, exclude=None):
        """One op; ``exclude`` (a set of base rows, updated here) keeps
        the rows of one batch distinct."""
        rng = self.rng
        i = self._live_row(exclude or ())
        if exclude is not None:
            exclude.add(i)
        draw = rng.random()
        if draw < INS_SHARE:
            free = [i * tables.KEY_STRIDE + j
                    for j in range(1, tables.KEY_STRIDE)
                    if i * tables.KEY_STRIDE + j not in self.inserted]
            if free:
                key = free[int(rng.integers(0, len(free)))]
                self.inserted.add(key)
                return ("ins", tables.new_row(rng, key))
            draw = INS_SHARE  # every neighbour taken: modify instead
        if draw < INS_SHARE + MOD_SHARE:
            column = tables.COLUMNS[1 + int(rng.integers(0, 4))]
            return ("mod", (i * tables.KEY_STRIDE,), column,
                    tables.random_value(rng, column))
        self.dead.add(i)
        return ("del", (i * tables.KEY_STRIDE,))


def generate(rng, scale: WriteScale) -> dict:
    """Base table plus every op of the three thirds, from the seed."""
    base = tables.base_arrays(rng, scale.rows)
    half = scale.rows // WRITERS
    spaces = [_KeySpace(rng, w * half, (w + 1) * half)
              for w in range(WRITERS)]
    thirds = []
    for _ in range(THIRDS):
        phase_a = [[space.op() for _ in range(scale.commits)]
                   for space in spaces]
        phase_b = []
        for _ in range(scale.batches):
            seen: set = set()
            phase_b.append([spaces[n % WRITERS].op(seen)
                            for n in range(scale.batch_ops)])
        thirds.append({"a": phase_a, "b": phase_b})
    return {"base": base, "thirds": thirds, "scale": scale}


class WriteSide:
    """One durable database plus the dict oracle of its acknowledged ops."""

    def __init__(self, inputs: dict, root: str):
        self.inputs = inputs
        self.root = root
        self.rows = tables.rows_of(inputs["base"])
        self.db = Database(storage="mmap", storage_path=root)
        self.db.create_table_from_arrays(TABLE, tables.SCHEMA,
                                         inputs["base"])
        self.svc = self.db.serve(workers=WRITERS)
        self.image = Image(inputs["base"])
        # Warm-up: pool filled, service pool threads started.
        self.svc.submit_query(TABLE).to_relation()

    def close(self) -> None:
        if self.db is not None:
            self.svc.close()
            self.db.close()
            self.db = self.svc = None

    # -- one third -------------------------------------------------------

    def third(self, rec, index: int, before_close=None,
              after_checkpoint=None) -> None:
        """Run third ``index``. ``before_close(side)`` and
        ``after_checkpoint(side)`` let a workload read the table while it
        is dirty and right after it became clean."""
        ops = self.inputs["thirds"][index]
        written_before = COUNTERS.written_bytes()
        self._phase_a(rec, ops["a"])
        self._phase_b(rec, ops["b"])
        self.image = Image(tables.arrays_of(self.rows))
        if before_close is not None:
            before_close(self)
        for _ in range(REOPENS_PER_THIRD):
            self.close()
            self.db = rec.op("reopen", lambda: Database.recover(self.root),
                             self._matches_oracle)
            if self.db is None:
                raise RuntimeError("recovery failed; cannot continue")
            self.svc = self.db.serve(workers=WRITERS)
        rec.op("checkpoint", lambda: self.db.checkpoint(TABLE) or self.db,
               self._matches_oracle)
        rec.bump("written_bytes", COUNTERS.written_bytes() - written_before)
        if after_checkpoint is not None:
            after_checkpoint(self)

    def _matches_oracle(self, db) -> bool:
        return self.image.full(db.query(TABLE))

    def _phase_a(self, rec, per_writer) -> None:
        threads = [
            threading.Thread(target=self._writer, args=(rec, ops),
                             name=f"bench-writer-{w}")
            for w, ops in enumerate(per_writer)
        ]
        # The writers run Python, so the host-speed kernel cannot run
        # beside them: it is timed right before and right after.
        rec.host.tick(force=True)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rec.add("commit_wall", time.perf_counter() - start)
        rec.host.tick(force=True)

    def _writer(self, rec, ops) -> None:
        try:
            self._write_all(rec, ops)
        except Exception as exc:  # a writer must not die silently
            rec.fail("commit", f"writer aborted: {exc!r}")

    def _write_all(self, rec, ops) -> None:
        reads = ServiceReads(self.svc)
        for n, op in enumerate(ops, 1):
            done = rec.op("commit", lambda: self.svc.submit_update(
                TABLE, op).result(timeout=OP_DEADLINE_S) or True)
            if done is None:
                continue
            tables.apply_to_rows(self.rows, op)
            rec.bump("commits", 1)
            rec.bump("user_bytes", tables.user_bytes(op))
            if n % READ_BACK_EVERY == 0:
                key = op[1][0]
                # An oracle check more than a measurement: beside a
                # second writer its latency is interpreter-lock hand-offs.
                rec.op("read_back", lambda: reads.point(TABLE, key),
                       lambda rel: self._reads_back(rel, key))

    def _reads_back(self, rel, key: int) -> bool:
        row = self.rows.get(key)
        if row is None:
            return rel.num_rows == 0
        return rel.num_rows == 1 and [
            rel["a"][0], rel["b"][0], rel["c"][0], rel["s"][0]] == row

    def _phase_b(self, rec, batches) -> None:
        for ops in batches:
            applied = rec.op("batch",
                             lambda: self.db.apply_batch(TABLE, ops),
                             lambda n: n == len(ops))
            if applied is None:
                continue
            for op in ops:
                tables.apply_to_rows(self.rows, op)
            rec.bump("batch_ops", len(ops))
            rec.bump("user_bytes", sum(map(tables.user_bytes, ops)))

    def live_user_bytes(self) -> int:
        return int(self.image.rows * 32 + sum(
            len(s) for s in self.image.arrays["s"]))
