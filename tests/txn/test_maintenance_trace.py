"""Golden maintenance trace: which action the scheduler runs, on which
range, at which commit.

A seeded history of about 300 single-op and batch commits runs over three
tables: an unsharded and a 3-shard table under ``"updates:60"``, and an
unsharded table under ``"hot-ranges:2"``. One firing commit is deferred
by an open transaction and another by a live snapshot pin; later reads
drain both. Every executed maintenance action is recorded as
``(commit_no, physical_table, sid_lo, sid_hi)`` for a fold or
``(commit_no, physical_table, "propagate")`` for a Write→Read Propagate,
and the whole list must equal the literal ``EXPECTED`` below.
"""

import random

from repro import Database, DataType, Schema
from repro.txn import checkpoint as checkpoint_mod
from repro.txn.manager import TransactionManager

SCHEMA = Schema.build(
    ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",)
)


class _History:
    """Drives the seeded commits and keeps the live key set per table."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.commit_no = 0
        self.db_u = Database(block_rows=256, checkpoint_policy="updates:60")
        self.db_h = Database(block_rows=256,
                             checkpoint_policy="hot-ranges:2")
        self.db_u.create_table("u", SCHEMA, [(i * 2, i) for i in range(2000)])
        self.db_u.create_sharded_table(
            "s", SCHEMA, [(i * 2, i) for i in range(3000)], shards=3)
        self.db_h.create_table("h", SCHEMA, [(i * 2, i) for i in range(4000)])
        self.dbs = {"u": self.db_u, "s": self.db_u, "h": self.db_h}
        self.keys = {
            "u": list(range(0, 4000, 2)),
            "s": list(range(0, 6000, 2)),
            "h": list(range(0, 8000, 2)),
        }
        self.live = {t: set(ks) for t, ks in self.keys.items()}
        self._seen: set = set()  # keys already touched by this commit

    def _pick_key(self, table: str) -> int:
        keys = self.keys[table]
        if table == "h" and self.rng.random() < 0.85:
            # Skew: most "h" updates land on stable blocks 3-5.
            lo, hi = 3 * 256, 6 * 256
            return keys[min(self.rng.randrange(lo, hi), len(keys) - 1)]
        return keys[self.rng.randrange(len(keys))]

    def _op(self, table: str):
        roll = self.rng.random()
        if roll < 0.25:
            key = self._pick_key(table) + 1
            if key in self.live[table] or key in self._seen:
                return None
            self._seen.add(key)
            self.live[table].add(key)
            self.keys[table].insert(
                self.keys[table].index(key - 1) + 1, key)
            return ("ins", (key, self.rng.randrange(1000)))
        key = self._pick_key(table)
        if key in self._seen:
            return None
        self._seen.add(key)
        if roll < 0.4 and len(self.keys[table]) > 100:
            self.live[table].discard(key)
            self.keys[table].remove(key)
            return ("del", (key,))
        return ("mod", (key,), "v", self.rng.randrange(1000))

    def commit(self, table: str) -> None:
        """One commit on ``table``: a single autocommit op or a batch."""
        self.commit_no += 1
        self._seen = set()
        db = self.dbs[table]
        if self.rng.random() < 0.5:
            op = None
            while op is None:
                op = self._op(table)
            if op[0] == "ins":
                db.insert(table, op[1])
            elif op[0] == "del":
                db.delete(table, op[1])
            else:
                db.modify(table, op[1], op[2], op[3])
            return
        ops = [self._op(table) for _ in range(self.rng.randrange(5, 40))]
        db.apply_batch(table, [op for op in ops if op is not None])


def run_history(history: _History) -> None:
    tables = ["u", "s", "h"]
    for _ in range(120):
        history.commit(history.rng.choice(tables))
    # An open transaction defers the next firing commit on "u".
    blocker = history.db_u.begin()
    while not history.db_u.scheduler.pending():
        history.commit("u")
    # A live pin defers the next firing commit on a shard of "s" (and
    # keeps "u"'s deferred decision waiting).
    pin = history.db_u.pin_snapshot()
    blocker.abort()
    while set(history.db_u.scheduler.pending()) == {"u"}:
        history.commit("s")
    pin.release()
    # Latest-state reads drain what was deferred.
    history.db_u.query("u", columns=["v"])
    history.db_u.query("s", columns=["v"])
    assert not history.db_u.scheduler.pending()
    for _ in range(300 - history.commit_no):
        history.commit(history.rng.choice(tables))


def record_trace(monkeypatch) -> tuple[list, _History]:
    """Run the history with every fold and Propagate recorded."""
    history = _History(seed=31)
    trace: list = []
    real_fold = checkpoint_mod._fold
    real_propagate = TransactionManager.propagate_write_to_read

    def fold(manager, table, sid_lo, sid_hi):
        trace.append((history.commit_no, table, sid_lo, sid_hi))
        return real_fold(manager, table, sid_lo, sid_hi)

    def propagate(self, table):
        trace.append((history.commit_no, table, "propagate"))
        return real_propagate(self, table)

    monkeypatch.setattr(checkpoint_mod, "_fold", fold)
    monkeypatch.setattr(TransactionManager, "propagate_write_to_read",
                        propagate)
    run_history(history)
    return trace, history


EXPECTED = [
    (9, 's__s0', 'propagate'),
    (9, 's__s1', 'propagate'),
    (14, 'u', 'propagate'),
    (23, 's__s1', 'propagate'),
    (23, 's__s2', 'propagate'),
    (26, 's__s0', 'propagate'),
    (28, 's__s1', 'propagate'),
    (31, 's__s0', 'propagate'),
    (31, 's__s1', 0, 1000),
    (31, 's__s2', 'propagate'),
    (36, 's__s0', 0, 1000),
    (36, 's__s2', 0, 1000),
    (37, 's__s1', 'propagate'),
    (41, 's__s0', 'propagate'),
    (41, 's__s2', 'propagate'),
    (45, 's__s1', 'propagate'),
    (52, 's__s0', 'propagate'),
    (55, 's__s2', 'propagate'),
    (58, 'u', 0, 2000),
    (62, 's__s1', 'propagate'),
    (68, 's__s0', 0, 994),
    (68, 's__s1', 0, 1002),
    (73, 's__s2', 'propagate'),
    (75, 's__s0', 'propagate'),
    (75, 's__s1', 'propagate'),
    (75, 's__s2', 0, 1008),
    (83, 'u', 'propagate'),
    (95, 's__s0', 'propagate'),
    (95, 's__s1', 'propagate'),
    (95, 's__s2', 'propagate'),
    (98, 'u', 'propagate'),
    (102, 'u', 0, 2001),
    (108, 's__s0', 'propagate'),
    (108, 's__s1', 0, 1011),
    (108, 's__s2', 'propagate'),
    (111, 's__s0', 0, 1000),
    (114, 's__s1', 'propagate'),
    (116, 's__s0', 'propagate'),
    (116, 's__s2', 0, 1012),
    (117, 's__s1', 'propagate'),
    (127, 'u', 'propagate'),
    (127, 's__s0', 'propagate'),
    (127, 's__s2', 'propagate'),
    (128, 's__s1', 0, 1020),
    (129, 'u', 0, 2010),
    (133, 's__s2', 'propagate'),
    (136, 's__s0', 0, 1003),
    (138, 'u', 'propagate'),
    (140, 'u', 0, 2007),
    (145, 'u', 'propagate'),
    (146, 'h', 768, 1280),
    (150, 's__s1', 'propagate'),
    (150, 's__s2', 'propagate'),
    (155, 's__s0', 'propagate'),
    (155, 's__s2', 0, 1013),
    (158, 's__s0', 'propagate'),
    (158, 's__s1', 'propagate'),
    (165, 'h', 1280, 1536),
    (172, 'u', 0, 2010),
    (174, 's__s2', 'propagate'),
    (175, 'u', 'propagate'),
    (180, 'u', 'propagate'),
    (182, 'u', 0, 2020),
    (183, 's__s0', 'propagate'),
    (187, 'u', 'propagate'),
    (190, 's__s1', 'propagate'),
    (190, 's__s2', 'propagate'),
    (199, 'u', 'propagate'),
    (202, 'u', 0, 2032),
    (205, 's__s0', 0, 1015),
    (205, 's__s1', 0, 1025),
    (207, 's__s2', 0, 1018),
    (216, 'u', 'propagate'),
    (217, 's__s0', 'propagate'),
    (217, 's__s1', 'propagate'),
    (228, 'u', 0, 2043),
    (234, 'u', 'propagate'),
    (237, 's__s0', 'propagate'),
    (237, 's__s1', 'propagate'),
    (237, 's__s2', 'propagate'),
    (247, 'u', 'propagate'),
    (249, 'u', 0, 2045),
    (259, 'h', 768, 1024),
    (261, 'u', 'propagate'),
    (263, 'u', 0, 2053),
    (264, 's__s2', 'propagate'),
    (269, 's__s0', 0, 1024),
    (269, 's__s1', 'propagate'),
    (270, 'h', 1280, 1536),
    (271, 'u', 'propagate'),
    (277, 'u', 'propagate'),
    (280, 's__s2', 'propagate'),
    (281, 'h', 1024, 1280),
    (284, 's__s1', 0, 1030),
    (290, 's__s2', 0, 1020),
    (298, 's__s0', 'propagate'),
    (298, 's__s1', 'propagate'),
]


def test_maintenance_trace_is_golden(monkeypatch):
    trace, history = record_trace(monkeypatch)
    assert history.commit_no == 300
    assert trace == EXPECTED
    for table in ("u", "s", "h"):
        db = history.dbs[table]
        rel = db.query(table, columns=["k"])
        assert rel["k"].tolist() == sorted(history.live[table])
