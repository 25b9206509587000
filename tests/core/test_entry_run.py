"""A PDT's entry run: ``PDT.entries()`` out, one bulk build back in.

Every export of a PDT's contents (WAL records, worker payloads, fold
survivors, rebalanced shards) is its ``(sid, kind, payload)`` run, and
every import — ``copy()``'s too — is ``bulk_append_entries`` onto an
empty PDT. These properties pin that round trip on random 1-3 layer
histories (``tests/oracles/histories.py``: ghosts at granule closers,
delete-reinserts, modifies of either non-key column of stable and
inserted rows, so two-entry modify chains) and on string rows, plus the
one aliasing hazard the run format must close: Algorithm 4 rewrites an
inserted row in place, so no holder of an exported run, and no copy,
may share that row.
"""

import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PDT
from repro.core.propagate import propagated
from repro.core.stack import image_rows
from repro.core.types import KIND_INS
from repro.exec.pinvec import rebuild_layers, serialize_layers
from repro.storage import SparseIndex
from repro.txn.wal import WriteAheadLog

from ..oracles.histories import make_schema, make_stable, random_history
from .helpers import TableDriver, apply_random_ops, int_schema

N_ROWS = 24  # stable key numbers 0, 2, ..., 46
GRANULE = 4  # granule closers: the deletes' and inserts' favourite rows

HISTORIES = dict(
    seed=st.integers(0, 100_000),
    n_key_cols=st.integers(1, 2),
    n_layers=st.integers(1, 3),
    ops_per_layer=st.integers(0, 25),
)


def build(seed, n_key_cols, n_layers, ops_per_layer):
    rng = random.Random(seed)
    stable = make_stable(make_schema(n_key_cols), range(0, 2 * N_ROWS, 2))
    index = SparseIndex(stable, granularity=GRANULE)
    layers, _ = random_history(rng, stable, index, n_layers, ops_per_layer)
    return stable, layers


def stream(pdt):
    """The (SID, RID, kind, payload) stream through ``iter_entries``."""
    return [(e.sid, e.rid, e.kind, pdt.values.value_of(e.kind, e.ref))
            for e in pdt.iter_entries()]


def rebuilt(pdt):
    out = PDT(pdt.schema, fanout=pdt.fanout)
    out.bulk_append_entries(pdt.entries())
    return out


def inserted_rids(pdt):
    return [e.rid for e in pdt.iter_entries() if e.kind == KIND_INS]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(**HISTORIES)
    def test_rebuild_keeps_stream_and_invariants(self, seed, n_key_cols,
                                                 n_layers, ops_per_layer):
        _, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
        for pdt in layers:
            back = rebuilt(pdt)
            back.check_invariants()
            assert stream(back) == stream(pdt)
            assert back.entries() == pdt.entries()
            assert back.total_delta() == pdt.total_delta()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), n_ops=st.integers(0, 120))
    def test_two_column_modify_chains(self, seed, n_ops):
        """Integer rows as in the histories, string rows here: modifies
        of ``a`` and ``b`` chain on stable tuples, and string rows
        rewrite in place."""
        pdt = PDT(int_schema(), fanout=4)
        driver = TableDriver(int_schema(),
                             [(k * 10, k, f"s{k}") for k in range(30)], [pdt])
        apply_random_ops(driver, random.Random(seed), n_ops, key_range=400)
        back = rebuilt(pdt)
        back.check_invariants()
        assert stream(back) == stream(pdt)
        assert rebuilt(back).entries() == pdt.entries()

    @settings(max_examples=60, deadline=None)
    @given(**HISTORIES)
    def test_rebuilt_stack_has_the_same_image(self, seed, n_key_cols,
                                              n_layers, ops_per_layer):
        stable, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
        assert image_rows(stable, [rebuilt(p) for p in layers]) == \
            image_rows(stable, layers)
        fresh = [propagated(p, PDT(p.schema)) for p in layers]
        assert image_rows(stable, fresh) == image_rows(stable, layers)

    @settings(max_examples=60, deadline=None)
    @given(**HISTORIES)
    def test_pickled_worker_layers(self, seed, n_key_cols, n_layers,
                                   ops_per_layer):
        stable, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
        wire = pickle.dumps(serialize_layers(layers))
        back = rebuild_layers(stable.schema, pickle.loads(wire))
        live = [p for p in layers if not p.is_empty()]
        assert [stream(p) for p in back] == [stream(p) for p in live]
        assert image_rows(stable, back) == image_rows(stable, layers)

    @settings(max_examples=60, deadline=None)
    @given(**HISTORIES, cut=st.tuples(st.integers(0, 60),
                                      st.integers(0, 60)))
    def test_windows_are_slices_of_the_run(self, seed, n_key_cols,
                                           n_layers, ops_per_layer, cut):
        _, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
        lo, hi = sorted(cut)
        for pdt in layers:
            run = pdt.entries()
            assert pdt.entries(lo) == [t for t in run if t[0] >= lo]
            assert pdt.entries(lo, hi) == \
                [t for t in run if lo <= t[0] < hi]


class TestNoAliasing:
    """An in-place rewrite of an inserted row (Algorithm 4) reaches neither
    a WAL record taken before it nor the PDT on the other side of a
    rebuild from the entry run."""

    @settings(max_examples=40, deadline=None)
    @given(**HISTORIES)
    def test_modify_after_snapshot_and_copy(self, seed, n_key_cols,
                                            n_layers, ops_per_layer):
        _, layers = build(seed, n_key_cols, n_layers, ops_per_layer)
        pdt = layers[-1]
        rids = inserted_rids(pdt)
        if not rids:
            return
        col = len(pdt.schema) - 1  # the last non-key column
        wal = WriteAheadLog()  # in memory: the record holds the run itself
        wal.append_snapshot("t", pdt, lsn=1, for_image_lsn=0)
        logged = copy.deepcopy(wal.records[-1].tables["t"])
        before = pdt.entries()

        clone = rebuilt(pdt)
        clone.add_modify(rids[0], col, -1)
        cloned = clone.entries()
        assert cloned != before
        assert pdt.entries() == before

        pdt.add_modify(rids[-1], col, -2)
        assert clone.entries() == cloned
        assert wal.records[-1].tables["t"] == logged == before
        pdt.check_invariants()
        clone.check_invariants()
