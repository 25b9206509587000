"""Outside-in probes: spans and counts at each layer's public entry
points, recorded from the benchmark's side by patching those entry
points for the length of a traced run. Nothing under ``src/`` knows.

A probe is one of three kinds:

``call``  one span per call;
``leaf``  counted and timed like a call but no span is kept (hot,
          fine-grained entry points such as ``BufferPool.get_block``);
``gen``   a generator (or a function returning one): every ``next()`` is
          timed, because the work happens while the consumer pulls, and
          one span covering the generator's life is kept.

Each thread keeps a stack of open frames. A frame's *self time* is its
duration minus the durations of the frames opened directly under it on
the same thread. Work handed to another thread (service pool jobs,
shard fan-out sources, queued writes) carries the submitting op's
context with it, so its spans name the op that caused them and count
towards that op's coverage.

Module-level functions are patched in their defining module *and* in
every ``repro`` module that imported them by name; a target that cannot
be found is listed in ``unresolved`` and fails the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter


# -- always-on byte counters ------------------------------------------------

class ByteCounters:
    """Bytes handed to storage backends and to the WAL. The only shims
    active while end-to-end numbers are taken: write_amp_x needs them,
    and they cost one ``len()`` per stored block or encoded log line."""

    def __init__(self):
        self.put_bytes = 0
        self.put_blocks = 0
        self.wal_bytes = 0
        self._installed = False

    def written_bytes(self) -> int:
        return self.put_bytes + self.wal_bytes

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        from repro.storage.backend import MemoryBackend
        from repro.storage.mmap_backend import MmapFileBackend
        from repro.txn.wal import WriteAheadLog

        def counting_put(original):
            def put_block(backend, table, column, block, blob, rows):
                self.put_bytes += len(blob)
                self.put_blocks += 1
                return original(backend, table, column, block, blob, rows)
            return put_block

        for cls in (MemoryBackend, MmapFileBackend):
            cls.put_block = counting_put(cls.put_block)
        encode = WriteAheadLog._encode_json

        def counting_encode(raw):
            line = encode(raw)
            self.wal_bytes += len(line)
            return line

        WriteAheadLog._encode_json = staticmethod(counting_encode)


COUNTERS = ByteCounters()


# -- frames and the tracer ---------------------------------------------------

class _Frame:
    __slots__ = ("name", "start", "child_s", "ctx", "span_id", "parent_id",
                 "record", "intervals")

    def __init__(self, name, ctx, span_id, parent_id, record):
        self.name = name
        self.child_s = 0.0
        self.ctx = ctx
        self.span_id = span_id
        self.parent_id = parent_id
        self.record = record
        self.intervals = None  # op roots only: child (start, end) pairs
        self.start = _clock()


class _Ctx:
    """What follows an op across threads: its id, type and root frame."""

    __slots__ = ("op_id", "kind", "root", "flags")

    def __init__(self, op_id, kind, root):
        self.op_id = op_id
        self.kind = kind
        self.root = root
        self.flags = set()


BACKGROUND = _Ctx(0, "-", None)


class _CtxCallable:
    """A callable that runs under the context of the op that made it."""

    def __init__(self, tracer, fn, ctx):
        self._tracer, self._fn, self.bench_ctx = tracer, fn, ctx

    def __call__(self, *args, **kwargs):
        with self._tracer.adopted(self.bench_ctx):
            return self._fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []      # per-thread state objects
        self._patched = []      # (owner, attr, original)
        self.unresolved = []    # "module:qualname" of targets not found
        self.op_stats = {}      # op kind -> [count, wall_s, covered_s]
        self.stall_max_s = 0.0
        self._next_op = 0

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(len(self._threads))
            with self._lock:
                self._threads.append(st)
        return st

    def ctx(self):
        """The context work started now would belong to."""
        st = self._state()
        if st.stack:
            return st.stack[-1].ctx
        return st.ctx or BACKGROUND

    class _Adopted:
        def __init__(self, st, ctx):
            self.st, self.ctx = st, ctx

        def __enter__(self):
            self.previous = self.st.ctx
            self.st.ctx = self.ctx

        def __exit__(self, *exc):
            self.st.ctx = self.previous

    def adopted(self, ctx):
        return self._Adopted(self._state(), ctx)

    def bump(self, name: str, amount=1) -> None:
        st = self._state()
        st.counts[name] = st.counts.get(name, 0) + amount

    # -- frames ---------------------------------------------------------------

    def push(self, name: str, record: bool, fallback_ctx=None) -> _Frame:
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
            ctx, parent_id = parent.ctx, parent.span_id
        else:
            ctx = st.ctx or fallback_ctx or BACKGROUND
            parent_id = ctx.root.span_id if ctx.root is not None else None
        st.next_span += 1
        frame = _Frame(name, ctx, (st.index, st.next_span), parent_id,
                       record)
        st.stack.append(frame)
        return frame

    def pop(self, frame: _Frame):
        end = _clock()
        st = self._state()
        st.stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        if st.stack:
            parent = st.stack[-1]
            parent.child_s += duration
            if parent.intervals is not None:
                parent.intervals.append((frame.start, end))
        elif frame.ctx.root is not None:
            # Top of a thread's stack under an adopted context: the
            # interval counts towards the coverage of the op that caused
            # it (list.append is atomic).
            frame.ctx.root.intervals.append((frame.start, end))
        key = (frame.ctx.kind, frame.name)
        agg = st.agg.get(key)
        if agg is None:
            agg = st.agg[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += self_s
        agg[2] += duration
        if frame.record:
            st.spans.append((frame.name, frame.start, end, frame.span_id,
                             frame.parent_id, frame.ctx.op_id, self_s))
        return duration, self_s

    # -- ops ------------------------------------------------------------------

    def begin_op(self, kind: str) -> _Frame:
        st = self._state()
        with self._lock:
            self._next_op += 1
            op_id = self._next_op
        st.next_span += 1
        root = _Frame("op:" + kind, None, (st.index, st.next_span), None,
                      True)
        root.ctx = _Ctx(op_id, kind, root)
        root.intervals = []
        st.stack.append(root)
        root.start = _clock()
        return root

    def end_op(self, root: _Frame) -> None:
        end = _clock()
        st = self._state()
        # Frames an exception left open belong to the failed op.
        while st.stack and st.stack[-1] is not root:
            st.stack.pop()
        if st.stack:
            st.stack.pop()
        wall = end - root.start
        covered = _union_length(root.intervals, root.start, end)
        st.spans.append((root.name, root.start, end, root.span_id, None,
                         root.ctx.op_id, wall - covered))
        with self._lock:
            stats = self.op_stats.setdefault(root.ctx.kind, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += wall
            stats[2] += covered
            if "checkpoint" in root.ctx.flags:
                self.stall_max_s = max(self.stall_max_s, wall)

    def reset(self) -> None:
        """Forget what set-up recorded; the measured phase starts clean."""
        with self._lock:
            for st in self._threads:
                st.agg.clear()
                st.spans.clear()
                st.counts.clear()
            self.op_stats.clear()
            self.stall_max_s = 0.0

    # -- results --------------------------------------------------------------

    def aggregates(self) -> dict:
        """``{(op kind, probe): [calls, self_s, inclusive_s]}`` over all
        threads."""
        out: dict = {}
        for st in list(self._threads):
            for key, (calls, self_s, incl) in list(st.agg.items()):
                agg = out.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += self_s
                agg[2] += incl
        return out

    def by_probe(self) -> dict:
        """``{probe: [calls, self_s, inclusive_s]}`` summed over op types."""
        out: dict = {}
        for (_kind, name), (calls, self_s, incl) in \
                self.aggregates().items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += incl
        return out

    def counters(self) -> dict:
        out: dict = {}
        for st in list(self._threads):
            for name, value in list(st.counts.items()):
                out[name] = out.get(name, 0) + value
        return out

    def write(self, path, extra: dict) -> None:
        """The trace file: every kept span plus the per-op-type self
        times. Times are seconds on the process's perf_counter clock."""
        spans = []
        for st in list(self._threads):
            for name, start, end, span_id, parent, op_id, self_s in st.spans:
                spans.append({
                    "name": name, "start": start, "end": end,
                    "id": "%d.%d" % span_id,
                    "parent": None if parent is None else "%d.%d" % parent,
                    "op": op_id, "self_s": self_s,
                })
        spans.sort(key=lambda s: s["start"])
        self_times: dict = {}
        for (kind, name), (calls, self_s, incl) in self.aggregates().items():
            self_times.setdefault(kind, {})[name] = {
                "calls": calls, "self_s": self_s, "inclusive_s": incl}
        doc = dict(extra)
        doc["ops"] = {
            kind: {"count": c, "wall_s": w, "covered_s": cov}
            for kind, (c, w, cov) in self.op_stats.items()
        }
        doc["self_time_by_op_type"] = self_times
        doc["counters"] = self.counters()
        doc["unresolved_targets"] = list(self.unresolved)
        doc["spans"] = spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        # Import every repro module first: one imported later would bind
        # the wrappers by name and keep them after ``uninstall``.
        import pkgutil

        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for target in TARGETS:
            try:
                self._install_target(target)
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(f"{target.module}:{target.qualname}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _install_target(self, target) -> None:
        module = importlib.import_module(target.module)
        parts = target.qualname.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapped = self._wrap(target, original)
            # The defining module and every module that did
            # ``from x import name``: each holds its own binding.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) \
                        and getattr(mod, parts[0], None) is original:
                    self._patch(mod, parts[0], wrapped)
            return
        cls = getattr(module, parts[0])
        raw = cls.__dict__[parts[1]]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(target, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        self._patch(cls, parts[1], wrapped)

    def _wrap(self, target, fn):
        tracer = self
        name = target.probe
        record = target.kind == "call"
        before, after, item = target.before, target.after, target.item
        adopt = target.adopt

        if target.kind == "gen":
            def gen_wrapper(*args, **kwargs):
                ctx = tracer.ctx()
                if before is not None:
                    args, kwargs = before(tracer, args, kwargs)
                frame = tracer.push(name, False, ctx)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    first = tracer.pop(frame)
                return _timed_gen(tracer, name, inner, ctx, item, after,
                                  args, kwargs, frame.start, first)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            ctx = adopt(args) if adopt is not None else None
            if ctx is not None:
                with tracer.adopted(ctx):
                    return call(args, kwargs)
            return call(args, kwargs)

        def call(args, kwargs):
            frame = tracer.push(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if after is not None:
                replaced = after(tracer, args, kwargs, result, frame)
                if replaced is not None:
                    return replaced
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list = []
        self.ctx = None
        self.next_span = 0
        self.agg: dict = {}
        self.spans: list = []
        self.counts: dict = {}


def _timed_gen(tracer, name, inner, ctx, item, after, args, kwargs,
               started, first):
    """Pull ``inner`` one item at a time, timing each pull."""
    busy, self_s = first
    last_end = started + busy
    st_span = None
    try:
        iterator = iter(inner)
        while True:
            frame = tracer.push(name, False, ctx)
            if st_span is None:
                st_span = (frame.span_id, frame.parent_id, frame.ctx.op_id)
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                d, s = tracer.pop(frame)
                busy += d
                self_s += s
                last_end = frame.start + d
            if item is not None:
                item(tracer, value)
            yield value
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()
        if after is not None:
            after(tracer, args, kwargs, None, None)
        if st_span is not None:
            span_id, parent_id, op_id = st_span
            tracer._state().spans.append(
                (name, started, last_end, span_id, parent_id, op_id, self_s))


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# -- hooks: counts taken at the same boundaries -------------------------------

def _rows_of(arrays) -> int:
    return len(next(iter(arrays.values()))) if arrays else 0


def _merge_before(tracer, args, kwargs):
    """Tap the merger's input stream so each output array can be compared
    with the input block it came from (zero-copy share)."""
    merger, batches = args[0], args[1]
    st = tracer._state()

    def tap():
        for first_sid, arrays in batches:
            st.last_input = arrays
            yield first_sid, arrays

    return (merger, tap()) + tuple(args[2:]), kwargs


def _merge_item(tracer, value) -> None:
    _rid, arrays = value
    tracer.bump("core.merge_rows", _rows_of(arrays))
    source = getattr(tracer._state(), "last_input", None) or {}
    shared = 0
    for column, out in arrays.items():
        src = source.get(column)
        if src is not None and np.may_share_memory(out, src):
            shared += 1
    tracer.bump("core.merge_arrays", len(arrays))
    tracer.bump("core.merge_arrays_shared", shared)


def _pushdown_before(tracer, args, kwargs):
    if kwargs.get("counter") is None:
        kwargs = dict(kwargs, counter={"rows_in": 0, "rows_out": 0})
        kwargs["counter"]["bench_owned"] = True
    return args, kwargs


def _pushdown_after(tracer, args, kwargs, result, frame) -> None:
    counter = kwargs.get("counter") or {}
    if counter.get("bench_owned"):
        tracer.bump("engine.rows_scanned", counter["rows_in"])


def _record_read_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("storage.bytes_read", args[3])


def _checkpoint_before(tracer, args, kwargs):
    tracer._state().ckpt_bytes = COUNTERS.put_bytes
    tracer.ctx().flags.add("checkpoint")
    return args, kwargs


def _checkpoint_after(tracer, args, kwargs, result, frame) -> None:
    manager, table = args[0], args[1]
    tracer.bump("txn.checkpoint_bytes",
                COUNTERS.put_bytes - tracer._state().ckpt_bytes)
    tracer.bump("txn.checkpoint_rows",
                manager.state_of(table).stable.num_rows)


def _recover_manager_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("txn.recovery_records", len(args[1].records))


def _shards_for_range_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("shard.considered", args[0].num_shards)
    tracer.bump("shard.visited", len(result))


def _shard_of_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("shard.considered", args[0].num_shards)
    tracer.bump("shard.visited", 1)


def _rebalance_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("shard.rebalance_actions", result or 0)


def _decode_after(tracer, args, kwargs, result, frame) -> None:
    tracer.bump("exec.frames", 1)
    if not args[1]["cols"]:
        tracer.bump("exec.frames_inline", 1)


def _schedule_after(tracer, args, kwargs, result, frame) -> None:
    _feed, job, shared, _catch_up = result
    if not shared:
        job.bench_ctx = tracer.ctx()
        job.bench_scheduled = _clock()


def _job_ctx(args):
    return getattr(args[1], "bench_ctx", None)


def _run_job_before(tracer, args, kwargs):
    scheduled = getattr(args[1], "bench_scheduled", None)
    if scheduled is not None:
        tracer.bump("service.job_queue_wait_s", _clock() - scheduled)
    return args, kwargs


def _submit_write_before(tracer, args, kwargs):
    service, work = args[0], args[1]
    carried = _CtxCallable(tracer, work, tracer.ctx())
    return (service, carried) + tuple(args[2:]), kwargs


def _write_ctx(args):
    return getattr(args[1], "bench_ctx", None)


def _scan_source_after(tracer, args, kwargs, result, frame) -> None:
    source = args[0]
    source.local = _CtxCallable(tracer, source.local, tracer.ctx())


def _source_ctx(args):
    return getattr(args[1].local, "bench_ctx", None)


def _job_scan_after(tracer, args, kwargs, result, frame) -> None:
    job = args[0]
    if job.pushdown:
        tracer.bump("engine.rows_scanned", job.pushdown_counter["rows_in"])


# -- the probe table -----------------------------------------------------------

@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    probe: str
    kind: str = "call"
    before: object = None   # (tracer, args, kwargs) -> (args, kwargs)
    after: object = None    # (tracer, args, kwargs, result, frame)
    item: object = None     # gen only: (tracer, yielded value)
    adopt: object = None    # (args) -> context carried from another thread


def _facade(*names):
    return [Target("repro.db.database", f"Database.{n}", "db.facade")
            for n in names]


TARGETS = [
    # db
    *_facade("query", "query_range", "query_point", "apply_batch",
             "insert", "delete", "modify", "checkpoint", "close",
             "__init__"),
    Target("repro.db.update_processor", "find_rid_by_key",
           "db.point_resolve", "leaf"),
    Target("repro.db.update_processor", "find_insert_position",
           "db.point_resolve", "leaf"),
    Target("repro.db.update_processor", "BatchUpdater.prepare",
           "db.batch_prepare"),
    Target("repro.db.update_processor", "BatchUpdater.commit_staged",
           "db.batch_commit_staged"),
    # core
    Target("repro.core.merge", "BlockMerger.merge_batches", "core.merge",
           "gen", before=_merge_before, item=_merge_item),
    Target("repro.core.merge", "reblock", "core.merge", "gen"),
    Target("repro.core.propagate", "propagate_batch", "core.propagate",
           "leaf"),
    Target("repro.core.serialize", "serialize", "core.serialize", "leaf"),
    # engine
    Target("repro.engine.relation", "Relation.from_batches",
           "engine.relation_build"),
    Target("repro.engine.expr", "pushdown_stream", "engine.expr_eval",
           "gen", before=_pushdown_before, after=_pushdown_after),
    Target("repro.engine.expr", "PartialAggregator.merge",
           "engine.expr_eval", "leaf"),
    Target("repro.engine.expr", "PartialAggregator.finalize",
           "engine.expr_eval", "leaf"),
    # storage
    Target("repro.storage.table", "StableTable.scan", "storage.table_scan",
           "gen"),
    Target("repro.storage.buffer", "BufferPool.get_block",
           "storage.pool_get", "leaf"),
    Target("repro.storage.blocks", "BlockStore.read_block",
           "storage.block_read", "leaf"),
    Target("repro.storage.io_stats", "IOStats.record_read",
           "storage.io_account", "leaf", after=_record_read_after),
    Target("repro.storage.sparse_index",
           "SparseIndex.sid_range_for_key_range", "storage.sparse_lookup",
           "leaf"),
    Target("repro.storage.table", "StableTable.bulk_load",
           "storage.image_build"),
    Target("repro.storage.table", "StableTable.attach_storage",
           "storage.image_store"),
    Target("repro.storage.table", "StableTable.from_storage",
           "storage.image_open"),
    Target("repro.storage.mmap_backend", "MmapFileBackend.put_block",
           "storage.put", "leaf"),
    Target("repro.storage.backend", "MemoryBackend.put_block",
           "storage.put", "leaf"),
    Target("repro.storage.mmap_backend", "MmapFileBackend.sync",
           "storage.sync"),
    # txn
    Target("repro.txn.manager", "TransactionManager.begin", "txn.commit",
           "leaf"),
    Target("repro.txn.manager", "TransactionManager.commit", "txn.commit"),
    Target("repro.txn.wal", "WriteAheadLog.append_commit",
           "txn.wal_append"),
    Target("repro.txn.wal", "WriteAheadLog.append_snapshot",
           "txn.wal_append"),
    Target("repro.txn.wal", "WriteAheadLog.wait_durable",
           "txn.durability_wait"),
    Target("repro.txn.wal", "WriteAheadLog._rewrite_file",
           "txn.wal_rewrite"),
    Target("repro.txn.group_commit", "GroupCommitCoordinator._fsync_paths",
           "txn.fsync"),
    Target("repro.txn.manager", "TransactionManager.pin_snapshot",
           "txn.pin", "leaf"),
    Target("repro.txn.manager", "TransactionManager.release_pin",
           "txn.pin", "leaf"),
    Target("repro.txn.checkpoint", "checkpoint_table", "txn.checkpoint",
           before=_checkpoint_before, after=_checkpoint_after),
    Target("repro.txn.checkpoint", "checkpoint_table_range",
           "txn.checkpoint", before=_checkpoint_before,
           after=_checkpoint_after),
    Target("repro.txn.scheduler", "CheckpointScheduler.run_pending",
           "txn.scheduler"),
    Target("repro.txn.scheduler", "CheckpointScheduler.on_commit",
           "txn.scheduler"),
    Target("repro.txn.manager",
           "TransactionManager.propagate_write_to_read",
           "txn.propagate_fold"),
    Target("repro.txn.recovery", "recover_persistent", "txn.recovery"),
    Target("repro.txn.recovery", "recover_manager", "txn.recovery_replay",
           after=_recover_manager_after),
    # shard
    Target("repro.shard.sharded", "ShardedTable.split_ops", "shard.route",
           "leaf"),
    Target("repro.shard.sharded", "ShardedTable.physical_for",
           "shard.route", "leaf"),
    Target("repro.shard.router", "ShardRouter.shards_for_range",
           "shard.route", "leaf", after=_shards_for_range_after),
    Target("repro.shard.router", "ShardRouter.shard_of", "shard.route",
           "leaf", after=_shard_of_after),
    Target("repro.shard.sharded", "ShardedTable.scan_blocks",
           "shard.scan_blocks", "gen"),
    Target("repro.engine.scan", "fanout_scan_blocks", "shard.fanout_wait",
           "gen"),
    Target("repro.service.jobs", "ShardFeed.blocks", "shard.fanout_wait",
           "gen"),
    Target("repro.shard.rebalance", "maybe_rebalance", "shard.rebalance",
           after=_rebalance_after),
    # service
    Target("repro.service.jobs", "AdmissionController.acquire",
           "service.admission_wait", "leaf"),
    Target("repro.service.plan", "plan_scan", "service.plan"),
    Target("repro.service.plan", "filter_blocks", "service.cursor_merge",
           "gen"),
    Target("repro.service.service", "QueryService.submit_many",
           "service.submit"),
    Target("repro.service.jobs", "JobScheduler.schedule",
           "service.submit", "leaf", after=_schedule_after),
    Target("repro.service.service", "QueryService._run_job",
           "service.job_run", before=_run_job_before, adopt=_job_ctx),
    Target("repro.service.jobs", "ShardScanJob.run", "service.job_run",
           "leaf", after=_job_scan_after),
    Target("repro.service.cursor", "StreamingCursor.next_block",
           "service.cursor_merge", "leaf"),
    Target("repro.service.service", "QueryService._submit_write",
           "service.submit", before=_submit_write_before),
    Target("repro.service.service", "QueryService._write_locked",
           "service.write", adopt=_write_ctx),
    Target("repro.service.service", "QueryService._drain_maintenance",
           "service.drain"),
    # exec
    Target("repro.exec.router", "ScanSource.__init__", "exec.source",
           "leaf", after=_scan_source_after),
    Target("repro.exec.router", "ExecutorRouter.run_source",
           "exec.run_source", adopt=_source_ctx),
    Target("repro.exec.router", "ExecutorRouter.payload_for",
           "exec.payload", "leaf"),
    Target("repro.exec.router", "ExecutorRouter.stream_blocks",
           "exec.stream_blocks", "gen"),
    Target("repro.exec.transport", "ShmRingReader.decode", "exec.decode",
           "leaf", after=_decode_after),
]
