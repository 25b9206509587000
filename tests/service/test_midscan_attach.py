"""Mid-scan consumer attachment: deferred feeds + catch-up sub-scans.

The scheduler-level tests drive a :class:`ShardScanJob` through a gated
runner (each block is released by the test), making "the job has emitted
exactly N blocks" a deterministic state to attach in. The service-level
test opens the window with a slowed block pipeline and asserts the
``jobs_attached`` stat moved while both cursors stayed exact.
"""

import threading
import time

import pytest

from repro import Database, DataType, Schema
from repro.service.jobs import DeferredFeed, JobScheduler, ShardFeed
from repro.service.plan import ShardScanSpec, plan_scan


def make_schema():
    return Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64), sort_key=("k",),
    )


@pytest.fixture
def db():
    database = Database(compressed=False)
    database.create_table("t", make_schema(),
                          [(i, i * 11) for i in range(100)])
    yield database
    database.close()


@pytest.fixture
def pinned(db):
    pin = db.pin_snapshot()
    yield pin
    pin.release()


def spec_for(pinned, sid_lo=0, sid_hi=100):
    base = plan_scan(pinned, "t").parts[0]
    return ShardScanSpec(base.pinned, base.scan_cols, sid_lo, sid_hi)


def drain(feed):
    return list(feed.blocks())


def block_bytes(blocks):
    return [(rid, {c: a.tobytes() for c, a in arrays.items()})
            for rid, arrays in blocks]


class GatedRunner:
    """Runner whose *first* invocation yields one block per released
    permit; catch-up invocations (and any later job) run ungated."""

    def __init__(self):
        self._sem = threading.Semaphore(0)
        self.calls = []

    def release(self, n=1):
        self._sem.release(n)

    def __call__(self, spec, sid_lo, sid_hi, block_rows, counter=None):
        first = not self.calls
        self.calls.append((sid_lo, sid_hi))

        def gen():
            for block in spec.stream(sid_lo, sid_hi, block_rows):
                if first:
                    self._sem.acquire()
                yield block

        return gen()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


class TestSchedulerAttach:
    def test_attach_mid_scan_gets_exact_full_stream(self, pinned):
        scheduler = JobScheduler()
        runner = GatedRunner()
        spec = spec_for(pinned)
        feed1, job, shared, catch_up = scheduler.schedule(spec, 10, runner)
        assert not shared and catch_up is None
        worker = threading.Thread(target=scheduler.run_job, args=(job,))
        worker.start()
        runner.release(3)
        wait_for(lambda: job._emitted == 3)

        feed2, job2, shared2, catch_up2 = scheduler.schedule(spec, 10)
        assert shared2 and job2 is job
        assert isinstance(feed2, DeferredFeed) and catch_up2 is not None
        # The catch-up replays the missed prefix through the same runner.
        catch_up2()
        assert runner.calls == [(0, 100), (0, 100)]

        runner.release(100)  # let the live scan finish
        worker.join()
        blocks1, blocks2 = drain(feed1), drain(feed2)
        assert len(blocks1) == 10  # 100 rows / block_rows=10
        assert block_bytes(blocks2) == block_bytes(blocks1)

    def test_attach_before_start_is_plain_feed(self, pinned):
        scheduler = JobScheduler()
        spec = spec_for(pinned, 0, 40)
        feed1, job, _, _ = scheduler.schedule(spec, 10)
        # A pre-start attach may extend the union range.
        feed2, job2, shared, catch_up = scheduler.schedule(
            spec_for(pinned, 20, 100), 10)
        assert shared and job2 is job and catch_up is None
        assert type(feed2) is ShardFeed
        assert (job.sid_lo, job.sid_hi) == (0, 100)
        scheduler.run_job(job)
        assert block_bytes(drain(feed1)) == block_bytes(drain(feed2))

    def test_range_outside_frozen_union_gets_fresh_job(self, pinned):
        scheduler = JobScheduler()
        runner = GatedRunner()
        spec = spec_for(pinned, 0, 50)
        feed1, job, _, _ = scheduler.schedule(spec, 10, runner)
        worker = threading.Thread(target=scheduler.run_job, args=(job,))
        worker.start()
        runner.release(1)
        wait_for(lambda: job._emitted == 1)
        # Started: the union is frozen at [0, 50); a wider spec cannot
        # join and must get its own job.
        feed2, job2, shared, catch_up = scheduler.schedule(
            spec_for(pinned, 0, 100), 10)
        assert not shared and job2 is not job and catch_up is None
        runner.release(100)
        worker.join()
        scheduler.run_job(job2)
        assert len(drain(feed1)) == 5
        assert len(drain(feed2)) == 10

    def test_attach_after_finish_gets_fresh_job(self, pinned):
        scheduler = JobScheduler()
        spec = spec_for(pinned)
        feed1, job, _, _ = scheduler.schedule(spec, 10)
        scheduler.run_job(job)
        drain(feed1)
        feed2, job2, shared, _ = scheduler.schedule(spec, 10)
        assert not shared and job2 is not job
        scheduler.run_job(job2)
        assert len(drain(feed2)) == 10

    def test_started_but_nothing_emitted_attaches_plain(self, pinned):
        scheduler = JobScheduler()
        runner = GatedRunner()
        spec = spec_for(pinned)
        feed1, job, _, _ = scheduler.schedule(spec, 10, runner)
        worker = threading.Thread(target=scheduler.run_job, args=(job,))
        worker.start()
        wait_for(lambda: job._started)
        feed2, _job2, shared, catch_up = scheduler.schedule(spec, 10)
        assert shared and catch_up is None and type(feed2) is ShardFeed
        runner.release(100)
        worker.join()
        assert block_bytes(drain(feed2)) == block_bytes(drain(feed1))

    def test_failed_catch_up_fails_only_the_late_consumer(self, pinned):
        scheduler = JobScheduler()
        runner = GatedRunner()
        spec = spec_for(pinned)
        feed1, job, _, _ = scheduler.schedule(spec, 10, runner)
        worker = threading.Thread(target=scheduler.run_job, args=(job,))
        worker.start()
        runner.release(2)
        wait_for(lambda: job._emitted == 2)
        feed2, _j, _s, catch_up = scheduler.schedule(spec, 10)

        def boom(s, lo, hi, br, counter=None):
            raise RuntimeError("catch-up storage gone")

        job._runner = boom  # sabotage only the re-scan
        catch_up()
        job._runner = runner
        runner.release(100)
        worker.join()
        assert len(drain(feed1)) == 10  # the live consumer is untouched
        with pytest.raises(RuntimeError, match="catch-up storage gone"):
            drain(feed2)


class TestServiceAttach:
    def test_late_query_attaches_and_stays_exact(self):
        db = Database(compressed=False)
        db.create_table("t", make_schema(),
                        [(i, i * 7) for i in range(30_000)])
        oracle = db.query("t")
        original_stream = ShardScanSpec.stream

        def slowed(self, *args, **kwargs):
            for block in original_stream(self, *args, **kwargs):
                time.sleep(0.005)
                yield block

        ShardScanSpec.stream = slowed
        # The monkeypatch above only slows parent-side (thread-mode)
        # scans; when REPRO_EXECUTOR=process routes the job into a
        # worker, the worker-side hook is the one that paces blocks.
        db.exec_router.block_delay_s = 0.005
        try:
            with db.serve(workers=2) as svc:
                attached = 0
                for _ in range(5):  # timing-dependent; retry the window
                    cur1 = svc.submit_query("t")
                    time.sleep(0.04)  # let the job start and emit blocks
                    cur2 = svc.submit_query("t")
                    rel1, rel2 = cur1.to_relation(), cur2.to_relation()
                    for rel in (rel1, rel2):
                        for c in ("k", "v"):
                            assert rel[c].tobytes() == oracle[c].tobytes()
                    attached = svc.stats.jobs_attached
                    if attached:
                        break
                assert attached >= 1
        finally:
            ShardScanSpec.stream = original_stream
            db.close()
