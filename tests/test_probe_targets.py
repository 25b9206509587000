"""Every end-to-end benchmark probe target still names a live symbol.

A traced benchmark run (``benchmarks/e2e/run.py --trace 1``) patches the
``module:qualname`` entry points listed in ``e2ebench/probes.py`` and
fails when one no longer resolves. This guard resolves the same list the
same way — a module attribute for a bare name, the class ``__dict__``
entry for ``Class.method`` — so a refactor that renames or deletes a
probed symbol fails here, in well under a second, instead of only in a
traced run.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

PROBES = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "e2e" / "e2ebench" / "probes.py")


def _load_targets():
    spec = importlib.util.spec_from_file_location("_e2e_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = _load_targets()


def resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    parts = qualname.split(".")
    if len(parts) == 1:
        return getattr(module, parts[0])
    return getattr(module, parts[0]).__dict__[parts[1]]


def test_target_list_is_loaded():
    assert TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.qualname}" for t in TARGETS])
def test_probe_target_resolves(target):
    assert resolve(target.module, target.qualname) is not None


def test_scheduled_job_keeps_the_shape_the_probes_read():
    """``probes.py`` unpacks ``JobScheduler.schedule``'s 4-tuple, sets
    attributes on the job, reads its push-down counter and hooks
    ``QueryService._run_job(job)``; this drives that contract once."""
    from repro import Database, DataType, Schema
    from repro.engine import expr as ex
    from repro.service.jobs import JobScheduler
    from repro.service.plan import plan_scan

    schema = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                          sort_key=("k",))
    with Database(compressed=False) as db:
        db.create_table("t", schema, [(i, i % 5) for i in range(100)])
        with db.serve(workers=1) as svc, db.pin_snapshot() as pin:
            spec = plan_scan(pin, "t", where=ex.eq("v", 0)).parts[0]
            feed, job, shared, catch_up = JobScheduler().schedule(spec)
            assert shared is False and catch_up is None
            assert set(job.pushdown_counter) >= {"rows_in", "rows_out"}
            job.bench_ctx = 1
            job.bench_scheduled = 0.0
            svc._run_job(job)
            rows = sum(len(arrays["k"]) for _rid, arrays in feed.blocks())
    assert rows == 20
    assert job.pushdown_counter == {"rows_in": 100, "rows_out": 20}
