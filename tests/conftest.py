"""Suite-wide configuration: storage-backend parametrization support.

The tier-1 suite runs against the default in-memory backend, and CI runs
it a *second* time with ``REPRO_STORAGE_BACKEND=mmap``, which makes every
``Database()`` construct ephemeral mmap-file storage — every existing
test then exercises real file-backed blocks with zero edits. This
conftest keeps those ephemeral roots under pytest's session tmp dir (so
they are reclaimed with the test run even if an interpreter exit beats a
GC finalizer), closes every database a test leaves open, and surfaces
the active backend in the report header.
"""

import os

import pytest

from repro import Database


def pytest_report_header(config):
    backend = os.environ.get("REPRO_STORAGE_BACKEND", "memory")
    executor = os.environ.get("REPRO_EXECUTOR", "thread")
    return f"repro storage backend: {backend}; executor: {executor}"


@pytest.fixture(scope="session", autouse=True)
def _storage_root(tmp_path_factory):
    if os.environ.get("REPRO_STORAGE_BACKEND") == "mmap" and \
            "REPRO_STORAGE_DIR" not in os.environ:
        root = tmp_path_factory.mktemp("mmap-storage")
        os.environ["REPRO_STORAGE_DIR"] = str(root)
        yield
        os.environ.pop("REPRO_STORAGE_DIR", None)
    else:
        yield


@pytest.fixture(autouse=True)
def _close_databases(monkeypatch):
    """Close every ``Database`` a test leaves open. Most tests are
    written for the in-memory backend, where closing is a no-op; under
    ``REPRO_STORAGE_BACKEND=mmap`` each of those databases owns a temp
    root and an open WAL file, and ``pytest.ini`` turns the
    ``ResourceWarning`` an unclosed one raises into an error."""
    opened = []
    init = Database.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Database, "__init__", tracked_init)
    yield
    monkeypatch.undo()
    for db in opened:
        db.close()


@pytest.fixture(params=["memory", "mmap"])
def storage_backend(request, tmp_path):
    """Explicit both-backends parametrization for tests that want to
    assert backend-specific behavior (the conformance suite builds its
    own backends; this is for Database-level cases)."""
    if request.param == "memory":
        return "memory"
    return f"mmap:{tmp_path / 'db-storage'}"
