"""Layering guard: five couplings that must not grow back.

* A PDT's payloads live in its value space (paper eq. 7), and only
  ``repro.core`` reads it. Everything above the core takes a PDT's
  contents through ``PDT.entries()``, so no module under ``txn``,
  ``shard``, ``exec``, ``db`` or ``service`` calls
  ``<pdt>.values.value_of`` or ``<pdt>.values.get_*``.
* ``repro.exec`` (worker processes and their payloads) imports nothing
  from ``repro.txn``.
* A transaction reads every committed layer through its snapshot pin, so
  ``repro.txn.transaction`` never reads ``.stable``, ``.read_pdt``,
  ``.write_pdt`` or ``.sparse_index`` off the manager's live table state
  (``state_of(...)``, ``_tables[...]`` or a name bound to either);
  reading its ``.schema`` is fine.
* Maintenance protects a reader only through pins (a running transaction
  is one), so ``txn/checkpoint.py``, ``txn/scheduler.py`` and
  ``TransactionManager.propagate_write_to_read`` never name
  ``running_count`` or ``_running``.
* A checkpoint merges the stable window through the Read- and Write-PDT
  in one pass, so ``txn/checkpoint.py`` never calls
  ``propagate_write_to_read`` (a Propagate whose result the fold drops).

The check parses the source (no imports), so it stays well under a
second.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ABOVE_CORE = ("txn", "shard", "exec", "db", "service")
STATE_FIELDS = ("stable", "read_pdt", "write_pdt", "sparse_index")
RUNNING = ("running_count", "_running")


def modules(package):
    return sorted((SRC / package).rglob("*.py"))


def value_space_reads(tree):
    """``(line, text)`` of every ``X.values.value_of`` / ``X.values.get_*``."""
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and (node.attr == "value_of" or node.attr.startswith("get_"))
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "values"
        ):
            hits.append((node.lineno, ast.unparse(node)))
    return hits


def txn_imports(tree):
    """``(line, module)`` of every import of ``repro.txn`` from inside
    ``repro.exec`` (relative ``..txn`` or absolute)."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 2:
                target = module
            elif node.level == 0 and module.startswith("repro."):
                target = module[len("repro."):]
            else:
                target = ""
            if target == "txn" or target.startswith("txn."):
                hits.append((node.lineno, module))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.txn" or \
                        alias.name.startswith("repro.txn."):
                    hits.append((node.lineno, alias.name))
    return hits


def _is_live_state(node, state_names):
    """Is ``node`` the manager's live state of a table?"""
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr == "state_of"
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Attribute) and \
            node.value.attr == "_tables"
    return isinstance(node, ast.Name) and node.id in state_names


def live_state_reads(tree):
    """``(line, text)`` of every ``.stable`` / ``.read_pdt`` /
    ``.write_pdt`` / ``.sparse_index`` read off live table state."""
    state_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_live_state(node.value, ()):
            state_names.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STATE_FIELDS
        and _is_live_state(node.value, state_names)
    ]


def running_refs(tree):
    """``(line, name)`` of every ``running_count`` / ``_running`` named
    as an attribute or a bare name (docstrings do not count)."""
    hits = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) else None
        if name in RUNNING:
            hits.append((node.lineno, name))
    return hits


def calls_of(tree, name):
    """``(line, text)`` of every call of ``name``, bare or as a method."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "attr", None),
                     getattr(node.func, "id", None))
    ]


def method(tree, cls, name):
    """The ``def name`` node inside ``class cls``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def test_no_value_space_reads_above_core():
    found = []
    for package in ABOVE_CORE:
        for path in modules(package):
            tree = ast.parse(path.read_text(), str(path))
            found += [f"{path.relative_to(SRC)}:{line}: {text}"
                      for line, text in value_space_reads(tree)]
    assert not found, "read the PDT through entries():\n" + "\n".join(found)


def test_exec_does_not_import_txn():
    found = []
    for path in modules("exec"):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(SRC)}:{line}: {module}"
                  for line, module in txn_imports(tree)]
    assert not found, "repro.exec imports repro.txn:\n" + "\n".join(found)


def test_transaction_reads_through_its_pin():
    path = SRC / "txn" / "transaction.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [f"txn/transaction.py:{line}: {text}"
             for line, text in live_state_reads(tree)]
    assert not found, "read committed layers through the pin:\n" + \
        "\n".join(found)


def test_maintenance_asks_only_about_pins():
    found = []
    for rel in ("txn/checkpoint.py", "txn/scheduler.py"):
        path = SRC / rel
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{rel}:{line}: {name}"
                  for line, name in running_refs(tree)]
    path = SRC / "txn" / "manager.py"
    body = method(ast.parse(path.read_text(), str(path)),
                  "TransactionManager", "propagate_write_to_read")
    found += [f"txn/manager.py:{line}: {name}"
              for line, name in running_refs(body)]
    assert not found, "maintenance gates on running transactions:\n" + \
        "\n".join(found)


def test_fold_runs_no_propagate():
    path = SRC / "txn" / "checkpoint.py"
    found = [f"txn/checkpoint.py:{line}: {text}" for line, text in
             calls_of(ast.parse(path.read_text(), str(path)),
                      "propagate_write_to_read")]
    assert not found, "the fold propagates first:\n" + "\n".join(found)


def test_guard_sees_both_couplings():
    """The detectors fire on the shapes they guard against."""
    reads = ast.parse("value_of = pdt.values.value_of\n"
                      "row = state.read_pdt.values.get_insert(ref)\n"
                      "vals = table.values()\n")
    assert [line for line, _ in value_space_reads(reads)] == [1, 2]
    imports = ast.parse("from ..txn.wal import WriteAheadLog\n"
                        "from repro.txn import manager\n"
                        "import repro.txn.wal\n"
                        "from ..core.pdt import PDT\n"
                        "from .transport import Ring\n")
    assert [line for line, _ in txn_imports(imports)] == [1, 2, 3]


def test_guard_sees_live_state_reads():
    """Committed layers read off live state fire; the pin's and
    ``.schema`` do not."""
    state = ast.parse("state = self._manager.state_of(table)\n"
                      "layers = [state.read_pdt, state.write_pdt]\n"
                      "stable = self._manager.state_of(name).stable\n"
                      "index = manager._tables[name].sparse_index\n"
                      "schema = self._manager.state_of(name).schema\n"
                      "pinned = self.pin.table(name)\n"
                      "rows = (pinned.stable, pinned.read_pdt)\n")
    assert sorted(line for line, _ in live_state_reads(state)) == \
        [2, 2, 3, 4]


def test_guard_sees_running_refs():
    """A gate on running transactions fires; its docstring mention and
    ``is_pinned`` do not."""
    tree = ast.parse("class TransactionManager:\n"
                     "    def propagate_write_to_read(self, t):\n"
                     "        'needs no running_count()'\n"
                     "        if self._running:\n"
                     "            raise TransactionError()\n"
                     "        if manager.running_count() or pinned(t):\n"
                     "            return\n"
                     "        _running = manager.is_pinned(t)\n")
    body = method(tree, "TransactionManager", "propagate_write_to_read")
    assert sorted(line for line, _ in running_refs(body)) == [4, 6, 8]


def test_guard_sees_propagate_calls():
    """A Propagate call fires, as a method or a bare name; its docstring
    mention and a lookalike name do not."""
    tree = ast.parse("def _fold(manager, table):\n"
                     "    'no propagate_write_to_read() first'\n"
                     "    manager.propagate_write_to_read(table)\n"
                     "    propagate_write_to_read(table)\n"
                     "    manager.propagate_write(table)\n")
    assert [line for line, _ in
            calls_of(tree, "propagate_write_to_read")] == [3, 4]
