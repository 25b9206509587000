#!/usr/bin/env python3
"""End-to-end benchmark of the PDT column store. See README.md here, and
``e2ebench/cli.py`` for the options.

Run from the root of a checkout: ``python3 benchmarks/e2e/run.py``.
"""

import atexit
import sys
from pathlib import Path


def _reap_children():
    from e2ebench.harness import reap_children

    reap_children()


if __name__ == "__main__":
    # Worker processes of executor="process" are spawned: they import this
    # file as ``__mp_main__`` and must find nothing to run in it.
    checkout = Path(__file__).resolve().parents[2]
    source = checkout / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"no program to measure: {source}/repro is missing")
    # Registered before anything imports multiprocessing, so it runs after
    # multiprocessing's own exit handler, last of all: no process this one
    # started, Python's resource tracker included, outlives it.
    atexit.register(_reap_children)
    sys.path.insert(0, str(source))
    from e2ebench.cli import main

    sys.exit(main())
