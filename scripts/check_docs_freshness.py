#!/usr/bin/env python
"""Docs freshness gate: every runnable entry point must be documented.

Scans ``examples/*.py``, ``scripts/*.py``, and ``benchmarks/bench_*.py``
and fails if any of them is never mentioned (by file name) in README.md
or in any tracked markdown under ``docs/``. The inverse direction is
checked too: a doc that names an example/script/bench file which no
longer exists is stale and also fails — except planning text
(ROADMAP.md, ISSUE.md, CHANGES.md), which names files that are yet to
be built or long gone by design.

This is deliberately a plain-text mention check, not a link checker: a
file name appearing in prose, a fenced command, or a table all count.
Run it locally with::

    python scripts/check_docs_freshness.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCANNED_DIRS = {
    "examples": "examples/*.py",
    "scripts": "scripts/*.py",
    "benchmarks": "benchmarks/bench_*.py",
}

DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "ROADMAP.md"]

# Planning text, not user docs: exempt from the "mentions a missing
# file" rule only (a mention there still documents a runnable file).
PLANNING_DOCS = {"ROADMAP.md", "ISSUE.md", "CHANGES.md"}


def doc_corpus() -> dict[Path, str]:
    docs = {}
    for path in DOC_FILES:
        if path.exists():
            docs[path] = path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "docs").glob("**/*.md")):
        docs[path] = path.read_text(encoding="utf-8")
    return docs


def main() -> int:
    docs = doc_corpus()
    if not docs:
        print("docs-freshness: no README.md or docs/*.md found",
              file=sys.stderr)
        return 1
    corpus = "\n".join(docs.values())
    failures: list[str] = []

    # Forward: every runnable file is mentioned somewhere.
    known_names: set[str] = set()
    for _label, pattern in SCANNED_DIRS.items():
        for path in sorted(ROOT.glob(pattern)):
            if path.name == "conftest.py":
                continue
            known_names.add(path.name)
            if path.name not in corpus:
                failures.append(
                    f"{path.relative_to(ROOT)} is not mentioned in "
                    f"README.md or docs/ — document it or remove it"
                )

    # Reverse: docs must not name example/script/bench files that are
    # gone. Only file-shaped mentions under the scanned directories are
    # considered, so prose is free to discuss anything else.
    mention = re.compile(
        r"\b(?:examples|scripts|benchmarks)/([A-Za-z0-9_.-]+\.py)\b")
    for doc_path, text in docs.items():
        if doc_path.name in PLANNING_DOCS:
            continue
        for match in mention.finditer(text):
            name = match.group(1)
            referenced = ROOT / match.group(0)
            if name != "conftest.py" and not referenced.exists():
                failures.append(
                    f"{doc_path.relative_to(ROOT)} mentions "
                    f"{match.group(0)}, which does not exist"
                )

    if failures:
        print("docs-freshness check FAILED:", file=sys.stderr)
        for failure in sorted(set(failures)):
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"docs-freshness: OK ({len(known_names)} runnable files, "
          f"{len(docs)} docs checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
