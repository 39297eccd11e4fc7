#!/usr/bin/env python
"""Execute the ```python code fences in markdown docs so examples cannot rot.

Usage::

    PYTHONPATH=src python scripts/run_doc_fences.py docs/*.md README.md

Each file's fences run top to bottom in one shared namespace (so a later fence
may build on an earlier one), inside a throwaway working directory.  Any
exception fails the run with the file, fence number and offending line.  Fences
tagged with a language other than ``python`` (e.g. ``bash``) are ignored, as is
any fence whose opening line is ``` ```python no-run ``` (escape hatch for
illustrative snippets).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

FENCE = re.compile(r"^```(.*)$")


def extract_fences(text: str) -> list[tuple[int, str, str]]:
    """Return (start line, language tag, body) for every fenced block."""
    fences = []
    language = None
    body: list[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = FENCE.match(line.strip())
        if match and language is None:
            language = match.group(1) or ""
            body = []
            start = number
        elif line.strip() == "```" and language is not None:
            fences.append((start, language, "\n".join(body)))
            language = None
        elif language is not None:
            body.append(line)
    return fences


def run_file(path: Path) -> int:
    """Execute one markdown file's python fences; return the count executed."""
    namespace: dict = {"__name__": f"docfence:{path.name}"}
    executed = 0
    for start, language, body in extract_fences(path.read_text()):
        tag = language.split()[0] if language.strip() else ""
        if tag != "python" or "no-run" in language:
            continue
        try:
            code = compile(body, f"{path}:{start}", "exec")
            exec(code, namespace)  # noqa: S102 - the whole point of this script
        except Exception:
            print(f"FAILED fence at {path}:{start}", file=sys.stderr)
            traceback.print_exc()
            raise SystemExit(1)
        executed += 1
    return executed


def main(argv: list[str] | None = None) -> int:
    """Run every python fence of every given markdown file in a temp cwd."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="markdown files to execute")
    args = parser.parse_args(argv)
    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root / "src"))
    files = [Path(name).resolve() for name in args.files]
    origin = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="doc_fences_") as tmp:
        os.chdir(tmp)
        try:
            for path in files:
                count = run_file(path)
                print(f"{path.relative_to(repo_root)}: {count} python fence(s) ok")
        finally:
            os.chdir(origin)
    return 0


if __name__ == "__main__":
    sys.exit(main())
